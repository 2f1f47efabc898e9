"""The public API: every exported name resolves, and names that were
removed stay unreachable."""
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil

import pytest

import platestamp
from platestamp import Geometry, Material
from platestamp.cli import OutputBundle, RunConfig
from platestamp.stamp_problem import sine_coefficients
from platestamp.strip_solution import SeriesField, assemble_series, closed_profiles
from platestamp.verification import (ModeDiscrepancy, ResidualReport, SharedGridFields,
                                     constitutive_residual, equilibrium_residual)

MODULES = sorted(f"platestamp.{m.name}" for m in pkgutil.iter_modules(platestamp.__path__)
                 if m.name != "__main__")

#: names removed from the package, by the module that held them
REMOVED = {
    "platestamp.cli": ("VERIFY_MARGIN_FRACTION",),
    "platestamp.core": ("ModeIndex", "QuadratureError", "FdSolveError",
                        "SingularRatioError", "Parity"),
    "platestamp.modal_calculus": (
        "ModalValue", "apply_parity", "building_block", "_block_value",
        "vlasov_operator", "BLOCK_IDS", "VLASOV_IDS", "_ODD_OPERATORS", "_coth",
        "OperatorId", "_OPERATOR_ALIASES", "_operator_multiplier",
        "RatioKind", "stable_ratio",
    ),
    "platestamp.harmonic_rect": ("stamp_block_coefficients", "ramp_transform",
                                 "QuadratureSpec", "solve_dirichlet", "evaluate_harmonic",
                                 "DirichletData", "HarmonicSeries"),
    "platestamp.strip_solution": (
        "ModeFieldCoeffs", "_bind", "mode_fields_blocks", "mode_fields_initial",
        "mode_fields_closed", "_scaled_ops", "_ZERO_ROW_OPS", "_INITIAL_ROWS",
        "calibrate_delta_ratio", "_CALIBRATION_TOL", "_CALIBRATION_MODE",
        "_CALIBRATION_SAMPLES", "FIELD_PARITIES",
    ),
    "platestamp.verification": ("path_profile_difference", "fd_laplace_solve",
                                "laplacian_residual"),
}
#: a series field instance, since dataclass fields are not class attributes
SERIES = assemble_series([1.0], Geometry(2.0, 1.0), Material(1.0, 0.3))
#: dataclass fields removed, by the class that held them
REMOVED_FIELDS = {OutputBundle: ("ys", "report_text", "pressure")}
REMOVED_MEMBERS = [
    # stamp_problem no longer re-exports the value type that core holds
    (platestamp.stamp_problem, "FieldSample"),
    (SeriesField, "grid_fields_many"),
    (SeriesField, "sample"),
    (SERIES, "grid_fields_many"),
    (SERIES, "modes"),
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.__all__ lists missing name {name!r}"
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)


def test_package_star_import():
    namespace = {}
    exec("from platestamp import *", namespace)
    assert "assemble_series" in namespace


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_unreachable(module):
    mod = importlib.import_module(module)
    for names in REMOVED.values():
        for name in names:
            assert not hasattr(platestamp, name), name
            assert not hasattr(mod, name), f"{module}.{name}"


def test_removed_modules_gone():
    # the four-edge Dirichlet solver lives on as test support only, and
    # the hyperbolic ratios are private helpers of strip_solution
    for module in ("platestamp.harmonic_rect", "platestamp.modal_calculus"):
        assert importlib.util.find_spec(module) is None, module


def test_removed_members_unreachable():
    for owner, name in REMOVED_MEMBERS:
        assert not hasattr(owner, name), f"{owner!r:.40}.{name}"


def test_removed_parameters():
    assert "uncorrected_shear" not in inspect.signature(assemble_series).parameters
    assert "uncorrected_shear" not in inspect.signature(closed_profiles).parameters
    # path C's amplitude is the sine coefficient, with no calibrated ratio;
    # the report's per-mode delta/c column is its amplitude_ratio
    assert "delta_ratio" not in inspect.signature(closed_profiles).parameters
    assert "delta_ratio" not in [f.name for f in dataclasses.fields(ModeDiscrepancy)]
    # the shared grids are evaluated when a meter first asks for them
    assert list(inspect.signature(SharedGridFields).parameters) == ["sf"]
    # the quadrature has no setting: tests force it through sine_transform
    coeffs = inspect.signature(sine_coefficients).parameters
    assert list(coeffs) == ["profile", "geom", "N"]
    # the meters work out their own grid pair and exclusion band
    for meter in (equilibrium_residual, constitutive_residual):
        params = inspect.signature(meter).parameters
        assert "refined" not in params and "exclusion_margin" not in params
    # the meters check the material of the field they are given
    assert "material" not in inspect.signature(constitutive_residual).parameters


def test_residual_report_fields():
    # the meters report no location of the largest residual
    fields = dataclasses.fields(ResidualReport)
    assert [f.name for f in fields] == ["max_abs", "l2", "observed_order"]
    # every meter measures a grid pair, so every report has an order
    assert all(f.default is dataclasses.MISSING for f in fields)


def test_output_bundle_fields():
    # the bundle keeps what callers read, is built once and is frozen
    fields = [f.name for f in dataclasses.fields(OutputBundle)]
    assert fields == ["xs", "fields", "summary", "files"]
    for owner, names in REMOVED_FIELDS.items():
        assert not set(names) & {f.name for f in dataclasses.fields(owner)}
    bundle = OutputBundle(**dict.fromkeys(fields))
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.files = {}
    # the one default output directory is RunConfig's
    (output_dir,) = (f for f in dataclasses.fields(RunConfig) if f.name == "output_dir")
    assert output_dir.default == "platestamp_out"
