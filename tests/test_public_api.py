"""The public API: every exported name resolves, and names that were
removed stay unreachable."""
import importlib
import inspect
import pkgutil

import pytest

import platestamp
from platestamp import Geometry, Material, OperatorId, Parity
from platestamp.harmonic_rect import solve_dirichlet
from platestamp.stamp_problem import sine_coefficients
from platestamp.strip_solution import SeriesField, assemble_series, calibrate_delta_ratio
from platestamp.verification import SharedGridFields, constitutive_residual

MODULES = sorted(f"platestamp.{m.name}" for m in pkgutil.iter_modules(platestamp.__path__)
                 if m.name != "__main__")

#: names removed from the package, by the module that held them
REMOVED = {
    "platestamp.core": ("ModeIndex",),
    "platestamp.modal_calculus": (
        "ModalValue", "apply_parity", "building_block", "_block_value",
        "vlasov_operator", "BLOCK_IDS", "VLASOV_IDS", "_ODD_OPERATORS", "_coth",
    ),
    "platestamp.harmonic_rect": ("stamp_block_coefficients", "ramp_transform",
                                 "QuadratureSpec"),
    "platestamp.strip_solution": (
        "ModeFieldCoeffs", "_bind", "mode_fields_blocks", "mode_fields_initial",
        "mode_fields_closed",
    ),
}
#: a series field instance, since dataclass fields are not class attributes
SERIES = assemble_series([1.0], Geometry(2.0, 1.0), Material(1.0, 0.3))
REMOVED_MEMBERS = [(OperatorId, f"B{i}") for i in range(10, 18)] + [
    (Parity, "flipped"),
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


def test_removed_members_unreachable():
    for owner, name in REMOVED_MEMBERS:
        assert not hasattr(owner, name), f"{owner!r:.40}.{name}"


def test_removed_parameters():
    assert "uncorrected_shear" not in inspect.signature(assemble_series).parameters
    assert list(inspect.signature(calibrate_delta_ratio).parameters) == ["geom", "mat"]
    axes = inspect.signature(SharedGridFields).parameters["axes"]
    assert axes.default is inspect.Parameter.empty
    # ``panels`` is the one quadrature setting of either solver
    coeffs = inspect.signature(sine_coefficients).parameters
    assert "quad" not in coeffs and "force_quadrature" not in coeffs
    dirichlet = inspect.signature(solve_dirichlet).parameters
    assert "quad" not in dirichlet
    assert coeffs["panels"].default is dirichlet["panels"].default is None
    # the meters check the material of the field they are given
    assert "material" not in inspect.signature(constitutive_residual).parameters

