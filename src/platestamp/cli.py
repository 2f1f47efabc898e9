"""Command-line driver: config parsing, batch execution, artifact output.

Config files are INI-style with sections [geometry], [material], [stamp],
[solver], [output]; see the README for the key list.  Outputs are plain
comma-separated text plus a human-readable report and a key=value
summary, written with 17 significant digits so repeated runs are
byte-identical.
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    BoundaryCompatibilityError,
    ConfigError,
    Geometry,
    Material,
    MaterialError,
    PlateStampError,
)
from .stamp_problem import (
    BoundaryProfile,
    ProfileKind,
    contact_pressure,
    sine_coefficients,
    total_force,
)
from .strip_solution import SolutionPath, assemble_series
from .verification import (
    GridSpec,
    SharedGridFields,
    constitutive_residual,
    discrepancy_report,
    equilibrium_residual,
)

__all__ = ["RunConfig", "OutputBundle", "parse_config", "run", "main"]

FIELD_GRID_HEADER = "x,y,u,v,sigma_x,sigma_y,tau_xy"
PRESSURE_HEADER = "x,sigma_y_at_h"

#: physical band excluded by the verification order meters (see
#: platestamp.verification: the truncated series is unresolvable by the
#: run grid inside a ~1/k_N boundary layer), as a fraction of the plate's
#: shorter side: the band runs along all four sides, so a fraction of the
#: longer side can leave no interior point.
VERIFY_MARGIN_FRACTION = 0.15

_KNOWN_KEYS = {
    "geometry": {"l", "h"},
    "material": {"E", "nu"},
    "stamp": {"kind", "center", "half_width", "depth", "mode", "xs", "values"},
    "solver": {"modes", "grid", "path", "verify"},
    "output": {"directory"},
}
_REQUIRED_KEYS = {
    "geometry": ("l", "h"),
    "material": ("E", "nu"),
    "stamp": ("kind",),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    geometry: Geometry
    material: Material
    profile: BoundaryProfile
    modes: int = 64
    grid_nx: int = 41
    grid_ny: int = 41
    path: str = "B"          # A | B | C | all
    verify: bool = False
    output_dir: str | None = None


@dataclass
class OutputBundle:
    xs: np.ndarray
    ys: np.ndarray
    fields: dict
    pressure: np.ndarray
    summary: dict
    report_text: str
    files: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _get_float(cp, section, key, positive=False):
    raw = cp.get(section, key)
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"invalid value for [{section}] {key}: {raw!r} is not a number")
    if not math.isfinite(value):
        raise ConfigError(f"invalid value for [{section}] {key}: must be finite, got {raw!r}")
    if positive and not value > 0:
        raise ConfigError(f"invalid value for [{section}] {key}: must be positive, got {value}")
    return value


def _get_int(cp, section, key, minimum=1):
    raw = cp.get(section, key)
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"invalid value for [{section}] {key}: {raw!r} is not an integer")
    if value < minimum:
        raise ConfigError(f"invalid value for [{section}] {key}: must be >= {minimum}")
    return value


def _parse_grid(raw: str) -> tuple[int, int]:
    parts = raw.lower().replace(" ", "").split("x")
    if len(parts) != 2:
        raise ConfigError(f"invalid value for [solver] grid: expected NXxNY, got {raw!r}")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"invalid value for [solver] grid: expected NXxNY, got {raw!r}")
    if nx < 2 or ny < 2:
        raise ConfigError(f"invalid value for [solver] grid: needs at least 2x2, got {raw!r}")
    return nx, ny


def _build_profile(cp) -> BoundaryProfile:
    kind = cp.get("stamp", "kind").strip().lower()

    def need(*keys):
        missing = [k for k in keys if not cp.has_option("stamp", k)]
        if missing:
            raise ConfigError(f"missing required key {missing[0]!r} in section [stamp] "
                              f"for kind {kind!r}")
        return [_get_float(cp, "stamp", k) for k in keys]

    if kind == "single_mode":
        if not cp.has_option("stamp", "mode"):
            raise ConfigError("missing required key 'mode' in section [stamp] "
                              "for kind 'single_mode'")
        mode = _get_int(cp, "stamp", "mode")
        (depth,) = need("depth")
        return BoundaryProfile.single_mode(mode, depth)
    if kind == "raised_cosine":
        center, half_width, depth = need("center", "half_width", "depth")
        return BoundaryProfile.raised_cosine(center, half_width, depth)
    if kind == "parabolic_bump":
        center, half_width, depth = need("center", "half_width", "depth")
        return BoundaryProfile.parabolic_bump(center, half_width, depth)
    if kind == "flat_stamp":
        center, half_width, depth = need("center", "half_width", "depth")
        return BoundaryProfile.flat_stamp(center, half_width, depth)
    if kind == "tabulated":
        for key in ("xs", "values"):
            if not cp.has_option("stamp", key):
                raise ConfigError(f"missing required key {key!r} in section [stamp] "
                                  "for kind 'tabulated'")

        def floats(key):
            error = ConfigError(f"invalid value for [stamp] {key}: expected "
                                "space-separated finite numbers")
            try:
                values = [float(v) for v in cp.get("stamp", key).split()]
            except ValueError:
                raise error
            if not all(map(math.isfinite, values)):
                raise error
            return values

        try:
            return BoundaryProfile.tabulated(floats("xs"), floats("values"))
        except PlateStampError as exc:
            raise ConfigError(f"invalid tabulated stamp: {exc}") from exc
    raise ConfigError(f"invalid value for [stamp] kind: {kind!r} (expected single_mode, "
                      "raised_cosine, parabolic_bump, flat_stamp or tabulated)")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned key=value config document."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section, keys in _REQUIRED_KEYS.items():
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
        for key in keys:
            if not cp.has_option(section, key):
                raise ConfigError(f"missing required key {key!r} in section [{section}]")

    geom = Geometry(l=_get_float(cp, "geometry", "l", positive=True),
                    h=_get_float(cp, "geometry", "h", positive=True))
    nu = _get_float(cp, "material", "nu")
    E = _get_float(cp, "material", "E", positive=True)
    try:
        mat = Material(E=E, nu=nu)
    except MaterialError as exc:
        raise ConfigError(f"invalid material: {exc}") from exc

    profile = _build_profile(cp)
    _check_support(profile, geom)
    # reject stamps whose face displacement fails to vanish at the corners
    profile.validate_edges(geom)

    modes = 64
    grid_nx = grid_ny = 41
    path = "B"
    verify = False
    if cp.has_section("solver"):
        if cp.has_option("solver", "modes"):
            modes = _get_int(cp, "solver", "modes")
        if cp.has_option("solver", "grid"):
            grid_nx, grid_ny = _parse_grid(cp.get("solver", "grid"))
        if cp.has_option("solver", "path"):
            path = cp.get("solver", "path").strip()
            if path not in ("A", "B", "C", "all"):
                raise ConfigError(f"invalid value for [solver] path: {path!r} "
                                  "(expected A, B, C or all)")
        if cp.has_option("solver", "verify"):
            try:
                verify = cp.getboolean("solver", "verify")
            except ValueError:
                raise ConfigError(f"invalid value for [solver] verify: "
                                  f"{cp.get('solver', 'verify')!r} is not a boolean")
    output_dir = None
    if cp.has_section("output") and cp.has_option("output", "directory"):
        output_dir = cp.get("output", "directory")

    config = RunConfig(geometry=geom, material=mat, profile=profile, modes=modes,
                       grid_nx=grid_nx, grid_ny=grid_ny, path=path, verify=verify,
                       output_dir=output_dir)
    _check_combination(config)
    return config


def _check_support(profile: BoundaryProfile, geom: Geometry) -> None:
    """Reject a stamp that leaves the whole face [0, l] untouched: it would
    solve to an all-zero field."""
    if profile.kind is ProfileKind.TABULATED:
        # piecewise linear and zero at both corners, so zero on the face
        # exactly when it is zero at every knot on the face
        if not any(profile.evaluate(x, geom) for x in profile.xs if 0.0 <= x <= geom.l):
            raise ConfigError(f"invalid value for [stamp] values: the tabulated profile is "
                              f"zero all along the face [0, {geom.l:g}]")
    elif profile.kind is not ProfileKind.SINGLE_MODE:
        lo, hi = profile.breakpoints(geom)
        if lo >= geom.l:
            raise ConfigError(f"invalid value for [stamp] center: the stamp covers "
                              f"[{lo:g}, {hi:g}], outside the face [0, {geom.l:g}]")


def _check_combination(config: RunConfig) -> None:
    """Constraints between keys; checked again after command-line overrides."""
    if (config.verify or config.path == "all") and min(config.grid_nx, config.grid_ny) < 3:
        raise ConfigError(f"invalid value for [solver] grid: verification needs at least "
                          f"3x3 points, got {config.grid_nx}x{config.grid_ny}")
    profile = config.profile
    if profile.kind is ProfileKind.SINGLE_MODE and profile.mode > config.modes:
        raise ConfigError(f"invalid value for [stamp] mode: mode {profile.mode} is not "
                          f"representable with [solver] modes = {config.modes}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return format(float(v), ".17g")


#: the five field cells of a field_grid.csv line; "%.17g" gives a float
#: the same digits as :func:`_fmt`
_FIELD_CELLS = ",".join(["%.17g"] * 5)


def _field_grid_rows(xs, ys, fields):
    """The lines of field_grid.csv after its header, as one string per grid
    row (one y), so the whole table is never held as text."""
    x_cells = [_fmt(x) + "," for x in xs.tolist()]
    columns = [fields[name] for name in ("u", "v", "sigma_x", "sigma_y", "tau_xy")]
    for j, y in enumerate(ys.tolist()):
        y_cell = _fmt(y) + ","
        yield "".join([x_cell + y_cell + _FIELD_CELLS % values + "\n"
                       for x_cell, values in zip(x_cells,
                                                 zip(*(c[j].tolist() for c in columns)))])


def run(config: RunConfig, output_dir=None) -> OutputBundle:
    """Execute one configuration and write the output bundle.

    Deterministic: a fixed config produces byte-identical files.
    """
    geom, mat = config.geometry, config.material
    coeffs = sine_coefficients(config.profile, geom, config.modes)

    emit_path = SolutionPath.B if config.path == "all" else SolutionPath(config.path)
    sf = assemble_series(coeffs, geom, mat, path=emit_path)

    xs = np.linspace(0.0, geom.l, config.grid_nx)
    ys = np.linspace(0.0, geom.h, config.grid_ny)
    run_verification = config.verify or config.path == "all"
    if run_verification:
        # the discrepancy report runs before the grid pass, so that the
        # kept grids do not add to its memory peak
        disc = discrepancy_report(geom, mat, range(1, config.modes + 1))
        grid = GridSpec(config.grid_nx, config.grid_ny)
        refined = GridSpec(2 * config.grid_nx - 1, 2 * config.grid_ny - 1)
        # the output grid and the coarse and fine grids that both residual
        # meters read: one profile pass evaluates all three
        shared = SharedGridFields(sf, [(xs, ys), grid.axes(geom), refined.axes(geom)])
        fields = shared.grid_fields(xs, ys)
    else:
        fields = sf.grid_fields(xs, ys)
    pressure = contact_pressure(sf, xs)
    force = total_force(sf)

    summary = {
        "path": emit_path.value,
        "modes": config.modes,
        "grid_nx": config.grid_nx,
        "grid_ny": config.grid_ny,
        "total_force": force,
        "max_abs_v": float(np.max(np.abs(fields["v"]))),
        "max_abs_sigma_y": float(np.max(np.abs(fields["sigma_y"]))),
    }

    report_lines = [
        "plate-stamp run report",
        f"  geometry: l={geom.l:g}, h={geom.h:g}",
        f"  material: E={mat.E:g}, nu={mat.nu:g} (G={mat.G:.9g}, lambda={mat.lam:.9g})",
        f"  stamp: {config.profile.kind.value}",
        f"  modes: {config.modes}, solution path: {emit_path.value}",
        f"  total force per unit thickness: {_fmt(force)}",
        f"  max |v| on grid: {_fmt(summary['max_abs_v'])}",
        f"  max |sigma_y| on grid: {_fmt(summary['max_abs_sigma_y'])}",
    ]

    if run_verification:
        summary.update(disc.as_dict())

        margin = VERIFY_MARGIN_FRACTION * min(geom.l, geom.h)
        eq1, eq2 = equilibrium_residual(shared, grid, refined=refined,
                                        exclusion_margin=margin)
        c1, c2, c3 = constitutive_residual(shared, grid, refined=refined,
                                           exclusion_margin=margin)
        del shared  # frees the kept grids before the artifacts are formatted
        summary.update({
            "equilibrium_order_x": eq1.observed_order,
            "equilibrium_order_y": eq2.observed_order,
            "equilibrium_max_abs_x": eq1.max_abs,
            "equilibrium_max_abs_y": eq2.max_abs,
            "constitutive_order_sigma_x": c1.observed_order,
            "constitutive_order_sigma_y": c2.observed_order,
            "constitutive_order_tau_xy": c3.observed_order,
        })
        report_lines += [
            "",
            disc.as_text(),
            "",
            "residual meters (central differences, grid pair "
            f"{config.grid_nx}x{config.grid_ny} -> {refined.nx}x{refined.ny}, "
            f"exclusion margin {margin:g}):",
            f"  equilibrium x: max {eq1.max_abs:.3e}, observed order {eq1.observed_order:.3f}",
            f"  equilibrium y: max {eq2.max_abs:.3e}, observed order {eq2.observed_order:.3f}",
            f"  constitutive sigma_x: order {c1.observed_order:.3f}",
            f"  constitutive sigma_y: order {c2.observed_order:.3f}",
            f"  constitutive tau_xy: order {c3.observed_order:.3f}",
        ]

    report_text = "\n".join(report_lines) + "\n"

    for key, value in summary.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise PlateStampError(f"non-finite summary value {key}={value}")

    bundle = OutputBundle(xs=xs, ys=ys, fields=fields, pressure=pressure,
                          summary=summary, report_text=report_text)

    out = Path(output_dir or config.output_dir or "platestamp_out")
    out.mkdir(parents=True, exist_ok=True)

    bundle.files["field_grid"] = out / "field_grid.csv"
    with bundle.files["field_grid"].open("w") as fh:
        fh.write(FIELD_GRID_HEADER + "\n")
        fh.writelines(_field_grid_rows(xs, ys, fields))

    rows = [PRESSURE_HEADER]
    for i, x in enumerate(xs):
        rows.append(f"{_fmt(x)},{_fmt(pressure[i])}")
    bundle.files["pressure_profile"] = out / "pressure_profile.csv"
    bundle.files["pressure_profile"].write_text("\n".join(rows) + "\n")

    kv = [f"{key}={_fmt(v) if isinstance(v, float) else v}"
          for key, v in summary.items()]
    bundle.files["summary"] = out / "summary.txt"
    bundle.files["summary"].write_text("\n".join(kv) + "\n")

    bundle.files["report"] = out / "report.txt"
    bundle.files["report"].write_text(report_text)
    return bundle


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="platestamp",
        description="Fourier-series plane-strain solver for a rigid stamp "
                    "pressed into a rectangular plate.",
        epilog="exit status: 0 success; 2 configuration or stamp-compatibility "
               "error; 3 numerical failure.",
    )
    ap.add_argument("--config", required=True, help="path to the INI-style run config")
    ap.add_argument("--output", default=None, help="output directory "
                    "(default: [output] directory from the config, else ./platestamp_out)")
    ap.add_argument("--modes", type=int, default=None, help="override truncation order N")
    ap.add_argument("--grid", type=int, nargs=2, metavar=("NX", "NY"), default=None,
                    help="override output grid point counts")
    ap.add_argument("--path", choices=("A", "B", "C", "all"), default=None,
                    help="solution path; 'all' cross-checks the three paths")
    ap.add_argument("--verify", action="store_true",
                    help="run the verification suite and include it in the report")
    return ap


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        config = parse_config(text)
        if args.modes is not None:
            if args.modes < 1:
                raise ConfigError("--modes must be >= 1")
            config.modes = args.modes
        if args.grid is not None:
            if min(args.grid) < 2:
                raise ConfigError("--grid needs at least 2 points per direction")
            config.grid_nx, config.grid_ny = args.grid
        if args.path is not None:
            config.path = args.path
        if args.verify:
            config.verify = True
        _check_combination(config)
        run(config, output_dir=args.output)
    except (ConfigError, BoundaryCompatibilityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PlateStampError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
