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
    ConfigError,
    Geometry,
    Material,
    MaterialError,
    PlateStampError,
)
from .stamp_problem import (
    BoundaryProfile,
    ProfileKind,
    contact_pressure,  # run() reads the face row; perfbench/spans.py wraps this name
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

#: per stamp kind, its keys in the order its BoundaryProfile factory takes them
_STAMP_KEYS = {
    "single_mode": ("mode", "depth"),
    "raised_cosine": ("center", "half_width", "depth"),
    "parabolic_bump": ("center", "half_width", "depth"),
    "flat_stamp": ("center", "half_width", "depth"),
    "tabulated": ("xs", "values"),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
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

def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _positive(raw: str) -> float:
    value = _number(raw)
    if not value > 0:
        raise ValueError(f"must be positive, got {value}")
    return value


def _count(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not an integer") from None
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _numbers(raw: str) -> list:
    try:
        return [_number(v) for v in raw.split()]
    except ValueError:
        raise ValueError("expected space-separated finite numbers") from None


def _grid(raw: str) -> tuple[int, int]:
    try:
        nx, ny = (int(p) for p in raw.lower().replace(" ", "").split("x"))
    except ValueError:
        raise ValueError(f"expected NXxNY, got {raw!r}") from None
    if nx < 2 or ny < 2:
        raise ValueError(f"needs at least 2x2, got {raw!r}")
    return nx, ny


def _one_of(choices):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"{raw!r} (expected one of {', '.join(choices)})")
        return raw
    return parse


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"{raw!r} is not a boolean") from None


#: per section, per key, the parser of its value; a parser raises
#: ValueError with the reason it rejects a value
_PARSERS = {
    "geometry": {"l": _positive, "h": _positive},
    "material": {"E": _positive, "nu": _number},
    "stamp": dict.fromkeys(set().union(*_STAMP_KEYS.values()), _number) | {
        "kind": lambda raw: _one_of(_STAMP_KEYS)(raw.lower()),
        "mode": _count, "xs": _numbers, "values": _numbers},
    "solver": {"modes": _count, "grid": _grid, "path": _one_of(("A", "B", "C", "all")),
               "verify": _boolean},
    "output": {"directory": str},
}


def _get(cp, section, key):
    """The value of a key, parsed; a key that is missing, or a value its
    parser rejects, raises :class:`ConfigError` naming the key."""
    if not cp.has_option(section, key):
        raise ConfigError(f"missing required key {key!r} in section [{section}]")
    raw = cp.get(section, key).strip()
    try:
        return _PARSERS[section][key](raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for [{section}] {key}: {exc}") from None


def _build_profile(cp, geom: Geometry) -> BoundaryProfile:
    """The [stamp] profile, placed on the face of ``geom``
    (:meth:`BoundaryProfile.validate_edges`); a value either rejects
    raises :class:`ConfigError` naming its key."""
    kind = _get(cp, "stamp", "kind")
    keys = _STAMP_KEYS[kind]
    values = [_get(cp, "stamp", key) for key in keys]
    try:
        profile = getattr(BoundaryProfile, kind)(*values)
    except PlateStampError as exc:
        # the factories' messages begin with the parameter they reject
        key = next((k for k in keys if str(exc).startswith(k)), keys[0])
        raise ConfigError(f"invalid value for [stamp] {key}: {exc}") from exc
    try:
        profile.validate_edges(geom)
    except PlateStampError as exc:
        # a stamp is placed by its values if tabulated, else by its center
        key = "values" if profile.kind is ProfileKind.TABULATED else "center"
        raise ConfigError(f"invalid value for [stamp] {key}: {exc}") from exc
    return profile


def _read(text: str) -> configparser.ConfigParser:
    """The config document, its sections and keys checked by name."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in cp.sections():
        if section not in _PARSERS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _PARSERS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return cp


def _build(cp: configparser.ConfigParser) -> RunConfig:
    """Check every value of a read config once and build its RunConfig;
    a [solver] or [output] key that is absent keeps RunConfig's default."""
    geom = Geometry(l=_get(cp, "geometry", "l"), h=_get(cp, "geometry", "h"))
    E, nu = _get(cp, "material", "E"), _get(cp, "material", "nu")
    try:
        mat = Material(E=E, nu=nu)
    except MaterialError as exc:
        raise ConfigError(f"invalid material: {exc}") from exc
    profile = _build_profile(cp, geom)

    settings = {key: _get(cp, "solver", key)
                for key in _PARSERS["solver"] if cp.has_option("solver", key)}
    if "grid" in settings:
        settings["grid_nx"], settings["grid_ny"] = settings.pop("grid")
    if cp.has_option("output", "directory"):
        settings["output_dir"] = _get(cp, "output", "directory")
    config = RunConfig(geometry=geom, material=mat, profile=profile, **settings)

    # constraints between keys
    if (config.verify or config.path == "all") and min(config.grid_nx, config.grid_ny) < 3:
        raise ConfigError(f"invalid value for [solver] grid: verification needs at least "
                          f"3x3 points, got {config.grid_nx}x{config.grid_ny}")
    if profile.kind is ProfileKind.SINGLE_MODE and profile.mode > config.modes:
        raise ConfigError(f"invalid value for [stamp] mode: mode {profile.mode} is not "
                          f"representable with [solver] modes = {config.modes}")
    return config


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned key=value config document."""
    return _build(_read(text))


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
        # meters read, each evaluated once
        shared = SharedGridFields(sf, [(xs, ys), grid.axes(geom), refined.axes(geom)])
        fields = shared.grid_fields(xs, ys)
    else:
        fields = sf.grid_fields(xs, ys)
    # the face row y = h of the output grid (linspace ends exactly at h),
    # copied so that the bundle's pressure is not a view into its sigma_y
    pressure = fields["sigma_y"][-1].copy()
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
    ap.add_argument("--modes", default=None, help="truncation order N: sets [solver] modes")
    ap.add_argument("--grid", nargs=2, metavar=("NX", "NY"), default=None,
                    help="output grid point counts: sets [solver] grid = NXxNY")
    ap.add_argument("--path", default=None,
                    help="solution path A, B, C or all ('all' cross-checks the three "
                         "paths): sets [solver] path")
    ap.add_argument("--verify", action="store_const", const="true",
                    help="run the verification suite and include it in the report: "
                         "sets [solver] verify = true")
    return ap


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cp = _read(text)
        # the flags are [solver] values, checked with the rest of the config
        flags = {"modes": args.modes, "grid": args.grid and "x".join(args.grid),
                 "path": args.path, "verify": args.verify}
        cp.read_dict({"solver": {k: v for k, v in flags.items() if v is not None}})
        config = _build(cp)
        try:
            run(config, output_dir=args.output)
        except OSError as exc:
            # the same precedence as run() applies to the three sources
            source = ("--output" if args.output else
                      "[output] directory" if config.output_dir else "./platestamp_out")
            raise ConfigError(f"cannot write the artifacts to {source}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PlateStampError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
