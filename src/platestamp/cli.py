"""Command-line driver: config parsing, batch execution, artifact output.

Config files are INI-style with sections [geometry], [material], [stamp],
[solver], [output]; see the README for the key list.  Outputs are plain
comma-separated text plus a human-readable report and a key=value
summary, written with 17 significant digits so repeated runs are
byte-identical.  Every float is written as Python's "%.17g" would write
it; field_grid.csv, the one large table, gets those bytes from numpy in
blocks of grid rows (:func:`_format_17g`).  A run solves and checks every
value first (:func:`_solve`), then writes the four files as one set
(:func:`_write`), so a run that fails for its values writes nothing, and
one that fails while writing leaves the previous set as it was.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import errno
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DomainError,
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
from .strip_solution import _check_closed_form_range, assemble_series
from .verification import (
    GridSpec,
    SharedGridFields,
    _exclusion_band,
    _refined_grid,
    constitutive_residual,
    discrepancy_report,
    equilibrium_residual,
)

__all__ = ["RunConfig", "OutputBundle", "parse_config", "run", "main"]

FIELD_GRID_HEADER = "x,y,u,v,sigma_x,sigma_y,tau_xy"
PRESSURE_HEADER = "x,sigma_y_at_h"

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
    path: str = "B"          # A | B | C
    verify: bool = False
    output_dir: str = "platestamp_out"


@dataclass(frozen=True)
class OutputBundle:
    xs: np.ndarray
    fields: dict
    summary: dict
    files: dict


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


def _directory(raw: str) -> str:
    if not raw:
        raise ValueError("must name a directory, got an empty value")
    return raw


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
    "solver": {"modes": _count, "grid": _grid, "path": _one_of(("A", "B", "C")),
               "verify": _boolean},
    "output": {"directory": _directory},
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
    raises :class:`ConfigError` naming its key, and so does a key that
    the kind does not take."""
    kind = _get(cp, "stamp", "kind")
    keys = _STAMP_KEYS[kind]
    for key in cp.options("stamp"):
        if key not in keys and key != "kind":
            raise ConfigError(f"unknown key {key!r} in section [stamp] for kind {kind}")
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
        cp.read_string(text.removeprefix("\ufeff"))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    # configparser copies [DEFAULT] keys into every section's options
    if cp.defaults():
        raise ConfigError(f"unknown section [{cp.default_section}]")
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
        # _positive has rejected every bad E, so the bad constant is nu
        raise ConfigError(f"invalid value for [material] nu: {exc}") from exc
    profile = _build_profile(cp, geom)

    settings = {key: _get(cp, "solver", key)
                for key in _PARSERS["solver"] if cp.has_option("solver", key)}
    if "grid" in settings:
        settings["grid_nx"], settings["grid_ny"] = settings.pop("grid")
    if cp.has_option("output", "directory"):
        settings["output_dir"] = _get(cp, "output", "directory")
    config = RunConfig(geometry=geom, material=mat, profile=profile, **settings)

    # constraints between keys
    if config.verify and min(config.grid_nx, config.grid_ny) < 3:
        raise ConfigError(f"invalid value for [solver] grid: verification needs at least "
                          f"3x3 points, got {config.grid_nx}x{config.grid_ny}")
    if config.verify and profile.scale() == 0.0:
        # only a depth can be zero here: validate_edges rejects a tabulated
        # stamp that is zero all along the face
        raise ConfigError("invalid value for [stamp] depth: verification needs a nonzero "
                          "depth; a zero stamp solves to an all-zero field, whose "
                          "residual meters observe no order")
    if config.path == "C":
        try:
            _check_closed_form_range(geom)
        except DomainError as exc:
            raise ConfigError(f"invalid value for [solver] path: {exc}") from exc
    if profile.kind is ProfileKind.SINGLE_MODE and profile.mode > config.modes:
        raise ConfigError(f"invalid value for [stamp] mode: mode {profile.mode} is not "
                          f"representable with [solver] modes = {config.modes}")
    return config


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned key=value config document; one
    leading byte-order mark is skipped."""
    return _build(_read(text))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return format(float(v), ".17g")


#: the widest "%.17g" of a float: "-d.dddddddddddddddde-308"
_CELL = 24
#: a value whose 17-digit rounding lies this close to a tie, in units of
#: its 17th digit, is formatted by _fmt; the product below is good to
#: about 1e-14 of that unit
_TIE_MARGIN = 1e-6
#: Veltkamp's splitting constant for doubles, 2**27 + 1
_SPLIT = 134217729.0
#: the columns of the digit matrix that _format_17g gathers from: the
#: digits 2..17 as four groups of four, the first digit, then constants
_LEAD, _NUL, _DOT, _MINUS, _E, _PLUS, _ZERO = range(16, 23)
#: columns 16..31 of the digit matrix as uint32 words; the first digit
#: takes the place of "?"
_CONSTANTS = np.frombuffer(b"?\0.-e+0123456789", np.uint32)
_FOURS = (np.arange(10000, dtype=np.int16)[:, None]
          // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
#: the four ASCII digits of 0..9999, each as one uint32
_DIGITS4 = (_FOURS + ord("0")).view(np.uint32).ravel()
#: the trailing zeros of the four digits of 0..9999
_ZEROS4 = np.cumprod(_FOURS[:, ::-1] == 0, axis=1, dtype=np.uint8).sum(axis=1, dtype=np.int32)
del _FOURS
#: per layout key (see _layout), the columns of a cell, filled when first
#: met, each row before its flag, with the same bytes whichever thread
#: fills it; a float's decimal exponent lies in [-324, 308]
_LAYOUTS = np.zeros(((308 + 325) << 6, _CELL), np.uint8)
_HAVE_LAYOUT = np.zeros(len(_LAYOUTS), bool)


@functools.lru_cache(maxsize=None)
def _pow10(q: int):
    """10**q as ``(hi, hi_big, hi_small, lo, e)``: 10**q = (hi + lo) * 2**e
    to 2**-106, with hi in [0.5, 1] and hi = hi_big + hi_small split in
    two halves of 26 bits.  Worked out in Python ints, whose true division
    rounds correctly."""
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    e = num.bit_length() - den.bit_length()
    num, den = (num, den << e) if e >= 0 else (num << -e, den)
    if num >= den:   # else num / den is in (1/2, 1): both have the same bit length
        den, e = den << 1, e + 1
    hi = num / den
    hi_num = int(hi * 2**53)
    t = hi * _SPLIT
    big = t - (t - hi)
    return hi, big, hi - big, ((num << 53) - hi_num * den) / (den << 53), e


def _scaled(fx, ex, E):
    """``fx * 2**ex * 10**(16 - E)`` as a pair of doubles ``(hi, lo)``,
    hi + lo to about 2**-100: Dekker's exact product of fx and 10**q's
    high part, plus fx times its low part."""
    q = 16 - E
    first = int(q.min())
    table = np.array([_pow10(p) for p in range(first, int(q.max()) + 1)]).T
    hi, big, small, lo, e = table.take(q - first, axis=1)
    t = fx * _SPLIT
    f_big = t - (t - fx)
    f_small = fx - f_big
    p = fx * hi
    err = ((f_big * big - p) + f_big * small + f_small * big) + f_small * small
    err += fx * lo
    s = p + err
    k = ex + e.astype(np.int32)
    return np.ldexp(s, k), np.ldexp(err - (s - p), k)


def _layout(key: int) -> list:
    """The columns of the digit matrix that spell a cell of layout
    ``key = (E + 324) << 6 | digits << 1 | negative``: "%g"'s fixed or
    exponent form of a value with decimal exponent E and that many
    significant digits; key 0 or 1 is a zero of that sign."""
    E, digits, negative = (key >> 6) - 324, (key >> 1) & 31, key & 1
    column = [_LEAD, *range(16)]
    cell = [_MINUS] * negative
    if digits == 0:
        cell.append(_ZERO)
    elif E < -4 or E >= 17:
        cell += column[:1] + [_DOT] * (digits > 1) + column[1:digits]
        cell += [_E, _MINUS if E < 0 else _PLUS, *(_ZERO + int(c) for c in f"{abs(E):02d}")]
    elif E >= 0:
        cell += column[:E + 1] + [_DOT] * (digits > E + 1) + column[E + 1:digits]
    else:
        cell += [_ZERO, _DOT] + [_ZERO] * (-E - 1) + column[:digits]
    return cell + [_NUL] * (_CELL - len(cell))


def _format_17g(values) -> np.ndarray:
    """``"%.17g" % v`` of each float64 ``v``, as rows of ASCII bytes padded
    with NUL to _CELL bytes: the same bytes, for every float64.

    A finite nonzero ``|v|`` is scaled to ``|v| * 10**(16 - E)`` in
    [1e16, 1e17), with ``E`` first guessed by ``log10`` and then checked
    on the product.  The product, a pair of doubles, is rounded to the
    nearest 17-digit integer by the fraction in its low part, and the
    digits fill a layout per (E, digit count, sign).  Values within
    _TIE_MARGIN of a rounding tie, where "%g" rounds half to even, and
    inf and nan are formatted by :func:`_fmt` instead.

    The bytes depend on numpy's float64 ``+ - *``, ``floor``, ``frexp``,
    ``ldexp``, comparisons and conversion to int64, and its integer ``//``
    and ``%``, all exact or correctly rounded on every CPU; ``log10``
    only picks the first guess, so its last bit is free to depend on
    numpy's SIMD dispatch.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(x)
    nonzero = finite & (x != 0)
    w = np.where(nonzero, np.abs(x), 1.0)
    fx, ex = np.frexp(w)
    E = np.floor(np.log10(w)).astype(np.int32)
    hi, lo = _scaled(fx, ex, E)
    # the floor of log10 is one off E only where |v| lies within an ulp or
    # so of a power of ten; one step puts it right, or leaves a product
    # that rounds to 1e16 or 1e17, and the carry below takes care of 1e17
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    wrong = np.flatnonzero(below | above)
    if wrong.size:
        E[wrong] += above[wrong].astype(np.int32) - below[wrong]
        hi[wrong], lo[wrong] = _scaled(fx[wrong], ex[wrong], E[wrong])
    whole = np.floor(lo)
    fraction = lo - whole
    D = hi.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    carry = D == 10**17
    D[carry] = 10**16
    E += carry
    lead = D // 10**16
    rest = D - lead * 10**16
    high8 = (rest // 10**8).astype(np.int32)
    low8 = (rest - high8 * np.int64(10**8)).astype(np.int32)

    fours = (high8 // 10000, high8 % 10000, low8 // 10000, low8 % 10000)
    digits = np.empty((x.size, 32), np.uint8)
    words = digits.view(np.uint32)
    for i, four in enumerate(fours):
        words[:, i] = _DIGITS4.take(four)
    words[:, 4:] = _CONSTANTS
    digits[:, _LEAD] = lead + ord("0")
    # the trailing zeros of the last 16 digits, the zeros of a zero group
    # carried to the group before it
    zeros = _ZEROS4.take(fours[0])
    for four in fours[1:]:
        zeros = np.where(four != 0, _ZEROS4.take(four), 4 + zeros)
    count = 17 - zeros
    key = np.where(nonzero, (E + 324) << 6 | count << 1, 0) | np.signbit(x)
    for k in set(key[~_HAVE_LAYOUT.take(key)].tolist()):
        _LAYOUTS[k] = _layout(k)
        _HAVE_LAYOUT[k] = True
    columns = np.add(_LAYOUTS.take(key, axis=0),
                     np.arange(0, digits.size, 32)[:, None], dtype=np.intp)
    cells = digits.ravel().take(columns)
    for i in np.flatnonzero(~finite | nonzero & (abs(fraction - 0.5) < _TIE_MARGIN)).tolist():
        cell = _fmt(x[i]).encode()
        cells[i] = 0
        cells[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return cells


#: grid rows per block of field_grid.csv: on 401-point rows the blocks'
#: temporaries peak near 7 MiB, and on 101-point rows the table formats
#: faster than in blocks of 16 rows or of the whole table
_BLOCK_ROWS = 8


def _field_grid_rows(xs, ys, fields):
    """The lines of field_grid.csv after its header, as one ``bytes`` per
    block of _BLOCK_ROWS grid rows (y values), formatted by
    :func:`_format_17g`, so the whole table is never held as text."""
    nx = xs.size
    x_cells, y_cells = _format_17g(xs), _format_17g(ys)
    columns = [fields[name] for name in ("u", "v", "sigma_x", "sigma_y", "tau_xy")]
    for j in range(0, ys.size, _BLOCK_ROWS):
        values = np.stack([c[j:j + _BLOCK_ROWS] for c in columns], axis=-1)
        rows = len(values)
        lines = np.empty((rows, nx, 7, _CELL + 1), np.uint8)
        lines[:, :, 0, :-1] = x_cells
        lines[:, :, 1, :-1] = y_cells[j:j + rows, None]
        lines[:, :, 2:, :-1] = _format_17g(values).reshape(rows, nx, 5, _CELL)
        lines[..., -1] = ord(",")
        lines[:, :, -1, -1] = ord("\n")
        yield lines.tobytes().translate(None, b"\0")


def _solve(config: RunConfig):
    """Solve ``config`` and check every value the artifacts hold, with no
    I/O.  Returns the grid axes ``xs`` and ``ys``, the fields, the summary
    and, per small artifact, its text in chunks."""
    geom, mat = config.geometry, config.material
    coeffs = sine_coefficients(config.profile, geom, config.modes)
    sf = assemble_series(coeffs, geom, mat, path=config.path)

    xs = np.linspace(0.0, geom.l, config.grid_nx)
    ys = np.linspace(0.0, geom.h, config.grid_ny)
    fields = sf.grid_fields(xs, ys)
    # the face row y = h of the output grid (linspace ends exactly at h)
    pressure = fields["sigma_y"][-1]
    force = total_force(sf)

    summary = {
        "path": sf.path.value,
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
        f"  modes: {config.modes}, solution path: {sf.path.value}",
        f"  total force per unit thickness: {_fmt(force)}",
        f"  max |v| on grid: {_fmt(summary['max_abs_v'])}",
        f"  max |sigma_y| on grid: {_fmt(summary['max_abs_sigma_y'])}",
    ]

    if config.verify:
        disc = discrepancy_report(geom, mat, range(1, config.modes + 1))
        grid = GridSpec(config.grid_nx, config.grid_ny)
        # the coarse and fine grids that both residual meters read, each
        # evaluated once and freed once both meters have read them
        shared = SharedGridFields(sf)
        equilibrium = dict(zip("xy", equilibrium_residual(shared, grid)))
        constitutive = dict(zip(("sigma_x", "sigma_y", "tau_xy"),
                                constitutive_residual(shared, grid)))
        del shared
        refined = _refined_grid(grid)
        summary.update(disc.as_dict())
        summary.update({f"equilibrium_order_{axis}": r.observed_order
                        for axis, r in equilibrium.items()})
        summary.update({f"equilibrium_max_abs_{axis}": r.max_abs
                        for axis, r in equilibrium.items()})
        summary.update({f"constitutive_order_{name}": r.observed_order
                        for name, r in constitutive.items()})
        report_lines += [
            "",
            disc.as_text(),
            "",
            "residual meters (central differences, grid pair "
            f"{config.grid_nx}x{config.grid_ny} -> {refined.nx}x{refined.ny}, "
            f"exclusion margin {_exclusion_band(geom):g}):",
            *(f"  equilibrium {axis}: max {r.max_abs:.3e}, observed order {r.observed_order:.3f}"
              for axis, r in equilibrium.items()),
            *(f"  constitutive {name}: order {r.observed_order:.3f}"
              for name, r in constitutive.items()),
        ]

    for key, value in summary.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise PlateStampError(f"non-finite summary value {key}={value}")
    texts = {
        "pressure_profile.csv": [PRESSURE_HEADER + "\n"] + [
            f"{_fmt(x)},{_fmt(p)}\n" for x, p in zip(xs, pressure)],
        "summary.txt": [f"{key}={_fmt(v) if isinstance(v, float) else v}\n"
                        for key, v in summary.items()],
        "report.txt": [line + "\n" for line in report_lines],
    }
    return xs, ys, fields, summary, texts


def _write(out: Path, artifacts: dict) -> dict:
    """Create ``out`` and write into it ``artifacts``, a mapping from file
    name to chunks of bytes, as one set; returns, per stem, its path.

    Each goes to a new temporary file ``.<name>.<12 hex>``, with the mode
    open() gives a new file, and none is moved into place until all are
    written.  A target that is a directory is refused before any write.
    A failure deletes the temporary files and removes the directories this
    call created, if empty; an ``OSError`` at an artifact is raised naming it.
    """
    missing = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
    paths = {name: out / name for name in artifacts}
    temps, name = {}, None
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, path in paths.items():
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for name, chunks in artifacts.items():
            with open(out / f".{name}.{os.urandom(6).hex()}", "xb") as fh:
                temps[name] = fh.name
                fh.writelines(chunks)
        for name, tmp in list(temps.items()):
            os.replace(tmp, paths[name])
            del temps[name]
    except BaseException as exc:
        for tmp in temps.values():
            os.unlink(tmp)
        for directory in missing:
            with contextlib.suppress(OSError):
                directory.rmdir()
        if isinstance(exc, OSError) and name is not None:
            raise OSError(exc.errno, exc.strerror, str(paths[name])) from None
        raise
    return {Path(name).stem: path for name, path in paths.items()}


def run(config: RunConfig, output_dir=None) -> OutputBundle:
    """Execute one configuration and write its four artifacts.

    The files go to ``output_dir`` if given, else to ``config.output_dir``;
    an empty name raises :class:`ConfigError` before solving.
    Deterministic: a fixed config produces byte-identical files.  The run
    solves and checks every value first, so a run that fails for its
    values creates no directory and writes no file.
    """
    directory = config.output_dir if output_dir is None else output_dir
    if directory == "":
        source = "RunConfig.output_dir" if output_dir is None else "output_dir"
        raise ConfigError(f"{source} must name a directory, got an empty value")
    xs, ys, fields, summary, texts = _solve(config)

    def table():
        # formatted as it is written, so a failure to format names the file
        yield FIELD_GRID_HEADER.encode() + b"\n"
        yield from _field_grid_rows(xs, ys, fields)

    files = _write(Path(directory), {"field_grid.csv": table(),
                                     **{name: map(str.encode, chunks)
                                        for name, chunks in texts.items()}})
    return OutputBundle(xs=xs, fields=fields, summary=summary, files=files)


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
    ap.add_argument("--output", default=None, help="output directory: sets [output] "
                    "directory (default ./platestamp_out)")
    ap.add_argument("--modes", default=None, help="truncation order N: sets [solver] modes")
    ap.add_argument("--grid", nargs=2, metavar=("NX", "NY"), default=None,
                    help="output grid point counts: sets [solver] grid = NXxNY")
    ap.add_argument("--path", default=None,
                    help="solution path A, B or C: sets [solver] path")
    ap.add_argument("--verify", action="store_const", const="true",
                    help="run the verification suite and include it in the report: "
                         "sets [solver] verify = true")
    return ap


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cp = _read(text)
        # the flags are config values, checked with the rest of the config
        flags = {"solver": {"modes": args.modes, "grid": args.grid and "x".join(args.grid),
                            "path": args.path, "verify": args.verify},
                 "output": {"directory": args.output}}
        cp.read_dict({section: {k: v for k, v in keys.items() if v is not None}
                      for section, keys in flags.items()})
        config = _build(cp)
        try:
            run(config)
        except OSError as exc:
            raise ConfigError(f"cannot write the artifacts to [output] directory = "
                              f"{config.output_dir}: {exc}") from exc
        except MemoryError:
            raise ConfigError(f"out of memory with [solver] modes = {config.modes} and "
                              f"[solver] grid = {config.grid_nx}x{config.grid_ny}; "
                              f"lower one of them") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PlateStampError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
