"""Output checks: invariants every operation must satisfy, and agreement
with the outputs recorded in ``reference.json``.

Every check returns a list of problems; an empty list means the output
is correct.  Tolerances are relative to the scale of the quantity
checked: a field's largest magnitude, the stamp depth, or 1 for the
dimensionless summary values (ratios and convergence orders).
"""
from __future__ import annotations

import hashlib

import numpy as np

TOL = 1e-9
FIELD_NAMES = ("u", "v", "sigma_x", "sigma_y", "tau_xy")

#: every SWEEP_STRIDE-th value of a flattened 41x41 field is compared
SWEEP_STRIDE = 151
#: about this many rows of field_grid.csv are compared
CSV_SAMPLE_ROWS = 128
#: summary.txt keys that are not floats
SUMMARY_EXACT_KEYS = ("path", "modes", "grid_nx", "grid_ny")
#: summary.txt float keys with a physical scale, compared relative to their
#: value; the rest (ratios, relative differences, convergence orders) are
#: dimensionless and compared relative to max(|value|, 1)
SUMMARY_SCALED_PREFIXES = ("total_force", "max_abs", "equilibrium_max_abs")


def _scale(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def check_fields(fields: dict, G: float, coeffs, l: float, xs, profile_scale: float) -> list[str]:
    """Finite fields, the stamp reproduced on the face and free shear on both faces.

    ``fields`` are arrays (ny, nx) on a grid whose first row is y=0 and
    last row y=h; ``coeffs`` are the sine coefficients c_1..c_N of the
    stamp on a plate of length ``l``.
    """
    problems = [f"{name} has non-finite values" for name in FIELD_NAMES
                if not np.all(np.isfinite(fields[name]))]
    if problems:
        return problems
    ks = np.arange(1, len(coeffs) + 1) * np.pi / l
    face = G * fields["v"][-1]
    stamp = np.sin(np.outer(xs, ks)) @ np.asarray(coeffs, dtype=float)
    err = _scale(face - stamp)
    if err > TOL * profile_scale:
        problems.append(f"G*v(x,h) differs from the stamp series by {err:.3e} "
                        f"(profile scale {profile_scale:.3e})")
    for name, row, where in (("v", 0, "y=0"), ("tau_xy", 0, "y=0"), ("tau_xy", -1, "y=h")):
        err, scale = _scale(fields[name][row]), _scale(fields[name])
        if err > TOL * scale:
            problems.append(f"{name} at {where} is {err:.3e}, field scale {scale:.3e}")
    return problems


def check_sweep(case, out) -> list[str]:
    """Invariants of one sweep-desk solve."""
    problems = []
    want = case.coeffs
    err = _scale(out.coeffs - want)
    if err > TOL * _scale(want):
        problems.append(f"sine coefficients differ from the case's by {err:.3e}")
    problems += check_fields(out.fields, case.material.G, out.coeffs, case.geometry.l,
                             case.xs, case.profile.scale())
    face = out.fields["sigma_y"][-1]
    err = _scale(out.pressure - face)
    if not err <= TOL * _scale(face):
        problems.append(f"contact pressure differs from sigma_y(x,h) by {err:.3e}")
    if not np.isfinite(out.force):
        problems.append(f"total force is {out.force}")
    return problems


def sweep_record(out) -> dict:
    """The reference entry of one sweep solve: force and strided field samples."""
    return {
        "total_force": float(out.force),
        "fields": {name: {"scale": _scale(out.fields[name]),
                          "sample": out.fields[name].ravel()[::SWEEP_STRIDE].tolist()}
                   for name in FIELD_NAMES},
    }


def compare_sweep(out, ref: dict) -> list[str]:
    problems = []
    want = ref["total_force"]
    if not abs(out.force - want) <= TOL * abs(want):
        problems.append(f"total force {out.force!r} differs from reference {want!r}")
    for name in FIELD_NAMES:
        got = out.fields[name].ravel()[::SWEEP_STRIDE]
        want = np.asarray(ref["fields"][name]["sample"])
        err = _scale(got - want) if got.shape == want.shape else np.inf
        if not err <= TOL * ref["fields"][name]["scale"]:
            problems.append(f"{name} sample differs from reference by {err:.3e}")
    return problems


def digests(data: dict) -> dict:
    return {key: hashlib.sha256(raw).hexdigest() for key, raw in data.items()}


def _parse_summary(raw: bytes) -> dict:
    return dict(line.split("=", 1) for line in raw.decode().splitlines())


def _grid_rows(raw: bytes) -> list[bytes]:
    return raw.rstrip(b"\n").split(b"\n")[1:]


def _row_values(line: bytes) -> np.ndarray:
    return np.array([float(v) for v in line.split(b",")])


def cli_record(data: dict) -> dict:
    """The reference entry of one CLI run, from its file bytes."""
    rows = _grid_rows(data["field_grid"])
    table = np.array([_row_values(r) for r in rows])
    stride = max(1, len(rows) // CSV_SAMPLE_ROWS)
    return {
        "summary": _parse_summary(data["summary"]),
        "field_grid": {
            "rows": len(rows),
            "stride": stride,
            "column_scale": np.max(np.abs(table), axis=0).tolist(),
            "sample": table[::stride].tolist(),
        },
    }


def compare_cli(data: dict, ref: dict) -> list[str]:
    """Compare one CLI run's files with the reference."""
    problems = []
    summary = _parse_summary(data["summary"])
    if summary.keys() != ref["summary"].keys():
        return [f"summary keys {sorted(summary)} differ from reference "
                f"{sorted(ref['summary'])}"]
    for key, want_raw in ref["summary"].items():
        got_raw = summary[key]
        if key in SUMMARY_EXACT_KEYS:
            if got_raw != want_raw:
                problems.append(f"summary {key}={got_raw} differs from reference {want_raw}")
            continue
        floor = 0.0 if key.startswith(SUMMARY_SCALED_PREFIXES) else 1.0
        got, want = float(got_raw), float(want_raw)
        if not abs(got - want) <= TOL * max(abs(want), floor):
            problems.append(f"summary {key}={got!r} differs from reference {want!r}")

    grid = ref["field_grid"]
    rows = _grid_rows(data["field_grid"])
    if len(rows) != grid["rows"]:
        return problems + [f"field_grid.csv has {len(rows)} rows, reference {grid['rows']}"]
    got = np.array([_row_values(r) for r in rows[::grid["stride"]]])
    tol = TOL * np.asarray(grid["column_scale"])
    want = np.asarray(grid["sample"])
    err = np.abs(got - want) if got.shape == want.shape else np.full(want.shape, np.inf)
    if not np.all(err <= tol):
        col = int(np.argmax(np.max(err - tol, axis=0)))
        problems.append(f"field_grid.csv sample column {col} differs from reference "
                        f"by {float(np.max(err[:, col])):.3e}")
    return problems
