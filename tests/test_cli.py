"""Tests for config parsing, the batch runner and the command-line entry."""
import dataclasses
import errno
import functools
import filecmp
import gc
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import platestamp
from platestamp import (
    BoundaryCompatibilityError,
    ConfigError,
    GridSpec,
    assemble_series,
    cli,
    constitutive_residual,
    contact_pressure,
    equilibrium_residual,
    evaluate_fields,
    parse_config,
    run,
    sine_coefficients,
    total_force,
)
from platestamp.cli import FIELD_GRID_HEADER, PRESSURE_HEADER, main
from platestamp.stamp_problem import ProfileKind
from platestamp.strip_solution import SeriesField
from platestamp.verification import SharedGridFields

from conftest import closed_form_floor_heights

SRC = str(Path(platestamp.__file__).resolve().parents[1])

MINIMAL = """\
[geometry]
l = 2
h = 1

[material]
E = 1
nu = 0.3

[stamp]
kind = raised_cosine
center = 1
half_width = 0.4
depth = 0.01

[solver]
modes = 64
grid = 41x41
"""

SINGLE_MODE_VERIFY = """\
[geometry]
l = 2
h = 1

[material]
E = 1
nu = 0.3

[stamp]
kind = single_mode
mode = 1
depth = 0.01

[solver]
modes = 8
grid = 21x21
verify = true
"""


#: a small verified run: 16 modes on a 13x11 output grid
SMALL_VERIFY = MINIMAL.replace("modes = 64", "modes = 16") \
    .replace("grid = 41x41", "grid = 13x11") + "verify = true\n"

DESK_VERIFY = MINIMAL + "verify = true\n"

#: a plate so large that its fields underflow to zero; verified, it exits 3
#: after its fields exist
HUGE_PLATE = MINIMAL.replace("l = 2", "l = 1e200").replace("h = 1", "h = 1e200") \
    .replace("center = 1", "center = 5e199").replace("half_width = 0.4", "half_width = 2e199") \
    .replace("modes = 64", "modes = 8").replace("grid = 41x41", "grid = 9x9")

THICK_VERIFY = MINIMAL.replace("h = 1", "h = 20").replace("nu = 0.3", "nu = 0.2") \
    .replace("grid = 41x41", "grid = 21x21") + "verify = true\n"


def _env_with_src():
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


ARTIFACTS = ("field_grid.csv", "pressure_profile.csv", "report.txt", "summary.txt")


class TestParseConfig:
    def test_minimal_roundtrip(self):
        cfg = parse_config(MINIMAL)
        assert cfg.geometry.l == 2.0 and cfg.geometry.h == 1.0
        assert cfg.material.E == 1.0 and cfg.material.nu == 0.3
        assert cfg.profile.kind is ProfileKind.RAISED_COSINE
        assert cfg.modes == 64
        assert (cfg.grid_nx, cfg.grid_ny) == (41, 41)
        assert cfg.path == "B" and cfg.verify is False

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\nwobble = 3\n")
        assert "wobble" in str(err.value)

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\n[plotting]\ncolor = red\n")
        assert "plotting" in str(err.value)

    def test_missing_required_key(self):
        broken = MINIMAL.replace("h = 1\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert "'h'" in str(err.value) and "geometry" in str(err.value)

    @pytest.mark.parametrize("value", ["", "   "], ids=["empty", "blank"])
    def test_empty_output_directory_rejected(self, value):
        # an empty directory used to fall through to ./platestamp_out
        with pytest.raises(ConfigError, match=r"\[output\] directory"):
            parse_config(MINIMAL + f"\n[output]\ndirectory ={value}\n")

    def test_incompressible_material_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("nu = 0.3", "nu = 0.5"))
        assert "0.5" in str(err.value)

    def test_flat_stamp_touching_edge(self):
        text = MINIMAL.replace("kind = raised_cosine", "kind = flat_stamp") \
                      .replace("center = 1", "center = 0.4")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "[stamp] center" in str(err.value) and "V_h(0) = 0" in str(err.value)
        assert isinstance(err.value.__cause__, BoundaryCompatibilityError)

    def test_config_is_frozen(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.modes = 8

    def test_invalid_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("l = 2", "l = two"))
        assert "not a number" in str(err.value)

    def test_invalid_grid(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("grid = 41x41", "grid = 41"))

    def test_invalid_path(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "path = Q\n")

    def test_default_section_named(self):
        # configparser would copy its keys into every section
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            parse_config("[DEFAULT]\nmodes = 8\n\n" + MINIMAL)
        assert parse_config("[DEFAULT]\n" + MINIMAL) == parse_config(MINIMAL)

    def test_readme_example_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        cfg = parse_config(block)
        assert cfg.profile.kind is ProfileKind.RAISED_COSINE
        assert (cfg.modes, cfg.grid_nx, cfg.grid_ny, cfg.path) == (64, 41, 41, "B")
        assert cfg.verify is False and cfg.output_dir == "out"

    def test_readme_python_quick_start(self):
        # the library quick start runs as written, on the names it imports
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        namespace = {}
        exec(block, namespace)
        assert namespace["force"] > 0.0
        assert namespace["pressure"].shape == (101,)


class TestRun:
    def test_zero_depth_all_zero(self, tmp_path):
        cfg = parse_config(MINIMAL.replace("depth = 0.01", "depth = 0"))
        bundle = run(cfg, output_dir=tmp_path / "out")
        assert bundle.summary["total_force"] == 0.0
        for arr in bundle.fields.values():
            assert np.all(arr == 0.0)
        rows = (tmp_path / "out" / "pressure_profile.csv").read_text().splitlines()[1:]
        assert len(rows) == 41 and {row.split(",")[1] for row in rows} == {"0"}

    @pytest.mark.parametrize("source", ["output_dir", "RunConfig.output_dir"])
    def test_empty_output_directory_rejected(self, tmp_path, monkeypatch, source):
        # an empty directory used to fall through to ./platestamp_out
        monkeypatch.chdir(tmp_path)
        cfg = parse_config(MINIMAL.replace("modes = 64", "modes = 4"))
        if source == "output_dir":
            call = functools.partial(run, cfg, output_dir="")
        else:
            call = functools.partial(run, dataclasses.replace(cfg, output_dir=""))
        with pytest.raises(ConfigError, match=f"^{re.escape(source)} must name a directory"):
            call()
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_outputs(self, tmp_path, monkeypatch):
        # two runs give the same bytes, the second in a process that cannot
        # start a thread: the run starts none
        def no_thread(thread):
            raise RuntimeError("can't start new thread")

        cfg = parse_config(MINIMAL)
        run(cfg, output_dir=tmp_path / "a")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        run(cfg, output_dir=tmp_path / "b")
        for name in ARTIFACTS:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == list(ARTIFACTS)
        # each artifact got the mode open() gives its temporary file
        assert len({(tmp_path / d / name).stat().st_mode
                    for d in "ab" for name in ARTIFACTS}) == 1

    def test_artifact_modes_follow_umask(self, tmp_path, monkeypatch):
        # under umask 0o027 all four artifacts get mode 0o640, the mode
        # open() gives a new file, and the run never sets the process-wide
        # umask, so files other threads of a library caller create
        # meanwhile keep their modes
        def no_umask(mask):
            raise AssertionError("the run set the process umask")

        set_umask = os.umask
        before = set_umask(0o027)
        try:
            monkeypatch.setattr(os, "umask", no_umask)
            run(parse_config(MINIMAL.replace("modes = 64", "modes = 4")),
                output_dir=tmp_path / "out")
        finally:
            set_umask(before)
        assert {name: stat.S_IMODE((tmp_path / "out" / name).stat().st_mode)
                for name in ARTIFACTS} == dict.fromkeys(ARTIFACTS, 0o640)

    def test_verified_run_peak_memory(self, tmp_path):
        # verify-desk's run (N=256 on 101x101, path B) formats field_grid.csv
        # after its verification has freed its grids, so the formatter's
        # block temporaries do not add to the verification's: 3.9-4.1 MiB
        # traced, against 4.7-6.0 MiB with the table formatted on a thread
        # beside the verification
        cfg = parse_config(MINIMAL.replace("half_width = 0.4", "half_width = 0.5")
                           .replace("modes = 64", "modes = 256")
                           .replace("grid = 41x41", "grid = 101x101") + "verify = true\n")
        tracemalloc.start()
        try:
            run(cfg, output_dir=tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.4 * 2**20, peak / 2**20

    def test_field_grid_schema(self, tmp_path):
        cfg = parse_config(MINIMAL.replace("grid = 41x41", "grid = 5x4"))
        bundle = run(cfg, output_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "field_grid.csv").read_text().splitlines()
        assert lines[0] == FIELD_GRID_HEADER
        assert len(lines) == 1 + 5 * 4
        first = lines[1].split(",")
        assert len(first) == 7
        # row-major with y slow: first block is y = 0 for all x
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert float(lines[2].split(",")[0]) == 0.5  # next x at same y
        assert float(lines[2].split(",")[1]) == 0.0
        pressure_lines = (tmp_path / "out" / "pressure_profile.csv").read_text().splitlines()
        assert pressure_lines[0] == PRESSURE_HEADER

    def test_verify_summary_contents(self, tmp_path):
        cfg = parse_config(SINGLE_MODE_VERIFY)
        bundle = run(cfg, output_dir=tmp_path / "out")
        s = bundle.summary
        assert s["path_equiv_max_rel_diff_ab"] <= 1e-10
        assert s["path_equiv_max_rel_diff_cb"] <= 1e-10
        assert s["equilibrium_order_x"] >= 1.9
        assert s["equilibrium_order_y"] >= 1.9
        text = (tmp_path / "out" / "report.txt").read_text()
        assert "discrepancy report" in text
        summary_text = (tmp_path / "out" / "summary.txt").read_text()
        assert "total_force=" in summary_text

    def test_verified_run_evaluates_each_grid_once(self, tmp_path, monkeypatch):
        # one evaluation each of the output grid and of the coarse and fine
        # residual grids that both meters share; the residual grids hold
        # the rows outside the exclusion band of 0.15 (y in [0.15, 0.85]),
        # and one more on either side: rows 1..11 of 13 and 3..19 of 23
        calls = []
        original = SeriesField.grid_fields

        def counted(sf, xs, ys):
            calls.append((len(xs), len(ys)))
            return original(sf, xs, ys)

        monkeypatch.setattr(SeriesField, "grid_fields", counted)
        run(parse_config(SMALL_VERIFY), output_dir=tmp_path / "out")
        assert calls == [(13, 11), (15, 11), (27, 17)]

    def test_shared_and_unshared_grids_write_same_bytes(self, tmp_path, monkeypatch):
        # the kept evaluations and a stand-in that makes one grid_fields
        # call for each grid a reader asks for give the same artifacts
        run(parse_config(DESK_VERIFY), output_dir=tmp_path / "shared")

        class Unshared:
            def __init__(self, sf):
                self.geometry, self.material, self._sf = sf.geometry, sf.material, sf

            def grid_fields(self, xs, ys):
                return self._sf.grid_fields(xs, ys)

        monkeypatch.setattr(cli, "SharedGridFields", Unshared)
        run(parse_config(DESK_VERIFY), output_dir=tmp_path / "unshared")
        names = ["field_grid.csv", "pressure_profile.csv", "summary.txt", "report.txt"]
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "shared", tmp_path / "unshared",
                                                   names, shallow=False)
        assert match == names, (mismatch, errors)

    def test_verified_run_matches_independent_meters(self, tmp_path):
        cfg = parse_config(SMALL_VERIFY)
        summary = run(cfg, output_dir=tmp_path / "out").summary
        geom = cfg.geometry
        sf = assemble_series(sine_coefficients(cfg.profile, geom, cfg.modes), geom,
                             cfg.material)
        eq = equilibrium_residual(sf, GridSpec(13, 11))
        con = constitutive_residual(sf, GridSpec(13, 11))
        assert [summary[f"equilibrium_order_{a}"] for a in "xy"] == \
            [r.observed_order for r in eq]
        assert [summary[f"equilibrium_max_abs_{a}"] for a in "xy"] == [r.max_abs for r in eq]
        assert [summary[f"constitutive_order_{f}"] for f in ("sigma_x", "sigma_y", "tau_xy")] \
            == [r.observed_order for r in con]

    def test_bundle_does_not_keep_shared_evaluation(self, tmp_path, monkeypatch):
        # the kept residual grids live for one run only
        made = []

        class Recorded(SharedGridFields):
            def __init__(self, sf):
                super().__init__(sf)
                made.append(weakref.ref(self))

        monkeypatch.setattr(cli, "SharedGridFields", Recorded)
        bundle = run(parse_config(SMALL_VERIFY), output_dir=tmp_path / "out")
        gc.collect()
        assert len(made) == 1 and made[0]() is None
        assert "equilibrium_order_x" in bundle.summary

    @pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_pressure_is_face_row_of_field_grid(self, tmp_path, path, verify):
        text = (MINIMAL.replace("modes = 64", "modes = 37").replace("grid = 41x41", "grid = 13x29")
                + f"path = {path}\n" + f"verify = {str(verify).lower()}\n")
        cfg = parse_config(text)
        bundle = run(cfg, output_dir=tmp_path / "out")
        # pressure_profile.csv repeats the x and sigma_y cells of the y = h
        # row of field_grid.csv, as text
        grid_rows = [line.split(",") for line in
                     (tmp_path / "out" / "field_grid.csv").read_text().splitlines()[1:]]
        face = [row for row in grid_rows if float(row[1]) == cfg.geometry.h]
        pressure_rows = [line.split(",") for line in
                         (tmp_path / "out" / "pressure_profile.csv").read_text().splitlines()[1:]]
        assert len(face) == len(pressure_rows) == 13
        assert [(row[0], row[5]) for row in face] == [tuple(row) for row in pressure_rows]
        # the library's per-mode face reader agrees to roundoff
        geom = cfg.geometry
        sf = assemble_series(sine_coefficients(cfg.profile, geom, cfg.modes), geom,
                             cfg.material, path=path)
        ref = contact_pressure(sf, bundle.xs)
        face_row = bundle.fields["sigma_y"][-1]
        assert np.max(np.abs(face_row - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_tabulated_stamp_from_config(self, tmp_path):
        text = MINIMAL.replace(
            "kind = raised_cosine\ncenter = 1\nhalf_width = 0.4\ndepth = 0.01",
            "kind = tabulated\nxs = 0 0.5 1.0 1.5 2.0\nvalues = 0 0.004 0.01 0.004 0",
        ).replace("modes = 64", "modes = 8").replace("grid = 41x41", "grid = 9x9")
        cfg = parse_config(text)
        assert cfg.profile.kind is ProfileKind.TABULATED
        bundle = run(cfg, output_dir=tmp_path / "out")
        assert bundle.summary["total_force"] != 0.0

    def test_field_grid_independent_of_blas_threads(self, tmp_path):
        # the mode sums must come out the same whatever BLAS thread count
        # the process runs with; a verified run also sums the residual
        # meters' grids in the same pass.  All four artifacts are compared.
        code = ("import sys; from platestamp import cli; "
                "cli.run(cli.parse_config(open(sys.argv[1]).read()), sys.argv[2])")
        for extra in ("", "verify = true\n"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(MINIMAL.replace("modes = 64", "modes = 256")
                           .replace("grid = 41x41", "grid = 101x101") + extra)
            artifacts = []
            for threads in ("1", "2"):
                env = dict(_env_with_src(), OPENBLAS_NUM_THREADS=threads)
                out = tmp_path / f"verify{bool(extra)}-threads{threads}"
                subprocess.run([sys.executable, "-c", code, str(cfg), str(out)],
                               env=env, check=True, timeout=300)
                artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert sorted(artifacts[0]) == ["field_grid.csv", "pressure_profile.csv",
                                            "report.txt", "summary.txt"]
            assert artifacts[0] == artifacts[1], extra

    def test_grids_take_the_transform(self, tmp_path, monkeypatch):
        # every grid of a verified run, and of a library sweep solve (N=64
        # on a 41x41 grid, path B, plus the face readers), is on uniform
        # axes from 0 to l, so none of them reaches the per-mode einsum
        callers = []
        einsum = np.einsum

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals.get("__name__"))
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        bundle = run(parse_config(SMALL_VERIFY), output_dir=tmp_path / "out")
        assert "equilibrium_order_x" in bundle.summary
        cfg = parse_config(MINIMAL.replace("h = 1", "h = 0.37"))
        sf = assemble_series(sine_coefficients(cfg.profile, cfg.geometry, 64),
                             cfg.geometry, cfg.material, path="B")
        xs = np.linspace(0.0, cfg.geometry.l, 41)
        sf.grid_fields(xs, np.linspace(0.0, cfg.geometry.h, 41))
        contact_pressure(sf, xs)
        total_force(sf)
        assert "platestamp.strip_solution" not in callers
        # the spy does see the per-mode sum, off uniform axes
        evaluate_fields(sf, 0.3, 0.1)
        assert callers[-1] == "platestamp.strip_solution"

    def test_field_grid_has_no_negative_zero_cells(self, tmp_path):
        # the sine fields (v, sigma_x, sigma_y) vanish at x = 0 and x = l as
        # +0.0, and no cell of the grid prints as "-0"
        run(parse_config(MINIMAL), output_dir=tmp_path / "out")
        rows = [line.split(",") for line in
                (tmp_path / "out" / "field_grid.csv").read_text().splitlines()[1:]]
        assert len(rows) == 41 * 41
        assert not any(cell == "-0" for row in rows for cell in row)
        edges = [row for row in rows if float(row[0]) in (0.0, 2.0)]
        assert len(edges) == 2 * 41
        assert all(row[i] == "0" for row in edges for i in (3, 4, 5))

    def test_scipy_not_imported(self, tmp_path):
        # numpy is the only runtime dependency: importing the package and a
        # verified run load no scipy module
        code = ("import sys; import platestamp; from platestamp import cli; "
                "cli.run(cli.parse_config(sys.argv[1]), sys.argv[2]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code, SMALL_VERIFY, str(tmp_path / "out")],
                              env=_env_with_src(), capture_output=True, text=True,
                              check=True, timeout=120)
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "out" / "summary.txt").read_text().count("equilibrium_order_x=") == 1

    def test_field_grid_rows_format_like_17g(self):
        # "%.17g" per cell must give the digits of format(v, ".17g") on
        # signed zero, subnormals, huge values and integral floats
        xs = np.array([0.0, -0.0, 2.0])
        ys = np.array([5e-324, 1.0])
        values = np.array([-0.0, 5e-324, 1e300, 3.0, -2.0, 0.1, 1e16, 2.0**60, -1e-300,
                           7.0, 1.0 / 3.0, -5e-324])
        names = ("u", "v", "sigma_x", "sigma_y", "tau_xy")
        fields = {name: np.roll(values, 2 * i)[:6].reshape(2, 3)
                  for i, name in enumerate(names)}
        want = "".join(
            ",".join(format(float(v), ".17g")
                     for v in (x, y, *(fields[name][j, i] for name in names))) + "\n"
            for j, y in enumerate(ys) for i, x in enumerate(xs))
        blocks = list(cli._field_grid_rows(xs, ys, fields))
        assert blocks == [want.encode("ascii")]

    def test_tabulated_stamp_bad_values(self):
        text = MINIMAL.replace(
            "kind = raised_cosine\ncenter = 1\nhalf_width = 0.4\ndepth = 0.01",
            "kind = tabulated\nxs = 0 1 2\nvalues = 0 oops 0",
        )
        with pytest.raises(ConfigError):
            parse_config(text)


def _cells(values):
    """The cells of cli._format_17g, as strings."""
    return [row.tobytes().rstrip(b"\0").decode("ascii")
            for row in cli._format_17g(np.asarray(values, dtype=np.float64))]


def _printf(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def _near_ties(e, offsets):
    """Floats m * 2**e, m in [2**52, 2**53), whose scaling to 17 integer
    digits lies offsets[i] / b off a rounding tie, b being the denominator
    of that scaling; offset 0 is an exact tie where b is even."""
    E = math.floor(math.log10(math.ldexp(1.0, 52 + e)))
    scale = Fraction(2) ** e * Fraction(10) ** (16 - E)
    a, b = scale.numerator, scale.denominator
    ties = []
    for d in offsets:
        m = (b // 2 + d) * pow(a, -1, b) % b
        m += -(-(2**52 - m) // b) * b
        assert 2**52 <= m < 2**53
        x = math.ldexp(m, e)
        y = Fraction(x) * Fraction(10) ** (16 - E)
        assert 10**16 <= y < 10**17
        off = y - math.floor(y) - Fraction(1, 2)
        assert abs(off) < Fraction(cli._TIE_MARGIN)
        assert (off == 0) == (d == 0 and b % 2 == 0)
        ties.append(x)
    return ties


class TestFormat17g:
    """cli._format_17g against Python's "%.17g", cell for cell."""

    def test_random_bit_patterns(self, monkeypatch):
        # every exponent and sign; about 1 pattern in 2048 is inf or nan,
        # and only those and values within the tie margin reach _fmt
        # (doubles from 1e13 to 1e16 with a fraction of 1/8, 1/4, ... are
        # exact ties)
        calls = []
        monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or format(float(v), ".17g"))
        values = np.random.default_rng(26).integers(0, 2**64, 200_000, dtype=np.uint64,
                                                    endpoint=False).view(np.float64)
        assert _cells(values) == _printf(values)
        finite = [abs(v) for v in calls if math.isfinite(v)]
        assert len(calls) - len(finite) == np.count_nonzero(~np.isfinite(values))
        for v in finite:
            y = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
            y /= 10 if y >= 10**17 else Fraction(1, 10) if y < 10**16 else 1
            assert abs(y - math.floor(y) - Fraction(1, 2)) < cli._TIE_MARGIN, v

    def test_powers_of_two(self):
        values = np.ldexp(1.0, np.arange(-1074, 1024))
        values = np.concatenate([values, -values])
        assert _cells(values) == _printf(values)

    def test_zeros_infinities_nan_and_subnormals(self):
        subnormals = np.random.default_rng(3).integers(1, 2**52, 1000, dtype=np.uint64)
        values = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
             2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308],
            subnormals.view(np.float64), -subnormals.view(np.float64)])
        assert _cells(values) == _printf(values)
        assert _cells([0.0, -0.0, np.nan]) == ["0", "-0", "nan"]

    def test_switch_points_and_decade_carry(self):
        # "%g" turns to the exponent form below 1e-4 and from 1e17 on.
        # Around every power of ten (the float nearest it, and nearest the
        # largest 18-digit value below it, with 3 neighbours each way) the
        # floor of log10 can be one off, and the 17 digits can round up
        # into the next decade
        points = [9.9999999999999995e-5, 1e-4, 1e16, 1e17, 99999999999999999.0]
        points += [float(f"1e{k}") for k in range(-323, 309)]
        points += [float(f"9.99999999999999995e{k}") for k in range(-324, 308)]
        values = []
        for p in points:
            below = above = p
            values.append(p)
            for _ in range(3):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                values += [below, above]
        values = np.array([v for v in values if math.isfinite(v)])
        values = np.concatenate([values, -values])
        assert _cells(values) == _printf(values)
        assert _cells([1e16, 1e17, 1e-4, math.nextafter(1e-4, 0.0)]) == [
            "10000000000000000", "1e+17", "0.0001", "9.9999999999999991e-05"]
        # the double nearest 1e-14 lies below it, and its 17 digits round up
        # into the next decade
        assert Fraction(1e-14) < Fraction(1, 10**14) and _cells([1e-14]) == ["1e-14"]

    @pytest.mark.parametrize("e", [-60, -52, -40, 40, 66])
    def test_near_ties_take_the_per_value_route(self, monkeypatch, e):
        # values within the tie margin of a rounding tie, exact ties among
        # them, are formatted by _fmt: the product is not trusted to round
        # them, and "%g" rounds an exact tie to even
        calls = []
        monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or format(float(v), ".17g"))
        ties = _near_ties(e, [0, 1, -1, 2, -3, 20, -20])
        values = np.array(ties + [-t for t in ties])
        assert _cells(values) == _printf(values)
        assert sorted(calls) == sorted(values.tolist())

    def test_exact_tie_rounds_half_to_even(self):
        # 1234567890123457 / 8 has 18 significant digits and ends in 5
        assert _cells([1234567890123457 / 8, 1234567890123459 / 8]) == [
            "154320986265432.12", "154320986265432.38"]

    def test_any_floats(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(derandomize=True, max_examples=100, database=None, deadline=None)
        @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
        def formats_like_printf(values):
            assert _cells(values) == _printf(values)

        formats_like_printf()

    def test_field_grid_rows_in_blocks(self):
        # a table of two whole blocks and a partial one: one bytes object
        # per block of grid rows, each cell "%.17g" of its value
        ny, nx = 2 * cli._BLOCK_ROWS + 3, 4
        rng = np.random.default_rng(5)
        xs, ys = np.linspace(0.0, 2.0, nx), np.linspace(0.0, 1.0, ny)
        names = ("u", "v", "sigma_x", "sigma_y", "tau_xy")
        fields = {name: rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(-30, 30, (ny, nx))
                  for name in names}
        fields["v"][:, 0] = 0.0
        fields["tau_xy"][1, 1] = np.nan
        blocks = list(cli._field_grid_rows(xs, ys, fields))
        rows = [",".join(_printf([xs[i], ys[j], *(fields[name][j, i] for name in names)]))
                for j in range(ny) for i in range(nx)]
        lines = nx * cli._BLOCK_ROWS
        assert blocks == ["".join(row + "\n" for row in rows[b:b + lines]).encode("ascii")
                          for b in range(0, len(rows), lines)]
        assert len(blocks) == 3

    def test_threads_share_the_layout_cache(self, monkeypatch):
        # a library caller may run ``run`` from several threads: threads
        # that fill the same empty layouts at once, switching often, each
        # get "%.17g" of every value
        values = np.random.default_rng(27).integers(0, 2**64, 4000, dtype=np.uint64,
                                                    endpoint=False).view(np.float64)
        blocks = np.array_split(values, 40)
        expected = [_printf(np.concatenate(blocks[parity::2])) for parity in (0, 1)]
        results = {}

        def format_blocks(i):
            results[i] = [cell for block in blocks[i % 2::2] for cell in _cells(block)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(cli, "_LAYOUTS", np.zeros_like(cli._LAYOUTS))
                monkeypatch.setattr(cli, "_HAVE_LAYOUT", np.zeros_like(cli._HAVE_LAYOUT))
                threads = [threading.Thread(target=format_blocks, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for i in range(4):
                    assert results.pop(i) == expected[i % 2], i
        finally:
            sys.setswitchinterval(interval)

    def test_working_memory_is_bounded(self):
        # a 401 x 401 table, large-field's size, is formatted block by
        # block: the temporaries stay far below the table's 23 MB of text
        rng = np.random.default_rng(7)
        xs, ys = np.linspace(0.0, 2.0, 401), np.linspace(0.0, 1.0, 401)
        fields = {name: rng.standard_normal((401, 401))
                  for name in ("u", "v", "sigma_x", "sigma_y", "tau_xy")}
        tracemalloc.start()
        try:
            size = sum(len(row) for row in cli._field_grid_rows(xs, ys, fields))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 20 * 2**20
        assert peak < 16 * 2**20, peak


class TestMain:
    def _write(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return p

    def test_success_exit_zero(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL.replace("modes = 64", "modes = 8")
                          .replace("grid = 41x41", "grid = 9x9"))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "field_grid.csv").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL.replace("nu = 0.3", "nu = 0.7"))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("data", [b"\xff\xfe", MINIMAL.encode("utf-16"),
                                      ("# plate \u00e9\n" + MINIMAL).encode("latin-1")],
                             ids=["bytes", "utf-16", "latin-1"])
    def test_undecodable_config_file_exit_two(self, tmp_path, capsys, data):
        # a config file is read as UTF-8; one that is not is named, not a traceback
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(data)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config file: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["--output", "[output] directory", "grid-is-dir"])
    def test_unwritable_output_exit_two(self, tmp_path, capsys, source):
        # a directory below a regular file cannot be created, and a file
        # cannot replace a directory; --output sets [output] directory, so
        # both sources are named by that key
        text = MINIMAL.replace("modes = 64", "modes = 4").replace("grid = 41x41", "grid = 5x5")
        if source == "grid-is-dir":
            target = tmp_path / "out"
            (target / "field_grid.csv").mkdir(parents=True)
        else:
            (tmp_path / "file").write_text("")
            target = tmp_path / "file" / "x"
        args = []
        if source == "[output] directory":
            text += f"\n[output]\ndirectory = {target}\n"
        else:
            args = ["--output", str(target)]
        assert main(["--config", str(self._write(tmp_path, text)), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "[output] directory" in err
        assert str(target) in err
        if source == "grid-is-dir":
            assert f"[Errno {errno.EISDIR}] " in err
            assert str(target / "field_grid.csv") in err
            assert [p.name for p in target.iterdir()] == ["field_grid.csv"]

    def test_field_grid_write_error_names_file(self, tmp_path, capsys, monkeypatch):
        # an OSError while the table is written names its errno and
        # field_grid.csv, and leaves no file or directory behind
        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_field_grid_rows", disk_full)
        cfg = self._write(tmp_path, MINIMAL.replace("modes = 64", "modes = 4"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: cannot write the artifacts to [output] directory = "
                       f"{out}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                       f"'{out / 'field_grid.csv'}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("text,args", [
        ("\n[output]\ndirectory =\n", []),
        ("", ["--output", ""]),
        ("", ["--output", "   "]),
    ], ids=["[output] directory", "--output", "blank"])
    def test_empty_output_directory_exit_two(self, tmp_path, capsys, monkeypatch, text, args):
        # an empty directory used to fall through to ./platestamp_out, and a
        # blank --output used to create a directory named by its spaces; the
        # flag is stripped and checked like the config's value
        cfg = self._write(tmp_path, MINIMAL.replace("modes = 64", "modes = 4") + text)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["--config", str(cfg), *args]) == 2
        assert capsys.readouterr().err == ("config error: invalid value for [output] "
                                           "directory: must name a directory, got an "
                                           "empty value\n")
        assert list(cwd.iterdir()) == []

    def test_output_flag_overrides_config_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = MINIMAL.replace("modes = 64", "modes = 4").replace("grid = 41x41", "grid = 5x5")
        cfg = self._write(tmp_path, text + "\n[output]\ndirectory = from_config\n")
        assert main(["--config", str(cfg), "--output", "from_flag"]) == 0
        assert sorted(p.name for p in (tmp_path / "from_flag").iterdir()) == [
            "field_grid.csv", "pressure_profile.csv", "report.txt", "summary.txt"]
        assert not (tmp_path / "from_config").exists()

    def test_default_output_directory(self, tmp_path, monkeypatch):
        # with neither --output nor [output] directory, the artifacts go to
        # ./platestamp_out
        monkeypatch.chdir(tmp_path)
        text = MINIMAL.replace("modes = 64", "modes = 4").replace("grid = 41x41", "grid = 5x5")
        assert main(["--config", str(self._write(tmp_path, text))]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["platestamp_out", "run.cfg"]
        assert sorted(p.name for p in (tmp_path / "platestamp_out").iterdir()) == [
            "field_grid.csv", "pressure_profile.csv", "report.txt", "summary.txt"]

    @pytest.mark.parametrize("owner,name,args", [
        (cli, "sine_coefficients", []),
        (cli, "assemble_series", []),
        (SeriesField, "grid_fields", []),
        (cli, "discrepancy_report", ["--verify"]),
        (cli, "_field_grid_rows", []),
    ], ids=["transform", "solve", "grid", "verify", "write"])
    def test_out_of_memory_exit_two(self, tmp_path, capsys, monkeypatch, owner, name, args):
        # a modes or grid too large for memory exits 2 naming both keys,
        # not with a traceback, whichever stage of the run runs out, the
        # field_grid.csv formatter included
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(owner, name, exhausted)
        cfg = self._write(tmp_path, MINIMAL)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out"), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory")
        assert "[solver] modes = 64" in err and "[solver] grid = 41x41" in err
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        # a strip with beta_1 ~ 3e7 makes the per-mode boundary system
        # degenerate; path A reports it as a numerical failure
        text = """\
[geometry]
l = 1e-7
h = 1

[material]
E = 1
nu = 0.3

[stamp]
kind = raised_cosine
center = 5e-8
half_width = 2e-8
depth = 0.01

[solver]
modes = 1
grid = 9x9
path = A
"""
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_underflowing_beta_exit_three(self, tmp_path, capsys):
        # on l = 1e10, h = 5e-324 every beta = n pi h / l underflows to 0, where
        # no hyperbolic ratio has a value: one line names the error and
        # the smallest denominator argument, and no file is written
        text = MINIMAL.replace("l = 2", "l = 1e10").replace("h = 1", "h = 5e-324") \
            .replace("center = 1", "center = 5e9").replace("half_width = 0.4", "half_width = 1e9") \
            .replace("modes = 64", "modes = 8").replace("grid = 41x41", "grid = 5x5")
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == ("numerical failure: DomainError: ratio denominator "
                                           "argument must be positive, got b=0.0\n")
        assert not (tmp_path / "out").exists()

    def test_non_finite_field_exit_three(self, tmp_path):
        # on l = 1e-300, h = 1 path B's shear profile overflows and every
        # tau_xy cell is nan: the run exits 3 with one line naming the
        # field and creates no directory.  A subprocess, so that numpy's
        # RuntimeWarnings print as they would for a user rather than fail
        # the test
        text = MINIMAL.replace("l = 2", "l = 1e-300").replace("center = 1", "center = 5e-301") \
            .replace("half_width = 0.4", "half_width = 1e-301") \
            .replace("modes = 64", "modes = 8").replace("grid = 41x41", "grid = 5x5")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "platestamp", "--config", str(self._write(tmp_path, text)),
             "--output", str(out)],
            env=_env_with_src(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        failures = [line for line in proc.stderr.splitlines()
                    if line.startswith("numerical failure: DomainError")]
        assert len(failures) == 1 and "field tau_xy " in failures[0], proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("old,new,named", [
        ("depth = 0.01", "depth = nan", "[stamp] depth"),
        ("center = 1", "center = inf", "[stamp] center"),
        ("l = 2", "l = inf", "[geometry] l"),
        ("kind = raised_cosine\ncenter = 1\nhalf_width = 0.4\ndepth = 0.01",
         "kind = tabulated\nxs = 0 1 2\nvalues = 0 nan 0", "[stamp] values"),
    ], ids=["depth", "center", "l", "tabulated"])
    def test_non_finite_number_exit_two(self, tmp_path, capsys, old, new, named):
        cfg = self._write(tmp_path, MINIMAL.replace(old, new))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,key", [
        ("half_width = 0.4", "half_width = -0.4", "half_width"),
        ("half_width = 0.4", "half_width = 0", "half_width"),
        ("center = 1", "center = -1", "center"),
        ("kind = raised_cosine\ncenter = 1\nhalf_width = 0.4\ndepth = 0.01",
         "kind = tabulated\nxs = 0 1 1 2\nvalues = 0 0.01 0.01 0", "xs"),
    ], ids=["half_width-negative", "half_width-zero", "center-negative", "tabulated-xs"])
    def test_stamp_factory_rejection_exit_two(self, tmp_path, capsys, old, new, key):
        cfg = self._write(tmp_path, MINIMAL.replace(old, new))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"[stamp] {key}:" in err

    @pytest.mark.parametrize("old,new", [
        ("half_width = 0.4", "half_width = 1e-17"),
        ("l = 2\nh = 1\n", "l = 1e200\nh = 1e200\n"),
    ], ids=["desk", "huge-plate"])
    @pytest.mark.parametrize("kind", ["raised_cosine", "flat_stamp", "parabolic_bump"])
    def test_support_below_resolution_exit_two(self, tmp_path, capsys, kind, old, new):
        # center +- half_width rounds to center (at center 1, and at center
        # 5e199 with half_width 0.4): such a run solved to an all-zero field
        text = MINIMAL.replace("kind = raised_cosine", f"kind = {kind}").replace(old, new)
        if "1e200" in new:
            text = text.replace("center = 1\n", "center = 5e199\n")
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid value for [stamp] half_width: half_width ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,args", [
        (SINGLE_MODE_VERIFY.replace("grid = 21x21", "grid = 2x2"), []),
        (MINIMAL, ["--grid", "2", "9", "--verify"]),
    ], ids=["verify", "override"])
    def test_grid_too_small_to_verify_exit_two(self, tmp_path, capsys, text, args):
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out"), *args]) == 2
        assert "[solver] grid" in capsys.readouterr().err

    @pytest.mark.parametrize("text,args", [
        (MINIMAL + "path = all\n", []),
        (MINIMAL, ["--path", "all"]),
    ], ids=["config", "flag"])
    def test_path_all_exit_two(self, tmp_path, capsys, text, args):
        # verification is switched on by verify alone
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out"), *args]) == 2
        assert capsys.readouterr().err == ("config error: invalid value for [solver] path: "
                                           "'all' (expected one of A, B, C)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,args", [
        (SINGLE_MODE_VERIFY.replace("mode = 1", "mode = 9"), []),
        (SINGLE_MODE_VERIFY.replace("mode = 1", "mode = 3"), ["--modes", "2"]),
    ], ids=["config", "override"])
    def test_single_mode_beyond_modes_exit_two(self, tmp_path, capsys, text, args):
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out"), *args]) == 2
        assert "[stamp] mode" in capsys.readouterr().err

    @pytest.mark.parametrize("nu", ["0.5", "-0.1"])
    def test_bad_poisson_ratio_named(self, tmp_path, capsys, nu):
        # _positive rejects every bad E, so a Material error is about nu
        cfg = self._write(tmp_path, MINIMAL.replace("nu = 0.3", f"nu = {nu}"))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: invalid value for [material] nu: Poisson ratio")

    @pytest.mark.parametrize("text,args", [
        (MINIMAL.replace("depth = 0.01", "depth = 0"), ["--verify"]),
        (SINGLE_MODE_VERIFY.replace("depth = 0.01", "depth = 0"), []),
    ], ids=["flag", "config"])
    def test_zero_depth_verify_exit_two(self, tmp_path, capsys, text, args):
        # an all-zero field has zero residuals, hence no observed order;
        # without verification the same stamp runs (test_zero_depth_all_zero)
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out"), *args]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: invalid value for [stamp] depth: verification needs")
        assert not (tmp_path / "out").exists()

    def test_huge_plate_verify_exit_three(self, tmp_path, capsys):
        # the fields underflow to zero, so the meters observe no order; the
        # run reports that as a numerical failure rather than dying in the
        # order's logarithm, and creates no directory
        cfg = self._write(tmp_path, HUGE_PLATE)
        out = tmp_path / "new" / "out"
        assert main(["--config", str(cfg), "--output", str(out), "--verify"]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_failed_run_keeps_previous_artifacts(self, tmp_path, capsys):
        # a run that fails after its fields exist writes nothing: the
        # artifacts of the run before it keep their bytes, and no temporary
        # file is left
        out = tmp_path / "out"
        good = self._write(tmp_path, MINIMAL.replace("modes = 64", "modes = 8")
                           .replace("grid = 41x41", "grid = 9x9"))
        assert main(["--config", str(good), "--output", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in ARTIFACTS}
        bad = tmp_path / "bad.cfg"
        bad.write_text(HUGE_PLATE)
        assert main(["--config", str(bad), "--output", str(out), "--verify"]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == list(ARTIFACTS)
        assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before

    def test_directory_target_keeps_previous_artifacts(self, tmp_path, capsys):
        # report.txt made a directory after a run: the next run, with other
        # values, exits 2 naming it before it writes anything, so the other
        # three artifacts keep the earlier run's bytes
        text = DESK_VERIFY.replace("modes = 64", "modes = 8").replace("grid = 41x41", "grid = 5x5")
        out = tmp_path / "out"
        assert main(["--config", str(self._write(tmp_path, text)), "--output", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in ARTIFACTS}
        (out / "report.txt").unlink()
        (out / "report.txt").mkdir()
        cfg = self._write(tmp_path, text.replace("depth = 0.01", "depth = 0.02"))
        assert main(["--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"[Errno {errno.EISDIR}] " in err
        assert err.rstrip().endswith(f"'{out / 'report.txt'}'")
        assert sorted(p.name for p in out.iterdir()) == list(ARTIFACTS)
        assert (out / "report.txt").is_dir()
        for name in ARTIFACTS:
            if name != "report.txt":
                assert (out / name).read_bytes() == before[name], name

    def test_write_error_keeps_previous_artifacts(self, tmp_path, capsys, monkeypatch):
        # ENOSPC while summary.txt, the third artifact, is written: the run
        # exits 2 naming it, every earlier artifact keeps its bytes, no
        # temporary file is left, and a run into a new directory leaves none
        def disk_full(chunks):
            yield chunks[0]
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def solve(config):
            *values, texts = real_solve(config)
            texts["summary.txt"] = disk_full(texts["summary.txt"])
            return *values, texts

        real_solve = cli._solve
        text = MINIMAL.replace("modes = 64", "modes = 8").replace("grid = 41x41", "grid = 9x9")
        out = tmp_path / "out"
        assert main(["--config", str(self._write(tmp_path, text)), "--output", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in ARTIFACTS}
        monkeypatch.setattr(cli, "_solve", solve)
        cfg = self._write(tmp_path, text.replace("depth = 0.01", "depth = 0.02"))
        new = tmp_path / "new" / "out"
        for target in (out, new):
            assert main(["--config", str(cfg), "--output", str(target)]) == 2
            assert capsys.readouterr().err.endswith(
                f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                f"'{target / 'summary.txt'}'\n")
        assert sorted(p.name for p in out.iterdir()) == list(ARTIFACTS)
        assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.cfg"]

    def test_over_long_directory_name_creates_nothing(self, tmp_path, capsys):
        # the last component of --output is too long for the file system:
        # mkdir creates its parent, then fails; the run exits 2 and removes
        # the parent
        cfg = self._write(tmp_path, MINIMAL.replace("modes = 64", "modes = 4")
                          .replace("grid = 41x41", "grid = 5x5"))
        out = tmp_path / "new" / ("x" * 300)
        assert main(["--config", str(cfg), "--output", str(out)]) == 2
        assert f"[Errno {errno.ENAMETOOLONG}] " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("old,new,named", [
        ("center = 1", "center = 5", "[stamp] center"),
        ("kind = raised_cosine\ncenter = 1\nhalf_width = 0.4\ndepth = 0.01",
         "kind = tabulated\nxs = 0 1 2\nvalues = 0 0 0", "[stamp] values"),
    ], ids=["bump-off-face", "tabulated-zero"])
    def test_stamp_without_support_exit_two(self, tmp_path, capsys, old, new, named):
        # either would solve to an all-zero field
        cfg = self._write(tmp_path, MINIMAL.replace(old, new))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("args,named", [
        (["--modes", "0"], "[solver] modes"),
        (["--modes", "many"], "[solver] modes"),
        (["--grid", "1", "5"], "[solver] grid"),
        (["--path", "Q"], "[solver] path"),
    ], ids=["modes-zero", "modes-not-integer", "grid-1x5", "path"])
    def test_bad_flag_exit_two(self, tmp_path, capsys, args, named):
        # a flag is a [solver] value, checked where the config's are
        cfg = self._write(tmp_path, MINIMAL)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out"), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    def test_flags_without_solver_section(self, tmp_path):
        text = MINIMAL[:MINIMAL.index("[solver]")]
        out = tmp_path / "out"
        rc = main(["--config", str(self._write(tmp_path, text)), "--output", str(out),
                   "--modes", "4", "--grid", "5", "3", "--path", "C", "--verify"])
        assert rc == 0
        summary = (out / "summary.txt").read_text()
        assert "modes=4\ngrid_nx=5\ngrid_ny=3\n" in summary and "path=C\n" in summary
        assert "equilibrium_order_x=" in summary

    @pytest.mark.parametrize("stamp,named", [
        ("kind = flat_stamp\ncenter = 0.3\nhalf_width = 0.3\ndepth = 0.01", "[stamp] center"),
        ("kind = flat_stamp\ncenter = 1.7\nhalf_width = 0.3\ndepth = 0.01", "[stamp] center"),
        ("kind = flat_stamp\ncenter = 1.8\nhalf_width = 0.3\ndepth = 0.01", "[stamp] center"),
        ("kind = raised_cosine\ncenter = 0.3\nhalf_width = 0.4\ndepth = 0.01",
         "[stamp] center"),
        ("kind = tabulated\nxs = 0 1 2\nvalues = 0.01 0.02 0", "[stamp] values"),
    ], ids=["flat-at-0", "flat-at-l", "flat-over-l", "raised_cosine-at-0", "tabulated-at-0"])
    def test_stamp_nonzero_at_corner_exit_two(self, tmp_path, capsys, stamp, named):
        text = MINIMAL.replace(
            "kind = raised_cosine\ncenter = 1\nhalf_width = 0.4\ndepth = 0.01", stamp)
        assert main(["--config", str(self._write(tmp_path, text)),
                     "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{named}:" in err

    def test_path_c_below_floor_exit_two(self, tmp_path, capsys):
        # one ulp of h below path C's beta floor: path C exits 2 naming its
        # key, path B solves the same plate, and path C solves at the floor
        h_below, h_at = closed_form_floor_heights(2.0)
        text = MINIMAL.replace("h = 1", f"h = {h_below!r}").replace(
            "modes = 64", "modes = 8").replace("grid = 41x41", "grid = 9x9")
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "c"), "--path", "C"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: invalid value for [solver] path: path C needs beta_1")
        assert not (tmp_path / "c").exists()
        assert main(["--config", str(cfg), "--output", str(tmp_path / "b"), "--path", "B"]) == 0
        cfg = self._write(tmp_path, text.replace(repr(h_below), repr(h_at)))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "c"), "--path", "C"]) == 0

    def test_thick_plate_verify_exit_zero(self, tmp_path):
        # h/l = 10: the verification margin follows the shorter side, and the
        # top modes' face layer no longer reads as a path divergence
        cfg = self._write(tmp_path, THICK_VERIFY)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
        assert "exclusion margin 0.3)" in (tmp_path / "out" / "report.txt").read_text()

    def test_python_dash_m(self, tmp_path):
        ok = self._write(tmp_path, MINIMAL.replace("modes = 64", "modes = 8")
                         .replace("grid = 41x41", "grid = 9x9"))
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace("depth = 0.01", "depth = nan"))
        codes = []
        for cfg in (ok, bad):
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "platestamp", "--config", str(cfg),
                 "--output", str(tmp_path / "out")],
                env=_env_with_src(), capture_output=True, text=True, timeout=120)
            codes.append(proc.returncode)
        assert codes == [0, 2]
        assert "[stamp] depth" in proc.stderr
        assert (tmp_path / "out" / "field_grid.csv").exists()

    def test_overrides(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--output", str(out),
                   "--modes", "4", "--grid", "7", "6", "--path", "B"])
        assert rc == 0
        lines = (out / "field_grid.csv").read_text().splitlines()
        assert len(lines) == 1 + 7 * 6

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit status" in out and "2" in out and "3" in out
