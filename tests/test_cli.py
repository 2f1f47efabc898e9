"""Tests for config parsing, the batch runner and the command-line entry."""
import dataclasses
import filecmp
import gc
import os
import subprocess
import sys
import weakref
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

THICK_VERIFY = MINIMAL.replace("h = 1", "h = 20").replace("nu = 0.3", "nu = 0.2") \
    .replace("grid = 41x41", "grid = 21x21") + "verify = true\n"


def _env_with_src():
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


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


class TestRun:
    def test_zero_depth_all_zero(self, tmp_path):
        cfg = parse_config(MINIMAL.replace("depth = 0.01", "depth = 0"))
        bundle = run(cfg, output_dir=tmp_path / "out")
        assert bundle.summary["total_force"] == 0.0
        for arr in bundle.fields.values():
            assert np.all(arr == 0.0)
        assert np.all(bundle.pressure == 0.0)

    def test_deterministic_outputs(self, tmp_path):
        cfg = parse_config(MINIMAL)
        run(cfg, output_dir=tmp_path / "a")
        run(cfg, output_dir=tmp_path / "b")
        for name in ("field_grid.csv", "pressure_profile.csv", "summary.txt",
                     "report.txt"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

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

    def test_path_all_runs_cross_check(self, tmp_path):
        cfg = dataclasses.replace(parse_config(MINIMAL.replace("modes = 64", "modes = 6")
                                               .replace("grid = 41x41", "grid = 13x13")),
                                  path="all")
        bundle = run(cfg, output_dir=tmp_path / "out")
        # fields are emitted from the normative path, with the cross-check
        # recorded in the summary
        assert bundle.summary["path"] == "B"
        assert bundle.summary["path_equiv_max_rel_diff_ab"] <= 1e-10

    @pytest.mark.parametrize("text", [SMALL_VERIFY, SMALL_VERIFY + "path = all\n"],
                             ids=["verify", "path-all"])
    def test_verified_run_evaluates_each_grid_once(self, tmp_path, monkeypatch, text):
        # one evaluation each of the output grid and of the coarse and fine
        # residual grids that both meters share
        calls = []
        original = SeriesField.grid_fields

        def counted(sf, xs, ys):
            calls.append((len(xs), len(ys)))
            return original(sf, xs, ys)

        monkeypatch.setattr(SeriesField, "grid_fields", counted)
        run(parse_config(text), output_dir=tmp_path / "out")
        assert calls == [(13, 11), (15, 13), (27, 23)]

    @pytest.mark.parametrize("text", [DESK_VERIFY, DESK_VERIFY + "path = all\n"],
                             ids=["verify", "path-all"])
    def test_prefilled_and_lazy_shared_grids_write_same_bytes(self, tmp_path, monkeypatch,
                                                              text):
        # the one-pass evaluation and a stand-in that makes one grid_fields
        # call for each grid a reader asks for give the same artifacts
        run(parse_config(text), output_dir=tmp_path / "prefilled")

        class Lazy:
            def __init__(self, sf, axes):
                self.geometry, self.material, self._sf = sf.geometry, sf.material, sf

            def grid_fields(self, xs, ys):
                return self._sf.grid_fields(xs, ys)

        monkeypatch.setattr(cli, "SharedGridFields", Lazy)
        run(parse_config(text), output_dir=tmp_path / "lazy")
        names = ["field_grid.csv", "pressure_profile.csv", "summary.txt", "report.txt"]
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "prefilled", tmp_path / "lazy",
                                                   names, shallow=False)
        assert match == names, (mismatch, errors)

    def test_verified_run_matches_independent_meters(self, tmp_path):
        cfg = parse_config(SMALL_VERIFY)
        summary = run(cfg, output_dir=tmp_path / "out").summary
        geom = cfg.geometry
        sf = assemble_series(sine_coefficients(cfg.profile, geom, cfg.modes), geom,
                             cfg.material)
        pair = dict(grid=GridSpec(13, 11), refined=GridSpec(25, 21),
                    exclusion_margin=0.15 * min(geom.l, geom.h))
        eq = equilibrium_residual(sf, **pair)
        con = constitutive_residual(sf, **pair)
        assert [summary[f"equilibrium_order_{a}"] for a in "xy"] == \
            [r.observed_order for r in eq]
        assert [summary[f"equilibrium_max_abs_{a}"] for a in "xy"] == [r.max_abs for r in eq]
        assert [summary[f"constitutive_order_{f}"] for f in ("sigma_x", "sigma_y", "tau_xy")] \
            == [r.observed_order for r in con]

    def test_bundle_does_not_keep_shared_evaluation(self, tmp_path, monkeypatch):
        # the kept residual grids live for one run only
        made = []

        class Recorded(SharedGridFields):
            def __init__(self, sf, axes):
                super().__init__(sf, axes)
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
        assert np.max(np.abs(bundle.pressure - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert not np.shares_memory(bundle.pressure, bundle.fields["sigma_y"])

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
        # numpy is the only runtime dependency: importing the package, a
        # verified run and the finite-difference oracle load no scipy module
        code = ("import sys; import platestamp; from platestamp import cli; "
                "cli.run(cli.parse_config(sys.argv[1]), sys.argv[2]); "
                "g = platestamp.Geometry(2.0, 1.0); "
                "platestamp.fd_laplace_solve(platestamp.DirichletData(f4=lambda x: x), g, "
                "platestamp.GridSpec(9, 5)); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code, SMALL_VERIFY, str(tmp_path / "out")],
                              env=_env_with_src(), capture_output=True, text=True,
                              check=True, timeout=120)
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "out" / "summary.txt").read_text().count("equilibrium_order_x=") == 1

    def test_field_grid_rows_format_like_17g(self):
        # "%.17g" per row must give the digits of format(v, ".17g") on
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
        rows = list(cli._field_grid_rows(xs, ys, fields))
        assert len(rows) == len(ys)
        assert "".join(rows) == want

    def test_tabulated_stamp_bad_values(self):
        text = MINIMAL.replace(
            "kind = raised_cosine\ncenter = 1\nhalf_width = 0.4\ndepth = 0.01",
            "kind = tabulated\nxs = 0 1 2\nvalues = 0 oops 0",
        )
        with pytest.raises(ConfigError):
            parse_config(text)


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

    @pytest.mark.parametrize("source", ["--output", "[output] directory"])
    def test_unwritable_output_exit_two(self, tmp_path, capsys, source):
        # a directory below a regular file cannot be created
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "x"
        text = MINIMAL.replace("modes = 64", "modes = 4").replace("grid = 41x41", "grid = 5x5")
        args = []
        if source == "--output":
            args = ["--output", str(target)]
        else:
            text += f"\n[output]\ndirectory = {target}\n"
        assert main(["--config", str(self._write(tmp_path, text)), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and source in err

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

    @pytest.mark.parametrize("text,args", [
        (SINGLE_MODE_VERIFY.replace("grid = 21x21", "grid = 2x2"), []),
        (MINIMAL.replace("grid = 41x41", "grid = 5x2") + "path = all\n", []),
        (MINIMAL, ["--grid", "2", "9", "--verify"]),
    ], ids=["verify", "path-all", "override"])
    def test_grid_too_small_to_verify_exit_two(self, tmp_path, capsys, text, args):
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out"), *args]) == 2
        assert "[solver] grid" in capsys.readouterr().err

    @pytest.mark.parametrize("text,args", [
        (SINGLE_MODE_VERIFY.replace("mode = 1", "mode = 9"), []),
        (SINGLE_MODE_VERIFY.replace("mode = 1", "mode = 3"), ["--modes", "2"]),
    ], ids=["config", "override"])
    def test_single_mode_beyond_modes_exit_two(self, tmp_path, capsys, text, args):
        cfg = self._write(tmp_path, text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out"), *args]) == 2
        assert "[stamp] mode" in capsys.readouterr().err

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
