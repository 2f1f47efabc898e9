"""Toy-size self-test of the benchmark: seeded inputs, result schema, span
arithmetic, and negative controls showing that the output checks trip."""
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, run, workloads
from perfbench.spans import Tracer
from platestamp import stamp_problem, strip_solution

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())
TOY_CLI = {"modes": 16, "nx": 9, "ny": 7, "verify": True}


def _case_key(case):
    return (case.geometry, case.material, case.profile)


def test_sweep_cases_deterministic_and_in_range():
    a = workloads.sweep_cases(5)
    assert [_case_key(c) for c in a] == [_case_key(c) for c in workloads.sweep_cases(5)]
    assert [_case_key(c) for c in a] != [_case_key(c) for c in workloads.sweep_cases(6)]
    kinds = [c.profile.kind.value for c in a]
    assert all(kinds.count(k) == len(a) // 4 for k in workloads.SWEEP_KINDS)
    for c in a:
        l = c.geometry.l
        assert 1e-2 <= c.geometry.h / l <= 1e2
        assert 0.0 <= c.material.nu <= 0.45
        lo, hi = min(c.profile.breakpoints(c.geometry)), max(c.profile.breakpoints(c.geometry))
        assert 0.05 * l <= lo < hi <= 0.95 * l


def test_result_schema_matches_benchmark_json(tmp_path):
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    for trace, section, table in ((False, "end_to_end", run.END_TO_END),
                                  (True, "per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert declared == dict(table)
        record = run.measure("sweep-desk", workloads.DEFAULT_SEED, 0.2, trace,
                             out_root=tmp_path, setup_repeats=1)
        line = run.result_line(record)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: m["unit"] for k, m in line["metrics"].items()} == declared
        assert all(isinstance(m["value"], float) for m in line["metrics"].values())
        env = record["environment"]
        assert {"python", "numpy", "scipy", "blas", "blas_threads", "cpu_count",
                "git_commit", "seed", "output_filesystem"} <= set(env)
    # the traced run leaves the library functions as it found them
    assert not hasattr(stamp_problem.sine_coefficients, "__wrapped__")
    assert not hasattr(strip_solution.SeriesField.grid_fields, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, 0, None],
                    ["inner", 1.0, 4.0, 0, 0, 7],
                    ["inner", 5.0, 6.0, 0, 0, 3]]
    totals = tracer.totals()
    assert totals["outer"] == {"self_s": 6.0, "calls": 1, "count": 0}
    assert totals["inner"] == {"self_s": 4.0, "calls": 2, "count": 10}


def _perturb(a: np.ndarray, index) -> None:
    a[index] *= 1.0 + 1e-6


def test_sweep_checks_trip_on_perturbed_field():
    case = workloads.sweep_cases(workloads.DEFAULT_SEED)[0]
    ref = REFERENCE["sweep-desk"]["cases"][0]
    out = workloads.solve(case)
    assert checks.check_sweep(case, out) == []
    assert checks.compare_sweep(out, ref) == []

    flat = out.fields["sigma_y"].reshape(-1)
    sampled = np.arange(0, flat.size, checks.SWEEP_STRIDE)
    _perturb(flat, sampled[np.argmax(np.abs(flat[sampled]))])
    assert checks.compare_sweep(out, ref)

    out = workloads.solve(case)
    face = out.fields["v"][-1]
    _perturb(face, np.argmax(np.abs(face)))
    assert checks.check_sweep(case, out)


def _toy_run(tmp_path, name):
    bundle = workloads.run_cli(workloads.cli_case(TOY_CLI), tmp_path / name)
    return {key: Path(p).read_bytes() for key, p in bundle.files.items()}


def test_cli_checks_trip_on_perturbed_value(tmp_path):
    ref = checks.cli_record(_toy_run(tmp_path, "ref"))
    data = _toy_run(tmp_path, "again")
    assert checks.compare_cli(data, ref) == []

    lines = data["field_grid"].decode().split("\n")
    sampled = range(1, ref["field_grid"]["rows"] + 1, ref["field_grid"]["stride"])
    row = max(sampled, key=lambda r: abs(float(lines[r].split(",")[3])))
    values = lines[row].split(",")
    values[3] = repr(float(values[3]) * (1.0 + 1e-6))
    lines[row] = ",".join(values)
    assert checks.compare_cli({**data, "field_grid": "\n".join(lines).encode()}, ref)

    summary = data["summary"].decode().replace("modes=16", "modes=17").encode()
    assert checks.compare_cli({**data, "summary": summary}, ref)


def test_sweep_reference_pass_trips_on_wrong_reference(tmp_path):
    workload = workloads.Workload("sweep-desk", 7, tmp_path, REFERENCE)
    assert workload.check_reference() == []
    wrong = json.loads(json.dumps(REFERENCE))
    wrong["sweep-desk"]["cases"][3]["total_force"] *= 1.0 + 1e-6
    assert workloads.Workload("sweep-desk", 7, tmp_path, wrong).check_reference()


@pytest.mark.parametrize("name", list(workloads.CLI_CONFIGS))
def test_cli_reference_matches_recorded_config(name):
    ref = REFERENCE[name]["summary"]
    size = workloads.CLI_CONFIGS[name]
    assert (ref["modes"], ref["grid_nx"], ref["grid_ny"]) == (
        str(size["modes"]), str(size["nx"]), str(size["ny"]))
    assert ("calibration_ratio" in ref) == size["verify"]
