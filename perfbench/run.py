"""Closed-loop benchmark of platestamp: one caller, one process.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
After an untimed warm-up operation the caller issues operations back to
back until their summed wall time reaches ``--seconds``, and checks every
operation's output.

Each operation is bracketed by runs of a fixed reference kernel
(:func:`reference_kernel`), so an operation's time can also be read in
units of the kernel's time measured around it.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the time
from starting a fresh interpreter to ready (``import platestamp`` plus one
warm-up operation, see ``probe.py``), measured SETUP_REPEATS times spread
evenly through the run.  Each probe's time is divided by the reference
kernel's time around it and multiplied by KERNEL_NOMINAL_S, so it reads
as seconds on a host where the kernel takes that long; the median is
reported.  The raw median is printed as ``setup_raw_s``.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics, per traced operation, from spans recorded around the
calls into each module (see ``spans.py``).

The output is a table, then as the last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with the environment, goes to ``.perfbench_out/<workload>/``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: BLAS threads of the benchmark process and its probes (at most nproc)
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
#: seconds the reference kernel is taken to last when setup_s is converted
#: from kernel units back to seconds; fixed, so setup_s compares across runs
KERNEL_NOMINAL_S = 0.005
#: reference kernel runs between two operations; their median is used
KERNEL_REPEATS = 3
PROBE_TIMEOUT_S = 150
#: op_s_p90 needs at least ten samples beyond it
P90_MIN_SAMPLES = 100

#: the result line's metrics.  The host this was tuned on runs its vCPUs
#: up to 2x slower for stretches of seconds to minutes, so times in seconds
#: move by 15-35% between runs; op_cost_p50 and setup_s divide each time
#: by the reference kernel's time around it, which cancels most of that
#: (see README.md)
END_TO_END = (
    ("setup_s", "s"),
    ("op_cost_p50", "ref"),
    ("peak_rss_mb", "MiB"),
)
#: printed in the table, not in the result line: times in seconds follow
#: the host's speed, fail_frac is 0 on a correct run, and op_s_p90 exists
#: only where a run has P90_MIN_SAMPLES operations
END_TO_END_EXTRA = (
    ("setup_raw_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("ops_per_s", "1/s"),
    ("fail_frac", "ratio"),
    ("ref_kernel_s", "s"),
)

#: spans whose self time is reported, per operation
SELF_TIME_SPANS = (
    "strip_solution.grid_fields",
    "strip_solution.assemble_series",
    "stamp_problem.sine_coefficients",
    "harmonic_rect.sine_transform",
    "stamp_problem.contact_pressure",
    "stamp_problem.total_force",
    "verification.discrepancy_report",
    "verification.equilibrium_residual",
    "verification.constitutive_residual",
    "cli.parse_config",
    "cli.run",
)
PER_LAYER = (
    ("strip_solution.grid_fields.self_s", "s"),
    ("strip_solution.grid_fields.calls", "count"),
    ("strip_solution.grid_fields.mode_points", "count"),
    ("strip_solution.grid_fields.mode_points_per_s", "1/s"),
    ("strip_solution.assemble_series.self_s", "s"),
    ("stamp_problem.sine_coefficients.self_s", "s"),
    ("harmonic_rect.sine_transform.self_s", "s"),
    ("harmonic_rect.sine_transform.calls", "count"),
    ("stamp_problem.contact_pressure.self_s", "s"),
    ("stamp_problem.total_force.self_s", "s"),
    ("verification.discrepancy_report.self_s", "s"),
    ("verification.equilibrium_residual.self_s", "s"),
    ("verification.constitutive_residual.self_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.floats_formatted", "count"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def import_package():
    """Import platestamp from this checkout's ``src``; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "platestamp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {src / 'platestamp'}")
    sys.path[:0] = [str(src), str(ROOT)]
    import platestamp
    if Path(platestamp.__file__).resolve().parent != (src / "platestamp").resolve():
        raise SystemExit(f"perfbench: platestamp imported from {platestamp.__file__}, "
                         f"not from {src}")


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS uses, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _filesystem(path: Path):
    """Type of the filesystem holding ``path``, from the mount table."""
    target = str(path.resolve())
    best, fstype = "", None
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        return None
    return fstype


def _git_commit():
    """The checked-out commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, out_dir: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "seed": seed,
        "output_filesystem": _filesystem(out_dir),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def reference_kernel() -> float:
    """Seconds taken by a fixed computation that does not use platestamp.

    Most of it is what the desk workloads spend their time on: many small
    numpy calls made from Python, shaped like the solver's hyperbolic
    ratios.  A little 401x401 array arithmetic and 17-digit float
    formatting stand for the large field.  Of the parts tried, this mix
    slowed most like an operation when the host slowed.  Keep it
    unchanged: op_cost_p50 is measured in its units.
    """
    import numpy as np   # imported here: BLAS threads are pinned before numpy loads

    small, large = np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 401)

    def ratio(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if np.any(b <= 0.0):
            raise ValueError("denominator argument must be positive")
        return np.exp(a - b) * np.expm1(-2.0 * a) / np.expm1(-2.0 * b)

    t0 = perf_counter()
    for i in range(1, 150):
        ratio(i * small, float(i))
        ratio(float(i), float(i + 1))
    acc = np.zeros((large.size, large.size))
    for k in range(1, 3):
        acc += 0.5 * np.outer(np.sin(k * large), large)
    ",".join(format(v, ".17g") for v in acc[1, :400:2])
    return perf_counter() - t0


def kernel_time() -> float:
    """Median of KERNEL_REPEATS reference kernel runs."""
    return statistics.median(reference_kernel() for _ in range(KERNEL_REPEATS))


def probe_setup(name: str, seed: int, out_dir: Path) -> float:
    """Seconds from starting a fresh interpreter to its probe printing ready."""
    t0 = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), name, str(seed),
             str(out_dir)], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {rc})")
    return elapsed


class Loop:
    """Outcome of the closed loop: times of correct operations and failures."""

    def __init__(self):
        self.times = {False: [], True: []}   # traced? -> seconds per correct operation
        self.costs: list[float] = []         # untraced times in reference-kernel units
        self.kernel: list[float] = []        # reference kernel seconds
        self.busy = 0.0                      # summed wall time of all operations
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, float] = {}   # summed over traced operations
        self.setup: list[float] = []         # set-up probe seconds
        self.setup_costs: list[float] = []   # the same in reference-kernel units


def run_loop(workload, seconds: float, tracer=None, probe=None, probes: int = 0) -> Loop:
    """Operations back to back until their wall time sums to ``seconds``.

    With a tracer, odd operations run traced, so traced and untraced
    operations interleave and share the machine's conditions.  ``probe``
    is called ``probes`` times, evenly spread over the run, between
    operations.  The reference kernel runs before and after every
    operation and probe; its cost is its time over the mean of the two
    kernel times.
    """
    loop = Loop()
    i = 0
    kernel_before = kernel_time()

    def take_probe():
        nonlocal kernel_before
        elapsed = probe()
        kernel_after = kernel_time()
        loop.setup.append(elapsed)
        loop.setup_costs.append(2.0 * elapsed / (kernel_before + kernel_after))
        kernel_before = kernel_after

    while loop.busy < seconds or (tracer is not None and i < 2):
        if probe is not None and len(loop.setup) < min(probes, 1 + probes * loop.busy / seconds):
            take_probe()
            continue
        traced = tracer is not None and i % 2 == 1
        with tracer.installed() if traced else nullcontext():
            if traced:
                tracer.op = i
            t0 = perf_counter()
            try:
                out = workload.operate(i)
            except Exception as exc:  # a raising operation is counted as failed
                out, problems = None, [f"{type(exc).__name__}: {exc}"]
            elapsed = perf_counter() - t0
        kernel_after = kernel_time()
        if out is not None:
            problems = workload.check(i, out)
        loop.busy += elapsed
        loop.attempted += 1
        if problems:
            loop.failed += 1
            loop.problems += [f"operation {i}: {p}" for p in problems]
        else:
            loop.times[traced].append(elapsed)
            if not traced:
                loop.costs.append(2.0 * elapsed / (kernel_before + kernel_after))
            else:
                for key, value in workload.counts(out).items():
                    loop.counts[key] = loop.counts.get(key, 0) + value
        loop.kernel.append(kernel_after)
        kernel_before = kernel_after
        i += 1
    while probe is not None and len(loop.setup) < probes:
        take_probe()
    return loop


def end_to_end(loop: Loop) -> dict:
    ok = loop.times[False] or [loop.busy / loop.attempted]
    kernel = statistics.median(loop.kernel)
    values = {
        "setup_s": KERNEL_NOMINAL_S * statistics.median(loop.setup_costs),
        "setup_raw_s": statistics.median(loop.setup),
        "op_cost_p50": (statistics.median(loop.costs) if loop.costs
                        else ok[0] / kernel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_s_p50": statistics.median(ok),
        "ops_per_s": len(loop.times[False]) / loop.busy,
        "fail_frac": loop.failed / loop.attempted,
        "ref_kernel_s": kernel,
    }
    if len(ok) >= P90_MIN_SAMPLES:
        values["op_s_p90"] = statistics.quantiles(ok, n=10)[-1]
    return values


def per_layer(loop: Loop, tracer) -> dict:
    ops = len(loop.times[True])
    totals = tracer.totals() if ops else {}
    values = {}
    for name in SELF_TIME_SPANS:
        values[f"{name}.self_s"] = totals.get(name, {}).get("self_s", 0.0) / max(ops, 1)
    grid = totals.get("strip_solution.grid_fields", {"self_s": 0.0, "calls": 0, "count": 0})
    values["strip_solution.grid_fields.calls"] = grid["calls"] / max(ops, 1)
    values["strip_solution.grid_fields.mode_points"] = grid["count"] / max(ops, 1)
    values["strip_solution.grid_fields.mode_points_per_s"] = (
        grid["count"] / grid["self_s"] if grid["self_s"] > 0 else 0.0)
    values["harmonic_rect.sine_transform.calls"] = (
        totals.get("harmonic_rect.sine_transform", {}).get("calls", 0) / max(ops, 1))
    for key in ("cli.floats_formatted", "cli.bytes_written"):
        values[key] = loop.counts.get(key, 0) / max(ops, 1)
    traced, untraced = loop.times[True], loop.times[False]
    values["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0
                                     if traced and untraced else 0.0)
    return values


def measure(name: str, seed: int, seconds: float, trace: bool,
            out_root: Path = OUT_ROOT, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the full record."""
    from perfbench.spans import Tracer
    from perfbench.workloads import Workload

    out_dir = out_root / name
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = out_dir / "artifacts"
    reference = json.loads(REFERENCE.read_text())
    workload = Workload(name, seed, artifacts, reference)
    warmup = workload.operate(0)
    untimed_problems = [f"warm-up: {p}" for p in workload.check(0, warmup)]
    del warmup
    untimed_problems += workload.check_reference()

    tracer = Tracer() if trace else None
    probe = None if trace else (lambda: probe_setup(name, seed, out_dir / "probe"))
    loop = run_loop(workload, seconds, tracer, probe, setup_repeats)

    extra = {"op_samples": len(loop.times[False]), "traced_op_samples": len(loop.times[True]),
             "op_times_s": loop.times[False], "traced_op_times_s": loop.times[True],
             "op_costs_ref": loop.costs, "kernel_times_s": loop.kernel}
    if trace:
        metrics = per_layer(loop, tracer)
        units = dict(PER_LAYER)
        tracer.write(out_dir / f"spans-seed{seed}.jsonl")
    else:
        metrics = end_to_end(loop)
        units = dict(END_TO_END + END_TO_END_EXTRA)
        extra["setup_samples_s"] = loop.setup
        extra["setup_costs_ref"] = loop.setup_costs
    return {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed, out_dir),
        "correct": loop.failed == 0 and not untimed_problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": untimed_problems + loop.problems,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "extra": extra,
    }


def result_line(record: dict) -> dict:
    """The result line: only the metrics BENCHMARK.json lists for this mode."""
    names = [n for n, _ in (PER_LAYER if record["trace"] else END_TO_END)]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import_package()
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    if not args.seconds > 0:
        raise SystemExit("perfbench: --seconds must be positive")

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT_ROOT / args.workload / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {record['attempted']} operations, {record['failed']} failed, "
          f"{record['extra']['op_samples']} untraced and "
          f"{record['extra']['traced_op_samples']} traced samples")
    print("environment: " + json.dumps(record["environment"]))
    for key, m in record["metrics"].items():
        print(f"  {key:<46} {m['value']:>14.6g} {m['unit']}")
    for problem in record["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
