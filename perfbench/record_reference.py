"""Record ``reference.json`` from the current solver.

usage: python3 perfbench/record_reference.py

It stores the sweep-desk outputs at the default seed, and one run of
each CLI workload.  Re-record only in a change that
alters the solver's outputs on purpose, and say so in CHANGES.md; a
change that claims a speed-up leaves this file as it is.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, workloads  # noqa: E402

OUT = ROOT / ".perfbench_out" / "reference"


def record() -> dict:
    seed = workloads.DEFAULT_SEED
    reference = {"sweep-desk": {
        "seed": seed,
        "cases": [checks.sweep_record(workloads.solve(case))
                  for case in workloads.sweep_cases(seed)],
    }}
    for name, size in workloads.CLI_CONFIGS.items():
        bundle = workloads.run_cli(workloads.cli_case(size), OUT / name)
        reference[name] = checks.cli_record(
            {key: Path(path).read_bytes() for key, path in bundle.files.items()})
    return reference


if __name__ == "__main__":
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(record(), indent=None, separators=(",", ":")) + "\n")
    print(f"wrote {path}")
