"""Set-up probe: a fresh interpreter imports platestamp, builds a workload's
inputs and runs one untimed warm-up operation.

usage: python3 perfbench/probe.py WORKLOAD SEED OUT_DIR

It prints ``ready`` once the operation has returned; ``run.py`` times the
interval from starting this process to reading that line as ``setup_s``.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import platestamp  # noqa: E402,F401  (brings numpy and scipy; part of set-up)
from perfbench.workloads import Workload  # noqa: E402


def main(argv) -> int:
    name, seed, out_dir = argv
    Workload(name, int(seed), Path(out_dir), reference=None).operate(0)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
