"""The sha256 of the four artifacts of ten CLI runs, against the digests
committed in ``tests/artifact_digests.json``.

Each run goes through ``python -m platestamp`` in a subprocess whose numpy
dispatches no SIMD loop above its X86_V3 (AVX2) level
(``NPY_DISABLE_CPU_FEATURES`` names the enabled targets above it), so that
x86-64 hosts with and without AVX-512 get the same bytes.  Where that
level is not available (another architecture, a CPU without AVX2, a numpy
that names its targets differently) the test skips, saying why.  No value
an artifact holds passes through BLAS, so the digests hold whatever BLAS
thread count and CPU kernel (``OPENBLAS_CORETYPE``) the run gets; numpy's
dispatch level is the one platform setting that the bytes depend on.

A change that means to change bytes re-records the file from a checkout:

    PYTHONPATH=src python tests/test_artifact_digests.py

and names each changed digest in CHANGES.md, with the evidence that the
new values are right.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import platestamp

SRC = str(Path(platestamp.__file__).resolve().parents[1])
DIGESTS = Path(__file__).with_name("artifact_digests.json")
ARTIFACTS = ("field_grid.csv", "pressure_profile.csv", "report.txt", "summary.txt")

#: the README's example config, less its [output] section
README = """\
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

#: the benchmark's CLI config: verify-desk at N=256 on 101x101, large-field
#: at N=1024 on 401x401
BENCH = README.replace("half_width = 0.4", "half_width = 0.5")

FLAT = README.replace("h = 1", "h = 0.2").replace("nu = 0.3", "nu = 0") \
    .replace("kind = raised_cosine", "kind = flat_stamp")

TABULATED = README.replace("h = 1", "h = 3").replace("nu = 0.3", "nu = 0.45").replace(
    "kind = raised_cosine\ncenter = 1\nhalf_width = 0.4\ndepth = 0.01",
    "kind = tabulated\nxs = 0 0.5 1.0 1.5 2.0\nvalues = 0 0.004 0.01 0.004 0")

#: per run, its config and its flags
RUNS = {
    **{f"readme-{p}": (README, ["--path", p, "--verify"]) for p in "ABC"},
    **{f"verify-desk-{p}": (BENCH, ["--path", p, "--verify", "--modes", "256",
                                    "--grid", "101", "101"]) for p in "ABC"},
    "large-field": (BENCH, ["--path", "B", "--modes", "1024", "--grid", "401", "401"]),
    "readme-A-N37-13x29": (README, ["--path", "A", "--verify", "--modes", "37",
                                    "--grid", "13", "29"]),
    "flat-h0.2-nu0-A-N128": (FLAT, ["--path", "A", "--verify", "--modes", "128"]),
    "tabulated-h3-nu0.45-A": (TABULATED, ["--path", "A", "--verify"]),
}


def _pinned_dispatch():
    """The ``NPY_DISABLE_CPU_FEATURES`` value that caps numpy's SIMD
    dispatch at X86_V3, and None; or None and why it cannot be capped."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return None, "numpy < 2 does not name the X86_V3 dispatch level"
    dispatch, features = list(umath.__cpu_dispatch__), umath.__cpu_features__
    if "X86_V3" not in dispatch or not features.get("X86_V3"):
        return None, ("numpy's X86_V3 (AVX2) dispatch level, at which the digests were "
                      "recorded, is not available on this host")
    above = dispatch[dispatch.index("X86_V3") + 1:]
    return " ".join(t for t in above if features.get(t)), None


def digests_of(name: str, work: Path) -> dict:
    """The sha256 of each artifact of run ``name``, made under ``work``."""
    disabled, reason = _pinned_dispatch()
    if reason is not None:
        raise RuntimeError(reason)
    text, flags = RUNS[name]
    cfg, out = work / f"{name}.cfg", work / name
    cfg.write_text(text)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "platestamp",
                           "--config", str(cfg), "--output", str(out), *flags],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", (proc.returncode, proc.stderr)
    assert sorted(p.name for p in out.iterdir()) == list(ARTIFACTS)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ARTIFACTS}


@pytest.mark.parametrize("name", RUNS)
def test_artifacts_keep_their_digests(tmp_path, name):
    reason = _pinned_dispatch()[1]
    if reason is not None:
        pytest.skip(reason)
    assert digests_of(name, tmp_path) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: digests_of(name, Path(tmp)) for name in RUNS}
    DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n")
    print(f"wrote {len(recorded)} runs to {DIGESTS}")
