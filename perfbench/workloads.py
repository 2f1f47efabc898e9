"""The three workloads: inputs made from the seed, and the one operation each repeats.

* ``sweep-desk``: library solves at N=64 on a 41x41 grid, path B, no files.
  The seed draws a fixed list of stamps (four kinds in equal shares),
  plate heights and Poisson ratios; operation ``i`` solves entry
  ``i mod len``.
* ``large-field``: one ``cli.run`` at N=1024 on a 401x401 grid, no
  verification.
* ``verify-desk``: one ``cli.run`` with verification at N=256 on a
  101x101 grid.

``BENCHMARK.json`` gates ``sweep-desk`` and ``verify-desk``; ``large-field``
is run by hand (see README.md).

The two CLI workloads run one fixed configuration whatever the seed, and
their outputs are compared with ``reference.json`` on every operation.
Every sweep-desk run also solves the recorded seed's list once, untimed,
and compares it with the reference (:meth:`Workload.check_reference`).

Operations call the library through module attributes
(``stamp_problem.sine_coefficients``, ``cli.run``, ...), so the wrappers
that :mod:`perfbench.spans` installs there see them.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from platestamp import cli, stamp_problem, strip_solution
from platestamp.core import Geometry, Material
from platestamp.stamp_problem import BoundaryProfile

from . import checks

WORKLOADS = ("sweep-desk", "large-field", "verify-desk")

#: seed whose sweep outputs are recorded in reference.json
DEFAULT_SEED = 1

SWEEP_MODES = 64
SWEEP_GRID = 41
SWEEP_CASES = 32
SWEEP_KINDS = ("raised_cosine", "parabolic_bump", "flat_stamp", "tabulated")
#: interior knots of a tabulated stamp; fixed so that every seed costs the same
TABULATED_KNOTS = 6

CLI_CONFIGS = {
    "large-field": {"modes": 1024, "nx": 401, "ny": 401, "verify": False},
    "verify-desk": {"modes": 256, "nx": 101, "ny": 101, "verify": True},
}

CLI_TEMPLATE = """\
[geometry]
l = 2
h = 1

[material]
E = 1
nu = 0.3

[stamp]
kind = raised_cosine
center = 1
half_width = 0.5
depth = 0.01

[solver]
modes = {modes}
grid = {nx}x{ny}
path = B
verify = {verify}
"""


@dataclass(frozen=True)
class SweepCase:
    geometry: Geometry
    material: Material
    profile: BoundaryProfile
    xs: np.ndarray
    ys: np.ndarray
    #: sine coefficients computed when the case is built, for the face check
    coeffs: np.ndarray


@dataclass(frozen=True)
class SweepOutput:
    coeffs: np.ndarray
    fields: dict
    pressure: np.ndarray
    force: float


@dataclass(frozen=True)
class CliCase:
    text: str
    nx: int
    ny: int
    geometry: Geometry
    material: Material
    profile_scale: float
    coeffs: np.ndarray


def sweep_cases(seed: int) -> list[SweepCase]:
    """The seeded sweep list: h/l log-uniform in [1e-2, 1e2], nu uniform in
    [0, 0.45], stamp support inside [0.05 l, 0.95 l]."""
    rng = random.Random(seed)
    cases = []
    for i in range(SWEEP_CASES):
        kind = SWEEP_KINDS[i % len(SWEEP_KINDS)]
        l = 2.0
        geom = Geometry(l=l, h=l * 10.0 ** rng.uniform(-2.0, 2.0))
        mat = Material(E=1.0, nu=rng.uniform(0.0, 0.45))
        half = rng.uniform(0.05, 0.3) * l
        center = rng.uniform(0.05 * l + half, 0.95 * l - half)
        depth = rng.uniform(0.001, 0.01) * l
        if kind == "tabulated":
            inner = sorted(rng.uniform(center - half, center + half)
                           for _ in range(TABULATED_KNOTS))
            values = [depth * rng.uniform(0.2, 1.0) for _ in inner]
            profile = BoundaryProfile.tabulated(
                [center - half, *inner, center + half], [0.0, *values, 0.0])
        else:
            profile = getattr(BoundaryProfile, kind)(center, half, depth)
        coeffs = stamp_problem.sine_coefficients(profile, geom, SWEEP_MODES)
        cases.append(SweepCase(
            geometry=geom, material=mat, profile=profile,
            xs=np.linspace(0.0, geom.l, SWEEP_GRID),
            ys=np.linspace(0.0, geom.h, SWEEP_GRID),
            coeffs=coeffs))
    return cases


def cli_case(size: dict) -> CliCase:
    """A CLI case for the mode count and grid of ``size``."""
    text = CLI_TEMPLATE.format(modes=size["modes"], nx=size["nx"], ny=size["ny"],
                               verify=str(size["verify"]).lower())
    config = cli.parse_config(text)
    return CliCase(
        text=text, nx=size["nx"], ny=size["ny"],
        geometry=config.geometry, material=config.material,
        profile_scale=config.profile.scale(),
        coeffs=stamp_problem.sine_coefficients(config.profile, config.geometry,
                                               config.modes))


def solve(case: SweepCase) -> SweepOutput:
    """One sweep-desk operation: one library solve."""
    coeffs = stamp_problem.sine_coefficients(case.profile, case.geometry, SWEEP_MODES)
    sf = strip_solution.assemble_series(coeffs, case.geometry, case.material, path="B")
    fields = sf.grid_fields(case.xs, case.ys)
    pressure = stamp_problem.contact_pressure(sf, case.xs)
    force = stamp_problem.total_force(sf)
    return SweepOutput(coeffs=coeffs, fields=fields, pressure=pressure, force=force)


def run_cli(case: CliCase, out_dir: Path):
    """One CLI operation: parse the config text and run it, writing four files."""
    return cli.run(cli.parse_config(case.text), out_dir)


class Workload:
    """A named workload: its cases, its operation and its output check."""

    def __init__(self, name: str, seed: int, out_dir: Path, reference: dict | None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.out_dir = Path(out_dir)
        self.is_cli = name != "sweep-desk"
        self.cases = [cli_case(CLI_CONFIGS[name])] if self.is_cli else sweep_cases(seed)
        self.reference = reference[name] if reference else None
        #: sha256 of each artifact of the first CLI operation in this run
        self._first_digests: dict | None = None

    def case(self, i: int):
        return self.cases[i % len(self.cases)]

    def operate(self, i: int):
        case = self.case(i)
        if self.is_cli:
            return run_cli(case, self.out_dir)
        return solve(case)

    def check(self, i: int, output) -> list[str]:
        """Problems found in the output of operation ``i``; empty when correct."""
        case = self.case(i)
        if not self.is_cli:
            return checks.check_sweep(case, output)
        problems = checks.check_fields(output.fields, case.material.G, case.coeffs,
                                       case.geometry.l, output.xs, case.profile_scale)
        data = {key: Path(path).read_bytes() for key, path in output.files.items()}
        digests = checks.digests(data)
        if self._first_digests is None:
            self._first_digests = digests
        elif digests != self._first_digests:
            changed = sorted(k for k in digests if digests[k] != self._first_digests.get(k))
            problems.append(f"artifact bytes differ from the first operation: {changed}")
        if self.reference is not None:
            problems += checks.compare_cli(data, self.reference)
        return problems

    def check_reference(self) -> list[str]:
        """Problems found by solving the recorded seed's sweep list, untimed,
        and comparing it with the reference; the CLI workloads compare on
        every operation, so this is empty for them."""
        if self.is_cli or self.reference is None:
            return []
        problems = []
        for j, case in enumerate(sweep_cases(self.reference["seed"])):
            out = solve(case)
            problems += [f"reference case {j}: {p}" for p in
                         checks.check_sweep(case, out)
                         + checks.compare_sweep(out, self.reference["cases"][j])]
        return problems

    def counts(self, output) -> dict:
        """Work counts of one CLI operation, computed from its outputs."""
        if not self.is_cli:
            return {}
        case = self.cases[0]
        summary_floats = sum(isinstance(v, float) for v in output.summary.values())
        return {
            # cli.run formats 7 floats per grid row, 2 per pressure row, every
            # float of the summary and 3 floats of the report at 17 digits
            "cli.floats_formatted": 7 * case.nx * case.ny + 2 * case.nx
                                    + summary_floats + 3,
            "cli.bytes_written": sum(os.stat(p).st_size for p in output.files.values()),
        }
