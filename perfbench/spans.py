"""Spans around calls into the platestamp layers, recorded from outside.

:meth:`Tracer.installed` replaces the layer functions at their call
sites with wrappers and restores them on exit.  The call sites are the
names ``platestamp.cli`` imports, ``platestamp.stamp_problem``'s own
functions and its ``sine_transform``, ``strip_solution.assemble_series``
and the ``SeriesField.grid_fields`` method.  ``modal_calculus`` runs only
inside ``strip_solution`` and ``core`` holds value types, so neither is
wrapped.

Each span records name, start, end, parent span, operation id and an
optional work count.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

from platestamp import cli, stamp_problem, strip_solution
from platestamp.strip_solution import SeriesField


def _grid_points(sf, xs, ys, *args, **kwargs) -> int:
    return sf.N * len(xs) * len(ys)


#: (owner, attribute, span name, work count from the call's arguments)
TARGETS = (
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "run", "cli.run", None),
    (cli, "sine_coefficients", "stamp_problem.sine_coefficients", None),
    (cli, "assemble_series", "strip_solution.assemble_series", None),
    (cli, "contact_pressure", "stamp_problem.contact_pressure", None),
    (cli, "total_force", "stamp_problem.total_force", None),
    (cli, "discrepancy_report", "verification.discrepancy_report", None),
    (cli, "equilibrium_residual", "verification.equilibrium_residual", None),
    (cli, "constitutive_residual", "verification.constitutive_residual", None),
    (stamp_problem, "sine_coefficients", "stamp_problem.sine_coefficients", None),
    (stamp_problem, "sine_transform", "harmonic_rect.sine_transform", None),
    (stamp_problem, "contact_pressure", "stamp_problem.contact_pressure", None),
    (stamp_problem, "total_force", "stamp_problem.total_force", None),
    (strip_solution, "assemble_series", "strip_solution.assemble_series", None),
    (SeriesField, "grid_fields", "strip_solution.grid_fields", _grid_points),
)

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    """In-memory span recorder for one process and one caller."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: id of the operation in progress; set by the caller
        self.op: int | None = None

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.op,
                    count(*args, **kwargs) if count else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, count in TARGETS:
                setattr(owner, attr, self.wrap(owner.__dict__[attr], name, count))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def totals(self) -> dict:
        """Per span name: summed self time, number of calls and summed work count.

        Self time is a span's duration minus the time its child spans
        cover; with one caller, children of a span never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for span, children in zip(self.spans, child_time):
            t = out.setdefault(span[NAME], {"self_s": 0.0, "calls": 0, "count": 0})
            t["self_s"] += span[END] - span[START] - children
            t["calls"] += 1
            t["count"] += span[COUNT] or 0
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, count."""
        keys = ("name", "start", "end", "parent", "op", "count")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
