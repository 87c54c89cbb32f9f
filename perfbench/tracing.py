"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces public callables by timing wrappers wherever a
caller looks them up: every attribute of a loaded ``evanskam`` module that is
bound to the original object (``from .x import f`` copies the binding into
the importer's namespace), the ``TorusGrid.deriv`` class attribute, and
``numpy.fft.rfftn`` (looked up through ``np.fft`` at call time).  Nothing
under ``src/`` changes.

Spans are kept in memory and written out once, when the run ends.  Hot
leaves (``deriv`` and ``rfftn``, hundreds of thousands of calls) are counted
and timed in aggregate instead of recorded as spans; their time is still
charged to the enclosing span, so self time excludes it.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

import evanskam
from evanskam import torus_grid

# (defining module, name) of every wrapped callable; the span name is
# "<module suffix>.<name>".
SPANNED = [
    ("evanskam.evans_solver", "minimize"),
    ("evanskam.effective", "sweep_P"),
    ("evanskam.mfg_diagnostics", "mfg_residuals"),
    ("evanskam.mather_limits", "k_sweep"),
    ("evanskam.mather_limits", "mather_diagnostics"),
    ("evanskam.mather_limits", "pendulum_reference"),
    ("evanskam.hamiltonians", "chi_bound"),
    ("evanskam.battery", "run_battery"),
    ("evanskam.torus_grid", "write_field"),
]


@dataclass
class Span:
    id: int
    parent: int | None
    op: int  # id of the outermost span, shared by every span of one operation
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and leaves
    outer: bool = True  # no enclosing span of the same name
    attrs: dict | None = None


class Tracer:
    """Span stack plus aggregate leaf counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # finished
        self._stack: list[Span] = []  # open
        self._depth: dict[str, int] = defaultdict(int)
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_busy: dict[str, float] = defaultdict(float)
        self.leaf_bytes: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans) + len(self._stack)
        span = Span(sid, parent.id if parent else None, parent.op if parent else sid, name, perf_counter())
        span.outer = self._depth[name] == 0
        self._stack.append(span)
        self._depth[name] += 1
        try:
            result = fn(*args, **kwargs)
            span.attrs = _attrs_of(name, result, args)
            return result
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self._depth[name] -= 1
            if parent is not None:
                parent.child_s += span.end - span.start
            self.spans.append(span)

    def _leaf(self, name: str, fn, nbytes_of=None):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            self.leaf_calls[name] += 1
            self.leaf_busy[name] += dt
            if nbytes_of is not None:
                self.leaf_bytes[name] += nbytes_of(args, out)
            if self._stack:
                self._stack[-1].child_s += dt
            return out

        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "evanskam" or n.startswith("evanskam.")]
        for mod_name, attr in SPANNED:
            original = getattr(sys.modules[mod_name], attr)
            name = f"{mod_name.split('.', 1)[1]}.{attr}"
            wrapped = _spanned(self, name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        deriv = torus_grid.TorusGrid.deriv
        self._set(
            torus_grid.TorusGrid,
            "deriv",
            # computed, not measured: one read of the input, one write of the output
            self._leaf("torus_grid.deriv", deriv, lambda args, out: args[1].nbytes + out.nbytes),
        )
        self._set(np.fft, "rfftn", self._leaf("numpy.fft.rfftn", np.fft.rfftn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def busy(self, name: str) -> float:
        """Wall time inside outermost spans of ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name and s.outer)

    def self_time(self, name: str) -> float:
        """Span time of ``name`` not covered by child spans or leaves."""
        return sum(s.end - s.start - s.child_s for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attrs(self, name: str) -> list[dict]:
        """Result attributes of the outermost spans of ``name``."""
        return [s.attrs for s in self.spans if s.name == name and s.outer and s.attrs is not None]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(s)) + "\n")
            for name in sorted(self.leaf_calls):
                fh.write(json.dumps({"leaf": name, "calls": self.leaf_calls[name], "busy_s": self.leaf_busy[name]}) + "\n")


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.span(name, fn, *args, **kwargs)

    return wrapper


def _attrs_of(name: str, result, args) -> dict | None:
    if isinstance(result, evanskam.SolveResult):
        return {"iterations": result.iterations, "converged": result.converged, "grad_norm": result.grad_norm}
    if name == "battery.run_battery":
        return {"failed": sum(1 for r in result if not r.passed)}
    if name == "torus_grid.write_field":
        return {"bytes": os.path.getsize(args[0])}
    return None
