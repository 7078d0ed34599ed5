"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of the ``ttubs`` modules at the
module boundary: every module attribute bound to a traced function object
is replaced by a wrapper, so calls through ``from .x import f`` bindings are
seen as well.  Nothing inside ``src/`` changes; :meth:`Tracer.uninstall`
restores the originals.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out once at the end.  Hooks see each traced call's arguments and
result, so counts are taken at the same boundaries as the spans.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable

# Leaf helpers called per frame or per constraint: wrapping them would
# measure the wrapper, not the layer.
HOT_LEAVES = frozenset(
    {
        "model.bytes_to_duration",
        "model.hyper_period",
        "model.ns_to_us_str",
        "constraints.queue_var_name",
        "sim.eligibility_decision",
        "sim.gcl_gate_state",
    }
)

TRACED_MODULES = (
    "harness",
    "fixtures",
    "model",
    "constraints",
    "smt",
    "lstb",
    "artifacts",
    "sim",
)

# smtlib_solver has no __all__; these are its phase boundaries
SOLVER_FUNCTIONS = ("run", "tokenize", "parse_sexprs", "solve_instance")

Hook = Callable[["Tracer", int, tuple, dict, object], None]


class _SubprocessProxy:
    """Stands in for the ``subprocess`` module inside ``ttubs.smt`` so the
    solver child gets a span of its own; everything else is delegated."""

    def __init__(self, run):
        self.run = run

    def __getattr__(self, name):
        return getattr(subprocess, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = False
        self.op = None
        self.records: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, hook: Hook | None = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, sid, args, kwargs, result)
            return result

        return traced

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def duration(self, sid: int) -> float:
        _, t0, t1, _, _ = self.spans[sid]
        return t1 - t0

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, hooks: dict[str, Hook]) -> None:
        """Wrap every public function of the traced modules, the bundled
        solver's phases, HiGHS (``scipy.optimize.milp``) and the solver
        child process."""
        import scipy.optimize

        import ttubs.smtlib_solver

        targets: list[tuple[str, object, str]] = []
        for short in TRACED_MODULES:
            mod = sys.modules[f"ttubs.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and f"{short}.{attr}" not in HOT_LEAVES:
                    targets.append((f"{short}.{attr}", fn, attr))
        for attr in SOLVER_FUNCTIONS:
            targets.append((f"smtlib_solver.{attr}", getattr(ttubs.smtlib_solver, attr), attr))

        loaded = [m for n, m in sys.modules.items() if n == "ttubs" or n.startswith("ttubs.")]
        for name, fn, _ in targets:
            wrapped = self.wrap(name, fn, hooks.get(name))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)

        self._patch(
            scipy.optimize, "milp", self.wrap("smtlib_solver.milp", scipy.optimize.milp, hooks.get("smtlib_solver.milp"))
        )
        smt = sys.modules["ttubs.smt"]
        child = self.wrap("solver_child.run", subprocess.run)
        self._patch(smt, "subprocess", _SubprocessProxy(child))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------------
    def self_times(self, ops: set) -> dict[str, float]:
        """Self time per layer (first component of the span name) over the
        spans of the given operations: a span's duration minus the part of
        it covered by its child spans."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, (name, t0, t1, _, op) in enumerate(self.spans):
            if op in ops:
                out[name.split(".")[0]] += (t1 - t0) - child_time[sid]
        return out

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "op": op}
                    )
                    + "\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.sid: int | None = None

    def __enter__(self):
        tr = self.tracer
        if tr.enabled:
            self.sid = len(tr.spans)
            tr.spans.append([self.name, time.perf_counter(), 0.0, tr.stack[-1] if tr.stack else None, tr.op])
            tr.stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        if self.sid is not None:
            self.tracer.spans[self.sid][2] = time.perf_counter()
            self.tracer.stack.pop()
        return False
