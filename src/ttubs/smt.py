"""Constraint-solver integration: SMT-LIB 2 encoding, external process
driver, and model extraction.

``solve`` is build, encode, ask, read; the toolkit never links a solver.
``_ask`` is the one seam to it: it pipes SMT-LIB text to a child process
(``python -m ttubs.smtlib_solver`` unless a command is configured; ``z3
-in`` works too) and returns the answer text when its first token is
``sat`` or ``unsat``, returns ``None`` when the time limit passes, and
raises :class:`SolverProcessError` otherwise.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass

from .constraints import Atom, ConstraintSet, ConstraintCensus, build_constraint_set
from .model import InvalidInputError, Scenario
from .schedule import Schedule
from .smtlib_solver import SolverInputError, int_literal, int_value, parse_sexprs, tokenize

__all__ = [
    "SolveRequest",
    "SolveOutcome",
    "SolverProcessError",
    "ModelParseError",
    "encode",
    "solve",
    "parse_model",
    "default_solver_command",
    "SOLVER_ENV_VAR",
]

SOLVER_ENV_VAR = "TTUBS_SMT_SOLVER"


class SolverProcessError(RuntimeError):
    """The external solver failed as a process (crash, garbage output,
    'unknown').  Never conflated with an unsatisfiable instance."""


class ModelParseError(RuntimeError):
    """Solver output could not be interpreted as a variable assignment."""


@dataclass
class SolveRequest:
    scenario: Scenario
    mode: str = "nfic"
    timeout_s: float = 300.0
    solver_command: list[str] | None = None

    def __post_init__(self):
        if not 0 < self.timeout_s < math.inf:
            raise InvalidInputError("timeout must be positive and finite")


@dataclass
class SolveOutcome:
    status: str  # "sat" | "unsat" | "timeout"
    schedule: Schedule | None
    solve_time_s: float
    constraint_census: ConstraintCensus


def default_solver_command() -> list[str]:
    env = os.environ.get(SOLVER_ENV_VAR)
    if env:
        return shlex.split(env)
    return [sys.executable, "-m", "ttubs.smtlib_solver"]


# ---------------------------------------------------------------------------
# encoding

def _atom_sexpr(atom: Atom) -> str:
    if atom.op == "!=":
        return f"(distinct {atom.x} {atom.y})"
    term = atom.x if atom.y is None else f"(- {atom.x} {atom.y})"
    return f"({atom.op} {term} {int_literal(atom.const)})"


def _conj_sexpr(conj: tuple[Atom, ...]) -> str:
    if len(conj) == 1:
        return _atom_sexpr(conj[0])
    return "(and " + " ".join(_atom_sexpr(a) for a in conj) + ")"


def encode(cs: ConstraintSet) -> str:
    """SMT-LIB 2 text for a ground constraint set.

    One integer constant per offset variable and per free queue variable,
    one assertion per ground constraint (with its label as a comment), plus
    queue domain assertions.  Byte-for-byte deterministic for identical
    input.
    """
    lines = [
        "(set-logic QF_LIA)",
        "(set-option :produce-models true)",
    ]
    for fi in cs.instances:
        lines.append(f"(declare-const {fi.var_name} Int)")
    for qv in cs.free_queue_vars():
        lines.append(f"(declare-const {qv.name} Int)")
        lines.append(f"(assert (and (>= {qv.name} 0) (<= {qv.name} {qv.domain_max})))")
    for gc in cs.constraints:
        body = (
            _conj_sexpr(gc.disjuncts[0])
            if len(gc.disjuncts) == 1
            else "(or " + " ".join(_conj_sexpr(c) for c in gc.disjuncts) + ")"
        )
        lines.append(f"; {gc.label}")
        lines.append(f"(assert {body})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model parsing

def parse_model(output: str, declared: list[str]) -> dict[str, int]:
    """Extract a total integer assignment from solver output.

    Reads every ``(define-fun name () Int value)`` form at any depth, so a
    bare model list and a ``(model ...)`` wrapper both work.  Every
    declared variable must be assigned; names outside the declaration set
    are rejected.
    """
    declared_set = set(declared)
    assignment: dict[str, int] = {}

    def visit(node):
        if not isinstance(node, list) or not node:
            return
        if node[0] == "define-fun":
            if len(node) < 5:
                raise ModelParseError(f"malformed define-fun: {node!r}")
            name = node[1]
            if name not in declared_set:
                raise ModelParseError(f"unknown variable {name!r} in model")
            assignment[name] = int_value(node[4])
            return
        for sub in node:
            visit(sub)

    try:
        for form in parse_sexprs(tokenize(output)):
            visit(form)
    except SolverInputError as exc:
        raise ModelParseError(str(exc)) from exc
    missing = [v for v in declared if v not in assignment]
    if missing:
        raise ModelParseError(f"unassigned variable {missing[0]!r}")
    return assignment


# ---------------------------------------------------------------------------
# asking the solver

def _ask(text: str, command: list[str], timeout_s: float) -> str | None:
    """The solver's answer to ``text``, or ``None`` once ``timeout_s`` has
    passed and the child is killed.  A child that cannot start, or whose
    answer opens with neither ``sat`` nor ``unsat``, raises
    :class:`SolverProcessError`; its exit code alone decides nothing."""
    try:
        proc = subprocess.run(command, input=text, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return None
    except OSError as exc:
        raise SolverProcessError(f"cannot run solver {command!r}: {exc}") from exc
    if proc.stdout.split(maxsplit=1)[:1] in (["sat"], ["unsat"]):
        return proc.stdout
    raise SolverProcessError(
        f"solver did not answer sat/unsat (exit {proc.returncode}): "
        f"stdout={proc.stdout[:200]!r} stderr={proc.stderr[:200]!r}"
    )


def solve(request: SolveRequest) -> SolveOutcome:
    """Build, encode, ask the solver, then read and validate the schedule.
    A timeout reports ``timeout``; a process failure, an 'unknown' verdict or
    a model that breaks a constraint raises, never reported as unsat."""
    cs = build_constraint_set(request.scenario, request.mode)
    text = encode(cs)
    cens = cs.census()
    start = time.perf_counter()
    answer = _ask(text, request.solver_command or default_solver_command(), request.timeout_s)
    elapsed = time.perf_counter() - start
    if answer is None:
        return SolveOutcome("timeout", None, elapsed, cens)
    if answer.split(maxsplit=1)[0] == "unsat":
        return SolveOutcome("unsat", None, elapsed, cens)
    sched = cs.schedule_of(parse_model(answer, cs.variable_names))
    violated = cs.violations(sched)
    if violated:
        raise SolverProcessError(
            f"solver model violates {len(violated)} constraints, first: {violated[0].label}"
        )
    return SolveOutcome("sat", sched, elapsed, cens)
