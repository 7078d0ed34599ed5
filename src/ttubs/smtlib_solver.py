"""Self-contained SMT-LIB 2 solver process for box-bounded linear integer
problems.

Reads SMT-LIB 2 from stdin (or a file argument), answers ``sat``/``unsat``
on ``(check-sat)`` and prints a ``define-fun`` model on ``(get-model)``.
Intended as the drop-in child process for :mod:`ttubs.smt` when no system
SMT solver is installed; any real solver can replace it on the wire.

It reads exactly what :func:`ttubs.smt.encode` writes.  Commands:
``set-logic``, ``set-option``, ``(declare-const v Int)``, ``assert``,
``check-sat`` and ``get-model``.  Assertions::

    assertion := conj | (or conj conj ...)
    conj      := atom | (and atom ...) | (distinct v w)
    atom      := (>= term k) | (<= term k)
    term      := v | (- v w)        k := n | (- n)

Anything else raises :class:`SolverInputError`; the process then prints
``error: ...`` to stderr and exits 2.  Every command is read before the
first answer, so an unsupported command leaves nothing on stdout.

Every variable must be box-bounded by top-level unary assertions (offset
and queue domains always are); the disjunctive structure is then compiled
exactly to a mixed-integer program and solved with HiGHS.  An assertion
with two live disjuncts (the box neither rules them out nor makes them
hold outright) gets one binary ``b``: the first conjunction's rows
hold when ``b = 1`` and the second's when ``b = 0``.  One whose two
disjuncts are ``t >= k0`` and ``-t >= k1`` with ``k0 + k1 <= 1`` holds for
every integer ``t`` and is dropped.  Three or more live disjuncts get one
indicator each and a row that sets at least one.  ``unsat`` is exact: the
big-M relaxation constants are derived from the asserted boxes, and every
``sat`` model is re-checked against the assertions before it is printed.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass

__all__ = ["SolverInputError", "tokenize", "parse_sexprs", "int_value", "int_literal", "solve_instance", "run", "main"]


class SolverInputError(Exception):
    pass


# ---------------------------------------------------------------------------
# s-expressions and integer literals, also used by ttubs.smt to write
# problems and read models (this module imports no other ttubs module, and
# the package's __init__ imports none either, so the child loads nothing
# else of ttubs)

# a comment, or a token: a parenthesis or a run of anything else but
# whitespace; comments leave an empty group, which tokenize drops
_TOKEN = re.compile(r";[^\n]*|([()]|[^\s();]+)")


def tokenize(text: str) -> list[str]:
    return [tok for tok in _TOKEN.findall(text) if tok]


def parse_sexprs(tokens: list[str]):
    out, stack = [], []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SolverInputError("unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise SolverInputError("unbalanced '('")
    return out


def int_value(node) -> int:
    """An SMT-LIB integer, ``n`` or ``(- n)`` with ``n`` a run of ASCII
    digits."""
    neg = isinstance(node, list) and len(node) == 2 and node[0] == "-"
    digits = node[1] if neg else node
    if isinstance(digits, str) and digits.isascii() and digits.isdigit():
        return -int(digits) if neg else int(digits)
    raise SolverInputError(f"expected an integer constant, got {node!r}")


def int_literal(value: int) -> str:
    """The text :func:`int_value` reads back as ``value``."""
    return str(value) if value >= 0 else f"(- {-value})"


# ---------------------------------------------------------------------------
# the assertion grammar ``ttubs.smt.encode`` writes, read into >=-atoms

@dataclass(frozen=True)
class GeAtom:
    """Normalized atom: sum(coefs * vars) >= const."""

    coeffs: tuple[tuple[str, int], ...]
    const: int


def _ge_atom(coeffs: dict[str, int], sign: int, const: int) -> GeAtom:
    """``sign * sum(coeffs * vars) >= const``."""
    return GeAtom(tuple(sorted((v, sign * c) for v, c in coeffs.items())), const)


def _var(node, variables: set[str]) -> str:
    if isinstance(node, str) and node in variables:
        return node
    raise SolverInputError(f"expected a declared Int constant, got {node!r}")


def _term(node, variables: set[str]) -> dict[str, int]:
    """``v`` or ``(- v w)`` as coefficients; ``(- v v)`` has none, so its
    atom becomes a constant comparison."""
    if isinstance(node, list) and len(node) == 3 and node[0] == "-":
        v, w = _var(node[1], variables), _var(node[2], variables)
        return {} if v == w else {v: 1, w: -1}
    return {_var(node, variables): 1}


def _atom(node, variables: set[str]) -> GeAtom:
    """``(>= term k)`` or ``(<= term k)``."""
    if isinstance(node, list) and len(node) == 3 and node[0] in (">=", "<="):
        sign = 1 if node[0] == ">=" else -1
        return _ge_atom(_term(node[1], variables), sign, sign * int_value(node[2]))
    raise SolverInputError(f"unsupported atom {node!r}")


def _conjunctions(node, variables: set[str]) -> list[list[GeAtom]]:
    """An atom, ``(and atom ...)`` or ``(distinct v w)``, which splits into
    ``v - w >= 1`` or ``w - v >= 1``."""
    head = node[0] if isinstance(node, list) and node else None
    if head == "and" and len(node) > 1:
        return [[_atom(sub, variables) for sub in node[1:]]]
    if head == "distinct" and len(node) == 3:
        diff = _term(["-", node[1], node[2]], variables)
        return [[_ge_atom(diff, 1, 1)], [_ge_atom(diff, -1, 1)]]
    return [[_atom(node, variables)]]


def _to_disjuncts(node, variables: set[str]) -> list[list[GeAtom]]:
    """One assertion (grammar in the module docstring) into a list of
    conjunctions of >=-atoms."""
    if isinstance(node, list) and len(node) > 2 and node[0] == "or":
        return [conj for sub in node[1:] for conj in _conjunctions(sub, variables)]
    return _conjunctions(node, variables)


# ---------------------------------------------------------------------------
# MILP compilation

def _complementary(first: list[GeAtom], second: list[GeAtom]) -> bool:
    """``t >= k0`` and ``-t >= k1`` over the same term with ``k0 + k1 <= 1``:
    every integer ``t`` satisfies one of them."""
    if len(first) != 1 or len(second) != 1:
        return False
    a, b = first[0], second[0]
    return a.coeffs == tuple((v, -c) for v, c in b.coeffs) and a.const + b.const <= 1


def solve_instance(variables: list[str], assertions: list) -> tuple[str, dict[str, int] | None]:
    var_set = set(variables)
    problems = [_to_disjuncts(a, var_set) for a in assertions]

    # box bounds from unary atoms in conjunctive (single-disjunct) assertions
    lo = {v: None for v in variables}
    hi = {v: None for v in variables}
    for disjuncts in problems:
        if len(disjuncts) != 1:
            continue
        for atom in disjuncts[0]:
            if len(atom.coeffs) != 1:
                continue
            (v, c), k = atom.coeffs[0], atom.const
            if c > 0:
                bound = -(-k // c)  # ceil
                if lo[v] is None or bound > lo[v]:
                    lo[v] = bound
            else:
                bound = k // c  # floor of k / negative c
                if hi[v] is None or bound < hi[v]:
                    hi[v] = bound
    unbounded = [v for v in variables if lo[v] is None or hi[v] is None]
    if unbounded:
        raise SolverInputError(f"variable {unbounded[0]!r} is not box-bounded by unary assertions")
    for v in variables:
        if lo[v] > hi[v]:
            return "unsat", None

    def lbox(atom: GeAtom) -> int:
        return sum(c * (lo[v] if c > 0 else hi[v]) for v, c in atom.coeffs)

    def ubox(atom: GeAtom) -> int:
        return sum(c * (hi[v] if c > 0 else lo[v]) for v, c in atom.coeffs)

    col = {v: i for i, v in enumerate(variables)}
    n_real = len(variables)
    n_cols = n_real
    rows_idx: list[list[int]] = []
    rows_val: list[list[float]] = []
    rows_lb: list[float] = []

    def add_row(idx, val, lb):
        rows_idx.append(idx)
        rows_val.append(val)
        rows_lb.append(lb)

    def new_binary() -> int:
        nonlocal n_cols
        n_cols += 1
        return n_cols - 1

    def add_relaxed(atom: GeAtom, b: int, when_set: bool) -> None:
        """The atom's row, forced when binary ``b`` is 1 (``when_set``) or 0
        and relaxed by the box-derived M otherwise:
        ``sum - M*b >= k - M`` or ``sum + M*b >= k``."""
        m = atom.const - lbox(atom)
        idx = [col[v] for v, _ in atom.coeffs] + [b]
        val = [float(c) for _, c in atom.coeffs] + [float(-m if when_set else m)]
        add_row(idx, val, float(atom.const - m if when_set else atom.const))

    for disjuncts in problems:
        # drop disjuncts with an atom false over the whole box; a disjunct
        # whose atoms all hold over the box satisfies the assertion outright
        live: list[list[GeAtom]] = []
        trivially_true = False
        for conj in disjuncts:
            pruned = [a for a in conj if lbox(a) < a.const]
            if any(ubox(a) < a.const for a in conj):
                continue
            if not pruned:
                trivially_true = True
                break
            live.append(pruned)
        if trivially_true:
            continue
        if not live:
            return "unsat", None
        if len(live) == 1:
            for atom in live[0]:
                add_row([col[v] for v, _ in atom.coeffs], [float(c) for _, c in atom.coeffs], float(atom.const))
            continue
        if len(live) == 2:
            if _complementary(*live):
                continue
            # one binary: b = 1 forces the first conjunction, b = 0 the second
            b = new_binary()
            for atom in live[0]:
                add_relaxed(atom, b, True)
            for atom in live[1]:
                add_relaxed(atom, b, False)
            continue
        # one indicator per disjunct, at least one of them set
        ind_cols = []
        for conj in live:
            b = new_binary()
            ind_cols.append(b)
            for atom in conj:
                add_relaxed(atom, b, True)
        add_row(ind_cols, [1.0] * len(ind_cols), 1.0)

    if n_cols == 0:
        return "sat", {}

    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    lower = np.array([float(lo[v]) for v in variables] + [0.0] * (n_cols - n_real))
    upper = np.array([float(hi[v]) for v in variables] + [1.0] * (n_cols - n_real))
    constraints = None
    if rows_idx:
        data, rcols, rrows = [], [], []
        for r, (idx, val) in enumerate(zip(rows_idx, rows_val)):
            rrows.extend([r] * len(idx))
            rcols.extend(idx)
            data.extend(val)
        a_mat = sparse.csr_matrix((data, (rrows, rcols)), shape=(len(rows_idx), n_cols))
        constraints = LinearConstraint(a_mat, lb=np.array(rows_lb), ub=np.inf)

    def highs():
        return milp(
            c=np.zeros(n_cols), constraints=constraints, integrality=np.ones(n_cols), bounds=Bounds(lower, upper)
        )

    def checked_model(res) -> dict[str, int] | None:
        """The rounded solution if HiGHS found one and it passes the exact
        re-check of every assertion, else None."""
        if res.status != 0 or res.x is None:
            return None
        values = {v: int(round(res.x[col[v]])) for v in variables}
        holds = all(
            any(all(sum(c * values[v] for v, c in a.coeffs) >= a.const for a in conj) for conj in disjuncts)
            for disjuncts in problems
        )
        return values if holds else None

    res = highs()
    if res.status == 2:
        return "unsat", None
    values = checked_model(res)
    if values is None and res.status == 0:
        # HiGHS accepts a binary within its integrality tolerance of 0 or
        # 1; times a big-M the size of the box, that residue can break an
        # atom once the offsets are rounded.  With the binaries fixed to
        # their rounded values the rows are exact over the offsets alone.
        lower[n_real:] = upper[n_real:] = np.round(res.x[n_real:])
        values = checked_model(highs())
    return ("unknown", None) if values is None else ("sat", values)


# ---------------------------------------------------------------------------
# command loop

def _command(form) -> str:
    cmd = form[0] if isinstance(form, list) and form else None
    if (
        cmd in ("set-logic", "set-option", "check-sat", "get-model")
        or (cmd == "declare-const" and len(form) == 3 and isinstance(form[1], str) and form[2] == "Int")
        or (cmd == "assert" and len(form) == 2)
    ):
        return cmd
    raise SolverInputError(f"unsupported command {form!r}")


def run(text: str, out=sys.stdout) -> int:
    # every command is read before the first answer, so input the reader
    # rejects never leaves a verdict behind
    commands = [(_command(form), form) for form in parse_sexprs(tokenize(text))]
    variables: list[str] = []
    assertions: list = []
    model: dict[str, int] | None = None
    for cmd, form in commands:
        if cmd == "declare-const":
            variables.append(form[1])
        elif cmd == "assert":
            assertions.append(form[1])
        elif cmd == "check-sat":
            status, model = solve_instance(variables, assertions)
            print(status, file=out)
            if status == "unknown":
                return 0
        elif cmd == "get-model" and model is not None:
            print("(", file=out)
            for v in variables:
                print(f"  (define-fun {v} () Int {int_literal(model[v])})", file=out)
            print(")", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        with open(argv[0]) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    # HiGHS can print diagnostics to fd 1 itself; answers go to a copy of
    # fd 1 while fd 1 points at stderr, so they never mix with the verdict
    sys.stdout.flush()
    with os.fdopen(os.dup(1), "w") as answers:
        os.dup2(2, 1)
        try:
            return run(text, answers)
        except SolverInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            answers.flush()
            os.dup2(answers.fileno(), 1)


if __name__ == "__main__":
    sys.exit(main())
