import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ttubs import constraints, model, smt
from ttubs.constraints import build_constraint_set, validate_schedule
from ttubs.harness import ChainSpec, gen_chain
from ttubs.model import InvalidInputError, Link, Scenario, Stream
from ttubs.smt import (
    ModelParseError,
    SolveRequest,
    SolverProcessError,
    encode,
    parse_model,
    solve,
)
from ttubs import smtlib_solver


def test_encode_adas_nfic(adas):
    cs = build_constraint_set(adas, "nfic")
    text = encode(cs)
    assert text.count("(declare-const") == 18
    assert text.count("(assert") == 62
    assert text.endswith("(check-sat)\n(get-model)\n")


def test_encode_adas_wa_adds_queues(adas):
    cs = build_constraint_set(adas, "wa")
    text = encode(cs)
    assert text.count("(declare-const") == 18 + 8
    # 88 ground constraints + 8 queue domain assertions
    assert text.count("(assert") == 88 + 8
    assert "(distinct q_cam1_SW2__SW1 q_cam2_SW2__SW1)" in text


def test_encode_deterministic(adas):
    cs1 = build_constraint_set(adas, "wa")
    cs2 = build_constraint_set(adas, "wa")
    assert encode(cs1) == encode(cs2)


def test_encode_empty_scenario():
    sc = Scenario((("A", "end-station"),), (), ())
    text = encode(build_constraint_set(sc, "nfic"))
    assert "(assert" not in text and "declare-const" not in text
    assert "(check-sat)" in text


# sha256 of the SMT-LIB text, pinned so that changes to how the constraint
# system is built keep the encoding byte-identical
ENCODE_DIGESTS = {
    ("adas", "nfic"): "33af4695f8c6e82f8ad915d5bfa24468c0969405858917115c2456fea3ee2b63",
    ("adas", "wa"): "86dd9cfb77666e1e3695b969f820162f68288523576458d33e7b4ef91975871c",
    ("chain", "nfic"): "87a69dab14f43147869cf275018c4c691407f0305df1a01b61a71e15269ed792",
    ("chain", "wa"): "bce574799ab4925ff41a53173cb5b3c3f78b6636a9fb837a8eb92a4c411a10e2",
}


@pytest.mark.parametrize("name, mode", sorted(ENCODE_DIGESTS))
def test_encode_digest_pinned(adas, name, mode):
    sc = adas if name == "adas" else gen_chain(ChainSpec(4, 30, rng_seed=7))
    text = encode(build_constraint_set(sc, mode))
    assert hashlib.sha256(text.encode()).hexdigest() == ENCODE_DIGESTS[(name, mode)]


# ---------------------------------------------------------------------------
# model parsing

def test_parse_model_define_fun():
    out = "sat\n(\n  (define-fun x () Int 32000)\n  (define-fun y () Int (- 5))\n)\n"
    assert parse_model(out, ["x", "y"]) == {"x": 32000, "y": -5}


def test_parse_model_model_wrapper():
    # older z3 builds wrap the get-model answer in (model ...)
    out = "sat\n(model\n  (define-fun x () Int 7)\n  (define-fun y () Int (- 2))\n)\n"
    assert parse_model(out, ["x", "y"]) == {"x": 7, "y": -2}


def test_parse_model_empty():
    assert parse_model("sat\n(\n)\n", []) == {}


# the second output is a get-value answer, which encode never asks for
@pytest.mark.parametrize("out", ["sat\n((define-fun x () Int 7))\n", "sat\n((x 7) (y 7))\n"])
def test_parse_model_missing_variable(out):
    with pytest.raises(ModelParseError, match="unassigned variable"):
        parse_model(out, ["x", "y"])


def test_parse_model_unknown_name():
    with pytest.raises(ModelParseError, match="unknown variable"):
        parse_model("sat\n((define-fun z () Int 7))\n", ["x"])


def test_parse_model_malformed():
    with pytest.raises(ModelParseError):
        parse_model("sat\n((define-fun x () Int 7)\n", ["x"])


# ---------------------------------------------------------------------------
# bundled solver process (unit level, no subprocess)

def _run_text(text):
    buf = io.StringIO()
    smtlib_solver.run(text, out=buf)
    return buf.getvalue()


def test_bundled_solver_sat_model():
    out = _run_text(
        "(declare-const x Int)(declare-const y Int)"
        "(assert (and (>= x 0) (<= x 10)))(assert (and (>= y 0) (<= y 10)))"
        "(assert (or (>= (- x y) 3) (>= (- y x) 3)))"
        "(check-sat)(get-model)"
    )
    assert out.startswith("sat")
    model = parse_model(out, ["x", "y"])
    assert abs(model["x"] - model["y"]) >= 3


def test_bundled_solver_unsat():
    out = _run_text(
        "(declare-const x Int)"
        "(assert (and (>= x 0) (<= x 1)))"
        "(assert (>= x 5))"
        "(check-sat)"
    )
    assert out.strip() == "unsat"


def test_bundled_solver_distinct():
    out = _run_text(
        "(declare-const a Int)(declare-const b Int)"
        "(assert (and (>= a 0) (<= a 0)))(assert (and (>= b 0) (<= b 1)))"
        "(assert (distinct a b))"
        "(check-sat)(get-model)"
    )
    model = parse_model(out, ["a", "b"])
    assert model == {"a": 0, "b": 1}


def test_bundled_solver_rejects_unbounded():
    with pytest.raises(smtlib_solver.SolverInputError, match="box-bounded"):
        _run_text("(declare-const x Int)(assert (>= x 0))(check-sat)")


def test_bundled_solver_drops_zero_coefficients():
    # a single-hop e2e atom subtracts a variable from itself
    box = "(declare-const x Int)(assert (and (>= x 0) (<= x 9)))"
    assert _run_text(box + "(assert (<= (- x x) 3))(check-sat)").strip() == "sat"
    assert _run_text(box + "(assert (<= (- x x) (- 3)))(check-sat)").strip() == "unsat"
    assert _run_text(box + "(assert (distinct x x))(check-sat)").strip() == "unsat"


OUTSIDE_THE_GRAMMAR = {
    "not": "(assert (not (<= x 4)))",
    "declare-fun": "(declare-fun z () Int)(assert (and (>= z 0) (<= z 9)))",
    "product": "(assert (>= (* 2 x) 4))",
    "sum": "(assert (<= (+ x y) 4))",
    "=": "(assert (= x 4))",
    "<": "(assert (< x 4))",
    ">": "(assert (> x 4))",
    "set-info": "(set-info :status sat)",
    "exit": "(exit)",
    "nested-or": "(assert (or (>= x 5) (or (<= x 1) (<= y 1))))",
    "non-integer": "(assert (>= x 1.5))",
}


@pytest.mark.parametrize("piece", OUTSIDE_THE_GRAMMAR.values(), ids=OUTSIDE_THE_GRAMMAR)
def test_bundled_solver_rejects_input_outside_the_grammar(piece, tmp_path, capfd):
    text = (
        "(declare-const x Int)(declare-const y Int)"
        "(assert (and (>= x 0) (<= x 9)))(assert (and (>= y 0) (<= y 9)))"
        + piece
        + "(check-sat)(get-model)"
    )
    with pytest.raises(smtlib_solver.SolverInputError):
        _run_text(text)
    path = tmp_path / "in.smt2"
    path.write_text(text)
    assert smtlib_solver.main([str(path)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_bundled_solver_answers_only_after_reading_every_command(tmp_path, capfd):
    path = tmp_path / "in.smt2"
    path.write_text("(declare-const x Int)(assert (and (>= x 0) (<= x 1)))(check-sat)(get-model)(exit)")
    assert smtlib_solver.main([str(path)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# the MILP compile: exactness against enumeration, and its shape

def _holds(node, env) -> bool:
    """An assertion in encode's grammar, evaluated directly on integers."""
    head = node[0]
    if head == "or":
        return any(_holds(sub, env) for sub in node[1:])
    if head == "and":
        return all(_holds(sub, env) for sub in node[1:])
    if head == "distinct":
        return env[node[1]] != env[node[2]]
    term, k = node[1], node[2]
    t = env[term[1]] - env[term[2]] if isinstance(term, list) else env[term]
    k = -int(k[1]) if isinstance(k, list) else int(k)
    return t >= k if head == ">=" else t <= k


def _sexpr(node) -> str:
    return node if isinstance(node, str) else "(" + " ".join(_sexpr(n) for n in node) + ")"


def _k(n: int):
    return str(n) if n >= 0 else ["-", str(-n)]


@st.composite
def _box_instances(draw):
    """Box-bounded instances in encode's grammar over 2-4 variables with
    boxes inside 0..6: unary and difference atoms, conjunctions, distinct,
    two- and three-way disjunctions, and complementary pairs ``t >= k0 or
    -t >= k1`` with ``k0 + k1`` in {0, 1, 2}."""
    names = [f"x{i}" for i in range(draw(st.integers(2, 4)))]
    boxes = {}
    for v in names:
        lo = draw(st.integers(0, 6))
        boxes[v] = (lo, draw(st.integers(lo, 6)))
    var = st.sampled_from(names)
    term = st.one_of(var, st.tuples(st.just("-"), var, var).map(list))
    atom = st.tuples(st.sampled_from([">=", "<="]), term, st.integers(-7, 7).map(_k)).map(list)
    conj = st.one_of(
        atom,
        st.lists(atom, min_size=2, max_size=3).map(lambda atoms: ["and", *atoms]),
        st.tuples(st.just("distinct"), var, var).map(list),
    )

    def complementary(args):
        t, k0, total, swap = args
        pair = [[">=", t, _k(k0)], ["<=", t, _k(k0 - total)]]
        return ["or", *(pair[::-1] if swap else pair)]

    assertion = st.one_of(
        conj,
        st.lists(conj, min_size=2, max_size=3).map(lambda conjs: ["or", *conjs]),
        st.tuples(term, st.integers(-7, 7), st.sampled_from([0, 1, 2]), st.booleans()).map(complementary),
    )
    return names, boxes, draw(st.lists(assertion, min_size=1, max_size=5))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_box_instances())
def test_bundled_solver_matches_enumeration(instance):
    names, boxes, assertions = instance
    text = "".join(f"(declare-const {v} Int)(assert (and (>= {v} {lo}) (<= {v} {hi})))" for v, (lo, hi) in boxes.items())
    text += "".join(f"(assert {_sexpr(a)})" for a in assertions) + "(check-sat)(get-model)"
    points = (dict(zip(names, p)) for p in itertools.product(*(range(lo, hi + 1) for lo, hi in boxes.values())))
    feasible = any(all(_holds(a, env) for a in assertions) for env in points)
    out = _run_text(text)
    assert out.split()[0] == ("sat" if feasible else "unsat"), text
    if feasible:
        found = parse_model(out, names)
        assert all(lo <= found[v] <= hi for v, (lo, hi) in boxes.items())
        assert all(_holds(a, found) for a in assertions), text


@pytest.fixture
def milp_calls(monkeypatch):
    """Every ``scipy.optimize.milp`` call's keyword arguments, passed on to
    the real solver."""
    import scipy.optimize

    calls, real = [], scipy.optimize.milp

    def recording(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", recording)
    return calls


def _binary_cols(kwargs) -> list[int]:
    bounds = kwargs["bounds"]
    return [i for i, (lo, hi) in enumerate(zip(bounds.lb, bounds.ub)) if lo == 0 and hi == 1]


def _row_count(kwargs) -> int:
    cons = kwargs["constraints"]
    return 0 if cons is None else cons.A.shape[0]


def test_bundled_solver_one_binary_per_nfic_link_assertion(milp_calls):
    cs = build_constraint_set(gen_chain(ChainSpec(2, 8, rng_seed=2)), "nfic")
    assert _run_text(encode(cs)).startswith("sat")
    (kwargs,) = milp_calls
    # each offset lies in 0..T-L; a link assertion is live when both of its
    # orders are possible and neither holds over the whole box
    top = {fi.var_name: fi.period_ns - fi.duration_ns for fi in cs.instances}

    def undecided(atom):
        vi, vj = atom.x, atom.y
        return -top[vj] < atom.const <= top[vi]

    links = [gc for gc in cs.constraints if gc.category == "link"]
    live = [gc for gc in links if all(undecided(a) for (a,) in gc.disjuncts)]
    assert 0 < len(live) < len(links)
    assert len(_binary_cols(kwargs)) == len(live)
    # every row reaches an offset column: no indicator sum rows
    n_offsets = len(cs.instances)
    a_mat = kwargs["constraints"].A.tocsr()
    assert all((a_mat.indices[a_mat.indptr[r]:a_mat.indptr[r + 1]] < n_offsets).any() for r in range(a_mat.shape[0]))


@pytest.mark.parametrize(
    "assertion, binaries",
    [
        ("(or (>= (- x y) 0) (>= (- y x) 0))", 0),
        ("(or (>= (- x y) 1) (>= (- y x) 0))", 0),
        ("(or (>= (- x y) 1) (>= (- y x) 1))", 1),
        ("(distinct x y)", 1),
    ],
)
def test_bundled_solver_drops_complementary_pairs(milp_calls, assertion, binaries):
    box = "(declare-const x Int)(declare-const y Int)(assert (and (>= x 0) (<= x 9)))(assert (and (>= y 0) (<= y 9)))"
    assert _run_text(box + "(check-sat)").strip() == "sat"
    assert _run_text(box + f"(assert {assertion})(check-sat)").strip() == "sat"
    bare, added = milp_calls
    assert len(added["c"]) == len(bare["c"]) + binaries
    assert _row_count(added) == _row_count(bare) + 2 * binaries


def test_bundled_solver_fixes_binaries_when_rounding_breaks_an_atom(monkeypatch):
    import numpy as np
    import scipy.optimize

    calls, real = [], scipy.optimize.milp

    def residue_first(**kwargs):
        calls.append(kwargs["bounds"])
        res = real(**kwargs)
        if len(calls) == 1:
            # within HiGHS' integrality tolerance: b = 1 - 2e-7 times
            # M = 20,000,005 lets x - y = 1 meet the row of x - y >= 5
            res.x = np.array([10_000_001.0, 10_000_000.0, 1 - 2e-7])
        return res

    monkeypatch.setattr(scipy.optimize, "milp", residue_first)
    out = _run_text(
        "(declare-const x Int)(declare-const y Int)"
        "(assert (and (>= x 0) (<= x 20000000)))(assert (and (>= y 0) (<= y 20000000)))"
        "(assert (or (>= (- x y) 5) (>= (- y x) 5)))"
        "(check-sat)(get-model)"
    )
    assert len(calls) == 2
    assert calls[1].lb[2] == calls[1].ub[2] == 1
    assert out.startswith("sat")
    found = parse_model(out, ["x", "y"])
    assert found["x"] - found["y"] >= 5


def test_bundled_solver_keeps_highs_output_off_stdout(monkeypatch, tmp_path, capfd):
    import scipy.optimize

    real = scipy.optimize.milp

    def noisy(**kwargs):
        os.write(1, b"noise\n")
        return real(**kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", noisy)
    path = tmp_path / "in.smt2"
    path.write_text("(declare-const x Int)(assert (and (>= x 3) (<= x 3)))(check-sat)(get-model)")
    assert smtlib_solver.main([str(path)]) == 0
    out, err = capfd.readouterr()
    assert out == "sat\n(\n  (define-fun x () Int 3)\n)\n"
    assert "noise" in err


def _tokens_spec(text: str) -> list[str]:
    """SMT-LIB tokens one character at a time: ``;`` starts a comment that
    runs to the next newline, ``(`` and ``)`` stand alone, and anything else
    is a token up to the next whitespace, parenthesis or ``;``."""
    tokens, word, in_comment = [], "", False
    for c in text + "\n":
        if in_comment:
            in_comment = c != "\n"
        elif c.isspace() or c in "();":
            if word:
                tokens.append(word)
                word = ""
            if c in "()":
                tokens.append(c)
            in_comment = c == ";"
        else:
            word += c
    return tokens


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet="();- \n\t\r\x0b\x1c\x85\xa0\u2028\u3000xy1é"))
def test_tokenize_matches_spec(text):
    assert smtlib_solver.tokenize(text) == _tokens_spec(text)


def _ge(atom):
    """An Atom as the bundled solver's >=-disjuncts: one for >= and <=, two
    for !=; a variable minus itself leaves no coefficient."""
    coeffs = {atom.x: 1}
    if atom.y is not None:
        coeffs[atom.y] = coeffs.get(atom.y, 0) - 1
    terms = tuple(sorted((v, c) for v, c in coeffs.items() if c))
    neg = tuple((v, -c) for v, c in terms)
    if atom.op == ">=":
        return [smtlib_solver.GeAtom(terms, atom.const)]
    if atom.op == "<=":
        return [smtlib_solver.GeAtom(neg, -atom.const)]
    return [smtlib_solver.GeAtom(terms, atom.const + 1), smtlib_solver.GeAtom(neg, 1 - atom.const)]


def _round_trip_scenarios(adas):
    yield adas
    yield _single_hop(100_000)
    for switches, streams, seed in [(1, 4, 1), (2, 8, 2), (3, 12, 3)]:
        yield gen_chain(ChainSpec(switches, streams, rng_seed=seed))


@pytest.mark.parametrize("mode", ["nfic", "wa"])
def test_bundled_solver_reads_back_what_encode_writes(adas, mode):
    for sc in _round_trip_scenarios(adas):
        cs = build_constraint_set(sc, mode)
        text = encode(cs)
        forms = smtlib_solver.parse_sexprs(smtlib_solver.tokenize(text))
        variables = {f[1] for f in forms if f[0] == "declare-const"}
        asserted = [f[1] for f in forms if f[0] == "assert"]
        expected = [
            [[smtlib_solver.GeAtom(((qv.name, 1),), 0), smtlib_solver.GeAtom(((qv.name, -1),), -qv.domain_max)]]
            for qv in cs.free_queue_vars()
        ]
        for gc in cs.constraints:
            disjuncts = []
            for conj in gc.disjuncts:
                if len(conj) == 1 and conj[0].op == "!=":
                    disjuncts.extend([a] for a in _ge(conj[0]))
                else:
                    disjuncts.append([ge for a in conj for ge in _ge(a)])
            expected.append(disjuncts)
        assert [smtlib_solver._to_disjuncts(a, variables) for a in asserted] == expected
        assert _run_text(text).split()[0] in ("sat", "unsat")


# ---------------------------------------------------------------------------
# end-to-end solving through the child process

def test_solve_adas_nfic(adas):
    out = solve(SolveRequest(adas, "nfic", timeout_s=120))
    assert out.status == "sat"
    assert out.constraint_census.total == 62
    assert validate_schedule(adas, out.schedule, "nfic") == []


def test_solve_adas_wa_vs_nfic_validation(adas):
    out = solve(SolveRequest(adas, "wa", timeout_s=120))
    assert out.status == "sat"
    assert validate_schedule(adas, out.schedule, "wa") == []
    # isolation-free constraints are a subset: WA models satisfy them too
    assert validate_schedule(adas, out.schedule, "nfic") == []


def test_solve_unsat_on_impossible_deadline(adas):
    tight = replace(
        adas,
        streams=tuple(
            replace(s, e2e_deadline_ns=5_000) if s.id == "cam1" else s for s in adas.streams
        ),
    )
    out = solve(SolveRequest(tight, "nfic", timeout_s=120))
    assert out.status == "unsat"
    assert out.schedule is None


def test_solve_timeout(adas):
    out = solve(SolveRequest(adas, "nfic", timeout_s=0.000001))
    assert out.status == "timeout"


@pytest.mark.parametrize(
    "command, message",
    [
        (["false"], "did not answer sat/unsat (exit 1)"),
        ([sys.executable, "-c", "import sys; sys.stdin.read(); print('unknown')"], "did not answer sat/unsat"),
        (["/nonexistent/solver"], "cannot run solver"),
    ],
)
def test_solve_process_failure_is_not_unsat(adas, command, message):
    with pytest.raises(SolverProcessError, match=re.escape(message)):
        solve(SolveRequest(adas, "nfic", timeout_s=30, solver_command=command))


def test_solve_reads_no_model_after_unsat(adas, monkeypatch):
    def no_model(*args):
        raise AssertionError("parse_model called on an unsat answer")

    monkeypatch.setattr(smt, "parse_model", no_model)
    command = [sys.executable, "-c", "import sys; sys.stdin.read(); print('unsat')"]
    out = solve(SolveRequest(adas, "nfic", timeout_s=30, solver_command=command))
    assert (out.status, out.schedule) == ("unsat", None)


def test_solve_asks_through_the_module_attributes_the_benchmark_wraps(adas, monkeypatch):
    # benchmarks/tracing.py times the child by replacing ttubs.smt.subprocess
    # and the model read by replacing ttubs.smt.parse_model
    runs, parses = [], []

    class Recording:
        def __getattr__(self, name):
            return getattr(subprocess, name)

        def run(self, *args, **kwargs):
            runs.append(kwargs)
            return subprocess.run(*args, **kwargs)

    def parse(*args):
        parses.append(args)
        return parse_model(*args)

    monkeypatch.setattr(smt, "subprocess", Recording())
    monkeypatch.setattr(smt, "parse_model", parse)
    out = solve(SolveRequest(adas, "nfic", timeout_s=120))
    assert out.status == "sat"
    [run] = runs
    assert run["input"] == encode(build_constraint_set(adas, "nfic"))
    assert len(parses) == 1


# answers sat with every declared variable 0, in a (model ...) wrapper
ZERO_MODEL_SOLVER = """
import re, sys
names = re.findall(r"declare-const (\\S+) Int", sys.stdin.read())
print("sat")
print("(model " + " ".join(f"(define-fun {n} () Int 0)" for n in names) + ")")
"""


def test_solve_refuses_a_model_that_violates_the_constraints(adas):
    command = [sys.executable, "-c", ZERO_MODEL_SOLVER]
    with pytest.raises(SolverProcessError, match="violates 26 constraints"):
        solve(SolveRequest(adas, "nfic", timeout_s=30, solver_command=command))


@pytest.mark.parametrize("timeout_s", [0, -1.0, float("nan"), float("inf")])
def test_solve_rejects_timeout_not_positive_and_finite(adas, timeout_s):
    with pytest.raises(InvalidInputError, match="timeout must be positive and finite"):
        SolveRequest(adas, "nfic", timeout_s=timeout_s)


def _single_hop(deadline_ns):
    return Scenario(
        (("A", "end-station"), ("B", "end-station")),
        (Link("A", "B", 1_000_000_000),),
        (Stream("s", 1_000_000, 100, 100, (("A", "B"),), deadline_ns, 0),),
    )


@pytest.mark.parametrize("mode", ["nfic", "wa"])
@pytest.mark.parametrize("deadline, status", [(100_000, "sat"), (100, "unsat")])
def test_solve_single_hop_stream(mode, deadline, status):
    # the 976 ns wire time alone misses a 100 ns deadline
    sc = _single_hop(deadline)
    out = solve(SolveRequest(sc, mode, timeout_s=120))
    assert out.status == status
    if status == "sat":
        assert validate_schedule(sc, out.schedule, mode) == []


def test_solve_ignores_highs_diagnostics_on_stdout():
    # HiGHS prints a transformNewIntegerFeasibleSolution line to fd 1 here
    sc = gen_chain(ChainSpec(3, 20, rng_seed=1187325973))
    out = solve(SolveRequest(sc, "wa", timeout_s=120))
    assert out.status == "sat"
    assert validate_schedule(sc, out.schedule, "wa") == []


def test_solve_recovers_when_rounding_breaks_an_atom():
    # HiGHS returns an indicator of about 2e-7 here; times a big-M near
    # 2e7 ns it broke an atom once rounded, and the child answered unknown
    sc = gen_chain(ChainSpec(4, 30, rng_seed=1800804222))
    out = solve(SolveRequest(sc, "wa", timeout_s=120))
    assert out.status == "sat"
    assert validate_schedule(sc, out.schedule, "wa") == []


def test_solve_builds_constraint_set_once(adas, monkeypatch):
    calls = {}
    for fn in (constraints.build_constraint_set, model.expand_frame_instances):
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        # every binding of the function, as in `from .x import f`
        for name, mod in list(sys.modules.items()):
            if (name == "ttubs" or name.startswith("ttubs.")) and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
    out = solve(SolveRequest(adas, "wa", timeout_s=120))
    assert out.status == "sat"
    assert out.constraint_census.total == 88
    assert calls == {"build_constraint_set": 1, "expand_frame_instances": 1}


@pytest.mark.parametrize("value", ["1_000", "+5", "-5", "٣"])
def test_parse_model_reads_only_smtlib_integers(value):
    # int() takes all four; the SMT-LIB numeral grammar and the bundled
    # solver's reader take none
    with pytest.raises(ModelParseError, match="expected an integer constant"):
        parse_model(f"sat\n(\n  (define-fun x () Int {value})\n)\n", ["x"])
    assert parse_model("sat\n(\n  (define-fun x () Int (- 5))\n)\n", ["x"]) == {"x": -5}


@given(st.integers(-(10**20), 10**20))
def test_int_literal_reads_back(value):
    [node] = smtlib_solver.parse_sexprs(smtlib_solver.tokenize(smtlib_solver.int_literal(value)))
    assert smtlib_solver.int_value(node) == value


def test_solver_child_loads_no_other_ttubs_module():
    src = str(Path(smtlib_solver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ttubs.smtlib_solver; print(sorted(m for m in sys.modules if m.split('.')[0] == 'ttubs'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "['ttubs', 'ttubs.smtlib_solver']"
