"""Cross-layer agreement on one delay model: for any legal propagation,
processing and sync-precision delays, every schedule either engine calls
``sat`` validates, and its ``ttubs`` replay delivers each frame exactly at
the closed-form latency that ``latency_breakdown`` reconciles."""

import pytest
from hypothesis import example, given, settings, strategies as st

from ttubs.artifacts import build_deployment, e2e_per_slot, latency_breakdown
from ttubs.constraints import validate_schedule
from ttubs.lstb import lstb_solve
from ttubs.model import Link, Scenario, Stream
from ttubs.sim import SimConfig, run
from ttubs.smt import SolveRequest, solve

US = 1_000
GBPS = 1_000_000_000


def _chain(props, deadline_ns):
    """A->S1->S2->B at 1 Gb/s, one 100 us stream of 100-200 B payloads."""
    keys = (("A", "S1"), ("S1", "S2"), ("S2", "B"))
    return Scenario(
        (("A", "end-station"), ("S1", "switch"), ("S2", "switch"), ("B", "end-station")),
        tuple(Link(a, b, GBPS, prop_delay_ns=p) for (a, b), p in zip(keys, props)),
        (Stream("s", 100 * US, 100, 200, keys, deadline_ns, 10 * US),),
    )


# the simulator delivered 500 ns after the closed form
SPREAD_DELAYS = _chain((300, 400, 500), 100 * US)
# deadline = three 1 776 ns wire times: met only without last-hop propagation
TIGHT_DEADLINE = _chain((0, 0, 5_000), 5_328)


@st.composite
def scenarios(draw):
    """One or two switches in a chain to listener B, talkers A and C on the
    first switch, and a direct A->B link for single-hop streams."""
    switches = [f"S{i + 1}" for i in range(draw(st.integers(1, 2)))]
    chain = tuple(zip(switches, switches[1:])) + ((switches[-1], "B"),)
    routes = ((("A", "B"),), (("A", "S1"),) + chain, (("C", "S1"),) + chain)
    delay = st.integers(0, 2 * US)
    links = tuple(
        Link(a, b, GBPS, draw(delay), draw(delay), draw(st.sampled_from((1, 5, 8))))
        for a, b in dict.fromkeys(key for route in routes for key in route)
    )
    streams = []
    for k in range(draw(st.integers(1, 3))):
        period = draw(st.sampled_from((50 * US, 100 * US)))
        lo = draw(st.integers(64, 400))
        streams.append(
            Stream(
                f"s{k}", period, lo, draw(st.integers(lo, 400)), draw(st.sampled_from(routes)),
                draw(st.integers(2 * US, period)), period,
            )
        )
    nodes = (("A", "end-station"), ("B", "end-station"), ("C", "end-station"))
    return Scenario(
        nodes + tuple((sw, "switch") for sw in switches),
        links,
        tuple(streams),
        sync_precision_ns=draw(st.integers(0, US)),
    )


def _check_sat(sc, schedule, mode):
    assert validate_schedule(sc, schedule, mode) == []
    dep = build_deployment(sc, schedule)
    report = run(SimConfig(sc, dep, "ttubs", rng_seed=1, sim_duration_ns=2 * sc.hyper_period_ns))
    for s in sc.streams:
        m = report.metrics[s.id]
        assert m.sent > 0 and m.delivered == m.sent, (s.id, m.drops)
        assert m.deadline_violations == 0, s.id
        for slot, payload, e2e in m.frames:
            talker, hops = latency_breakdown(sc, s.id, dep.table, payload, slot)
            assert e2e == e2e_per_slot(sc, s.id, dep.table, payload)[slot] == talker + sum(h.total_ns for h in hops)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
@example(SPREAD_DELAYS)
@example(TIGHT_DEADLINE)
def test_lstb_sat_replays_at_closed_form(sc):
    res = lstb_solve(sc, "nfic")
    if res.status == "sat":
        _check_sat(sc, res.schedule, "nfic")


@settings(max_examples=4, deadline=None, derandomize=True)
@given(scenarios(), st.sampled_from(("nfic", "wa")))
@example(SPREAD_DELAYS, "nfic")
@example(TIGHT_DEADLINE, "nfic")
def test_smt_sat_replays_at_closed_form(sc, mode):
    out = solve(SolveRequest(sc, mode, timeout_s=120))
    if out.status == "sat":
        _check_sat(sc, out.schedule, mode)


@pytest.mark.parametrize("sc, lstb_status, smt_status", [
    (SPREAD_DELAYS, "sat", "sat"),
    (TIGHT_DEADLINE, "infeasible", "unsat"),
])
def test_last_hop_propagation_counts_toward_the_deadline(sc, lstb_status, smt_status):
    assert lstb_solve(sc, "nfic").status == lstb_status
    assert solve(SolveRequest(sc, "nfic", timeout_s=120)).status == smt_status
