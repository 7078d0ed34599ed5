import pytest
from hypothesis import given, settings, strategies as st

from ttubs.artifacts import build_deployment
from ttubs.constraints import build_constraint_set, census, validate_schedule
from ttubs.harness import ChainSpec, gen_chain
from ttubs.lstb import lstb_solve
from ttubs.model import InvalidInputError, Link, Scenario, Stream
from ttubs.schedule import Schedule, nfic_queue
from ttubs.sim import SimConfig, run
from ttubs.smt import SolveRequest, solve

US = 1_000


def _family(scenario, category, mode="nfic"):
    return [gc for gc in build_constraint_set(scenario, mode).constraints if gc.category == category]


def test_frame_constraints_adas(adas):
    cons = _family(adas, "frame")
    assert len(cons) == 18
    cam1_sw = [c for c in cons if "cam1@SW2->SW1#0" in c.label]
    assert len(cam1_sw) == 1
    lo, hi = cam1_sw[0].disjuncts[0]
    assert lo.op == ">=" and lo.const == 0
    assert hi.op == "<=" and hi.const == 100_000 - 9_776  # 90 224


def test_frame_constraint_forces_zero_when_window_exact():
    # wire time equal to the period leaves offset 0 as the only choice
    from ttubs.model import Link

    sc = Scenario(
        (("A", "end-station"), ("B", "end-station")),
        (Link("A", "B", 1_000_000_000),),
        (Stream("s", 9_776, 1200, 1200, (("A", "B"),), 9_776, 0),),
    )
    (gc,) = _family(sc, "frame")
    lo, hi = gc.disjuncts[0]
    assert hi.const == 0


def test_link_constraints_adas(adas):
    cons = _family(adas, "link")
    assert len(cons) == 26
    per_link = {}
    for c in cons:
        key = c.label.split("[")[1].split(":")[0]
        per_link[key] = per_link.get(key, 0) + 1
    assert per_link == {"SW2->SW1": 13, "SW1->CentralHost": 13}


def test_link_constraint_rejects_equal_offsets(adas):
    cons = _family(adas, "link")
    c = next(x for x in cons if "cam1#0 vs cam2#0" in x.label and "SW2->SW1" in x.label)
    vars_used = {v for conj in c.disjuncts for a in conj for v in (a.x, a.y)} - {None}
    same = {v: 10_000 for v in vars_used}
    assert not c.holds(same)


def test_flow_constraints_adas(adas):
    cons = _family(adas, "flow")
    assert len(cons) == 12
    # published offsets satisfy the camera chain with 1 224 ns margin
    c = next(x for x in cons if "cam1" in x.label and "SW2->SW1#0 => SW1->CentralHost#0" in x.label)
    atom = c.disjuncts[0][0]
    assert atom.holds({"off_cam1_SW1__CentralHost_0": 32_000, "off_cam1_SW2__SW1_0": 21_000})
    assert not atom.holds({"off_cam1_SW1__CentralHost_0": 30_000, "off_cam1_SW2__SW1_0": 21_000})


def test_flow_constraint_clock_offset_tightens(adas):
    skewed = Scenario(adas.nodes, adas.links, adas.streams, sync_precision_ns=1_000)
    cons = _family(skewed, "flow")
    c = next(x for x in cons if "cam1" in x.label and "SW2->SW1#0 => SW1->CentralHost#0" in x.label)
    atom = c.disjuncts[0][0]
    # margin is 1 224 ns: a 1 000 ns clock offset still fits, 32 -> 31 us does not
    assert atom.holds({"off_cam1_SW1__CentralHost_0": 32_000, "off_cam1_SW2__SW1_0": 21_000})
    assert not atom.holds({"off_cam1_SW1__CentralHost_0": 31_000, "off_cam1_SW2__SW1_0": 21_000})


def test_e2e_constraints_adas(adas):
    cons = _family(adas, "e2e")
    assert len(cons) == 6
    c = next(x for x in cons if x.label == "e2e[cam1#0->0]")
    atom = c.disjuncts[0][0]
    assert atom.holds({"off_cam1_SW1__CentralHost_0": 32_000, "off_cam1_AV1__SW2_0": 0})
    # 41 776 ns end to end, deadline 100 us
    assert atom.const == 100_000 - 9_776


def test_isolation_constraints_adas(adas):
    wa = _family(adas, "isolation", "wa")
    assert len(wa) == 26
    assert _family(adas, "isolation", "nfic") == []
    # different queues satisfy a pair regardless of timing
    c = next(x for x in wa if "SW1->CentralHost: cam1#0 vs cam2#0" in x.label)
    assert len(c.disjuncts) == 3
    assignment = {v: 0 for conj in c.disjuncts for a in conj for v in (a.x, a.y) if v is not None}
    assignment["q_cam1_SW1__CentralHost"] = 4
    assignment["q_cam2_SW1__CentralHost"] = 5
    assert c.holds(assignment)


def test_census_adas(adas):
    nfic = census(adas, "nfic")
    wa = census(adas, "wa")
    assert nfic.as_dict() == {
        "frame": 18, "link": 26, "flow": 12, "e2e": 6, "isolation": 0, "total": 62,
    }
    assert wa.total == 88 and wa.isolation == 26


def test_census_counts_match_structure(adas):
    # frame count = instances; e2e = slots per stream; flow = (hops-1) * slots
    wa = census(adas, "wa")
    assert wa.frame == 18
    assert wa.e2e == 2 + 2 + 1 + 1
    assert wa.flow == 2 * 2 * 2 + 2 * 1 + 2 * 1


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
def test_census_nfic_equals_wa_minus_isolation(switches, streams, seed):
    sc = gen_chain(ChainSpec(switches, streams, rng_seed=seed))
    wa = census(sc, "wa")
    nfic = census(sc, "nfic")
    assert nfic.total == wa.total - wa.isolation
    single_stream_links = all(len(sc.streams_on_link(l.key)) <= 1 for l in sc.links)
    assert (wa.isolation == 0) == single_stream_links


def test_builders_deterministic(adas):
    a = build_constraint_set(adas, "wa")
    b = build_constraint_set(adas, "wa")
    assert a.constraints == b.constraints
    assert [q.name for q in a.queue_vars] == [q.name for q in b.queue_vars]


def test_validate_table3_and_table8(adas, table3, table8):
    assert validate_schedule(adas, table3, "nfic") == []
    assert validate_schedule(adas, table8, "nfic") == []


def test_validate_table6_wa(adas, table6):
    assert validate_schedule(adas, table6, "wa") == []


def test_table3_fails_wa_on_camera_enqueue(adas, table3):
    violated = validate_schedule(adas, table3, "wa")
    assert violated, "shared-queue camera frames arrive together: isolation must fail"
    assert all(v.category == "isolation" for v in violated)


def test_validate_reports_overlap(adas, table3):
    mod = Schedule(offsets=dict(table3.offsets))
    mod.offsets[("cam1", ("SW1", "CentralHost"), 0)] = 22_000
    violated = validate_schedule(adas, mod, "nfic")
    assert any(v.category == "link" and "cam1" in v.label and "cam2" in v.label for v in violated)


def test_validate_missing_assignment(adas, table3):
    partial = Schedule(offsets=dict(table3.offsets))
    del partial.offsets[("cam1", ("SW1", "CentralHost"), 0)]
    with pytest.raises(InvalidInputError):
        validate_schedule(adas, partial, "nfic")


def test_queue_vars_wa(adas):
    cs = build_constraint_set(adas, "wa")
    free = cs.free_queue_vars()
    assert len(free) == 8  # 4 streams x 2 switch egress links
    assert all(q.domain_max == 7 for q in free)
    cs_n = build_constraint_set(adas, "nfic")
    assert cs_n.free_queue_vars() == []
    assert all(q.fixed == 4 for q in cs_n.queue_vars)


@pytest.mark.parametrize("bad", [9, -1])
def test_validate_reports_queue_outside_domain(adas, table6, bad):
    # 9 made the simulator raise IndexError, -1 stranded every cam1 frame;
    # both used to validate
    mod = Schedule(offsets=dict(table6.offsets), queues=dict(table6.queues))
    mod.queues[("cam1", ("SW2", "SW1"))] = bad
    for mode in ("wa", "nfic"):
        violated = validate_schedule(adas, mod, mode)
        domain = [v for v in violated if v.category == "domain"]
        assert len(domain) == 1 and "cam1@SW2->SW1" in domain[0].label, mode


def test_nfic_queue_is_highest_queue_on_small_links():
    # both engines used to put the stream on queue 4 of a one-queue link,
    # and validation accepted it
    assert [nfic_queue(n) for n in (1, 4, 5, 8)] == [0, 3, 4, 4]
    sc = Scenario(
        (("A", "end-station"), ("S", "switch"), ("B", "end-station")),
        (Link("A", "S", 10**9), Link("S", "B", 10**9, queue_count=1)),
        (Stream("s", 100 * US, 100, 200, (("A", "S"), ("S", "B")), 100 * US, 10 * US),),
    )
    for sched in (lstb_solve(sc, "nfic").schedule, solve(SolveRequest(sc, "nfic")).schedule):
        assert sched.queues == {("s", ("S", "B")): 0}
        assert validate_schedule(sc, sched, "nfic") == []
        dep = build_deployment(sc, sched)
        for egress in ("tas", "ttubs"):
            m = run(SimConfig(sc, dep, egress, sim_duration_ns=1_000_000)).metrics["s"]
            assert m.sent == 10 and m.delivered == m.sent, egress
