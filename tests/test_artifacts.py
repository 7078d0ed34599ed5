import pytest
from hypothesis import given, settings, strategies as st

from ttubs.artifacts import (
    GateControlList,
    GclInterval,
    ShaperOffsetTable,
    ShaperRow,
    build_deployment,
    build_gcl,
    build_shaper_offset_table,
    e2e_bounds_and_jitter,
    e2e_per_slot,
    latency_breakdown,
)
from ttubs.model import InvalidInputError, Link, Scenario, Stream
from ttubs.schedule import Schedule

SW2_SW1 = ("SW2", "SW1")
SW1_CH = ("SW1", "CentralHost")


def test_table3_rows(adas, table3):
    table = build_shaper_offset_table(adas, table3)
    row = table.row_for("cam1", SW1_CH)
    assert row.eligibility_offsets_ns == (32_000, 132_000)
    assert row.cycle_time_ns == 200_000
    assert row.ingress == SW2_SW1
    talker = table.row_for("cam1", ("AV1", "SW2"))
    assert talker.eligibility_offsets_ns == (0, 100_000)


def test_table8_rows(adas, table8):
    table = build_shaper_offset_table(adas, table8)
    assert table.row_for("cam2", SW1_CH).eligibility_offsets_ns == (30_000, 130_000)


def test_single_slot_row(adas, table3):
    table = build_shaper_offset_table(adas, table3)
    assert table.row_for("radar", SW2_SW1).eligibility_offsets_ns == (5_000,)


def test_table_round_trip(adas, table3, table8):
    for sched in (table3, table8):
        table = build_shaper_offset_table(adas, sched)
        offsets = {
            (r.stream, r.egress, slot): off
            for r in table.rows
            for slot, off in enumerate(r.eligibility_offsets_ns)
        }
        assert offsets == sched.offsets


def test_gcl_windows_exact(adas, table3):
    gcl = build_gcl(adas, table3, SW2_SW1)
    open4 = [(iv.start_ns, iv.end_ns) for iv in gcl.intervals if iv.gates[4]]
    assert open4 == [
        (3_000, 4_776),
        (5_000, 8_376),
        (11_000, 20_776),
        (21_000, 30_776),
        (111_000, 120_776),
        (121_000, 130_776),
    ]


def test_gcl_tiles_and_recovers_windows(adas, table3):
    gcl = build_gcl(adas, table3, SW1_CH)
    pos = 0
    for iv in gcl.intervals:
        assert iv.start_ns == pos
        assert iv.end_ns > iv.start_ns
        pos = iv.end_ns
    assert pos == gcl.cycle_time_ns == 200_000
    # re-derive (offset, duration) windows from the list: bijective with the schedule
    windows = sorted(
        (iv.start_ns, iv.end_ns - iv.start_ns) for iv in gcl.intervals if iv.gates[4]
    )
    expected = sorted(
        (table3.offset(s.id, SW1_CH, slot), 9_776 if "cam" in s.id else (3_376 if s.id == "radar" else 1_776))
        for s in adas.streams
        for slot in range(adas.slots_of(s))
    )
    assert windows == expected


def test_gcl_empty_link():
    sc = Scenario(
        (("A", "end-station"), ("B", "end-station"), ("S", "switch")),
        (Link("A", "S", 10**9), Link("S", "B", 10**9)),
        (Stream("s", 100_000, 100, 100, (("A", "S"), ("S", "B")), 100_000, 10_000),),
    )
    sched = Schedule(offsets={("s", ("A", "S"), 0): 0, ("s", ("S", "B"), 0): 1_000})
    # a port with no reserved windows keeps every queue open the whole cycle
    # (the stream's own egress does carry one window)
    gcl = build_gcl(sc, sched, ("S", "B"))
    assert gcl.gates_at(1_000)[4]  # inside the single window
    # build for a hypothetical second egress carrying nothing
    sc2 = Scenario(
        sc.nodes + (("C", "end-station"),),
        sc.links + (Link("S", "C", 10**9),),
        sc.streams,
    )
    gcl2 = build_gcl(sc2, sched, ("S", "C"))
    assert len(gcl2.intervals) == 1
    assert all(gcl2.intervals[0].gates)


def test_gcl_overlap_rejected(adas, table3):
    broken = Schedule(offsets=dict(table3.offsets))
    broken.offsets[("cam1", SW2_SW1, 0)] = 11_000  # collides with cam2
    with pytest.raises(InvalidInputError, match="overlap"):
        build_gcl(adas, broken, SW2_SW1)


OPEN = (True,) * 8
CAM1_ROW = dict(switch="SW1", egress=SW1_CH, ingress=SW2_SW1, stream="cam1", cycle_time_ns=200_000)
NOT_INCREASING = "shaper row of cam1 at SW1->CentralHost: offsets {} are not increasing integers in [0, 200000)"


# each of these used to build: a gate list with a gap or an overlap ran with
# the gap read as closed, one with four gates or cycle 0 raised mid-run, and
# the table's lookup kept the first of two rows silently
@pytest.mark.parametrize(
    "build,error",
    [
        (
            lambda: GateControlList(100, (GclInterval(0, 100, (True,) * 4),)),
            "gate control list: interval 0-100 has 4 gates, not 8",
        ),
        (
            lambda: GateControlList(100, (GclInterval(10, 100, OPEN),)),
            "gate control list: interval 10-100 starts at 10, not 0 (gap)",
        ),
        (
            lambda: GateControlList(100, (GclInterval(0, 60, OPEN), GclInterval(50, 100, OPEN))),
            "gate control list: interval 50-100 starts at 50, not 60 (overlap)",
        ),
        (lambda: GateControlList(0, ()), "gate control list: cycle 0 is not a positive integer"),
        (
            lambda: GateControlList(100, (GclInterval(0, 50.0, OPEN), GclInterval(50, 100, OPEN))),
            "gate control list: interval 0-50.0 needs integer bounds, its start before its end",
        ),
        (
            lambda: ShaperRow(**CAM1_ROW, eligibility_offsets_ns=(132_000, 32_000)),
            NOT_INCREASING.format("(132000, 32000)"),
        ),
        (
            lambda: ShaperRow(**CAM1_ROW, eligibility_offsets_ns=(32_000, 200_000)),
            NOT_INCREASING.format("(32000, 200000)"),
        ),
        (
            lambda: ShaperOffsetTable((
                ShaperRow(**CAM1_ROW, eligibility_offsets_ns=(32_000, 132_000)),
                ShaperRow(**CAM1_ROW, eligibility_offsets_ns=(33_000, 133_000)),
            )),
            "two shaper rows for cam1 at SW1->CentralHost",
        ),
    ],
    ids=["gcl-four-gates", "gcl-gap-at-0", "gcl-overlap", "gcl-cycle-0", "gcl-float-bound",
         "row-decreasing", "row-offset-at-cycle-end", "table-repeated-row"],
)
def test_artifact_refuses_each_defect_when_built(build, error):
    with pytest.raises(InvalidInputError) as err:
        build()
    assert str(err.value) == error


def test_gcl_wa_distinct_queues(adas, table6):
    gcl = build_gcl(adas, table6, SW2_SW1)
    open_queues = {
        (iv.start_ns, iv.end_ns): [q for q in range(8) if iv.gates[q]]
        for iv in gcl.intervals
    }
    assert open_queues[(3_000, 4_776)] == [7]  # control
    assert open_queues[(5_000, 8_376)] == [6]  # radar
    assert open_queues[(11_000, 20_776)] == [5]  # camera 2
    assert open_queues[(21_000, 30_776)] == [4]  # camera 1


def test_gate_lookup(adas, table3):
    gcl = build_gcl(adas, table3, SW1_CH)
    at22 = gcl.gates_at(22_000)
    assert at22[4] and not any(at22[q] for q in range(8) if q != 4)
    assert gcl.gates_at(200_000) == gcl.gates_at(0)
    gap = gcl.gates_at(9_000)  # between windows
    assert not gap[4] and gap[0]


def test_next_fit_start(adas, table3):
    gcl = build_gcl(adas, table3, SW1_CH)
    # 9 776 ns needs a camera window; at 30 776 only 1 000 ns of the
    # camera-2 window remains, the next fitting start is the next window
    assert gcl.next_fit_start(4, 30_776, 9_776) == 32_000
    assert gcl.next_fit_start(4, 141_776, 9_776) == 222_000
    assert gcl.next_fit_start(4, 0, 1_776) == 6_000


def _gcl(spans) -> GateControlList:
    """Gate list from (end_ns, open queues) spans that tile [0, last end)."""
    intervals, start = [], 0
    for end, open_queues in spans:
        intervals.append(GclInterval(start, end, tuple(q in open_queues for q in range(8))))
        start = end
    return GateControlList(start, tuple(intervals))


def _brute_next_fit(gcl, queue, t, duration):
    """Earliest t' >= t with the queue's gate open at every ns of
    [t', t' + duration), read off ``gates_at``; None when there is none.
    The gates repeat every cycle, so one cycle of starts decides."""
    cycle = gcl.cycle_time_ns
    is_open = [gcl.gates_at(x)[queue] for x in range(cycle)]
    cand = t
    while cand < t + cycle:
        closed = next((x for x in range(cand, cand + duration) if not is_open[x % cycle]), None)
        if closed is None:
            return cand
        cand = closed + 1
    return None


def _assert_matches_brute_force(gcl, queue, duration):
    """Every answer over two cycles is the brute-force one, and asking
    again at an answer gives it back: the simulator starts a head at its
    known fit without asking."""
    for t in range(2 * gcl.cycle_time_ns):
        fit = gcl.next_fit_start(queue, t, duration)
        assert fit == _brute_next_fit(gcl, queue, t, duration), t
        assert fit is None or gcl.next_fit_start(queue, fit, duration) == fit, t


# queue 1: open 0-30 (two touching intervals), 80-120 and 170-200, which
# runs on into the next cycle's 0-30; queue 2 never open; queue 3 always
# open across interval edges
EDGE_GCL = _gcl([(10, {1, 3}), (30, {1, 3}), (80, {3}), (120, {1, 3}), (170, {3}), (200, {1, 3})])


@pytest.mark.parametrize("duration", [1, 25, 30, 40, 41, 60, 61, 200, 450])
def test_next_fit_start_matches_brute_force_across_cycle_edge(duration):
    _assert_matches_brute_force(EDGE_GCL, 1, duration)
    # the 170-230 window wraps the cycle edge and is the only one of 60 ns
    assert EDGE_GCL.next_fit_start(1, 130, 60) == 170
    assert EDGE_GCL.next_fit_start(1, 171, 60) == 370


def test_next_fit_start_never_open_queue():
    _assert_matches_brute_force(EDGE_GCL, 2, 1)
    assert all(EDGE_GCL.next_fit_start(2, t, 1) is None for t in range(400))


@pytest.mark.parametrize("duration", [1, 150, 200, 1_000])
def test_next_fit_start_always_open_queue(duration):
    _assert_matches_brute_force(EDGE_GCL, 3, duration)
    assert all(EDGE_GCL.next_fit_start(3, t, duration) == t for t in range(400))


def test_next_fit_start_duration_longer_than_every_window():
    _assert_matches_brute_force(EDGE_GCL, 1, 61)
    assert all(EDGE_GCL.next_fit_start(1, t, 61) is None for t in range(400))


@st.composite
def gate_lists(draw):
    cycle = draw(st.integers(1, 200))
    cuts = draw(st.lists(st.integers(1, cycle - 1), max_size=6, unique=True)) if cycle > 1 else []
    ends = sorted(cuts) + [cycle]
    return _gcl([(end, {q for q in range(3) if draw(st.booleans())}) for end in ends])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gate_lists(), st.integers(0, 2), st.data())
def test_next_fit_start_property(gcl, queue, data):
    # durations up to a quarter cycle fit most windows, so most answers are
    # a start; the longer ones test the None answers
    duration = data.draw(st.integers(1, max(1, gcl.cycle_time_ns // 4)) | st.integers(1, 220), "duration")
    _assert_matches_brute_force(gcl, queue, duration)


def test_e2e_per_slot_values(adas, table3):
    table = build_shaper_offset_table(adas, table3)
    assert e2e_per_slot(adas, "cam1", table, 1200) == [41_776, 41_776]
    assert e2e_per_slot(adas, "cam1", table, 1000) == [40_176, 40_176]
    with pytest.raises(InvalidInputError):
        e2e_per_slot(adas, "nosuch", table, 1200)


def test_row_for_finds_every_row(adas, table3):
    table = build_shaper_offset_table(adas, table3)
    assert all(table.row_for(r.stream, r.egress) is r for r in table.rows)


def test_e2e_stream_missing_from_table(adas, table3):
    full = build_shaper_offset_table(adas, table3)
    table = ShaperOffsetTable(tuple(r for r in full.rows if r.stream != "radar"))
    with pytest.raises(InvalidInputError, match="no shaper row for radar"):
        e2e_per_slot(adas, "radar", table, 300)


def test_e2e_zero_hop_degenerate():
    sc = Scenario(
        (("A", "end-station"), ("B", "end-station")),
        (Link("A", "B", 10**9),),
        (Stream("s", 100_000, 100, 200, (("A", "B"),), 100_000, 10_000),),
    )
    sched = Schedule(offsets={("s", ("A", "B"), 0): 0})
    table = build_shaper_offset_table(sc, sched)
    assert e2e_per_slot(sc, "s", table, 200) == [(200 + 22) * 8]


def test_e2e_bounds_and_jitter(adas, table3):
    table = build_shaper_offset_table(adas, table3)
    assert e2e_bounds_and_jitter(adas, "cam1", table) == (41_776, 40_176, 1_600)
    assert e2e_bounds_and_jitter(adas, "control", table) == (7_776, 7_376, 400)
    assert e2e_bounds_and_jitter(adas, "radar", table) == (13_376, 12_576, 800)


def test_jitter_is_payload_spread_only(adas, table3):
    # a fixed-payload stream has zero jitter; otherwise the wire-time spread
    table = build_shaper_offset_table(adas, table3)
    for s in adas.streams:
        hi, lo, jit = e2e_bounds_and_jitter(adas, s.id, table)
        assert jit == (s.payload_max - s.payload_min) * 8


def test_latency_breakdown_reconciles(adas, table3):
    table = build_shaper_offset_table(adas, table3)
    for sid in ("cam1", "radar", "control"):
        for slot in range(2 if "cam" in sid else 1):
            for payload in (1000, 1200) if "cam" in sid else (300,):
                s = next(x for x in adas.streams if x.id == sid)
                payload = min(max(payload, s.payload_min), s.payload_max)
                talker_tx, hops = latency_breakdown(adas, sid, table, payload, slot)
                total = talker_tx + sum(h.total_ns for h in hops)
                assert total == e2e_per_slot(adas, sid, table, payload)[slot]
                assert all(h.total_ns == h.shaped_queue_ns + h.transmission_ns for h in hops)


def test_deployment_bundle(adas, table3):
    dep = build_deployment(adas, table3)
    assert set(dep.gcls) == {SW2_SW1, SW1_CH}
    assert dep.table.row_for("cam1", ("AV1", "SW2")).eligibility_offsets_ns[1] == 100_000
    assert dep.queues[("cam1", SW2_SW1)] == 4
    doc = dep.to_dict()
    assert doc["shaper_offset_table"]["rows"]


@pytest.mark.parametrize("bad", [9, -1])
def test_deployment_rejects_queue_the_port_lacks(adas, table6, bad):
    # a port has queues 0..7: 9 would index past them and -1 would alias
    # queue 7, and either leaves cam1's window with every gate closed
    mod = Schedule(offsets=dict(table6.offsets), queues=dict(table6.queues))
    mod.queues[("cam1", SW2_SW1)] = bad
    with pytest.raises(InvalidInputError, match=rf"queue {bad} of cam1 on SW2->SW1 is outside 0\.\.7"):
        build_deployment(adas, mod)
    with pytest.raises(InvalidInputError, match=rf"queue {bad} of cam1"):
        build_gcl(adas, mod, SW2_SW1)
