import gc
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from dataclasses import replace

from ttubs.artifacts import GateControlList, GclInterval, ShaperOffsetTable, build_deployment, e2e_per_slot
from ttubs.fixtures import VALIDATION_MODES, adas_scenario, fixture_schedule
from ttubs.harness import ChainSpec, fault_preset, gen_chain, replay, replay_fixture, table5_delay, table5_drop
from ttubs.lstb import LstbLimits, lstb_solve
from ttubs.model import InvalidInputError, Link, Scenario, Stream
from ttubs.schedule import Schedule
from ttubs.sim import (
    PH_ARRIVAL,
    AttackConfig,
    MeterState,
    SimConfig,
    _Engine,
    eligibility_decision,
    run,
)

CYCLE = 200_000
SHORT = 2_000_000  # 10 hyper-periods
MED = 10_000_000  # 50 hyper-periods


@pytest.fixture(scope="module")
def dep3(adas, table3):
    return build_deployment(adas, table3)


@pytest.fixture(scope="module")
def dep8(adas, table8):
    return build_deployment(adas, table8)


# ---------------------------------------------------------------------------
# shaper decisions

def test_shaper_hold_until_eligibility():
    verdict, release = eligibility_decision(10_000, (21_000, 121_000), CYCLE, 100_000)
    assert (verdict, release) == ("hold", 21_000)


def test_shaper_timeout_when_offset_passed():
    verdict, release = eligibility_decision(31_000, (21_000, 121_000), CYCLE, 100_000)
    assert verdict == "timeout"


def test_shaper_second_slot_maps_to_second_offset():
    verdict, release = eligibility_decision(CYCLE + 110_000, (21_000, 121_000), CYCLE, 100_000)
    assert (verdict, release) == ("hold", CYCLE + 121_000)


def test_shaper_exact_boundary_releases_now():
    verdict, release = eligibility_decision(21_000, (21_000, 121_000), CYCLE, 100_000)
    assert (verdict, release) == ("hold", 21_000)


def test_displacement_keeps_newest(adas, dep3):
    # deliver a delayed frame while the next one is already held: the held
    # (newer) frame survives, arrival order per stream chain is preserved
    delay = AttackConfig(("SW2", "SW1"), "delay", 21_000, 1, 195_000, match_stream="cam2")
    rep = run(SimConfig(adas, dep3, "ttubs", (delay,), 1, SHORT))
    drops = rep.metrics["cam2"].drops
    assert drops["timeout_discarded"] + drops["displaced"] >= 1
    assert rep.metrics["cam2"].sent == rep.metrics["cam2"].delivered + sum(drops.values())


# ---------------------------------------------------------------------------
# gates

def test_gcl_gate_state(adas, dep3):
    gcl = dep3.gcls[("SW1", "CentralHost")]
    assert gcl.gates_at(22_000)[4]
    assert gcl.gates_at(CYCLE) == gcl.gates_at(0)
    between = gcl.gates_at(15_000)
    assert not between[4] and between[0]


def test_frame_longer_than_every_window_is_stranded(tmp_path):
    # queue 4's only window on S->B is 500 ns; a 100-200 B frame needs
    # 976-1 776 ns at 1 Gb/s, so no window will ever fit it
    sc = Scenario(
        (("A", "end-station"), ("S", "switch"), ("B", "end-station")),
        (Link("A", "S", 10**9), Link("S", "B", 10**9)),
        (Stream("s", 100_000, 100, 200, (("A", "S"), ("S", "B")), 100_000, 10_000),),
    )
    sched = Schedule(offsets={("s", ("A", "S"), 0): 0, ("s", ("S", "B"), 0): 2_000})
    short = GateControlList(100_000, (
        GclInterval(0, 2_000, (True,) * 4 + (False,) * 4),
        GclInterval(2_000, 2_500, tuple(q == 4 for q in range(8))),
        GclInterval(2_500, 100_000, (True,) * 4 + (False,) * 4),
    ))
    dep = replace(build_deployment(sc, sched), gcls={("S", "B"): short})
    path = tmp_path / "trace.csv"
    rep = run(SimConfig(sc, dep, "tas", rng_seed=1, sim_duration_ns=SHORT), trace_path=str(path))
    m = rep.metrics["s"]
    assert m.sent == 20 and m.delivered == 0
    assert m.drops["stranded"] == m.sent
    assert m.sent == m.delivered + sum(m.drops.values())
    rows = [ln for ln in path.read_text().splitlines() if ",stranded," in ln]
    assert len(rows) == m.sent
    assert all(ln.split(",")[1:] == ["S", "stranded", "s", "0", "stranded"] for ln in rows)


def test_strict_priority_serves_highest_queue_first(tmp_path):
    # both frames wait at S for S->B's gates to open at 10 us; queue 5 goes
    # first although queue 2's frame was queued first
    sc = Scenario(
        (("A", "end-station"), ("C", "end-station"), ("S", "switch"), ("B", "end-station")),
        (Link("A", "S", 10**9), Link("C", "S", 10**9), Link("S", "B", 10**9)),
        (
            Stream("lo", 100_000, 100, 100, (("A", "S"), ("S", "B")), 100_000, 10_000),
            Stream("hi", 100_000, 100, 100, (("C", "S"), ("S", "B")), 100_000, 10_000),
        ),
    )
    sched = Schedule(
        offsets={
            ("lo", ("A", "S"), 0): 0, ("lo", ("S", "B"), 0): 10_000,
            ("hi", ("C", "S"), 0): 0, ("hi", ("S", "B"), 0): 12_000,
        },
        queues={("lo", ("S", "B")): 2, ("hi", ("S", "B")): 5},
    )
    closed_then_open = GateControlList(100_000, (
        GclInterval(0, 10_000, (False,) * 8),
        GclInterval(10_000, 100_000, (True,) * 8),
    ))
    dep = replace(build_deployment(sc, sched), gcls={("S", "B"): closed_then_open})
    path = tmp_path / "trace.csv"
    run(SimConfig(sc, dep, "tas", rng_seed=1, sim_duration_ns=100_000), trace_path=str(path))
    starts = [ln.split(",")[3] for ln in path.read_text().splitlines() if ",S,tx_start," in ln]
    assert starts == ["hi", "lo"]


# ---------------------------------------------------------------------------
# fault meter

def test_meter_drop_counts():
    m = MeterState(AttackConfig(("AV2", "SW2"), "drop", 21_000, 1))
    assert m.decide("cam2", 9_776) == "pass"  # before startup
    assert m.decide("cam2", 109_776) == "drop"
    assert m.decide("cam2", 209_776) == "pass"  # budget exhausted


def test_meter_zero_count_passes_everything():
    m = MeterState(AttackConfig(("AV2", "SW2"), "drop", 0, 0))
    assert m.decide("cam2", 5) == "pass"


def test_meter_stream_match():
    m = MeterState(AttackConfig(("SW2", "SW1"), "delay", 0, 1, 10_000, match_stream="cam2"))
    assert m.decide("cam1", 50) == "pass"
    assert m.decide("cam2", 50) == "delay"
    m.holding = True
    assert m.decide("cam2", 60) == "queue"
    assert m.decide("cam1", 60) == "pass"


# ---------------------------------------------------------------------------
# runs

def test_ttubs_normal_matches_closed_form(adas, dep3):
    rep = run(SimConfig(adas, dep3, "ttubs", rng_seed=3, sim_duration_ns=SHORT))
    for s in adas.streams:
        m = rep.metrics[s.id]
        assert m.sent == m.delivered
        for slot, payload, e2e in m.frames:
            assert e2e == e2e_per_slot(adas, s.id, dep3.table, payload)[slot]
        assert m.deadline_violations == 0 and not m.jitter_violation


def test_tas_normal_camera_jitter(adas, dep3):
    rep = run(SimConfig(adas, dep3, "tas", rng_seed=3, sim_duration_ns=MED))
    for cam in ("cam1", "cam2"):
        m = rep.metrics[cam]
        assert m.jitter_ns > 10_000
        assert abs(m.e2e_max_ns - 41_776) <= 1_000
    for other in ("radar", "control"):
        assert not rep.metrics[other].jitter_violation


def test_tas_queue_separated_schedule_no_jitter(adas, table6):
    dep6 = build_deployment(adas, table6)
    rep = run(SimConfig(adas, dep6, "tas", rng_seed=3, sim_duration_ns=MED))
    for s in adas.streams:
        m = rep.metrics[s.id]
        assert m.deadline_violations == 0 and not m.jitter_violation


def test_determinism_same_seed(adas, dep3, tmp_path):
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run(SimConfig(adas, dep3, "ttubs", rng_seed=7, sim_duration_ns=SHORT), trace_path=str(t1))
    r2 = run(SimConfig(adas, dep3, "ttubs", rng_seed=7, sim_duration_ns=SHORT), trace_path=str(t2))
    assert t1.read_bytes() == t2.read_bytes()
    assert all(
        r1.metrics[s.id].frames == r2.metrics[s.id].frames for s in adas.streams
    )


def test_different_seed_differs(adas, dep3):
    r1 = run(SimConfig(adas, dep3, "ttubs", rng_seed=1, sim_duration_ns=SHORT))
    r2 = run(SimConfig(adas, dep3, "ttubs", rng_seed=2, sim_duration_ns=SHORT))
    assert r1.metrics["cam1"].frames != r2.metrics["cam1"].frames


def test_drop_leaves_other_frames_untouched(adas, dep3):
    for mode in ("tas", "ttubs"):
        normal = run(SimConfig(adas, dep3, mode, rng_seed=5, sim_duration_ns=MED))
        dropped = run(SimConfig(adas, dep3, mode, (table5_drop(),), rng_seed=5, sim_duration_ns=MED))
        assert dropped.metrics["cam2"].drops["attack_dropped"] == 1
        for s in adas.streams:
            a, b = normal.metrics[s.id], dropped.metrics[s.id]
            assert (a.e2e_max_ns, a.jitter_ns) == (b.e2e_max_ns, b.jitter_ns)


def test_delay_timeout_divergence(adas, dep3):
    tas = run(SimConfig(adas, dep3, "tas", (table5_delay(10_000),), rng_seed=5, sim_duration_ns=MED))
    assert tas.metrics["cam2"].e2e_max_ns > 100_000
    tt = run(SimConfig(adas, dep3, "ttubs", (table5_delay(10_000),), rng_seed=5, sim_duration_ns=MED))
    normal = run(SimConfig(adas, dep3, "ttubs", rng_seed=5, sim_duration_ns=MED))
    assert tt.metrics["cam2"].drops["timeout_discarded"] == 1
    assert tt.shaper_discards == 1
    for s in adas.streams:
        a, b = normal.metrics[s.id], tt.metrics[s.id]
        assert (a.e2e_max_ns, a.e2e_min_ns, a.jitter_ns) == (b.e2e_max_ns, b.e2e_min_ns, b.jitter_ns)


def test_long_delay_multiple_discards(adas, dep8):
    rep = run(SimConfig(adas, dep8, "ttubs", (table5_delay(221_000),), rng_seed=5, sim_duration_ns=MED))
    assert rep.shaper_discards >= 2
    for s in adas.streams:
        m = rep.metrics[s.id]
        assert m.deadline_violations == 0 and not m.jitter_violation


def test_conservation_under_faults(adas, dep3):
    rep = run(
        SimConfig(
            adas, dep3, "ttubs",
            (table5_drop(), table5_delay(221_000)),
            rng_seed=9, sim_duration_ns=MED,
        )
    )
    for s in adas.streams:
        m = rep.metrics[s.id]
        assert m.sent == m.delivered + sum(m.drops.values())


def test_per_switch_modes(adas, dep3):
    rep = run(
        SimConfig(adas, dep3, {"SW1": "tas", "SW2": "ttubs"}, rng_seed=3, sim_duration_ns=SHORT)
    )
    assert rep.metrics["cam1"].delivered > 0


@pytest.mark.parametrize(
    "modes,error",
    [
        ({"SW1": "tas"}, "egress_mode: no mode for switch SW2"),
        ({"SW1": "tas", "SW2": "ttubs", "SW9": "tas"}, "egress_mode: SW9 is not a switch"),
    ],
    ids=["switch-missing", "not-a-switch"],
)
def test_per_switch_modes_name_exactly_the_switches(adas, dep3, modes, error):
    with pytest.raises(InvalidInputError) as err:
        run(SimConfig(adas, dep3, modes, rng_seed=3, sim_duration_ns=SHORT))
    assert str(err.value) == error


def test_duration_shorter_than_cycle_rejected(adas, dep3):
    with pytest.raises(InvalidInputError):
        run(SimConfig(adas, dep3, "ttubs", rng_seed=1, sim_duration_ns=100_000))


def test_rejected_config_opens_no_trace(adas, dep3, tmp_path):
    path = tmp_path / "trace.csv"
    with pytest.raises(InvalidInputError):
        run(SimConfig(adas, replace(dep3, gcls={}), "tas", sim_duration_ns=SHORT), trace_path=str(path))
    assert not path.exists()
    # a table without cam1's talker row gives no send times for cam1
    rows = tuple(r for r in dep3.table.rows if (r.stream, r.ingress) != ("cam1", None))
    with pytest.raises(InvalidInputError, match="no shaper row for cam1"):
        run(SimConfig(adas, replace(dep3, table=ShaperOffsetTable(rows)), "ttubs", sim_duration_ns=SHORT),
            trace_path=str(path))
    assert not path.exists()


def _two_queue_port_deployment(queue):
    """A -> S -> B with two queues on S->B, the stream in ``queue`` there."""
    sc = Scenario(
        (("A", "end-station"), ("S", "switch"), ("B", "end-station")),
        (Link("A", "S", 10**9), Link("S", "B", 10**9, queue_count=2)),
        (Stream("s", 100_000, 100, 100, (("A", "S"), ("S", "B")), 100_000, 10_000),),
    )
    sched = Schedule(offsets={("s", ("A", "S"), 0): 0, ("s", ("S", "B"), 0): 2_000}, queues={("s", ("S", "B")): 1})
    dep = build_deployment(sc, sched)
    return sc, replace(dep, queues={("s", ("S", "B")): queue})


def _queued(queue):
    """The table3 config with cam1's queue on SW2->SW1 set, or removed for None."""
    def build(adas, dep3):
        queues = {k: q for k, q in dep3.queues.items() if k != ("cam1", ("SW2", "SW1"))}
        if queue is not None:
            queues[("cam1", ("SW2", "SW1"))] = queue
        return SimConfig(adas, replace(dep3, queues=queues), "tas")

    return build


def _delayed(**counts):
    """The table3 config with the Table 5 delay fault, ``counts`` replaced."""
    return lambda adas, dep3: SimConfig(adas, dep3, "tas", (replace(table5_delay(), **counts),))


def _row_changed(egress, egress_mode="ttubs", **change):
    """The table3 config with cam1's shaper row at ``egress`` changed."""
    def build(adas, dep3):
        rows = tuple(replace(r, **change) if (r.stream, r.egress) == ("cam1", egress) else r for r in dep3.table.rows)
        return SimConfig(adas, replace(dep3, table=ShaperOffsetTable(rows)), egress_mode)

    return build


COUNTS_NOT_INT = "startup_time, frame_count and delay_time must be integers"


# each of these configs used to build, and its run then raised KeyError,
# IndexError mid-run with a partial trace, TypeError mid-run or numpy's
# ValueError, or ran a queue its port lacks, dropped 2 frames for a count
# of 1.5, or sent half of cam1's frames
@pytest.mark.parametrize(
    "build,error",
    [
        (_queued(None), "no queue for cam1 on SW2->SW1"),
        (_queued(9), "queue 9 of cam1 on SW2->SW1 is outside 0..7"),
        (lambda adas, dep3: SimConfig(*_two_queue_port_deployment(5), "tas"), "queue 5 of s on S->B is outside 0..1"),
        (_delayed(frame_count=1.5), COUNTS_NOT_INT),
        (_delayed(delay_time_ns=10_000.5), COUNTS_NOT_INT),
        (_delayed(startup_time_ns="21000"), COUNTS_NOT_INT),
        (lambda adas, dep3: SimConfig(adas, dep3, "bogus"), "unknown egress mode 'bogus'"),
        (
            _row_changed(("SW2", "SW1"), eligibility_offsets_ns=(21_000,)),
            "shaper row of cam1 at SW2->SW1: 1 offset(s) in cycle 200000, not 2 in 200000",
        ),
        (
            _row_changed(("AV1", "SW2"), "tas", eligibility_offsets_ns=(0,)),
            "shaper row of cam1 at AV1->SW2: 1 offset(s) in cycle 200000, not 2 in 200000",
        ),
        (
            _row_changed(("SW2", "SW1"), cycle_time_ns=400_000),
            "shaper row of cam1 at SW2->SW1: 2 offset(s) in cycle 400000, not 2 in 200000",
        ),
        (lambda adas, dep3: SimConfig(adas, dep3, "tas", rng_seed=-1), "rng_seed must be >= 0"),
    ],
    ids=[
        "queue-missing", "queue-9", "queue-5-of-2", "count-1.5", "delay-float", "startup-str", "mode-bogus",
        "row-cut", "talker-row-cut", "row-cycle-400000", "seed-negative",
    ],
)
def test_config_refuses_each_defect_when_built(adas, dep3, build, error):
    with pytest.raises(InvalidInputError) as err:
        build(adas, dep3)
    assert str(err.value) == error


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_config_is_refused_when_built_or_runs(adas, dep3, data):
    """One mutation of the table3 deployment, or one fault of any shape on
    any link: under each egress mode, building the mutated artifact or the
    config raises InvalidInputError, or the run completes and conserves
    every stream's frames."""
    kind = data.draw(st.sampled_from(("queue", "row", "gcl", "fault")))
    dep, fault = dep3, None
    try:
        if kind == "queue":
            key = data.draw(st.sampled_from(sorted(dep3.queues)))
            queue = data.draw(st.sampled_from((None, -1, 8, 9)))
            queues = {k: q for k, q in dep3.queues.items() if k != key}
            dep = replace(dep3, queues=queues if queue is None else {**queues, key: queue})
        elif kind == "row":  # removed, cut, extended or re-cycled
            row = data.draw(st.sampled_from(dep3.table.rows))
            how = data.draw(st.sampled_from(("remove", "cut", "extend", "cycle")))
            offs = row.eligibility_offsets_ns
            if how == "cut":
                new = (replace(row, eligibility_offsets_ns=offs[:-1]),)
            elif how == "extend":
                new = (replace(row, eligibility_offsets_ns=(*offs, data.draw(st.integers(-1, 2 * CYCLE)))),)
            elif how == "cycle":
                new = (replace(row, cycle_time_ns=data.draw(st.sampled_from((0, CYCLE // 2, 2 * CYCLE)))),)
            else:
                new = ()
            dep = replace(dep3, table=ShaperOffsetTable((*(r for r in dep3.table.rows if r != row), *new)))
        elif kind == "gcl":  # removed, its gates narrowed, an interval dropped or its cycle zeroed
            key = data.draw(st.sampled_from(sorted(dep3.gcls)))
            gcl = dep3.gcls[key]
            how = data.draw(st.sampled_from(("remove", "narrow", "drop", "zero")))
            if how == "narrow":
                width = data.draw(st.integers(0, 7))
                new = {key: replace(gcl, intervals=tuple(replace(iv, gates=iv.gates[:width]) for iv in gcl.intervals))}
            elif how == "drop":
                i = data.draw(st.integers(0, len(gcl.intervals) - 1))
                new = {key: replace(gcl, intervals=gcl.intervals[:i] + gcl.intervals[i + 1:])}
            elif how == "zero":
                new = {key: replace(gcl, cycle_time_ns=0)}
            else:
                new = {}
            dep = replace(dep3, gcls={**{k: g for k, g in dep3.gcls.items() if k != key}, **new})
        else:
            counts = {
                "startup_time_ns": data.draw(st.integers(-1, SHORT)),
                "frame_count": data.draw(st.integers(-1, 5)),
                "delay_time_ns": data.draw(st.integers(-1, 2 * CYCLE)),
            }
            odd = data.draw(st.sampled_from((None, None, *counts)))  # three in five faults have a non-int count
            if odd:
                counts[odd] = data.draw(st.floats(-1, SHORT) | st.booleans())
            fault = AttackConfig(
                ingress=data.draw(st.sampled_from([ln.key for ln in adas.links])),
                attack_type=data.draw(st.sampled_from(("drop", "delay"))),
                match_stream=data.draw(st.sampled_from((*(s.id for s in adas.streams), "cam9", None))),
                **counts,
            )
    except InvalidInputError:
        return  # the mutated artifact refused to build
    for egress in ("tas", "ttubs"):
        try:
            config = SimConfig(adas, dep, egress, (fault,) if fault else (), 1, SHORT)
        except InvalidInputError:
            continue
        for m in run(config).metrics.values():
            assert m.sent == m.delivered + sum(m.drops.values())


def test_trace_columns(adas, dep3, tmp_path):
    path = tmp_path / "trace.csv"
    run(SimConfig(adas, dep3, "ttubs", rng_seed=1, sim_duration_ns=400_000), trace_path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time_ns,node,event,stream,slot,disposition"
    assert any(",deliver," in ln for ln in lines)
    assert any(",shaper_hold," in ln for ln in lines)


@pytest.mark.parametrize("egress", ["tas", "ttubs"])
def test_finished_engine_freed_without_collector(adas, dep3, egress):
    """No reference cycle runs through the engine: dropping the last
    reference frees it at once, not at the next collection."""
    gc.disable()
    try:
        engine = _Engine(SimConfig(adas, dep3, egress, (table5_delay(221_000),), 1, SHORT), None)
        engine.run()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# service wakes

class _WakeAtEveryTxStart(_Engine):
    """Oracle: ``service`` with a wake at ``busy_until`` after every
    ``tx_start``, on every port, whether or not a frame is queued, and a
    gate query at every try of a gated head, its known fit or not."""

    def service(self, t, port):
        if port.busy_until > t:
            self.wake(port, port.busy_until)
            return
        gcl = port.gcl
        best_retry: int | None = None
        for q in port.used:
            dq = port.queues[q]
            while dq:
                head = dq[0]
                start = t if gcl is None else gcl.next_fit_start(q, t, head.dur)
                if start == t:
                    dq.popleft()
                    port.busy_until = t + head.dur
                    if self.trace:
                        self.emit(t, port.link[0], "tx_start", head.stream_idx, head.slot)
                    self.push(port.busy_until + port.lag, PH_ARRIVAL, port.rank, head)
                    self.wake(port, port.busy_until)
                    return
                if start is None:
                    dq.popleft()
                    self.drop(t, port.link[0], head, "stranded", "stranded")
                    continue
                if best_retry is None or start < best_retry:
                    best_retry = start
                break
        if best_retry is not None:
            self.wake(port, best_retry)


def _oracle_trace(config: SimConfig, path) -> bytes:
    _WakeAtEveryTxStart(config, str(path)).run()
    return path.read_bytes()


def _trace(config: SimConfig, path) -> bytes:
    run(config, trace_path=str(path))
    return path.read_bytes()


@st.composite
def _replay_configs(draw):
    """A small deployed scenario with its egress, faults and seed: an lstb
    schedule of a generated chain, or a bundled ADAS schedule."""
    if draw(st.sampled_from(("chain", "chain", "adas"))) == "chain":
        sc = gen_chain(ChainSpec(draw(st.integers(2, 4)), draw(st.integers(2, 20)), rng_seed=draw(st.integers(0, 10**6))))
        res = lstb_solve(sc, draw(st.sampled_from(("nfic", "fic"))), LstbLimits(max_backjumps=2_000))
        assume(res.status == "sat")
        sched = res.schedule
    else:
        sc = adas_scenario()
        sched, _ = fixture_schedule(draw(st.sampled_from(sorted(VALIDATION_MODES))), sc)
    switches = sorted(n for n, kind in sc.nodes if kind == "switch")
    egress = draw(
        st.sampled_from(("tas", "ttubs"))
        | st.fixed_dictionaries({sw: st.sampled_from(("tas", "ttubs")) for sw in switches})
    )
    faults = []
    longest = max(s.period_ns for s in sc.streams)
    for _ in range(draw(st.integers(0, 3))):
        s = draw(st.sampled_from(sc.streams))
        ingress = draw(st.sampled_from([key for key in s.route if key[1] in switches]))
        kind = draw(st.sampled_from(("drop", "delay")))
        faults.append(AttackConfig(
            ingress, kind,
            draw(st.integers(0, sc.hyper_period_ns)),
            draw(st.integers(1, 5)),
            draw(st.integers(0, longest)) if kind == "delay" else 0,
            match_stream=draw(st.sampled_from((s.id, None))),
        ))
    return SimConfig(
        sc, build_deployment(sc, sched), egress, tuple(faults), draw(st.integers(1, 9)), 2 * sc.hyper_period_ns
    )


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("wake")


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(_replay_configs())
def test_wake_rule_matches_always_wake_oracle(trace_dir, config):
    """On deployed schedules, with or without faults, skipping a port's wake
    while no queue holds a frame, or the gate query at a head's known fit,
    moves no event: the trace is byte-identical to the oracle's."""
    assert _trace(config, trace_dir / "run.csv") == _oracle_trace(config, trace_dir / "oracle.csv")


def test_frame_behind_busy_ungated_port_keeps_wake_order(tmp_path):
    # two talkers each start a frame at 0 and queue a second one while the
    # first is on the wire (d at 100 ns, b at 200 ns): their wakes at 976 ns
    # run in port rank order (T1->S before T2->S), not in the order the
    # second frames came, or b and d swap at S
    route = {"T1": (("T1", "S"), ("S", "L")), "T2": (("T2", "S"), ("S", "L"))}
    talker = {"a": "T1", "b": "T1", "c": "T2", "d": "T2"}
    sc = Scenario(
        (("T1", "end-station"), ("T2", "end-station"), ("S", "switch"), ("L", "end-station")),
        (Link("T1", "S", 10**9), Link("T2", "S", 10**9), Link("S", "L", 10**9)),
        tuple(Stream(n, 100_000, 100, 100, route[t], 100_000, 100_000) for n, t in talker.items()),
    )
    offsets = {"a": (0, 5_000), "b": (200, 9_000), "c": (0, 7_000), "d": (100, 11_000)}
    sched = Schedule(offsets={
        (n, key, 0): off for n, offs in offsets.items() for key, off in zip(route[talker[n]], offs)
    })
    dep = build_deployment(sc, sched)
    for egress in ("tas", "ttubs"):
        config = SimConfig(sc, dep, egress, (), 1, 100_000)
        trace = _trace(config, tmp_path / f"{egress}.csv")
        assert trace == _oracle_trace(config, tmp_path / f"{egress}-oracle.csv")
        starts = [ln.split(",")[3] for ln in trace.decode().splitlines() if ",tx_start," in ln]
        assert starts[2:4] == ["b", "d"]
    rep = run(SimConfig(sc, dep, "tas", (), 1, 100_000))
    assert [rep.metrics[n].e2e_max_ns for n in "bd"] == [9_776, 11_876]


class _AskedGate:
    """A port's gate list that records each query, in the order asked, as
    (head frame, t, answer)."""

    def __init__(self, port, asked):
        self.port, self.gcl, self.asked = port, port.gcl, asked

    def next_fit_start(self, queue, t, duration):
        answer = self.gcl.next_fit_start(queue, t, duration)
        self.asked.append((self.port.queues[queue][0], t, answer))
        return answer


def _gate_queries(engine_class, config, path) -> tuple[list, bytes]:
    engine = engine_class(config, str(path))
    asked = []
    for port in {hop[0] for hops in engine.hops for hop in hops}:
        if port.gcl:
            port.gcl = _AskedGate(port, asked)
    engine.run()
    return asked, path.read_bytes()


def _retries_at_known_fit(asked) -> int:
    """Queries at the time of the same head's previous answer."""
    last, count = {}, 0
    for head, t, answer in asked:
        count += last.get(head) == t
        last[head] = answer
    return count


@pytest.mark.parametrize("case", ["chain-3x10", "table3", "table6"])
def test_tas_never_asks_the_gate_at_a_known_fit(tmp_path, case):
    """Fault-free ``tas``: the gate list is static, so a head woken at the
    fit it was given starts without a query.  The oracle asks at every try;
    the engine asks exactly the oracle's queries less those retries, and
    the events are the same."""
    if case.startswith("chain"):
        sc = gen_chain(ChainSpec(3, 10, rng_seed=1))
        res = lstb_solve(sc, "nfic", LstbLimits())
        assert res.status == "sat"
        sched = res.schedule
    else:
        sc = adas_scenario()
        sched, _ = fixture_schedule(case, sc)
    config = SimConfig(sc, build_deployment(sc, sched), "tas", (), 1, 10 * sc.hyper_period_ns)
    asked, trace = _gate_queries(_Engine, config, tmp_path / "run.csv")
    oracle_asked, oracle_trace = _gate_queries(_WakeAtEveryTxStart, config, tmp_path / "oracle.csv")
    assert trace == oracle_trace
    assert _retries_at_known_fit(asked) == 0
    repeats = _retries_at_known_fit(oracle_asked)
    assert repeats > 0
    assert len(asked) == len(oracle_asked) - repeats


def _wake_counting(monkeypatch):
    """Records, for each service event, its port and whether the event finds
    that port idle with every queue empty."""
    wakes = []
    on_service = _Engine.on_service

    def counted(self, t, port):
        wakes.append((port, port.busy_until <= t and not any(port.queues)))
        on_service(self, t, port)

    monkeypatch.setattr(_Engine, "on_service", counted)
    return wakes


@pytest.mark.parametrize("case", ["chain-3x10", "chain-5x30", "table3", "table6", "table8"])
def test_no_wake_for_ungated_ports_without_faults(monkeypatch, case):
    """On a validated deployment with no fault, no frame reaches an ungated
    port while it is busy, so no wake ever runs there: none under ``ttubs``,
    and under ``tas`` only on gated switch ports.  No wake finds its port
    idle with every queue empty."""
    wakes = _wake_counting(monkeypatch)
    for egress in ("ttubs", "tas"):
        wakes.clear()
        if case.startswith("chain"):
            switches, streams = map(int, case.split("-")[1].split("x"))
            sc = gen_chain(ChainSpec(switches, streams, rng_seed=1))
            res = lstb_solve(sc, "nfic", LstbLimits())
            assert res.status == "sat"
            rep = replay(sc, res.schedule, "nfic", egress, (), 1, 100_000_000)
        else:
            rep = replay_fixture(case, egress, (), 1, 100_000_000)
        assert rep.validation_ok
        assert not any(idle for _, idle in wakes)
        if egress == "ttubs":
            assert wakes == []
        else:
            assert wakes and all(p.gcl is not None for p, _ in wakes)


@pytest.mark.parametrize("fault", ["loss", "timeout-long"])
@pytest.mark.parametrize("name", ["table3", "table8"])
def test_no_wake_finds_its_port_idle_and_empty(monkeypatch, name, fault):
    """With faults too, a port is woken only while a queue holds a frame."""
    wakes = _wake_counting(monkeypatch)
    for egress in ("ttubs", "tas"):
        wakes.clear()
        replay_fixture(name, egress, fault_preset(fault), 1, 100_000_000)
        assert not any(idle for _, idle in wakes)
        assert wakes or egress == "ttubs"


def test_on_time_frame_displaces_late_held_frame():
    """s13's slot-1 frame, delayed about one period at SW1's ingress, is held
    to slot 0's eligibility in the next cycle, 20,009,952 ns, the instant
    s13's own slot-0 frame arrives there.  The arrival runs first and
    displaces the held frame, so SW1->ES1_2 carries one s13 frame in that
    slot and no stream without the fault moves.  Releasing the held frame
    first sent both, and s15, s19, s24 and s37 each started one wire time
    (6,576 ns) late."""
    sc = gen_chain(ChainSpec(1, 49, rng_seed=532084))
    res = lstb_solve(sc, "nfic", LstbLimits())
    assert res.status == "sat"
    dep = build_deployment(sc, res.schedule)
    delay = AttackConfig(("ES1_1", "SW1"), "delay", 2_343_959, 1, 9_997_184, match_stream="s13")
    duration = 3 * sc.hyper_period_ns
    clean = run(SimConfig(sc, dep, "ttubs", (), 1, duration)).metrics
    faulted = run(SimConfig(sc, dep, "ttubs", (delay,), 1, duration)).metrics
    moved = [s for s in clean if (clean[s].frames, clean[s].drops) != (faulted[s].frames, faulted[s].drops)]
    assert moved == ["s13"]
    assert {c: n for c, n in faulted["s13"].drops.items() if n} == {"displaced": 1}


@pytest.mark.parametrize(
    "fault",
    [
        replace(table5_drop(), ingress=("AV9", "SW2")),  # not a link of the scenario
        replace(table5_drop(), match_stream="cam9"),  # not a stream
        replace(table5_drop(), match_stream="cam1"),  # a stream that never crosses AV2->SW2
    ],
)
def test_fault_that_cannot_fire_is_refused(fault):
    # each of these would meter no frame and report attack_dropped 0
    with pytest.raises(InvalidInputError, match="fault at"):
        replay_fixture("table3", "ttubs", (fault,), 1, SHORT)
    rep = replay_fixture("table3", "ttubs", (table5_drop(),), 1, SHORT)
    assert rep.metrics["cam2"].drops["attack_dropped"] == 1
