import pytest

from ttubs.constraints import validate_schedule
from ttubs.harness import ChainSpec, gen_chain
from ttubs.lstb import LstbLimits, lstb_solve, order_frames
from ttubs.model import Link, Scenario, Stream, expand_frame_instances

US = 1_000
MS = 1_000_000


def _direct(streams):
    return Scenario(
        (("A", "end-station"), ("B", "end-station")),
        (Link("A", "B", 1_000_000_000),),
        tuple(streams),
    )


def test_adas_both_modes(adas):
    for mode, check in (("nfic", "nfic"), ("fic", "wa")):
        res = lstb_solve(adas, mode)
        assert res.status == "sat"
        assert validate_schedule(adas, res.schedule, check) == []
    assert lstb_solve(adas, "nfic").backjumps == 0


def test_single_stream_takes_offset_zero():
    sc = _direct([Stream("s", 10 * US, 728, 728, (("A", "B"),), 10 * US, US)])
    res = lstb_solve(sc, "nfic")
    assert res.status == "sat"
    assert res.schedule.offsets[("s", ("A", "B"), 0)] == 0


def test_two_fat_streams_one_link_infeasible():
    # 6 us wire time each, 10 us period: two windows cannot coexist
    streams = [
        Stream(f"s{i}", 10 * US, 728, 728, (("A", "B"),), 10 * US, US) for i in range(2)
    ]
    res = lstb_solve(_direct(streams), "nfic")
    assert res.status == "infeasible"


def test_duration_exceeding_period_infeasible():
    sc = _direct([Stream("s", 5 * US, 1500, 1500, (("A", "B"),), 5 * US, US)])
    assert lstb_solve(sc, "nfic").status == "infeasible"


def test_backjump_limit():
    streams = [
        Stream(f"s{i}", 10 * US, 728, 728, (("A", "B"),), 10 * US, US) for i in range(2)
    ]
    res = lstb_solve(_direct(streams), "nfic", LstbLimits(max_backjumps=5))
    assert res.status == "limit"
    assert res.backjumps == 6


def test_order_shortest_period_first(adas):
    frames = order_frames(adas)
    periods = [f.period_ns for f in frames]
    assert periods == sorted(periods)
    cam1 = [f for f in frames if f.stream == "cam1"]
    assert [(f.hop, f.slot) for f in cam1] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def _grouped_order(scenario):
    """The placement order as a group-then-sort: streams by (period, id),
    then each stream's frames by (hop, slot)."""
    by_stream = {}
    for fi in expand_frame_instances(scenario):
        by_stream.setdefault(fi.stream, []).append(fi)
    rank = {s.id: (s.period_ns, s.id) for s in scenario.streams}
    out = []
    for sid in sorted(by_stream, key=rank.__getitem__):
        out.extend(sorted(by_stream[sid], key=lambda fi: (fi.hop, fi.slot)))
    return out


def test_order_frames_matches_grouped_sort(adas):
    periods = (5 * MS, 10 * MS, 20 * MS)
    for sc in [adas] + [gen_chain(ChainSpec(3, 12, rng_seed=seed, periods_ns=periods)) for seed in range(4)]:
        assert len({s.period_ns for s in sc.streams}) > 1
        assert order_frames(sc) == _grouped_order(sc)


def test_first_gap_end_after_occupied_window(adas):
    # camera 1's inter-switch frame lands right at the end of camera 2's
    # window when the flow bound falls inside it
    res = lstb_solve(adas, "nfic")
    sw1 = {k: v for k, v in res.schedule.offsets.items() if k[1] == ("SW1", "CentralHost")}
    # hop ordering pushed cam2 behind cam1's window on the shared hop
    assert sw1[("cam2", ("SW1", "CentralHost"), 0)] == 29_328  # = 2 * 9776 + 9776


def test_determinism(adas):
    a = lstb_solve(adas, "nfic")
    b = lstb_solve(adas, "nfic")
    assert a.schedule.offsets == b.schedule.offsets
    assert a.backjumps == b.backjumps


@pytest.mark.parametrize("seed", range(8))
def test_soundness_random_chains(seed):
    sc = gen_chain(ChainSpec(2, 6, rng_seed=seed, periods_ns=(20 * US, 40 * US), sizes=(400, 800, 1200)))
    for mode, check in (("nfic", "nfic"), ("fic", "wa")):
        res = lstb_solve(sc, mode, LstbLimits(max_backjumps=2000, wall_clock_s=10))
        if res.status == "sat":
            assert validate_schedule(sc, res.schedule, check) == [], (seed, mode)


@pytest.mark.parametrize("seed", range(10))
def test_nfic_dominates_fic(seed):
    # isolation checks only shrink the space: anything the stricter mode
    # schedules, the relaxed mode schedules too
    sc = gen_chain(ChainSpec(2, 5, rng_seed=100 + seed, periods_ns=(20 * US, 40 * US), sizes=(800, 1500)))
    fic = lstb_solve(sc, "fic", LstbLimits(max_backjumps=5000, wall_clock_s=10))
    if fic.status == "sat":
        nfic = lstb_solve(sc, "nfic", LstbLimits(max_backjumps=5000, wall_clock_s=10))
        assert nfic.status == "sat"
        assert nfic.backjumps <= fic.backjumps


@pytest.mark.parametrize("deadline, status", [(100 * US, "sat"), (100, "infeasible")])
def test_single_hop_deadline(deadline, status):
    # the 976 ns wire time alone misses a 100 ns deadline
    sc = _direct([Stream("s", 1_000 * US, 100, 100, (("A", "B"),), deadline, 0)])
    for mode, check in (("nfic", "nfic"), ("fic", "wa")):
        res = lstb_solve(sc, mode)
        assert res.status == status
        if status == "sat":
            assert validate_schedule(sc, res.schedule, check) == []


def test_fic_isolation_moves_second_stream_off_shared_queue():
    # SW->ES3 has one queue, so a and b share queue 0, and b's frame may not
    # be queued at SW before a's starts there (976 ns): b's first hop moves
    # from 0 to 80 ns, so its 896-ns frame arrives at 976 ns
    sc = Scenario(
        (("ES1", "end-station"), ("ES2", "end-station"), ("SW", "switch"), ("ES3", "end-station")),
        (Link("ES1", "SW", 10**9), Link("ES2", "SW", 10**9), Link("SW", "ES3", 10**9, queue_count=1)),
        (
            Stream("a", 100 * US, 100, 100, (("ES1", "SW"), ("SW", "ES3")), 100 * US, 100 * US),
            Stream("b", 100 * US, 90, 90, (("ES2", "SW"), ("SW", "ES3")), 100 * US, 100 * US),
        ),
    )
    res = lstb_solve(sc, "fic")
    assert res.status == "sat"
    assert res.schedule.queues == {("a", ("SW", "ES3")): 0, ("b", ("SW", "ES3")): 0}
    assert res.schedule.offsets[("b", ("ES2", "SW"), 0)] == 80
    assert validate_schedule(sc, res.schedule, "wa") == []
    # without the check, b's first hop stays at 0 and breaks isolation
    nfic = lstb_solve(sc, "nfic").schedule
    assert [v.label for v in validate_schedule(sc, nfic, "wa")] == ["isolation[SW->ES3: a#0 vs b#0]"]
