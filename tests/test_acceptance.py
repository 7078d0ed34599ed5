"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with ``pytest -v -s tests/test_acceptance.py``)."""

import hashlib
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ttubs.artifacts import build_deployment, build_shaper_offset_table, e2e_bounds_and_jitter, e2e_per_slot
from ttubs.constraints import census, validate_schedule
from ttubs.fixtures import adas_scenario, fixture_schedule
from ttubs.harness import ChainSpec, gen_chain, table5_delay, table5_drop
from ttubs.lstb import LstbLimits, lstb_solve, order_frames
from ttubs.model import expand_frame_instances
from ttubs.schedule import Schedule
from ttubs.sim import SimConfig, run
from ttubs.smt import SolveRequest, solve

US = 1_000
SECOND = 1_000_000_000


@pytest.fixture(scope="module")
def adas():
    return adas_scenario()


@pytest.fixture(scope="module")
def dep3(adas):
    return build_deployment(adas, fixture_schedule("table3", adas)[0])


@pytest.fixture(scope="module")
def dep8(adas):
    return build_deployment(adas, fixture_schedule("table8", adas)[0])


@pytest.fixture(scope="module")
def normal_runs(adas, dep3):
    """Fault-free reference runs, seed 1, 2 simulated seconds."""
    return {
        mode: run(SimConfig(adas, dep3, mode, rng_seed=1, sim_duration_ns=2 * SECOND))
        for mode in ("tas", "ttubs")
    }


def _requirements_met(scenario, report):
    return all(
        report.metrics[s.id].deadline_violations == 0
        and not report.metrics[s.id].jitter_violation
        for s in scenario.streams
    )


def test_criterion_01_fixture_validation(adas):
    start = time.perf_counter()
    t3, t8 = fixture_schedule("table3", adas)[0], fixture_schedule("table8", adas)[0]
    assert validate_schedule(adas, t3, "nfic") == []
    assert validate_schedule(adas, t8, "nfic") == []
    switch_keys = [k for k in t3.offsets if k[1][0] in ("SW1", "SW2")]
    assert len(switch_keys) == 12
    for key in switch_keys:
        mod = Schedule(offsets=dict(t3.offsets))
        mod.offsets[key] -= 10 * US
        assert validate_schedule(adas, mod, "nfic"), f"perturbing {key} reported no violation"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: fixtures validate, all {len(switch_keys)} "
          f"-10us perturbations caught ({elapsed:.2f}s < 1s)")


def test_criterion_02_closed_form_reproduction(adas):
    table = build_shaper_offset_table(adas, fixture_schedule("table3", adas)[0])
    cam = e2e_bounds_and_jitter(adas, "cam1", table)
    assert cam == (41_776, 40_176, 1_600)
    # published rounded values within 0.5 us
    assert abs(cam[0] - 42_000) <= 500 and abs(cam[1] - 40_000) <= 500 and abs(cam[2] - 2_000) <= 500
    ctrl = e2e_bounds_and_jitter(adas, "control", table)
    assert ctrl[0] == 7_776 and abs(ctrl[0] - 8_000) <= 500
    radar = e2e_bounds_and_jitter(adas, "radar", table)
    assert radar[0] == 13_376 and abs(radar[0] - 14_000) <= 1_000
    print(f"ACCEPTANCE 2 PASS: camera {cam}, control max {ctrl[0]}, radar max {radar[0]} ns")


def test_criterion_03_simulator_formula_equivalence(adas, dep3):
    start = time.perf_counter()
    report = run(SimConfig(adas, dep3, "ttubs", rng_seed=1, sim_duration_ns=10 * SECOND))
    checked = 0
    for s in adas.streams:
        m = report.metrics[s.id]
        per_payload = {}
        for slot, payload, e2e in m.frames:
            key = (slot, payload)
            if key not in per_payload:
                per_payload[key] = e2e_per_slot(adas, s.id, dep3.table, payload)[slot]
            assert e2e == per_payload[key], (s.id, slot, payload)
            checked += 1
        assert m.deadline_violations == 0 and not m.jitter_violation
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS: {checked} delivered frames equal the closed form "
          f"exactly, all requirements met ({elapsed:.1f}s < 30s)")


def test_criterion_04_tas_jitter_failure(adas, dep3):
    for seed in (1, 2, 3):
        rep = run(SimConfig(adas, dep3, "tas", rng_seed=seed, sim_duration_ns=2 * SECOND))
        for cam in ("cam1", "cam2"):
            m = rep.metrics[cam]
            assert m.jitter_ns > 10 * US, (seed, cam, m.jitter_ns)
            assert abs(m.e2e_max_ns - 42_000) <= 1_000, (seed, cam, m.e2e_max_ns)
    print("ACCEPTANCE 4 PASS: TAS camera jitter > 10us with max E2E ~= 42us on 3 seeds")


def test_criterion_05_frame_loss_resilience(adas, dep3, normal_runs):
    for mode in ("tas", "ttubs"):
        rep = run(
            SimConfig(adas, dep3, mode, (table5_drop(),), rng_seed=1, sim_duration_ns=2 * SECOND)
        )
        assert rep.metrics["cam2"].drops["attack_dropped"] == 1
        for s in adas.streams:
            a, b = normal_runs[mode].metrics[s.id], rep.metrics[s.id]
            assert (a.e2e_max_ns, a.jitter_ns) == (b.e2e_max_ns, b.jitter_ns), (mode, s.id)
    print("ACCEPTANCE 5 PASS: single frame loss leaves max E2E and jitter exactly "
          "unchanged under TAS and the shaped-queue mode")


def test_criterion_06_timeout_divergence(adas, dep3, normal_runs):
    tas = run(
        SimConfig(adas, dep3, "tas", (table5_delay(10 * US),), rng_seed=1, sim_duration_ns=2 * SECOND)
    )
    assert tas.metrics["cam2"].e2e_max_ns > 100 * US
    tt = run(
        SimConfig(adas, dep3, "ttubs", (table5_delay(10 * US),), rng_seed=1, sim_duration_ns=2 * SECOND)
    )
    assert tt.shaper_discards == 1
    assert tt.metrics["cam2"].drops["timeout_discarded"] == 1
    for s in adas.streams:
        a, b = normal_runs["ttubs"].metrics[s.id], tt.metrics[s.id]
        assert (a.e2e_max_ns, a.e2e_min_ns, a.jitter_ns) == (b.e2e_max_ns, b.e2e_min_ns, b.jitter_ns)
    print(f"ACCEPTANCE 6 PASS: 10us delay -> TAS camera-2 max {tas.metrics['cam2'].e2e_max_ns} ns "
          "(> period); shaped-queue mode: exactly one timeout discard, metrics unchanged")


def test_criterion_07_long_delay_robustness(adas, dep3, dep8):
    discards = {}
    for name, dep in (("table3", dep3), ("table8", dep8)):
        rep = run(
            SimConfig(adas, dep, "ttubs", (table5_delay(221 * US),), rng_seed=1, sim_duration_ns=2 * SECOND)
        )
        assert _requirements_met(adas, rep), name
        assert rep.shaper_discards >= 2, (name, rep.shaper_discards)
        discards[name] = rep.shaper_discards
    print(f"ACCEPTANCE 7 PASS: 221us delay under shaped queues: requirements met, "
          f"shaper discards {discards}")


def test_criterion_08_census_scaling():
    start = time.perf_counter()
    reps = 50
    small = [census(gen_chain(ChainSpec(1, 5, rng_seed=s)), "wa") for s in range(reps)]
    small_mean = sum(c.total for c in small) / reps
    assert 10 <= small_mean <= 99, small_mean
    large = [census(gen_chain(ChainSpec(10, 95, rng_seed=s)), "wa") for s in range(reps)]
    large_mean = sum(c.total for c in large) / reps
    assert 13_000 <= large_mean <= 120_000, large_mean
    share = sum(c.link + c.isolation for c in large) / sum(c.total for c in large)
    assert share >= 0.60, share
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"ACCEPTANCE 8 PASS: mean totals small={small_mean:.1f} in [10,99], "
          f"large={large_mean:.0f} in [13000,120000], link+isolation share "
          f"{share:.0%} >= 60% ({elapsed:.0f}s < 5min)")


def test_criterion_09_nfic_advantage():
    cells = [(sw, st) for sw in (2, 3, 4, 5) for st in (10, 20, 30, 40, 50)]
    scenarios = {cell: gen_chain(ChainSpec(cell[0], cell[1], rng_seed=42 + cell[0])) for cell in cells}

    for sc in scenarios.values():
        wa = census(sc, "wa")
        assert census(sc, "nfic").total == wa.total - wa.isolation

    def smt_times(mode):
        def one(cell):
            out = solve(SolveRequest(scenarios[cell], mode, timeout_s=300))
            assert out.status == "sat", (cell, mode, out.status)
            return out.solve_time_s
        with ThreadPoolExecutor(max_workers=5) as pool:
            return list(pool.map(one, cells))

    nfic_times = smt_times("nfic")
    wa_times = smt_times("wa")
    med_nfic, med_wa = statistics.median(nfic_times), statistics.median(wa_times)
    assert med_nfic <= med_wa, (med_nfic, med_wa)

    solved_fic, dominated = 0, True
    for cell in cells:
        fic = lstb_solve(scenarios[cell], "fic", LstbLimits())
        if fic.status != "sat":
            continue
        solved_fic += 1
        nfic = lstb_solve(scenarios[cell], "nfic", LstbLimits())
        if nfic.status != "sat" or nfic.backjumps > fic.backjumps:
            dominated = False
    assert dominated
    print(f"ACCEPTANCE 9 PASS: census identity on 20 cells; median solve time "
          f"nfic {med_nfic:.2f}s <= wa {med_wa:.2f}s; isolation-free search dominated "
          f"the {solved_fic} isolation-checked successes")


# ---------------------------------------------------------------------------
# criterion 10: property-based soundness with a brute-force oracle

def _small_scenario(seed):
    rng = np.random.default_rng(seed)
    return gen_chain(
        ChainSpec(
            switch_count=int(rng.integers(1, 4)),
            stream_count=int(rng.integers(2, 11)),
            rng_seed=seed,
            periods_ns=(10 * US, 20 * US),
            sizes=(100, 200, 400, 700),
        )
    )


def brute_force_feasible(scenario, grid_ns=1_000, node_cap=5_000_000):
    """Exhaustive offset search on a coarse grid, isolation-free mode.

    Independent of the production solvers: plain depth-first enumeration
    over grid offsets with direct pairwise checks."""
    frames = order_frames(scenario)
    n = len(frames)
    streams = {s.id: s for s in scenario.streams}
    index_of = {(f.stream, f.link, f.slot): i for i, f in enumerate(frames)}
    upstream, first_idx, deadline = [None] * n, [None] * n, [None] * n
    lag = [0] * n
    for i, f in enumerate(frames):
        s = streams[f.stream]
        hop = s.route.index(f.link)
        if hop > 0:
            upstream[i] = index_of[(f.stream, s.route[hop - 1], f.slot)]
            up_link = scenario.link(s.route[hop - 1])
            lag[i] = (
                frames[upstream[i]].duration_ns
                + up_link.prop_delay_ns
                + up_link.proc_delay_ns
                + scenario.sync_precision_ns
            )
        if hop == len(s.route) - 1 and hop > 0:
            first_idx[i] = index_of[(f.stream, s.route[0], f.slot)]
            deadline[i] = s.e2e_deadline_ns - f.duration_ns - scenario.link(f.link).prop_delay_ns
    same_link = [
        [j for j in range(i) if frames[j].link == frames[i].link and frames[j].stream != frames[i].stream]
        for i in range(n)
    ]
    abs_off = [0] * n
    nodes = 0

    def dfs(i):
        nonlocal nodes
        if i == n:
            return True
        f = frames[i]
        lo = 0
        if upstream[i] is not None:
            need = abs_off[upstream[i]] + lag[i] - f.slot * f.period_ns
            lo = max(lo, -(-need // grid_ns) * grid_ns)
        hi = f.period_ns - f.duration_ns
        if first_idx[i] is not None:
            hi = min(hi, abs_off[first_idx[i]] - f.slot * f.period_ns + deadline[i])
        base = f.slot * f.period_ns
        for rel in range(lo, hi + 1, grid_ns):
            nodes += 1
            if nodes > node_cap:
                raise AssertionError("oracle node cap exceeded")
            a = base + rel
            ok = True
            for j in same_link[i]:
                b = abs_off[j]
                if a + f.duration_ns > b and b + frames[j].duration_ns > a:
                    ok = False
                    break
            if ok:
                abs_off[i] = a
                if dfs(i + 1):
                    return True
        return False

    return dfs(0)


def test_criterion_10_solver_soundness():
    scenarios = [_small_scenario(seed) for seed in range(200)]

    def smt_check(args):
        sc, mode = args
        out = solve(SolveRequest(sc, mode, timeout_s=120))
        if out.status == "sat":
            assert validate_schedule(sc, out.schedule, mode) == [], (sc.name, mode)
        return out.status

    jobs = [(sc, mode) for sc in scenarios for mode in ("nfic", "wa")]
    with ThreadPoolExecutor(max_workers=8) as pool:
        smt_statuses = list(pool.map(smt_check, jobs))

    confirmed, lstb_sat = 0, 0
    for sc in scenarios:
        for mode, check in (("nfic", "nfic"), ("fic", "wa")):
            res = lstb_solve(sc, mode, LstbLimits())
            if res.status == "sat":
                lstb_sat += 1
                assert validate_schedule(sc, res.schedule, check) == [], (sc.name, mode)
            elif res.status == "infeasible" and mode == "nfic":
                if len(expand_frame_instances(sc)) <= 6:
                    assert not brute_force_feasible(sc), sc.name
                    confirmed += 1
    sat_count = sum(1 for s in smt_statuses if s == "sat")
    print(f"ACCEPTANCE 10 PASS: 200 scenarios; {sat_count} solver-route sat outcomes and "
          f"{lstb_sat} search sat outcomes all validate; {confirmed} small infeasible "
          f"verdicts confirmed by grid enumeration")


def test_criterion_11_trace_determinism(adas, dep3, tmp_path):
    digests = []
    for attempt in ("a", "b"):
        path = tmp_path / f"trace_{attempt}.csv"
        run(SimConfig(adas, dep3, "ttubs", rng_seed=1, sim_duration_ns=10 * SECOND), trace_path=str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    print(f"ACCEPTANCE 11 PASS: repeated 10s runs give byte-identical traces "
          f"(sha256 {digests[0][:12]}...)")
