"""Benchmark workloads: seeded inputs, the timed operations, and the output
checks each operation must pass.

A workload is set up once (the cost ``setup_s`` reports), then yields
groups of operations.  A group is the unit of the closed loop: one caller
runs the groups serially, in whole cycles over the workload's input shapes.
``cycle_s`` is the nominal wall time of one cycle on a 2-vCPU x86-64 host;
a run does as many cycles as fit its ``--seconds`` at that speed.  Every
input is drawn from the workload seed; the program sees only the generated
scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

# calls go through module attributes, so the traced run's wrappers see them
from ttubs import artifacts, constraints, fixtures, harness, lstb, sim, smt
from ttubs.model import InvalidInputError

MS = 1_000_000  # ns
SOLVE_TIMEOUT_S = 30.0
SIM_SEEDS = 64  # simulator seeds drawn per replay run
CHAINS = 3  # chains scheduled and deployed by replay-chain
TINY_CYCLE_S = 3.0

# lstb's "fic" search checks the isolation constraints of "wa"
LSTB_CHECK_MODE = {"nfic": "nfic", "fic": "wa"}


class Checks:
    """Output checks: how often each ran and which failed."""

    def __init__(self):
        self.runs: dict[str, int] = {}
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.runs[name] = self.runs.get(name, 0) + 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


@dataclass
class Op:
    """One timed operation.  ``call`` takes the path of the simulator's
    event trace (``None`` for no trace).  ``check`` verifies the result
    and returns a failure that is not a wrong output (a timeout), if any."""

    kind: str  # smt | lstb | census | sim
    mode: str  # nfic | wa | fic | ttubs | tas
    cell: str
    call: Callable[[str | None], object]
    check: Callable[[object, Checks], str | None]
    summary: Callable[[object], str]
    fault: str = "none"


def _schedule_text(sched) -> str:
    if sched is None:
        return ""
    offs = sorted(sched.offsets.items())
    queues = sorted(sched.queues.items())
    return repr((offs, queues))


def _cell(sc) -> str:
    switches = sum(1 for _, kind in sc.nodes if kind == "switch")
    return f"{switches}x{len(sc.streams)}"


# ---------------------------------------------------------------------------
# synthesis workloads


@dataclass
class Synth:
    """Scenarios through ``smt.solve`` and ``lstb_solve`` in both modes,
    plus ``census``; every result is checked against the validator."""

    name: str
    seed: int
    cells: tuple[tuple[int, int], ...]
    census_chain: tuple[int, int] | None
    pool_size: int  # a multiple of len(cells)
    cycle_s: float
    why: str = ""
    pool: list = field(default_factory=list)
    census_pool: list = field(default_factory=list)
    census_seen: dict = field(default_factory=dict)
    census_rows: dict = field(default_factory=dict)

    @property
    def cycle(self) -> int:
        """Groups per cycle: each cell shape once, in a fixed order."""
        return len(self.cells)

    def setup(self) -> None:
        # the seed draws each chain's streams
        rng = np.random.default_rng(self.seed)
        self.pool = []
        for i in range(self.pool_size):
            sw, st = self.cells[i % len(self.cells)]
            self.pool.append(harness.gen_chain(harness.ChainSpec(sw, st, rng_seed=int(rng.integers(2**31)))))
        self.census_pool = []
        if self.census_chain is not None:
            sw, st = self.census_chain
            for i in range(max(1, self.pool_size // 2)):
                self.census_pool.append(harness.gen_chain(harness.ChainSpec(sw, st, rng_seed=int(rng.integers(2**31)))))

    def group(self, g: int) -> list[Op]:
        sc = self.pool[g % len(self.pool)]
        ops = [self._smt(sc, "nfic"), self._smt(sc, "wa"), self._lstb(sc, "nfic"), self._lstb(sc, "fic")]
        if self.census_pool:
            # one census of a large chain per group, the two modes of one
            # chain in consecutive groups
            chain = self.census_pool[(g // 2) % len(self.census_pool)]
            ops.append(self._census(chain, "wa" if g % 2 == 0 else "nfic"))
        else:
            ops += [self._census(sc, "wa"), self._census(sc, "nfic")]
        return ops

    def _smt(self, sc, mode: str) -> Op:
        def check(out, checks: Checks):
            if out.status == "timeout":
                return "timeout"
            if out.status == "sat":
                bad = constraints.validate_schedule(sc, out.schedule, mode)
                checks.expect("smt_sat_validates", not bad, f"{sc.name} {mode}: {bad[:1]}")
            return None

        return Op(
            "smt",
            mode,
            _cell(sc),
            lambda _: smt.solve(smt.SolveRequest(sc, mode, timeout_s=SOLVE_TIMEOUT_S)),
            check,
            lambda out: out.status + _schedule_text(out.schedule),
        )

    def _lstb(self, sc, mode: str) -> Op:
        def check(res, checks: Checks):
            if res.status == "sat":
                bad = constraints.validate_schedule(sc, res.schedule, LSTB_CHECK_MODE[mode])
                checks.expect("lstb_sat_validates", not bad, f"{sc.name} {mode}: {bad[:1]}")
            return None

        return Op(
            "lstb",
            mode,
            _cell(sc),
            lambda _: lstb.lstb_solve(sc, mode, lstb.LstbLimits()),
            check,
            lambda res: f"{res.status} {res.backjumps}" + _schedule_text(res.schedule),
        )

    def _census(self, sc, mode: str) -> Op:
        def check(cens, checks: Checks):
            self.census_rows[(sc.name, mode)] = cens.as_dict()
            seen = self.census_seen.setdefault(sc.name, {})
            seen[mode] = cens
            if len(seen) == 2:
                wa, nfic = seen["wa"], seen["nfic"]
                checks.expect(
                    "census_identity",
                    nfic.total == wa.total - wa.isolation,
                    f"{sc.name}: nfic {nfic.total} != wa {wa.total} - isolation {wa.isolation}",
                )
                del self.census_seen[sc.name]
            return None

        return Op("census", mode, _cell(sc), lambda _: constraints.census(sc, mode), check, lambda c: repr(c.as_dict()))


# ---------------------------------------------------------------------------
# replay workloads


def _check_conservation(metrics, checks: Checks, label: str) -> None:
    """Each stream's frames are all delivered or dropped for a recorded
    cause."""
    for sid, m in metrics.items():
        drops = sum(m.drops.values())
        checks.expect(
            "frame_conservation",
            m.sent == m.delivered + drops,
            f"{label} {sid}: sent {m.sent} != delivered {m.delivered} + drops {drops}",
        )


def _sim_summary(rep) -> str:
    """Stands for a simulation in the repeat check when no event trace was
    written."""
    rows = sorted((sid, m.sent, m.delivered, tuple(sorted(m.drops.items())), m.e2e_max_ns, m.e2e_min_ns)
                  for sid, m in rep.metrics.items())
    return repr(rows)


@dataclass
class ReplayAdas:
    """The bundled ``table3`` deployment replayed through ``harness.
    replay_fixture`` under both egress modes and three fault presets."""

    name: str
    seed: int
    sim_duration_ns: int
    cycle_s: float
    why: str = ""
    cycle: ClassVar[int] = 1
    scenario: object = None
    table: object = None
    sim_seeds: list = field(default_factory=list)
    closed_form: dict = field(default_factory=dict)

    def setup(self) -> None:
        self.scenario = fixtures.adas_scenario()
        sched, _ = fixtures.fixture_schedule("table3", self.scenario)
        self.table = artifacts.build_deployment(self.scenario, sched).table
        rng = np.random.default_rng(self.seed)
        self.sim_seeds = [int(rng.integers(2**31)) for _ in range(SIM_SEEDS)]

    def group(self, g: int) -> list[Op]:
        seed = self.sim_seeds[g % len(self.sim_seeds)]
        # the egress modes alternate, so a change of host speed within a
        # group reaches both
        return [self._replay(egress, fault, seed) for fault in ("none", "loss", "timeout") for egress in ("ttubs", "tas")]

    def _replay(self, egress: str, fault: str, seed: int) -> Op:
        label = f"table3 {egress} {fault} seed {seed}"

        def check(rep, checks: Checks):
            checks.expect("fixture_validates", rep.validation_ok, label)
            _check_conservation(rep.metrics, checks, label)
            if egress == "ttubs" and fault == "none":
                self._check_closed_form(rep, checks, label)
            return None

        return Op(
            "sim",
            egress,
            "adas",
            lambda trace: harness.replay_fixture(
                "table3", egress, harness.fault_preset(fault), seed, self.sim_duration_ns, trace_path=trace
            ),
            check,
            _sim_summary,
            fault,
        )

    def _check_closed_form(self, rep, checks: Checks, label: str) -> None:
        """Every delivered frame's latency equals ``e2e_per_slot`` for its
        slot and payload."""
        mismatches = 0
        first = ""
        for sid, m in rep.metrics.items():
            for slot, payload, e2e in m.frames:
                key = (sid, payload)
                if key not in self.closed_form:
                    self.closed_form[key] = artifacts.e2e_per_slot(self.scenario, sid, self.table, payload)
                if e2e != self.closed_form[key][slot]:
                    mismatches += 1
                    first = first or f"{sid} slot {slot} payload {payload}: {e2e} != {self.closed_form[key][slot]}"
        checks.expect("closed_form", mismatches == 0, f"{label}: {mismatches} frames, first {first}")


@dataclass
class ReplayChain:
    """Large chains scheduled by ``lstb`` (``nfic``), deployed, and
    simulated under both egress modes; the groups cycle over the chains."""

    name: str
    seed: int
    chain: tuple[int, int]
    sim_duration_ns: int
    cycle_s: float
    why: str = ""
    cycle: ClassVar[int] = CHAINS
    deployed: list = field(default_factory=list)  # (scenario, schedule, deployment)
    sim_seeds: list = field(default_factory=list)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        sw, st = self.chain
        self.deployed = []
        for _ in range(CHAINS):
            sc = harness.gen_chain(harness.ChainSpec(sw, st, rng_seed=int(rng.integers(2**31))))
            res = lstb.lstb_solve(sc, "nfic", lstb.LstbLimits())
            if res.status != "sat":
                raise InvalidInputError(f"lstb nfic gave {res.status} on {sc.name}")
            self.deployed.append((sc, res.schedule, artifacts.build_deployment(sc, res.schedule)))
        self.sim_seeds = [int(rng.integers(2**31)) for _ in range(SIM_SEEDS)]

    def check_setup(self, checks: Checks) -> None:
        for sc, sched, _ in self.deployed:
            bad = constraints.validate_schedule(sc, sched, "nfic")
            checks.expect("lstb_sat_validates", not bad, f"{sc.name}: {bad[:1]}")

    def group(self, g: int) -> list[Op]:
        sc, _, dep = self.deployed[g % len(self.deployed)]
        seed = self.sim_seeds[g % len(self.sim_seeds)]
        return [self._sim(sc, dep, egress, seed) for egress in ("ttubs", "tas")]

    def _sim(self, sc, dep, egress: str, seed: int) -> Op:
        label = f"{sc.name} {egress} seed {seed}"

        def check(rep, checks: Checks):
            _check_conservation(rep.metrics, checks, label)
            return None

        cfg = sim.SimConfig(sc, dep, egress, (), seed, self.sim_duration_ns)
        return Op("sim", egress, _cell(sc), lambda trace: sim.run(cfg, trace_path=trace), check, _sim_summary)


# ---------------------------------------------------------------------------

WHY = {
    "synth-small": "1-3 switch chains with 4-20 streams: solver-child startup dominates every solve",
    "synth-large": "3-5 switch chains with 30 streams plus a 10x95 census: constraint building and HiGHS are about half of each solve",
    "replay-adas": "ADAS fixture under tas and ttubs with loss and timeout faults: short gate lists, the paper's fault studies",
    "replay-chain": "10x95 chains scheduled by lstb and deployed: long gate lists and about 5 hops per frame",
}


def make(name: str, seed: int, tiny: bool = False):
    """The named workload for ``seed``; ``tiny`` shrinks every input so a
    smoke test runs each workload in seconds."""
    if name == "synth-small":
        # switch counts and stream levels each appear twice per cycle,
        # small and large cells interleaved
        cells = ((1, 4), (2, 5)) if tiny else ((1, 4), (2, 12), (3, 20), (1, 20), (2, 4), (3, 12))
        return Synth(name, seed, cells, None, 8 if tiny else 60, TINY_CYCLE_S if tiny else 11.0, WHY[name])
    if name == "synth-large":
        cells = ((2, 6),) if tiny else ((3, 30), (4, 30), (5, 30))
        chain = (2, 8) if tiny else (10, 95)
        return Synth(name, seed, cells, chain, 4 if tiny else 24, TINY_CYCLE_S if tiny else 9.5, WHY[name])
    if name == "replay-adas":
        return ReplayAdas(name, seed, (2 if tiny else 500) * MS, TINY_CYCLE_S if tiny else 2.2, WHY[name])
    if name == "replay-chain":
        chain = (3, 10) if tiny else (10, 95)
        return ReplayChain(name, seed, chain, (40 if tiny else 1000) * MS, TINY_CYCLE_S if tiny else 2.4, WHY[name])
    raise KeyError(name)


NAMES = tuple(WHY)
