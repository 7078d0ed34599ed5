"""Experiment harness: chained-topology generation, census and solver
sweeps, fixture replay, and CSV reporting."""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .artifacts import build_deployment
from .constraints import CATEGORIES, GroundConstraint, census, validate_schedule
from .lstb import LstbLimits, lstb_solve
from .model import InvalidInputError, Link, Scenario, Stream, ns_to_us_str
from .schedule import Schedule
from .sim import AttackConfig, SimConfig, StreamMetrics, run
from .smt import SolveRequest, solve

__all__ = [
    "ChainSpec",
    "ExperimentPlan",
    "gen_chain",
    "run_census_study",
    "run_solver_study",
    "replay",
    "replay_fixture",
    "table5_drop",
    "table5_delay",
    "FAULT_PRESETS",
    "rows_to_csv",
    "metrics_csv",
    "report_census",
    "report_metrics",
]

MS = 1_000_000
STATIONS_PER_SWITCH = 3
RATE_BPS = 1_000_000_000  # every chain link


@dataclass(frozen=True)
class ChainSpec:
    """Chained topology: ``switch_count`` switches in a line, three end
    stations per switch, random unicast streams along shortest paths."""

    switch_count: int
    stream_count: int
    rng_seed: int = 0
    periods_ns: tuple[int, ...] = (10 * MS, 20 * MS)
    sizes: tuple[int, ...] = (400, 600, 800, 1000, 1500)


@dataclass(frozen=True)
class ExperimentPlan:
    switch_counts: tuple[int, ...]
    stream_counts: tuple[int, ...]
    repetitions: int = 50
    timeout_s: float = 300.0
    rng_seed: int = 0
    workers: int = 4

    def __post_init__(self):
        if self.repetitions < 1:
            raise InvalidInputError("repetitions must be >= 1")


def gen_chain(spec: ChainSpec) -> Scenario:
    """Deterministic random scenario for the given chain spec."""
    if not (1 <= spec.switch_count):
        raise InvalidInputError("switch_count must be >= 1")
    rng = np.random.default_rng(spec.rng_seed)
    nodes: list[tuple[str, str]] = []
    links: list[Link] = []
    switches = [f"SW{i + 1}" for i in range(spec.switch_count)]
    stations: list[str] = []
    station_switch: dict[str, int] = {}
    for i, sw in enumerate(switches):
        nodes.append((sw, "switch"))
        for j in range(STATIONS_PER_SWITCH):
            es = f"ES{i + 1}_{j + 1}"
            nodes.append((es, "end-station"))
            stations.append(es)
            station_switch[es] = i
            links.append(Link(es, sw, RATE_BPS))
            links.append(Link(sw, es, RATE_BPS))
    for a, b in zip(switches, switches[1:]):
        links.append(Link(a, b, RATE_BPS))
        links.append(Link(b, a, RATE_BPS))

    streams: list[Stream] = []
    for k in range(spec.stream_count):
        talker = stations[int(rng.integers(len(stations)))]
        listener = talker
        while listener == talker:
            listener = stations[int(rng.integers(len(stations)))]
        size = int(spec.sizes[int(rng.integers(len(spec.sizes)))])
        period = int(spec.periods_ns[int(rng.integers(len(spec.periods_ns)))])
        si, li = station_switch[talker], station_switch[listener]
        route: list[tuple[str, str]] = [(talker, switches[si])]
        step = 1 if li > si else -1
        for i in range(si, li, step):
            route.append((switches[i], switches[i + step]))
        route.append((switches[li], listener))
        streams.append(
            Stream(
                id=f"s{k}",
                period_ns=period,
                payload_min=size,
                payload_max=size,
                route=tuple(route),
                e2e_deadline_ns=period,
                jitter_req_ns=period // 10,
            )
        )
    return Scenario(
        nodes=tuple(nodes),
        links=tuple(links),
        streams=tuple(streams),
        name=f"chain_sw{spec.switch_count}_st{spec.stream_count}_seed{spec.rng_seed}",
    )


# ---------------------------------------------------------------------------
# studies: a cell is one (switch count, stream count) pair

def _cell_scenario(plan: ExperimentPlan, switches: int, streams: int, rep: int) -> Scenario:
    """The scenario of one repetition of a study cell; both studies draw
    the same ones."""
    return gen_chain(ChainSpec(switches, streams, rng_seed=plan.rng_seed + 1000 * switches + streams + rep))


def _cell_columns(switches: int, streams: int) -> dict:
    return {"devices": switches * (STATIONS_PER_SWITCH + 1), "streams": streams}


def _run_cells(plan: ExperimentPlan, work, cells: list[tuple]) -> list:
    """``work`` of each cell, in cell order: in a pool of ``plan.workers``
    processes when there is more than one of each."""
    if plan.workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            return list(pool.map(work, cells))
    return [work(c) for c in cells]


def _census_cell(args) -> dict:
    plan, switches, streams = args
    reps = plan.repetitions
    sums = {c: 0 for c in CATEGORIES}
    for rep in range(reps):
        c = census(_cell_scenario(plan, switches, streams, rep), "wa").as_dict()
        for cat in CATEGORIES:
            sums[cat] += c[cat]
    row = {**_cell_columns(switches, streams), "repetitions": reps}
    for cat in CATEGORIES:
        row[f"mean_{cat}"] = sums[cat] / reps
    row["mean_total"] = sum(sums.values()) / reps
    row["mean_total_nfic"] = (sum(sums.values()) - sums["isolation"]) / reps
    return row


def run_census_study(plan: ExperimentPlan) -> list[dict]:
    """Mean per-category constraint counts over seeded repetitions for each
    (switch count, stream count) cell."""
    cells = [(plan, sw, st) for sw in plan.switch_counts for st in plan.stream_counts]
    return _run_cells(plan, _census_cell, cells)


def _solver_cell(args) -> list[dict]:
    plan, switches, streams, rep = args
    sc = _cell_scenario(plan, switches, streams, rep)

    def row(engine: str, mode: str, res, census_total, backjumps) -> dict:
        return {
            **_cell_columns(switches, streams),
            "rep": rep,
            "engine": engine,
            "mode": mode,
            "status": res.status,
            "solve_time_s": round(res.solve_time_s, 6),
            "census_total": census_total,
            "backjumps": backjumps,
        }

    rows = []
    for mode in ("nfic", "wa"):
        out = solve(SolveRequest(sc, mode, timeout_s=plan.timeout_s))
        rows.append(row("smt", mode, out, out.constraint_census.total, ""))
    for mode in ("nfic", "fic"):
        res = lstb_solve(sc, mode, LstbLimits(wall_clock_s=plan.timeout_s))
        rows.append(row("lstb", mode, res, "", res.backjumps))
    return rows


def run_solver_study(plan: ExperimentPlan) -> list[dict]:
    """Solve every cell with the external-solver route (isolation on and
    off) and the heuristic search (isolation checks on and off); one row
    per engine/mode/repetition.  Each solve owns its scenario and child
    process, so a timeout in one cell never corrupts another."""
    cells = [
        (plan, sw, st, rep)
        for sw in plan.switch_counts
        for st in plan.stream_counts
        for rep in range(plan.repetitions)
    ]
    return [row for rows in _run_cells(plan, _solver_cell, cells) for row in rows]


# ---------------------------------------------------------------------------
# fixture replay

def table5_drop() -> AttackConfig:
    """Frame-loss fault: drop one camera-2 frame received at or after 21 us."""
    return AttackConfig(("AV2", "SW2"), "drop", 21_000, 1, match_stream="cam2")


def table5_delay(delay_ns: int = 10_000) -> AttackConfig:
    """Frame-timeout fault: hold one camera-2 frame at the inter-switch
    ingress for the given time."""
    return AttackConfig(("SW2", "SW1"), "delay", 21_000, 1, delay_ns, match_stream="cam2")


# the Table 5 fault cases of the bundled ADAS fixture, by preset name
# (AttackConfig is frozen, so every caller may share these tuples)
FAULT_PRESETS: dict[str, tuple[AttackConfig, ...]] = {
    "none": (),
    "loss": (table5_drop(),),
    "timeout": (table5_delay(10_000),),
    "timeout-long": (table5_delay(221_000),),
}


def fault_preset(name: str) -> tuple[AttackConfig, ...]:
    try:
        return FAULT_PRESETS[name]
    except KeyError:
        raise InvalidInputError(f"unknown fault preset {name!r}") from None


@dataclass
class ReplayReport:
    """A judged replay.  A schedule with violations in its validation mode
    is never simulated: its report has no metrics and meets nothing."""

    fixture: str
    egress_mode: str | dict[str, str]
    violations: list[GroundConstraint]
    metrics: dict[str, StreamMetrics] = field(default_factory=dict)
    partial_fill: list = field(default_factory=list)

    @property
    def shaper_discards(self) -> int:
        return sum(m.shaper_discards for m in self.metrics.values())

    @property
    def validation_ok(self) -> bool:
        return not self.violations

    @property
    def requirements_met(self) -> bool:
        return self.validation_ok and all(m.requirements_met for m in self.metrics.values())


def replay(
    scenario: Scenario,
    schedule: Schedule,
    mode: str,
    egress_mode: str | dict[str, str],
    faults: tuple[AttackConfig, ...],
    rng_seed: int,
    sim_duration_ns: int,
    trace_path: str | None = None,
) -> ReplayReport:
    """Validate a schedule in ``mode``; if it holds, deploy it, simulate,
    and judge the outcome against the traffic requirements (deadline and
    jitter)."""
    violations = validate_schedule(scenario, schedule, mode)
    if violations:
        return ReplayReport(scenario.name, egress_mode, violations)
    dep = build_deployment(scenario, schedule)
    rep = run(
        SimConfig(scenario, dep, egress_mode, tuple(faults), rng_seed, sim_duration_ns),
        trace_path=trace_path,
    )
    return ReplayReport(scenario.name, egress_mode, [], rep.metrics)


def replay_fixture(
    name: str,
    egress_mode: str = "ttubs",
    faults: tuple[AttackConfig, ...] = (),
    rng_seed: int = 1,
    sim_duration_ns: int = 10_000_000_000,
    trace_path: str | None = None,
) -> ReplayReport:
    """:func:`replay` of a bundled schedule in its fixture's validation
    mode."""
    sc = fixtures.adas_scenario()
    sched, filled = fixtures.fixture_schedule(name, sc)
    mode = fixtures.VALIDATION_MODES[name]
    rep = replay(sc, sched, mode, egress_mode, faults, rng_seed, sim_duration_ns, trace_path)
    rep.fixture, rep.partial_fill = name, filled
    return rep


# ---------------------------------------------------------------------------
# CSV rendering

def rows_to_csv(rows: list[dict]) -> str:
    """CSV with a header row taken from the first row's keys ("" for no rows)."""
    if not rows:
        return ""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def _us(ns: int | None) -> str:
    """CSV cell of a latency or jitter; empty when no frame arrived."""
    return ns_to_us_str(ns) if ns is not None else ""


def metrics_csv(metrics: dict[str, StreamMetrics]) -> str:
    rows = [
        {
            "stream": sid,
            "sent": m.sent,
            "delivered": m.delivered,
            **m.drops,
            "e2e_max_us": _us(m.e2e_max_ns),
            "e2e_min_us": _us(m.e2e_min_ns),
            "e2e_mean_us": f"{m.e2e_mean_ns / 1000:.3f}" if m.e2e_mean_ns is not None else "",
            "jitter_us": _us(m.jitter_ns),
            "deadline_violations": m.deadline_violations,
            "jitter_violation": int(m.jitter_violation),
        }
        for sid, m in metrics.items()
    ]
    return rows_to_csv(rows)


def report_census(rows: list[dict]) -> str:
    """Pivot: devices down, stream counts across, mean totals in cells."""
    devices = sorted({r["devices"] for r in rows})
    streams = sorted({r["streams"] for r in rows})
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["devices \\ streams"] + streams)
    for d in devices:
        line = [d]
        for st in streams:
            cell = [r for r in rows if r["devices"] == d and r["streams"] == st]
            line.append(round(cell[0]["mean_total"], 1) if cell else "")
        w.writerow(line)
    return buf.getvalue()


def report_metrics(reports: list[ReplayReport]) -> str:
    """One row per (fixture, egress, stream): max latency and jitter, the
    per-stream axes of the replay studies."""
    rows = [
        {
            "fixture": rep.fixture,
            "egress": rep.egress_mode,
            "stream": sid,
            "e2e_max_us": _us(m.e2e_max_ns),
            "jitter_us": _us(m.jitter_ns),
            "requirements_met": int(m.requirements_met),
        }
        for rep in reports
        for sid, m in rep.metrics.items()
    ]
    return rows_to_csv(rows)
