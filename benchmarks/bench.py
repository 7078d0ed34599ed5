"""Seeded synthesis-and-replay benchmark of ttubs.

Usage (from the repository root):

    python3 benchmarks/bench.py --workload synth-small --seed 1 --seconds 20 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1 --seconds 20

Each workload is a closed loop: one caller runs its operation groups
serially, one solver child at a time, in whole cycles over its input
shapes.  The number of cycles follows from ``--seconds`` and the workload's
nominal cycle time, so a run lasts about ``--seconds`` on a 2-vCPU host and
the same seed and ``--seconds`` always run the same operations.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it runs the loop untraced for
part of the time, then replays exactly the same operations with every
public ``ttubs`` function wrapped (see ``tracing.py``), and reports the
per-layer split.  Outputs are checked in
both runs.

The report lists every metric with its unit and sample count; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, environment
and paper quantities included, is written to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
PROBE_REPEATS = 3
# the traced run's untraced pass, and its in-process solver re-run, each
# take this share of --seconds
TRACED_PASS_SHARE = 0.45
# A shared host's speed can swing by nearly 2x for seconds at a time, which
# no run length averages out.  So every timed step is also expressed at a
# fixed reference speed: its wall time times REFERENCE_S over the time of a
# fixed pure-Python kernel (dict, tuple and heap work, like the simulator's)
# measured just before and just after it (the fastest of a few tries, so an
# interruption or a cold cache after a wait does not count).  The gated
# times use that scale; the report also prints the raw wall times.
CALIBRATION_ROUNDS = 5000
CALIBRATION_TRIES = 3
REFERENCE_S = 0.005
PROBE_TEXT = "(set-logic QF_LIA)\n(declare-const x Int)\n(assert (and (>= x 0) (<= x 1)))\n(check-sat)\n(get-model)\n"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "shaped_ms": "ms",
    "gated_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = ("bench", "harness", "fixtures", "model", "constraints", "smt", "solver_child", "lstb", "artifacts", "sim")
EGRESS = ("tas", "ttubs")
DROP_CAUSES = ("attack_dropped", "timeout_discarded", "displaced", "stranded")
EVENT_KINDS = (
    "send", "arrive", "tx_start", "deliver", "shaper_hold", "shaper_release", "shaper_timeout",
    "shaper_displace", "meter_drop", "meter_capture", "meter_queue", "meter_release", "stranded",
)


def _per_layer_units() -> dict[str, str]:
    units = {
        "harness.gen_chain_s": "s",
        "harness.gen_chain_calls": "count",
        "fixtures.load_s": "s",
        "model.expand_s": "s",
        "model.expand_calls_per_solve": "count",
        "model.frame_instances": "count",
        "constraints.build_s": "s",
        "constraints.build_calls_per_solve": "count",
        "constraints.validate_s": "s",
        "constraints.census_s": "s",
    }
    for cat in ("frame", "link", "flow", "e2e", "isolation"):
        units[f"constraints.ground.{cat}"] = "count"
    units["constraints.isolation_share"] = "ratio"
    units.update(
        {
            "smt.child_startup_s": "s",
            "smt.child_s": "s",
            "smt.child_effort_s": "s",
            "smt.child_share": "ratio",
            "smt.encode_s": "s",
            "smt.text_bytes": "bytes",
            "smt.parse_model_s": "s",
            "smt.overhead_s": "s",
            "smtlib_solver.parse_s": "s",
            "smtlib_solver.compile_s": "s",
            "smtlib_solver.highs_s": "s",
            "smtlib_solver.highs_compile_share": "ratio",
            "smtlib_solver.milp_cols": "count",
            "smtlib_solver.milp_rows": "count",
            "smtlib_solver.binaries": "count",
            "smtlib_solver.highs_nodes": "count",
            "lstb.solve_s": "s",
            "lstb.backjumps": "count",
            "lstb.limit_count": "count",
            "lstb.sat_share.nfic": "ratio",
            "lstb.sat_share.fic": "ratio",
            "artifacts.deploy_s": "s",
            "artifacts.gcl_intervals.max": "count",
            "artifacts.gcl_intervals.total": "count",
        }
    )
    for eg in EGRESS:
        units[f"sim.{eg}.run_s"] = "s"
        units[f"sim.{eg}.frames_sent"] = "count"
        units[f"sim.{eg}.frames_delivered"] = "count"
        for cause in DROP_CAUSES:
            units[f"sim.{eg}.drops.{cause}"] = "count"
        for kind in EVENT_KINDS:
            units[f"sim.{eg}.events.{kind}"] = "count"
        units[f"sim.{eg}.events_per_s"] = "1/s"
        units[f"sim.{eg}.host_ns_per_event"] = "ns"
    units["sim.share"] = "ratio"
    for layer in LAYERS:
        units[f"self_s.{layer}"] = "s"
        units[f"self_share.{layer}"] = "ratio"
    units["trace.overhead_share"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# small statistics


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; None below eleven samples."""
    values = sorted(values)
    k = len(values) - 10
    if k < 1:
        return None
    return 100.0 * k / len(values), values[k - 1]


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident set of this process and of its largest finished
    child (a solver child), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, child


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "seed": seed,
    }


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so the
    reference kernel runs where the measured work runs.  The loop is
    serial, so one CPU is all it uses."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Wall time of the reference kernel, the fastest of a few tries.  The
    garbage collector is off meanwhile: its passes over everything the
    process holds would make the kernel's time depend on the program's
    memory."""
    best = math.inf
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(CALIBRATION_TRIES):
            t0 = time.perf_counter()
            table: dict[int, int] = {}
            heap: list[tuple[int, int]] = []
            for i in range(CALIBRATION_ROUNDS):
                k = i * 7919 % 1009
                table[k] = table.get(k, 0) + i
                heapq.heappush(heap, (k, i))
                if len(heap) > 64:
                    heapq.heappop(heap)
            best = min(best, time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return best


def at_reference(fn) -> tuple[float, float]:
    """(wall seconds, seconds at reference speed) of one call of ``fn``."""
    before = calibrate()
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    return wall, wall * 2 * REFERENCE_S / (before + calibrate())


# ---------------------------------------------------------------------------
# running operations


class Loop:
    """Runs operation groups and keeps one record per operation."""

    def __init__(self, workload, checks, trace_dir: Path | None = None, tracer=None):
        self.workload = workload
        self.checks = checks
        self.trace_dir = trace_dir
        self.tracer = tracer
        self.records: list[dict] = []
        self.last_calibration = None

    def run_cycles(self, seconds: float) -> int:
        """The whole cycles of groups that take about ``seconds`` at the
        workload's nominal speed, at least one; returns the group count.
        The count never depends on the host's speed, so the same seed runs
        the same operations, and every input shape of the workload has the
        same weight in every run."""
        groups = max(1, round(seconds / self.workload.cycle_s)) * self.workload.cycle
        for g in range(groups):
            self.run_group(g)
        return groups

    def run_group(self, g: int) -> None:
        for op in self.workload.group(g):
            self.execute(op, f"g{g}.{op.kind}.{op.mode}.{op.fault}")

    def execute(self, op, key: str) -> None:
        trace_path = None
        if self.trace_dir is not None and op.kind == "sim":
            trace_path = str(self.trace_dir / "sim_trace.csv")
        tracer = self.tracer
        error = None
        # the kernel run after one operation is the one before the next
        before = self.last_calibration or calibrate()
        if tracer is not None:
            tracer.op = key
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            with tracer.span(f"bench.{op.kind}") if tracer is not None else contextlib.nullcontext():
                result = op.call(trace_path)
        except Exception as exc:  # an operation failure is counted, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        self.last_calibration = calibrate()
        speed = 2 * REFERENCE_S / (before + self.last_calibration)

        failed_checks = len(self.checks.failures)
        work = 1
        digest = ""
        if error is None:
            error = op.check(result, self.checks)
            if len(self.checks.failures) > failed_checks:
                error = error or self.checks.failures[-1]
            if op.kind == "sim":
                work = sum(m.sent for m in result.metrics.values())
            digest = _digest_of(op, result, trace_path, tracer, key)
        self.records.append(
            {
                "key": key,
                "kind": op.kind,
                "mode": op.mode,
                "cell": op.cell,
                "fault": op.fault,
                "wall_s": wall,
                "ref_s": wall * speed,
                "speed": speed,
                "failed": error is not None,
                "error": error,
                "work": work,
                "digest": digest,
                "status": getattr(result, "status", None),
            }
        )


def _digest_of(op, result, trace_path, tracer, key) -> str:
    """sha256 of the simulator's event trace when one was written (the
    file is removed, and in the traced pass its event kinds counted), else
    of the result's summary."""
    if trace_path is None:
        return hashlib.sha256(op.summary(result).encode()).hexdigest()
    h = hashlib.sha256()
    count_events = tracer is not None
    counts: dict[str, int] = defaultdict(int)
    with open(trace_path, "rb") as fh:
        header = fh.readline()
        h.update(header)
        for line in fh:
            h.update(line)
            if count_events:
                counts[line.split(b",", 3)[2].decode()] += 1
    os.remove(trace_path)
    if count_events:
        tracer.records["sim.events"].append((key, op.mode, dict(counts)))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# end-to-end metrics


def end_to_end(workload, records, setup: dict, rss: tuple[float, float]) -> tuple[dict, dict]:
    """(gated metrics, named report metrics).  Each report entry is
    ``(value, unit, n)``.  The gated times are at reference speed; the
    named figures are host wall time."""
    report: dict[str, tuple] = {
        "setup_s": (setup["ref_s"], "s", SETUP_REPEATS),
        "setup_s.wall": (setup["wall_s"], "s", SETUP_REPEATS),
    }
    busy = sum(r["wall_s"] for r in records)
    by = defaultdict(list)
    groups = defaultdict(list)
    for r in records:
        by[(r["kind"], r["mode"])].append(r)
        groups[r["key"].split(".")[0]].append(r)
    synth = workload.name.startswith("synth")
    # completed work per group (validated solves, or simulated frames) over
    # the group's time; the median group keeps one slow instance or one
    # stall from moving the figure
    group_rates = [
        sum(1 if synth else r["work"] for r in rs if not r["failed"] and r["kind"] in ("sim", "smt"))
        / sum(r["ref_s"] for r in rs)
        for rs in groups.values()
    ]
    if synth:
        nfic, wa = by[("smt", "nfic")], by[("smt", "wa")]
        report["solve_nfic_s.p50"] = (median(r["wall_s"] for r in nfic), "s", len(nfic))
        report["solve_wa_s.p50"] = (median(r["wall_s"] for r in wa), "s", len(wa))
        t = tail(r["wall_s"] for r in nfic + wa)
        report["solve_s.tail"] = (
            (t[1], "s", len(nfic + wa), f"p{t[0]:.1f}") if t else (None, "s", len(nfic + wa), "fewer than 11 samples")
        )
        solved = sum(1 for r in nfic + wa if not r["failed"])
        report["solves_per_s"] = (solved / busy, "1/s", solved)
        lstb = [r["wall_s"] for r in by[("lstb", "nfic")] + by[("lstb", "fic")]]
        report["lstb_s.p50"] = (median(lstb), "s", len(lstb))
        cens = [r["wall_s"] for r in by[("census", "wa")] + by[("census", "nfic")]]
        report["census_s.p50"] = (median(cens), "s", len(cens))
        shaped = median(r["ref_s"] for r in nfic) * 1e3
        gated = median(r["ref_s"] for r in wa) * 1e3
    else:
        per_kframe = {}
        for eg in EGRESS:
            rs = [r for r in by[("sim", eg)] if not r["failed"] and r["work"]]
            frames = sum(r["work"] for r in rs)
            secs = sum(r["wall_s"] for r in rs)
            report[f"sim_{eg}_frames_per_s"] = (frames / secs if secs else 0.0, "1/s", len(rs))
            report[f"sim_{eg}_ms_per_kframe.p50"] = (median(r["wall_s"] / r["work"] * 1e6 for r in rs), "ms", len(rs))
            per_kframe[eg] = median(r["ref_s"] / r["work"] * 1e6 for r in rs)
        shaped, gated = per_kframe["ttubs"], per_kframe["tas"]
    report["throughput_per_s.group_p50"] = (median(group_rates), "1/s", len(group_rates))
    report["host_speed.p50"] = (median(r["speed"] for r in records) / REFERENCE_S, "1/s", len(records))
    failed = sum(1 for r in records if r["failed"])
    report["error_share"] = (failed / len(records), "ratio", len(records))
    own, child = rss
    report["peak_rss_mb"] = (own + child, "MB", 1)
    report["peak_rss_mb.self"] = (own, "MB", 1)
    report["peak_rss_mb.children"] = (child, "MB", 1)
    metrics = {
        "setup_s": setup["ref_s"],
        "shaped_ms": shaped,
        "gated_ms": gated,
        "throughput_per_s": median(group_rates),
        "peak_rss_mb": own + child,
    }
    return metrics, report


def paper_quantities(workload, records) -> dict:
    """Census per category for each scenario, and the nfic/wa median solve
    time ratio per cell: recorded as counts, never gated."""
    out: dict = {}
    rows = getattr(workload, "census_rows", None)
    if rows:
        out["census"] = [{"scenario": sc, "mode": mode, **counts} for (sc, mode), counts in sorted(rows.items())]
    cells = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["kind"] == "smt":
            cells[r["cell"]][r["mode"]].append(r["wall_s"])
    if cells:
        out["nfic_wa_ratio"] = {
            cell: {
                "ratio": median(m["nfic"]) / median(m["wa"]) if m["wa"] and m["nfic"] else None,
                "n_nfic": len(m["nfic"]),
                "n_wa": len(m["wa"]),
            }
            for cell, m in sorted(cells.items())
        }
    return out


# ---------------------------------------------------------------------------
# runs


# what the benchmark imports before it can set up a workload
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; "
    "from ttubs import artifacts, constraints, fixtures, harness, lstb, sim, smt; "
    "print(time.perf_counter() - t0)"
)


def import_probe() -> None:
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, check=True)


def run_plain(workload, seconds: float) -> dict:
    from workloads import Checks

    checks = Checks()
    setups = [at_reference(workload.setup) for _ in range(SETUP_REPEATS)]
    if hasattr(workload, "check_setup"):
        workload.check_setup(checks)
    loop = Loop(workload, checks)
    groups = loop.run_cycles(seconds)
    # read before the import probes, whose interpreters would count as
    # children of the benchmark
    rss = peak_rss_mb()
    imports = [at_reference(import_probe) for _ in range(SETUP_REPEATS)]
    # set-up time: a fresh interpreter's imports plus the workload's set-up,
    # the median of each
    setup = {
        unit: median(i[k] for i in imports) + median(s[k] for s in setups)
        for k, unit in enumerate(("wall_s", "ref_s"))
    }
    gated, report = end_to_end(workload, loop.records, setup, rss)
    return {
        "metrics": {name: gated[name] for name in END_TO_END},
        "units": END_TO_END,
        "report": report,
        "records": loop.records,
        "checks": checks,
        "groups": groups,
        "paper": paper_quantities(workload, loop.records),
    }


def run_traced(workload, seconds: float, seed: int, probe_repeats: int) -> dict:
    import tracing
    from workloads import Checks

    checks = Checks()
    tracer = tracing.Tracer()
    tracer.install(_hooks())
    trace_dir = OUT / f"traced_{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        tracer.op = "setup"
        tracer.enabled = True
        workload.setup()
        tracer.enabled = False
        if hasattr(workload, "check_setup"):
            workload.check_setup(checks)

        first = Loop(workload, checks, trace_dir)
        groups = first.run_cycles(seconds * TRACED_PASS_SHARE)
        second = Loop(workload, checks, trace_dir, tracer)
        for g in range(groups):
            second.run_group(g)
        for a, b in zip(first.records, second.records):
            if not (a["failed"] or b["failed"]):
                checks.expect("trace_digest_repeat", a["digest"] == b["digest"], f"{a['key']}: two passes differ")

        _rerun_in_process(tracer, second.records, checks, seconds * TRACED_PASS_SHARE)
        probe = _startup_probe(probe_repeats) if workload.name.startswith("synth") else []
    finally:
        tracer.enabled = False
        tracer.uninstall()
        shutil.rmtree(trace_dir, ignore_errors=True)

    metrics, counts = per_layer(tracer, first.records, second.records, probe)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans_{workload.name}_seed{seed}.jsonl")
    return {
        "metrics": metrics,
        "units": PER_LAYER,
        "report": {name: (metrics[name], PER_LAYER[name], counts.get(name, 0)) for name in PER_LAYER},
        "records": first.records + second.records,
        "checks": checks,
        "groups": groups,
        "paper": paper_quantities(workload, second.records),
    }


def _rerun_in_process(tracer, records, checks, budget_s: float) -> None:
    """The solver child's own phases: run the bundled solver in-process on
    the texts the traced pass encoded, while the budget lasts (at least
    once when any text exists)."""
    from ttubs import smtlib_solver

    verdict = {r["key"]: r["status"] for r in records if r["kind"] == "smt" and not r["failed"]}
    start = time.perf_counter()
    for key, text in tracer.records["smt.text"]:
        if key not in verdict:
            continue
        if tracer.records["rerun"] and time.perf_counter() - start > budget_s:
            break
        tracer.op = f"rerun.{key}"
        tracer.records["rerun"].append(key)
        out = io.StringIO()
        tracer.enabled = True
        try:
            smtlib_solver.run(text, out)
        finally:
            tracer.enabled = False
        answer = out.getvalue().split()[:1]
        checks.expect("inprocess_verdict", answer == [verdict[key]], f"{key}: {answer} vs child {verdict[key]}")


def _startup_probe(repeats: int) -> list[float]:
    """Wall time of the bundled solver child on a trivial problem."""
    from ttubs.smt import default_solver_command

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(default_solver_command(), input=PROBE_TEXT, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if not proc.stdout.startswith("sat"):
            raise RuntimeError(f"startup probe failed: {proc.stdout!r} {proc.stderr[:200]!r}")
    return times


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass


def _hooks() -> dict:
    def expand(tr, sid, args, kwargs, result):
        tr.records["model.frame_instances"].append(len(result))

    def build(tr, sid, args, kwargs, result):
        counts = defaultdict(int)
        for gc in result.constraints:
            counts[gc.category] += 1
        tr.records["constraints.ground"].append(dict(counts))

    def encode(tr, sid, args, kwargs, result):
        tr.records["smt.text"].append((tr.op, result))

    def solve(tr, sid, args, kwargs, result):
        tr.records["smt.solve"].append((tr.duration(sid), result.solve_time_s))

    def lstb(tr, sid, args, kwargs, result):
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "nfic")
        tr.records["lstb"].append((mode, result.status, result.backjumps))

    def deploy(tr, sid, args, kwargs, result):
        tr.records["artifacts.gcl"].append([len(g.intervals) for g in result.gcls.values()])

    def sim_run(tr, sid, args, kwargs, result):
        config = args[0]
        tr.records["sim.run"].append(
            (
                config.egress_mode,
                tr.duration(sid),
                sum(m.sent for m in result.metrics.values()),
                sum(m.delivered for m in result.metrics.values()),
                {c: sum(m.drops[c] for m in result.metrics.values()) for c in DROP_CAUSES},
            )
        )

    def milp(tr, sid, args, kwargs, result):
        bounds = kwargs.get("bounds")
        cons = kwargs.get("constraints")
        cols = len(kwargs["c"])
        binaries = int(((bounds.lb == 0) & (bounds.ub == 1)).sum()) if bounds is not None else 0
        tr.records["milp"].append(
            (tr.op, cols, cons.A.shape[0] if cons is not None else 0, binaries, getattr(result, "mip_node_count", 0) or 0)
        )

    return {
        "model.expand_frame_instances": expand,
        "constraints.build_constraint_set": build,
        "smt.encode": encode,
        "smt.solve": solve,
        "lstb.lstb_solve": lstb,
        "artifacts.build_deployment": deploy,
        "sim.run": sim_run,
        "smtlib_solver.milp": milp,
    }


def per_layer(tracer, first_records, second_records, probe) -> tuple[dict, dict]:
    """(metric values, sample counts) for every per-layer metric; a layer
    that did no work reports 0."""
    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    n: dict[str, int] = {}
    rec = tracer.records
    ops = {r["key"] for r in second_records}
    smt_ops = {r["key"] for r in second_records if r["kind"] == "smt"}
    n_solves = len(smt_ops)

    def put(name, values, fn=median):
        values = list(values)
        n[name] = len(values)
        if values:
            m[name] = float(fn(values))

    def count_in(name, keys):
        return sum(1 for s in tracer.spans if s[0] == name and s[4] in keys)

    put("harness.gen_chain_s", tracer.durations("harness.gen_chain"))
    m["harness.gen_chain_calls"] = n["harness.gen_chain_calls"] = n["harness.gen_chain_s"]

    # outermost fixtures spans per operation
    fixture_time = defaultdict(float)
    for name, t0, t1, parent, op in tracer.spans:
        if name.startswith("fixtures.") and (parent is None or not tracer.spans[parent][0].startswith("fixtures.")):
            fixture_time[op] += t1 - t0
    put("fixtures.load_s", fixture_time.values())

    put("model.expand_s", tracer.durations("model.expand_frame_instances"))
    if n_solves:
        m["model.expand_calls_per_solve"] = count_in("model.expand_frame_instances", smt_ops) / n_solves
        m["constraints.build_calls_per_solve"] = count_in("constraints.build_constraint_set", smt_ops) / n_solves
        n["model.expand_calls_per_solve"] = n["constraints.build_calls_per_solve"] = n_solves
    put("model.frame_instances", rec["model.frame_instances"])
    put("constraints.build_s", tracer.durations("constraints.build_constraint_set"))
    put("constraints.validate_s", tracer.durations("constraints.validate_schedule"))
    put("constraints.census_s", tracer.durations("constraints.census"))
    ground = rec["constraints.ground"]
    for cat in ("frame", "link", "flow", "e2e", "isolation"):
        put(f"constraints.ground.{cat}", [g.get(cat, 0) for g in ground], statistics.fmean)
    total = sum(sum(g.values()) for g in ground)
    if total:
        m["constraints.isolation_share"] = sum(g.get("isolation", 0) for g in ground) / total
    n["constraints.isolation_share"] = len(ground)

    solves = rec["smt.solve"]
    put("smt.child_startup_s", probe)
    put("smt.child_s", [c for _, c in solves])
    if solves and probe:
        m["smt.child_effort_s"] = m["smt.child_s"] - m["smt.child_startup_s"]
        n["smt.child_effort_s"] = len(solves)
    if solves:
        m["smt.child_share"] = sum(c for _, c in solves) / sum(w for w, _ in solves)
        n["smt.child_share"] = len(solves)
    put("smt.encode_s", tracer.durations("smt.encode"))
    put("smt.text_bytes", [len(t) for k, t in rec["smt.text"] if k in ops])
    put("smt.parse_model_s", tracer.durations("smt.parse_model"))
    put("smt.overhead_s", [w - c for w, c in solves])

    # in-process re-run of the solver child's work
    reruns = set(f"rerun.{k}" for k in rec["rerun"])
    parse, compile_, highs = defaultdict(float), defaultdict(float), defaultdict(float)
    for name, t0, t1, parent, op in tracer.spans:
        if op not in reruns:
            continue
        if name in ("smtlib_solver.tokenize", "smtlib_solver.parse_sexprs"):
            parse[op] += t1 - t0
        elif name == "smtlib_solver.solve_instance":
            compile_[op] += t1 - t0
        elif name == "smtlib_solver.milp":
            highs[op] += t1 - t0
            compile_[op] -= t1 - t0
    put("smtlib_solver.parse_s", parse.values())
    put("smtlib_solver.compile_s", compile_.values())
    put("smtlib_solver.highs_s", highs.values())
    solve_wall = {r["key"]: r["wall_s"] for r in second_records}
    rerun_wall = sum(solve_wall[k] for k in rec["rerun"])
    if rerun_wall:
        m["smtlib_solver.highs_compile_share"] = (sum(highs.values()) + sum(compile_.values())) / rerun_wall
        n["smtlib_solver.highs_compile_share"] = len(reruns)
    milps = [x for x in rec["milp"] if x[0] in reruns]
    for i, name in enumerate(("milp_cols", "milp_rows", "binaries", "highs_nodes"), start=1):
        put(f"smtlib_solver.{name}", [x[i] for x in milps])

    lstb = rec["lstb"]
    put("lstb.solve_s", tracer.durations("lstb.lstb_solve"))
    put("lstb.backjumps", [b for _, _, b in lstb])
    m["lstb.limit_count"] = sum(1 for _, s, _ in lstb if s == "limit")
    n["lstb.limit_count"] = len(lstb)
    for mode in ("nfic", "fic"):
        runs = [s for md, s, _ in lstb if md == mode]
        put(f"lstb.sat_share.{mode}", [s == "sat" for s in runs], statistics.fmean)

    put("artifacts.deploy_s", tracer.durations("artifacts.build_deployment"))
    gcls = rec["artifacts.gcl"]
    if gcls:
        m["artifacts.gcl_intervals.max"] = max(max(g, default=0) for g in gcls)
        m["artifacts.gcl_intervals.total"] = max(sum(g) for g in gcls)
    n["artifacts.gcl_intervals.max"] = n["artifacts.gcl_intervals.total"] = len(gcls)

    events = defaultdict(lambda: defaultdict(int))
    for _, mode, counts in rec["sim.events"]:
        for kind, c in counts.items():
            events[mode][kind] += c
    for eg in EGRESS:
        runs = [x for x in rec["sim.run"] if x[0] == eg]
        put(f"sim.{eg}.run_s", [x[1] for x in runs])
        m[f"sim.{eg}.frames_sent"] = sum(x[2] for x in runs)
        m[f"sim.{eg}.frames_delivered"] = sum(x[3] for x in runs)
        for cause in DROP_CAUSES:
            m[f"sim.{eg}.drops.{cause}"] = sum(x[4][cause] for x in runs)
        unknown = set(events[eg]) - set(EVENT_KINDS)
        if unknown:
            raise RuntimeError(f"unexpected simulator event kinds {sorted(unknown)}")
        for kind in EVENT_KINDS:
            m[f"sim.{eg}.events.{kind}"] = events[eg][kind]
        n_events = sum(events[eg].values())
        busy = sum(x[1] for x in runs)
        if n_events and busy:
            m[f"sim.{eg}.events_per_s"] = n_events / busy
            m[f"sim.{eg}.host_ns_per_event"] = busy / n_events * 1e9
        for key in PER_LAYER:
            if key.startswith(f"sim.{eg}.") and key not in n:
                n[key] = len(runs)

    op_time = sum(r["wall_s"] for r in second_records)
    self_s = tracer.self_times(ops)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = self_s.get(layer, 0.0)
        m[f"self_share.{layer}"] = self_s.get(layer, 0.0) / op_time if op_time else 0.0
        n[f"self_s.{layer}"] = n[f"self_share.{layer}"] = len(second_records)
    m["sim.share"] = m["self_share.sim"]
    n["sim.share"] = len(second_records)
    # the same operation in both passes, at reference speed so that a
    # change of host speed between them does not count as tracing cost;
    # the median pair keeps one slow operation from deciding the figure
    pairs = [b["ref_s"] / a["ref_s"] for a, b in zip(first_records, second_records) if a["ref_s"]]
    if pairs:
        m["trace.overhead_share"] = median(pairs) - 1.0
    n["trace.overhead_share"] = len(pairs)
    return m, n


# ---------------------------------------------------------------------------
# entry point


def _load_program() -> None:
    """Import ttubs from this checkout's ``src``; child processes import it
    from the same place."""
    if not (SRC / "ttubs" / "__init__.py").is_file():
        raise ImportError(f"no ttubs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ttubs

    if Path(ttubs.__file__).resolve().parent != (SRC / "ttubs").resolve():
        raise ImportError(f"ttubs imported from {ttubs.__file__}, not {SRC}")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # the bundled solver is what the benchmark measures
    os.environ.pop("TTUBS_SMT_SOLVER", None)


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import workloads

    wl = workloads.make(name, seed, tiny)
    env = environment(seed)
    pin_to_one_cpu()
    if trace:
        res = run_traced(wl, seconds, seed, 1 if tiny else PROBE_REPEATS)
    else:
        res = run_plain(wl, seconds)
    env["loadavg_after"] = os.getloadavg()
    checks = res["checks"]
    failed = sum(1 for r in res["records"] if r["failed"])
    result = {
        "workload": name,
        "why": wl.why,
        "trace": int(trace),
        "seconds": seconds,
        "environment": env,
        "groups": res["groups"],
        "correct": not checks.failures,
        "attempted": len(res["records"]),
        "failed": failed,
        "checks": dict(sorted(checks.runs.items())),
        "check_failures": checks.failures[:20],
        "errors": [r["error"] for r in res["records"] if r["error"]][:20],
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()},
        "report": {k: list(v) for k, v in res["report"].items()},
        "paper": res["paper"],
        "records": [
            {k: r[k] for k in ("key", "cell", "wall_s", "ref_s", "work", "status", "error")} for r in res["records"]
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    return result


def print_report(result: dict) -> None:
    print(f"# workload {result['workload']} (trace {result['trace']}): {result['why']}")
    env = result["environment"]
    print(
        f"# python {env['python']} numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']} "
        f"seed {env['seed']} loadavg {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}"
    )
    for name, entry in result["report"].items():
        value, unit, n = entry[:3]
        note = f" {entry[3]}" if len(entry) > 3 else ""
        shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
        print(f"{name} = {shown} {unit} n={n}{note}")
    print(f"# groups {result['groups']} attempted {result['attempted']} failed {result['failed']}")
    print(f"# checks {result['checks']}")
    for failure in result["check_failures"] + result["errors"]:
        print(f"# FAIL {failure}")
    paper = result["paper"]
    for cell, r in paper.get("nfic_wa_ratio", {}).items():
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}"
        print(f"# nfic/wa median solve time {cell}: {ratio} (n {r['n_nfic']}/{r['n_wa']})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every input (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        _load_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        # each workload in its own process, one after another
        results = []
        for name in workloads.NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
                return 1
            results.append((name, json.loads(lines[-1])))
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{k}": v for name, r in results for k, v in r["metrics"].items()},
        }))
        return 0
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)} or all")

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print_report(result)
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    if any(not math.isfinite(v["value"]) for v in final["metrics"].values()):
        print("bench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
