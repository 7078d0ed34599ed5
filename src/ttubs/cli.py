"""Command-line interface.

Subcommands: gen-chain, census, solve, simulate, replay, study-census,
study-solvers, report.  All outputs are CSV or JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import shlex
import sys
from pathlib import Path

from . import fixtures
from .constraints import census
from .harness import (
    FAULT_PRESETS,
    ChainSpec,
    ExperimentPlan,
    fault_preset,
    gen_chain,
    metrics_csv,
    replay,
    replay_fixture,
    report_census,
    report_metrics,
    rows_to_csv,
    run_census_study,
    run_solver_study,
)
from .lstb import LstbLimits, lstb_solve
from .model import InvalidInputError, load_scenario, save_scenario
from .schedule import load_schedule, save_schedule
from .sim import AttackConfig
from .smt import SolveRequest, solve


NS_PER_S = 1_000_000_000


def _ns(text: str, ns_per_unit: int = NS_PER_S) -> int:
    """Whole nanoseconds of ``text``, a time in seconds (or in units of
    ``ns_per_unit`` ns).  A time that is not finite or is negative is an
    argparse error."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"time {text!r} must be finite and >= 0")
    return int(value * ns_per_unit)


def _parse_attack(text: str) -> AttackConfig:
    """type,switch,src>dst,start_us,count[,delay_us][,stream] — attack type
    1/drop discards, 2/delay holds for delay_us; switch must be dst."""
    parts = text.split(",")
    if len(parts) < 5:
        raise argparse.ArgumentTypeError(
            "attack needs type,switch,src>dst,start_us,count[,delay_us][,stream]"
        )
    kind = {"1": "drop", "2": "delay", "drop": "drop", "delay": "delay"}.get(parts[0])
    if kind is None:
        raise argparse.ArgumentTypeError(f"unknown attack type {parts[0]!r}")
    src, _, dst = parts[2].partition(">")
    if parts[1] != dst:
        raise argparse.ArgumentTypeError(f"switch {parts[1]} is not the far end of ingress {src}->{dst}")
    delay = parts[5] if kind == "delay" and len(parts) > 5 else "0"
    stream = None
    if kind == "delay" and len(parts) > 6:
        stream = parts[6]
    elif kind == "drop" and len(parts) > 5:
        stream = parts[5]
    return AttackConfig(
        ingress=(src, dst),
        attack_type=kind,
        startup_time_ns=_ns(parts[3], 1000),
        frame_count=int(parts[4]),
        delay_time_ns=_ns(delay, 1000),
        match_stream=stream,
    )


def _write(path: str | None, text: str) -> None:
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="ttubs", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-chain", help="generate a random chained-topology scenario")
    g.add_argument("--switches", type=int, required=True)
    g.add_argument("--streams", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)

    c = sub.add_parser("census", help="count ground constraints of a scenario")
    c.add_argument("scenario")
    c.add_argument("--mode", choices=["wa", "nfic"], default="wa")
    c.add_argument("--csv", action="store_true", help="emit a CSV row instead of JSON")

    s = sub.add_parser("solve", help="solve a schedule for a scenario")
    s.add_argument("scenario")
    s.add_argument("--engine", choices=["smt", "lstb"], default="smt")
    s.add_argument("--mode", choices=["wa", "nfic", "fic"], default="nfic")
    s.add_argument("--solver-cmd", default=None, help="external solver command (smt engine)")
    s.add_argument("--timeout-s", type=_ns, default="300", dest="timeout_ns", metavar="SECONDS")
    s.add_argument("--out", default=None)

    m = sub.add_parser("simulate", help="validate, deploy and simulate a schedule")
    m.add_argument("scenario")
    m.add_argument("schedule")
    m.add_argument("--mode", choices=["wa", "nfic"], default="nfic", help="validation mode for the schedule")

    r = sub.add_parser("replay", help="replay a bundled fixture schedule")
    r.add_argument("fixture", choices=list(fixtures.FIXTURE_NAMES))
    r.add_argument("--fault", choices=list(FAULT_PRESETS), default="none")
    for q in (m, r):
        q.add_argument("--egress", choices=["tas", "ttubs"], default="ttubs")
        q.add_argument("--attack", action="append", default=[], type=_parse_attack)
        q.add_argument("--seed", type=int, default=1)
        q.add_argument("--duration-s", type=_ns, default="10", dest="duration_ns", metavar="SECONDS")
        q.add_argument("--trace", default=None, help="write the event trace CSV here")
        q.add_argument("--out", default=None, help="write per-stream metrics CSV here")

    sc_ = sub.add_parser("study-census", help="constraint-count scaling sweep")
    sc_.add_argument("--switches", type=_int_list, default=(1, 10))
    sc_.add_argument("--streams", type=_int_list, default=(5, 95))
    sc_.add_argument("--reps", type=int, default=50, help="repetitions per cell (the paper used 500)")
    sc_.add_argument("--seed", type=int, default=0)
    sc_.add_argument("--workers", type=int, default=4)
    sc_.add_argument("--out", default=None)

    ss = sub.add_parser("study-solvers", help="solve-time sweep, both engines and modes")
    ss.add_argument("--switches", type=_int_list, default=(2, 3, 4, 5))
    ss.add_argument("--streams", type=_int_list, default=(5, 10, 15, 20, 25))
    ss.add_argument("--reps", type=int, default=5, help="repetitions per cell (the paper used 50)")
    ss.add_argument("--timeout-s", type=_ns, default="300", dest="timeout_ns", metavar="SECONDS")
    ss.add_argument("--seed", type=int, default=0)
    ss.add_argument("--workers", type=int, default=4)
    ss.add_argument("--out", default=None)

    rp = sub.add_parser("report", help="aggregate study CSVs or replay results into tables")
    rp.add_argument("--census", default=None, help="census study CSV to pivot")
    rp.add_argument("--replay-matrix", action="store_true",
                    help="replay table3 under both egress modes and fault cases")
    rp.add_argument("--duration-s", type=_ns, default="10", dest="duration_ns", metavar="SECONDS")
    rp.add_argument("--seed", type=int, default=1)
    rp.add_argument("--out", default=None)

    args = p.parse_args(argv)
    try:
        return _run(p, args)
    except (InvalidInputError, OSError) as err:
        # one line in argparse's error format, as for a malformed option
        p.exit(2, f"{p.prog} {args.cmd}: error: {err}\n")


def _run(p: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.cmd == "gen-chain":
        scenario = gen_chain(ChainSpec(args.switches, args.streams, rng_seed=args.seed))
        if args.out:
            save_scenario(scenario, args.out)
            print(f"wrote {args.out}")
        else:
            json.dump(
                {"name": scenario.name, "devices": len(scenario.nodes), "streams": len(scenario.streams)},
                sys.stdout,
            )
            print()
        return 0

    if args.cmd == "census":
        scenario = load_scenario(args.scenario)
        counts = census(scenario, args.mode).as_dict()
        if args.csv:
            print("scenario,devices,streams," + ",".join(counts))
            row = [scenario.name, len(scenario.nodes), len(scenario.streams), *counts.values()]
            print(",".join(map(str, row)))
        else:
            print(json.dumps(counts))
        return 0

    if args.cmd == "solve":
        scenario = load_scenario(args.scenario)
        if args.engine == "smt":
            mode = "wa" if args.mode == "fic" else args.mode
            cmd = shlex.split(args.solver_cmd) if args.solver_cmd else None
            out = solve(SolveRequest(scenario, mode, args.timeout_ns / NS_PER_S, cmd))
            print(f"status={out.status} time_s={out.solve_time_s:.3f} constraints={out.constraint_census.total}")
            sched = out.schedule
        else:
            mode = "fic" if args.mode in ("fic", "wa") else "nfic"
            res = lstb_solve(scenario, mode, LstbLimits(wall_clock_s=args.timeout_ns / NS_PER_S))
            print(f"status={res.status} time_s={res.solve_time_s:.3f} backjumps={res.backjumps}")
            sched = res.schedule
        if sched is not None and args.out:
            save_schedule(sched, args.out)
            print(f"wrote {args.out}")
        return 0 if sched is not None else 1

    if args.cmd in ("simulate", "replay"):
        if args.cmd == "simulate":
            scenario, sched = load_scenario(args.scenario), load_schedule(args.schedule)
            faults = tuple(args.attack)
            rep = replay(scenario, sched, args.mode, args.egress, faults, args.seed, args.duration_ns, args.trace)
        else:
            faults = fault_preset(args.fault) + tuple(args.attack)
            rep = replay_fixture(args.fixture, args.egress, faults, args.seed, args.duration_ns, args.trace)
        if not rep.validation_ok:
            print(f"schedule invalid ({len(rep.violations)} violations), first: {rep.violations[0].label}")
            return 1
        if args.cmd == "replay":
            print(
                f"fixture={rep.fixture} validation=ok"
                + (f" filled={rep.partial_fill}" if rep.partial_fill else "")
                + f" requirements={'met' if rep.requirements_met else 'VIOLATED'}"
                + f" shaper_discards={rep.shaper_discards}"
            )
        _write(args.out, metrics_csv(rep.metrics))
        return 0

    if args.cmd == "study-census":
        plan = ExperimentPlan(
            switch_counts=args.switches,
            stream_counts=args.streams,
            repetitions=args.reps,
            rng_seed=args.seed,
            workers=args.workers,
        )
        _write(args.out, rows_to_csv(run_census_study(plan)))
        return 0

    if args.cmd == "study-solvers":
        plan = ExperimentPlan(
            switch_counts=args.switches,
            stream_counts=args.streams,
            repetitions=args.reps,
            timeout_s=args.timeout_ns / NS_PER_S,
            rng_seed=args.seed,
            workers=args.workers,
        )
        _write(args.out, rows_to_csv(run_solver_study(plan)))
        return 0

    if args.cmd == "report":
        if args.census:
            columns = {"devices": int, "streams": int, "mean_total": float}
            with open(args.census) as fh:
                reader = csv.DictReader(fh)
                missing = [c for c in columns if c not in (reader.fieldnames or ())]
                if missing:
                    raise InvalidInputError(f"{args.census} has no {missing[0]!r} column")
                rows = []
                for row in reader:
                    try:  # a short row leaves its last cells None
                        rows.append({c: read(row[c] or "") for c, read in columns.items()})
                    except ValueError as err:
                        raise InvalidInputError(f"{args.census} row {reader.line_num}: {err}") from None
            _write(args.out, report_census(rows))
            return 0
        if args.replay_matrix:
            cases = [(e, f) for e in ("tas", "ttubs") for f in ("none", "loss", "timeout")]
            cases.append(("ttubs", "timeout-long"))
            reports = [replay_fixture("table3", e, fault_preset(f), args.seed, args.duration_ns) for e, f in cases]
            _write(args.out, report_metrics(reports))
            return 0
        p.error("report needs --census or --replay-matrix")

    return 2


if __name__ == "__main__":
    sys.exit(main())
