import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ttubs import harness
from ttubs.cli import main
from ttubs.constraints import census
from ttubs.harness import (
    ChainSpec,
    ExperimentPlan,
    fault_preset,
    gen_chain,
    replay,
    replay_fixture,
    report_census,
    report_metrics,
    rows_to_csv,
    run_census_study,
    run_solver_study,
)
from ttubs.model import load_scenario, save_scenario
from ttubs.schedule import Schedule, save_schedule

US = 1_000


def test_gen_chain_shapes():
    sc = gen_chain(ChainSpec(1, 5, rng_seed=11))
    assert len(sc.nodes) == 4
    assert len(sc.streams) == 5
    sc10 = gen_chain(ChainSpec(10, 95, rng_seed=11))
    assert len(sc10.nodes) == 40


def test_gen_chain_empty_traffic_valid():
    sc = gen_chain(ChainSpec(1, 0))
    assert census(sc, "wa").total == 0


def test_gen_chain_deterministic():
    assert gen_chain(ChainSpec(3, 20, rng_seed=5)) == gen_chain(ChainSpec(3, 20, rng_seed=5))
    assert gen_chain(ChainSpec(3, 20, rng_seed=5)) != gen_chain(ChainSpec(3, 20, rng_seed=6))


def test_gen_chain_stream_attributes():
    sc = gen_chain(ChainSpec(4, 30, rng_seed=2))
    for s in sc.streams:
        assert s.payload_min == s.payload_max
        assert s.payload_max in (400, 600, 800, 1000, 1500)
        assert s.period_ns in (10_000_000, 20_000_000)
        assert s.e2e_deadline_ns == s.period_ns
        assert s.jitter_req_ns == s.period_ns // 10
        # route walks the chain without detours
        assert len(s.route) == len({k for k in s.route}) and len(s.route) >= 2


def test_census_study_rows():
    plan = ExperimentPlan((1,), (5,), repetitions=3, rng_seed=1, workers=1)
    rows = run_census_study(plan)
    assert len(rows) == 1
    row = rows[0]
    assert row["devices"] == 4 and row["streams"] == 5
    assert row["mean_total"] == pytest.approx(row["mean_total_nfic"] + row["mean_isolation"])
    text = rows_to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["devices"] == "4"


def test_solver_study_rows():
    plan = ExperimentPlan((1,), (3,), repetitions=1, timeout_s=60, rng_seed=4, workers=1)
    rows = run_solver_study(plan)
    assert {r["engine"] for r in rows} == {"smt", "lstb"}
    assert {r["mode"] for r in rows} == {"wa", "nfic", "fic"}
    smt_rows = [r for r in rows if r["engine"] == "smt"]
    assert all(r["status"] in ("sat", "unsat", "timeout") for r in smt_rows)


def test_both_studies_draw_one_scenario_per_cell():
    plan = ExperimentPlan((1, 2), (3, 5), repetitions=1, timeout_s=60, rng_seed=7, workers=1)
    census_rows = run_census_study(plan)
    wa = [r for r in run_solver_study(plan) if (r["engine"], r["mode"]) == ("smt", "wa")]
    assert [(r["devices"], r["streams"]) for r in wa] == [(r["devices"], r["streams"]) for r in census_rows]
    assert [r["census_total"] for r in wa] == [r["mean_total"] for r in census_rows]


def test_replay_table3_ttubs():
    rep = replay_fixture("table3", "ttubs", (), 1, 2_000_000)
    assert rep.validation_ok and rep.requirements_met
    assert rep.partial_fill == []


def test_replay_table7_partial():
    rep = replay_fixture("table7", "ttubs", (), 1, 2_000_000)
    assert rep.validation_ok
    assert rep.partial_fill == [("radar", ("SW2", "SW1"), 0, 4_000)]
    assert rep.requirements_met


def test_replay_table3_tas_delay_violates():
    rep = replay_fixture("table3", "tas", fault_preset("timeout"), 1, 10_000_000)
    assert not rep.requirements_met


def test_replay_table8_long_delay():
    rep = replay_fixture("table8", "ttubs", fault_preset("timeout-long"), 1, 10_000_000)
    assert rep.requirements_met
    assert rep.shaper_discards >= 2


def _table6_cam1_queue_9(table6):
    bad = Schedule(offsets=dict(table6.offsets), queues=dict(table6.queues))
    bad.queues[("cam1", ("SW2", "SW1"))] = 9
    return bad


def test_replay_never_simulates_invalid_schedule(adas, table6, monkeypatch, tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("an invalid schedule reached sim.run")

    monkeypatch.setattr(harness, "run", no_run)
    bad = _table6_cam1_queue_9(table6)
    for mode in ("wa", "nfic"):
        rep = replay(adas, bad, mode, "tas", (), 1, 2_000_000, str(tmp_path / "trace.csv"))
        assert [v.category for v in rep.violations] == ["domain"], mode
        assert not rep.validation_ok and not rep.requirements_met
        assert rep.metrics == {}
    assert not (tmp_path / "trace.csv").exists()


def test_cli_simulate_refuses_invalid_schedule(adas, table6, tmp_path, capsys):
    save_scenario(adas, tmp_path / "adas.json")
    save_schedule(_table6_cam1_queue_9(table6), tmp_path / "bad.json")
    out_path = tmp_path / "m.csv"
    code = main(["simulate", str(tmp_path / "adas.json"), str(tmp_path / "bad.json"),
                 "--mode", "wa", "--egress", "tas", "--duration-s", "0.002", "--out", str(out_path)])
    assert code == 1
    assert capsys.readouterr().out == (
        "schedule invalid (1 violations), first: domain[cam1@SW2->SW1: queue 9 not in 0..7]\n"
    )
    assert not out_path.exists()


def test_fault_presets():
    assert fault_preset("none") == ()
    assert fault_preset("loss")[0].attack_type == "drop"
    assert fault_preset("timeout")[0].delay_time_ns == 10_000
    assert fault_preset("timeout-long")[0].delay_time_ns == 221_000


def test_report_csvs():
    rows = [
        {"devices": 4, "streams": 5, "mean_total": 60.0},
        {"devices": 8, "streams": 5, "mean_total": 80.0},
    ]
    pivot = report_census(rows)
    assert "devices \\ streams" in pivot
    rep = replay_fixture("table3", "ttubs", (), 1, 2_000_000)
    text = report_metrics([rep])
    assert "fixture,egress,stream" in text.splitlines()[0]


# ---------------------------------------------------------------------------
# command line

def test_cli_full_pipeline(tmp_path, capsys):
    scenario_path = tmp_path / "chain.json"
    assert main(["gen-chain", "--switches", "2", "--streams", "4", "--seed", "3", "--out", str(scenario_path)]) == 0
    sc = load_scenario(scenario_path)

    assert main(["census", str(scenario_path), "--mode", "wa"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out.splitlines()[-1])
    assert doc["total"] == census(sc, "wa").total

    sched_path = tmp_path / "sched.json"
    assert main(["solve", str(scenario_path), "--engine", "lstb", "--mode", "nfic", "--out", str(sched_path)]) == 0
    metrics_path = tmp_path / "metrics.csv"
    assert main([
        "simulate", str(scenario_path), str(sched_path),
        "--egress", "ttubs", "--seed", "2", "--duration-s", "0.05",
        "--out", str(metrics_path),
    ]) == 0
    rows = list(csv.DictReader(metrics_path.read_text().splitlines()))
    assert len(rows) == 4
    assert all(int(r["deadline_violations"]) == 0 for r in rows)


def test_cli_solve_smt(tmp_path, capsys):
    scenario_path = tmp_path / "chain.json"
    main(["gen-chain", "--switches", "1", "--streams", "2", "--seed", "1", "--out", str(scenario_path)])
    sched_path = tmp_path / "sched.json"
    assert main(["solve", str(scenario_path), "--engine", "smt", "--mode", "nfic",
                 "--timeout-s", "60", "--out", str(sched_path)]) == 0
    assert "status=sat" in capsys.readouterr().out
    assert sched_path.exists()


def test_cli_replay_with_attack(tmp_path, capsys):
    out_path = tmp_path / "m.csv"
    code = main([
        "replay", "table3", "--egress", "ttubs",
        "--attack", "2,SW1,SW2>SW1,21,1,10,cam2",
        "--duration-s", "0.01", "--out", str(out_path),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "validation=ok" in printed and "shaper_discards=1" in printed


def test_cli_attack_switch_must_be_the_ingress_far_end(capsys):
    # the meter on ingress AV2->SW2 sits at SW2; naming SW1 would meter nothing
    with pytest.raises(SystemExit) as exit_:
        main(["replay", "table3", "--attack", "drop,SW1,AV2>SW2,21,1,cam2", "--duration-s", "0.002"])
    assert exit_.value.code == 2
    assert "switch SW1 is not the far end of ingress AV2->SW2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seed", "-1", "--duration-s", "1"], "rng_seed must be >= 0"),
        (["--duration-s", "0.00001"], "simulation shorter than one hyper-period"),
    ],
)
def test_cli_reports_invalid_input_in_one_line(argv, message):
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "ttubs.cli", "replay", "table3", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert proc.stderr == f"ttubs replay: error: {message}\n"
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["census", "/nonexistent.json"], "[Errno 2] No such file or directory: '/nonexistent.json'"),
        (["census", "{tmp}"], "[Errno 21] Is a directory: '{tmp}'"),
        (["census", "{tmp}/brace.json"], "{tmp}/brace.json is not a JSON file: "),
        (["simulate", "{tmp}/adas.json", "{tmp}/brace.json"], "{tmp}/brace.json is not a JSON file: "),
        (["report", "--census", "{tmp}/pivot.csv"], "{tmp}/pivot.csv has no 'devices' column"),
        (["report", "--census", "{tmp}/word.csv"], "{tmp}/word.csv row 2: invalid literal for int() with base 10: 'x'"),
        (["report", "--census", "{tmp}/short.csv"], "{tmp}/short.csv row 3: could not convert string to float: ''"),
    ],
)
def test_cli_reports_a_bad_file_in_one_line(adas, tmp_path, capsys, argv, message):
    save_scenario(adas, tmp_path / "adas.json")
    (tmp_path / "brace.json").write_text("{")
    (tmp_path / "pivot.csv").write_text("streams,mean_total\n5,10.0\n")
    (tmp_path / "word.csv").write_text("devices,streams,mean_total\nx,5,10.0\n")
    (tmp_path / "short.csv").write_text("devices,streams,mean_total\n3,5,10.0\n4,5\n")
    with pytest.raises(SystemExit) as exit_:
        main([a.format(tmp=tmp_path) for a in argv])
    assert exit_.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"ttubs {argv[0]}: error: " + message.format(tmp=tmp_path))


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", "table3", "--duration-s", "nan"],
        ["replay", "table3", "--duration-s", "inf"],
        ["replay", "table3", "--duration-s", "-1"],
        ["replay", "table3", "--attack", "drop,SW2,AV2>SW2,inf,1"],
        ["replay", "table3", "--attack", "delay,SW2,AV2>SW2,21,1,nan"],
        ["simulate", "s.json", "t.json", "--duration-s", "inf"],
        ["report", "--replay-matrix", "--duration-s", "nan"],
        ["solve", "c.json", "--timeout-s", "nan"],
        ["solve", "c.json", "--engine", "lstb", "--timeout-s", "inf"],
        ["study-solvers", "--timeout-s=-inf"],
    ],
)
def test_cli_refuses_a_time_not_finite_or_negative(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"ttubs {argv[0]}: error: argument ")
    assert "must be finite and >= 0" in err


def test_cli_census_csv(tmp_path, capsys):
    scenario_path = tmp_path / "chain.json"
    main(["gen-chain", "--switches", "1", "--streams", "3", "--seed", "8", "--out", str(scenario_path)])
    capsys.readouterr()
    assert main(["census", str(scenario_path), "--mode", "wa", "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scenario,devices,streams,frame,link,flow,e2e,isolation,total")
    assert lines[1].split(",")[1] == "4"


def test_cli_report_replay_matrix(tmp_path):
    out_path = tmp_path / "matrix.csv"
    assert main([
        "report", "--replay-matrix", "--duration-s", "0.002", "--seed", "1",
        "--out", str(out_path),
    ]) == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 7 * 4  # 7 replay cases x 4 streams
    assert {r["egress"] for r in rows} == {"tas", "ttubs"}


def test_cli_study_census(tmp_path):
    out_path = tmp_path / "census.csv"
    assert main([
        "study-census", "--switches", "1", "--streams", "2,4",
        "--reps", "2", "--seed", "0", "--workers", "1", "--out", str(out_path),
    ]) == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 2
    pivot_path = tmp_path / "pivot.csv"
    assert main(["report", "--census", str(out_path), "--out", str(pivot_path)]) == 0
    assert "devices" in pivot_path.read_text()
