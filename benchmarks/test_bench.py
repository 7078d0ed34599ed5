"""Smoke test of the benchmark at tiny sizes.

Runs every workload untraced and traced with ``--tiny`` and checks that
every metric named in BENCHMARK.json is emitted with its unit, that every
output check ran, and that the benchmark refuses to run without the
program.  Run with ``python -m pytest benchmarks/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

SYNTH_REPORT = ("setup_s", "solve_nfic_s.p50", "solve_wa_s.p50", "solve_s.tail", "solves_per_s",
                "lstb_s.p50", "census_s.p50", "error_share", "peak_rss_mb")
REPLAY_REPORT = ("setup_s", "sim_tas_frames_per_s", "sim_ttubs_frames_per_s", "error_share", "peak_rss_mb")

CHECKS = {
    "synth-small": {"smt_sat_validates", "lstb_sat_validates", "census_identity"},
    "synth-large": {"smt_sat_validates", "lstb_sat_validates"},
    "replay-adas": {"fixture_validates", "frame_conservation", "closed_form"},
    "replay-chain": {"frame_conservation", "lstb_sat_validates"},
}
TRACED_CHECKS = {"trace_digest_repeat"}
SYNTH_TRACED_CHECKS = {"inprocess_verdict"}
# enough time for two groups, so the untraced synth-large run takes the
# census of one chain in both modes
SECONDS = {"synth-large": 6}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", str(SECONDS.get(workload, 1)), "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_runs_every_check(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, proc.stdout[-2000:]

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert last["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(last["metrics"][m["name"]]["value"], (int, float)), m["name"]

    result = json.loads((HERE / "out" / f"BENCH_{workload}_seed{SEED}_trace{trace}.json").read_text())
    expected = set(CHECKS[workload])
    if workload == "synth-large" and not trace:
        expected.add("census_identity")
    if trace:
        expected |= TRACED_CHECKS | (SYNTH_TRACED_CHECKS if workload.startswith("synth") else set())
    assert expected <= set(result["checks"]), result["checks"]
    if not trace:
        named = SYNTH_REPORT if workload.startswith("synth") else REPLAY_REPORT
        assert set(named) <= set(result["report"])
        for name in named:
            assert result["report"][name][1], name  # unit
    for key in ("python", "numpy", "scipy", "nproc", "loadavg_before", "loadavg_after", "seed"):
        assert key in result["environment"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
