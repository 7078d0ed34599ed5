"""sha256 digests of simulator event traces, pinned so that a change to the
egress, gate or shaper code that moves any event shows up here.  Criterion
11 only compares two runs of the same code; these digests compare with the
traces the simulator gave before.

Fixture replays run 200 ms, the lstb-scheduled chain 100 ms (5 cycles)."""

import hashlib
from dataclasses import replace

import pytest

from ttubs.artifacts import build_deployment
from ttubs.fixtures import adas_scenario, fixture_schedule
from ttubs.harness import ChainSpec, fault_preset, gen_chain, replay, replay_fixture
from ttubs.lstb import LstbLimits, lstb_solve
from ttubs.sim import SimConfig, run

REPLAY_DIGESTS = {
    ("table3", "tas", "none"): "f0d3910778a04d55812963ea575653aa6bde7f6ae96898568efdf0cc147c8c72",
    ("table3", "tas", "loss"): "f0cf3092741697381d377225df9707d9ff261c401736c7e80aa2a93796ff5cda",
    ("table3", "tas", "timeout-long"): "073c3aa0ea2f4f7f978b3290878912f3d655395dc402fc8f6c3a06b4e11191ee",
    ("table3", "ttubs", "none"): "00ca27ce01431e8ff217b6d65c4b2d5095a83a1593674b803038e0769582e263",
    ("table3", "ttubs", "loss"): "3426e9eea394bc48aff4b61afe16bd766a9b5004292820543f0bfa600c620e3f",
    ("table3", "ttubs", "timeout-long"): "7e05527de44009a1f634483e9b9d63053726bbabdb284770b084aadad022fc93",
    ("table6", "tas", "none"): "4ec61eaa891d249cc14e8cc06a70034371c521f0f139035c878a8c101a963b39",
    ("table6", "tas", "loss"): "ff7b1331bf2c7547ce17b54e6ec03b8fb6e83f7cc459409f5ad401b96edd3c56",
    ("table6", "tas", "timeout-long"): "f2d85549598d7eede7c7d4cbf58466f36fa0daa3ee0755258575eb396b334950",
    # table6 has table3's offsets with distinct queues; shaped egress keeps
    # every time-triggered gate open, so the queue choice leaves no trace
    ("table6", "ttubs", "none"): "00ca27ce01431e8ff217b6d65c4b2d5095a83a1593674b803038e0769582e263",
    ("table6", "ttubs", "loss"): "3426e9eea394bc48aff4b61afe16bd766a9b5004292820543f0bfa600c620e3f",
    ("table6", "ttubs", "timeout-long"): "7e05527de44009a1f634483e9b9d63053726bbabdb284770b084aadad022fc93",
    ("table8", "tas", "none"): "260c266e313929f4b3d02d52cc2966497af5b2891a8fb582b687808cf8a7736d",
    ("table8", "tas", "loss"): "705e0ffd624842df8c8898011ede35fe21dc1060e38ec95ed86c13420e602495",
    ("table8", "tas", "timeout-long"): "c94dc0e08580e9935cc7f36c3dbd141cad0b65853bbb78b076a59839f20b416d",
    ("table8", "ttubs", "none"): "d930a559fe58d18b38fd176820255f39391263dd8f714391d91ebc9223e5de38",
    ("table8", "ttubs", "loss"): "6f690a017c93ada47dfb2f96a43070fbc55fbe949e57563118ca60017e31827b",
    ("table8", "ttubs", "timeout-long"): "e66888397a704b8f073758631668cca468349d975f6e723c54595279c92296f0",
}

# per-switch egress on the ADAS fixtures, no faults: (fixture, SW1, SW2)
MIXED_DIGESTS = {
    ("table3", "tas", "ttubs"): "43793d1d7beb2d676d6dc85119b9cf54d7218a59c8053b70f97290eba1e086bb",
    ("table3", "ttubs", "tas"): "5301dc25980e9f5ec664b92a8f03fc6b6f687edd1e2f8ffd4b3d45ba7498f0de",
    ("table6", "tas", "ttubs"): "43793d1d7beb2d676d6dc85119b9cf54d7218a59c8053b70f97290eba1e086bb",
    ("table6", "ttubs", "tas"): "462f63b2be0fad0d13293367361d5ec7144a97e6ab96cbbd2b4c4ffcff2c5f26",
}

# the ADAS fixture with cam1 and control at one size (their largest) beside
# the variable-size cam2 and radar on both switches, cam2 delayed at SW1
# ("timeout-long"): a fixed-size stream that drew from the generator would
# move every later draw of the others
MIXED_PAYLOAD_FIXED = ("cam1", "control")
MIXED_PAYLOAD_DIGESTS = {
    "tas": "46fdcc139732d87aafd4cc8c83c317814f5103e0fb88d7175faca48c26e539bf",
    "ttubs": "52b88b0bd1ce53057d78b2fd56bfaa6dc2f218bb4f4debf0539ac368bffc0ce7",
}

CHAIN_DIGESTS = {
    "tas": "40c0aea5d8c81f155b370a7a9dd050bad63046d78fd43afe16f1d17233c34f40",
    "ttubs": "c8f46ea6d8ae421cd8d071b8ac6fc4903c314baed0793599385199a82b034b4f",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name,egress,fault", sorted(REPLAY_DIGESTS))
def test_replay_trace_digest_pinned(name, egress, fault, tmp_path):
    path = tmp_path / "trace.csv"
    replay_fixture(name, egress, fault_preset(fault), 1, 200_000_000, trace_path=str(path))
    assert _digest(path) == REPLAY_DIGESTS[(name, egress, fault)]


@pytest.mark.parametrize("name,sw1,sw2", sorted(MIXED_DIGESTS))
def test_mixed_replay_trace_digest_pinned(name, sw1, sw2, tmp_path):
    path = tmp_path / "trace.csv"
    replay_fixture(name, {"SW1": sw1, "SW2": sw2}, (), 1, 200_000_000, trace_path=str(path))
    assert _digest(path) == MIXED_DIGESTS[(name, sw1, sw2)]


@pytest.fixture(scope="module")
def chain_deployment():
    sc = gen_chain(ChainSpec(10, 95, rng_seed=1))
    res = lstb_solve(sc, "nfic", LstbLimits())
    assert res.status == "sat"
    return sc, build_deployment(sc, res.schedule)


@pytest.mark.parametrize("egress", sorted(CHAIN_DIGESTS))
def test_chain_trace_digest_pinned(chain_deployment, egress, tmp_path):
    sc, dep = chain_deployment
    path = tmp_path / "trace.csv"
    run(SimConfig(sc, dep, egress, (), 1, 100_000_000), trace_path=str(path))
    assert _digest(path) == CHAIN_DIGESTS[egress]


# ChainSpec(3, 17, rng_seed=2), lstb nfic, tas, seed 1, 100 ms: s16 at SW3
# and s15 at SW1 start at 24,352 ns from equal-time wakes of gated ports and
# reach one shared queue at SW2 together.  If a gated port skipped its idle
# busy_until wake, those wakes would run in another order and the two
# streams' latencies would swap.
GATED_RETRY_DIGEST = "461b84f42ab2bf0a876b490ba7d0439728c6362bcb0a727495c809fb69da6cf6"
GATED_RETRY_E2E_MAX = {"s15": 65_856, "s16": 53_680}


def test_gated_retry_order_digest_pinned(tmp_path):
    sc = gen_chain(ChainSpec(3, 17, rng_seed=2))
    res = lstb_solve(sc, "nfic", LstbLimits())
    assert res.status == "sat"
    path = tmp_path / "trace.csv"
    rep = run(SimConfig(sc, build_deployment(sc, res.schedule), "tas", (), 1, 100_000_000), trace_path=str(path))
    assert _digest(path) == GATED_RETRY_DIGEST
    assert {s: rep.metrics[s].e2e_max_ns for s in GATED_RETRY_E2E_MAX} == GATED_RETRY_E2E_MAX


def _mixed_payload_replay(egress, trace_path=None):
    sc = adas_scenario()
    streams = tuple(replace(s, payload_min=s.payload_max) if s.id in MIXED_PAYLOAD_FIXED else s for s in sc.streams)
    sc = replace(sc, streams=streams)
    sched, _ = fixture_schedule("table3", sc)
    rep = replay(sc, sched, "nfic", egress, fault_preset("timeout-long"), 1, 200_000_000, trace_path)
    assert rep.validation_ok
    return rep


@pytest.mark.parametrize("egress", sorted(MIXED_PAYLOAD_DIGESTS))
def test_mixed_payload_trace_digest_pinned(egress, tmp_path):
    path = tmp_path / "trace.csv"
    _mixed_payload_replay(egress, str(path))
    assert _digest(path) == MIXED_PAYLOAD_DIGESTS[egress]


PARITY_CASES = (
    [("replay", key) for key in sorted(REPLAY_DIGESTS)]
    + [("mixed", key) for key in sorted(MIXED_DIGESTS)]
    + [("mixed-payload", key) for key in sorted(MIXED_PAYLOAD_DIGESTS)]
    + [("chain", key) for key in sorted(CHAIN_DIGESTS)]
)


def _case_metrics(kind, key, request, trace_path):
    if kind == "replay":
        name, egress, fault = key
        return replay_fixture(name, egress, fault_preset(fault), 1, 200_000_000, trace_path=trace_path).metrics
    if kind == "mixed":
        name, sw1, sw2 = key
        return replay_fixture(name, {"SW1": sw1, "SW2": sw2}, (), 1, 200_000_000, trace_path=trace_path).metrics
    if kind == "mixed-payload":
        return _mixed_payload_replay(key, trace_path).metrics
    sc, dep = request.getfixturevalue("chain_deployment")
    return run(SimConfig(sc, dep, key, (), 1, 100_000_000), trace_path=trace_path).metrics


@pytest.mark.parametrize(
    "kind,key", PARITY_CASES, ids=[f"{k}-{'-'.join(key) if isinstance(key, tuple) else key}" for k, key in PARITY_CASES]
)
def test_untraced_run_matches_traced(kind, key, request, tmp_path):
    """The pinned digests cover only traced runs; an untraced run must give
    the same metrics, frame by frame."""
    traced = _case_metrics(kind, key, request, str(tmp_path / "trace.csv"))
    assert _case_metrics(kind, key, request, None) == traced
