"""sha256 digests of simulator event traces, pinned so that a change to the
egress, gate or shaper code that moves any event shows up here.  Criterion
11 only compares two runs of the same code; these digests compare with the
traces the simulator gave before.

Each case pins two digests: one of the trace's bytes, and one of its header
followed by its rows in sorted order.  The second holds across a change
that only reorders rows at the same instant, so it tells such a change from
one that moves, adds or drops an event.

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
    ("table3", "tas", "none"): (
        "f0d3910778a04d55812963ea575653aa6bde7f6ae96898568efdf0cc147c8c72",
        "63da67fd2de8506cd06009668b7e7a3c51e1c288169e5fcaccdc7069c0c090c8",
    ),
    ("table3", "tas", "loss"): (
        "f0cf3092741697381d377225df9707d9ff261c401736c7e80aa2a93796ff5cda",
        "8d76790745de6589bac6b721952e210575756df88cb45a45c1d21b7fac5c01b1",
    ),
    ("table3", "tas", "timeout-long"): (
        "073c3aa0ea2f4f7f978b3290878912f3d655395dc402fc8f6c3a06b4e11191ee",
        "99f6421f9a76a4d2e755b4fc7b9e6b2e76ac169e4d8f45ab41c637c503800244",
    ),
    ("table3", "ttubs", "none"): (
        "402fd78c7965599c03454e33c2b4c7144b2c7b45476ce9947ea2b0347820d186",
        "dd8e53df41ef28aa84de08c96fc3ef8f397d554cfe69447d549a0563aa70f038",
    ),
    ("table3", "ttubs", "loss"): (
        "14a1c4ebd4985af135c4bd06c4ba8609954fb728ef12d266a0308b8efc715b87",
        "f68a3e26384e151a99d02bafce72e54ecff118a0ec78e79e9c41a3242f568576",
    ),
    ("table3", "ttubs", "timeout-long"): (
        "72a71f0c54238e64cc9962e68bc18ef168c497457dac700e4001c83fefb5e16c",
        "4113c9a8553715a1aef2571e1fdff0a81ba410f1177d823f1acf2553546078e2",
    ),
    ("table6", "tas", "none"): (
        "4ec61eaa891d249cc14e8cc06a70034371c521f0f139035c878a8c101a963b39",
        "f129f82a4069d6990fdf3bf6c0a71d6ed8e8e7b7d3a8abd1b79783221e19d5b3",
    ),
    ("table6", "tas", "loss"): (
        "ff7b1331bf2c7547ce17b54e6ec03b8fb6e83f7cc459409f5ad401b96edd3c56",
        "7dd8b95b280ec74001a165b1fd24bd55365adad6ec8be866b64b7153bff2557a",
    ),
    ("table6", "tas", "timeout-long"): (
        "f2d85549598d7eede7c7d4cbf58466f36fa0daa3ee0755258575eb396b334950",
        "d37a6cc4a8a74c98564506d8052d247e73e900bae1e24c04c91e2cd105cbc751",
    ),
    # table6 has table3's offsets with distinct queues; shaped egress keeps
    # every time-triggered gate open, so the queue choice leaves no trace
    ("table6", "ttubs", "none"): (
        "402fd78c7965599c03454e33c2b4c7144b2c7b45476ce9947ea2b0347820d186",
        "dd8e53df41ef28aa84de08c96fc3ef8f397d554cfe69447d549a0563aa70f038",
    ),
    ("table6", "ttubs", "loss"): (
        "14a1c4ebd4985af135c4bd06c4ba8609954fb728ef12d266a0308b8efc715b87",
        "f68a3e26384e151a99d02bafce72e54ecff118a0ec78e79e9c41a3242f568576",
    ),
    ("table6", "ttubs", "timeout-long"): (
        "72a71f0c54238e64cc9962e68bc18ef168c497457dac700e4001c83fefb5e16c",
        "4113c9a8553715a1aef2571e1fdff0a81ba410f1177d823f1acf2553546078e2",
    ),
    ("table8", "tas", "none"): (
        "b572e1dab1a716073e8f00fcb70f0315ada6ea4101923aa59f5e3cc2054e8c13",
        "a8ddd2277fdb311f9e8ad53a4db86959406b591d089eb6c0e283094f2786ef78",
    ),
    ("table8", "tas", "loss"): (
        "98c13b3cce0f65d7e50c6462000a400ffb89b373fdc5e97259c4aa7b0ef4a449",
        "47d0e6fb90c576660b56181f12a1bc8650f37079ddb8d4e495fa2b6bc83262e4",
    ),
    ("table8", "tas", "timeout-long"): (
        "2c6fe923e1169605412726d957a9ed75116486ada1d25452d504b12270467bff",
        "c44fceeb1a038e97ce9f1369d26509c19865654589859da4229e01a896143af3",
    ),
    ("table8", "ttubs", "none"): (
        "22a57b5bab00b011b73ef9ad1fdfb92ac8b994911bcba94079ebd69f9e9e3f6b",
        "127052c4c8891266630855867380501de9a1745754c0bbf5979a2713ac5061d5",
    ),
    ("table8", "ttubs", "loss"): (
        "09c19c5bf91f2d584a7e91493571f1da9d9bbd46a6c5ce84fd3ac83e39746384",
        "e058a01dae5e3cc380b4e329cb05a8db54c4f115b228c702e6e6d0be7fe1815d",
    ),
    ("table8", "ttubs", "timeout-long"): (
        "129bc3d52647783ae88bf81ded6aad746614eff5530255460ab7e468eb0043b9",
        "2f29e03d83f596234f8eddba536ba02cde5bbee43e125397e0e489b3df0e3cae",
    ),
}

# per-switch egress on the ADAS fixtures, no faults: (fixture, SW1, SW2)
MIXED_DIGESTS = {
    ("table3", "tas", "ttubs"): (
        "348f4560de3112628a6c057e49d8722e04cf3b0481ba018c04d413e188fc393e",
        "a15b008066e8c5d1b45c2207c2b7a666e237949029f4282cfd2f06ef7839a9ac",
    ),
    ("table3", "ttubs", "tas"): (
        "5301dc25980e9f5ec664b92a8f03fc6b6f687edd1e2f8ffd4b3d45ba7498f0de",
        "7c1be0349af960d5765152187d2b60426cc8034d3b84fbdefa6521909c8af37e",
    ),
    ("table6", "tas", "ttubs"): (
        "348f4560de3112628a6c057e49d8722e04cf3b0481ba018c04d413e188fc393e",
        "a15b008066e8c5d1b45c2207c2b7a666e237949029f4282cfd2f06ef7839a9ac",
    ),
    ("table6", "ttubs", "tas"): (
        "462f63b2be0fad0d13293367361d5ec7144a97e6ab96cbbd2b4c4ffcff2c5f26",
        "00b3043ab1844c00ba03a06067f947572dac0e30e73d4b7c7440ff1ba045082d",
    ),
}

# the ADAS fixture with cam1 and control at one size (their largest) beside
# the variable-size cam2 and radar on both switches, cam2 delayed at SW1
# ("timeout-long"): a fixed-size stream that drew from the generator would
# move every later draw of the others
MIXED_PAYLOAD_FIXED = ("cam1", "control")
MIXED_PAYLOAD_DIGESTS = {
    "tas": (
        "46fdcc139732d87aafd4cc8c83c317814f5103e0fb88d7175faca48c26e539bf",
        "3b81d6f1f751f48761d7590c6fa95260bab86a6ab7f4da553ac59401802095ee",
    ),
    "ttubs": (
        "1a5d7780c77474c88a93d52c52c005786acd8d4abb2c329c5eb908d0f387e4e7",
        "cc36c10bd4831c79071a4223894f5abd9f6e4c352f1b7261947719afc1550b14",
    ),
}

CHAIN_DIGESTS = {
    "tas": (
        "986692d098ca4a82e8077a8345d7656a58b322bfdc84510ba2b91723fe0fb38f",
        "fced7982b3f15d044268011a4b56aaa1e899c2ce61abcf60e5d109ce6e972b3c",
    ),
    "ttubs": (
        "0ff943d73da38f7a0b58d64531c8efb75b3938e0f6634f416fde76d7f29d6544",
        "ec1a0c5353cfb7b0f0c95606b14f55dec967e1f8fd8f8604b355776c32511804",
    ),
}


def _digests(path) -> tuple[str, str]:
    """sha256 of the trace's bytes, and of its header and sorted rows."""
    header, *rows = path.read_text().splitlines()
    rows_text = "\n".join([header, *sorted(rows)]) + "\n"
    return hashlib.sha256(path.read_bytes()).hexdigest(), hashlib.sha256(rows_text.encode()).hexdigest()


@pytest.mark.parametrize("name,egress,fault", sorted(REPLAY_DIGESTS))
def test_replay_trace_digest_pinned(name, egress, fault, tmp_path):
    path = tmp_path / "trace.csv"
    replay_fixture(name, egress, fault_preset(fault), 1, 200_000_000, trace_path=str(path))
    assert _digests(path) == REPLAY_DIGESTS[(name, egress, fault)]


@pytest.mark.parametrize("name,sw1,sw2", sorted(MIXED_DIGESTS))
def test_mixed_replay_trace_digest_pinned(name, sw1, sw2, tmp_path):
    path = tmp_path / "trace.csv"
    replay_fixture(name, {"SW1": sw1, "SW2": sw2}, (), 1, 200_000_000, trace_path=str(path))
    assert _digests(path) == MIXED_DIGESTS[(name, sw1, sw2)]


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
    assert _digests(path) == CHAIN_DIGESTS[egress]


# ChainSpec(3, 17, rng_seed=2), lstb nfic, tas, seed 1, 100 ms: s15 from SW1
# and s16 from SW3 reach one shared queue at SW2 at the same instant, 24,352
# ns.  Port rank decides their order: the arrival over SW1->SW2 (link 18)
# runs before the one over SW3->SW2 (link 21), so s15 is queued and served
# first.  Any other tie rule that put s16 first would swap the two streams'
# latencies.
GATED_RETRY_DIGESTS = (
    "d31ee318b3fc5975112e76958e63104f4922c24ae3d35520854601713a1b896b",
    "a7594ac7f779b5fdc8c4f28befc37e98640962660f889a1717ed91478b7b42eb",
)
GATED_RETRY_E2E_MAX = {"s15": 53_680, "s16": 65_856}


def test_gated_retry_order_digest_pinned(tmp_path):
    sc = gen_chain(ChainSpec(3, 17, rng_seed=2))
    res = lstb_solve(sc, "nfic", LstbLimits())
    assert res.status == "sat"
    path = tmp_path / "trace.csv"
    rep = run(SimConfig(sc, build_deployment(sc, res.schedule), "tas", (), 1, 100_000_000), trace_path=str(path))
    assert _digests(path) == GATED_RETRY_DIGESTS
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
    assert _digests(path) == MIXED_PAYLOAD_DIGESTS[egress]


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
