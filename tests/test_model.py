import json
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from ttubs.harness import ChainSpec, gen_chain
from ttubs.model import (
    N_QUEUES,
    InvalidInputError,
    Link,
    Scenario,
    Stream,
    bytes_to_duration,
    expand_frame_instances,
    hyper_period,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from ttubs.schedule import Schedule

US = 1_000
MS = 1_000_000


@pytest.mark.parametrize(
    "periods,expected",
    [
        ([100 * US, 100 * US, 200 * US, 200 * US], 200 * US),
        ([10 * MS], 10 * MS),
        ([10 * MS, 20 * MS], 20 * MS),
    ],
)
def test_hyper_period(periods, expected):
    assert hyper_period(periods) == expected


def test_hyper_period_empty_rejected():
    with pytest.raises(InvalidInputError):
        hyper_period([])
    with pytest.raises(InvalidInputError):
        hyper_period([0, 5])


@given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=6))
def test_hyper_period_divides_all_and_is_minimal(periods):
    hp = hyper_period(periods)
    assert all(hp % p == 0 for p in periods)
    # no smaller positive common multiple: any proper divisor of hp misses some p
    for d in range(1, min(hp, 2000)):
        if hp % d == 0 and d < hp:
            assert any(d % p != 0 for p in periods)


@pytest.mark.parametrize(
    "payload,rate,expected",
    [
        (1200, 1_000_000_000, 9_776),
        (1000, 1_000_000_000, 8_176),
        (0, 1_000_000_000, 176),
    ],
)
def test_bytes_to_duration(payload, rate, expected):
    assert bytes_to_duration(payload, rate) == expected


def test_bytes_to_duration_zero_rate():
    with pytest.raises(InvalidInputError):
        bytes_to_duration(100, 0)


@given(
    st.integers(min_value=0, max_value=1500),
    st.integers(min_value=0, max_value=1500),
    st.sampled_from([100_000_000, 1_000_000_000, 10_000_000_000]),
    st.sampled_from([100_000_000, 1_000_000_000, 10_000_000_000]),
)
def test_bytes_to_duration_monotone(p1, p2, r1, r2):
    if p1 <= p2:
        assert bytes_to_duration(p1, r1) <= bytes_to_duration(p2, r1)
    if r1 <= r2:
        assert bytes_to_duration(p1, r1) >= bytes_to_duration(p1, r2)


def test_expand_adas(adas):
    instances = expand_frame_instances(adas)
    assert len(instances) == 18
    per_stream = {}
    for fi in instances:
        per_stream[fi.stream] = per_stream.get(fi.stream, 0) + 1
    assert per_stream == {"cam1": 6, "cam2": 6, "radar": 3, "control": 3}
    # camera duration is the worst-case frame wire time
    assert {fi.duration_ns for fi in instances if fi.stream == "cam1"} == {9_776}


def _two_station_scenario(period_ns, payload, n_streams=1):
    links = (Link("A", "B", 1_000_000_000),)
    streams = tuple(
        Stream(f"s{i}", period_ns, payload, payload, (("A", "B"),), period_ns, period_ns // 10)
        for i in range(n_streams)
    )
    return Scenario((("A", "end-station"), ("B", "end-station")), links, streams)


def test_expand_single_stream_single_link():
    sc = _two_station_scenario(10 * US, 100)
    assert len(expand_frame_instances(sc)) == 1


def test_expand_quarter_period():
    fast = Stream("f", 50 * US, 100, 100, (("A", "B"),), 50 * US, 5 * US)
    slow = Stream("g", 200 * US, 100, 100, (("A", "B"),), 200 * US, 20 * US)
    sc = Scenario(
        (("A", "end-station"), ("B", "end-station")),
        (Link("A", "B", 1_000_000_000),),
        (fast, slow),
    )
    counts = {}
    for fi in expand_frame_instances(sc):
        counts[fi.stream] = counts.get(fi.stream, 0) + 1
    assert counts == {"f": 4, "g": 1}


def test_expand_deterministic(adas):
    assert expand_frame_instances(adas) == expand_frame_instances(adas)


def test_stream_by_id(adas):
    for s in adas.streams:
        assert adas.stream(s.id) is s
    with pytest.raises(InvalidInputError) as err:
        adas.stream("cam9")
    assert str(err.value) == "unknown stream 'cam9'"


def test_streams_on_link_in_scenario_order(adas):
    chains = [(1, 2, 1), (3, 6, 2), (5, 30, 3)]
    scenarios = [adas] + [gen_chain(ChainSpec(sw, st, rng_seed=seed)) for sw, st, seed in chains]
    uncrossed = 0
    for sc in scenarios:
        for ln in sc.links:
            expected = [s for s in sc.streams if ln.key in s.route]
            assert sc.streams_on_link(ln.key) == tuple(expected)
            uncrossed += not expected
        assert sc.streams_on_link(("nowhere", "else")) == ()
    assert uncrossed > 0


def test_validate_detects_broken_route(adas):
    streams = tuple(
        Stream(
            s.id, s.period_ns, s.payload_min, s.payload_max,
            (("AV1", "SW2"), ("SW1", "CentralHost")),  # gap: SW2 != SW1
            s.e2e_deadline_ns, s.jitter_req_ns,
        )
        if s.id == "cam1"
        else s
        for s in adas.streams
    )
    with pytest.raises(InvalidInputError, match="not a path"):
        Scenario(nodes=adas.nodes, links=adas.links, streams=streams)


def test_validate_detects_bad_rate(adas):
    links = tuple(Link(l.src, l.dst, 0) if l.src == "AV1" else l for l in adas.links)
    with pytest.raises(InvalidInputError, match="rate"):
        Scenario(nodes=adas.nodes, links=links, streams=adas.streams)


def test_scenario_json_round_trip(adas):
    assert scenario_from_dict(scenario_to_dict(adas)) == adas
    # documents that still carry the dropped per-stream queue/priority keys load
    legacy = scenario_to_dict(adas)
    for s in legacy["streams"]:
        s.update(queue=4, priority=0)
    assert scenario_from_dict(legacy) == adas


def test_validate_rejects_more_queues_than_ports_have():
    # gate lists and simulated ports have N_QUEUES queues; a 12-queue link
    # with streams on queues 10 and 11 used to pass and crash the simulator
    nodes = (("A", "end-station"), ("S", "switch"), ("B", "end-station"))
    links = (Link("A", "S", 1_000_000_000), Link("S", "B", 1_000_000_000, queue_count=12))
    stream = Stream("s", 100 * US, 100, 100, (("A", "S"), ("S", "B")), 100 * US, 10 * US)
    with pytest.raises(InvalidInputError, match="queue_count"):
        Scenario(nodes, links, (stream,))
    Scenario(nodes, (links[0], Link("S", "B", 1_000_000_000, queue_count=N_QUEUES)), (stream,))


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return mutate


def _append(key, item):
    return lambda doc: doc[key].append(item)


CAM1_ROUTE = [["AV1", "SW2"], ["SW2", "SW1"], ["SW1", "CentralHost"]]


# one mutation of the ADAS document per defect a scenario's construction check reports
SCENARIO_DEFECTS = {
    "duplicate node ids": _append("nodes", {"id": "AV1", "kind": "end-station"}),
    "node X: unknown kind 'router'": _append("nodes", {"id": "X", "kind": "router"}),
    "link AV1->SW2: duplicate (src, dst)": _append("links", {"src": "AV1", "dst": "SW2", "rate_bps": 10**9}),
    "link AV1->SW2: rate must be positive": _set(("links", 0, "rate_bps"), 0),
    "link SW2->SW1: queue_count must be in 1..8": _set(("links", 4, "queue_count"), 9),
    "link SW2->SW1: negative delay": _set(("links", 4, "prop_delay_ns"), -1),
    "link SW1->X: unknown node X": _append("links", {"src": "SW1", "dst": "X", "rate_bps": 10**9}),
    "stream cam1: duplicate id": _set(("streams", 1, "id"), "cam1"),
    "stream cam1: payload bounds must satisfy 0 < min <= max <= 1500": _set(("streams", 0, "payload_min"), 0),
    "stream cam1: period must be positive": _set(("streams", 0, "period_ns"), 0),
    "stream cam1: deadline must be positive": _set(("streams", 0, "e2e_deadline_ns"), 0),
    "stream cam1: jitter requirement must be >= 0": _set(("streams", 0, "jitter_req_ns"), -1),
    "stream cam1: empty route": _set(("streams", 0, "route"), []),
    "stream cam1: route uses unknown link SW1->AV1": _set(("streams", 0, "route", 2), ["SW1", "AV1"]),
    "stream cam1: route not a path at SW2/SW1": _set(("streams", 0, "route"), CAM1_ROUTE[::2]),
    "stream cam1: talker SW2 is not an end-station": _set(("streams", 0, "route"), CAM1_ROUTE[1:]),
    "stream cam1: listener SW1 is not an end-station": _set(("streams", 0, "route"), CAM1_ROUTE[:-1]),
    "sync_precision must be >= 0": _set(("sync_precision_ns",), -1),
}


@pytest.mark.parametrize("defect", SCENARIO_DEFECTS)
def test_scenario_from_dict_rejects_each_defect(adas, defect):
    doc = scenario_to_dict(adas)
    SCENARIO_DEFECTS[defect](doc)
    with pytest.raises(InvalidInputError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"invalid scenario 'adas_star': {defect}"


def test_load_scenario_lists_every_defect(adas, tmp_path):
    # a nine-queue link would give a wa queue domain of 0..8, one queue more
    # than a simulated port has
    doc = scenario_to_dict(adas)
    doc["links"][4]["queue_count"] = 9
    doc["links"][0]["rate_bps"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match="rate must be positive; link SW2->SW1: queue_count"):
        load_scenario(path)


RING_NODES = (("A", "end-station"), ("S1", "switch"), ("S2", "switch"), ("B", "end-station"))
RING_LINKS = tuple(Link(a, b, 1_000_000_000) for a, b in (("A", "S1"), ("S1", "S2"), ("S2", "S1"), ("S1", "B")))
RING_ROUTE = (("A", "S1"), ("S1", "S2"), ("S2", "S1"), ("S1", "S2"), ("S2", "S1"), ("S1", "B"))
LINE_ROUTE = (("A", "S1"), ("S1", "B"))


def _ring_stream(sid, route, payload_min=100, period_ns=100 * US):
    return Stream(sid, period_ns, payload_min, 100, route, 100 * US, 10 * US)


def _ring_doc(*streams):
    """The ring network as a scenario document with the given streams;
    a document, because these streams make no Scenario to write one from."""
    doc = scenario_to_dict(Scenario(RING_NODES, RING_LINKS, (), name="ring"))
    doc["streams"] = [asdict(s) for s in streams]
    return doc


def test_scenario_from_dict_rejects_route_reusing_a_link():
    # no later layer can run this route: lstb overwrites an upstream index
    with pytest.raises(InvalidInputError) as err:
        scenario_from_dict(_ring_doc(_ring_stream("s", RING_ROUTE)))
    assert str(err.value) == (
        "invalid scenario 'ring': stream s: route uses link S1->S2 more than once; "
        "stream s: route uses link S2->S1 more than once"
    )


def test_scenario_rejects_route_reusing_a_link_built_in_code():
    # no engine can receive this route: building the scenario refuses it
    with pytest.raises(InvalidInputError) as err:
        Scenario(RING_NODES, RING_LINKS, (_ring_stream("s", RING_ROUTE),), name="ring")
    assert str(err.value) == (
        "invalid scenario 'ring': stream s: route uses link S1->S2 more than once; "
        "stream s: route uses link S2->S1 more than once"
    )


def test_load_scenario_rejects_ids_that_sanitize_to_one_symbol(tmp_path):
    # "s-1" and "s_1" both sanitize to s_1, so their variables share names
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(_ring_doc(_ring_stream("s-1", LINE_ROUTE), _ring_stream("s_1", LINE_ROUTE))))
    with pytest.raises(InvalidInputError) as err:
        load_scenario(path)
    assert str(err.value) == (
        "invalid scenario 'ring': stream s_1: s_1@A->S1 and s-1@A->S1 sanitize to one solver symbol; "
        "stream s_1: s_1@S1->B and s-1@S1->B sanitize to one solver symbol"
    )


# scenarios built in code that got past every check before the scenario
# checked itself; each now fails at construction with the defect named
CONSTRUCTION_DEFECTS = {
    # lstb gave sat, and both egress modes delivered frames before their send
    "link S1->B: negative delay": (
        RING_LINKS[:3] + (Link("S1", "B", 1_000_000_000, prop_delay_ns=-5_000),),
        _ring_stream("s", LINE_ROUTE),
    ),
    # lstb gave sat, and both egress modes delivered every frame
    "stream s: route not a path at S1/S2": (RING_LINKS, _ring_stream("s", (("A", "S1"), ("S2", "S1"), ("S1", "B")))),
    # the simulator's payload draw raised ValueError at the first send
    "stream s: payload bounds must satisfy 0 < min <= max <= 1500": (RING_LINKS, _ring_stream("s", LINE_ROUTE, 200)),
    # replayed with no error
    "stream s: talker S1 is not an end-station": (RING_LINKS, _ring_stream("s", (("S1", "B"),))),
    "stream s: period_ns must be an integer": (RING_LINKS, _ring_stream("s", LINE_ROUTE, period_ns=100_000.7)),
    # the check itself raised IndexError naming the hop's missing end
    "stream s: route hop ('A',) is not a pair": (RING_LINKS, _ring_stream("s", (("A",),))),
}


@pytest.mark.parametrize("defect", CONSTRUCTION_DEFECTS)
def test_scenario_built_in_code_rejects_each_defect(defect):
    links, stream = CONSTRUCTION_DEFECTS[defect]
    with pytest.raises(InvalidInputError) as err:
        Scenario(RING_NODES, links, (stream,), name="ring")
    assert str(err.value) == f"invalid scenario 'ring': {defect}"


# one malformed ADAS document per shape the loader used to cast, crash on
# or take
DOCUMENT_DEFECTS = {
    "invalid scenario 'adas_star': stream cam1: period_ns must be an integer": _set(
        ("streams", 0, "period_ns"), 100_000.7
    ),
    "invalid scenario 'adas_star': stream cam1: payload_min must be an integer": _set(
        ("streams", 0, "payload_min"), True
    ),
    "invalid scenario 'adas_star': link AV1->SW2: rate_bps must be an integer": _set(
        ("links", 0, "rate_bps"), "1000000000"
    ),
    "invalid scenario 'adas_star': sync_precision_ns must be an integer": _set(("sync_precision_ns",), "fast"),
    "invalid scenario 'adas_star': id 5 is not a string": _set(("streams", 0, "id"), 5),
    "invalid scenario document: missing key 'links'": lambda doc: doc.pop("links"),
    "invalid scenario document: streams[0]: missing key 'id'": lambda doc: doc["streams"][0].pop("id"),
    "invalid scenario document: nodes[0] is not an object": _set(("nodes", 0), "AV1"),
    "invalid scenario document: streams[0]: route None is not a list": _set(("streams", 0, "route"), None),
    "invalid scenario document: streams[0]: route hop ['AV1', 'SW2', 'SW1'] is not a [src, dst] pair": _set(
        ("streams", 0, "route", 0), ["AV1", "SW2", "SW1"]
    ),
}


@pytest.mark.parametrize("error", DOCUMENT_DEFECTS)
def test_scenario_from_dict_rejects_each_malformed_document(adas, error):
    doc = scenario_to_dict(adas)
    DOCUMENT_DEFECTS[error](doc)
    with pytest.raises(InvalidInputError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == error


@pytest.mark.parametrize("doc", [[], "adas_star", None], ids=["list", "str", "null"])
def test_scenario_from_dict_rejects_a_document_that_is_not_an_object(doc):
    # a list raised AttributeError from doc.get
    with pytest.raises(InvalidInputError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"invalid scenario document: {type(doc).__name__} is not an object"



def _edited(path, value):
    """Replaces the value at ``path`` of a document and returns it."""
    def edit(doc):
        _set(path, value)(doc)
        return doc

    return edit


# one malformed schedule document per shape the loader used to cast, crash
# on or take; each is made from the table6 document, whose offsets[0] is
# cam1 on AV1->SW2 slot 0
SCHEDULE_DEFECTS = {
    "offsets[0]: offset_ns 21000.7 is not an integer": _edited(("offsets", 0, "offset_ns"), 21000.7),
    "offsets[0]: offset_ns '5' is not an integer": _edited(("offsets", 0, "offset_ns"), "5"),
    "offsets[0]: slot True is not an integer": _edited(("offsets", 0, "slot"), True),
    "queues[0]: queue 2.9 is not an integer": _edited(("queues", 0, "queue"), 2.9),
    "offsets[0]: link 'AB' is not a [src, dst] pair": _edited(("offsets", 0, "link"), "AB"),
    "offsets[0]: node 1 is not a string": _edited(("offsets", 0, "link"), [1, "SW2"]),
    "offsets[0]: stream ['cam1'] is not a string": _edited(("offsets", 0, "stream"), ["cam1"]),
    "offsets[0]: missing key 'offset_ns'": _edited(
        ("offsets", 0), {"stream": "cam1", "link": ["AV1", "SW2"], "slot": 0}
    ),
    "missing key 'offsets'": lambda doc: {"queues": doc["queues"]},
    "list is not an object": lambda doc: [],
    "offsets[1]: repeats row ('cam1', ('AV1', 'SW2'), 0)": lambda doc: {**doc, "offsets": doc["offsets"][:1] * 2},
}


@pytest.mark.parametrize("error", SCHEDULE_DEFECTS)
def test_schedule_from_dict_rejects_each_malformed_document(table6, error):
    doc = SCHEDULE_DEFECTS[error](json.loads(json.dumps(table6.to_dict())))
    with pytest.raises(InvalidInputError) as err:
        Schedule.from_dict(doc)
    assert str(err.value) == f"invalid schedule document: {error}"
