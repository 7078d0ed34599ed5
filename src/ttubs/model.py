"""Network model: links, streams, scenarios, and frame-instance expansion.

All times are integer nanoseconds internally.  Tables and serialized
artifacts render microseconds with up to three decimals, which is lossless
for nanosecond values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

ETHERNET_OVERHEAD_BYTES = 22  # headers + checksum added on top of the payload
MAX_PAYLOAD_BYTES = 1500
NS_PER_US = 1_000
N_QUEUES = 8  # shared egress queues per port: gate lists and the simulator have this many

__all__ = [
    "ETHERNET_OVERHEAD_BYTES",
    "MAX_PAYLOAD_BYTES",
    "N_QUEUES",
    "InvalidInputError",
    "Link",
    "Stream",
    "Scenario",
    "FrameInstance",
    "hyper_period",
    "bytes_to_duration",
    "expand_frame_instances",
    "ns_to_us_str",
    "scenario_to_dict",
    "scenario_from_dict",
    "load_scenario",
    "save_scenario",
]


class InvalidInputError(ValueError):
    """Raised when an operation is called with arguments outside its domain."""


@dataclass(frozen=True)
class Link:
    """Directed link. Full-duplex cabling is two distinct Link records."""

    src: str
    dst: str
    rate_bps: int
    prop_delay_ns: int = 0
    proc_delay_ns: int = 0
    queue_count: int = 8

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class Stream:
    """Periodic unicast stream with a fixed route (ordered link keys)."""

    id: str
    period_ns: int
    payload_min: int
    payload_max: int
    route: tuple[tuple[str, str], ...]
    e2e_deadline_ns: int
    jitter_req_ns: int

    @property
    def talker(self) -> str:
        return self.route[0][0]


@dataclass(frozen=True)
class Scenario:
    """Network graph plus traffic.  Node/link/stream order is significant:
    every derived artifact (constraints, encodings, schedules) iterates in
    scenario order so that identical scenarios produce identical outputs.
    Building one with any defect of :func:`_scenario_defects` raises
    :class:`InvalidInputError`, so no later layer checks it again."""

    nodes: tuple[tuple[str, str], ...]  # (node id, "end-station" | "switch")
    links: tuple[Link, ...]
    streams: tuple[Stream, ...]
    sync_precision_ns: int = 0
    name: str = "scenario"

    def __post_init__(self):
        defects = _scenario_defects(self)
        if defects:
            raise InvalidInputError(f"invalid scenario {self.name!r}: " + "; ".join(defects))

    def link(self, key: tuple[str, str]) -> Link:
        try:
            return self._link_index[key]
        except KeyError:
            raise InvalidInputError(f"unknown link {key[0]}->{key[1]}") from None

    @cached_property
    def _link_index(self) -> dict[tuple[str, str], Link]:
        return {ln.key: ln for ln in self.links}

    def stream(self, stream_id: str) -> Stream:
        try:
            return self._stream_index[stream_id]
        except KeyError:
            raise InvalidInputError(f"unknown stream {stream_id!r}") from None

    @cached_property
    def _stream_index(self) -> dict[str, Stream]:
        return {s.id: s for s in self.streams}

    @cached_property
    def _kinds(self) -> dict[str, str]:
        return dict(self.nodes)

    def is_switch_egress(self, key: tuple[str, str]) -> bool:
        """Whether link ``key`` leaves a switch: the hops that carry queue
        choices, gates and shapers."""
        return self._kinds.get(key[0]) == "switch"

    # The delay model.  Constraints, lstb, the closed form and the
    # simulator all read per-hop delays from these three methods.

    def link_delays_ns(self, key: tuple[str, str]) -> tuple[int, int]:
        """(propagation, processing) a frame meets after its last bit leaves
        link ``key``.  Processing is the far-end switch's ``proc_delay_ns``;
        a link into an end-station has none."""
        ln = self.link(key)
        proc = ln.proc_delay_ns if self._kinds.get(ln.dst) == "switch" else 0
        return ln.prop_delay_ns, proc

    def arrival_lag_ns(self, key: tuple[str, str], wire_ns: int) -> int:
        """Time from a frame's start on link ``key`` until the far end holds
        it, with ideal clocks: wire time, propagation and the far-end
        switch's processing.  On a route's last link this is delivery."""
        prop, proc = self.link_delays_ns(key)
        return wire_ns + prop + proc

    def hop_lag_ns(self, key: tuple[str, str], wire_ns: int) -> int:
        """Scheduled time from a frame's start on link ``key`` to its
        earliest start on the next link of its route: the arrival lag plus
        ``sync_precision_ns`` as margin for the forwarding device's clock."""
        return self.arrival_lag_ns(key, wire_ns) + self.sync_precision_ns

    def streams_on_link(self, key: tuple[str, str]) -> tuple[Stream, ...]:
        """The streams whose route crosses link ``key``, in scenario order."""
        return self._streams_by_link.get(key, ())

    @cached_property
    def _streams_by_link(self) -> dict[tuple[str, str], tuple[Stream, ...]]:
        on: dict[tuple[str, str], list[Stream]] = {}
        for s in self.streams:
            for key in s.route:
                on.setdefault(key, []).append(s)
        return {key: tuple(streams) for key, streams in on.items()}

    @cached_property
    def hyper_period_ns(self) -> int:
        """Scenario-wide hyper-period: one cycle length shared by every
        table, gate list and slot index.  Per-link least common multiples
        always divide it, so per-link tables repeat exactly within it."""
        return hyper_period([s.period_ns for s in self.streams])

    def slots_of(self, stream: Stream) -> int:
        return self.hyper_period_ns // stream.period_ns


@dataclass(frozen=True)
class FrameInstance:
    """One periodic repetition of a stream's frame on one link.

    ``slot`` is the repetition index within the link hyper-period; the
    offset variable this instance owns is relative to ``slot * period``.
    ``duration_ns`` is the wire time of the largest admissible frame.
    """

    stream: str
    link: tuple[str, str]
    slot: int
    duration_ns: int
    period_ns: int
    hop: int  # 0 = talker link

    @cached_property
    def var_name(self) -> str:
        return f"off_{_var_stem(self.stream, self.link)}_{self.slot}"


def _sym(text: str) -> str:
    """SMT-LIB symbol part of an id: every non-alphanumeric becomes ``_``."""
    if text.replace("_", "").isalnum():  # the common case: nothing to change
        return text
    return "".join(c if c.isalnum() else "_" for c in text)


def _var_stem(stream: str, link: tuple[str, str]) -> str:
    """The symbol part shared by a stream's offset and queue variables on
    one link; distinct (stream, link) pairs need distinct stems."""
    return _sym(stream) + _link_stem(link)


def _link_stem(link: tuple[str, str]) -> str:
    """The part of :func:`_var_stem` that names the link."""
    return f"_{_sym(link[0])}__{_sym(link[1])}"


_LINK_INTS = ("rate_bps", "prop_delay_ns", "proc_delay_ns", "queue_count")
_STREAM_INTS = ("period_ns", "payload_min", "payload_max", "e2e_deadline_ns", "jitter_req_ns")


def _type_defects(scenario: Scenario) -> list[str]:
    """Each route hop that is not a pair, each id that is not a ``str`` and
    each count that is not an ``int``.  A ``bool`` is an ``int`` subclass to
    Python but no count of nanoseconds, bits or bytes, so the type must be
    ``int`` itself."""
    hops = [(s, hop) for s in scenario.streams for hop in s.route]
    out = [
        f"stream {s.id}: route hop {hop!r} is not a pair"
        for s, hop in hops
        if type(hop) is not tuple or len(hop) != 2
    ]
    ids = [n for n, _ in scenario.nodes] + [s.id for s in scenario.streams]
    ids += [end for ln in scenario.links for end in ln.key]
    ids += [end for _, hop in hops if type(hop) is tuple for end in hop]
    out += [f"id {i} is not a string" for i in dict.fromkeys(repr(i) for i in ids if type(i) is not str)]
    out += [
        f"link {ln}: {f} must be an integer"
        for ln in scenario.links
        for f in _LINK_INTS
        if type(getattr(ln, f)) is not int
    ]
    out += [
        f"stream {s.id}: {f} must be an integer"
        for s in scenario.streams
        for f in _STREAM_INTS
        if type(getattr(s, f)) is not int
    ]
    if type(scenario.sync_precision_ns) is not int:
        out.append("sync_precision_ns must be an integer")
    return out


def hyper_period(periods: Sequence[int]) -> int:
    """Least common multiple of the given periods (ns)."""
    if not periods:
        raise InvalidInputError("hyper_period of an empty period list")
    if any(p <= 0 for p in periods):
        raise InvalidInputError("periods must be positive")
    return math.lcm(*periods)


def bytes_to_duration(payload: int, rate_bps: int) -> int:
    """Wire time in ns of a frame with the given payload, rounded up.

    The frame occupies ``payload + 22`` bytes on the wire (header, FCS and
    related framing); preamble and inter-packet gap are not modeled.
    """
    if rate_bps <= 0:
        raise InvalidInputError("link rate must be positive")
    if payload < 0:
        raise InvalidInputError("payload must be non-negative")
    bits = (payload + ETHERNET_OVERHEAD_BYTES) * 8
    return -(-bits * 1_000_000_000 // rate_bps)


def expand_frame_instances(scenario: Scenario) -> list[FrameInstance]:
    """All (stream, link, slot) frame instances of the scenario.

    For every stream and every link on its route there are exactly
    ``hp / T`` instances, one per period repetition within the shared
    hyper-period cycle.  Instances are emitted in scenario stream order,
    route order, slot order.
    """
    if not scenario.streams:
        return []
    out: list[FrameInstance] = []
    hp = scenario.hyper_period_ns
    for s in scenario.streams:
        n = hp // s.period_ns
        for hop, key in enumerate(s.route):
            dur = bytes_to_duration(s.payload_max, scenario.link(key).rate_bps)
            for slot in range(n):
                out.append(FrameInstance(s.id, key, slot, dur, s.period_ns, hop))
    return out


def _scenario_defects(scenario: Scenario) -> list[str]:
    """Every defect of the scenario (empty = ok): each input that a later
    layer cannot handle.  :class:`Scenario` raises on any at construction."""
    # type defects come alone: the checks below hash, compare and format
    # the same fields
    defects = _type_defects(scenario)
    if defects:
        return defects
    node_ids = [n for n, _ in scenario.nodes]
    if len(set(node_ids)) != len(node_ids):
        defects.append("duplicate node ids")
    kinds = dict(scenario.nodes)
    for n, kind in scenario.nodes:
        if kind not in ("end-station", "switch"):
            defects.append(f"node {n}: unknown kind {kind!r}")

    link_stems: dict[tuple[str, str], str] = {}
    for ln in scenario.links:
        key = ln.key
        if key in link_stems:
            defects.append(f"link {ln}: duplicate (src, dst)")
        link_stems[key] = _link_stem(key)
        if ln.rate_bps <= 0:
            defects.append(f"link {ln}: rate must be positive")
        if not 1 <= ln.queue_count <= N_QUEUES:
            defects.append(f"link {ln}: queue_count must be in 1..{N_QUEUES}")
        if ln.prop_delay_ns < 0 or ln.proc_delay_ns < 0:
            defects.append(f"link {ln}: negative delay")
        for end in key:
            if end not in kinds:
                defects.append(f"link {ln}: unknown node {end}")

    seen_streams: set[str] = set()
    stems: dict[str, str] = {}  # variable stem -> the stream hop it names
    for s in scenario.streams:
        if s.id in seen_streams:
            defects.append(f"stream {s.id}: duplicate id")
        seen_streams.add(s.id)
        if not (0 < s.payload_min <= s.payload_max <= MAX_PAYLOAD_BYTES):
            defects.append(f"stream {s.id}: payload bounds must satisfy 0 < min <= max <= {MAX_PAYLOAD_BYTES}")
        if s.period_ns <= 0:
            defects.append(f"stream {s.id}: period must be positive")
        if s.e2e_deadline_ns <= 0:
            defects.append(f"stream {s.id}: deadline must be positive")
        if s.jitter_req_ns < 0:
            defects.append(f"stream {s.id}: jitter requirement must be >= 0")
        if not s.route:
            defects.append(f"stream {s.id}: empty route")
            continue
        keys = dict.fromkeys(s.route)
        if len(keys) != len(s.route):  # every layer keys a hop by (stream, link)
            repeated = [key for key in keys if s.route.count(key) > 1]
            defects += [f"stream {s.id}: route uses link {a}->{b} more than once" for a, b in repeated]
        # symbols are worked out once per stream and once per link, not per hop
        stream_sym = _sym(s.id)
        for key in keys:
            if key not in link_stems:
                defects.append(f"stream {s.id}: route uses unknown link {key[0]}->{key[1]}")
                continue
            hop = f"{s.id}@{key[0]}->{key[1]}"
            other = stems.setdefault(stream_sym + link_stems[key], hop)
            if other != hop:
                defects.append(f"stream {s.id}: {hop} and {other} sanitize to one solver symbol")
        for a, b in zip(s.route, s.route[1:]):
            if a[1] != b[0]:
                defects.append(f"stream {s.id}: route not a path at {a[1]}/{b[0]}")
        talker, listener = s.route[0][0], s.route[-1][1]
        if kinds.get(talker) != "end-station":
            defects.append(f"stream {s.id}: talker {talker} is not an end-station")
        if kinds.get(listener) != "end-station":
            defects.append(f"stream {s.id}: listener {listener} is not an end-station")

    if scenario.sync_precision_ns < 0:
        defects.append("sync_precision must be >= 0")
    return defects


def ns_to_us_str(ns: int) -> str:
    """Render integer ns as microseconds with up to three decimals."""
    us, rem = divmod(ns, NS_PER_US)
    if rem == 0:
        return str(us)
    return f"{us}.{rem:03d}".rstrip("0")


# ---------------------------------------------------------------------------
# Scenario file format (JSON)

def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "sync_precision_ns": scenario.sync_precision_ns,
        "nodes": [{"id": n, "kind": kind} for n, kind in scenario.nodes],
        "links": [
            {
                "src": ln.src,
                "dst": ln.dst,
                "rate_bps": ln.rate_bps,
                "prop_delay_ns": ln.prop_delay_ns,
                "proc_delay_ns": ln.proc_delay_ns,
                "queue_count": ln.queue_count,
            }
            for ln in scenario.links
        ],
        "streams": [
            {
                "id": s.id,
                "period_ns": s.period_ns,
                "payload_min": s.payload_min,
                "payload_max": s.payload_max,
                "route": [[a, b] for a, b in s.route],
                "e2e_deadline_ns": s.e2e_deadline_ns,
                "jitter_req_ns": s.jitter_req_ns,
            }
            for s in scenario.streams
        ],
    }


def _entries(doc: dict, key: str, make: Callable[[dict], object], kind: str = "scenario") -> tuple:
    """``make`` of each entry of the ``kind`` document's ``key`` list.  A
    missing key, a value of the wrong JSON type, or a route hop that is not
    a pair raises :class:`InvalidInputError` naming it and its entry."""
    if key not in doc:
        raise InvalidInputError(f"invalid {kind} document: missing key {key!r}")
    out = []
    for i, item in enumerate(_list(doc[key], f"invalid {kind} document: {key}")):
        where = f"invalid {kind} document: {key}[{i}]"
        if not isinstance(item, dict):
            raise InvalidInputError(f"{where} is not an object")
        try:
            out.append(make(item))
        except KeyError as err:
            raise InvalidInputError(f"{where}: missing key {err}") from None
        except InvalidInputError as err:
            raise InvalidInputError(f"{where}: {err}") from None
    return tuple(out)


def _list(value, what: str) -> list | tuple:
    """``value``, a JSON list (or a tuple, in a document built in code)."""
    if not isinstance(value, (list, tuple)):
        raise InvalidInputError(f"{what} {value!r} is not a list")
    return value


def _hop(hop, what: str = "route hop") -> tuple[str, str]:
    if not isinstance(hop, (list, tuple)) or len(hop) != 2:
        raise InvalidInputError(f"{what} {hop!r} is not a [src, dst] pair")
    return hop[0], hop[1]


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a JSON document; raises :class:`InvalidInputError`
    on a missing key, a list or object of the wrong JSON type, a route hop
    that is not a pair, and every defect the scenario's own check finds.
    Unknown keys are ignored."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"invalid scenario document: {type(doc).__name__} is not an object")
    return Scenario(
        name=doc.get("name", "scenario"),
        sync_precision_ns=doc.get("sync_precision_ns", 0),
        nodes=_entries(doc, "nodes", lambda n: (n["id"], n["kind"])),
        links=_entries(
            doc,
            "links",
            lambda ln: Link(
                src=ln["src"],
                dst=ln["dst"],
                rate_bps=ln["rate_bps"],
                prop_delay_ns=ln.get("prop_delay_ns", 0),
                proc_delay_ns=ln.get("proc_delay_ns", 0),
                queue_count=ln.get("queue_count", 8),
            ),
        ),
        streams=_entries(
            doc,
            "streams",
            lambda s: Stream(
                id=s["id"],
                period_ns=s["period_ns"],
                payload_min=s["payload_min"],
                payload_max=s["payload_max"],
                route=tuple(map(_hop, _list(s["route"], "route"))),
                e2e_deadline_ns=s["e2e_deadline_ns"],
                jitter_req_ns=s["jitter_req_ns"],
            ),
        ),
    )


def _read_json(path: str | Path):
    """The JSON document in the file at ``path``; a file that is not JSON
    raises :class:`InvalidInputError` naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # not JSON, or not text
            raise InvalidInputError(f"{path} is not a JSON file: {err}") from None


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(_read_json(path))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
