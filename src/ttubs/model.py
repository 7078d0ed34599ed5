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
from typing import Sequence

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
    "validate_scenario",
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

    @property
    def listener(self) -> str:
        return self.route[-1][1]


@dataclass(frozen=True)
class Scenario:
    """Network graph plus traffic.  Node/link/stream order is significant:
    every derived artifact (constraints, encodings, schedules) iterates in
    scenario order so that identical scenarios produce identical outputs."""

    nodes: tuple[tuple[str, str], ...]  # (node id, "end-station" | "switch")
    links: tuple[Link, ...]
    streams: tuple[Stream, ...]
    sync_precision_ns: int = 0
    name: str = "scenario"

    def link(self, key: tuple[str, str]) -> Link:
        try:
            return self._link_index[key]
        except KeyError:
            raise InvalidInputError(f"unknown link {key[0]}->{key[1]}") from None

    @cached_property
    def _link_index(self) -> dict[tuple[str, str], Link]:
        return {ln.key: ln for ln in self.links}

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

    def streams_on_link(self, key: tuple[str, str]) -> list[Stream]:
        return [s for s in self.streams if key in s.route]

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
    return "".join(c if c.isalnum() else "_" for c in text)


def _var_stem(stream: str, link: tuple[str, str]) -> str:
    """The symbol part shared by a stream's offset and queue variables on
    one link; distinct (stream, link) pairs need distinct stems."""
    return f"{_sym(stream)}_{_sym(link[0])}__{_sym(link[1])}"


def _route_repeats(stream: Stream) -> list[str]:
    """One defect per link that the stream's route uses more than once.
    Every layer keys a hop by (stream, link), so none can take such a route:
    :func:`validate_scenario` lists these, and frame expansion, which both
    engines start from, raises them for a scenario built in code."""
    route = stream.route
    if len(set(route)) == len(route):
        return []
    return [
        f"stream {stream.id}: route uses link {a}->{b} more than once"
        for a, b in dict.fromkeys(route)
        if route.count((a, b)) > 1
    ]


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
        repeats = _route_repeats(s)
        if repeats:
            raise InvalidInputError("; ".join(repeats))
        n = hp // s.period_ns
        for hop, key in enumerate(s.route):
            dur = bytes_to_duration(s.payload_max, scenario.link(key).rate_bps)
            for slot in range(n):
                out.append(FrameInstance(s.id, key, slot, dur, s.period_ns, hop))
    return out


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every model invariant; returns a list of defects (empty = ok)."""
    defects: list[str] = []
    node_ids = [n for n, _ in scenario.nodes]
    if len(set(node_ids)) != len(node_ids):
        defects.append("duplicate node ids")
    kinds = dict(scenario.nodes)
    for n, kind in scenario.nodes:
        if kind not in ("end-station", "switch"):
            defects.append(f"node {n}: unknown kind {kind!r}")

    seen_links: set[tuple[str, str]] = set()
    for ln in scenario.links:
        if ln.key in seen_links:
            defects.append(f"link {ln}: duplicate (src, dst)")
        seen_links.add(ln.key)
        if ln.rate_bps <= 0:
            defects.append(f"link {ln}: rate must be positive")
        if not 1 <= ln.queue_count <= N_QUEUES:
            defects.append(f"link {ln}: queue_count must be in 1..{N_QUEUES}")
        if ln.prop_delay_ns < 0 or ln.proc_delay_ns < 0:
            defects.append(f"link {ln}: negative delay")
        for end in ln.key:
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
        defects += _route_repeats(s)
        for key in dict.fromkeys(s.route):
            if key not in seen_links:
                defects.append(f"stream {s.id}: route uses unknown link {key[0]}->{key[1]}")
            hop = f"{s.id}@{key[0]}->{key[1]}"
            other = stems.setdefault(_var_stem(s.id, key), hop)
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


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a JSON document; raises :class:`InvalidInputError`
    listing every defect :func:`validate_scenario` finds."""
    scenario = Scenario(
        name=doc.get("name", "scenario"),
        sync_precision_ns=int(doc.get("sync_precision_ns", 0)),
        nodes=tuple((n["id"], n["kind"]) for n in doc["nodes"]),
        links=tuple(
            Link(
                src=ln["src"],
                dst=ln["dst"],
                rate_bps=int(ln["rate_bps"]),
                prop_delay_ns=int(ln.get("prop_delay_ns", 0)),
                proc_delay_ns=int(ln.get("proc_delay_ns", 0)),
                queue_count=int(ln.get("queue_count", 8)),
            )
            for ln in doc["links"]
        ),
        streams=tuple(
            Stream(
                id=s["id"],
                period_ns=int(s["period_ns"]),
                payload_min=int(s["payload_min"]),
                payload_max=int(s["payload_max"]),
                route=tuple((a, b) for a, b in s["route"]),
                e2e_deadline_ns=int(s["e2e_deadline_ns"]),
                jitter_req_ns=int(s["jitter_req_ns"]),
            )
            for s in doc["streams"]
        ),
    )
    defects = validate_scenario(scenario)
    if defects:
        raise InvalidInputError(f"invalid scenario {scenario.name!r}: " + "; ".join(defects))
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
