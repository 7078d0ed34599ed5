"""Deterministic discrete-event simulator of talkers, switches and
listeners.

Switch egress runs in one of two modes, set per switch:

* ``tas``   -- gate-controlled shared priority queues.  Transmission
  selection is strict priority over open, non-empty queues; a frame starts
  only when the line is idle, its gate is open, and the transmission fits
  before the gate closes (length-aware guard).  Once started it is never
  aborted.  A frame that misses its window waits for the next opening
  that fits.
* ``ttubs`` -- per-stream shaped queues ahead of the shared queues.  The
  shaper releases each frame at its table eligibility time, discards
  frames whose eligibility already passed in the current cycle, and keeps
  at most one frame per shaped queue (a newer arrival displaces an older
  held frame).  Shared-queue gates for time-triggered traffic stay open.

End-station egress is one ungated, unshaped queue.  Each stream's route is
resolved once into one (egress port, shared queue, shaped queue or none,
fault meters at the far end) per hop.  A frame carries its plan, those hops
with its payload's wire time on each, which every send, arrival and
release reads; a fixed-size stream's plan is built once, a variable-size
stream's once per frame.  The shared queue of a switch egress hop is the
deployment's; talkers send at the offsets of their stream's talker row in
the shaper table.

Propagation and, at a switch, its processing delay pass between a frame's
last bit leaving the sender and its arrival event (``arrival_lag_ns``), so
a fault meter sees a frame after processing.  Clocks are ideal.

Ingress carries per-stream filter chains; a fault meter bound to a chain
can drop or delay designated frames.  A delayed frame holds back later
frames of its own chain (released in order with it), other chains are
unaffected.

Building a :class:`SimConfig` refuses, before any run starts, an unknown
egress mode or a mode dict that does not name exactly the switches, a seed
or duration that is not an ``int``, a negative seed, a run shorter than one
hyper-period, a switch egress hop without a queue in ``0..queue_count-1``, a
``tas`` port with a stream but no gate list, a talker or ``ttubs`` shaper
row that is missing or lacks one offset per slot of its stream in a
hyper-period cycle, and a fault that can never fire (its ingress is no
scenario link into a switch that a matched stream crosses).  Gate lists and
rows check their own shape.  The engine checks nothing.

Everything is integer nanoseconds and rng-seeded; identical configs give
byte-identical traces.  Payloads are drawn uniformly per frame; a stream
whose range is one value draws nothing from the generator.  Writing a
trace changes no event and no metric.

Events at one instant run in a fixed order: by phase (link arrivals,
shaper releases, meter releases, transmission retries, talker sends), then
by a rank fixed by what the event belongs to: the port an arrival comes
over or a retry is for (its link's index in the scenario), the shaped
queue, the fault or the stream.  No event's place depends on when it was
pushed, so an event that changes nothing moves no other.  As arrivals come
first, a frame that arrives at the instant its shaped queue would release
an older held frame displaces that frame rather than following it out.

A port's wakes are its transmission retries.  After a start the port is
woken when its last bit leaves (``busy_until``) only if a queue still
holds a frame, and a frame that comes while the port is busy pushes that
wake.  A port has at most one wake pending (``next_wake``); a wake that an
earlier one replaced does nothing when it comes.

A gated port asks its gate list (``next_fit_start``) when its head frame
can start.  The frame keeps the answer as its known fit ``f``, and a port
whose heads all fit later wakes at the earliest of them.  A try at ``t == f``
with that frame still at the head starts it without asking again: the gate
list is static, so the earliest fit at or after ``f`` is ``f`` itself.  A
frame cannot meet a stale fit at its next hop, which it reaches after
``f`` plus a wire time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .artifacts import Deployment
from .model import N_QUEUES, InvalidInputError, Scenario, bytes_to_duration

__all__ = [
    "AttackConfig",
    "SimConfig",
    "StreamMetrics",
    "SimReport",
    "run",
    "collect_metrics",
    "eligibility_decision",
    "MeterState",
]

LinkKey = tuple[str, str]

# event phases at equal timestamps
PH_ARRIVAL = 0
PH_SHAPER = 1
PH_METER = 2
PH_SERVICE = 3
PH_SEND = 4

DROP_CAUSES = ("attack_dropped", "timeout_discarded", "displaced", "stranded")


@dataclass(frozen=True)
class AttackConfig:
    """Fault injection bound to one ingress filter chain of switch ``ingress[1]``.

    ``attack_type`` 'drop' discards, 'delay' holds frames for
    ``delay_time_ns`` (the command line also takes 1 and 2 for them).  The first ``frame_count`` matching frames fully
    received at or after ``startup_time_ns`` are acted on.  ``match_stream``
    narrows the chain to one stream; None matches every stream on the
    ingress.  The times and the count are ``int``s."""

    ingress: LinkKey
    attack_type: str  # "drop" | "delay"
    startup_time_ns: int
    frame_count: int
    delay_time_ns: int = 0
    match_stream: str | None = None

    def __post_init__(self):
        if any(type(n) is not int for n in (self.startup_time_ns, self.frame_count, self.delay_time_ns)):
            raise InvalidInputError("startup_time, frame_count and delay_time must be integers")
        if self.frame_count < 0 or self.delay_time_ns < 0:
            raise InvalidInputError("frame_count and delay_time must be >= 0")
        if self.attack_type not in ("drop", "delay"):
            raise InvalidInputError(f"unknown attack_type {self.attack_type!r}")


@dataclass(frozen=True)
class SimConfig:
    """One simulation's inputs.  Building one with any defect raises
    :class:`InvalidInputError` listing every one; the engine checks none."""

    scenario: Scenario
    deployment: Deployment
    egress_mode: str | dict[str, str] = "ttubs"
    faults: tuple[AttackConfig, ...] = ()
    rng_seed: int = 1
    sim_duration_ns: int = 10_000_000_000

    def __post_init__(self):
        if defects := self._defects():
            raise InvalidInputError("; ".join(defects))

    def mode_of(self, switch: str) -> str:
        return self.egress_mode if isinstance(self.egress_mode, str) else self.egress_mode[switch]

    def _defects(self) -> list[str]:
        sc, dep, egress = self.scenario, self.deployment, self.egress_mode
        switches = {n for n, kind in sc.nodes if kind == "switch"}
        modes = egress.values() if isinstance(egress, dict) else (egress,)
        defects = [f"unknown egress mode {m!r}" for m in dict.fromkeys(modes) if m not in ("tas", "ttubs")]
        if isinstance(egress, dict):  # a per-switch egress mode names every switch and nothing else
            wrong = [f"no mode for switch {n}" for n in sorted(switches - set(egress))]
            wrong += [f"{n} is not a switch" for n in sorted(set(egress) - switches, key=str)]
            if wrong:
                defects.append("egress_mode: " + "; ".join(wrong))
        if defects:
            return defects  # the checks below read each switch's mode
        if type(self.rng_seed) is not int or type(self.sim_duration_ns) is not int:
            defects.append("rng_seed and sim_duration_ns must be integers")
        elif self.sim_duration_ns < sc.hyper_period_ns:
            defects.append("simulation shorter than one hyper-period")
        if type(self.rng_seed) is int and self.rng_seed < 0:
            defects.append("rng_seed must be >= 0")

        # the deployment, as the ports, the talkers and the shaped queues read it
        used = dict.fromkeys(key for s in sc.streams for key in s.route)  # links that carry a stream
        for a, b in filter(sc.is_switch_egress, used):
            if self.mode_of(a) == "tas" and dep.gcls.get((a, b)) is None:
                defects.append(f"no gate control list for {a}->{b}")
        for s in sc.streams:
            for key in filter(sc.is_switch_egress, s.route):
                q, count = dep.queues.get((s.id, key)), sc.link(key).queue_count
                if q is None:
                    defects.append(f"no queue for {s.id} on {key[0]}->{key[1]}")
                elif type(q) is not int or not 0 <= q < count:
                    defects.append(f"queue {q!r} of {s.id} on {key[0]}->{key[1]} is outside 0..{count - 1}")
            shaped = [key for key in filter(sc.is_switch_egress, s.route) if self.mode_of(key[0]) == "ttubs"]
            for a, b in (s.route[0], *shaped):  # each row holds one offset per slot of one hyper-period
                try:
                    row = dep.table.row_for(s.id, (a, b))
                except InvalidInputError as err:
                    defects.append(str(err))
                    continue
                have, need = (len(row.eligibility_offsets_ns), row.cycle_time_ns), (sc.slots_of(s), sc.hyper_period_ns)
                if have != need:
                    defects.append("shaper row of {} at {}->{}: {} offset(s) in cycle {}, not {} in {}".format(
                        s.id, a, b, *have, *need))

        # a fault that can never fire is refused rather than ignored
        links = {ln.key for ln in sc.links}
        for f in self.faults:
            where = f"fault at {f.ingress[1]} on ingress {f.ingress[0]}->{f.ingress[1]}"
            if f.ingress not in links or f.ingress[1] not in switches:
                defects.append(f"{where}: not a link of the scenario into a switch")
            elif not any(f.match_stream in (None, s.id) for s in sc.streams_on_link(f.ingress)):
                defects.append(f"{where}: no stream it matches crosses the link")
        return defects


@dataclass
class StreamMetrics:
    sent: int = 0
    delivered: int = 0
    drops: dict[str, int] = field(default_factory=lambda: {c: 0 for c in DROP_CAUSES})
    e2e_max_ns: int | None = None
    e2e_min_ns: int | None = None
    e2e_mean_ns: float | None = None
    jitter_ns: int | None = None
    deadline_violations: int = 0
    jitter_violation: bool = False
    frames: list[tuple[int, int, int]] = field(default_factory=list)  # (slot, payload, e2e)

    @property
    def shaper_discards(self) -> int:
        """Frames the stream's shaped queues dropped: timed out or displaced."""
        return self.drops["timeout_discarded"] + self.drops["displaced"]


@dataclass
class SimReport:
    metrics: dict[str, StreamMetrics]

    @property
    def shaper_discards(self) -> int:
        return sum(m.shaper_discards for m in self.metrics.values())


def eligibility_decision(now: int, offsets: tuple[int, ...], cycle_ns: int, period_ns: int):
    """Shaper decision for a frame entering its shaped queue at ``now``:
    ('hold', release_time) when the current slot's eligibility offset is
    still ahead, ('timeout', None) when it already passed."""
    cur = now % cycle_ns
    slot = cur // period_ns
    intended = offsets[slot]
    if intended < cur:
        return "timeout", None
    return "hold", now - cur + intended


class MeterState:
    """Runtime state of one fault meter (pass/drop/delay decisions)."""

    def __init__(self, config: AttackConfig):
        self.config = config
        self.remaining = config.frame_count
        self.holding = False  # a delayed frame is pending release

    def matches(self, stream: str) -> bool:
        return self.config.match_stream is None or self.config.match_stream == stream

    def decide(self, stream: str, now: int) -> str:
        """One of 'pass', 'drop', 'delay', 'queue' (held behind a pending
        delayed frame of the same chain)."""
        if not self.matches(stream):
            return "pass"
        if self.holding:
            return "queue"
        if self.remaining > 0 and now >= self.config.startup_time_ns:
            self.remaining -= 1
            return self.config.attack_type
        return "pass"


class _Frame:
    __slots__ = ("stream_idx", "slot", "payload", "send_time", "plan", "hop", "dur", "fit")

    def __init__(self, stream_idx, slot, payload, send_time, plan):
        self.stream_idx = stream_idx
        self.slot = slot
        self.payload = payload
        self.send_time = send_time
        self.plan = plan  # the stream's hops with this payload's wire times
        self.hop = 0
        self.dur = 0  # wire time on the current hop
        self.fit = -1  # the gate's last answer for this frame; -1 before any


class _ShapedQueue:
    __slots__ = ("rank", "held", "epoch", "offsets", "period")

    def __init__(self, rank, offsets, period):
        self.rank = rank  # its index among the engine's shaped queues
        self.held: _Frame | None = None
        self.epoch = 0
        self.offsets = offsets  # one per slot of a hyper-period cycle
        self.period = period


class _Port:
    __slots__ = ("rank", "link", "rate", "lag", "busy_until", "queues", "used", "gcl", "next_wake")

    def __init__(self, rank, link, rate, lag, gcl):
        self.rank = rank  # its link's index in the scenario
        self.link = link
        self.rate = rate
        self.lag = lag  # last bit sent to frame held at the far end: propagation + processing
        self.busy_until = 0
        self.queues = [deque() for _ in range(N_QUEUES)]
        self.used: tuple[int, ...] = ()  # queues the port's streams use, highest first
        self.gcl = gcl  # set only where a ``tas`` switch gates the port
        self.next_wake: int | None = None


def _with_wire_times(hops, payload: int) -> tuple:
    return tuple(
        (port, queue, shaped, bytes_to_duration(payload, port.rate), meters) for port, queue, shaped, meters in hops
    )


class _Engine:
    def __init__(self, config: SimConfig, trace_path: str | None):
        self.config = config
        scenario = config.scenario
        dep = config.deployment
        self.streams = list(scenario.streams)
        self.cycle = scenario.hyper_period_ns
        self.heap: list = []
        self.rng = np.random.default_rng(config.rng_seed)

        self.metrics = [StreamMetrics() for _ in self.streams]  # by stream index
        self.in_flight = 0

        ports: dict[LinkKey, _Port] = {}
        for rank, ln in enumerate(scenario.links):
            gated = scenario.is_switch_egress(ln.key) and config.mode_of(ln.src) == "tas"
            gcl = dep.gcls.get(ln.key) if gated else None
            ports[ln.key] = _Port(rank, ln.key, ln.rate_bps, scenario.arrival_lag_ns(ln.key, 0), gcl)

        # fault meters keyed by ingress link
        meters: dict[LinkKey, list] = {}
        for rank, cfg in enumerate(config.faults):
            meters.setdefault(cfg.ingress, []).append((rank, MeterState(cfg), []))

        # per stream, one (egress port, shared queue, shaped queue or None,
        # meters at the link's far end) per route hop; end-station egress
        # is queue 0, unshaped and ungated
        self.hops: list[tuple[tuple[_Port, int, _ShapedQueue | None, tuple], ...]] = []
        # per stream of one payload size, its hops with that size's wire
        # time added: (port, queue, shaped, wire time, meters); None for a
        # stream of variable size, whose frames each get their own
        self.plans: list[tuple | None] = []
        shaped_count = 0
        for s in self.streams:
            hops = []
            for key in s.route:
                port = ports[key]
                queue, shaped = 0, None
                if scenario.is_switch_egress(key):
                    queue = dep.queues[(s.id, key)]
                    if config.mode_of(key[0]) == "ttubs":
                        offsets = dep.table.row_for(s.id, key).eligibility_offsets_ns
                        shaped = _ShapedQueue(shaped_count, offsets, s.period_ns)
                        shaped_count += 1
                if queue not in port.used:
                    port.used = tuple(sorted((*port.used, queue), reverse=True))
                hops.append((port, queue, shaped, tuple(meters.get(key, ()))))
            self.hops.append(tuple(hops))
            self.plans.append(_with_wire_times(hops, s.payload_min) if s.payload_min == s.payload_max else None)

        # talker sends, from each stream's talker row
        for i, s in enumerate(self.streams):
            for slot, t0 in enumerate(dep.table.row_for(s.id, s.route[0]).eligibility_offsets_ns):
                if t0 < config.sim_duration_ns:
                    self.push(t0, PH_SEND, i, (i, slot))

        self.trace = open(trace_path, "w") if trace_path else None
        if self.trace:
            self.trace.write("time_ns,node,event,stream,slot,disposition\n")

    # ------------------------------------------------------------------
    def push(self, t, phase, rank, data):
        heappush(self.heap, (t, phase, rank, data))

    def emit(self, t, node, event, stream_idx, slot, disposition=""):
        self.trace.write(f"{t},{node},{event},{self.streams[stream_idx].id},{slot},{disposition}\n")

    def drop(self, t, node, frame: _Frame, cause: str, event: str):
        self.metrics[frame.stream_idx].drops[cause] += 1
        self.in_flight -= 1
        if self.trace:
            self.emit(t, node, event, frame.stream_idx, frame.slot, cause)

    # ------------------------------------------------------------------
    def run(self):
        # indexed by phase; a local, so the engine holds no bound method of
        # itself and is freed as soon as it is dropped
        handlers = (self.on_arrival, self.on_shaper_release, self.on_meter_release, self.on_service, self.on_send)
        heap = self.heap
        while heap:
            t, phase, _, data = heappop(heap)
            handlers[phase](t, data)
        if self.trace:
            self.trace.close()

    # ------------------------------------------------------------------
    def on_send(self, t, data):
        i, slot = data
        s = self.streams[i]
        plan = self.plans[i]
        if plan is None:
            payload = int(self.rng.integers(s.payload_min, s.payload_max + 1))
            plan = _with_wire_times(self.hops[i], payload)
        else:
            payload = s.payload_min  # draws nothing from the generator
        self.metrics[i].sent += 1
        self.in_flight += 1
        if self.trace:
            self.emit(t, s.talker, "send", i, slot)
        nxt = t + self.cycle
        if nxt < self.config.sim_duration_ns:
            self.push(nxt, PH_SEND, i, data)
        self.to_egress(t, _Frame(i, slot, payload, t, plan))

    def on_arrival(self, t, frame: _Frame):
        port, _, _, _, meters = frame.plan[frame.hop]
        node = port.link[1]
        frame.hop += 1
        if frame.hop == len(frame.plan):
            self.deliver(t, node, frame)
            return
        if self.trace:
            self.emit(t, node, "arrive", frame.stream_idx, frame.slot)
        for entry in meters:
            rank, state, pending = entry
            action = state.decide(self.streams[frame.stream_idx].id, t)
            if action == "drop":
                self.drop(t, node, frame, "attack_dropped", "meter_drop")
                return
            if action == "delay":
                state.holding = True
                pending.append(frame)
                if self.trace:
                    self.emit(t, node, "meter_capture", frame.stream_idx, frame.slot)
                self.push(t + state.config.delay_time_ns, PH_METER, rank, entry)
                return
            if action == "queue":
                pending.append(frame)
                if self.trace:
                    self.emit(t, node, "meter_queue", frame.stream_idx, frame.slot)
                return
        self.to_egress(t, frame)

    def on_meter_release(self, t, entry):
        _, state, pending = entry
        state.holding = False
        frames, pending[:] = list(pending), []
        for frame in frames:
            if self.trace:
                self.emit(t, state.config.ingress[1], "meter_release", frame.stream_idx, frame.slot)
            self.to_egress(t, frame)

    def to_egress(self, t, frame: _Frame):
        """Hand ``frame`` to its current hop: straight into the shared
        queue, or through the hop's shaped queue."""
        port, queue, sq, dur, _ = frame.plan[frame.hop]
        frame.dur = dur
        if sq is None:
            port.queues[queue].append(frame)
            self.service(t, port)
            return
        node = port.link[0]
        if sq.held is not None:
            older = sq.held
            sq.held = None
            sq.epoch += 1
            self.drop(t, node, older, "displaced", "shaper_displace")
        verdict, release = eligibility_decision(t, sq.offsets, self.cycle, sq.period)
        if verdict == "timeout":
            self.drop(t, node, frame, "timeout_discarded", "shaper_timeout")
            return
        if release == t:
            if self.trace:
                self.emit(t, node, "shaper_release", frame.stream_idx, frame.slot)
            port.queues[queue].append(frame)
            self.service(t, port)
            return
        sq.held = frame
        if self.trace:
            self.emit(t, node, "shaper_hold", frame.stream_idx, frame.slot)
        self.push(release, PH_SHAPER, sq.rank, (sq, sq.epoch))

    def on_shaper_release(self, t, data):
        sq, epoch = data
        if epoch != sq.epoch:
            return  # displaced meanwhile
        frame = sq.held
        sq.held = None
        sq.epoch += 1
        port, queue, _, _, _ = frame.plan[frame.hop]
        if self.trace:
            self.emit(t, port.link[0], "shaper_release", frame.stream_idx, frame.slot)
        port.queues[queue].append(frame)
        self.service(t, port)

    # ------------------------------------------------------------------
    def wake(self, port: _Port, t: int):
        if port.next_wake is None or t < port.next_wake:
            port.next_wake = t
            self.push(t, PH_SERVICE, port.rank, port)

    def on_service(self, t, port: _Port):
        if port.next_wake == t:  # else an earlier wake replaced this one, or it has run
            port.next_wake = None
            self.service(t, port)

    def service(self, t, port: _Port):
        if port.busy_until > t:
            self.wake(port, port.busy_until)
            return
        gcl = port.gcl
        best_retry: int | None = None
        for q in port.used:
            dq = port.queues[q]
            while dq:
                head = dq[0]
                if gcl is None or head.fit == t:
                    start = t
                else:
                    start = head.fit = gcl.next_fit_start(q, t, head.dur)
                if start == t:
                    dq.popleft()
                    port.busy_until = t + head.dur
                    if self.trace:
                        self.emit(t, port.link[0], "tx_start", head.stream_idx, head.slot)
                    self.push(port.busy_until + port.lag, PH_ARRIVAL, port.rank, head)
                    # a queue still holds a frame: this one, one above whose
                    # head waits for its gate, or one below
                    if dq or best_retry is not None or (
                        q != port.used[-1] and any(port.queues[r] for r in port.used)
                    ):
                        self.wake(port, port.busy_until)
                    return
                if start is None:
                    dq.popleft()
                    self.drop(t, port.link[0], head, "stranded", "stranded")
                    continue
                if best_retry is None or start < best_retry:
                    best_retry = start
                break
        if best_retry is not None:
            self.wake(port, best_retry)

    # ------------------------------------------------------------------
    def deliver(self, t, node, frame: _Frame):
        m = self.metrics[frame.stream_idx]
        m.delivered += 1
        m.frames.append((frame.slot, frame.payload, t - frame.send_time))
        self.in_flight -= 1
        if self.trace:
            self.emit(t, node, "deliver", frame.stream_idx, frame.slot, "delivered")


def collect_metrics(scenario: Scenario, metrics: dict[str, StreamMetrics]) -> dict[str, StreamMetrics]:
    """Finalize aggregate fields from the per-frame records."""
    for s in scenario.streams:
        m = metrics[s.id]
        if m.frames:
            e2es = [e for (_, _, e) in m.frames]
            m.e2e_max_ns = max(e2es)
            m.e2e_min_ns = min(e2es)
            m.e2e_mean_ns = sum(e2es) / len(e2es)
            m.jitter_ns = m.e2e_max_ns - m.e2e_min_ns
            m.deadline_violations = sum(1 for e in e2es if e > s.e2e_deadline_ns)
            m.jitter_violation = m.jitter_ns > s.jitter_req_ns
        total_drops = sum(m.drops.values())
        if m.sent != m.delivered + total_drops:
            raise AssertionError(
                f"conservation violated for {s.id}: sent {m.sent} != "
                f"delivered {m.delivered} + drops {total_drops}"
            )
    return metrics


def run(config: SimConfig, trace_path: str | None = None) -> SimReport:
    """Execute the scenario under the deployment; returns per-stream
    metrics (and writes a CSV event trace when ``trace_path`` is given)."""
    engine = _Engine(config, trace_path)
    engine.run()
    if engine.in_flight != 0:
        raise AssertionError(f"{engine.in_flight} frames unaccounted at drain")
    metrics = collect_metrics(config.scenario, {s.id: m for s, m in zip(engine.streams, engine.metrics)})
    return SimReport(metrics)
