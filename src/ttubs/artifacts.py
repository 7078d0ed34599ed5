"""Deployment artifacts derived from a solved schedule.

* ShaperOffsetTable -- per-stream eligibility offsets for the table-driven
  per-stream shapers: one row per stream per egress port.  The row of a
  stream's first hop is its talker row and holds the talker's send times;
  no other artifact repeats them.
* GateControlList   -- per-port cyclic gate states with exact nanosecond
  windows (published tables round to whole microseconds; rounding there is
  presentation, not semantics, since a window narrower than its frame
  could never transmit it under length-aware gating).
* Deployment        -- the table, the gate lists of the switch egress ports
  and the shared queue of each stream on each switch egress hop (the
  link's ``nfic_queue`` where the schedule assigns none).
* Closed-form end-to-end latency, bounds and jitter from the table alone.

Each artifact is valid by construction, raising :class:`InvalidInputError`
when built with a defect: a ``ShaperRow`` needs ``int`` offsets, strictly
increasing, in ``[0, cycle_time_ns)``; a ``ShaperOffsetTable`` one row per
(stream, egress); a ``GateControlList`` a positive ``int`` cycle that its
intervals tile in order, with ``int`` bounds and ``N_QUEUES`` gates each.
Whether they fit a scenario is ``SimConfig``'s check.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .model import N_QUEUES, InvalidInputError, Scenario, bytes_to_duration, ns_to_us_str
from .schedule import Schedule

__all__ = [
    "ShaperRow",
    "ShaperOffsetTable",
    "GclInterval",
    "GateControlList",
    "LatencyBreakdown",
    "Deployment",
    "build_shaper_offset_table",
    "build_gcl",
    "build_deployment",
    "e2e_per_slot",
    "e2e_bounds_and_jitter",
    "latency_breakdown",
]

LinkKey = tuple[str, str]


@dataclass(frozen=True)
class ShaperRow:
    switch: str
    egress: LinkKey
    ingress: LinkKey | None  # None on talker rows: the stream match suffices
    stream: str
    eligibility_offsets_ns: tuple[int, ...]
    cycle_time_ns: int

    def __post_init__(self):
        offs, cycle = self.eligibility_offsets_ns, self.cycle_time_ns
        chain = (-1, *offs, cycle)  # -1 < first offset < ... < last offset < cycle
        if any(type(n) is not int for n in chain) or any(a >= b for a, b in zip(chain, chain[1:])):
            where = f"shaper row of {self.stream} at {self.egress[0]}->{self.egress[1]}"
            raise InvalidInputError(f"{where}: offsets {offs!r} are not increasing integers in [0, {cycle!r})")


@dataclass(frozen=True)
class ShaperOffsetTable:
    rows: tuple[ShaperRow, ...] = ()

    def __post_init__(self):
        if len(self._by_key) < len(self.rows):
            keys = [(r.stream, r.egress) for r in self.rows]
            stream, (a, b) = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise InvalidInputError(f"two shaper rows for {stream} at {a}->{b}")

    @cached_property
    def _by_key(self) -> dict[tuple[str, LinkKey], ShaperRow]:
        return {(row.stream, row.egress): row for row in self.rows}

    def row_for(self, stream: str, egress: LinkKey) -> ShaperRow:
        try:
            return self._by_key[(stream, egress)]
        except KeyError:
            raise InvalidInputError(f"no shaper row for {stream} at {egress[0]}->{egress[1]}") from None

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["Switch", "Port", "Stream", "EligibilityOffset", "CycleTime"])
        for row in self.rows:
            port = f"{row.ingress[0]}->{row.ingress[1]}" if row.ingress else "talker"
            for off in row.eligibility_offsets_ns:
                w.writerow([row.switch, port, row.stream, ns_to_us_str(off), ns_to_us_str(row.cycle_time_ns)])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "switch": r.switch,
                    "egress": list(r.egress),
                    "ingress": list(r.ingress) if r.ingress else None,
                    "stream": r.stream,
                    "eligibility_offsets_ns": list(r.eligibility_offsets_ns),
                    "eligibility_offsets_us": [ns_to_us_str(o) for o in r.eligibility_offsets_ns],
                    "cycle_time_ns": r.cycle_time_ns,
                }
                for r in self.rows
            ]
        }


@dataclass(frozen=True)
class GclInterval:
    start_ns: int
    end_ns: int
    gates: tuple[bool, ...]  # True = open, index = queue


@dataclass(frozen=True)
class GateControlList:
    cycle_time_ns: int
    intervals: tuple[GclInterval, ...]

    def __post_init__(self):
        cycle, pos = self.cycle_time_ns, 0
        if type(cycle) is not int or cycle <= 0:
            raise InvalidInputError(f"gate control list: cycle {cycle!r} is not a positive integer")
        for iv in self.intervals:
            where = f"gate control list: interval {iv.start_ns!r}-{iv.end_ns!r}"
            if not (type(iv.start_ns) is int and type(iv.end_ns) is int and iv.start_ns < iv.end_ns):
                raise InvalidInputError(f"{where} needs integer bounds, its start before its end")
            if iv.start_ns != pos:
                kind = "overlap" if iv.start_ns < pos else "gap"
                raise InvalidInputError(f"{where} starts at {iv.start_ns}, not {pos} ({kind})")
            if len(iv.gates) != N_QUEUES:
                raise InvalidInputError(f"{where} has {len(iv.gates)} gates, not {N_QUEUES}")
            pos = iv.end_ns
        if pos != cycle:
            raise InvalidInputError(f"gate control list: intervals end at {pos}, not at the cycle end {cycle}")

    def gates_at(self, t: int) -> tuple[bool, ...]:
        pos = t % self.cycle_time_ns
        return next(iv.gates for iv in self.intervals if pos < iv.end_ns)

    @cached_property
    def _bounds(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int] | None, ...]:
        """Per queue, None if its gate never closes, else (window starts,
        window ends, longest window length; -1 with no window).  Touching
        open intervals form one window, and a window that reaches the cycle
        end runs on into the next cycle's first window.  The starts and ends
        run over the windows of the previous, this and the next cycle,
        relative to this cycle's start, so both are sorted and the previous
        cycle's window that runs on into this one is among them."""
        cycle = self.cycle_time_ns
        out = []
        for q in range(N_QUEUES):
            wins: list[list[int]] = []
            for iv in self.intervals:
                if not iv.gates[q]:
                    continue
                if wins and wins[-1][1] == iv.start_ns:
                    wins[-1][1] = iv.end_ns
                else:
                    wins.append([iv.start_ns, iv.end_ns])
            if wins == [[0, cycle]]:
                out.append(None)
                continue
            if len(wins) > 1 and wins[0][0] == 0 and wins[-1][1] == cycle:
                wins[-1][1] = cycle + wins.pop(0)[1]
            unrolled = [(start + shift, end + shift) for shift in (-cycle, 0, cycle) for start, end in wins]
            longest = max((end - start for start, end in wins), default=-1)
            out.append((tuple(s for s, _ in unrolled), tuple(e for _, e in unrolled), longest))
        return tuple(out)

    def next_fit_start(self, queue: int, t: int, duration: int) -> int | None:
        """Earliest absolute time >= t at which a frame of ``duration`` can
        start so that it completes before the queue's gate closes.  None if
        no window of the queue is that long (then none ever will be)."""
        bounds = self._bounds[queue]
        if bounds is None:
            return t
        starts, ends, longest = bounds
        if duration > longest:
            return None
        pos = t % self.cycle_time_ns
        # the first window that ends after pos may hold pos; every later one
        # starts after it.  A longest window comes in full before the third
        # cycle's windows run out, so the walk stays in bounds.
        k = bisect_right(ends, pos)
        fit = starts[k]
        if fit < pos:
            fit = pos
        while fit + duration > ends[k]:
            k += 1
            fit = starts[k]
        return t - pos + fit

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["Interval (us)"] + [f"Q{q}" for q in range(N_QUEUES)])
        for iv in self.intervals:
            label = f"{ns_to_us_str(iv.start_ns)}-{ns_to_us_str(iv.end_ns)}"
            w.writerow([label] + ["o" if g else "C" for g in iv.gates])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "cycle_time_ns": self.cycle_time_ns,
            "intervals": [
                {"start_ns": iv.start_ns, "end_ns": iv.end_ns, "gates": ["o" if g else "C" for g in iv.gates]}
                for iv in self.intervals
            ],
        }


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-hop delay components; the hop total is their sum."""

    shaped_queue_ns: int
    forwarding_ns: int
    transmission_ns: int
    propagation_ns: int

    @property
    def total_ns(self) -> int:
        return self.shaped_queue_ns + self.forwarding_ns + self.transmission_ns + self.propagation_ns


# ---------------------------------------------------------------------------
# builders

def build_shaper_offset_table(scenario: Scenario, schedule: Schedule) -> ShaperOffsetTable:
    """One row per (stream, egress link) with the schedule's absolute
    offsets as eligibility offsets; talker send times become the talker's
    own row.  Cycle time is the scenario hyper-period."""
    cycle = scenario.hyper_period_ns
    rows: list[ShaperRow] = []
    for s in scenario.streams:
        slots = range(scenario.slots_of(s))
        for hop, key in enumerate(s.route):
            offs = tuple(schedule.offset(s.id, key, slot) for slot in slots)
            ingress = s.route[hop - 1] if hop > 0 else None
            rows.append(ShaperRow(key[0], key, ingress, s.id, offs, cycle))
    return ShaperOffsetTable(tuple(rows))


def _deployed_queue(scenario: Scenario, schedule: Schedule, stream: str, link: LinkKey) -> int:
    """The schedule's queue for ``stream`` on ``link``; a queue the port
    does not have (outside ``0..queue_count-1``) cannot be deployed."""
    count = scenario.link(link).queue_count
    q = schedule.queue_of(stream, link, count)
    if not 0 <= q < count:
        raise InvalidInputError(f"queue {q} of {stream} on {link[0]}->{link[1]} is outside 0..{count - 1}")
    return q


def build_gcl(scenario: Scenario, schedule: Schedule, link: LinkKey) -> GateControlList:
    """Cyclic gate list for one egress port: inside each reserved frame
    window exactly the frame's queue is open and every other queue closed;
    between windows the port's time-triggered queues close and the rest
    open.  Windows use the exact wire time of the largest admissible
    frame; windows that overlap or pass the cycle end make a list that
    refuses to build."""
    cycle = scenario.hyper_period_ns
    rate = scenario.link(link).rate_bps
    windows: list[tuple[int, int, int]] = []  # start, end, queue
    tt_queues: set[int] = set()
    for s in scenario.streams_on_link(link):
        dur = bytes_to_duration(s.payload_max, rate)
        q = _deployed_queue(scenario, schedule, s.id, link)
        tt_queues.add(q)
        for slot in range(scenario.slots_of(s)):
            start = schedule.offset(s.id, link, slot)
            windows.append((start, start + dur, q))
    windows.sort()
    idle = tuple(q not in tt_queues for q in range(N_QUEUES))
    intervals: list[GclInterval] = []
    pos = 0
    for start, end, q in windows:
        if start > pos:
            intervals.append(GclInterval(pos, start, idle))
        gates = tuple(i == q for i in range(N_QUEUES))
        intervals.append(GclInterval(start, end, gates))
        pos = end
    if pos < cycle:
        intervals.append(GclInterval(pos, cycle, idle))
    return GateControlList(cycle, tuple(intervals))


@dataclass
class Deployment:
    """Everything a device needs: the shaper table, whose talker rows are
    the talkers' send times, per-port gate lists and the shared queue of
    every stream on every switch egress hop."""

    table: ShaperOffsetTable
    gcls: dict[LinkKey, GateControlList]
    queues: dict[tuple[str, LinkKey], int]

    def to_dict(self) -> dict:
        return {
            "shaper_offset_table": self.table.to_dict(),
            "gcls": {f"{a}->{b}": g.to_dict() for (a, b), g in self.gcls.items()},
            "queues": [
                {"stream": s, "link": [a, b], "queue": q}
                for (s, (a, b)), q in sorted(self.queues.items())
            ],
        }


def build_deployment(scenario: Scenario, schedule: Schedule) -> Deployment:
    table = build_shaper_offset_table(scenario, schedule)
    gcls: dict[LinkKey, GateControlList] = {}
    queues: dict[tuple[str, LinkKey], int] = {}
    for s in scenario.streams:
        for key in s.route:
            if not scenario.is_switch_egress(key):
                continue
            if key not in gcls:
                gcls[key] = build_gcl(scenario, schedule, key)
            queues[(s.id, key)] = _deployed_queue(scenario, schedule, s.id, key)
    return Deployment(table, gcls, queues)


# ---------------------------------------------------------------------------
# closed-form latency

def e2e_per_slot(scenario: Scenario, stream: str, table: ShaperOffsetTable, payload: int) -> list[int]:
    """Closed-form end-to-end latency per slot: last-hop eligibility minus
    talker send time plus the payload's arrival lag on the last link (wire
    time and propagation)."""
    s = scenario.stream(stream)
    first = table.row_for(stream, s.route[0])
    last = table.row_for(stream, s.route[-1])
    tail = scenario.arrival_lag_ns(s.route[-1], bytes_to_duration(payload, scenario.link(s.route[-1]).rate_bps))
    return [
        (em - e0) + tail
        for e0, em in zip(first.eligibility_offsets_ns, last.eligibility_offsets_ns)
    ]


def e2e_bounds_and_jitter(
    scenario: Scenario, stream: str, table: ShaperOffsetTable
) -> tuple[int, int, int]:
    """(max latency, min latency, jitter): maximum over slots at the
    largest payload, minimum over slots at the smallest, difference."""
    s = scenario.stream(stream)
    hi = max(e2e_per_slot(scenario, stream, table, s.payload_max))
    lo = min(e2e_per_slot(scenario, stream, table, s.payload_min))
    return hi, lo, hi - lo


def latency_breakdown(
    scenario: Scenario, stream: str, table: ShaperOffsetTable, payload: int, slot: int = 0
) -> tuple[int, list[LatencyBreakdown]]:
    """(talker link time, per switch-hop delay components) for one frame.

    The talker link time is the wire time plus propagation on the first
    link; each switch hop counts the switch's processing delay, its wait
    for eligibility and its outgoing link.  The talker link time plus the
    hop totals equals the closed form for the same payload and slot."""
    s = scenario.stream(stream)
    elig = [table.row_for(stream, key).eligibility_offsets_ns[slot] for key in s.route]
    wire = [bytes_to_duration(payload, scenario.link(key).rate_bps) for key in s.route]
    delays = [scenario.link_delays_ns(key) for key in s.route]
    out = [
        LatencyBreakdown(
            shaped_queue_ns=elig[h] - elig[h - 1] - scenario.arrival_lag_ns(s.route[h - 1], wire[h - 1]),
            forwarding_ns=delays[h - 1][1],
            transmission_ns=wire[h],
            propagation_ns=delays[h][0],
        )
        for h in range(1, len(s.route))
    ]
    return wire[0] + delays[0][0], out
