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
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .model import N_QUEUES, InvalidInputError, Scenario, Stream, bytes_to_duration, ns_to_us_str
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
    "schedule_from_table",
    "e2e_closed_form",
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


@dataclass(frozen=True)
class ShaperOffsetTable:
    rows: tuple[ShaperRow, ...] = ()

    @cached_property
    def _by_key(self) -> dict[tuple[str, LinkKey], ShaperRow]:
        # reversed, so the first row of a (stream, egress) key wins
        return {(row.stream, row.egress): row for row in reversed(self.rows)}

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


@dataclass
class GateControlList:
    cycle_time_ns: int
    intervals: tuple[GclInterval, ...]

    def gates_at(self, t: int) -> tuple[bool, ...]:
        pos = t % self.cycle_time_ns
        for iv in self.intervals:
            if iv.start_ns <= pos < iv.end_ns:
                return iv.gates
        raise InvalidInputError(f"gate control list does not tile position {pos}")

    @cached_property
    def windows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per queue, its open (start, end) windows of one cycle, sorted.
        Touching open intervals form one window, and a window that reaches
        the cycle end runs on into the next cycle's first window, so the
        last window may end after ``cycle_time_ns``.  A queue open all
        cycle has the single window ``(0, cycle_time_ns)``."""
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
            if len(wins) > 1 and wins[0][0] == 0 and wins[-1][1] == cycle:
                wins[-1][1] = cycle + wins.pop(0)[1]
            out.append(tuple(map(tuple, wins)))
        return tuple(out)

    @cached_property
    def _bounds(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int] | None, ...]:
        """Per queue, None if its gate never closes, else (window starts,
        window ends, longest window length; -1 with no window).  The starts
        and ends run over the windows of the previous, this and the next
        cycle, relative to this cycle's start, so both are sorted and the
        previous cycle's window that runs on into this one is among them."""
        cycle = self.cycle_time_ns
        out = []
        for wins in self.windows:
            if wins == ((0, cycle),):
                out.append(None)
                continue
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
    shared_queue_ns: int
    transmission_ns: int
    propagation_ns: int

    @property
    def total_ns(self) -> int:
        return (
            self.shaped_queue_ns
            + self.forwarding_ns
            + self.shared_queue_ns
            + self.transmission_ns
            + self.propagation_ns
        )


# ---------------------------------------------------------------------------
# builders

def build_shaper_offset_table(scenario: Scenario, schedule: Schedule) -> ShaperOffsetTable:
    """One row per (stream, egress link) with the schedule's absolute
    offsets as eligibility offsets; talker send times become the talker's
    own row.  Cycle time is the scenario hyper-period."""
    cycle = scenario.hyper_period_ns
    rows: list[ShaperRow] = []
    for s in scenario.streams:
        n = scenario.slots_of(s)
        for hop, key in enumerate(s.route):
            offs = tuple(schedule.offset(s.id, key, slot) for slot in range(n))
            ingress = s.route[hop - 1] if hop > 0 else None
            rows.append(
                ShaperRow(
                    switch=key[0],
                    egress=key,
                    ingress=ingress,
                    stream=s.id,
                    eligibility_offsets_ns=offs,
                    cycle_time_ns=cycle,
                )
            )
            if scenario.is_switch_egress(key) and list(offs) != sorted(offs):
                raise InvalidInputError(f"offsets not increasing for {s.id} at {key}")
    return ShaperOffsetTable(tuple(rows))


def schedule_from_table(scenario: Scenario, table: ShaperOffsetTable) -> Schedule:
    """Inverse of :func:`build_shaper_offset_table` (offsets only; queue
    assignments are not part of the table)."""
    sched = Schedule()
    for s in scenario.streams:
        for key in s.route:
            row = table.row_for(s.id, key)
            for slot, off in enumerate(row.eligibility_offsets_ns):
                sched.offsets[(s.id, key, slot)] = off
    return sched


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
    frame."""
    cycle = scenario.hyper_period_ns
    rate = scenario.link(link).rate_bps
    windows: list[tuple[int, int, int]] = []  # start, end, queue
    tt_queues: set[int] = set()
    for s in scenario.streams:
        if link not in s.route:
            continue
        dur = bytes_to_duration(s.payload_max, rate)
        q = _deployed_queue(scenario, schedule, s.id, link)
        tt_queues.add(q)
        for slot in range(scenario.slots_of(s)):
            start = schedule.offset(s.id, link, slot)
            windows.append((start, start + dur, q))
    windows.sort()
    for (s1, e1, _), (s2, e2, _) in zip(windows, windows[1:]):
        if s2 < e1:
            raise InvalidInputError(f"overlapping windows on {link[0]}->{link[1]}: {e1} > {s2}")
    if windows and windows[-1][1] > cycle:
        raise InvalidInputError(f"window past cycle end on {link[0]}->{link[1]}")

    idle = tuple(q not in tt_queues for q in range(N_QUEUES))
    intervals: list[GclInterval] = []
    pos = 0
    for start, end, q in windows:
        if start > pos:
            intervals.append(GclInterval(pos, start, idle))
        gates = tuple(i == q for i in range(N_QUEUES))
        intervals.append(GclInterval(start, end, gates))
        pos = end
    if pos < cycle or not intervals:
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

def _stream_of(scenario: Scenario, stream: str) -> Stream:
    for s in scenario.streams:
        if s.id == stream:
            return s
    raise InvalidInputError(f"unknown stream {stream!r}")


def e2e_per_slot(scenario: Scenario, stream: str, table: ShaperOffsetTable, payload: int) -> list[int]:
    """Closed-form end-to-end latency per slot: last-hop eligibility minus
    talker send time plus the payload's arrival lag on the last link (wire
    time and propagation)."""
    s = _stream_of(scenario, stream)
    first = table.row_for(stream, s.route[0])
    last = table.row_for(stream, s.route[-1])
    tail = scenario.arrival_lag_ns(s.route[-1], bytes_to_duration(payload, scenario.link(s.route[-1]).rate_bps))
    return [
        (em - e0) + tail
        for e0, em in zip(first.eligibility_offsets_ns, last.eligibility_offsets_ns)
    ]


def e2e_closed_form(
    scenario: Scenario, stream: str, table: ShaperOffsetTable, payload: int, slot: int | None = None
) -> int:
    per_slot = e2e_per_slot(scenario, stream, table, payload)
    if slot is not None:
        return per_slot[slot]
    return max(per_slot)


def e2e_bounds_and_jitter(
    scenario: Scenario, stream: str, table: ShaperOffsetTable
) -> tuple[int, int, int]:
    """(max latency, min latency, jitter): maximum over slots at the
    largest payload, minimum over slots at the smallest, difference."""
    s = _stream_of(scenario, stream)
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
    s = _stream_of(scenario, stream)
    elig = [table.row_for(stream, key).eligibility_offsets_ns[slot] for key in s.route]
    wire = [bytes_to_duration(payload, scenario.link(key).rate_bps) for key in s.route]
    delays = [scenario.link_delays_ns(key) for key in s.route]
    out = [
        LatencyBreakdown(
            shaped_queue_ns=elig[h] - elig[h - 1] - scenario.arrival_lag_ns(s.route[h - 1], wire[h - 1]),
            forwarding_ns=delays[h - 1][1],
            shared_queue_ns=0,
            transmission_ns=wire[h],
            propagation_ns=delays[h][0],
        )
        for h in range(1, len(s.route))
    ]
    return wire[0] + delays[0][0], out
