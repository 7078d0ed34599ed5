"""Solver-free heuristic scheduler.

Frames are placed one at a time in a fixed order (shortest period first,
then stream id, then route hop, then slot), each at the smallest offset
that respects the window, non-overlap, hop-ordering, deadline and —
optionally — queue-isolation checks against everything already placed.
When no offset fits, the search backjumps to the most recently placed
frame that contributed to the failure, raises that frame's retry floor
past its previous offset, and de-allocates everything after it
(conflict-directed backjumping, complete for the fixed order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import FrameInstance, InvalidInputError, Scenario, expand_frame_instances
from .schedule import Schedule, nfic_queue

__all__ = ["LstbLimits", "LstbResult", "lstb_solve", "order_frames"]

LinkKey = tuple[str, str]


@dataclass(frozen=True)
class LstbLimits:
    max_backjumps: int = 10_000
    wall_clock_s: float = 60.0


@dataclass
class LstbResult:
    status: str  # "sat" | "infeasible" | "limit"
    schedule: Schedule | None
    backjumps: int
    solve_time_s: float


def order_frames(scenario: Scenario) -> list[FrameInstance]:
    """Placement order: period ascending, stream id, hop, slot.  Hop-major
    ordering keeps every upstream frame placed before its downstream one,
    so hop-ordering lower bounds are always available.  The expansion
    already lists each stream's frames by hop, then slot, so a stable sort
    by (period, stream) keeps that order."""
    return sorted(expand_frame_instances(scenario), key=lambda fi: (fi.period_ns, fi.stream))


def _queue_map(scenario: Scenario, mode: str) -> dict[tuple[str, LinkKey], int]:
    """Queue of every stream on every switch egress link of its route.  In
    ``fic`` mode, a deterministic pre-assignment for isolation-checked
    search: streams on a link take queue indices in scenario order,
    wrapping when the link has fewer queues than streams.  In ``nfic``
    mode every stream takes the link's shared queue."""
    queues: dict[tuple[str, LinkKey], int] = {}
    rank: dict[LinkKey, int] = {}
    for s in scenario.streams:
        for key in s.route:
            if not scenario.is_switch_egress(key):
                continue
            count = scenario.link(key).queue_count
            r = rank.get(key, 0)
            rank[key] = r + 1
            queues[(s.id, key)] = r % count if mode == "fic" else nfic_queue(count)
    return queues


class _Search:
    """Static per-frame data plus the mutable partial assignment."""

    def __init__(self, scenario: Scenario, mode: str, frames: list[FrameInstance]):
        self.frames = frames
        self.queues = _queue_map(scenario, mode)
        n = len(frames)
        self.offsets: list[int | None] = [None] * n
        self.floors = [0] * n
        self.conf: list[set[int]] = [set() for _ in range(n)]
        self.backjumps = 0

        index_of = {(fi.stream, fi.link, fi.slot): i for i, fi in enumerate(frames)}
        self.on_link: dict[LinkKey, list[int]] = {}
        self.slot_base = [fi.slot * fi.period_ns for fi in frames]
        self.window_hi = [fi.period_ns - fi.duration_ns for fi in frames]
        self.upstream: list[int | None] = [None] * n
        self.lag = [0] * n  # upstream start to arrival here: flow bound and isolation alike
        self.first_idx: list[int | None] = [None] * n  # set on last hops only
        self.e2e_slack = [0] * n
        self.iso_checked = [False] * n
        self.queue_of = [self.queues.get((fi.stream, fi.link)) for fi in frames]  # None off switch egress
        reach = [0] * n  # least time from the first hop's start to this start
        for i, fi in enumerate(frames):
            self.on_link.setdefault(fi.link, []).append(i)
            s = scenario.stream(fi.stream)
            if fi.hop > 0:
                up_key = s.route[fi.hop - 1]
                up = index_of[(fi.stream, up_key, fi.slot)]
                self.upstream[i] = up
                self.lag[i] = scenario.hop_lag_ns(up_key, frames[up].duration_ns)
                reach[i] = reach[up] + self.lag[i]
            if fi.hop == len(s.route) - 1:
                slack = s.e2e_deadline_ns - scenario.arrival_lag_ns(fi.link, fi.duration_ns)
                if slack < reach[i]:
                    # the deadline is below the route's least latency: no
                    # offsets meet it, so an empty window makes it infeasible
                    self.window_hi[i] = -1
                elif fi.hop > 0:
                    self.first_idx[i] = index_of[(fi.stream, s.route[0], fi.slot)]
                    self.e2e_slack[i] = slack
            self.iso_checked[i] = mode == "fic" and scenario.is_switch_egress(fi.link)

    def abs_offset(self, i: int) -> int:
        return self.offsets[i] + self.slot_base[i]

    def arrival_at(self, i: int) -> int:
        up = self.upstream[i]
        if up is None:
            return self.abs_offset(i)
        return self.abs_offset(up) + self.lag[i]

    def next_feasible_offset(self, i: int) -> tuple[int | None, set[int]]:
        """Smallest slot-relative offset for frame ``i`` compatible with the
        already-placed frames, plus the indices that blocked or bounded the
        sweep (the conflict attribution for backjumping).  ``None`` when
        the domain is exhausted."""
        fi = self.frames[i]
        base = self.slot_base[i]
        blockers: set[int] = set()
        hi = self.window_hi[i]
        if hi < 0:
            return None, blockers

        lo = self.floors[i]
        up = self.upstream[i]
        if up is not None:
            flow_lb = self.offsets[up] + self.lag[i]
            if flow_lb > lo:
                lo = flow_lb
            blockers.add(up)

        first_i = self.first_idx[i]
        if first_i is not None:
            e2e_hi = self.offsets[first_i] + self.e2e_slack[i]
            if e2e_hi <= hi:
                hi = e2e_hi
                blockers.add(first_i)

        if self.iso_checked[i]:
            my_arrival = self.arrival_at(i)
            my_queue = self.queue_of[i]
            for j in self.on_link[fi.link]:
                if j == i or self.offsets[j] is None:
                    continue
                if self.frames[j].stream == fi.stream or self.queue_of[j] != my_queue:
                    continue
                if my_arrival >= self.abs_offset(j):
                    continue
                iso_hi = self.arrival_at(j) - base
                if iso_hi <= hi:
                    hi = iso_hi
                    blockers.add(j)
                    uj = self.upstream[j]
                    if uj is not None:
                        blockers.add(uj)

        occupied = []
        for j in self.on_link[fi.link]:
            if j == i or self.offsets[j] is None:
                continue
            fj = self.frames[j]
            if fj.stream == fi.stream:
                # same-stream windows sit in disjoint slots by the window bound
                continue
            start = self.abs_offset(j)
            occupied.append((start, start + fj.duration_ns, j))
        occupied.sort()

        cand = lo
        dur = fi.duration_ns
        for start, end, j in occupied:
            if cand > hi:
                break
            a = cand + base
            if a + dur > start and a < end:
                blockers.add(j)
                cand = end - base
        if cand > hi:
            return None, blockers
        return cand, blockers


def lstb_solve(scenario: Scenario, mode: str = "nfic", limits: LstbLimits | None = None) -> LstbResult:
    """Run the heuristic search; ``mode`` is ``"fic"`` (isolation checked
    against a deterministic first-fit queue pre-assignment) or ``"nfic"``
    (isolation skipped, every stream on its link's shared queue)."""
    if mode not in ("fic", "nfic"):
        raise InvalidInputError(f"unknown mode {mode!r} (expected 'fic' or 'nfic')")
    limits = limits or LstbLimits()
    start_time = time.perf_counter()

    frames = order_frames(scenario)
    search = _Search(scenario, mode, frames)

    i, n = 0, len(frames)
    while i < n:
        if time.perf_counter() - start_time > limits.wall_clock_s:
            return LstbResult("limit", None, search.backjumps, time.perf_counter() - start_time)
        offset, blockers = search.next_feasible_offset(i)
        if offset is not None:
            search.offsets[i] = offset
            i += 1
            continue
        conflict = {
            b for b in (blockers | search.conf[i]) if b < i and search.offsets[b] is not None
        }
        if not conflict:
            return LstbResult("infeasible", None, search.backjumps, time.perf_counter() - start_time)
        target = max(conflict)
        search.conf[target] |= conflict - {target}
        search.floors[target] = search.offsets[target] + 1
        for k in range(target, i + 1):
            if k > target:
                search.floors[k] = 0
                search.conf[k] = set()
            search.offsets[k] = None
        search.backjumps += 1
        if search.backjumps > limits.max_backjumps:
            return LstbResult("limit", None, search.backjumps, time.perf_counter() - start_time)
        i = target

    sched = Schedule(queues=search.queues)
    for idx, fi in enumerate(frames):
        sched.offsets[(fi.stream, fi.link, fi.slot)] = search.abs_offset(idx)
    return LstbResult("sat", sched, search.backjumps, time.perf_counter() - start_time)
