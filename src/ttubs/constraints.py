"""Ground scheduling constraints over per-frame offset and per-stream queue
variables.

Five constraint families are generated from a scenario:

* frame        -- each transmission window fits inside its own period
* link         -- reserved windows on one link never overlap
* flow         -- a hop's window starts only after the frame fully arrived
                  from the upstream hop (clock offset included)
* e2e          -- delivery at the listener minus first-hop start meets the
                  stream deadline
* isolation    -- two streams may share an egress queue only if one frame
                  has left the queue before the other arrives, or they are
                  queue-separated (3-way disjunction)

Constraints are emitted fully ground: slot indices are expanded, all
constants folded.  Every atom is ``x <op> k`` or ``x - y <op> k`` with
``op`` one of ``>=`` and ``<=``, or ``x != y``: exactly the shapes of the
SMT-LIB grammar the bundled solver reads (README, "External solver").
Offset variables are slot-relative; the ``slot * period`` displacement
appears only inside folded constants.  ``build_constraint_set``
is the one place the system is built: it expands and indexes the frame
instances once and shares them with the five family builders.  Builders
iterate in scenario order, so identical scenarios yield identical
constraint lists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

from .model import (
    FrameInstance,
    InvalidInputError,
    Scenario,
    Stream,
    _var_stem,
    expand_frame_instances,
)
from .schedule import Schedule, nfic_queue

__all__ = [
    "Atom",
    "GroundConstraint",
    "QueueVar",
    "ConstraintSet",
    "ConstraintCensus",
    "CATEGORIES",
    "build_constraint_set",
    "census",
    "validate_schedule",
    "queue_var_name",
]

LinkKey = tuple[str, str]
CATEGORIES = ("frame", "link", "flow", "e2e", "isolation")


_OPS = {">=": operator.ge, "<=": operator.le, "!=": operator.ne}


@dataclass(frozen=True)
class Atom:
    """Integer atom ``x <op> const``, or ``x - y <op> const`` when ``y`` is
    set.  ``op`` is ``>=`` or ``<=``, or ``!=`` for ``x != y`` (``const``
    0)."""

    x: str
    y: str | None
    op: str
    const: int

    def holds(self, assignment: dict[str, int]) -> bool:
        lhs = assignment[self.x] - (0 if self.y is None else assignment[self.y])
        return _OPS[self.op](lhs, self.const)


@dataclass(frozen=True)
class GroundConstraint:
    """Disjunction of conjunctions of atoms; satisfied when at least one
    disjunct has all atoms true."""

    category: str
    disjuncts: tuple[tuple[Atom, ...], ...]
    label: str

    def holds(self, assignment: dict[str, int]) -> bool:
        return any(all(a.holds(assignment) for a in conj) for conj in self.disjuncts)


@dataclass(frozen=True)
class QueueVar:
    """Queue-index variable of one stream on one switch egress link.

    ``fixed`` pins the value (isolation disabled); a free variable ranges
    over ``[0, domain_max]``.
    """

    name: str
    stream: str
    link: LinkKey
    domain_max: int
    fixed: int | None = None


def queue_var_name(stream: str, link: LinkKey) -> str:
    return f"q_{_var_stem(stream, link)}"


@dataclass
class ConstraintSet:
    mode: str  # "wa" | "nfic"
    instances: list[FrameInstance]
    queue_vars: list[QueueVar]
    constraints: list[GroundConstraint]

    def free_queue_vars(self) -> list[QueueVar]:
        return [q for q in self.queue_vars if q.fixed is None]

    @property
    def variable_names(self) -> list[str]:
        """Offsets, then free queues, in the order ``smt.encode`` declares them."""
        return [fi.var_name for fi in self.instances] + [q.name for q in self.free_queue_vars()]

    def census(self) -> ConstraintCensus:
        """Per-category constraint counts."""
        counts = dict.fromkeys(CATEGORIES, 0)
        for gc in self.constraints:
            counts[gc.category] += 1
        return ConstraintCensus(**counts)

    def schedule_of(self, assignment: dict[str, int]) -> Schedule:
        """The schedule an assignment of :attr:`variable_names` stands for;
        :meth:`violations` opens with its inverse."""
        sched = Schedule()
        for fi in self.instances:
            sched.offsets[(fi.stream, fi.link, fi.slot)] = assignment[fi.var_name] + fi.slot * fi.period_ns
        for qv in self.queue_vars:
            sched.queues[(qv.stream, qv.link)] = qv.fixed if qv.fixed is not None else assignment[qv.name]
        return sched

    def violations(self, schedule: Schedule) -> list[GroundConstraint]:
        """Evaluate every ground constraint on the schedule; returns the
        violated ones (empty = valid in this set's mode), led by a
        ``domain`` constraint for each queue variable, fixed or free, whose
        queue in the schedule lies outside ``[0, domain_max]``.  Raises
        :class:`InvalidInputError` when the schedule leaves an offset
        unassigned."""
        assignment: dict[str, int] = {}
        for fi in self.instances:
            absolute = schedule.offset(fi.stream, fi.link, fi.slot)
            assignment[fi.var_name] = absolute - fi.slot * fi.period_ns
        out = []
        for qv in self.queue_vars:
            q = assignment[qv.name] = schedule.queue_of(qv.stream, qv.link, qv.domain_max + 1)
            if not 0 <= q <= qv.domain_max:
                out.append(GroundConstraint(
                    "domain",
                    ((_ge(qv.name, None, 0), _le(qv.name, None, qv.domain_max)),),
                    f"domain[{qv.stream}@{qv.link[0]}->{qv.link[1]}: queue {q} not in 0..{qv.domain_max}]",
                ))
        return out + [gc for gc in self.constraints if not gc.holds(assignment)]


@dataclass(frozen=True)
class ConstraintCensus:
    """Constraint count per family; one field per name in ``CATEGORIES``."""

    frame: int
    link: int
    flow: int
    e2e: int
    isolation: int

    @property
    def total(self) -> int:
        return sum(getattr(self, c) for c in CATEGORIES)

    def as_dict(self) -> dict[str, int]:
        """The counts in ``CATEGORIES`` order, then ``total``."""
        return {**{c: getattr(self, c) for c in CATEGORIES}, "total": self.total}


# ---------------------------------------------------------------------------
# family builders over the shared instance index
#
# ``by`` maps (stream, link) to that hop's instances in slot order; every
# hop of a stream has ``hp / T`` of them, so slot m of one hop pairs with
# slot m of any other hop of the same stream.

_Index = dict[tuple[str, LinkKey], list[FrameInstance]]


def _ge(x: str, y: str | None, const: int) -> Atom:
    return Atom(x, y, ">=", const)


def _le(x: str, y: str | None, const: int) -> Atom:
    return Atom(x, y, "<=", const)


def _frame_constraints(instances: list[FrameInstance]) -> list[GroundConstraint]:
    """One constraint per frame instance: ``0 <= phi <= T - L``."""
    out = []
    for fi in instances:
        atoms = (_ge(fi.var_name, None, 0), _le(fi.var_name, None, fi.period_ns - fi.duration_ns))
        out.append(GroundConstraint("frame", (atoms,), f"frame[{fi.stream}@{fi.link[0]}->{fi.link[1]}#{fi.slot}]"))
    return out


def _link_constraints(scenario: Scenario, by: _Index) -> list[GroundConstraint]:
    """Pairwise non-overlap of reserved windows on each link.

    For streams i, j sharing a link and every slot pair (a, b):
    ``i after j`` or ``j after i`` on absolute offsets.
    """
    out = []
    for ln in scenario.links:
        for si, sj in combinations(scenario.streams_on_link(ln.key), 2):
            for fi in by[(si.id, ln.key)]:
                for fj in by[(sj.id, ln.key)]:
                    a_disp = fi.slot * fi.period_ns
                    b_disp = fj.slot * fj.period_ns
                    # i starts after j ends:  phi_i + aT >= phi_j + bT + Lj
                    first = _ge(fi.var_name, fj.var_name, b_disp + fj.duration_ns - a_disp)
                    # j starts after i ends
                    second = _ge(fj.var_name, fi.var_name, a_disp + fi.duration_ns - b_disp)
                    out.append(
                        GroundConstraint(
                            "link",
                            ((first,), (second,)),
                            f"link[{ln.src}->{ln.dst}: {si.id}#{fi.slot} vs {sj.id}#{fj.slot}]",
                        )
                    )
    return out


def _flow_constraints(scenario: Scenario, by: _Index) -> list[GroundConstraint]:
    """Hop ordering along each route: the downstream window opens only after
    the upstream hop lag (:meth:`Scenario.hop_lag_ns`): full arrival,
    processing and the worst clock offset between the two devices."""
    out = []
    for s in scenario.streams:
        for up_key, down_key in zip(s.route, s.route[1:]):
            up = by[(s.id, up_key)]
            lag = scenario.hop_lag_ns(up_key, up[0].duration_ns)
            for fu, fd in zip(up, by[(s.id, down_key)]):
                # both offsets displace by the same period index, so the
                # slot terms cancel and only the arrival lag remains
                atom = _ge(fd.var_name, fu.var_name, lag)
                out.append(
                    GroundConstraint(
                        "flow",
                        ((atom,),),
                        f"flow[{s.id}: {up_key[0]}->{up_key[1]}#{fu.slot} => {down_key[0]}->{down_key[1]}#{fd.slot}]",
                    )
                )
    return out


def _e2e_constraints(scenario: Scenario, by: _Index) -> list[GroundConstraint]:
    """Per stream and slot: delivery at the listener minus first-hop start
    stays within the stream deadline."""
    out = []
    for s in scenario.streams:
        last = by[(s.id, s.route[-1])]
        slack = s.e2e_deadline_ns - scenario.arrival_lag_ns(s.route[-1], last[0].duration_ns)
        for ff, fl in zip(by[(s.id, s.route[0])], last):
            # the period displacement cancels between first and last hop
            atom = _le(fl.var_name, ff.var_name, slack)
            out.append(GroundConstraint("e2e", ((atom,),), f"e2e[{s.id}#{ff.slot}->{fl.slot}]"))
    return out


def _arrivals(scenario: Scenario, s: Stream, egress: LinkKey, by: _Index) -> list[tuple[str, int]]:
    """Per egress slot, (var name, folded constant) of the stream's arrival
    at the device feeding `egress`: the upstream absolute offset plus the
    hop lag the flow constraints use.  On a stream's first hop the frame is
    at its talker from its own send offset on that very link."""
    hop = s.route.index(egress)
    if hop == 0:
        return [(fi.var_name, fi.slot * s.period_ns) for fi in by[(s.id, egress)]]
    up_key = s.route[hop - 1]
    ups = by[(s.id, up_key)]
    lag = scenario.hop_lag_ns(up_key, ups[0].duration_ns)
    return [(fu.var_name, fu.slot * s.period_ns + lag) for fu in ups]


def _isolation_constraints(scenario: Scenario, by: _Index, queue_vars: list[QueueVar]) -> list[GroundConstraint]:
    """Egress-queue isolation (``wa`` mode only): for each egress link and
    stream pair, either one stream's frame arrives at the device only after
    the other's has left the queue (left = reached its egress offset), or
    the two streams use different queues.  In ``nfic`` mode per-stream
    shaped queues make enqueue order immaterial, so nothing is emitted."""
    out = []
    queue_name = {(q.stream, q.link): q.name for q in queue_vars}
    for ln in scenario.links:
        streams = scenario.streams_on_link(ln.key)
        arrivals = {s.id: _arrivals(scenario, s, ln.key, by) for s in streams}
        for si, sj in combinations(streams, 2):
            separated: tuple[tuple[Atom, ...], ...] = ()
            if (si.id, ln.key) in queue_name:  # switch egress: queues are variables
                qi, qj = queue_name[(si.id, ln.key)], queue_name[(sj.id, ln.key)]
                separated = ((Atom(qi, qj, "!=", 0),),)
            for fi in by[(si.id, ln.key)]:
                vi, ci = arrivals[si.id][fi.slot]
                for fj in by[(sj.id, ln.key)]:
                    vj, cj = arrivals[sj.id][fj.slot]
                    # j arrives only after i left the queue
                    d1 = _ge(vj, fi.var_name, fi.slot * fi.period_ns - cj)
                    # i arrives only after j left the queue
                    d2 = _ge(vi, fj.var_name, fj.slot * fj.period_ns - ci)
                    out.append(
                        GroundConstraint(
                            "isolation",
                            ((d1,), (d2,)) + separated,
                            f"isolation[{ln.src}->{ln.dst}: {si.id}#{fi.slot} vs {sj.id}#{fj.slot}]",
                        )
                    )
    return out


def build_constraint_set(scenario: Scenario, mode: str = "nfic") -> ConstraintSet:
    """Expand the scenario into the full ground constraint system."""
    if mode not in ("wa", "nfic"):
        raise InvalidInputError(f"unknown mode {mode!r} (expected 'wa' or 'nfic')")
    instances = expand_frame_instances(scenario)
    by: _Index = {}
    for fi in instances:
        by.setdefault((fi.stream, fi.link), []).append(fi)

    # queue variables live on switch egress hops
    queue_vars = []
    for s in scenario.streams:
        for key in s.route:
            if scenario.is_switch_egress(key):
                count = scenario.link(key).queue_count
                fixed = nfic_queue(count) if mode == "nfic" else None
                queue_vars.append(QueueVar(queue_var_name(s.id, key), s.id, key, count - 1, fixed))

    constraints = (
        _frame_constraints(instances)
        + _link_constraints(scenario, by)
        + _flow_constraints(scenario, by)
        + _e2e_constraints(scenario, by)
    )
    if mode == "wa":
        constraints += _isolation_constraints(scenario, by, queue_vars)
    return ConstraintSet(mode, instances, queue_vars, constraints)


def census(scenario: Scenario, mode: str = "wa") -> ConstraintCensus:
    """Per-category constraint counts, without solving."""
    return build_constraint_set(scenario, mode).census()


# ---------------------------------------------------------------------------
# schedule validation (ground-truth oracle for every solver)

def validate_schedule(
    scenario: Scenario, schedule: Schedule, mode: str = "nfic"
) -> list[GroundConstraint]:
    """Violated ground constraints of the schedule (empty = valid in the
    requested mode); see :meth:`ConstraintSet.violations`."""
    return build_constraint_set(scenario, mode).violations(schedule)
