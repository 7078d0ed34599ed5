"""Solved schedule: the single source of truth for deployment artifacts."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .model import InvalidInputError, _entries, _hop, _read_json, ns_to_us_str

NFIC_QUEUE = 4  # the paper's shared queue when isolation is disabled

__all__ = ["NFIC_QUEUE", "Schedule", "load_schedule", "nfic_queue", "save_schedule"]

LinkKey = tuple[str, str]


def nfic_queue(queue_count: int) -> int:
    """The shared queue every stream takes on a switch egress link with
    ``queue_count`` queues when isolation is disabled: queue 4, or the
    link's highest queue when it has fewer than five."""
    return min(NFIC_QUEUE, queue_count - 1)


@dataclass
class Schedule:
    """Absolute transmission offsets per (stream, link, slot) plus queue
    assignments per (stream, switch egress link).

    Offsets are nanoseconds within the link hyper-period and include the
    slot displacement (``slot_relative + slot * period``).  The talker's
    send times are the offsets on each stream's first route link.  A
    switch egress hop without a queue assignment uses the link's shared
    queue (:func:`nfic_queue`).
    """

    offsets: dict[tuple[str, LinkKey, int], int] = field(default_factory=dict)
    queues: dict[tuple[str, LinkKey], int] = field(default_factory=dict)

    def offset(self, stream: str, link: LinkKey, slot: int) -> int:
        try:
            return self.offsets[(stream, link, slot)]
        except KeyError:
            raise InvalidInputError(
                f"schedule has no offset for {stream} on {link[0]}->{link[1]} slot {slot}"
            ) from None

    def queue_of(self, stream: str, link: LinkKey, queue_count: int) -> int:
        return self.queues.get((stream, link), nfic_queue(queue_count))

    def to_dict(self) -> dict:
        return {
            "offsets": [
                {
                    "stream": st,
                    "link": [src, dst],
                    "slot": slot,
                    "offset_ns": off,
                    "offset_us": ns_to_us_str(off),
                }
                for (st, (src, dst), slot), off in sorted(self.offsets.items())
            ],
            "queues": [
                {"stream": st, "link": [src, dst], "queue": q}
                for (st, (src, dst)), q in sorted(self.queues.items())
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Schedule":
        """The schedule of a JSON document; raises :class:`InvalidInputError`
        naming the entry on a missing key, a value of the wrong JSON type
        (a count must be an ``int``) and a repeated row.  ``queues`` may be
        left out; unknown keys are ignored."""
        if not isinstance(doc, dict):
            raise InvalidInputError(f"invalid schedule document: {type(doc).__name__} is not an object")
        sched = cls()

        def put(rows: dict, row: dict, value: str, *counts: str) -> None:
            link = tuple(_typed(end, "node", str) for end in _hop(row["link"], "link"))
            key = (_typed(row["stream"], "stream", str), link, *(_typed(row[c], c, int) for c in counts))
            if key in rows:
                raise InvalidInputError(f"repeats row {key!r}")
            rows[key] = _typed(row[value], value, int)

        _entries(doc, "offsets", lambda row: put(sched.offsets, row, "offset_ns", "slot"), "schedule")
        if "queues" in doc:
            _entries(doc, "queues", lambda row: put(sched.queues, row, "queue"), "schedule")
        return sched


def _typed(value, what: str, kind: type):
    """``value`` if its type is ``kind`` itself: a ``bool`` is no count, and
    nothing is cast."""
    if type(value) is not kind:
        raise InvalidInputError(f"{what} {value!r} is not {'an integer' if kind is int else 'a string'}")
    return value


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(schedule.to_dict(), fh, indent=2)
        fh.write("\n")


def load_schedule(path: str | Path) -> Schedule:
    return Schedule.from_dict(_read_json(path))
