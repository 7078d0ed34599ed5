"""Bundled reference scenario and deployment fixtures.

The ADAS star network (two switches, four talkers, one listener) ships with
three solved offset tables and one queue-separated variant, used for replay,
validation and regression tests.  ``table7`` is a partial fixture: one
switch-hop offset is absent from the published solution and is filled with
the smallest validator-approved value at microsecond granularity.
"""

from __future__ import annotations

import json
from importlib import resources

from .constraints import build_constraint_set
from .model import InvalidInputError, Scenario, scenario_from_dict
from .schedule import Schedule

__all__ = [
    "adas_scenario",
    "table3_schedule",
    "table6_schedule",
    "table7_schedule",
    "table8_schedule",
    "fixture_schedule",
    "FIXTURE_NAMES",
    "VALIDATION_MODES",
]

US = 1_000  # ns per microsecond

SW2_SW1 = ("SW2", "SW1")
SW1_CH = ("SW1", "CentralHost")

FIXTURE_NAMES = ("table3", "table6", "table7", "table8")
# the mode each fixture's schedule validates in: only table6 separates queues
VALIDATION_MODES = {"table3": "nfic", "table6": "wa", "table7": "nfic", "table8": "nfic"}


def adas_scenario() -> Scenario:
    doc = json.loads(resources.files("ttubs.data").joinpath("adas_star.json").read_text())
    return scenario_from_dict(doc)


def _with_talker_sends(scenario: Scenario, offsets: dict) -> dict:
    """Talker send times are pinned to the slot starts (0, T, 2T, ...)."""
    out = dict(offsets)
    for s in scenario.streams:
        first = s.route[0]
        for slot in range(scenario.slots_of(s)):
            out[(s.id, first, slot)] = slot * s.period_ns
    return out


def _switch_table(rows: dict[tuple[str, str, int], int]) -> dict:
    """rows: (stream, 'sw2'|'sw1', slot) -> eligibility offset in us."""
    link = {"sw2": SW2_SW1, "sw1": SW1_CH}
    return {(st, link[sw], slot): us * US for (st, sw, slot), us in rows.items()}


def table3_schedule(scenario: Scenario | None = None) -> Schedule:
    """Offsets produced by the constraint-solver run without isolation
    constraints; all streams share shared queue 4."""
    scenario = scenario or adas_scenario()
    offsets = _switch_table(
        {
            ("control", "sw2", 0): 3,
            ("cam1", "sw2", 0): 21,
            ("cam1", "sw2", 1): 121,
            ("cam2", "sw2", 0): 11,
            ("cam2", "sw2", 1): 111,
            ("radar", "sw2", 0): 5,
            ("control", "sw1", 0): 6,
            ("cam1", "sw1", 0): 32,
            ("cam1", "sw1", 1): 132,
            ("cam2", "sw1", 0): 22,
            ("cam2", "sw1", 1): 122,
            ("radar", "sw1", 0): 10,
        }
    )
    return Schedule(offsets=_with_talker_sends(scenario, offsets))


def table6_schedule(scenario: Scenario | None = None) -> Schedule:
    """Queue-separated variant of the same offsets (isolation satisfied by
    assigning each stream its own shared queue, indices 4..7)."""
    scenario = scenario or adas_scenario()
    sched = table3_schedule(scenario)
    queues = {"cam1": 4, "cam2": 5, "radar": 6, "control": 7}
    for st, q in queues.items():
        sched.queues[(st, SW2_SW1)] = q
        sched.queues[(st, SW1_CH)] = q
    return sched


def table8_schedule(scenario: Scenario | None = None) -> Schedule:
    """Offsets produced by the heuristic list scheduler without isolation
    checks."""
    scenario = scenario or adas_scenario()
    offsets = _switch_table(
        {
            ("control", "sw2", 0): 2,
            ("cam1", "sw2", 0): 10,
            ("cam1", "sw2", 1): 110,
            ("cam2", "sw2", 0): 20,
            ("cam2", "sw2", 1): 120,
            ("radar", "sw2", 0): 4,
            ("control", "sw1", 0): 4,
            ("cam1", "sw1", 0): 20,
            ("cam1", "sw1", 1): 120,
            ("cam2", "sw1", 0): 30,
            ("cam2", "sw1", 1): 130,
            ("radar", "sw1", 0): 8,
        }
    )
    return Schedule(offsets=_with_talker_sends(scenario, offsets))


def table7_schedule(scenario: Scenario | None = None) -> tuple[Schedule, list]:
    """Partial fixture from the array-encoding solver run: the first-slot
    radar offset on the inter-switch link is missing from the published
    table.  Returns the completed schedule and the list of filled entries.
    """
    scenario = scenario or adas_scenario()
    offsets = _switch_table(
        {
            ("control", "sw2", 0): 74,
            ("cam1", "sw2", 0): 64,
            ("cam1", "sw2", 1): 137,
            ("cam2", "sw2", 0): 31,
            ("cam2", "sw2", 1): 151,
            ("control", "sw1", 0): 77,
            ("cam1", "sw1", 0): 79,
            ("cam1", "sw1", 1): 175,
            ("cam2", "sw1", 0): 89,
            ("cam2", "sw1", 1): 189,
            ("radar", "sw1", 0): 185,
        }
    )
    sched = Schedule(offsets=_with_talker_sends(scenario, offsets))
    filled = _fill_missing(scenario, sched)
    return sched, filled


def _fill_missing(scenario: Scenario, sched: Schedule) -> list:
    """Fill absent switch-hop offsets with the smallest microsecond-grid
    value accepted by the validator."""
    cs = build_constraint_set(scenario, "nfic")
    missing = [fi for fi in cs.instances if (fi.stream, fi.link, fi.slot) not in sched.offsets]
    filled = []
    for fi in missing:
        base = fi.slot * fi.period_ns
        chosen = None
        for cand_us in range((fi.period_ns - fi.duration_ns) // US + 1):
            sched.offsets[(fi.stream, fi.link, fi.slot)] = base + cand_us * US
            if not cs.violations(sched):
                chosen = base + cand_us * US
                break
        if chosen is None:
            del sched.offsets[(fi.stream, fi.link, fi.slot)]
            raise InvalidInputError(
                f"no feasible fill for {fi.stream}@{fi.link[0]}->{fi.link[1]}#{fi.slot}"
            )
        filled.append((fi.stream, fi.link, fi.slot, chosen))
    return filled


def fixture_schedule(name: str, scenario: Scenario | None = None) -> tuple[Schedule, list]:
    """Look up a bundled schedule by fixture name; returns (schedule,
    filled-entries) where the second item is non-empty only for partial
    fixtures."""
    scenario = scenario or adas_scenario()
    if name == "table3":
        return table3_schedule(scenario), []
    if name == "table6":
        return table6_schedule(scenario), []
    if name == "table7":
        return table7_schedule(scenario)
    if name == "table8":
        return table8_schedule(scenario), []
    raise InvalidInputError(f"unknown fixture {name!r} (expected one of {FIXTURE_NAMES})")
