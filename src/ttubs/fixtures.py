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

# the mode each fixture's schedule validates in: only table6 separates queues
VALIDATION_MODES = {"table3": "nfic", "table6": "wa", "table7": "nfic", "table8": "nfic"}
FIXTURE_NAMES = tuple(VALIDATION_MODES)

# Published switch-hop eligibility offsets in us, per stream: (SW2->SW1 by
# slot, SW1->CentralHost by slot).  table3 comes from the constraint-solver
# run without isolation constraints (all streams share queue 4), table7 from
# the array-encoding solver run, whose table lacks radar's SW2->SW1 offset,
# and table8 from the heuristic list scheduler without isolation checks.
PUBLISHED_US = {
    "table3": {"control": ((3,), (6,)), "cam1": ((21, 121), (32, 132)),
               "cam2": ((11, 111), (22, 122)), "radar": ((5,), (10,))},
    "table7": {"control": ((74,), (77,)), "cam1": ((64, 137), (79, 175)),
               "cam2": ((31, 151), (89, 189)), "radar": ((), (185,))},
    "table8": {"control": ((2,), (4,)), "cam1": ((10, 110), (20, 120)),
               "cam2": ((20, 120), (30, 130)), "radar": ((4,), (8,))},
}
# table6: table3's offsets with each stream in a shared queue of its own on
# both switch hops
TABLE6_QUEUES = {"cam1": 4, "cam2": 5, "radar": 6, "control": 7}


def adas_scenario() -> Scenario:
    doc = json.loads(resources.files("ttubs.data").joinpath("adas_star.json").read_text())
    return scenario_from_dict(doc)


def fixture_schedule(name: str, scenario: Scenario | None = None) -> tuple[Schedule, list]:
    """Look up a bundled schedule by fixture name; returns (schedule,
    filled-entries) where the second item is non-empty only for the
    partial fixture, table7.  Talker send times are pinned to the slot
    starts (0, T, 2T, ...)."""
    if name not in VALIDATION_MODES:
        raise InvalidInputError(f"unknown fixture {name!r} (expected one of {FIXTURE_NAMES})")
    scenario = scenario or adas_scenario()
    published = PUBLISHED_US["table3" if name == "table6" else name]
    offsets = {
        (st, link, slot): us * US
        for hop, link in enumerate((SW2_SW1, SW1_CH))
        for st, hops in published.items()
        for slot, us in enumerate(hops[hop])
    }
    for s in scenario.streams:
        for slot in range(scenario.slots_of(s)):
            offsets[(s.id, s.route[0], slot)] = slot * s.period_ns
    sched = Schedule(offsets=offsets)
    if name == "table6":
        for st, q in TABLE6_QUEUES.items():
            sched.queues[(st, SW2_SW1)] = sched.queues[(st, SW1_CH)] = q
    return sched, (_fill_missing(scenario, sched) if name == "table7" else [])


def table3_schedule(scenario: Scenario | None = None) -> Schedule:
    return fixture_schedule("table3", scenario)[0]


def table6_schedule(scenario: Scenario | None = None) -> Schedule:
    return fixture_schedule("table6", scenario)[0]


def table7_schedule(scenario: Scenario | None = None) -> tuple[Schedule, list]:
    return fixture_schedule("table7", scenario)


def table8_schedule(scenario: Scenario | None = None) -> Schedule:
    return fixture_schedule("table8", scenario)[0]


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
