"""Turn a schedule into deployable device configuration and predict
latency without simulating.

Two artifacts come out of a solved schedule: the per-stream shaper offset
table (when the egress runs per-stream shaped queues) and the per-port
gate control list (when it runs gate-controlled shared queues).  Because
eligibility offsets pin every queueing delay, end-to-end latency collapses
to a closed form: last-hop offset minus send offset plus wire time.
"""

from ttubs.artifacts import (
    build_gcl,
    build_shaper_offset_table,
    e2e_bounds_and_jitter,
    e2e_per_slot,
    latency_breakdown,
)
from ttubs.fixtures import adas_scenario, fixture_schedule
from ttubs.model import ns_to_us_str

scenario = adas_scenario()
schedule = fixture_schedule("table3", scenario)[0]

table = build_shaper_offset_table(scenario, schedule)
print("shaper offset table (CSV):")
print(table.to_csv())

gcl = build_gcl(scenario, schedule, ("SW2", "SW1"))
print("gate control list, switch 2 egress (shared queue 4 carries all streams):")
print(gcl.to_csv())

print("closed-form end-to-end latency:")
for sid in ("cam1", "cam2", "radar", "control"):
    hi, lo, jit = e2e_bounds_and_jitter(scenario, sid, table)
    print(f"  {sid:8s} max {ns_to_us_str(hi):>7s} us   min {ns_to_us_str(lo):>7s} us   "
          f"jitter {ns_to_us_str(jit)} us")

# A frame's journey, hop by hop, for the largest camera frame:
talker_tx, hops = latency_breakdown(scenario, "cam1", table, 1200, slot=0)
print(f"\ncamera-1 breakdown (payload 1200 B): talker link {ns_to_us_str(talker_tx)} us")
for i, h in enumerate(hops, 1):
    print(f"  hop {i}: shaped-queue wait {ns_to_us_str(h.shaped_queue_ns):>6s} us, "
          f"transmission {ns_to_us_str(h.transmission_ns)} us")
total = talker_tx + sum(h.total_ns for h in hops)
assert total == e2e_per_slot(scenario, "cam1", table, 1200)[0]
print(f"  total {ns_to_us_str(total)} us (equals the closed form)")
