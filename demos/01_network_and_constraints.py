"""Build the bundled ADAS star network and inspect its scheduling constraints.

The scenario has two switches in line: four talkers (two cameras, a radar,
a zonal controller) feed switch 2, which forwards everything through
switch 1 to the central host.  Every stream is periodic, so scheduling a
hyper-period schedules the network forever.
"""

from ttubs.constraints import build_constraint_set, census
from ttubs.fixtures import adas_scenario
from ttubs.model import InvalidInputError, Link, Scenario, expand_frame_instances, ns_to_us_str

scenario = adas_scenario()

print("nodes:", ", ".join(f"{n}({k[0]})" for n, k in scenario.nodes))
# A Scenario checks itself when built: a defective one never exists.
try:
    Scenario(scenario.nodes, scenario.links + (Link("SW1", "AV1", 0),), scenario.streams, name="broken")
except InvalidInputError as err:
    print("refused:", err)
print("hyper-period:", ns_to_us_str(scenario.hyper_period_ns), "us")

# Each stream occupies one frame instance per period repetition per hop.
instances = expand_frame_instances(scenario)
print(f"\n{len(instances)} frame instances:")
for fi in instances[:6]:
    print(f"  {fi.stream:8s} {fi.link[0]}->{fi.link[1]:12s} slot {fi.slot}  "
          f"wire time {ns_to_us_str(fi.duration_ns)} us")
print("  ...")

# Five constraint families; the isolation family exists only when streams
# may share an egress queue ("wa" mode).  The table-driven per-stream
# shaper makes enqueue order irrelevant, so its mode ("nfic") drops them.
for mode in ("wa", "nfic"):
    print(f"\ncensus [{mode}]: {census(scenario, mode).as_dict()}")

# The ground constraints are plain linear inequalities over per-frame
# offsets, fully expanded: here is everything that mentions the first
# camera frame on the inter-switch link.
cs = build_constraint_set(scenario, "wa")
var = "off_cam1_SW2__SW1_0"
hits = [gc for gc in cs.constraints if any(var in (a.x, a.y) for conj in gc.disjuncts for a in conj)]
print(f"\n{len(hits)} constraints mention {var}; first three:")
for gc in hits[:3]:
    print("  ", gc.label)
