"""Replay one schedule through both egress pipelines under healthy and
faulty traffic, and watch where they diverge.

The deployed offsets come from an isolation-free solve, so under gate
control (tas) the two cameras share one queue and their enqueue order
depends on frame sizes: jitter blows past its budget even with no fault.
A 10 us delay is worse: the late frame misses its gate window and burns a
whole cycle.  The shaped-queue pipeline (ttubs) instead holds each stream
in its own queue until its table offset, and discards frames whose
offset already passed, so the delayed frame dies alone and nothing else
moves.
"""

from ttubs.artifacts import build_deployment
from ttubs.fixtures import adas_scenario, fixture_schedule
from ttubs.harness import fault_preset
from ttubs.model import ns_to_us_str
from ttubs.sim import SimConfig, run

scenario = adas_scenario()
deployment = build_deployment(scenario, fixture_schedule("table3", scenario)[0])
DURATION = 2_000_000_000  # 2 s, ten thousand hyper-periods

cases = [("none", "healthy"), ("loss", "one frame dropped"),
         ("timeout", "one frame delayed 10 us"), ("timeout-long", "one frame delayed 221 us")]

for egress in ("tas", "ttubs"):
    print(f"=== egress: {egress} ===")
    header = f"{'case':26s}" + "".join(f"{sid:>16s}" for sid in ("cam1", "cam2", "radar", "control"))
    print(header + "   discards")
    for fault, label in cases:
        rep = run(SimConfig(scenario, deployment, egress, fault_preset(fault),
                            rng_seed=1, sim_duration_ns=DURATION))
        cells = ""
        for sid in ("cam1", "cam2", "radar", "control"):
            m = rep.metrics[sid]
            flag = "!" if (m.deadline_violations or m.jitter_violation) else " "
            cells += f"{ns_to_us_str(m.e2e_max_ns):>9s}/{ns_to_us_str(m.jitter_ns):>5s}{flag}"
        print(f"{label:26s}{cells}   {rep.shaper_discards}")
    print()

print("cells are max-latency/jitter in us; '!' marks a deadline or jitter violation")
print("note the camera jitter under tas even when healthy, and the cascade after the")
print("10 us delay; the shaped queues absorb every case at the cost of discards")
