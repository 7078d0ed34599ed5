"""How constraint counts and solve times grow with the network.

Chained topologies (each switch with three end stations) carry randomly
generated traffic; counting ground constraints per category shows the
pairwise families (link and isolation) dominating as streams concentrate
on the chain links.  Dropping the isolation family is exactly what the
per-stream-shaper egress buys, and the solver feels it.

Desk-scale sweep here; bump reps/cells for smoother averages (the paper
used 500 repetitions per cell for the census and 50 for the solver study,
``ttubs study-census --reps 500`` and ``ttubs study-solvers --reps 50``).
"""

import statistics

from ttubs.harness import ChainSpec, ExperimentPlan, gen_chain, run_census_study, run_solver_study
from ttubs.constraints import census

plan = ExperimentPlan(switch_counts=(1, 4, 7, 10), stream_counts=(5, 35, 65, 95),
                      repetitions=10, rng_seed=0, workers=4)
rows = run_census_study(plan)

print("mean total constraints (isolation included), 10 seeds per cell:")
streams = sorted({r["streams"] for r in rows})
print(f"{'devices':>8s}" + "".join(f"{st:>10d}" for st in streams))
for dev in sorted({r["devices"] for r in rows}):
    line = f"{dev:>8d}"
    for st in streams:
        cell = next(r for r in rows if r["devices"] == dev and r["streams"] == st)
        line += f"{cell['mean_total']:>10.0f}"
    print(line)

big = next(r for r in rows if r["devices"] == 40 and r["streams"] == 95)
share = (big["mean_link"] + big["mean_isolation"]) / big["mean_total"]
print(f"\npairwise families at the largest cell: {share:.0%} of all constraints")
print(f"isolation-free total there: {big['mean_total_nfic']:.0f} vs {big['mean_total']:.0f}")

# Solve times, both engines, isolation on and off (one repetition per cell
# to keep the demo quick; child-process startup is a constant ~1 s floor on
# the solver route, so the gap shows at the larger cells).
splan = ExperimentPlan(switch_counts=(2, 4), stream_counts=(10, 30, 50), repetitions=1,
                       timeout_s=30, rng_seed=7, workers=4)
srows = run_solver_study(splan)
print("\nsolve times (s), 30 s cap per solve (a 'timeout' status means the")
print("isolation-laden instance hit the cap while its isolation-free twin solved):")
for engine in ("smt", "lstb"):
    for mode in ("nfic", "wa" if engine == "smt" else "fic"):
        times = [r["solve_time_s"] for r in srows if r["engine"] == engine and r["mode"] == mode]
        status = {r["status"] for r in srows if r["engine"] == engine and r["mode"] == mode}
        print(f"  {engine}-{mode:5s} median {statistics.median(times):8.3f}  statuses {sorted(status)}")
