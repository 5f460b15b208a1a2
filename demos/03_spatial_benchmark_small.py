"""Desk-size run of the spatial benchmark (a fast, small-n variant).

Samples locations in the unit square, builds exact exponential-variogram
covariances over a grid of correlation ranges, learns graphs with both
methods from the same kernel initialization, and prints the averaged
metrics table. Larger ranges leave more vertices at the importance floor
and sparser graphs; the baseline stays dense at short ranges.

The full-size run (n=50, 10+ trials) is `covgraph experiment` or the
acceptance suite; this script keeps n small so it finishes in seconds.
"""
import sys

from covgraph import LearnConfig, run_experiment
from covgraph.io import write_experiment_csv

table = run_experiment(
    ranges=[0.02, 0.1, 1.0],
    n=15,
    trials=3,
    base_seed=0,
    config=LearnConfig(stop_tol=1e-10, max_epochs=500),
)

write_experiment_csv(sys.stdout, table)

print()
for r in (0.02, 0.1, 1.0):
    joint = next(x for x in table.rows if x.method == "joint" and x.r == r)
    base = next(x for x in table.rows if x.method == "baseline" and x.r == r)
    print(f"r={r:<4}: joint graphs drop {joint.epsilon_w:.0%} of pairs, "
          f"baseline {base.epsilon_w:.0%}")
