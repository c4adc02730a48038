#!/usr/bin/env python3
"""How block sparsity punishes dense coding.

Under a sparsity-aware cost model a coded task pays for the sum of the
nonzeros of every block it combines, an upper bound on the nonzeros of the
combination, so the dense baseline (every task combines all blocks) slows
down while a mostly-uncoded cyclic plan keeps processing cheap single
blocks. Sweeps the per-block nonzero count and reports mean finish times
for both. A value the cost model or the experiment refuses ends the script
with one ``error:`` line and exit code 1.
"""

import argparse
import sys

from codedmv import sim
from codedmv.core import Placement
from codedmv.schemes import cyclic_coded, mds_plan


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--nnz", type=int, nargs="*", default=[1, 2, 4, 8, 16],
                        help="per-block nonzero counts to sweep (uniform blocks)")
    args = parser.parse_args()

    plans = [mds_plan(5, 3, 5), cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)]
    ids = ["mds", "coded-bottom"]
    costs = {nnz: sim.SparsityAware(nnz=(nnz,) * 5) for nnz in args.nnz}
    print("nnz_per_block,mds_mean,coded_bottom_mean,ratio")
    for nnz, cost in costs.items():
        _, summaries = sim.run_experiment(
            plans, sim.ShiftedExponential(), cost, args.trials, args.seed, plan_ids=ids
        )
        by = {s.plan_id: s for s in summaries}
        ratio = by["mds"].mean_finish / by["coded-bottom"].mean_finish
        print(f"{nnz},{by['mds'].mean_finish:.4f},{by['coded-bottom'].mean_finish:.4f},{ratio:.3f}")


if __name__ == "__main__":
    try:
        main()
    except ValueError as e:
        sys.exit(f"error: {e}")
