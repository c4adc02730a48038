#!/usr/bin/env python3
"""Paired comparison of the three n=5 task-placement strategies.

Runs the cyclic uncoded, coded-at-bottom and coded-at-top plans through the
same random worker speeds and reports finish-time statistics plus pairwise
win rates (a win is finishing no later on the shared draw). A value the
speed model or the experiment refuses ends the script with one ``error:``
line and exit code 1.
"""

import argparse
import sys

from codedmv import sim
from codedmv.core import Placement
from codedmv.schemes import cyclic_coded, cyclic_uncoded


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shift", type=float, default=1.0)
    parser.add_argument("--rate", type=float, default=1.0)
    parser.add_argument("--straggler-slowdown", type=float, default=None,
                        help="rate multiplier applied to workers 4 and 5")
    parser.add_argument("--out", help="write per-trial rows to this CSV")
    args = parser.parse_args()

    multipliers = None
    if args.straggler_slowdown is not None:
        multipliers = (1.0, 1.0, 1.0, args.straggler_slowdown, args.straggler_slowdown)
    speed = sim.ShiftedExponential(shift=args.shift, rate=args.rate, multipliers=multipliers)

    plans = {
        "coded-top": cyclic_coded(5, 2, 1, Placement.CODED_TOP),
        "coded-bottom": cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM),
        "uncoded": cyclic_uncoded(5, 3),
    }
    rows, summaries = sim.run_experiment(
        list(plans.values()), speed, sim.Uniform(), args.trials, args.seed,
        plan_ids=list(plans),
    )
    print(sim.summaries_to_csv(summaries), end="")

    finish = dict(zip(rows.plan_ids, rows.finish))
    pairs = [("coded-top", "uncoded"), ("coded-top", "coded-bottom"),
             ("coded-bottom", "uncoded")]
    for a, b in pairs:
        rate = float((finish[a] <= finish[b]).mean())
        print(f"win rate {a} vs {b}: {rate:.4f}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(sim.rows_to_csv(rows))
        print(f"wrote {args.out}")


if __name__ == "__main__":
    try:
        main()
    except ValueError as e:
        sys.exit(f"error: {e}")
