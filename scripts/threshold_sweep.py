#!/usr/bin/env python3
"""Exact recovery threshold against the closed-form bound, by n.

For the cyclic coded-top and coded-bottom plans (n, r_u, ell_c) = (n, 2, 1),
n = 5 .. --n-max, prints one CSV row per plan: the threshold and the
straggler resilience that :func:`codedmv.oracle.analyze` certifies (by its
dynamic program over the workers, which reaches n = 40 in well under a
second), and the lower bound of :mod:`codedmv.bounds`.
"""

import argparse

from codedmv import bounds
from codedmv.core import Placement
from codedmv.oracle import analyze
from codedmv.schemes import cyclic_coded


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args()

    print("family,n,q_true,q_lower,resilience")
    for placement in (Placement.CODED_TOP, Placement.CODED_BOTTOM):
        for n in range(5, args.n_max + 1):
            plan = cyclic_coded(n, 2, 1, placement)
            report = analyze(plan)
            q_lower = bounds.bound_report(plan.params).q_lower
            print(f"{placement.value},{n},{report.q_true},{q_lower},{report.resilience_true}")


if __name__ == "__main__":
    main()
