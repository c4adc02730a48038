#!/usr/bin/env python3
"""Exact recovery threshold against the closed-form bound, by n.

For the cyclic coded-top and coded-bottom plans (n, r_u, ell_c) = (n, 2, 1),
n = 5 .. --n-max, prints one CSV row per plan: the threshold certified by
the threshold search, the lower bound of :mod:`codedmv.bounds` and the
straggler resilience certified by the resilience search.
"""

import argparse

from codedmv import bounds
from codedmv.core import Placement
from codedmv.oracle import brute_force_q, straggler_resilience
from codedmv.schemes import cyclic_coded


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args()

    print("family,n,q_true,q_lower,resilience")
    for placement in (Placement.CODED_TOP, Placement.CODED_BOTTOM):
        for n in range(5, args.n_max + 1):
            plan = cyclic_coded(n, 2, 1, placement)
            q_true = brute_force_q(plan).q_true
            q_lower = bounds.bound_report(plan.params).q_lower
            resilience = straggler_resilience(plan).resilience_true
            print(f"{placement.value},{n},{q_true},{q_lower},{resilience}")


if __name__ == "__main__":
    main()
