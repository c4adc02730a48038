"""Closed-form recovery-threshold and resilience bounds.

Everything here is exact: rationals via fractions.Fraction, binomials via
math.comb, no floating point. Non-integral rational bounds on a block
count are rounded up (a valid lower bound rounds up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import Placement, SystemParams


@dataclass(frozen=True)
class BoundReport:
    """q_lower: lower bound on the recovery threshold Q; q_exact: set when a
    matching construction achieves the bound; resilience: straggler count
    the formulas certify; witness: (x, beta) maximizer of the coded-top
    search, when one applies."""

    q_lower: int
    q_exact: int | None
    resilience: int
    witness: tuple | None

    def to_dict(self) -> dict:
        return {
            "q_lower": self.q_lower,
            "q_exact": self.q_exact,
            "resilience": self.resilience,
            "witness": None
            if self.witness is None
            else {"x": self.witness[0], "beta": self.witness[1]},
        }


def _threshold_formula(delta: int, r: int, ell: int) -> int:
    # max(delta, delta*r - (r/2)(ell+1) + 1), ceiled when r(ell+1) is odd
    expr = Fraction(delta * r) - Fraction(r, 2) * (ell + 1) + 1
    return max(delta, math.ceil(expr))


def uncoded_q_bound(params: SystemParams) -> int:
    """Worst-case block-count lower bound for an uncoded system.

    Raises:
        ValueError: placement is not uncoded-only.
    """
    if params.placement is not Placement.UNCODED_ONLY:
        raise ValueError("uncoded_q_bound applies to uncoded-only systems")
    return _threshold_formula(params.delta, params.r_u, params.ell_u)


def uncoded_resilience(r: int) -> int:
    """Maximum straggler count an r-replicated uncoded system can tolerate."""
    if r < 1:
        raise ValueError(f"replication factor must be >= 1, got {r}")
    return r - 1


def coded_bottom_q(params: SystemParams) -> int:
    """Recovery threshold of the cyclic coded-at-bottom construction
    (a lower bound for arbitrary coded-at-bottom systems).

    Raises:
        ValueError: wrong placement, or delta != n.
    """
    if params.placement is not Placement.CODED_BOTTOM:
        raise ValueError("coded_bottom_q applies to coded-bottom systems")
    if params.delta != params.n:
        raise ValueError("formula requires delta = n")
    return _threshold_formula(params.delta, params.r_u, params.ell_u)


def coded_bottom_resilience(params: SystemParams) -> int:
    """floor((n^2 gamma_c + n gamma_u - 1) / (n gamma_c + 1)), exact.

    Applies to both coded-bottom and coded-top cyclic systems.
    """
    if params.placement not in (Placement.CODED_BOTTOM, Placement.CODED_TOP):
        raise ValueError("resilience formula applies to coded-bottom/top systems")
    if params.delta != params.n:
        raise ValueError("formula requires delta = n")
    n = params.n
    num = n * n * params.gamma_c + n * params.gamma_u - 1
    den = n * params.gamma_c + 1
    return math.floor(Fraction(num) / Fraction(den))


def coded_top_q_bound(params: SystemParams) -> BoundReport:
    """Lower bound on the coded-at-top threshold by exhaustive search.

    Adversarial scenario: beta workers finish everything, the others stop
    after contributing x coded blocks in total. Decoding is impossible while

        x + ell_c * beta  <  delta * C(n - r_u, beta) / C(n, beta)

    (strict, exact rationals), in which case at least x + ell*beta + 1
    blocks are needed. The search runs over beta in [0, n - r_u] and
    x in [0, n*ell_c - ell_c*beta]; ties prefer smaller beta, then smaller
    x; the result is additionally floored at delta. The objective rises
    strictly with x, so for each beta only the largest feasible x,
    min(n*ell_c, ceil(rhs) - 1) - ell_c*beta, is tried.

    Raises:
        ValueError: wrong placement, delta != n, or r_u < 1.
    """
    if params.placement is not Placement.CODED_TOP:
        raise ValueError("coded_top_q_bound applies to coded-top systems")
    if params.delta != params.n:
        raise ValueError("bound requires delta = n")
    if params.r_u < 1:
        raise ValueError("bound requires r_u >= 1")
    n, delta = params.n, params.delta
    ell, ell_c, r_u = params.ell, params.ell_c, params.r_u
    best_obj = best_witness = None
    for beta in range(0, n - r_u + 1):
        # ceil(rhs) - 1 is the largest integer below rhs = num / den
        below_rhs = (delta * comb(n - r_u, beta) - 1) // comb(n, beta)
        x = min(n * ell_c, below_rhs) - ell_c * beta
        if x >= 0 and (best_obj is None or x + ell * beta + 1 > best_obj):
            best_obj, best_witness = x + ell * beta + 1, (x, beta)
    # (0, 0) is always feasible since delta > 0, so a witness exists
    return BoundReport(
        q_lower=max(delta, best_obj),
        q_exact=None,
        resilience=coded_bottom_resilience(params),
        witness=best_witness,
    )


def bound_report(params: SystemParams) -> BoundReport:
    """Assemble the applicable formulas for any placement into one report."""
    if params.placement is Placement.UNCODED_ONLY:
        q = uncoded_q_bound(params)
        exact = q if params.delta == params.n else None
        res = uncoded_resilience(params.r_u) if params.r_u >= 1 else 0
        return BoundReport(q_lower=q, q_exact=exact, resilience=res, witness=None)
    if params.placement is Placement.CODED_BOTTOM:
        q = coded_bottom_q(params)
        return BoundReport(
            q_lower=q,
            q_exact=q,
            resilience=coded_bottom_resilience(params),
            witness=None,
        )
    if params.placement is Placement.CODED_TOP:
        return coded_top_q_bound(params)
    # fully coded: any delta of the n*ell rows decode
    n, delta, ell = params.n, params.delta, params.ell
    feasible = ell > 0 and n * ell >= delta
    res = max(0, n - math.ceil(delta / ell)) if ell > 0 else 0
    return BoundReport(
        q_lower=delta,
        q_exact=delta if feasible else None,
        resilience=res,
        witness=None,
    )
