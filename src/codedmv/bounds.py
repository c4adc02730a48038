"""Closed-form recovery-threshold and resilience bounds.

Everything here is exact: rationals via fractions.Fraction, binomials via
math.comb, no floating point. Non-integral rational bounds on a block
count are rounded up (a valid lower bound rounds up).

``FAMILIES`` gives each placement its formulas, its construction and the
checks of the oracle against them; ``bound_report`` and ``verify`` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import eq, ge, le
from typing import Callable, NamedTuple

from . import schemes
from .core import AssignmentPlan, Placement, SystemParams, Uncoded
from .oracle import uncoded_q_fast


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
        w = self.witness
        return {**vars(self), "witness": None if w is None else {"x": w[0], "beta": w[1]}}


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

    Applies to coded-bottom and coded-top cyclic systems with r_u >= 1.
    """
    if params.placement not in (Placement.CODED_BOTTOM, Placement.CODED_TOP):
        raise ValueError("resilience formula applies to coded-bottom/top systems")
    if params.delta != params.n:
        raise ValueError("formula requires delta = n")
    if params.r_u < 1:
        raise ValueError("formula requires r_u >= 1")
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


def _uncoded_report(params: SystemParams) -> BoundReport:
    # r_u >= 1 forces delta = n; with r_u = 0 no worker holds a task, so
    # nothing decodes and no construction meets the bound
    q, r = uncoded_q_bound(params), params.r_u
    return BoundReport(q, q if r >= 1 else None, uncoded_resilience(r) if r >= 1 else 0, None)


def _fully_coded_report(params: SystemParams) -> BoundReport:
    # any delta of the n*ell rows decode
    n, delta, ell = params.n, params.delta, params.ell
    feasible = ell > 0 and n * ell >= delta
    res = max(0, n - math.ceil(delta / ell)) if ell > 0 else 0
    return BoundReport(delta, delta if feasible else None, res, None)


class Family(NamedTuple):
    """One placement family: ``report`` gives its formulas, ``twin`` builds
    its construction, and ``verify`` checks ``checks`` on every plan and
    ``exact`` on the construction under any block labels. A check (formula,
    relation, text) holds when relation(formula, oracle), the formula being
    a :class:`BoundReport` field or "fast" (an uncoded plan's per-block
    threshold) and the oracle's value its resilience, or else its Q."""

    report: Callable[[SystemParams], BoundReport]
    twin: Callable[[SystemParams], AssignmentPlan]
    checks: tuple
    exact: tuple


def _cyclic_coded(p: SystemParams) -> AssignmentPlan:
    return schemes.cyclic_coded(p.n, p.r_u, p.ell_c, p.placement)


_THRESHOLD = ("q_lower", le, "threshold bound {f} <= oracle {o}")
_CODED_EXACT = (("q_exact", eq, "construction meets bound: {f} == {o}"),
                ("resilience", eq, "resilience formula {f} == oracle {o}"))
FAMILIES = {
    Placement.UNCODED_ONLY: Family(
        _uncoded_report, lambda p: schemes.cyclic_uncoded(p.n, p.r_u),
        (("fast", eq, "per-block fast threshold {f} == oracle {o}"), _THRESHOLD,
         ("resilience", ge, "oracle resilience {o} <= replication bound {f}")),
        (("q_exact", eq, "cyclic construction meets bound: {f} == {o}"),
         ("resilience", eq, "cyclic resilience {o} == r-1 = {f}"))),
    Placement.CODED_BOTTOM: Family(
        lambda p: BoundReport(coded_bottom_q(p), coded_bottom_q(p), coded_bottom_resilience(p), None),
        _cyclic_coded, (_THRESHOLD,), _CODED_EXACT),
    Placement.CODED_TOP: Family(coded_top_q_bound, _cyclic_coded, (_THRESHOLD,), _CODED_EXACT),
    Placement.FULLY_CODED: Family(
        _fully_coded_report, lambda p: schemes.mds_plan(p.n, p.ell_c, p.delta),
        (("q_lower", le, "oracle {o} >= delta {f}"),),
        (("q_exact", eq, "any delta rows decode: oracle {o} == {f}"),)),
}
# with r_u = 0 every task is coded, and the fully-coded formulas replace the paper's
_ALL_CODED = Family(_fully_coded_report, _cyclic_coded, (_THRESHOLD,), _CODED_EXACT)


def family(params: SystemParams) -> Family | None:
    """The family whose formulas apply; None for a coded placement with
    delta != n, which none covers."""
    coded = params.placement in (Placement.CODED_BOTTOM, Placement.CODED_TOP)
    if coded and params.delta != params.n:
        return None
    return _ALL_CODED if coded and params.r_u == 0 else FAMILIES[params.placement]


def bound_report(params: SystemParams) -> BoundReport:
    """The formulas of the parameters' family; ValueError if none applies."""
    fam = family(params)
    if fam is None:
        raise ValueError("formula requires delta = n")
    return fam.report(params)


def _columns(plan: AssignmentPlan) -> list:
    # block b's column: (worker, position, coefficient) over the tasks that
    # hold b, 0 marking an uncoded copy; two plans with equal params are
    # relabellings of each other exactly when their sorted columns are equal
    columns = [[] for _ in range(plan.params.delta)]
    for i, tasks in enumerate(plan.workers):
        for k, task in enumerate(tasks):
            for b, c in ((task.block, 0),) if isinstance(task, Uncoded) else task.coeffs:
                columns[b].append((i, k, c))
    return sorted(columns)


def verify_checks(plan: AssignmentPlan, q: int, resilience: int) -> list:
    """(ok, message) pairs comparing the oracle's Q and resilience with the
    plan's family: its ``checks``, and its ``exact`` ones when the plan is
    the construction up to block labels, but none whose formula is None."""
    fam = family(plan.params)
    if fam is None:
        return []
    try:
        twin = fam.twin(plan.params)
    except ValueError:  # the parameters lie outside the construction
        twin = None
    exact = twin is not None and twin.params == plan.params and _columns(twin) == _columns(plan)
    report, out = fam.report(plan.params), []
    for formula, relation, text in fam.checks + (fam.exact if exact else ()):
        f = uncoded_q_fast(plan) if formula == "fast" else getattr(report, formula)
        o = resilience if formula == "resilience" else q
        if f is not None:
            out.append((relation(f, o), text.format(f=f, o=o)))
    return out
