from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmv import bounds, oracle
from codedmv.bounds import (
    BoundReport,
    bound_report,
    coded_bottom_q,
    coded_bottom_resilience,
    coded_top_q_bound,
    uncoded_q_bound,
    uncoded_resilience,
)
from codedmv.core import AssignmentPlan, Placement, SystemParams, Uncoded
from codedmv.schemes import cyclic_coded, cyclic_uncoded, mds_plan

from support import perturbed, relabel_blocks, scheme_plan_up_to, shrunk_supports


def uncoded_params(n, delta, ell, r):
    return SystemParams(n=n, delta=delta, ell_u=ell, ell_c=0, r_u=r,
                        placement=Placement.UNCODED_ONLY)


# ---------------------------------------------------------------------------
# uncoded threshold bound


def test_uncoded_bound_example_system():
    assert uncoded_q_bound(uncoded_params(5, 5, 3, 3)) == 10


def test_uncoded_bound_no_replication_needs_everything():
    for delta in (3, 7, 11):
        assert uncoded_q_bound(uncoded_params(delta, delta, 1, 1)) == delta


def test_uncoded_bound_cross_checked_against_oracle():
    assert uncoded_q_bound(uncoded_params(4, 4, 2, 2)) == 6
    assert oracle.brute_force_q(cyclic_uncoded(4, 2)).q_true == 6


def test_uncoded_bound_rounds_up_when_fractional():
    # delta*r - (r/2)(ell+1) + 1 = 12 - 9/2 + 1 = 8.5 -> 9
    p = uncoded_params(6, 4, 2, 3)
    assert uncoded_q_bound(p) == 9


def test_uncoded_bound_rejects_coded_placement():
    p = SystemParams(5, 5, 2, 1, 2, Placement.CODED_BOTTOM)
    with pytest.raises(ValueError):
        uncoded_q_bound(p)


# ---------------------------------------------------------------------------
# uncoded resilience


def test_uncoded_resilience_values():
    assert uncoded_resilience(3) == 2
    assert uncoded_resilience(1) == 0
    with pytest.raises(ValueError):
        uncoded_resilience(0)


def test_uncoded_resilience_matches_oracle_at_r5():
    plan = cyclic_uncoded(7, 5)
    assert oracle.straggler_resilience(plan).resilience_true == 4 == uncoded_resilience(5)


# ---------------------------------------------------------------------------
# coded bottom


def coded_params(n, r_u, ell_c, placement):
    return SystemParams(n=n, delta=n, ell_u=r_u, ell_c=ell_c, r_u=r_u, placement=placement)


def test_coded_bottom_q_example():
    assert coded_bottom_q(coded_params(5, 2, 1, Placement.CODED_BOTTOM)) == 8


def test_coded_bottom_q_all_coded_degenerates_to_delta():
    assert coded_bottom_q(coded_params(5, 0, 3, Placement.CODED_BOTTOM)) == 5


def test_coded_bottom_q_cross_checked_against_oracle():
    assert coded_bottom_q(coded_params(6, 2, 1, Placement.CODED_BOTTOM)) == 10
    plan = cyclic_coded(6, 2, 1, Placement.CODED_BOTTOM)
    assert oracle.brute_force_q(plan).q_true == 10


def test_coded_bottom_resilience_example():
    p = coded_params(5, 2, 1, Placement.CODED_BOTTOM)
    assert p.gamma_u == Fraction(2, 5) and p.gamma_c == Fraction(1, 5)
    assert coded_bottom_resilience(p) == 3


def test_coded_bottom_resilience_reduces_to_replication():
    # gamma_c = 0 collapses the formula to r_u - 1
    for n in range(2, 8):
        for r_u in range(1, n + 1):
            p = SystemParams(n, n, r_u, 0, r_u, Placement.CODED_BOTTOM)
            assert coded_bottom_resilience(p) == uncoded_resilience(r_u)


def test_coded_bottom_resilience_cross_checked_against_oracle():
    p = coded_params(6, 2, 1, Placement.CODED_BOTTOM)
    assert coded_bottom_resilience(p) == 3
    plan = cyclic_coded(6, 2, 1, Placement.CODED_BOTTOM)
    assert oracle.straggler_resilience(plan).resilience_true == 3


@pytest.mark.parametrize("placement", [Placement.CODED_BOTTOM, Placement.CODED_TOP])
def test_coded_bottom_resilience_refuses_all_coded_systems(placement):
    # with r_u = 0 the paper's formula gives 2 for (5, 0, 1), where the
    # plan tolerates no straggler; bound_report takes the fully-coded value
    params = coded_params(5, 0, 1, placement)
    assert oracle.straggler_resilience(cyclic_coded(5, 0, 1, placement)).resilience_true == 0
    assert bound_report(params).resilience == 0
    for p in (params, coded_params(5, 0, 0, placement)):
        with pytest.raises(ValueError, match=r"formula requires r_u >= 1"):
            coded_bottom_resilience(p)


# ---------------------------------------------------------------------------
# coded top


def test_coded_top_bound_large_example():
    report = coded_top_q_bound(coded_params(15, 3, 1, Placement.CODED_TOP))
    assert report.q_lower == 18
    assert report.witness == (1, 4)
    # the witness satisfies the strict feasibility constraint, exactly
    assert Fraction(1 + 1 * 4) < 15 * Fraction(comb(12, 4), comb(15, 4))


def test_coded_top_bound_small_example_not_tight():
    report = coded_top_q_bound(coded_params(5, 2, 1, Placement.CODED_TOP))
    assert report.q_lower == 5
    assert report.witness == (4, 0)
    plan = cyclic_coded(5, 2, 1, Placement.CODED_TOP)
    assert report.q_lower <= oracle.brute_force_q(plan).q_true == 6


def test_coded_top_bound_floors_at_delta():
    report = coded_top_q_bound(coded_params(3, 2, 1, Placement.CODED_TOP))
    assert report.q_lower >= 3


def test_coded_top_bound_rejects_wrong_placement():
    with pytest.raises(ValueError):
        coded_top_q_bound(coded_params(5, 2, 1, Placement.CODED_BOTTOM))


def test_coded_top_bound_grows_with_replication():
    # more replication means fewer coded rows per worker and a weakly larger
    # threshold bound, with n and ell held fixed
    for n in (5, 6, 8, 10, 15):
        for ell in (2, 3, 4):
            values = [
                coded_top_q_bound(coded_params(n, r_u, ell - r_u, Placement.CODED_TOP)).q_lower
                for r_u in range(1, ell)
            ]
            assert values == sorted(values), (n, ell, values)


def _coded_top_double_loop(params):
    """Reference for coded_top_q_bound: every (beta, x), exact rationals."""
    n, delta, ell, ell_c, r_u = params.n, params.delta, params.ell, params.ell_c, params.r_u
    best_obj = best_witness = None
    for beta in range(0, n - r_u + 1):
        rhs = Fraction(delta * comb(n - r_u, beta), comb(n, beta))
        for x in range(0, n * ell_c - ell_c * beta + 1):
            if x + ell_c * beta < rhs:
                obj = x + ell * beta + 1
                if best_obj is None or obj > best_obj:
                    best_obj, best_witness = obj, (x, beta)
    return max(delta, best_obj), best_witness


def test_coded_top_bound_closed_form_matches_double_loop():
    systems = 0
    for n in range(2, 17):
        for r_u in range(1, n):
            for ell_c in range(1, n - r_u + 1):
                params = coded_params(n, r_u, ell_c, Placement.CODED_TOP)
                report = coded_top_q_bound(params)
                assert (report.q_lower, report.witness) == _coded_top_double_loop(params), params
                systems += 1
    assert systems == 680


# ---------------------------------------------------------------------------
# soundness against the oracle, and report dispatch


def test_bounds_never_exceed_oracle_truth():
    rng = np.random.default_rng(3)
    from support import random_uncoded_plan

    for _ in range(25):
        n = int(rng.integers(2, 11))
        ell = int(rng.integers(1, min(n, 3) + 1))
        plan = random_uncoded_plan(n, ell, rng)
        q = oracle.brute_force_q(plan).q_true
        assert uncoded_q_bound(plan.params) <= q


def test_report_uncoded():
    rep = bound_report(cyclic_uncoded(5, 3).params)
    assert rep == BoundReport(q_lower=10, q_exact=10, resilience=2, witness=None)


def test_report_uncoded_without_tasks_claims_no_exact_threshold():
    # with r = 0 no worker holds a task: no plan decodes, and cyclic_uncoded refuses r = 0
    params = SystemParams(n=5, delta=5, ell_u=0, ell_c=0, r_u=0, placement=Placement.UNCODED_ONLY)
    assert bound_report(params) == BoundReport(q_lower=5, q_exact=None, resilience=0, witness=None)


def test_report_coded_bottom():
    rep = bound_report(cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM).params)
    assert rep.q_lower == 8 and rep.q_exact == 8 and rep.resilience == 3


def test_report_coded_top():
    rep = bound_report(cyclic_coded(5, 2, 1, Placement.CODED_TOP).params)
    assert rep.q_lower == 5 and rep.q_exact is None and rep.resilience == 3
    assert rep.witness == (4, 0)


def test_report_fully_coded():
    rep = bound_report(mds_plan(3, 1, 2).params)
    assert rep.q_lower == 2 and rep.q_exact == 2 and rep.resilience == 1
    rep2 = bound_report(mds_plan(2, 1, 2).params)
    assert rep2.resilience == 0


def test_report_serialization():
    rep = coded_top_q_bound(coded_params(15, 3, 1, Placement.CODED_TOP))
    doc = rep.to_dict()
    assert doc["q_lower"] == 18
    assert doc["witness"] == {"x": 1, "beta": 4}


@pytest.mark.parametrize("placement", [Placement.CODED_BOTTOM, Placement.CODED_TOP])
def test_report_all_coded_takes_the_fully_coded_formulas(placement):
    # with r_u = 0 every task is coded; coded-top reported no bound here before
    rep = bound_report(coded_params(7, 0, 2, placement))
    assert rep == BoundReport(q_lower=7, q_exact=7, resilience=3, witness=None)
    assert rep == bound_report(mds_plan(7, 2, 7).params)


def test_report_refuses_a_coded_placement_with_delta_other_than_n():
    params = SystemParams(n=4, delta=6, ell_u=0, ell_c=2, r_u=0, placement=Placement.CODED_TOP)
    assert bounds.family(params) is None
    with pytest.raises(ValueError, match="delta = n"):
        bound_report(params)


def relabels(plan, twin):
    """Whether some block permutation turns the twin into the plan: a search."""
    return plan.params == twin.params and any(
        relabel_blocks(twin, perm) == plan for perm in permutations(range(plan.params.delta)))


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["designed", "relabelled", "perturbed", "shrunk", "swapped"]))
@settings(max_examples=80, deadline=None)
def test_columns_recognise_exactly_the_relabelled_twins(seed, variant):
    # the column multisets against a search over every permutation, delta <= 6
    rng = np.random.default_rng(seed)
    plan = scheme_plan_up_to(6, rng)
    while plan.params.delta > 6:  # an MDS plan can hold up to 12 blocks
        plan = scheme_plan_up_to(6, rng)
    twin = bounds.family(plan.params).twin(plan.params)
    if variant == "perturbed" and plan.params.placement in (Placement.CODED_TOP,
                                                            Placement.FULLY_CODED):
        plan = perturbed(plan, rng)
    if variant == "shrunk":
        plan = shrunk_supports(plan, 0.3, rng)
    if variant == "swapped":
        i, j = rng.choice(plan.n, 2, replace=False)
        workers = list(plan.workers)
        workers[i], workers[j] = workers[j], workers[i]
        plan = AssignmentPlan(plan.params, tuple(workers))
    if variant != "designed":
        plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    columns_agree = bounds._columns(plan) == bounds._columns(twin)
    assert columns_agree == relabels(plan, twin)
    if variant in ("designed", "relabelled"):
        assert columns_agree


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_relabelled_scheme_plans_get_the_canonical_checks(seed):
    # every family up to n = 10, all-coded (r_u = 0) plans included
    rng = np.random.default_rng(seed)
    plan = scheme_plan_up_to(10, rng)
    relabelled = relabel_blocks(plan, rng.permutation(plan.params.delta))
    canonical, report = oracle.analyze(plan), oracle.analyze(relabelled)
    assert (report.q_true, report.resilience_true) == (canonical.q_true, canonical.resilience_true)
    checks = bounds.verify_checks(relabelled, report.q_true, report.resilience_true)
    assert checks == bounds.verify_checks(plan, canonical.q_true, canonical.resilience_true)
    assert len(checks) > len(bounds.family(plan.params).checks)  # the construction's too
    assert all(ok for ok, _ in checks)
