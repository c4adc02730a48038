from itertools import combinations

import numpy as np
import pytest

from codedmv import core, oracle
from codedmv.core import Coded, Placement, Uncoded, validate_plan
from codedmv.field import P, rank
from codedmv.schemes import cauchy, cyclic_coded, cyclic_uncoded, mds_plan

from support import min_uncoded_coverage


def det2(m):
    return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % P


def det3(m):
    total = 0
    for perm, sign in [
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ]:
        term = sign
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total % P


# ---------------------------------------------------------------------------
# cauchy


def test_cauchy_smallest_case():
    # x_0 = 1, y_0 = 0: the single entry is 1 / (1 - 0)
    assert cauchy(1, 1) == ((1,),)


def test_cauchy_2x2_invertible_by_determinant():
    m = cauchy(2, 2)
    assert all(m[i][j] != 0 for i in range(2) for j in range(2))
    assert det2(m) != 0


def test_cauchy_parameters_distinct_and_disjoint():
    # entry (i, j) is the inverse of x_i - y_j = (k + i) - j
    m = cauchy(6, 4)
    assert len(m) == 6 and all(len(row) == 4 for row in m)
    for i in range(6):
        for j in range(4):
            assert m[i][j] * (4 + i - j) % P == 1
    # distinct x give distinct rows, distinct y distinct columns
    assert len(set(m)) == 6 and len(set(zip(*m))) == 4


def test_cauchy_random_3x3_submatrices_invertible():
    m = cauchy(5, 5)
    rng = np.random.default_rng(0)
    for _ in range(200):
        rows = sorted(rng.choice(5, size=3, replace=False))
        cols = sorted(rng.choice(5, size=3, replace=False))
        sub = [[m[r][c] for c in cols] for r in rows]
        assert det3(sub) != 0


def test_cauchy_rejects_field_overflow():
    with pytest.raises(ValueError):
        cauchy(P // 2 + 1, P // 2 + 1)


# ---------------------------------------------------------------------------
# cyclic uncoded


def test_cyclic_uncoded_matches_published_layout():
    plan = cyclic_uncoded(5, 3)
    blocks = [[t.block for t in tasks] for tasks in plan.workers]
    assert blocks == [
        [0, 1, 2],
        [1, 2, 3],
        [2, 3, 4],
        [3, 4, 0],
        [4, 0, 1],
    ]
    assert plan.params.delta == 5 and plan.params.r_u == 3
    assert validate_plan(plan) == []


def test_cyclic_uncoded_no_replication():
    plan = cyclic_uncoded(3, 1)
    assert [[t.block for t in w] for w in plan.workers] == [[0], [1], [2]]


def test_cyclic_uncoded_full_storage_rotations():
    plan = cyclic_uncoded(4, 4)
    for i, tasks in enumerate(plan.workers):
        assert [t.block for t in tasks] == [(i + t) % 4 for t in range(4)]


def test_cyclic_uncoded_rejects_bad_replication():
    with pytest.raises(ValueError):
        cyclic_uncoded(4, 5)
    with pytest.raises(ValueError):
        cyclic_uncoded(4, 0)


# ---------------------------------------------------------------------------
# cyclic coded


def test_cyclic_coded_bottom_structure():
    plan = cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)
    mat = cauchy(5, 5)
    for i, tasks in enumerate(plan.workers):
        assert [t.block for t in tasks[:2]] == [i % 5, (i + 1) % 5]
        coded = tasks[2]
        assert isinstance(coded, Coded)
        own = {i % 5, (i + 1) % 5}
        assert set(coded.support) == set(range(5)) - own
        for b, c in coded.coeffs:
            assert c == mat[i][b]  # rows consumed worker-major
    assert validate_plan(plan) == []


def test_cyclic_coded_top_structure_full_support():
    plan = cyclic_coded(5, 2, 1, Placement.CODED_TOP)
    for i, tasks in enumerate(plan.workers):
        coded = tasks[0]
        assert isinstance(coded, Coded)
        assert coded.support == tuple(range(5))
        assert [t.block for t in tasks[1:]] == [i % 5, (i + 1) % 5]
    assert validate_plan(plan) == []


def test_cyclic_coded_degenerates_to_uncoded():
    assert cyclic_coded(5, 3, 0, Placement.CODED_BOTTOM) == cyclic_uncoded(5, 3)
    assert core.plan_to_json(cyclic_coded(4, 2, 0, Placement.CODED_TOP)) == core.plan_to_json(
        cyclic_uncoded(4, 2)
    )


def test_cyclic_coded_multi_row_consumption_order():
    plan = cyclic_coded(4, 1, 2, Placement.CODED_BOTTOM)
    mat = cauchy(8, 4)
    for i, tasks in enumerate(plan.workers):
        for j, coded in enumerate(tasks[1:]):
            for b, c in coded.coeffs:
                assert c == mat[i * 2 + j][b]


def test_cyclic_coded_rejects_bad_params():
    with pytest.raises(ValueError):
        cyclic_coded(5, 2, 1, Placement.UNCODED_ONLY)
    with pytest.raises(ValueError):
        cyclic_coded(5, 4, 2, Placement.CODED_BOTTOM)  # r_u + ell_c > n
    with pytest.raises(ValueError):
        cyclic_coded(5, 0, 0, Placement.CODED_BOTTOM)


# ---------------------------------------------------------------------------
# mds


def test_mds_three_worker_system():
    plan = mds_plan(3, 1, 2)
    assert plan.params.placement is Placement.FULLY_CODED
    assert validate_plan(plan) == []
    assert oracle.brute_force_q(plan).q_true == 2
    assert oracle.straggler_resilience(plan).resilience_true == 1


def test_mds_any_delta_rows_decode():
    plan = mds_plan(3, 2, 3)
    rows = [t for tasks in plan.workers for t in tasks]
    for subset in combinations(range(6), 3):
        mat = [[dict(rows[r].coeffs).get(b, 0) for b in range(3)] for r in subset]
        assert rank(mat) == 3


def test_mds_no_redundancy():
    plan = mds_plan(2, 1, 2)
    assert oracle.brute_force_q(plan).q_true == 2
    assert oracle.straggler_resilience(plan).resilience_true == 0


def test_mds_rejects_insufficient_rows():
    with pytest.raises(ValueError):
        mds_plan(3, 1, 4)


# ---------------------------------------------------------------------------
# cross-family invariants


def all_small_plans():
    plans = []
    for n in range(2, 6):
        for r in range(1, n + 1):
            plans.append(cyclic_uncoded(n, r))
    for n in range(3, 6):
        for r_u in range(0, n):
            for ell_c in range(1, n - r_u + 1):
                for placement in (Placement.CODED_BOTTOM, Placement.CODED_TOP):
                    plans.append(cyclic_coded(n, r_u, ell_c, placement))
    for n in range(2, 4):
        for ell in range(1, 3):
            for delta in range(ell, n * ell + 1):
                plans.append(mds_plan(n, ell, delta))
    return plans


def test_every_scheme_output_validates():
    for plan in all_small_plans():
        assert validate_plan(plan) == [], core.plan_to_json(plan)


def test_schemes_are_deterministic():
    a = cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)
    b = cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)
    assert a == b
    assert core.plan_to_json(a) == core.plan_to_json(b)
    assert core.plan_to_json(mds_plan(3, 2, 4)) == core.plan_to_json(mds_plan(3, 2, 4))


def test_cyclic_coverage_claim_small():
    # any k workers jointly hold at least min(ell_u + k - 1, delta) uncoded blocks
    for n in range(3, 7):
        for r_u in range(1, n):
            plan = cyclic_coded(n, r_u, min(1, n - r_u), Placement.CODED_BOTTOM)
            if plan.params.ell_c == 0:
                continue
            for k in range(1, n + 1):
                cov = min_uncoded_coverage(plan, k)
                assert cov == min(r_u + k - 1, n)


def test_coded_rows_always_useful():
    # a coded equation raises the rank of any known-block set that leaves
    # part of its support unknown
    plans = [
        cyclic_coded(4, 2, 1, Placement.CODED_BOTTOM),
        cyclic_coded(4, 1, 2, Placement.CODED_TOP),
        mds_plan(3, 2, 4),
    ]
    for plan in plans:
        delta = plan.params.delta
        coded = [t for tasks in plan.workers for t in tasks if isinstance(t, Coded)]
        for t in coded:
            for known_mask in range(1 << delta):
                known = {b for b in range(delta) if known_mask >> b & 1}
                if len(known) == delta:
                    continue
                restricted = [c for b, c in t.coeffs if b not in known]
                unknown_in_support = any(b not in known for b in t.support)
                # rank(units of known + c) = |known| + 1 iff the restricted
                # row is nonzero, i.e. iff some unknown sits in the support
                assert bool(any(c % P for c in restricted)) == unknown_in_support
