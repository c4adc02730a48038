import dataclasses
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmv import core, schemes
from codedmv.core import (
    AssignmentPlan,
    Coded,
    Placement,
    SystemParams,
    Uncoded,
    is_decodable,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    validate_plan,
)

from support import (
    dominated_state,
    prefix_equations,
    random_scheme_plan,
    random_state,
    reference_decodable,
)

FIG3 = schemes.cyclic_uncoded(5, 3)  # the <5,3,5,3> cyclic layout
FIG1 = schemes.cyclic_uncoded(3, 2)
FIG2 = schemes.cyclic_coded(3, 1, 1, Placement.CODED_BOTTOM)


# ---------------------------------------------------------------------------
# parameters


def test_params_storage_fractions_are_exact():
    p = FIG3.params
    assert p.gamma == Fraction(3, 5)
    assert p.gamma_u == Fraction(3, 5)
    assert p.gamma_c == 0
    assert isinstance(p.gamma, Fraction)


def test_params_reject_oversized_storage():
    with pytest.raises(ValueError):
        SystemParams(n=2, delta=3, ell_u=2, ell_c=2, r_u=2, placement=Placement.CODED_BOTTOM)


def test_params_reject_broken_double_counting():
    # n*ell_u must equal delta*r_u
    with pytest.raises(ValueError):
        SystemParams(n=4, delta=4, ell_u=2, ell_c=0, r_u=3, placement=Placement.UNCODED_ONLY)


def test_params_placement_constraints():
    with pytest.raises(ValueError):
        SystemParams(n=3, delta=3, ell_u=1, ell_c=1, r_u=1, placement=Placement.UNCODED_ONLY)
    with pytest.raises(ValueError):
        SystemParams(n=3, delta=3, ell_u=1, ell_c=1, r_u=1, placement=Placement.FULLY_CODED)


def test_coded_task_validation():
    with pytest.raises(ValueError):
        Coded(())
    with pytest.raises(ValueError):
        Coded(((0, 0),))  # zero coefficient
    with pytest.raises(ValueError):
        Coded(((2, 1), (0, 1)))  # unsorted
    t = Coded.from_map({3: 7, 1: 5})
    assert t.support == (1, 3)
    assert t.coeff_map() == {1: 5, 3: 7}


# ---------------------------------------------------------------------------
# validate_plan


def test_validate_accepts_cyclic_layout():
    assert validate_plan(FIG3) == []


def test_validate_flags_duplicate_block():
    workers = list(FIG3.workers)
    workers[0] = (Uncoded(0), Uncoded(0), Uncoded(2))
    bad = AssignmentPlan(params=FIG3.params, workers=tuple(workers))
    msgs = validate_plan(bad)
    assert any("duplicate uncoded block" in m and "worker 1" in m for m in msgs)


def test_validate_flags_replication_count():
    # swap one copy of A_3 for A_2: A_2 now appears 4 times, A_3 twice
    workers = list(FIG3.workers)
    worker2 = list(workers[2])
    assert worker2[0] == Uncoded(2)
    worker2[0] = Uncoded(1)
    workers[2] = tuple(worker2)
    bad = AssignmentPlan(params=FIG3.params, workers=tuple(workers))
    msgs = validate_plan(bad)
    assert any("A_2" in m and "replication count 4" in m for m in msgs)
    assert any("A_3" in m and "replication count 2" in m for m in msgs)


def test_validate_flags_wrong_worker_count():
    bad = AssignmentPlan(params=FIG3.params, workers=FIG3.workers[:4])
    assert any("4 workers" in m for m in validate_plan(bad))


def test_validate_flags_misplaced_coded_tasks():
    # coded task at the top of a coded-bottom plan
    workers = list(FIG2.workers)
    workers[0] = (workers[0][1], workers[0][0])
    bad = AssignmentPlan(params=FIG2.params, workers=tuple(workers))
    assert any("placement" in m for m in validate_plan(bad))


def test_validate_flags_out_of_range_block():
    params = SystemParams(n=2, delta=2, ell_u=1, ell_c=0, r_u=1,
                          placement=Placement.UNCODED_ONLY)
    bad = AssignmentPlan(params=params, workers=((Uncoded(0),), (Uncoded(5),)))
    assert any("outside" in m for m in validate_plan(bad))


# ---------------------------------------------------------------------------
# prefix equations (the reference in tests/support.py)


def test_prefix_single_block():
    known, coded = prefix_equations(FIG3, (1, 0, 0, 0, 0))
    assert known == frozenset({0})
    assert coded == ()


def test_prefix_dedupes_known_blocks():
    known, coded = prefix_equations(FIG1, (2, 2, 0))
    assert known == frozenset({0, 1, 2})
    assert coded == ()


def test_prefix_empty_state():
    known, coded = prefix_equations(FIG3, (0, 0, 0, 0, 0))
    assert known == frozenset()
    assert coded == ()


def test_prefix_rejects_invalid_states():
    with pytest.raises(ValueError):
        prefix_equations(FIG3, (1, 0, 0))
    with pytest.raises(ValueError):
        prefix_equations(FIG3, (4, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        prefix_equations(FIG3, (-1, 0, 0, 0, 0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_prefix_consistency_one_step(seed):
    # states w and w + e_i differ by exactly worker i's task at position w_i
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    w = list(random_state(plan, rng))
    candidates = [i for i in range(plan.n) if w[i] < plan.ell]
    if not candidates:
        return
    i = candidates[int(rng.integers(0, len(candidates)))]
    known_before, coded_before = prefix_equations(plan, tuple(w))
    w[i] += 1
    known_after, coded_after = prefix_equations(plan, tuple(w))
    task = plan.workers[i][w[i] - 1]
    if isinstance(task, Uncoded):
        assert coded_after == coded_before
        assert known_after - known_before in (frozenset(), frozenset({task.block}))
        assert task.block in known_after
    else:
        assert known_after == known_before
        assert sorted(coded_after, key=id) != sorted(coded_before, key=id)
        assert len(coded_after) == len(coded_before) + 1


# ---------------------------------------------------------------------------
# is_decodable


def test_fig2_any_three_products_decode():
    n, ell = 3, 2
    for w1 in range(ell + 1):
        for w2 in range(ell + 1):
            for w3 in range(ell + 1):
                if w1 + w2 + w3 == 3:
                    assert is_decodable(FIG2, (w1, w2, w3))


def test_fig3_two_rounds_decode():
    # independent check: the five prefixes of length 2 cover every block
    covered = set()
    for tasks in FIG3.workers:
        covered.update(t.block for t in tasks[:2])
    assert covered == set(range(5))
    assert is_decodable(FIG3, (2, 2, 2, 2, 2))


def test_fig3_worst_case_misses_a5():
    # worker holding A_5 at depth d contributes d blocks; everyone else all 3
    assert not is_decodable(FIG3, (3, 3, 2, 1, 0))
    assert sum((3, 3, 2, 1, 0)) == 9


def test_decodable_rejects_invalid_state():
    with pytest.raises(ValueError):
        is_decodable(FIG3, (1, 1))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_monotonicity(seed):
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    upper = random_state(plan, rng)
    lower = dominated_state(upper, rng)
    if is_decodable(plan, lower):
        assert is_decodable(plan, upper)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_completion_decodes(seed):
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    p = plan.params
    if p.r_u >= 1 or p.n * p.ell_c >= p.delta:
        assert is_decodable(plan, tuple([plan.ell] * plan.n))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_decodability_ignores_worker_identity(seed):
    # permuting the workers (and the state with them) changes nothing
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    state = random_state(plan, rng)
    perm = list(rng.permutation(plan.n))
    shuffled = AssignmentPlan(
        params=plan.params, workers=tuple(plan.workers[i] for i in perm)
    )
    shuffled_state = tuple(state[i] for i in perm)
    assert is_decodable(plan, state) == is_decodable(shuffled, shuffled_state)


def test_equations_decodable_matches_predicate():
    # the prefix-equations reference, ranked by an eliminator independent of
    # codedmv.field, agrees with the checker
    rng = np.random.default_rng(7)
    for _ in range(50):
        plan = random_scheme_plan(rng)
        state = random_state(plan, rng)
        known, coded = prefix_equations(plan, state)
        assert reference_decodable(plan.params.delta, known, coded) == is_decodable(
            plan, state
        )


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_identity():
    for plan in (FIG1, FIG2, FIG3, schemes.mds_plan(3, 2, 4)):
        again = plan_from_json(plan_to_json(plan))
        assert again == plan
        assert plan_to_json(again) == plan_to_json(plan)


def test_json_format_contract():
    doc = plan_to_dict(FIG2)
    assert doc["params"] == {
        "n": 3, "delta": 3, "ell_u": 1, "ell_c": 1, "r_u": 1,
        "placement": "coded-bottom",
    }
    assert doc["workers"][0][0] == {"u": 0}
    coded = doc["workers"][0][1]["c"]
    assert set(coded) == {"1", "2"}  # support excludes the worker's own block
    assert all(isinstance(v, str) and v.isdigit() for v in coded.values())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_json_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    assert plan_from_json(plan_to_json(plan)) == plan
