import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmv import core, oracle, sim
from codedmv.core import Placement, is_decodable
from codedmv.schemes import cyclic_coded, cyclic_uncoded, mds_plan
from codedmv.sim import (
    DecodeFailure,
    Deterministic,
    HaltAfter,
    NotDecodableError,
    ShiftedExponential,
    SparsityAware,
    Uniform,
    decode_from_products,
    numeric_decode,
    raw_durations,
    real_coefficient,
    run_experiment,
    rows_to_csv,
    split_matrix,
    state_received,
    task_weight,
    trial_seed,
    _block_products,
)

from support import random_scheme_plan, random_state, reference_trial, trial

UNCODED = cyclic_uncoded(5, 3)
BOTTOM = cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)
TOP = cyclic_coded(5, 2, 1, Placement.CODED_TOP)


# ---------------------------------------------------------------------------
# split_matrix


def test_split_even():
    assert [len(r) for r in split_matrix(10, 5)] == [2, 2, 2, 2, 2]


def test_split_remainder_goes_first():
    assert [len(r) for r in split_matrix(11, 5)] == [3, 2, 2, 2, 2]
    assert [len(r) for r in split_matrix(7, 3)] == [3, 2, 2]


def test_split_rejects_too_few_rows():
    with pytest.raises(ValueError):
        split_matrix(4, 5)


@given(st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=80, deadline=None)
def test_split_partitions_and_balances(rows, delta):
    if rows < delta:
        return
    ranges = split_matrix(rows, delta)
    flat = [i for r in ranges for i in r]
    assert flat == list(range(rows))
    sizes = [len(r) for r in ranges]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes


# ---------------------------------------------------------------------------
# speed and cost models


def test_shifted_exponential_draws():
    speed = ShiftedExponential(shift=1.0, rate=2.0, multipliers=(1.0, 0.5, 1.0))
    d = raw_durations(speed, 3, 4, [7])[0]
    assert d.shape == (3, 4)
    assert (d > 1.0).all()
    # same raw exponentials underneath: halving the rate multiplier doubles
    # the stochastic part
    base = raw_durations(ShiftedExponential(1.0, 2.0, (1.0, 1.0, 1.0)), 3, 4, [7])[0]
    assert np.allclose((d[1] - 1.0), (base[1] - 1.0) * 2)


def test_deterministic_per_worker():
    d = raw_durations(Deterministic(per_block=(1.0, 2.0)), 2, 3, [0, 1])
    assert d.shape == (2, 2, 3)
    assert np.array_equal(d[1], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])


def test_halt_after_marks_unreachable_tasks():
    d = raw_durations(HaltAfter(stragglers=(1,), blocks=1), 3, 3, [0])[0]
    assert np.isfinite(d[0]).all()
    assert np.isfinite(d[1][0]) and np.isinf(d[1][1:]).all()


def test_raw_durations_batch_pins_the_single_seed_stream():
    # slice j of a batch is exactly the single-seed draw of seeds[j]
    speed = ShiftedExponential(shift=0.5, rate=3.0, multipliers=(1.0, 0.2, 2.5))
    mult = np.asarray(speed.multipliers)
    seeds = [trial_seed(4, t) for t in range(sim._BATCH + 3)]
    batch = raw_durations(speed, 3, 5, seeds)
    assert batch.shape == (len(seeds), 3, 5)
    for j, s in enumerate(seeds):
        draw = np.random.default_rng(s).exponential(size=(3, 5))
        assert np.array_equal(batch[j], speed.shift + draw / (speed.rate * mult[:, None]))
    assert np.array_equal(raw_durations(speed, 3, 5, seeds[7:9]), batch[7:9])
    assert raw_durations(speed, 3, 5, []).shape == (0, 3, 5)


def test_speed_model_validation():
    with pytest.raises(ValueError):
        ShiftedExponential(rate=0.0)
    with pytest.raises(ValueError):
        ShiftedExponential(multipliers=(1.0, -1.0))
    with pytest.raises(ValueError):
        Deterministic(per_block=0.0)
    with pytest.raises(ValueError):
        HaltAfter(stragglers=(0,), blocks=-1)
    with pytest.raises(ValueError):
        raw_durations(HaltAfter(stragglers=(9,)), 3, 2, [0])


def test_task_weights():
    nnz = (10, 20, 30, 40, 50)
    cost = SparsityAware(nnz=nnz)
    uncoded_task = BOTTOM.workers[0][0]
    coded_task = BOTTOM.workers[0][2]
    assert task_weight(Uniform(), coded_task) == 1.0
    assert task_weight(cost, uncoded_task) == 10.0
    # support of worker 1's coded row is blocks {2, 3, 4}
    assert task_weight(cost, coded_task) == 30 + 40 + 50


# ---------------------------------------------------------------------------
# run_trial


def test_trial_equal_speeds_decode_after_one_round():
    # every worker's first block is distinct, so one round already covers
    # the whole matrix; the master never waits for the worst-case threshold
    res = trial(UNCODED, Deterministic(1.0), Uniform(), seed=0)
    assert res.decode_ok
    assert res.finish_time == 1.0
    assert res.final_state == (1, 1, 1, 1, 1)
    assert res.blocks_processed_total == 5


def test_trial_halted_consecutive_workers_break_uncoded():
    res = trial(UNCODED, HaltAfter(stragglers=(2, 3, 4), blocks=0), Uniform(), seed=0)
    assert not res.decode_ok
    assert res.finish_time == math.inf
    assert res.final_state == (3, 3, 0, 0, 0)


def test_trial_coded_top_survives_any_three_stragglers():
    for subset in combinations(range(5), 3):
        res = trial(TOP, HaltAfter(stragglers=subset, blocks=0), Uniform(), seed=0)
        assert res.decode_ok, subset


def test_trial_uncoded_survives_some_but_not_all_triples():
    outcomes = {
        trial(UNCODED, HaltAfter(stragglers=s, blocks=0), Uniform(), seed=0).decode_ok
        for s in combinations(range(5), 3)
    }
    assert outcomes == {True, False}  # resilience is exactly 2


def test_trial_partial_progress_counts():
    # stragglers halted after one block still contribute that block
    res = trial(UNCODED, HaltAfter(stragglers=(2, 3, 4), blocks=1), Uniform(), seed=0)
    assert res.decode_ok
    assert res.final_state[2:] == (1, 1, 1)


def test_trial_is_deterministic_given_seed():
    speed = ShiftedExponential()
    a = trial(BOTTOM, speed, Uniform(), seed=42)
    b = trial(BOTTOM, speed, Uniform(), seed=42)
    assert a == b


def test_trial_totals_bracketed_by_delta_and_q():
    for plan in (UNCODED, BOTTOM, TOP):
        q = oracle.brute_force_q(plan).q_true
        delta = plan.params.delta
        for seed in range(30):
            res = trial(plan, ShiftedExponential(), Uniform(), seed=seed)
            assert res.decode_ok
            assert delta <= res.blocks_processed_total <= q
            assert is_decodable(plan, res.final_state)


def test_trial_sparsity_weights_change_times():
    # block A_1 costs 100, everything else 1; the cheap workers finish all
    # their tasks early but the master still waits for the earliest copy of
    # A_1, which is worker 1's first task at t = 100
    cost = SparsityAware(nnz=(100, 1, 1, 1, 1))
    res = trial(UNCODED, Deterministic(1.0), cost, seed=0)
    assert res.decode_ok
    assert res.finish_time == 100.0
    assert res.final_state == (1, 3, 3, 2, 1)


# ---------------------------------------------------------------------------
# run_experiment


def assert_rows_match_reference(plan, speed, cost, trials, seed):
    rows, summaries = run_experiment([plan], speed, cost, trials, seed=seed)
    assert [r.trial for r in rows] == list(range(trials))
    for row in rows:
        ref = reference_trial(plan, speed, cost, trial_seed(seed, row.trial))
        assert repr(row.finish_time) == repr(ref.finish_time)
        assert row.blocks_total == ref.blocks_processed_total
        assert row.decode_ok == ref.decode_ok
    return rows, summaries


def test_experiment_single_trial_matches_run_trial():
    rows, summaries = assert_rows_match_reference(
        BOTTOM, ShiftedExponential(), Uniform(), 1, seed=5
    )
    s = summaries[0]
    assert s.mean_finish == s.median_finish == s.p95_finish == rows[0].finish_time
    assert s.failure_rate == 0.0


@pytest.mark.parametrize("trials", [1, sim._BATCH - 1, sim._BATCH, sim._BATCH + 1])
def test_experiment_rows_match_reference_across_batch_boundaries(trials):
    # a straggler and zero-cost blocks: every trial differs, and zero
    # weights make a worker's consecutive tasks complete at the same time
    speed = ShiftedExponential(multipliers=(1.0, 1.0, 1.0, 1.0, 0.2))
    cost = SparsityAware(nnz=(0, 4, 0, 2, 7))
    for plan in (TOP, UNCODED):
        assert_rows_match_reference(plan, speed, cost, trials, seed=11)


def tie_models(plan):
    """(speed, cost) pairs under which completion times tie across and
    within workers, or some tasks are never completed."""
    n, delta = plan.n, plan.params.delta
    first_free = SparsityAware(nnz=(0,) + (5,) * (delta - 1))
    return [
        (Deterministic(1.0), Uniform()),
        (Deterministic(tuple(1.0 + i % 2 for i in range(n))), Uniform()),
        (Deterministic(tuple(2.0 - i % 2 for i in range(n))), first_free),
        (HaltAfter(stragglers=(0,), blocks=0), first_free),
        (HaltAfter(stragglers=tuple(range(0, n, 2)), blocks=1, per_block=0.5), Uniform()),
        (ShiftedExponential(shift=0.0), first_free),
    ]


def test_trial_breaks_time_ties_by_worker_then_position():
    rng = np.random.default_rng(21)
    plans = [UNCODED, BOTTOM, TOP] + [random_scheme_plan(rng) for _ in range(40)]
    for plan in plans:
        for speed, cost in tie_models(plan):
            for seed in (0, 3):
                got = trial(plan, speed, cost, seed)
                ref = reference_trial(plan, speed, cost, seed)
                assert got == ref, (plan.params, speed, cost)
                assert repr(got.finish_time) == repr(ref.finish_time)


def test_experiment_pairs_draws_across_plans():
    # identical plans see identical trials; draws depend on the trial, not
    # the plan
    rows, _ = run_experiment([UNCODED, UNCODED], ShiftedExponential(), Uniform(), 20, seed=1)
    first = [r for r in rows if r.plan_id == "plan_0"]
    second = [r for r in rows if r.plan_id == "plan_1"]
    for a, b in zip(first, second):
        assert a.finish_time == b.finish_time


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_experiment_memo_is_transparent(plan_seed, seed):
    # run_experiment memoises each plan's answers and batches its trials;
    # the per-trial reference with a fresh, unmemoised checker must give
    # the same rows
    plan = random_scheme_plan(np.random.default_rng(plan_seed))
    speed = ShiftedExponential(multipliers=tuple([1.0] * (plan.n - 1) + [0.2]))
    assert_rows_match_reference(plan, speed, Uniform(), 30, seed)


def test_experiment_ordering_smoke():
    rows, summaries = run_experiment(
        [TOP, BOTTOM, UNCODED], ShiftedExponential(), Uniform(), 500, seed=9,
        plan_ids=["top", "bottom", "uncoded"],
    )
    by_id = {s.plan_id: s for s in summaries}
    assert by_id["top"].mean_finish <= by_id["bottom"].mean_finish <= by_id["uncoded"].mean_finish


def test_experiment_failure_statistics():
    speed = HaltAfter(stragglers=(2, 3, 4), blocks=0)
    _, summaries = run_experiment([UNCODED], speed, Uniform(), 5, seed=0)
    s = summaries[0]
    assert s.failure_rate == 1.0
    assert s.mean_finish == math.inf


def test_experiment_sparse_blocks_hurt_dense_mds():
    # dense rows pay the union of every block's nonzeros, the partly coded
    # plan mostly processes single cheap blocks
    nnz = tuple([3] * 5)
    cost = SparsityAware(nnz=nnz)
    _, summaries = run_experiment(
        [mds_plan(5, 3, 5), BOTTOM], ShiftedExponential(), cost, 400, seed=3,
        plan_ids=["mds", "bottom"],
    )
    by_id = {s.plan_id: s for s in summaries}
    assert by_id["mds"].mean_finish > by_id["bottom"].mean_finish


def test_experiment_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_experiment([UNCODED], ShiftedExponential(), Uniform(), 0, seed=0)


def test_rows_csv_shape():
    rows, _ = run_experiment([UNCODED], Deterministic(1.0), Uniform(), 2, seed=0)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "plan_id,trial,finish_time,blocks_total,decode_ok"
    assert len(lines) == 3
    assert lines[1].startswith("plan_0,0,1.0,5,true")


# ---------------------------------------------------------------------------
# numeric decode


def test_real_coefficient_inverts_cauchy_entries():
    from codedmv.field import inv

    for d in (1, 2, 3, 7, 19):
        assert real_coefficient(inv(d)) == 1.0 / d


def test_decode_any_three_products_small_coded_system():
    plan = cyclic_coded(3, 1, 1, Placement.CODED_BOTTOM)
    rng = np.random.default_rng(0)
    a = rng.integers(-9, 10, size=(6, 4)).astype(float)
    x = rng.integers(-9, 10, size=4).astype(float)
    expect = a @ x
    for state in [(2, 1, 0), (1, 1, 1), (2, 0, 1), (0, 2, 1), (1, 2, 0), (0, 1, 2), (2, 2, 2)]:
        got = numeric_decode(plan, a, x, state_received(plan, state))
        rel = np.linalg.norm(got - expect) / np.linalg.norm(expect)
        assert rel <= 1e-9, (state, rel)


def test_decode_copy_path_is_bitwise():
    plan = cyclic_uncoded(4, 2)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((9, 5))
    x = rng.standard_normal(5)
    got = numeric_decode(plan, a, x, state_received(plan, (2, 2, 2, 2)))
    blockwise = np.concatenate([a[r.start : r.stop] @ x for r in split_matrix(9, 4)])
    assert np.array_equal(got, blockwise)
    assert np.allclose(got, a @ x)


def test_decode_with_three_halted_workers():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((50, 20))
    x = rng.standard_normal(20)
    got = numeric_decode(BOTTOM, a, x, state_received(BOTTOM, (3, 3, 0, 0, 0)))
    expect = a @ x
    assert np.linalg.norm(got - expect) / np.linalg.norm(expect) <= 1e-9


def test_decode_refuses_undecodable_state():
    plan = cyclic_coded(3, 1, 1, Placement.CODED_BOTTOM)
    a = np.arange(12.0).reshape(6, 2)
    x = np.array([1.0, 2.0])
    with pytest.raises(NotDecodableError):
        numeric_decode(plan, a, x, state_received(plan, (2, 0, 0)))


def test_decode_rejects_out_of_range_tasks():
    with pytest.raises(ValueError):
        numeric_decode(UNCODED, np.eye(5), np.ones(5), [(0, 99)])


def test_decode_flags_inconsistent_duplicates():
    # worker 0 position 1 and worker 1 position 0 are both block A_2; their
    # transmitted products must agree bitwise
    plan = cyclic_uncoded(3, 2)
    received = [
        (0, 0, np.ones(2)),
        (0, 1, np.zeros(2)),
        (1, 0, np.full(2, 7.0)),
        (2, 0, np.ones(2)),
    ]
    with pytest.raises(ValueError):
        decode_from_products(plan, 6, received)


def test_decode_agrees_with_field_predicate():
    rng = np.random.default_rng(4)
    agree_true = agree_false = 0
    for _ in range(100):
        plan = random_scheme_plan(rng)
        delta = plan.params.delta
        rows = int(rng.integers(delta, 3 * delta + 1))
        cols = int(rng.integers(2, 8))
        a = rng.standard_normal((rows, cols))
        x = rng.standard_normal(cols)
        state = random_state(plan, rng)
        received = state_received(plan, state)
        if is_decodable(plan, state):
            got = numeric_decode(plan, a, x, received)
            expect = a @ x
            rel = np.linalg.norm(got - expect) / max(np.linalg.norm(expect), 1e-30)
            assert rel <= 1e-9
            agree_true += 1
        else:
            with pytest.raises(NotDecodableError):
                numeric_decode(plan, a, x, received)
            agree_false += 1
    assert agree_true >= 10 and agree_false >= 10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_decode_refuses_exactly_the_undecodable_subsets(seed):
    # any set of (worker, position) pairs, not only prefixes, in any order;
    # moving each worker's received tasks to the top of its list turns the
    # set into a prefix state of an equally valid checker input
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    pairs = [(i, k) for i in range(plan.n) for k in range(plan.ell)]
    keep = rng.random(len(pairs)) < rng.random()
    received = [pairs[j] for j in rng.permutation(len(pairs)) if keep[j]]
    got = {(i, k) for i, k in received}
    workers = tuple(
        tuple(t for k, t in enumerate(tasks) if (i, k) in got)
        + tuple(t for k, t in enumerate(tasks) if (i, k) not in got)
        for i, tasks in enumerate(plan.workers)
    )
    moved = core.AssignmentPlan(params=plan.params, workers=workers)
    state = tuple(sum((i, k) in got for k in range(plan.ell)) for i in range(plan.n))
    rows = int(rng.integers(plan.params.delta, 3 * plan.params.delta + 1))
    a = rng.standard_normal((rows, 3))
    x = rng.standard_normal(3)
    if is_decodable(moved, state):
        # accuracy is checked on prefix states above; dense MDS systems at
        # delta 7-8 already miss 1e-9 on some of these sets
        y = numeric_decode(plan, a, x, received)
        assert y.shape == (rows,) and np.all(np.isfinite(y))
    else:
        with pytest.raises(NotDecodableError):
            numeric_decode(plan, a, x, received)


def test_decode_refuses_ill_conditioned_system():
    # MDS (12, 2, 12) at one task per worker: twelve Cauchy rows on
    # consecutive integer nodes, exactly invertible but numerically unsafe
    plan = mds_plan(12, 2, 12)
    state = (1,) * 12
    assert is_decodable(plan, state)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((24, 4))
    x = rng.standard_normal(4)
    with pytest.raises(DecodeFailure) as info:
        numeric_decode(plan, a, x, state_received(plan, state))
    assert info.value.cond > 1e12
    assert "numerically unsafe" in str(info.value)


def test_task_products_shapes():
    plan = BOTTOM
    a = np.arange(22.0).reshape(11, 2)
    x = np.array([1.0, -1.0])
    pairs = [(i, k) for i in range(plan.n) for k in range(plan.ell)]
    prods = _block_products(plan, a, x, pairs)
    ranges = split_matrix(11, 5)
    hmax = max(len(r) for r in ranges)
    for i, tasks in enumerate(plan.workers):
        for k, t in enumerate(tasks):
            if isinstance(t, core.Uncoded):
                assert prods[(i, k)].shape == (len(ranges[t.block]),)
            else:
                assert prods[(i, k)].shape == (hmax,)
