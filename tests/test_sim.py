import math
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from codedmv import core, oracle, seeding, sim
from codedmv.core import Placement, is_decodable
from codedmv.field import pivots
from codedmv.schemes import cyclic_coded, cyclic_uncoded, mds_plan
from codedmv.sim import (
    DecodeFailure,
    Deterministic,
    HaltAfter,
    NotDecodableError,
    ShiftedExponential,
    SparsityAware,
    Uniform,
    numeric_decode,
    raw_durations,
    run_experiment,
    rows_to_csv,
    state_received,
    task_weights,
)

from support import (
    _reference_events,
    arrival_events,
    arrival_states,
    count_eliminations,
    count_evaluations,
    decode_outcome,
    perturbed,
    prefix_equations,
    random_scheme_plan,
    random_state,
    real_coefficient,
    record_rank_cases,
    reference_decodable,
    reference_decode,
    reference_rows_csv,
    reference_seed,
    reference_trial,
    relabel_blocks,
    scheme_plan_up_to,
    singular_plan,
    split_matrix,
    trial,
    trials,
    twin_plan,
    walked_trial,
    zero_column_plan,
)

UNCODED = cyclic_uncoded(5, 3)
FIG1 = cyclic_uncoded(3, 2)
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
    d = raw_durations(speed, [(3, 4)], [7])[3, 4][0]
    assert d.shape == (3, 4)
    assert (d > 1.0).all()
    # same raw exponentials underneath: halving the rate multiplier doubles
    # the stochastic part
    base = raw_durations(ShiftedExponential(1.0, 2.0, (1.0, 1.0, 1.0)), [(3, 4)], [7])[3, 4][0]
    assert np.allclose((d[1] - 1.0), (base[1] - 1.0) * 2)


def test_deterministic_per_worker():
    d = raw_durations(Deterministic(per_block=(1.0, 2.0)), [(2, 3)], [0, 1])[2, 3]
    assert d.shape == (2, 2, 3)
    assert np.array_equal(d[1], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])


def test_halt_after_marks_unreachable_tasks():
    d = raw_durations(HaltAfter(stragglers=(1,), blocks=1), [(3, 3)], [0])[3, 3][0]
    assert np.isfinite(d[0]).all()
    assert np.isfinite(d[1][0]) and np.isinf(d[1][1:]).all()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**63 + 5])
def test_exponential_stream_prefix_property(seed):
    # raw_durations draws one stream per seed, as wide as the widest plan,
    # and every plan reads a prefix of it; that equals a plan's own draw
    # only while the generator fills its output sequentially
    for width, k in [(15, 10), (15, 15), (40, 1), (120, 80), (1600, 80), (1600, 1599)]:
        wide = np.random.default_rng(seed).exponential(size=width)
        assert np.array_equal(wide[:k], np.random.default_rng(seed).exponential(size=k))


def test_raw_durations_batch_pins_the_single_seed_stream():
    # slice j of every shape is exactly the single-seed draw of seeds[j] of
    # that shape, whatever the other shapes of the batch are
    speed = ShiftedExponential(shift=0.5, rate=3.0, multipliers=(1.0, 0.2, 2.5))
    mult = np.asarray(speed.multipliers)
    seeds = seeding.trial_seeds(4, range(sim._BATCH + 3))
    shapes = [(3, 5), (3, 2), (3, 7), (3, 5)]
    batch = raw_durations(speed, shapes, seeds)
    assert sorted(batch) == [(3, 2), (3, 5), (3, 7)]
    for shape in shapes:
        assert batch[shape].shape == (len(seeds), *shape)
        for j, s in enumerate(seeds):
            draw = np.random.default_rng(s).exponential(size=shape)
            assert np.array_equal(batch[shape][j], speed.shift + draw / (speed.rate * mult[:, None]))
        alone = raw_durations(speed, [shape], seeds[7:9])[shape]
        assert np.array_equal(alone, batch[shape][7:9])
    assert raw_durations(speed, [(3, 5)], [])[3, 5].shape == (0, 3, 5)


# ---------------------------------------------------------------------------
# seeding: numpy's SeedSequence and default_rng streams, bit for bit

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**96, 2**128 - 1, 2**128, 2**200]
# one seed, partial batches on each side of 64 and of 256 seeds (the batch
# size before it was 1,024), and each side of a _BATCH boundary
PARTIAL = [63, 64, 65]
BATCH_SIZES = [1, *PARTIAL, 255, 256, 257, sim._BATCH - 1, sim._BATCH, sim._BATCH + 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_seeds_are_seed_sequence_words(seed):
    # single trials, trial indices of one to three words, and batches on
    # each side of 256, of a _BATCH boundary and of the two-word trial indices
    for t in [0, 1, 255, 256, 257, sim._BATCH - 1, sim._BATCH, sim._BATCH + 1,
              2**32 - 1, 2**32, 2**64]:
        assert seeding.trial_seeds(seed, range(t, t + 1)) == [reference_seed(seed, t)]
    for size in BATCH_SIZES:
        for lo in (0, 255, sim._BATCH - 1, 2**32 - size // 2 - 1):
            span = range(lo, lo + size)
            assert seeding.trial_seeds(seed, span) == [reference_seed(seed, t) for t in span]


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_raw_durations_rows_are_default_rng_draws(size):
    # every width of entropy, interleaved, so that each group keeps its rows
    seeds = [SEEDS[j % len(SEEDS)] + j // len(SEEDS) for j in range(size)]
    batch = raw_durations(ShiftedExponential(shift=0.0), [(7, 3), (2, 2)], seeds)
    for shape in [(7, 3), (2, 2)]:
        for row, s in zip(batch[shape], seeds, strict=True):
            assert np.array_equal(row, np.random.default_rng(s).exponential(size=shape)), s


@given(st.integers(0, 2**200), st.integers(0, 2**40), st.integers(1, sim._BATCH + 1))
@settings(max_examples=60, deadline=None)
def test_batched_seeding_matches_numpy(seed, lo, size):
    span = range(lo, lo + size)
    seeds = seeding.trial_seeds(seed, span)
    assert seeds == [reference_seed(seed, t) for t in span]
    drawn = seeds[:-1] + [seed]
    got = raw_durations(ShiftedExponential(shift=0.0), [(4, 3)], drawn)[4, 3]
    for row, s in zip(got, drawn, strict=True):
        assert np.array_equal(row, np.random.default_rng(s).exponential(size=(4, 3))), s


def test_speed_model_validation():
    invalid = [
        lambda: ShiftedExponential(rate=0.0),
        lambda: ShiftedExponential(rate=math.nan),
        lambda: ShiftedExponential(rate=math.inf),
        lambda: ShiftedExponential(shift=math.inf),
        lambda: ShiftedExponential(shift=math.nan),
        lambda: ShiftedExponential(multipliers=(1.0, -1.0)),
        lambda: ShiftedExponential(multipliers=(1.0, math.nan, 1.0)),
        lambda: ShiftedExponential(multipliers=(1.0, math.inf)),
        lambda: Deterministic(per_block=0.0),
        lambda: Deterministic(per_block=math.inf),
        lambda: Deterministic(per_block=(1.0, math.nan)),
        lambda: HaltAfter(stragglers=(0,), blocks=-1),
        lambda: HaltAfter(stragglers=(0,), per_block=math.nan),
        lambda: HaltAfter(stragglers=(0,), per_block=math.inf),
        # not integers: each would die later in numpy or halt the wrong
        # worker (True is worker 1)
        lambda: HaltAfter(stragglers=(0,), blocks=1.5),
        lambda: HaltAfter(stragglers=(0,), blocks=True),
        lambda: HaltAfter(stragglers=(0.5,)),
        lambda: HaltAfter(stragglers=(True,)),
        lambda: raw_durations(HaltAfter(stragglers=(9,)), [(3, 2)], [0]),
        lambda: raw_durations(ShiftedExponential(multipliers=(1.0, 1.0)), [(2, 2), (3, 1)], [0]),
        # a bool is not a number, a string is not one either, and an
        # integer too large for a float is refused, not overflowed
        lambda: ShiftedExponential(shift=True),
        lambda: ShiftedExponential(rate=True),
        lambda: ShiftedExponential(multipliers=(1.0, False)),
        lambda: Deterministic(per_block=True),
        lambda: Deterministic(per_block=(1.0, True)),
        lambda: HaltAfter(per_block=True),
        lambda: ShiftedExponential(shift="2"),
        lambda: Deterministic(per_block="2"),
        lambda: ShiftedExponential(shift=10**400),
        lambda: Deterministic(per_block=10**400),
        lambda: SparsityAware(nnz=(True, 2, 1)),
        lambda: SparsityAware(nnz=(1, 2.5, 1)),
        lambda: SparsityAware(nnz=(10**400, 1)),
        lambda: run_experiment([UNCODED], Deterministic(), Uniform(), True, seed=0),
        lambda: run_experiment([UNCODED], Deterministic(), Uniform(), 2, seed=True),
        lambda: run_experiment([UNCODED], Deterministic(), Uniform(), 2, seed=1.5),
        # seeds and trial indices are non-negative integers
        lambda: run_experiment([UNCODED], ShiftedExponential(), Uniform(), 2, seed=-1),
        lambda: seeding.trial_seeds(-1, range(0, 1)),
        lambda: seeding.trial_seeds(0, range(-1, 0)),
        # a range holds no 1.5, so a non-integer goes in as the seed
        lambda: seeding.trial_seeds(1.5, range(0, 1)),
        lambda: seeding.trial_seeds(-1, range(3)),
        lambda: raw_durations(ShiftedExponential(), [(2, 2)], [3, -1]),
        lambda: raw_durations(ShiftedExponential(), [(2, 2)], [3, 0.5]),
    ]
    for j, make in enumerate(invalid):
        with pytest.raises(ValueError):
            make()
            pytest.fail(f"case {j} was accepted")


@pytest.mark.parametrize("speed", [
    lambda per: Deterministic(per_block=per),
    lambda per: Deterministic(per_block=(per, 1.0, per, 3.0, 1.0)),
    lambda per: HaltAfter(stragglers=(0, 3), blocks=1, per_block=per),
], ids=["deterministic", "deterministic-per-worker", "halt-after"])
def test_integer_times_simulate_like_floats(speed):
    plans = [UNCODED, BOTTOM, TOP]
    cost = SparsityAware(nnz=(3, 1, 4, 1, 5))
    as_int = run_experiment(plans, speed(2), cost, 70, seed=3)
    as_float = run_experiment(plans, speed(2.0), cost, 70, seed=3)
    assert rows_to_csv(as_int[0]) == rows_to_csv(as_float[0])
    assert sim.summaries_to_csv(as_int[1]) == sim.summaries_to_csv(as_float[1])


def test_task_weights():
    nnz = (10, 20, 30, 40, 50)
    cost = SparsityAware(nnz=nnz)
    # worker 1's first task is uncoded A_1, its last the coded row
    assert task_weights(BOTTOM, Uniform())[0, 2] == 1.0
    assert task_weights(BOTTOM, cost)[0, 0] == 10.0
    # support of worker 1's coded row is blocks {2, 3, 4}
    assert task_weights(BOTTOM, cost)[0, 2] == 30 + 40 + 50


def test_task_weights_sum_numpy_integer_counts_exactly():
    # three int64 counts of 2**62 wrapped to a negative weight, with a
    # RuntimeWarning, although their total is a finite float
    cost = SparsityAware(nnz=(np.int64(2**62),) * 5)
    assert task_weights(BOTTOM, cost)[0, 2] == float(3 * 2**62)


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


def assert_rows_match_reference(plans, speed, cost, trials, seed):
    """One experiment over ``plans``; its plan-major rows against
    ``reference_trial``, which draws every plan's durations afresh."""
    rows, summaries = run_experiment(plans, speed, cost, trials, seed=seed)
    assert [(r.plan_id, r.trial) for r in rows] == [
        (f"plan_{p}", t) for p in range(len(plans)) for t in range(trials)
    ]
    for row in rows:
        plan = plans[int(row.plan_id.removeprefix("plan_"))]
        ref = reference_trial(plan, speed, cost, reference_seed(seed, row.trial))
        assert repr(row.finish_time) == repr(ref.finish_time)
        assert row.blocks_total == ref.blocks_processed_total
        assert row.decode_ok == ref.decode_ok
    return rows, summaries


def test_experiment_single_trial_matches_run_trial():
    rows, summaries = assert_rows_match_reference(
        [BOTTOM], ShiftedExponential(), Uniform(), 1, seed=5
    )
    s = summaries[0]
    assert s.mean_finish == s.median_finish == s.p95_finish == rows.finish[0, 0]
    assert s.failure_rate == 0.0


@pytest.mark.parametrize("trials", BATCH_SIZES)
def test_experiment_rows_match_reference_across_batch_boundaries(trials):
    # a straggler and zero-cost blocks: every trial differs, and zero
    # weights make a worker's consecutive tasks complete at the same time
    speed = ShiftedExponential(multipliers=(1.0, 1.0, 1.0, 1.0, 0.2))
    cost = SparsityAware(nnz=(0, 4, 0, 2, 7))
    for plan in (TOP, UNCODED):
        assert_rows_match_reference([plan], speed, cost, trials, seed=11)


@pytest.mark.parametrize("trials", BATCH_SIZES)
def test_experiment_shares_one_stream_across_mixed_shapes(trials):
    # the n = 5 trio and MDS (5,2,5) read 15 and 10 values of each seed's
    # stream; without multipliers, plans of different n share it too
    stragglers = ShiftedExponential(multipliers=(1.0, 0.2, 1.0, 1.0, 0.5))
    assert_rows_match_reference(
        [TOP, BOTTOM, mds_plan(5, 2, 5), UNCODED], stragglers, Uniform(), trials, seed=13
    )
    mixed_n = [cyclic_uncoded(3, 2), TOP, cyclic_coded(7, 2, 2, Placement.CODED_TOP),
               mds_plan(4, 1, 4)]
    assert_rows_match_reference(mixed_n, ShiftedExponential(shift=0.5), Uniform(), trials, seed=2)


@pytest.mark.parametrize("seed", [2**96, 2**200])
def test_experiment_rows_match_reference_at_wide_seeds(seed):
    # a seed of four or more words makes the trial entropy longer than the pool
    assert_rows_match_reference([TOP, mds_plan(5, 2, 5)], ShiftedExponential(), Uniform(),
                                sim._BATCH + 1, seed=seed)


def test_experiment_reads_one_shared_stream_per_trial(monkeypatch):
    # one raw_durations call per batch draws every plan's durations, from
    # one generator per batch; no trial builds a SeedSequence or a
    # default_rng of its own
    trials = 2 * sim._BATCH + 6
    want = [reference_seed(1, t) for t in range(trials)]
    built = {"SeedSequence": 0, "default_rng": 0, "PCG64": 0}
    for name in built:
        def counted(*args, _make=getattr(np.random, name), _name=name):
            built[_name] += 1
            return _make(*args)

        monkeypatch.setattr(sim.np.random, name, counted)
    drawn = []
    raw = sim.raw_durations

    def recorded(speed, shapes, seeds):
        drawn.append((sorted(set(shapes)), list(seeds)))
        return raw(speed, shapes, seeds)

    monkeypatch.setattr(sim, "raw_durations", recorded)
    for plans in ([TOP], [TOP, BOTTOM, UNCODED, mds_plan(5, 2, 5)],
                  [cyclic_uncoded(3, 2), cyclic_coded(7, 2, 2, Placement.CODED_TOP)]):
        drawn.clear()
        built.update(dict.fromkeys(built, 0))
        run_experiment(plans, ShiftedExponential(), Uniform(), trials, seed=1)
        shapes = sorted({(p.n, p.ell) for p in plans})
        assert [s for s, _ in drawn] == [shapes] * 3
        assert [t for _, seeds in drawn for t in seeds] == want
        assert built == {"SeedSequence": 0, "default_rng": 0, "PCG64": 3}


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


# ---------------------------------------------------------------------------
# the batched count against the walk


def assert_batch_matches_walk(plan, speed, cost, seeds):
    """Every field of each trial of one batch of ``seeds``, decided by the
    count, against ``run_trial``'s walk of the same trial."""
    assert plan.checker.count_exact, plan.params
    got = trials(plan, speed, cost, seeds)
    want = [walked_trial(plan, speed, cost, s) for s in seeds]
    assert got == want, (plan.params, speed, cost)
    assert [repr(g.finish_time) for g in got] == [repr(w.finish_time) for w in want]


@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_batched_count_matches_the_walk(seed, relabel, model):
    # every scheme family up to n = 12, as designed or relabelled, under a
    # straggling speed model or one of the tie models
    rng = np.random.default_rng(seed)
    plan = scheme_plan_up_to(12, rng)
    if relabel:
        plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    models = tie_models(plan) + [(
        ShiftedExponential(multipliers=tuple(rng.choice([1.0, 0.2, 0.05], size=plan.n))),
        Uniform(),
    )]
    speed, cost = models[model]
    assert_batch_matches_walk(plan, speed, cost, [int(v) for v in rng.integers(0, 2**63, 5)])


def test_batched_count_matches_the_walk_under_ties():
    # ties across and within workers, halted workers and zero-cost blocks
    rng = np.random.default_rng(22)
    plans = [UNCODED, BOTTOM, TOP, FIG1, mds_plan(5, 2, 5)]
    plans += [random_scheme_plan(rng) for _ in range(30)]
    for plan in plans:
        for speed, cost in tie_models(plan):
            assert_batch_matches_walk(plan, speed, cost, [0, 3, 8])


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_batched_count_matches_the_walk_at_batch_sizes(size):
    speed = ShiftedExponential(multipliers=(1.0, 1.0, 1.0, 0.2, 0.2))
    cost = SparsityAware(nnz=(0, 4, 0, 2, 7))
    seeds = seeding.trial_seeds(12, range(size))
    for plan in (UNCODED, BOTTOM, TOP, mds_plan(5, 2, 5)):
        assert_batch_matches_walk(plan, speed, cost, seeds)


def count_walks(monkeypatch):
    """Count ``sim.run_trial`` calls from now on."""
    calls = [0]
    run_trial = sim.run_trial

    def counted(*args):
        calls[0] += 1
        return run_trial(*args)

    monkeypatch.setattr(sim, "run_trial", counted)
    return calls


def test_count_exact_plans_are_never_walked(monkeypatch):
    # the n = 5 quartet and the n = 40 quartet, as designed and relabelled
    rng = np.random.default_rng(19)
    quartets = [
        ([TOP, BOTTOM, UNCODED, mds_plan(5, 2, 5)],
         ShiftedExponential(multipliers=(1.0, 1.0, 1.0, 0.2, 0.2)), SparsityAware((3, 1, 4, 1, 5))),
        ([cyclic_coded(40, 2, 1, Placement.CODED_TOP), cyclic_coded(40, 2, 1, Placement.CODED_BOTTOM),
          cyclic_uncoded(40, 3), mds_plan(40, 2, 40)],
         ShiftedExponential(multipliers=(1.0,) * 32 + (0.5,) * 8), Uniform()),
    ]
    walks = count_walks(monkeypatch)
    for plans, speed, cost in quartets:
        plans += [relabel_blocks(p, rng.permutation(p.params.delta)) for p in plans]
        assert all(p.checker.count_exact for p in plans)
        run_experiment(plans, speed, cost, sim._BATCH + 3, seed=5)
    assert walks[0] == 0


def test_plans_the_count_cannot_decide_are_walked(monkeypatch):
    # an uncertified plan, and a certified one that is not count-complete
    plans = [perturbed(TOP, np.random.default_rng(19)), zero_column_plan()]
    walks = count_walks(monkeypatch)
    for plan in plans:
        assert not plan.checker.count_exact
        walks[0] = 0
        assert_rows_match_reference([plan], ShiftedExponential(), Uniform(), sim._BATCH + 3, seed=9)
        assert walks[0] == sim._BATCH + 3


# ---------------------------------------------------------------------------
# ties at the decoding time


def assert_batch_matches_walk_and_reference(plan, speed, cost, seeds):
    """Each trial of one batch of ``seeds`` against ``run_trial``'s walk and
    the per-trial reference, finish times by ``repr``; returns the trials."""
    got = trials(plan, speed, cost, seeds)
    for g, s in zip(got, seeds, strict=True):
        walked, ref = walked_trial(plan, speed, cost, s), reference_trial(plan, speed, cost, s)
        assert g == walked == ref, (plan.params, speed, cost, s)
        assert repr(g.finish_time) == repr(walked.finish_time) == repr(ref.finish_time)
    return got


# FIG1 is cyclic-uncoded (3, 2): workers hold A1 A2, A2 A3 and A3 A1
@pytest.mark.parametrize("plan, speed, cost, want", [
    # two gains complete at the finish: MDS (5, 2, 3) decodes at the third
    # of the five coded rows done at t = 1, and the last two wait
    (mds_plan(5, 2, 3), Deterministic(1.0), Uniform(), (1.0, (1, 1, 1, 0, 0))),
    (mds_plan(5, 2, 3), HaltAfter(stragglers=(0,), blocks=0), Uniform(), (1.0, (0, 1, 1, 1, 0))),
    # a second copy of a known block completes with the decoding gain: worker
    # 1's A2 before worker 2's A3 counts, worker 3's A3 after it does not
    (FIG1, Deterministic((1.0, 1.0, 3.0)), Uniform(), (2.0, (2, 2, 0))),
    (FIG1, Deterministic((1.0, 1.0, 2.0)), Uniform(), (2.0, (2, 2, 0))),
    (UNCODED, HaltAfter(stragglers=(2, 3), blocks=0), Uniform(), (3.0, (3, 3, 0, 0, 2))),
    # zero-cost blocks finish at t = 0, in (worker, position) order
    (mds_plan(3, 1, 1), Deterministic(1.0), SparsityAware(nnz=(0,)), (0.0, (1, 0, 0))),
    (mds_plan(3, 1, 1), HaltAfter(stragglers=(0,), blocks=0), SparsityAware(nnz=(0,)),
     (0.0, (0, 1, 0))),
    (FIG1, Deterministic((2.0, 1.0, 1.0)), SparsityAware(nnz=(0, 0, 0)), (0.0, (2, 2, 0))),
    # every trial fails: the state is every task a worker completes
    (UNCODED, HaltAfter(stragglers=(2, 3, 4), blocks=0), Uniform(), (math.inf, (3, 3, 0, 0, 0))),
    (UNCODED, HaltAfter(stragglers=(2, 3, 4), blocks=0), SparsityAware(nnz=(0,) * 5),
     (math.inf, (3, 3, 0, 0, 0))),
    (TOP, HaltAfter(stragglers=(0, 1, 2, 3), blocks=0), Uniform(), (math.inf, (0, 0, 0, 0, 3))),
])
def test_ties_at_the_decoding_time(plan, speed, cost, want):
    assert plan.checker.count_exact
    for got in assert_batch_matches_walk_and_reference(plan, speed, cost, [0, 5, 2**40]):
        assert (got.finish_time, got.final_state) == want
        assert repr(got.finish_time) == repr(want[0])
        assert got.blocks_processed_total == sum(want[1])
        assert got.decode_ok == math.isfinite(want[0])


def count_sorted_rows(monkeypatch):
    """The rows of every ``np.argsort`` call from now on, one entry a call."""
    rows = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(sim.np, "argsort", counted)
    return rows


def tied_at_finish(plan, speed, cost, seed, finish):
    """Whether more than one of a trial's tasks completes at its finite
    ``finish``, by the per-trial reference's events."""
    return math.isfinite(finish) and sum(
        t == finish for t, _, _ in _reference_events(plan, speed, cost, seed)) > 1


def test_count_exact_batches_sort_only_the_trials_tied_at_the_finish(monkeypatch):
    sorted_rows = count_sorted_rows(monkeypatch)
    seeds = seeding.trial_seeds(7, range(300))
    plans = [UNCODED, BOTTOM, TOP, mds_plan(5, 2, 5)]
    for plan in plans:
        trials(plan, ShiftedExponential(multipliers=(1.0, 1.0, 1.0, 0.2, 0.2)), Uniform(), seeds)
    assert sorted_rows == []
    # every deterministic trial ties at t = 1 on these plans; with zero-cost
    # A1 and no shift, a worker's A1 ties with the task before it, sometimes
    # at the finish
    free = SparsityAware(nnz=(0, 5, 5, 5, 5))
    cases = [(plan, Deterministic(1.0), Uniform()) for plan in plans]
    cases += [(plan, ShiftedExponential(shift=0.0), free) for plan in (UNCODED, BOTTOM)]
    for plan, speed, cost in cases:
        sorted_rows.clear()
        got = trials(plan, speed, cost, seeds)
        tied = sum(tied_at_finish(plan, speed, cost, s, g.finish_time) for s, g in zip(seeds, got))
        if isinstance(speed, Deterministic):
            assert tied == len(seeds)
        else:
            assert 0 < tied < len(seeds), plan.params
        assert sorted_rows == [tied], (plan.params, speed)


N40 = [cyclic_coded(40, 2, 1, Placement.CODED_TOP), cyclic_coded(40, 2, 1, Placement.CODED_BOTTOM),
       cyclic_uncoded(40, 3), mds_plan(40, 2, 40)]


@pytest.mark.parametrize("size", [1, 150, sim._BATCH + 1])
def test_batched_count_matches_the_walk_at_n40(size):
    # the simulate-n40 families under 8 stragglers at 0.2, and with those 8
    # halted, where every trial ties: the other workers complete alike, and
    # the coded plans decode part way through one of their rounds
    seeds = seeding.trial_seeds(40, range(size))
    for speed in (ShiftedExponential(multipliers=(1.0,) * 32 + (0.2,) * 8),
                  HaltAfter(stragglers=tuple(range(32, 40)), blocks=0)):
        for plan in N40:
            assert_batch_matches_walk(plan, speed, Uniform(), seeds)


# ---------------------------------------------------------------------------
# the incremental walk


def assert_walk_stops_at_first_decodable_prefix(plan, events):
    """``run_trial``'s place over ``events`` against the last event of the
    first prefix that ``reference_decodable`` accepts, or ``len(events)``
    when none does."""
    got = sim.run_trial(core.DecodabilityChecker(plan), events)
    state = [0] * plan.n
    for j, e in enumerate(events):
        i, k = divmod(e, plan.ell)
        state[i] = k + 1
        if reference_decodable(plan.params.delta, *prefix_equations(plan, state)):
            assert got == j, plan.params
            return
    assert got == len(events), plan.params


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_walk_stops_at_the_first_decodable_prefix(seed, relabel, halt):
    # every scheme family up to n = 12, as designed or relabelled; a halted
    # walk (a random prefix of the arrivals) may never decode
    rng = np.random.default_rng(seed)
    plan = scheme_plan_up_to(12, rng)
    if relabel:
        plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    events = arrival_events(plan, rng)
    if halt:
        events = events[: int(rng.integers(0, len(events) + 1))]
    assert_walk_stops_at_first_decodable_prefix(plan, events)


def test_walk_at_n40_matches_reference():
    rng = np.random.default_rng(40)
    for placement in (Placement.CODED_TOP, Placement.CODED_BOTTOM):
        plan = cyclic_coded(40, 2, 1, placement)
        assert_walk_stops_at_first_decodable_prefix(plan, arrival_events(plan, rng))
        plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
        assert_walk_stops_at_first_decodable_prefix(plan, arrival_events(plan, rng))


def test_walk_falls_back_to_rank_where_counting_cannot_decide(monkeypatch):
    # uncertified plans, and a certified one whose received rows miss an
    # unknown block, reach the rank case of the checker's rule
    rng = np.random.default_rng(8)
    plans = [singular_plan(), twin_plan("row"), twin_plan("column"), zero_column_plan()]
    plans += [perturbed(TOP, rng) for _ in range(5)]
    ranked = record_rank_cases(monkeypatch)
    for plan in plans:
        ranked.clear()
        for _ in range(30):
            events = arrival_events(plan, rng)
            assert_walk_stops_at_first_decodable_prefix(plan, events)
            cut = int(rng.integers(0, len(events) + 1))
            assert_walk_stops_at_first_decodable_prefix(plan, events[:cut])
        assert ranked, plan.params


def test_simulate_n40_plans_never_ask_the_checker(monkeypatch):
    # certified plans decide every event by the count: O(1) per event
    plans = [cyclic_coded(40, 2, 1, Placement.CODED_TOP),
             cyclic_coded(40, 2, 1, Placement.CODED_BOTTOM),
             cyclic_uncoded(40, 3), mds_plan(40, 2, 40)]
    speed = ShiftedExponential(multipliers=(1.0,) * 32 + (0.2,) * 8)
    calls = count_evaluations(monkeypatch)
    ranked = record_rank_cases(monkeypatch)
    rows, _ = run_experiment(plans, speed, Uniform(), 5, seed=3)
    assert all(r.decode_ok for r in rows)
    assert calls[0] == 0 and not ranked


def test_uncertified_plan_asks_the_checker(monkeypatch):
    plan = perturbed(TOP, np.random.default_rng(4))
    assert not core.DecodabilityChecker(plan).certified
    ranked = record_rank_cases(monkeypatch)
    assert_rows_match_reference([plan], ShiftedExponential(), Uniform(), 20, seed=6)
    assert ranked


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
def test_experiment_matches_reference_on_random_plans(plan_seed, seed):
    # run_experiment batches its trials and walks each one incrementally;
    # the per-trial reference, which ranks every state afresh, must give
    # the same rows
    plan = random_scheme_plan(np.random.default_rng(plan_seed))
    speed = ShiftedExponential(multipliers=tuple([1.0] * (plan.n - 1) + [0.2]))
    assert_rows_match_reference([plan], speed, Uniform(), 30, seed)


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
    assert (s.mean_finish, s.median_finish, s.p95_finish) == (math.inf,) * 3


@st.composite
def finish_columns(draw):
    """Finish times and decode_ok flags of one plan's trials, at least one
    ok: up to three batches, some values from a small pool (ties), the
    others spread over many orders of magnitude."""
    size = draw(st.integers(1, 3 * sim._BATCH))
    pool = draw(st.lists(st.floats(0.5, 50.0), min_size=1, max_size=4))
    tied, ok_share = draw(st.floats(0, 1)), draw(st.floats(0.05, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finish = np.where(rng.random(size) < tied, rng.choice(pool, size), rng.lognormal(0, 6, size))
    ok = rng.random(size) < ok_share
    ok[rng.integers(size)] = True
    return finish, ok


def _tied(m):
    """m finish times, all ok: ties in pairs, then values far enough apart
    that the two branches of the linear rule round p95 differently."""
    times = [0.1, 0.1, 0.7, 0.7, 1.3, 1.3, 2.9, 2.9, 3.3, 4.1, 123456789.123, 987654321.5]
    return np.array(times[:m]), np.ones(m, dtype=bool)


# the fraction g of p95's index (m - 1) * 0.95 is 0.55 at m = 10, 0.5 at
# m = 11 and 0.45 at m = 12: numpy's linear rule takes both branches
@given(finish_columns())
@example(_tied(10)).via("g > 0.5")
@example(_tied(11)).via("g = 0.5")
@example(_tied(12)).via("g < 0.5")
@settings(max_examples=100, deadline=None)
def test_summaries_match_numpy_bit_for_bit(columns):
    # the median and p95 are read off one sort, not by np.median and
    # np.percentile, which import numpy.ma on first use
    finish, ok = columns
    starts = iter(range(0, finish.size, sim._BATCH))

    def replay(checker, weights, dur):
        lo = next(starts)
        cut = slice(lo, lo + len(dur))
        return np.where(ok[cut], finish[cut], np.inf), np.zeros(len(dur), int), ok[cut], None

    with mock.patch.object(sim, "_trials", replay):
        _, (s,) = run_experiment([UNCODED], Deterministic(), Uniform(), finish.size, seed=0)
    done = finish[ok]
    got = [s.mean_finish, s.median_finish, s.p95_finish]
    want = [np.mean(done), np.median(done), np.percentile(done, 95)]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    assert s.failure_rate == (finish.size - done.size) / finish.size


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


@pytest.mark.parametrize("trials", [63, 65, 255, 257, sim._BATCH - 1, sim._BATCH + 1])
def test_rows_csv_writes_the_row_view(trials):
    # failed halt-after trials (inf, false), deterministic ties with
    # zero-cost blocks, and an uncertified plan that is walked
    cases = [
        ([UNCODED, TOP], HaltAfter(stragglers=(2, 3, 4), blocks=0), Uniform()),
        ([UNCODED, BOTTOM, TOP], Deterministic((1.0, 2.0, 1.0, 2.0, 1.0)),
         SparsityAware(nnz=(0, 4, 0, 2, 7))),
        ([perturbed(TOP, np.random.default_rng(4)), TOP], ShiftedExponential(), Uniform()),
    ]
    texts = []
    for plans, speed, cost in cases:
        rows, _ = run_experiment(plans, speed, cost, trials, seed=2)
        listed = list(rows)
        texts.append(rows_to_csv(rows))
        assert texts[-1] == reference_rows_csv(listed)
        assert [(r.plan_id, r.trial) for r in listed] == [
            (f"plan_{p}", t) for p in range(len(plans)) for t in range(trials)
        ]
        assert [(r.finish_time, r.blocks_total, r.decode_ok) for r in listed] == list(zip(
            rows.finish.ravel().tolist(), rows.blocks.ravel().tolist(), rows.ok.ravel().tolist()))
        assert {type(v) for r in listed for v in (r.finish_time, r.blocks_total, r.decode_ok)} \
            == {float, int, bool}
    # uncoded fails every halted trial, in its final state (3, 3, 0, 0, 0)
    assert "\nplan_0,0,inf,6,false\n" in texts[0]


_FINISH = st.one_of(
    st.sampled_from([5e-324, 1e-5, 0.1 + 0.2, 1e16, 1e22, math.inf]),
    st.floats(min_value=0, allow_infinity=False),
)


@st.composite
def trial_columns(draw):
    """Trials of 1-4 plans with distinct ids the CSV writers allow, and of
    1-300 trials each; a trial is ok exactly when it finishes."""
    plans, trials = draw(st.integers(1, 4)), draw(st.integers(1, 300))
    ids = draw(st.lists(st.text(st.characters(exclude_characters=',"\r\n'), max_size=6),
                        min_size=plans, max_size=plans, unique=True))
    finish = draw(arrays(np.float64, (plans, trials), elements=_FINISH))
    blocks = draw(arrays(np.intp, (plans, trials), elements=st.integers(0, 200)))
    return sim.Trials(tuple(ids), finish, blocks, np.isfinite(finish))


@given(trial_columns())
@settings(max_examples=150, deadline=None)
def test_rows_csv_writes_drawn_columns_as_the_reference(rows):
    assert rows_to_csv(rows) == reference_rows_csv(list(rows))


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


def test_decode_keeps_the_bits_of_every_block_product():
    # every block received uncoded, so the decode returns its block
    # products as it computed them: each must be A_b @ x on the block's
    # own rows, in C order, Fortran order and strided. One whole-matrix
    # A @ x is not: gemv groups rows across the block boundaries
    rng = np.random.default_rng(12)
    for delta in range(1, 41):
        plan = cyclic_uncoded(delta, 1)
        received = state_received(plan, (1,) * delta)
        for rows in sorted({delta, delta + 1, int(rng.integers(delta, 201)), 200}):
            ranges = split_matrix(rows, delta)
            for cols in (1, 3, 48, 100):
                strided = rng.standard_normal((rows, 2 * cols))[:, ::2]
                x = rng.standard_normal(cols)
                for layout in (np.ascontiguousarray(strided), np.asfortranarray(strided), strided):
                    blockwise = np.concatenate([layout[r.start : r.stop] @ x for r in ranges])
                    got = numeric_decode(plan, layout, x, received)
                    assert got.tobytes() == blockwise.tobytes(), (delta, rows, cols)


def test_decode_needs_a_row_per_block():
    assert decode_outcome(numeric_decode, UNCODED, np.ones((4, 2)), np.ones(2), []) == (
        ValueError, "need rows >= delta, got 4 < 5")


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


def test_state_received_checks_the_state():
    # a negative count is refused, never read as 0
    assert state_received(FIG1, (np.int64(1), 0, 2)) == [(0, 0), (2, 0), (2, 1)]
    for state in [(-1, 2, 2), (3, 0, 0), (1.5, 0, 0), (True, 0, 0), (1, 1)]:
        with pytest.raises(ValueError):
            state_received(FIG1, state)
            pytest.fail(f"state {state} was accepted")


def test_decode_rejects_out_of_range_tasks():
    with pytest.raises(ValueError):
        numeric_decode(UNCODED, np.eye(5), np.ones(5), [(0, 99)])


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


@pytest.mark.parametrize("singular", [[1.0, 0.0], [0.0, 0.0]], ids=["zero", "all-zero"])
def test_decode_reads_a_zero_singular_value_as_an_infinite_condition(singular):
    # 1 / 0 and 0 / 0 must not warn, which the test settings would turn
    # into an error; as in np.linalg.cond, the nan of 0 / 0 reads as inf
    plan = mds_plan(2, 1, 2)
    a = np.arange(8.0).reshape(4, 2)
    with mock.patch.object(np.linalg, "svd", return_value=np.array(singular)):
        got = decode_outcome(numeric_decode, plan, a, np.ones(2), [(0, 0), (1, 0)])
    assert got == (DecodeFailure, "selected system is numerically unsafe (condition estimate inf)")


# ---------------------------------------------------------------------------
# row choice and bit-identity of the table-driven decode


def received_rows(plan, received):
    """(rows, unknown) as ``numeric_decode`` sees a received pair
    list: the distinct coded tasks' table rows in arrival order and the
    blocks no received uncoded task holds."""
    known, rows = set(), []
    for i, k in received:
        t = plan.workers[i][k]
        if isinstance(t, core.Uncoded):
            known.add(t.block)
        elif i * plan.ell + k not in rows:
            rows.append(i * plan.ell + k)
    return rows, [b for b in range(plan.params.delta) if b not in known]


def pivot_rows(plan, rows, unknown):
    """The rows ``field.pivots`` picks, from the plan's coefficient maps."""
    maps = [dict(plan.workers[j // plan.ell][j % plan.ell].coeffs) for j in rows]
    field = np.array([[cm.get(b, 0) for b in unknown] for cm in maps], dtype=np.int64)
    return pivots(field.reshape(len(rows), len(unknown)).T)


def random_pairs(plan, rng):
    """Random (worker, position) pairs in random order, repeats included,
    so the received set is rarely a prefix state."""
    size = int(rng.integers(0, 2 * plan.n * plan.ell + 1))
    return [(int(rng.integers(0, plan.n)), int(rng.integers(0, plan.ell))) for _ in range(size)]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_row_choice_equals_pivots_on_scheme_plans(seed):
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    if rng.random() < 0.5:
        plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    rows, unknown = received_rows(plan, random_pairs(plan, rng))
    assert plan.checker.solving_rows(rows, unknown) == pivot_rows(plan, rows, unknown)


@pytest.mark.parametrize("make", [
    zero_column_plan, singular_plan, lambda: twin_plan("row"), lambda: twin_plan("column"),
], ids=["zero-column", "singular", "row-twin", "column-twin"])
def test_row_choice_equals_pivots_where_the_certificate_cannot_pick(make, monkeypatch):
    # the zero-column plan is certified but not count-complete: a received
    # coded row can miss an unknown block; the others are not certified.
    # Every ordered received set of up to four of the plan's tasks
    plan = make()
    calls = count_eliminations(monkeypatch)
    pairs = [(i, k) for i in range(plan.n) for k in range(plan.ell)]
    for size in range(5):
        for picked in combinations(pairs, size):
            for received in (picked, picked[::-1]):
                rows, unknown = received_rows(plan, received)
                got = plan.checker.solving_rows(rows, unknown)
                assert got == pivot_rows(plan, rows, unknown)
    assert calls[0] > 0


def test_decode_of_scheme_prefix_states_runs_no_elimination(monkeypatch):
    # on a certified, count-complete plan every received coded row holds
    # every unknown block, so a decodable prefix state never eliminates
    calls = count_eliminations(monkeypatch)
    rng = np.random.default_rng(8)
    solved = 0
    for _ in range(60):
        plan = random_scheme_plan(rng)
        state = random_state(plan, rng)
        if not is_decodable(plan, state):
            continue
        delta = plan.params.delta
        a = rng.standard_normal((2 * delta + 1, 3))
        x = rng.standard_normal(3)
        received = state_received(plan, state)
        solved += bool(received_rows(plan, received)[1])
        assert decode_outcome(numeric_decode, plan, a, x, received) == decode_outcome(
            reference_decode, plan, a, x, received)
    assert calls[0] == 0 and solved >= 10


def assert_decodes_like_reference(plan, a, x, received):
    got = decode_outcome(numeric_decode, plan, a, x, received)
    assert got == decode_outcome(reference_decode, plan, a, x, received)
    return got


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_decode_is_bit_identical_to_the_per_coefficient_reference(seed):
    # bytes of the result, or type and text of the exception; the row
    # count need not be a multiple of delta, so short blocks are padded
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    if rng.random() < 0.5:
        plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    delta = plan.params.delta
    a = rng.standard_normal((int(rng.integers(delta, 3 * delta + 2)), int(rng.integers(1, 6))))
    x = rng.standard_normal(a.shape[1])
    received = (state_received(plan, random_state(plan, rng)) if rng.random() < 0.5
                else random_pairs(plan, rng))
    assert_decodes_like_reference(plan, a, x, received)


@pytest.mark.parametrize("n, outcomes", [
    (12, {DecodeFailure, NotDecodableError}),
    (8, {bytes, DecodeFailure, NotDecodableError}),
])
def test_decode_is_bit_identical_on_mds_refusals_and_short_blocks(n, outcomes):
    # MDS (12, 2, 12) refuses its decodable states as ill-conditioned,
    # (8, 2, 8) solves most; n rows give one row per block, which
    # np.add.reduce would sum pairwise, and 2n + 5 rows leave blocks a row
    # short of the tallest
    plan = mds_plan(n, 2, n)
    rng = np.random.default_rng(9)
    seen = set()
    for rows in (n, 2 * n + 5):
        a = rng.standard_normal((rows, 3))
        x = rng.standard_normal(3)
        for _ in range(40):
            got = assert_decodes_like_reference(
                plan, a, x, state_received(plan, random_state(plan, rng)))
            seen.add(got[0] if isinstance(got, tuple) else bytes)
    assert seen == outcomes


@pytest.mark.parametrize("n", [5, 8, 10, 12])
def test_decode_is_bit_identical_on_a_96_by_48_matrix(n):
    # 96 rows leave rows % delta = 1, 0, 6 and 0 at delta = n = 5, 8, 10
    # and 12, so blocks are padded, unpadded, padded and unpadded; 5 n rows
    # leave unpadded blocks of 5, a height at which one gemv over all of A
    # would change their bits. Every other state of one arrival walk, its
    # pairs in prefix order, reversed and with every other pair repeated,
    # against the reference
    rng = np.random.default_rng(n)
    x = rng.standard_normal(48)
    matrices = [rng.standard_normal((rows, 48)) for rows in (96, 5 * n)]
    for plan in (cyclic_coded(n, 2, 1, Placement.CODED_TOP),
                 cyclic_coded(n, 2, 1, Placement.CODED_BOTTOM), mds_plan(n, 2, n)):
        seen = set()
        for state in list(arrival_states(plan, rng))[::2]:
            received = state_received(plan, state)
            for a, pairs in product(matrices, (received, received[::-1], received + received[::2])):
                got = assert_decodes_like_reference(plan, a, x, pairs)
                seen.add(got[0] if isinstance(got, tuple) else bytes)
        # MDS at n = 10 and 12 refuses every decodable state as ill-conditioned
        refused = plan.params.placement is Placement.FULLY_CODED and n >= 10
        assert seen >= {NotDecodableError, DecodeFailure if refused else bytes}
    # MDS (12, 2, 12) refuses the 12 x 12 Cauchy system of its first row
    if n == 12:
        got = assert_decodes_like_reference(plan, matrices[0], x, state_received(plan, (1,) * 12))
        assert got[0] is DecodeFailure and got[1].startswith("selected system is numerically unsafe")


def test_decode_is_bit_identical_with_non_finite_products():
    # block A_2 (rows 3-4 of 11) has an infinite or a nan product; even
    # where workers 1 and 2 deliver it uncoded and no received coded row
    # holds it, the decode refuses it rather than return it
    plan = BOTTOM
    rng = np.random.default_rng(10)
    a = rng.standard_normal((11, 3))
    x = rng.standard_normal(3)
    for bad in (np.inf, np.nan):
        a[3, 0] = bad
        for state in ((3, 3, 0, 0, 0), (3, 3, 1, 0, 0), (3, 3, 0, 0, 1), (3, 3, 2, 2, 2)):
            got = assert_decodes_like_reference(plan, a, x, state_received(plan, state))
            assert got == (ValueError, "non-finite block products: A_2")


def test_decode_refuses_a_nan_product_without_a_warning():
    # inf * 0 inside A_1 x forms nan, which numpy warns about and the
    # test settings turn into an error; the decode names the block instead
    a = np.ones((11, 3))
    a[0, 0] = np.inf
    x = np.array([0.0, 1.0, 1.0])
    got = decode_outcome(numeric_decode, BOTTOM, a, x, state_received(BOTTOM, (3,) * 5))
    assert got == (ValueError, "non-finite block products: A_1")


def test_decode_refuses_right_hand_sides_and_solutions_that_overflow():
    # every block product is finite. Coded-top (5, 2, 1) at 3,2,0,3,0
    # solves A_3 from worker 4's coded row, whose right-hand side
    # overflows: it was returned as -inf. With every block at 1.5e308 the
    # coded vectors overflow. On MDS (3, 1, 3) the right-hand sides are
    # finite but the solved A_1 and A_2 overflow, and came back as inf
    big = np.finfo(float).max
    cases = [
        (TOP, [[9e307], [-3e307], [-1.6e308], [9e307], [-1.6e308]], [1.0], (3, 2, 0, 3, 0),
         "solving for A_3 overflows: a right-hand side is not finite"),
        (TOP, np.full((5, 1), 1e308), [1.5], (1,) * 5,
         "solving for A_1, A_2, A_3, A_4, A_5 overflows: a right-hand side is not finite"),
        (mds_plan(3, 1, 3), [[-big * (1 - 2e-9)], [-big], [big * (1 - 3e-9)]], [1.0], (1,) * 3,
         "solving for A_1, A_2, A_3 overflows: the solution is not finite"),
    ]
    for plan, a, x, state, message in cases:
        received = state_received(plan, state)
        assert decode_outcome(numeric_decode, plan, a, x, received) == (ValueError, message)


def test_decode_checks_the_vector():
    # one entry per matrix column, 1-D: a mismatch used to surface as
    # numpy's matmul text, and an (m, 1) column decoded only when every
    # block had one row
    a = np.ones((6, 2))
    received = state_received(FIG1, (2, 2, 2))
    for x in (np.ones(3), np.ones(1), np.ones((2, 1)), np.ones((1, 2)), np.float64(1.0)):
        assert decode_outcome(numeric_decode, FIG1, a, x, received) == (
            ValueError, "vector must be 1-D with one entry per matrix column: "
                        f"got shape {np.shape(x)}, expected (2,)")
    assert decode_outcome(numeric_decode, FIG1, np.ones((3, 1)), np.ones((1, 1)), [(0, 0)]) == (
        ValueError, "vector must be 1-D with one entry per matrix column: "
                    "got shape (1, 1), expected (1,)")


def test_decode_is_bit_identical_on_signed_zeros():
    # matrices and vectors holding -0.0, whose block products may be -0.0:
    # every prefix state of coded-bottom (5, 2, 1), with entries drawn from
    # -0.0, 0.0 and one random value
    plan = BOTTOM
    rng = np.random.default_rng(11)
    for state in product(range(plan.ell + 1), repeat=plan.n):
        a = rng.choice([-0.0, 0.0, rng.standard_normal()], size=(11, 2))
        x = rng.choice([-0.0, 0.0, 1.0], size=2)
        assert_decodes_like_reference(plan, a, x, state_received(plan, state))
