import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codedmv import bounds, core, oracle
from codedmv.core import AssignmentPlan, Placement, Uncoded, is_decodable
from codedmv.oracle import (
    BudgetExceededError,
    OracleReport,
    brute_force_q,
    straggler_resilience,
    uncoded_q_fast,
    analyze,
)
from codedmv.schemes import cauchy, cyclic_coded, cyclic_uncoded, mds_plan
from codedmv.sim import ShiftedExponential, Uniform, run_experiment

from support import (
    cauchy_task,
    count_evaluations,
    hand_plan,
    min_uncoded_coverage,
    perturbed,
    random_scheme_plan,
    random_uncoded_plan,
    rank_decodable,
    record_rank_cases,
    reference_q,
    relabel_blocks,
    scheme_plan_up_to,
    shrunk_supports,
    singular_plan,
    twin_plan,
    zero_column_plan,
)


# ---------------------------------------------------------------------------
# brute_force_q


def test_threshold_cyclic_5_3():
    rep = brute_force_q(cyclic_uncoded(5, 3))
    assert rep.q_true == 10
    assert sum(rep.worst_state) == 9
    assert sorted(rep.worst_state) == [0, 1, 2, 3, 3]
    assert not is_decodable(cyclic_uncoded(5, 3), rep.worst_state)


def test_threshold_three_worker_uncoded():
    assert brute_force_q(cyclic_uncoded(3, 2)).q_true == 4


def test_threshold_three_worker_coded():
    plan = cyclic_coded(3, 1, 1, Placement.CODED_BOTTOM)
    assert brute_force_q(plan).q_true == 3


def test_threshold_certificate_spot_check():
    plan = cyclic_coded(5, 2, 1, Placement.CODED_TOP)
    rep = brute_force_q(plan)
    rng = np.random.default_rng(0)
    n, ell = plan.n, plan.ell
    hits = 0
    while hits < 1000:
        state = tuple(int(v) for v in rng.integers(0, ell + 1, size=n))
        if sum(state) == rep.q_true:
            hits += 1
            assert is_decodable(plan, state)


def test_threshold_budget_refusal():
    # the budget counts evaluations made; the search stops mid-way and
    # reports how far it got, with a lower bound on Q that still holds
    plan = cyclic_uncoded(5, 3)
    with pytest.raises(BudgetExceededError) as err:
        brute_force_q(plan, budget=100)
    assert err.value.budget == 100
    assert err.value.evaluations == 100
    assert "budget of 100" in str(err.value)
    q_lower = int(re.search(r"Q >= (\d+)", str(err.value)).group(1))
    assert 1 <= q_lower <= 10


def assert_evaluations(plan, used):
    """The threshold search makes exactly ``used`` evaluations: a budget of
    ``used`` lets it finish, and one less stops it after ``used - 1``."""
    rep = brute_force_q(plan)
    assert brute_force_q(plan, budget=used) == rep
    with pytest.raises(BudgetExceededError) as err:
        brute_force_q(plan, budget=used - 1)
    assert err.value.evaluations == used - 1
    return rep


def test_threshold_budget_counts_exact_work():
    # the counts the search made when it called the checker's full
    # decodability test on every state, pinned so that deciding a state
    # from its parent's summary neither skips nor adds an evaluation
    assert_evaluations(cyclic_coded(5, 2, 1, Placement.CODED_TOP), 187)
    assert_evaluations(cyclic_coded(7, 2, 2, Placement.CODED_TOP), 2_865)
    assert_evaluations(cyclic_coded(10, 2, 1, Placement.CODED_BOTTOM), 44_292)


def test_resilience_budget_counts_exact_work(monkeypatch):
    plan = cyclic_coded(6, 2, 1, Placement.CODED_TOP)
    calls = count_evaluations(monkeypatch)
    rep = straggler_resilience(plan)
    used = calls[0]
    assert straggler_resilience(plan, budget=used) == rep
    with pytest.raises(BudgetExceededError) as err:
        straggler_resilience(plan, budget=used - 1)
    assert err.value.evaluations == used - 1
    assert f"resilience >= {rep.resilience_true};" in str(err.value)


def test_threshold_certifies_beyond_lattice_budget():
    # the lattice has 5**7 = 78,125 states; the search makes 2,865 evaluations
    plan = cyclic_coded(7, 2, 2, Placement.CODED_TOP)
    rep = brute_force_q(plan, budget=10_000)
    assert rep.q_true == 8
    assert rep.worst_state == (4, 3, 0, 0, 0, 0, 0)


def test_threshold_pruning_bound_keeps_high_q_search_small():
    # 9,892 evaluations with the bound, 2,852,580 without it
    assert assert_evaluations(cyclic_uncoded(11, 3), 9_892).q_true == 28


def test_threshold_search_follows_paths_past_the_recursion_limit():
    # the first dive of the search reaches total 1194 of n*ell = 1200
    with pytest.raises(BudgetExceededError) as err:
        brute_force_q(cyclic_uncoded(400, 3), budget=1500)
    assert "Q >= 1195" in str(err.value)


def test_threshold_coded_top_8_3_1():
    plan = cyclic_coded(8, 3, 1, Placement.CODED_TOP)
    rep = analyze(plan)
    assert rep.q_true == 12
    assert rep.worst_state == (4, 4, 3, 0, 0, 0, 0, 0)
    assert rep.resilience_true == 5


def test_threshold_coded_top_9_2_2():
    # pinned from the checker that ranked every query (4.3 s on this plan);
    # the count must give the same Q, witness and resilience
    rep = analyze(cyclic_coded(9, 2, 2, Placement.CODED_TOP))
    assert rep.q_true == 10
    assert rep.worst_state == (4, 4, 1, 0, 0, 0, 0, 0, 0)
    assert rep.resilience_true == 6
    assert rep.worst_straggler_set == (0, 1, 2, 3, 4, 5, 6)


def test_threshold_matches_reference_scan_random():
    # same Q and the same worst state, lexicographic tie-break included
    rng = np.random.default_rng(7)
    plans = [random_scheme_plan(rng) for _ in range(40)]
    for _ in range(60):
        n = int(rng.integers(2, 7))
        ell = int(rng.integers(1, min(n, 3) + 1))
        plans.append(random_uncoded_plan(n, ell, rng))
    for plan in plans:
        assert brute_force_q(plan) == reference_q(plan), plan.params


def scannable_plan(rng, make, lattice=2_200):
    """``make(rng)`` redrawn until its lattice has at most ``lattice``
    states, few enough for the reference scan to rank."""
    while True:
        plan = make(rng)
        if (plan.ell + 1) ** plan.n <= lattice:
            return plan


def coded_top_up_to(n_max, rng):
    n = int(rng.integers(3, n_max + 1))
    r_u = int(rng.integers(1, min(n - 1, 3) + 1))
    ell_c = int(rng.integers(1, min(n - r_u, 2) + 1))
    return cyclic_coded(n, r_u, ell_c, Placement.CODED_TOP)


def assert_matches_rank_only_scan(plan):
    if rank_decodable(plan)(tuple([plan.ell] * plan.n)):
        assert brute_force_q(plan) == reference_q(plan), plan.params
    else:
        with pytest.raises(ValueError, match="cannot decode even with every task"):
            brute_force_q(plan)


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["designed", "relabelled", "perturbed", "shrunk"]))
@settings(max_examples=60, deadline=None)
def test_threshold_matches_rank_only_scan_up_to_n10(seed, variant):
    # the search decides most states from its parent's summary and the
    # count; the reference ranks every state it scans, with no certificate.
    # "perturbed" plans lose the certificate and "shrunk" ones stay
    # certified but need not be count-complete, so both reach the fallback
    rng = np.random.default_rng(seed)
    if variant == "perturbed":
        plan = perturbed(scannable_plan(rng, lambda r: coded_top_up_to(10, r)), rng)
    else:
        plan = scannable_plan(rng, lambda r: scheme_plan_up_to(10, r))
    if variant != "designed":
        plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    if variant == "shrunk":
        plan = shrunk_supports(plan, 0.3, rng)
    assert_matches_rank_only_scan(plan)


def record_decodable(monkeypatch):
    """The states passed to ``DecodabilityChecker.decodable`` from now on."""
    states = []
    decodable = core.DecodabilityChecker.decodable

    def recorded(self, state):
        states.append(state)
        return decodable(self, state)

    monkeypatch.setattr(core.DecodabilityChecker, "decodable", recorded)
    return states


@pytest.mark.parametrize("make", [
    singular_plan, lambda: twin_plan("row"), lambda: twin_plan("column"), zero_column_plan,
], ids=["singular", "twin-row", "twin-column", "zero-column"])
def test_threshold_matches_rank_only_scan_on_hand_plans(make):
    # the column twins have rank 1 even when every task is processed
    assert_matches_rank_only_scan(make())


@pytest.mark.parametrize("make", [
    singular_plan, lambda: twin_plan("row"), zero_column_plan,
    lambda: perturbed(cyclic_coded(5, 2, 1, Placement.CODED_TOP), np.random.default_rng(3)),
], ids=["singular", "twin-row", "zero-column", "perturbed"])
def test_threshold_falls_back_to_decodable_where_the_count_cannot_decide(monkeypatch, make):
    # the checker's rule takes the rank case for states the count leaves
    # open: some besides the fully processed one, which goes to decodable
    plan = make()
    checker = core.DecodabilityChecker(plan)
    assert not (checker.certified and checker.count_complete)
    states = record_decodable(monkeypatch)
    ranked = record_rank_cases(monkeypatch)
    rep = brute_force_q(plan)
    full = tuple([plan.ell] * plan.n)
    assert states == [full]
    assert any(state != full for _, state in ranked)
    for mask, state in ranked:
        coded = sum(checker.prefix[i][w][1] for i, w in enumerate(state))
        assert 0 < plan.params.delta - mask.bit_count() <= coded, state
    assert rep == reference_q(plan)


def test_threshold_on_scheme_plans_calls_decodable_only_for_the_full_state(monkeypatch):
    # certified, count-complete plans: the count decides every state the
    # search visits, designed or relabelled
    rng = np.random.default_rng(4)
    plans = [cyclic_uncoded(n, r) for n in range(2, 9) for r in range(1, min(n, 3) + 1)]
    for n in range(3, 9):
        for r_u in range(0, min(n - 1, 3) + 1):
            for ell_c in range(1, min(n - r_u, 2) + 1):
                plans += [cyclic_coded(n, r_u, ell_c, placement)
                          for placement in (Placement.CODED_BOTTOM, Placement.CODED_TOP)]
        plans += [mds_plan(n, ell, delta) for ell in (1, 2) for delta in (ell, n, n * ell)]
    plans += [relabel_blocks(plan, rng.permutation(plan.params.delta)) for plan in plans]
    states = record_decodable(monkeypatch)
    for plan in plans:
        states.clear()
        brute_force_q(plan)
        assert states == [tuple([plan.ell] * plan.n)], plan.params


def test_threshold_rejects_hopeless_plan():
    # a fully-coded plan over too few equations never decodes
    params = core.SystemParams(2, 3, 0, 1, 0, Placement.FULLY_CODED)
    rows = ((core.Coded(((0, 1),)),), (core.Coded(((1, 1),)),))
    plan = AssignmentPlan(params=params, workers=rows)
    with pytest.raises(ValueError):
        brute_force_q(plan)


@pytest.mark.parametrize("search", [brute_force_q, straggler_resilience])
def test_plan_that_cannot_decode_is_refused_by_both_searches(search):
    # two one-row workers whose rows on two blocks are proportional: even
    # the fully processed state has rank 1
    params = core.SystemParams(2, 2, 0, 1, 0, Placement.FULLY_CODED)
    rows = ((core.Coded(((0, 1), (1, 2))),), (core.Coded(((0, 3), (1, 6))),))
    plan = AssignmentPlan(params=params, workers=rows)
    with pytest.raises(ValueError, match="cannot decode even with every task processed"):
        search(plan)


# ---------------------------------------------------------------------------
# uncoded_q_fast


def test_fast_threshold_cyclic_values():
    plan = cyclic_uncoded(5, 3)
    assert uncoded_q_fast(plan) == 10  # every per-block worst case is 9


def test_fast_threshold_single_worker_chain():
    params = core.SystemParams(1, 4, 4, 0, 1, Placement.UNCODED_ONLY)
    plan = AssignmentPlan(params=params, workers=((Uncoded(0), Uncoded(1), Uncoded(2), Uncoded(3)),))
    assert uncoded_q_fast(plan) == 4
    assert brute_force_q(plan).q_true == 4


def test_fast_threshold_rejects_coded_plans():
    with pytest.raises(ValueError):
        uncoded_q_fast(cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM))


def test_fast_threshold_agrees_with_search_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        ell = int(rng.integers(1, min(n, 3) + 1))
        plan = random_uncoded_plan(n, ell, rng)
        assert uncoded_q_fast(plan) == brute_force_q(plan).q_true


def test_fast_threshold_agrees_with_search_cyclic_family():
    for n in range(2, 11):
        for r in range(1, min(n, 3) + 1):
            plan = cyclic_uncoded(n, r)
            assert uncoded_q_fast(plan) == brute_force_q(plan).q_true


# ---------------------------------------------------------------------------
# straggler_resilience


def test_resilience_cyclic_uncoded():
    rep = straggler_resilience(cyclic_uncoded(5, 3))
    assert rep.resilience_true == 2
    assert len(rep.worst_straggler_set) == 3


def test_resilience_coded_bottom():
    assert straggler_resilience(cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)).resilience_true == 3


def test_resilience_coded_top():
    assert straggler_resilience(cyclic_coded(5, 2, 1, Placement.CODED_TOP)).resilience_true == 3


def test_resilience_worst_set_is_a_witness():
    plan = cyclic_uncoded(5, 3)
    rep = straggler_resilience(plan)
    state = [plan.ell] * plan.n
    for i in rep.worst_straggler_set:
        state[i] = 0
    assert not is_decodable(plan, tuple(state))


def test_resilience_n40_within_default_budget():
    # 2**40 subsets, but the search stops at the first failing set size
    rep = straggler_resilience(cyclic_uncoded(40, 3))
    assert rep.resilience_true == 2
    assert rep.worst_straggler_set == (0, 1, 2)


def test_resilience_budget_refusal():
    with pytest.raises(BudgetExceededError):
        straggler_resilience(cyclic_uncoded(5, 3), budget=10)


@pytest.mark.parametrize("search", [brute_force_q, straggler_resilience, analyze])
def test_budget_below_one_is_refused_before_any_evaluation(monkeypatch, search):
    calls = count_evaluations(monkeypatch)
    with pytest.raises(ValueError, match="budget must be at least 1, got 0"):
        search(cyclic_uncoded(5, 3), budget=0)
    assert calls[0] == 0


@pytest.mark.parametrize("budget", [1.5, True, "5"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("search", [brute_force_q, straggler_resilience, analyze])
def test_a_budget_that_is_not_an_integer_is_refused_before_any_evaluation(
        monkeypatch, search, budget):
    # 1.5 made two evaluations before stopping "at its budget of 1.5", and
    # True acted as 1
    calls = count_evaluations(monkeypatch)
    with pytest.raises(ValueError, match=f"budget must be an integer, got {re.escape(repr(budget))}"):
        search(cyclic_coded(5, 2, 1, Placement.CODED_TOP), budget=budget)
    assert calls[0] == 0
    assert search(cyclic_coded(5, 2, 1, Placement.CODED_TOP), budget=np.int64(1000))


def test_resilience_threshold_consistency():
    # Q <= (n - s) * ell certifies resilience at least s
    plans = [
        cyclic_uncoded(5, 3),
        cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM),
        cyclic_coded(5, 2, 1, Placement.CODED_TOP),
        cyclic_coded(6, 2, 2, Placement.CODED_TOP),
        mds_plan(4, 2, 5),
    ]
    for plan in plans:
        rep = analyze(plan)
        n, ell = plan.n, plan.ell
        implied = n - -(-rep.q_true // ell)  # n - ceil(q/ell)
        assert rep.resilience_true >= implied


# ---------------------------------------------------------------------------
# min_uncoded_coverage


def test_coverage_pairs_of_workers():
    plan = cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)
    assert min_uncoded_coverage(plan, 2) == 3


def test_coverage_every_worker_is_whole_matrix():
    for plan in (cyclic_uncoded(5, 3), cyclic_coded(5, 2, 1, Placement.CODED_TOP)):
        assert min_uncoded_coverage(plan, plan.n) == plan.params.delta


def test_coverage_exhaustive_example():
    assert min_uncoded_coverage(cyclic_uncoded(7, 3), 4) == 6


def test_coverage_input_validation():
    plan = cyclic_uncoded(4, 2)
    with pytest.raises(ValueError):
        min_uncoded_coverage(plan, 0)
    with pytest.raises(ValueError):
        min_uncoded_coverage(plan, 5)
    with pytest.raises(BudgetExceededError):
        min_uncoded_coverage(plan, 2, budget=3)


# ---------------------------------------------------------------------------
# analyze's dynamic program

BOTTOM, TOP = Placement.CODED_BOTTOM, Placement.CODED_TOP


def searched(plan):
    """Both searches' answers in one report, the reference that analyze's
    dynamic program must equal in every field."""
    res, q = straggler_resilience(plan), brute_force_q(plan)
    return OracleReport(q.q_true, q.worst_state, res.resilience_true, res.worst_straggler_set)


def frontier_width(plan):
    return max(map(int.bit_count, oracle._frontiers(plan.checker)))


def takes_program(plan):
    return plan.checker.count_exact


def scheme_family(n):
    """Every construction at n: cyclic-uncoded with r <= 3, coded-bottom and
    coded-top with r_u <= 3 and ell_c <= 2, and MDS with ell <= 2. At
    n = 11 and 12, where the searches take seconds on the larger plans,
    r_u <= 2 and ell_c = 1."""
    r_max, ell_c_max = (3, 2) if n <= 10 else (2, 1)
    plans = [cyclic_uncoded(n, r) for r in range(1, min(n, 3) + 1)]
    for r_u in range(0, min(n - 1, r_max) + 1):
        for ell_c in range(1, min(n - r_u, ell_c_max) + 1):
            plans += [cyclic_coded(n, r_u, ell_c, placement) for placement in (BOTTOM, TOP)]
    return plans + [mds_plan(n, ell, delta) for ell in (1, 2) for delta in (ell, n, n * ell)]


def paired_plan(n):
    """Uncoded, worker i holding blocks i and i + n // 2 (mod n): block b's
    two holders lie n // 2 workers apart, so the frontier before worker
    n // 2 holds every block."""
    params = core.SystemParams(n, n, 2, 0, 2, Placement.UNCODED_ONLY)
    return AssignmentPlan(params, tuple((Uncoded(i), Uncoded((i + n // 2) % n)) for i in range(n)))


@pytest.mark.parametrize("n", range(3, 13))
def test_program_equals_searches_on_every_scheme_family(n):
    # relabelling the blocks changes neither the searches' order of visits
    # nor any answer, so the designed plan's searches are the reference
    rng = np.random.default_rng(n)
    for plan in scheme_family(n):
        relabelled = relabel_blocks(plan, rng.permutation(plan.params.delta))
        assert takes_program(plan) and takes_program(relabelled), plan.params
        want = searched(plan)
        assert analyze(plan) == want, plan.params
        assert analyze(relabelled) == want, plan.params


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_program_equals_searches_on_random_plans(seed, uncoded):
    # random uncoded plans reach frontiers of up to 8 blocks
    rng = np.random.default_rng(seed)
    if uncoded:
        n = int(rng.integers(2, 10))
        plan = random_uncoded_plan(n, int(rng.integers(1, min(n, 3) + 1)), rng)
    else:
        plan = random_scheme_plan(rng)
    plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    assume(takes_program(plan))
    assert analyze(plan) == searched(plan)


def reference_frontiers(plan):
    """Per i = 0..n, the mask of the blocks held uncoded both by some worker
    < i and by some worker >= i, read from the plan's tasks."""
    held = [{t.block for t in tasks if isinstance(t, Uncoded)} for tasks in plan.workers]
    return [sum(1 << b for b in set().union(*held[:i]) & set().union(*held[i:]))
            for i in range(plan.n + 1)]


def test_frontiers_equal_their_definition():
    # block 0 is held by workers 1 and 4 only, blocks 1 and 3 by one worker
    # each, block 2 by none; paired plans hold each block n // 2 workers apart
    coded = core.Coded(((0, 1), (1, 1), (2, 1), (3, 1)))
    hand = hand_plan([[Uncoded(b), coded] for b in (0, 1, 3, 0)], 4, BOTTOM)
    assert oracle._frontiers(hand.checker) == [0, 1, 1, 1, 0]
    plans = [hand, paired_plan(9), paired_plan(12)]
    for n in range(2, 13):
        rng = np.random.default_rng(n)
        for plan in scheme_family(n):
            shuffled = tuple(plan.workers[i] for i in rng.permutation(n))
            plans += [plan, relabel_blocks(plan, rng.permutation(plan.params.delta)),
                      AssignmentPlan(plan.params, shuffled)]
    for plan in plans:
        assert oracle._frontiers(plan.checker) == reference_frontiers(plan), plan.params
    assert max(map(frontier_width, plans[3:])) == 10  # the widest scheme plans


def record_searches(monkeypatch):
    """The names of the searches analyze calls from now on."""
    called = []
    for search in (brute_force_q, straggler_resilience):
        def recorded(plan, budget, search=search):
            called.append(search.__name__)
            return search(plan, budget)
        monkeypatch.setattr(oracle, search.__name__, recorded)
    return called


def test_program_and_searches_split_the_plans(monkeypatch):
    # a perturbed plan is not count-exact, so it takes the searches; every
    # count-exact plan takes the program, however wide its frontier
    wide = cyclic_coded(10, 6, 1, TOP)
    assert [frontier_width(p) for p in (paired_plan(9), paired_plan(12), wide)] == [8, 12, 10]
    called = record_searches(monkeypatch)
    plan = perturbed(cyclic_coded(6, 2, 1, TOP), np.random.default_rng(3))
    assert analyze(plan) == searched(plan)
    assert called == ["straggler_resilience", "brute_force_q"]
    for plan in (paired_plan(9), paired_plan(12), wide, cyclic_coded(6, 2, 1, TOP)):
        called.clear()
        assert analyze(plan) == searched(plan)
        assert called == [], plan.params


def test_program_checks_the_full_state_first_and_each_answer_once(monkeypatch):
    plan = cyclic_coded(6, 2, 1, TOP)
    states = record_decodable(monkeypatch)
    rep = analyze(plan)
    absent = tuple(0 if i in rep.worst_straggler_set else plan.ell for i in range(plan.n))
    full = tuple([plan.ell] * plan.n)
    assert states == [full, absent, full, rep.worst_state]


def test_program_refuses_a_count_exact_plan_that_cannot_decode():
    # two Cauchy rows on three blocks: count-exact, but two rows short of three
    plan = hand_plan([[cauchy_task(row, (0, 1, 2))] for row in cauchy(2, 3)], 3)
    assert takes_program(plan)
    with pytest.raises(ValueError, match="^plan cannot decode even with every task processed$"):
        analyze(plan)


def test_program_budget_counts_the_full_state_and_each_table_cell():
    # coded-bottom (10,2,1): the resilience table has 137 cells, the
    # threshold table 227; each program first evaluates the full state
    plan = cyclic_coded(10, 2, 1, BOTTOM)
    rep = analyze(plan)
    assert analyze(plan, budget=228) == rep
    for budget, program in ((227, "threshold"), (137, "resilience")):
        with pytest.raises(BudgetExceededError) as err:
            analyze(plan, budget=budget)
        assert err.value.evaluations == budget
        assert str(err.value).startswith(
            f"{program} dynamic program stopped at its budget of {budget} decodability evaluations;")
    with pytest.raises(BudgetExceededError, match="^threshold dynamic program"):
        analyze(plan, budget=138)


def test_program_certifies_the_n40_plans():
    # coded-top's Q is above its bound; the other three meet their formulas
    top, bottom = cyclic_coded(40, 2, 1, TOP), cyclic_coded(40, 2, 1, BOTTOM)
    uncoded, mds = cyclic_uncoded(40, 3), mds_plan(40, 2, 40)
    found = [(rep.q_true, rep.resilience_true) for rep in map(analyze, (top, bottom, uncoded, mds))]
    assert found == [(58, 20), (78, 20), (115, 2), (40, 20)]
    assert bounds.coded_top_q_bound(top.params).q_lower == 46
    assert bounds.coded_bottom_resilience(top.params) == 20
    assert bounds.coded_bottom_q(bottom.params) == 78
    assert bounds.coded_bottom_resilience(bottom.params) == 20
    assert uncoded_q_fast(uncoded) == 115
    assert bounds.uncoded_resilience(3) == 2
    # any delta rows of the MDS plan decode: ell = 2 rows from each of 20 workers
    assert found[3] == (mds.params.delta, mds.n - mds.params.delta // mds.ell)


# ---------------------------------------------------------------------------
# reports


def test_analyze_budget_stops_threshold_search_after_resilience():
    # each search has its own budget: resilience completes within 4,000
    # evaluations (2,511), then the threshold search spends all of them; the
    # perturbed plan is not count-exact, so analyze runs the searches
    plan = perturbed(cyclic_coded(12, 2, 1, Placement.CODED_TOP), np.random.default_rng(3))
    with pytest.raises(BudgetExceededError) as err:
        analyze(plan, budget=4_000)
    assert err.value.evaluations == 4_000
    assert str(err.value).startswith("threshold search ")
    assert "Q >= 16;" in str(err.value)


def test_analyze_merges_reports():
    rep = analyze(cyclic_uncoded(5, 3))
    assert rep.q_true == 10 and rep.resilience_true == 2
    doc = rep.to_dict()
    assert doc["q_true"] == 10
    assert isinstance(doc["worst_state"], list)
    assert isinstance(doc["worst_straggler_set"], list)


def test_every_search_and_query_shares_the_plans_one_checker(monkeypatch):
    built = []
    init = core.DecodabilityChecker.__init__

    def counted(self, plan):
        built.append(plan)
        init(self, plan)

    monkeypatch.setattr(core.DecodabilityChecker, "__init__", counted)
    plan = cyclic_coded(5, 2, 1, Placement.CODED_TOP)
    report = analyze(plan)
    assert is_decodable(plan, report.worst_state) is False
    run_experiment([plan], ShiftedExponential(), Uniform(), 3, seed=0)
    assert built == [plan] and plan.checker is plan.checker
    # the memo is not part of the value
    twin = cyclic_coded(5, 2, 1, Placement.CODED_TOP)
    assert twin == plan and hash(twin) == hash(plan)
