"""Exact recovery thresholds and resilience: brute-force searches and a
dynamic program, both independent of the closed-form module.

The searches enumerate computation states directly and decide each one
with the exact decodability predicate, so they can certify (or refute)
every formula at desk scale. That predicate counts rows only on plans
the checker has certified, from the coefficients and supports themselves,
to be Cauchy and count-complete, exact properties of the plan rather than
formulas, and ranks over GF(P) otherwise. The threshold search walks only the
non-decodable down-set, upward from the zero state, and prunes branches
that cannot beat the best total found. Each state it visits differs from
its parent in one worker, so it carries the checker's (uncoded mask, coded
count) summary down the path and hands it to the checker's one rule,
which decides a state in O(1) whenever the count settles it; see
:func:`brute_force_q`.

:func:`analyze`, which ``verify`` calls, answers both questions by one
dynamic program over the workers instead, on every plan whose checker is
``count_exact`` (every plan :mod:`codedmv.schemes` builds, relabelled or
not); a state of such a plan fails to decode exactly when its coded rows
plus its known blocks number at most delta - 1. The frontier before
worker i is the set of blocks held uncoded both by some worker < i and
by some worker >= i (2 (r_u - 1) blocks on the cyclic plans, none on MDS
plans), and the program's key at worker i is which frontier blocks are
known so far and that running count, so its table can grow as 2**width;
the budget bounds it. Like the searches, it reads only the checker's
tables. Every other plan keeps the two searches, which stay the
reference the program is tested against; see :func:`analyze`.

Budgets are accounted in decodability evaluations, one budget per search
or program. Both searches charge one counter before each evaluation and
stop once the next would exceed the budget, reporting what they certified
so far. The dynamic program charges the fully processed state and then one
evaluation per cell of its table, as its forward sweep reaches the cell;
it certifies nothing before the table is complete, and over budget it
raises the same :class:`BudgetExceededError`, naming the program.

The plan is shared read-only; every search and program is a pure function
of it and reads the plan's memoised checker, ``plan.checker``, which holds
tables of the plan and no answers, so no search state outlives a call and
callers may parallelize over disjoint parameter ranges freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Callable

from .core import AssignmentPlan, Placement, Uncoded, _integer

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """A search needs more decodability evaluations than its budget.

    ``evaluations`` counts the evaluations made before the search stopped.
    The searches here raise it mid-search, on the evaluation that would
    exceed the budget, so it equals the budget.
    """

    def __init__(self, message: str, budget: int, evaluations: int):
        self.budget = budget
        self.evaluations = evaluations
        super().__init__(message)


@dataclass(frozen=True)
class OracleReport:
    """q_true with a worst (maximal non-decodable) state, and/or the true
    straggler resilience with a smallest failing straggler set."""

    q_true: int | None = None
    worst_state: tuple | None = None
    resilience_true: int | None = None
    worst_straggler_set: tuple | None = None

    def to_dict(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in vars(self).items()}


def _counted(budget: int, search: str, so_far: Callable[[], str], checker) -> Callable[[], None]:
    """An evaluation counter for one search of ``checker``'s plan, made
    once the search's first evaluation, the fully processed state, is
    charged and decodes. Each call charges one evaluation, and the call
    that would exceed the budget raises BudgetExceededError, whose message
    names the search and ends with ``so_far()``, what the search has
    certified up to that point.

    Raises:
        ValueError: the budget is not an integer (a float or bool is not)
            or is below 1, before any evaluation; or the fully processed
            state cannot decode.
    """
    budget = _integer(budget, "budget")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    evaluations = 1

    def charge() -> None:
        nonlocal evaluations
        if evaluations >= budget:
            raise BudgetExceededError(
                f"{search} stopped at its budget of {budget} decodability evaluations; "
                f"{so_far()}; raise the budget to finish",
                budget, evaluations,
            )
        evaluations += 1

    if not checker.decodable(tuple([checker.ell] * checker.n)):
        raise ValueError("plan cannot decode even with every task processed")
    return charge


def brute_force_q(plan: AssignmentPlan, budget: int = DEFAULT_BUDGET) -> OracleReport:
    """True recovery threshold: 1 + max total over non-decodable states.

    The non-decodable states form a down-set (decodability is monotone),
    so a depth-first search from the zero state that extends only
    non-decodable states can reach all of it. Each state is generated once,
    from the parent that undoes one step of its last nonzero worker (the
    parent rule of reverse search): a child of a state whose last nonzero
    worker is k increments some worker i >= k.

    Children are visited in increasing i, so states of equal total are
    reached in lexicographically descending order: at the first worker
    where two states differ, the larger one's path increments that worker
    while the other's moves on to a later one. The first non-decodable
    state found at the largest total is therefore the largest by total and
    then lexicographically, the same worst state a downward scan of the
    lattice meets first.

    Pruning: a child that increments worker i at total t + 1 can only
    raise workers i..n-1 below it, so no state under it exceeds
    t + 1 + sum_{j>=i} (ell - c_j). A child whose bound does not beat the
    best total found so far is skipped unevaluated; what it could reach is
    at most a tie, which by the order above is never the worst state.

    The worst state is a two-sided certificate: it is non-decodable, and
    every state of a larger total is decodable, because the search skips
    only states that are decodable (above a decodable state) or that
    cannot exceed the best total.

    Each evaluation is O(1). Every frame on the path carries the checker's
    (uncoded mask, coded count) summary of its state, a child takes the
    checker's one-worker step from it (see
    :class:`~codedmv.core.DecodabilityChecker`), and ``decide`` settles it
    by the count, or ranks it where the count cannot decide.

    Raises:
        BudgetExceededError: the search needs more decodability
            evaluations than the budget; raised mid-search with the
            evaluations made and the best total certified so far.
        ValueError: the budget is not an integer or is below 1, or the
            fully-processed state itself cannot decode.
    """
    n, ell, checker = plan.n, plan.ell, plan.checker
    charge = _counted(
        budget, "threshold search",
        lambda: f"the largest non-decodable total found so far is {best_total}, "
                f"so Q >= {best_total + 1}",
        checker,
    )
    prefix, decide = checker.prefix, checker.decide

    # the zero state holds no rows and delta >= 1, so it never decodes
    state = [0] * n
    best_total, best = 0, tuple(state)

    # one frame per state on the path from the zero state: [next worker
    # to increment, total, room, mask, coded], room = sum over j >= that
    # worker of ell - state[j], so the child that increments it is bounded
    # by total + room; (mask, coded) summarises the state; a loop, as
    # paths of n*ell steps outgrow recursion
    frames = [[0, 0, n * ell, 0, 0]]
    while frames:
        frame = frames[-1]
        i, total, room, mask, coded = frame
        if i == n or total + room <= best_total:
            frames.pop()  # the bound only shrinks as i grows
            if frames:
                state[frames[-1][0] - 1] -= 1
            continue
        frame[0], frame[2] = i + 1, room - (ell - state[i])
        w = state[i]
        if w == ell:
            continue
        u, c = prefix[i][w + 1]
        mask, coded = mask | u, coded + c - prefix[i][w][1]
        state[i] = w + 1
        charge()
        if decide(mask, coded, state):
            state[i] = w
            continue
        if total + 1 > best_total:
            best_total, best = total + 1, tuple(state)
        frames.append([i, total + 1, room - 1, mask, coded])
    return OracleReport(q_true=best_total + 1, worst_state=best)


def uncoded_q_fast(plan: AssignmentPlan) -> int:
    """Threshold of an uncoded plan without a lattice search.

    For each block j, the worst case processes every task strictly above j
    in workers that hold j and everything in workers that do not; the
    threshold is one more than the largest such count.

    Raises:
        ValueError: the plan contains coded tasks.
    """
    if plan.params.placement is not Placement.UNCODED_ONLY:
        raise ValueError("uncoded_q_fast applies to uncoded-only plans")
    if not all(isinstance(t, Uncoded) for tasks in plan.workers for t in tasks):
        raise ValueError("uncoded_q_fast applies to uncoded-only plans")
    positions = [{t.block: k for k, t in enumerate(tasks)} for tasks in plan.workers]
    return 1 + max(sum(pos.get(j, plan.ell) for pos in positions) for j in range(plan.params.delta))


def straggler_resilience(plan: AssignmentPlan, budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Largest s such that every s-subset of fully absent workers still
    leaves a decodable system (absent workers contribute zero blocks,
    everyone else finishes).

    The fully processed state (no absent worker) is evaluated first, as in
    :func:`brute_force_q`; then subsets are tried by increasing size, in
    ``combinations`` order, up to the first that does not decode.

    Raises:
        BudgetExceededError: the search needs more decodability
            evaluations than the budget; raised mid-search with the
            evaluations made and the resilience certified so far.
        ValueError: the budget is not an integer or is below 1, or the
            fully-processed state itself cannot decode.
    """
    n, ell = plan.n, plan.ell
    charge = _counted(
        budget, "resilience search",
        lambda: f"every set of {s - 1} absent workers decodes, so resilience >= {s - 1}",
        plan.checker,
    )
    decodable = plan.checker.decodable
    for s in range(1, n + 1):
        for subset in combinations(range(n), s):
            state = [ell] * n
            for i in subset:
                state[i] = 0
            charge()
            if not decodable(tuple(state)):
                return OracleReport(resilience_true=s - 1, worst_straggler_set=subset)
    # removing all n workers leaves nothing, so the loop always returns
    raise AssertionError("unreachable: s = n never decodes")


def _frontiers(checker) -> list:
    """Per worker i = 0..n, the mask of the blocks held uncoded both by some
    worker < i and by some worker >= i: the OR of the uncoded masks of the
    workers before i ANDed with the OR of those from i on."""
    masks = [prefix[-1][0] for prefix in checker.prefix]
    before = accumulate(masks, int.__or__, initial=0)
    after = list(accumulate(reversed(masks), int.__or__, initial=0))[::-1]
    return [b & a for b, a in zip(before, after)]


def _program(checker, frontier, rows, budget: int, search: str, choices: tuple) -> tuple:
    """The largest sum of values over the states that fail to decode, with
    each worker at one of the ``choices``' levels, (level, value) pairs in
    order of preference, and the state that a greedy pass from worker 0,
    taking each worker's first level that still reaches that sum, picks.

    A forward sweep collects each worker's reachable keys (known blocks of
    ``frontier[i]``, s = coded rows + known blocks so far), pruning
    s > delta - 1; a backward pass fills each key's largest sum over the
    later workers. ``rows[i][bits]`` holds, per level w of worker i, the
    coded rows and first-known blocks it adds and the known blocks of
    frontier i + 1; the forward sweep fills each row it misses.

    Raises:
        BudgetExceededError: the table needs more evaluations than the budget.
        ValueError: the budget is not an integer or is below 1, or the
            fully-processed state itself cannot decode.
    """
    n, limit, prefix = checker.n, checker.delta - 1, checker.prefix
    charge = _counted(
        budget, search,
        lambda: f"it had swept {i} of {n} workers, and it certifies nothing "
                "before its table is complete",
        checker,
    )
    # per worker, known frontier bits -> {s: the largest sum over the later workers}
    layers = [{0: {0: 0}}]
    for i in range(n):
        reached, keep = {}, frontier[i + 1]
        for bits, column in layers[i].items():
            step = rows[i].get(bits)
            if step is None:
                step = rows[i][bits] = [(c + (u & ~bits).bit_count(), (bits | u) & keep)
                                        for u, c in prefix[i]]
            for s in column:
                charge()
            for w, _ in choices:
                gain, after = step[w]
                cells = reached.setdefault(after, {})
                for s in column:
                    if s + gain <= limit:
                        cells[s + gain] = 0
        layers.append(reached)
    for i in range(n - 1, -1, -1):
        later = layers[i + 1]
        for bits, column in layers[i].items():
            step = rows[i][bits]
            moves = [(value, step[w][0], later[step[w][1]]) for w, value in choices]
            for s in column:
                best = 0  # level 0 adds nothing, so it always stays feasible
                for value, gain, cells in moves:
                    if s + gain <= limit and value + cells[s + gain] > best:
                        best = value + cells[s + gain]
                column[s] = best
    state, bits, s = [], 0, 0
    for i in range(n):
        step, left, later = rows[i][bits], layers[i][bits][s], layers[i + 1]
        for w, value in choices:
            gain, after = step[w]
            if s + gain <= limit and value + later[after][s + gain] == left:
                break
        state.append(w)
        bits, s = after, s + gain
    if checker.decodable(tuple(state)):
        raise AssertionError(f"{search} picked the state {state}, which decodes")
    return layers[0][0][0], tuple(state)


def analyze(plan: AssignmentPlan, budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Threshold and resilience in one report, equal to what
    :func:`brute_force_q` and :func:`straggler_resilience` report.

    On a ``count_exact`` plan, one dynamic program over the workers
    answers both (see the module docstring), sharing one table of
    transitions: Q - 1 is the largest total of a failing state, each
    worker's level tried from ell down to 0, and the resilience is one less
    than the fewest absent workers of a failing state whose workers are
    each absent or done, absent tried first. Its greedy passes return the
    searches' worst state (the largest total, then lexicographically
    largest) and their witness (the first failing set in ``combinations``
    order, the lexicographically smallest of the smallest size); each is
    checked once to fail to decode. Any other plan runs the two searches.
    Either way resilience comes first and each has its own budget.
    """
    checker = plan.checker
    if not checker.count_exact:
        res = straggler_resilience(plan, budget)
        q = brute_force_q(plan, budget)
        return OracleReport(q.q_true, q.worst_state, res.resilience_true, res.worst_straggler_set)
    frontier, rows, ell = _frontiers(checker), [{} for _ in range(checker.n)], checker.ell
    _, done = _program(checker, frontier, rows, budget, "resilience dynamic program",
                       ((0, 0), (ell, 1)))
    total, worst = _program(checker, frontier, rows, budget, "threshold dynamic program",
                            tuple((w, w) for w in range(ell, -1, -1)))
    absent = tuple(i for i, w in enumerate(done) if w == 0)
    return OracleReport(total + 1, worst, len(absent) - 1, absent)
