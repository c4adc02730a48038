"""Brute-force ground truth for recovery thresholds and resilience.

The searches here are independent of the closed-form module: they
enumerate computation states directly and decide each one with the exact
rank predicate, so they can certify (or refute) every formula at desk
scale. Budgets are accounted in decodability evaluations; a search whose
state space exceeds the budget refuses up front and reports the size it
would have needed.

The plan is shared read-only; every search is a pure function of it and
builds its own checker, which is dropped when the search returns, so no
state outlives a call and callers may parallelize over disjoint parameter
ranges freely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

from .core import (
    AssignmentPlan,
    DecodabilityChecker,
    Placement,
    Uncoded,
)

DEFAULT_BUDGET = 10_000_000
_BUDGET_ENV = "CODEDMV_BUDGET"


class BudgetExceededError(RuntimeError):
    """Search would exceed the configured evaluation budget."""

    def __init__(self, required: int, budget: int, what: str):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what} needs about {required} decodability evaluations, "
            f"budget is {budget}; raise the budget to at least {required}"
        )


@dataclass(frozen=True)
class OracleReport:
    """q_true with a worst (maximal non-decodable) state, and/or the true
    straggler resilience with a smallest failing straggler set."""

    q_true: int | None = None
    worst_state: tuple | None = None
    resilience_true: int | None = None
    worst_straggler_set: tuple | None = None

    def to_dict(self) -> dict:
        return {
            "q_true": self.q_true,
            "worst_state": None if self.worst_state is None else list(self.worst_state),
            "resilience_true": self.resilience_true,
            "worst_straggler_set": None
            if self.worst_straggler_set is None
            else list(self.worst_straggler_set),
        }


def default_budget() -> int:
    """The evaluation budget from the environment, else the default.

    Raises:
        ValueError: the environment variable is not an integer.
    """
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from None


def _states_with_total(total: int, n: int, ell: int):
    # compositions of `total` into n parts, each within [0, ell]
    state = [0] * n

    def rec(i: int, remaining: int):
        if i == n - 1:
            if remaining <= ell:
                state[i] = remaining
                yield tuple(state)
            return
        lo = max(0, remaining - ell * (n - 1 - i))
        for v in range(min(ell, remaining), lo - 1, -1):
            state[i] = v
            yield from rec(i + 1, remaining - v)

    yield from rec(0, total)


def brute_force_q(plan: AssignmentPlan, budget: int | None = None) -> OracleReport:
    """True recovery threshold: 1 + max total over non-decodable states.

    Scans totals downward from n*ell - 1; every state at a higher total has
    already been certified decodable when the first non-decodable state is
    found, which makes the returned worst state a two-sided certificate.
    Monotonicity keeps the scan short: worst cases sit near the top of the
    lattice, so high-threshold plans stop after a thin slice of it.

    Raises:
        BudgetExceededError: state space above the evaluation budget.
        ValueError: the fully-processed state itself cannot decode.
    """
    budget = default_budget() if budget is None else budget
    n, ell = plan.n, plan.ell
    space = (ell + 1) ** n
    if space > budget:
        raise BudgetExceededError(space, budget, "threshold search")
    checker = DecodabilityChecker(plan)
    if not checker.decodable(tuple([ell] * n)):
        raise ValueError("plan cannot decode even with every task processed")
    for total in range(n * ell - 1, -1, -1):
        for state in _states_with_total(total, n, ell):
            if not checker.decodable(state):
                return OracleReport(q_true=total + 1, worst_state=state)
    raise AssertionError("unreachable: the empty state never decodes")


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
    n, ell, delta = plan.n, plan.ell, plan.params.delta
    positions = []
    for tasks in plan.workers:
        pos = {}
        for k, t in enumerate(tasks):
            if not isinstance(t, Uncoded):
                raise ValueError("uncoded_q_fast applies to uncoded-only plans")
            pos[t.block] = k
        positions.append(pos)
    worst = 0
    for j in range(delta):
        q_j = sum(positions[i].get(j, ell) for i in range(n))
        worst = max(worst, q_j)
    return worst + 1


def straggler_resilience(plan: AssignmentPlan, budget: int | None = None) -> OracleReport:
    """Largest s such that every s-subset of fully absent workers still
    leaves a decodable system (absent workers contribute zero blocks,
    everyone else finishes).

    Raises:
        BudgetExceededError: 2**n subsets above the evaluation budget.
    """
    budget = default_budget() if budget is None else budget
    n, ell = plan.n, plan.ell
    if 2**n > budget:
        raise BudgetExceededError(2**n, budget, "resilience search")
    checker = DecodabilityChecker(plan)
    for s in range(1, n + 1):
        for subset in combinations(range(n), s):
            state = [ell] * n
            for i in subset:
                state[i] = 0
            if not checker.decodable(tuple(state)):
                return OracleReport(resilience_true=s - 1, worst_straggler_set=subset)
    # removing all n workers leaves nothing, so the loop always returns
    raise AssertionError("unreachable: s = n never decodes")


def analyze(plan: AssignmentPlan, budget: int | None = None) -> OracleReport:
    """Threshold and resilience in one report."""
    q = brute_force_q(plan, budget)
    res = straggler_resilience(plan, budget)
    return OracleReport(
        q_true=q.q_true,
        worst_state=q.worst_state,
        resilience_true=res.resilience_true,
        worst_straggler_set=res.worst_straggler_set,
    )
