"""Shared random generators and independent reference implementations
for the test suite."""

import math
import os
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

import codedmv
from codedmv import core, oracle, schemes, sim
from codedmv.field import P


def random_uncoded_plan(n, ell, rng):
    """Random valid uncoded plan with delta = n, r = ell.

    Each of ell rounds assigns a random permutation of the blocks (one per
    worker), re-drawn until no worker sees a duplicate, so every block
    lands in exactly ell workers. Per-worker processing order is shuffled.
    """
    held = [set() for _ in range(n)]
    rounds = []
    for _ in range(ell):
        for _attempt in range(10_000):
            perm = rng.permutation(n)
            if all(int(perm[i]) not in held[i] for i in range(n)):
                break
        else:
            raise RuntimeError("could not sample a conflict-free round")
        for i in range(n):
            held[i].add(int(perm[i]))
        rounds.append(perm)
    workers = []
    for i in range(n):
        blocks = [int(r[i]) for r in rounds]
        order = rng.permutation(ell)
        workers.append(tuple(core.Uncoded(blocks[int(j)]) for j in order))
    params = core.SystemParams(
        n=n, delta=n, ell_u=ell, ell_c=0, r_u=ell, placement=core.Placement.UNCODED_ONLY
    )
    return core.AssignmentPlan(params=params, workers=tuple(workers))


def random_scheme_plan(rng):
    """One plan drawn from the four construction families at small size."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(n, 3) + 1))
        return schemes.cyclic_uncoded(n, r)
    if kind in (1, 2):
        placement = (
            core.Placement.CODED_BOTTOM if kind == 1 else core.Placement.CODED_TOP
        )
        n = int(rng.integers(3, 7))
        r_u = int(rng.integers(1, min(n - 1, 2) + 1))
        ell_c = int(rng.integers(1, min(n - r_u, 2) + 1))
        return schemes.cyclic_coded(n, r_u, ell_c, placement)
    n = int(rng.integers(2, 5))
    ell = int(rng.integers(1, 3))
    delta = int(rng.integers(ell, n * ell + 1))
    return schemes.mds_plan(n, ell, delta)


def random_state(plan, rng):
    return tuple(int(rng.integers(0, plan.ell + 1)) for _ in range(plan.n))


def dominated_state(state, rng):
    """A state <= the given one, componentwise."""
    return tuple(int(rng.integers(0, v + 1)) for v in state)


def trial(plan, speed, cost, seed):
    """One trial of a plan through the batched simulator (a batch of one
    seed), with an unmemoised checker."""
    decodable = core.DecodabilityChecker(plan).decodable
    return next(sim._trials(decodable, sim.task_weights(plan, cost), speed, [seed]))


def reference_trial(plan, speed, cost, seed):
    """One trial by the per-trial loop the batched simulator replaced.

    Each worker's weighted durations are summed in Python floats, every
    finite completion becomes a (time, worker, position) tuple, the tuples
    are sorted, and the events are walked with a fresh unmemoised checker.
    Only the raw draws come from ``sim.raw_durations``, as a batch of one.
    """
    n, ell = plan.n, plan.ell
    dur = sim.raw_durations(speed, n, ell, [seed])[0].tolist()
    weights = sim.task_weights(plan, cost).tolist()
    events = []
    for i in range(n):
        t = 0.0
        for k in range(ell):
            t = math.inf if math.isinf(dur[i][k]) else t + dur[i][k] * weights[i][k]
            if math.isfinite(t):
                events.append((t, i, k))
    decodable = core.DecodabilityChecker(plan).decodable
    state = [0] * n
    for t, i, k in sorted(events):
        state[i] = k + 1
        if decodable(tuple(state)):
            return sim.TrialResult(t, tuple(state), sum(state), True)
    return sim.TrialResult(math.inf, tuple(state), sum(state), False)


def min_uncoded_coverage(plan, k, budget=None):
    """Minimum, over all k-subsets of workers, of the number of distinct
    uncoded blocks they jointly hold.

    Raises:
        ValueError: k outside [1, n].
        BudgetExceededError: C(n, k) subsets above the evaluation budget.
    """
    n = plan.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k = {k}")
    budget = oracle.default_budget() if budget is None else budget
    if comb(n, k) > budget:
        raise oracle.BudgetExceededError(
            f"coverage search needs {comb(n, k)} evaluations, budget is {budget}", budget
        )
    masks = []
    for tasks in plan.workers:
        m = 0
        for t in tasks:
            if isinstance(t, core.Uncoded):
                m |= 1 << t.block
        masks.append(m)
    best = None
    for subset in combinations(range(n), k):
        u = 0
        for i in subset:
            u |= masks[i]
        c = u.bit_count()
        if best is None or c < best:
            best = c
    return best


def _states_with_total(total, n, ell):
    """Compositions of ``total`` into n parts within [0, ell], in
    lexicographically descending order."""
    state = [0] * n

    def rec(i, remaining):
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


def reference_q(plan):
    """``oracle.brute_force_q`` by exhaustive downward scan (for n <= 6).

    Scans totals from n*ell - 1 down, each in lexicographically descending
    order; the first non-decodable state is the worst state, so every
    state of a larger total has been checked decodable.
    """
    n, ell = plan.n, plan.ell
    decodable = core.DecodabilityChecker(plan).decodable
    for total in range(n * ell - 1, -1, -1):
        for state in _states_with_total(total, n, ell):
            if not decodable(state):
                return oracle.OracleReport(q_true=total + 1, worst_state=state)
    raise AssertionError("unreachable: the empty state never decodes")


def run_python(args, env=None, timeout=120):
    """Run a fresh interpreter that imports the codedmv under test."""
    src = str(Path(codedmv.__file__).resolve().parents[1])
    full_env = dict(os.environ, PYTHONPATH=src, **(env or {}))
    return subprocess.run(
        [sys.executable, *args], env=full_env, capture_output=True, text=True,
        timeout=timeout,
    )


# ---------------------------------------------------------------------------
# references, independent of codedmv.field's elimination


def reference_rank(rows):
    """Rank over GF(P) by plain Python-int elimination."""
    m = [[int(v) % P for v in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        scale = pow(m[r][c], P - 2, P)
        m[r] = [v * scale % P for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % P for a, b in zip(m[i], m[r])]
        r += 1
    return r


def prefix_equations(plan, state):
    """What the master holds at a prefix state: the set of known uncoded
    blocks and the received coded tasks, verbatim and in worker order.

    Raises:
        ValueError: the state does not fit the plan.
    """
    w = core.check_state(plan, state)
    known = set()
    coded = []
    for i, count in enumerate(w):
        for t in plan.workers[i][:count]:
            if isinstance(t, core.Uncoded):
                known.add(t.block)
            else:
                coded.append(t)
    return frozenset(known), tuple(coded)


def reference_decodable(delta, known, coded):
    """The coded rows restricted to the unknown blocks have full column rank."""
    unknown = [b for b in range(delta) if b not in known]
    if not unknown:
        return True
    rows = [[t.coeff_map().get(b, 0) for b in unknown] for t in coded]
    return reference_rank(rows) == len(unknown)
