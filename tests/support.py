"""Shared random generators and independent reference implementations
for the test suite."""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

import codedmv
from codedmv import core, oracle, schemes, sim
from codedmv.field import P, inv, pivots, rank


def real_coefficient(c):
    """Real image of a field coefficient: 1 / d for d = c^-1 mod P.

    Cauchy-built coefficients are stored as (x_i - y_j)^-1 with
    0 < x_i - y_j < P, so d recovers the original integer difference and
    the real matrix is the Cauchy matrix over the same parameters.
    """
    return 1.0 / inv(c)


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


def scheme_plan_up_to(n_max, rng):
    """One plan drawn from the four construction families with n <= n_max:
    cyclic-uncoded, coded-bottom, coded-top or MDS, each equally likely."""
    kind = int(rng.integers(0, 4))
    n = int(rng.integers(3, n_max + 1))
    if kind == 0:
        return schemes.cyclic_uncoded(n, int(rng.integers(1, min(n, 3) + 1)))
    if kind in (1, 2):
        placement = (
            core.Placement.CODED_BOTTOM if kind == 1 else core.Placement.CODED_TOP
        )
        r_u = int(rng.integers(0, min(n - 1, 3) + 1))
        ell_c = int(rng.integers(1, min(n - r_u, 2) + 1))
        return schemes.cyclic_coded(n, r_u, ell_c, placement)
    ell = int(rng.integers(1, 3))
    return schemes.mds_plan(n, ell, int(rng.integers(ell, n * ell + 1)))


def relabel_blocks(plan, perm):
    """The plan with block b renamed to perm[b], in uncoded tasks and coded
    coefficient maps alike."""
    workers = tuple(
        tuple(core.Uncoded(int(perm[t.block])) if isinstance(t, core.Uncoded) else
              core.Coded(tuple(sorted((int(perm[b]), c) for b, c in t.coeffs)))
              for t in tasks)
        for tasks in plan.workers
    )
    return core.AssignmentPlan(params=plan.params, workers=workers)


def arrival_events(plan, rng):
    """One random interleaving of all tasks, each worker's in position
    order, as the flat worker-major indices i * ell + k that
    ``sim.run_trial`` walks."""
    order = rng.permutation(np.repeat(np.arange(plan.n), plan.ell))
    done = [0] * plan.n
    events = []
    for i in order.tolist():
        events.append(i * plan.ell + done[i])
        done[i] += 1
    return events


def arrival_states(plan, rng):
    """Every prefix of one random interleaving of all tasks, from the zero
    state to the full one: a walk that crosses the decodability threshold."""
    state = [0] * plan.n
    yield tuple(state)
    for e in arrival_events(plan, rng):
        i, k = divmod(e, plan.ell)
        state[i] = k + 1
        yield tuple(state)


def hand_plan(workers, delta, placement=core.Placement.FULLY_CODED):
    """A plan from explicit task lists; every worker holds as many tasks."""
    ell_u = sum(isinstance(t, core.Uncoded) for t in workers[0])
    params = core.SystemParams(n=len(workers), delta=delta, ell_u=ell_u,
                               ell_c=len(workers[0]) - ell_u,
                               r_u=len(workers) * ell_u // delta, placement=placement)
    return core.AssignmentPlan(params=params, workers=tuple(map(tuple, workers)))


def cauchy_task(row, blocks):
    return core.Coded(tuple((b, row[b]) for b in blocks))


def singular_plan():
    """Three one-row workers on two blocks, rows 0 and 1 made proportional:
    not certified, and those two rows alone have rank 1."""
    row0, row1, row2 = schemes.cauchy(3, 2)
    bent0 = (row0[0], row0[0] * row1[1] * pow(row1[0], -1, P) % P)
    return hand_plan([[cauchy_task(r, (0, 1))] for r in (bent0, row1, row2)], 2)


def twin_plan(twin):
    """Consistent with x_r - y_j on every entry, but two rows share an x
    (``twin == "row"``: the same row twice) or two blocks share a y
    (``"column"``: the same column twice); rows 0 and 1 have rank 1."""
    rows = schemes.cauchy(3, 2)
    if twin == "row":
        rows = (rows[0], rows[0], rows[1])
    else:
        rows = tuple((r[0], r[0]) for r in rows)
    return hand_plan([[cauchy_task(r, (0, 1))] for r in rows], 2)


def zero_column_plan():
    """A certified coded-top plan whose received rows can all miss an
    unknown block: at state (1, 1, 2), three rows and two unknowns, yet
    block 1 appears in none of the rows."""
    rows = schemes.cauchy(3, 3)
    supports = ((0,), (0,), (0, 2))
    return hand_plan(
        [[cauchy_task(r, s), core.Uncoded(j)] for j, (r, s) in enumerate(zip(rows, supports))],
        3, core.Placement.CODED_TOP,
    )


def perturbed(plan, rng):
    """The plan with one coefficient of a random worker's first task moved
    by a random nonzero amount; that task must be coded and hold every
    block."""
    workers = [list(tasks) for tasks in plan.workers]
    i = int(rng.integers(0, plan.n))
    coeffs = dict(workers[i][0].coeffs)
    b = int(rng.integers(0, plan.params.delta))
    coeffs[b] = (coeffs[b] + int(rng.integers(1, P - 1))) % P
    workers[i][0] = core.Coded(tuple(sorted(coeffs.items())))
    return core.AssignmentPlan(params=plan.params, workers=tuple(map(tuple, workers)))


def shrunk_supports(plan, drop, rng):
    """The plan with each coded entry dropped with probability ``drop``,
    keeping at least one entry per task; what is left of a Cauchy matrix
    is still one, but the plan need not stay count-complete."""
    workers = []
    for tasks in plan.workers:
        row = []
        for t in tasks:
            if isinstance(t, core.Coded):
                kept = [e for e in t.coeffs if rng.random() >= drop]
                t = core.Coded(tuple(kept) or t.coeffs[:1])
            row.append(t)
        workers.append(tuple(row))
    return core.AssignmentPlan(params=plan.params, workers=tuple(workers))


def two_component_plan():
    """Four one-row workers on four blocks: rows 0-1 on blocks 0-1 and rows
    2-3 on blocks 2-3 repeat one 2 x 2 Cauchy matrix, so the two connected
    pieces share every x and y value; certified, not count-complete."""
    rows = schemes.cauchy(2, 2)
    return hand_plan([[cauchy_task(dict(zip(blocks, row)), blocks)]
                      for blocks in ((0, 1), (2, 3)) for row in rows], 4)


def moved_entry_plan(r, b):
    """Three one-row workers holding every block of a 3 x 3 Cauchy matrix,
    entry (r, b) moved by one: every entry lies on a cycle of the support
    graph, so whichever entries a walk's spanning tree uses, the moved one
    disagrees with the values the others fix."""
    rows = [list(row) for row in schemes.cauchy(3, 3)]
    rows[r][b] = rows[r][b] % (P - 1) + 1
    return hand_plan([[cauchy_task(row, (0, 1, 2))] for row in rows], 3)


def reference_certified(coeff_maps):
    """The Cauchy certificate by fixed-point sweeps over every entry: each
    piece of the row-block support graph gets x = 0 on its first row, and
    each sweep gives a value to every row or block that an entry links to
    a valued block or row, until none is left; then every entry must have
    inv(c) = x - y mod P, and the (piece, value) pairs of the rows, and of
    the blocks, must be distinct."""
    x, y = {}, {}
    for first in range(len(coeff_maps)):
        if first in x:
            continue
        x[first] = (first, 0)
        changed = True
        while changed:
            changed = False
            for r, cm in enumerate(coeff_maps):
                for b, c in cm.items():
                    d = pow(c, -1, P)
                    if r in x and b not in y:
                        y[b], changed = (first, (x[r][1] - d) % P), True
                    elif b in y and r not in x:
                        x[r], changed = (first, (y[b][1] + d) % P), True
    agree = all((x[r][1] - y[b][1]) % P == pow(c, -1, P)
                for r, cm in enumerate(coeff_maps) for b, c in cm.items())
    return agree and len(set(x.values())) == len(x) and len(set(y.values())) == len(y)


def reference_checker(plan):
    """Every table of ``core.DecodabilityChecker``, and its ``certified``
    and ``count_complete``, built task by task from ``plan.workers`` (task
    i * ell + k being worker i's position k), by attribute name."""
    p = plan.params
    n, ell, delta = p.n, p.ell, p.delta
    blocks, coded_tasks, field, real, prefix, coeff_maps = [], [], [], [], [], []
    holders = [[] for _ in range(delta)]
    count_complete = True
    for i, tasks in enumerate(plan.workers):
        known, coded, rows = set(), 0, [(0, 0)]
        for k, t in enumerate(tasks):
            if isinstance(t, core.Uncoded):
                cm = {}
                known.add(t.block)
                holders[t.block].append(i * ell + k)
                blocks.append(t.block)
            else:
                cm = dict(t.coeffs)
                count_complete &= known | set(cm) == set(range(delta))
                coeff_maps.append(cm)
                coded_tasks.append(i * ell + k)
                blocks.append(-1)
                coded += 1
            field.append([cm.get(b, 0) for b in range(delta)])
            real.append([real_coefficient(cm[b]) if b in cm else 0.0 for b in range(delta)])
            rows.append((sum(1 << b for b in known), coded))
        prefix.append(tuple(rows))
    width = max([1] + [len(h) for h in holders])
    field = np.array(field, dtype=np.int64).reshape(n * ell, delta)
    return {
        "blocks": tuple(blocks),
        "coded_tasks": np.array(coded_tasks, dtype=np.intp),
        "holders": np.array([h + [n * ell] * (width - len(h)) for h in holders], dtype=np.intp),
        "prefix": tuple(prefix),
        "field": field,
        "support": field != 0,
        "real": np.array(real).reshape(n * ell, delta),
        "certified": reference_certified(coeff_maps),
        "count_complete": count_complete,
    }


def count_evaluations(monkeypatch):
    """Count ``DecodabilityChecker.decodable`` calls from now on."""
    calls = [0]
    decodable = core.DecodabilityChecker.decodable

    def counted(self, state):
        calls[0] += 1
        return decodable(self, state)

    monkeypatch.setattr(core.DecodabilityChecker, "decodable", counted)
    return calls


def record_rank_cases(monkeypatch):
    """The (mask, state) of every query :meth:`DecodabilityChecker.decide`
    passes to its rank case from now on; ``state`` is copied to a tuple."""
    seen = []
    ranked = core.DecodabilityChecker._rank_decides

    def recorded(self, mask, state):
        seen.append((mask, tuple(state)))
        return ranked(self, mask, state)

    monkeypatch.setattr(core.DecodabilityChecker, "_rank_decides", recorded)
    return seen


def count_eliminations(monkeypatch):
    """Count the GF(P) eliminations the checker runs from now on: the
    ``field.pivots`` calls of ``DecodabilityChecker.solving_rows``, the
    one place in the package that eliminates."""
    calls = [0]

    def counted(mat):
        calls[0] += 1
        return pivots(mat)

    monkeypatch.setattr(core, "pivots", counted)
    return calls


def random_state(plan, rng):
    return tuple(int(rng.integers(0, plan.ell + 1)) for _ in range(plan.n))


def dominated_state(state, rng):
    """A state <= the given one, componentwise."""
    return tuple(int(rng.integers(0, v + 1)) for v in state)


@dataclass(frozen=True)
class TrialResult:
    """One simulated trial: when and in which state the master decodes, or
    inf and the final reachable state when it never does."""

    finish_time: float
    final_state: tuple
    blocks_processed_total: int
    decode_ok: bool


def trials(plan, speed, cost, seeds):
    """The trials of ``seeds`` through the batched simulator, as one batch,
    each as a :class:`TrialResult`."""
    dur = sim.raw_durations(speed, [(plan.n, plan.ell)], seeds)[plan.n, plan.ell]
    finish, total, ok, states = sim._trials(plan.checker, sim.task_weights(plan, cost), dur)
    return [TrialResult(f, tuple(w), b, o)
            for f, w, b, o in zip(finish.tolist(), states.tolist(), total.tolist(), ok.tolist())]


def trial(plan, speed, cost, seed):
    """One trial of a plan through the batched simulator, a batch of one
    seed."""
    return trials(plan, speed, cost, [seed])[0]


def reference_seed(seed, trial):
    """A trial's seed straight from numpy, independent of ``sim``:
    ``SeedSequence((seed, trial))``'s first word."""
    return int(np.random.SeedSequence((seed, trial)).generate_state(1)[0])


def _reference_events(plan, speed, cost, seed):
    """One trial's finite completions as sorted (time, worker, position)
    tuples, by the per-trial loop the batched simulator replaced.

    Each worker's weighted durations are summed in Python floats.
    Shifted-exponential durations come from a generator of the plan's own,
    ``default_rng(seed).exponential(size=(n, ell))``, not from the stream
    ``sim.raw_durations`` shares between plans; deterministic and
    halt-after durations come from ``sim.raw_durations``, as a batch of one.
    """
    n, ell = plan.n, plan.ell
    if isinstance(speed, sim.ShiftedExponential):
        mult = np.ones(n) if speed.multipliers is None else np.asarray(speed.multipliers)
        draw = np.random.default_rng(seed).exponential(size=(n, ell))
        dur = (speed.shift + draw / (speed.rate * mult)[:, None]).tolist()
    else:
        dur = sim.raw_durations(speed, [(n, ell)], [seed])[n, ell][0].tolist()
    weights = sim.task_weights(plan, cost).tolist()
    events = []
    for i in range(n):
        t = 0.0
        for k in range(ell):
            t = math.inf if math.isinf(dur[i][k]) else t + dur[i][k] * weights[i][k]
            if math.isfinite(t):
                events.append((t, i, k))
    return sorted(events)


def reference_trial(plan, speed, cost, seed):
    """One trial by the per-trial loop the batched simulator replaced: the
    events of :func:`_reference_events` walked with :func:`rank_decodable`."""
    events = _reference_events(plan, speed, cost, seed)
    decodable = rank_decodable(plan)
    state = [0] * plan.n
    for t, i, k in events:
        state[i] = k + 1
        if decodable(tuple(state)):
            return TrialResult(t, tuple(state), sum(state), True)
    return TrialResult(math.inf, tuple(state), sum(state), False)


def walked_trial(plan, speed, cost, seed):
    """One trial walked event by event by ``sim.run_trial``, on the events
    of :func:`_reference_events`: the master decodes after the event at the
    place the walk returns, or never if that place is past the last one."""
    events = _reference_events(plan, speed, cost, seed)
    at = sim.run_trial(plan.checker, [i * plan.ell + k for _, i, k in events])
    state = [0] * plan.n
    for _, i, k in events[: at + 1]:
        state[i] = k + 1
    if at < len(events):
        return TrialResult(events[at][0], tuple(state), at + 1, True)
    return TrialResult(math.inf, tuple(state), len(events), False)


def reference_rows_csv(rows):
    """The rows CSV written one :class:`~codedmv.sim.TrialRow` at a time."""
    lines = ["plan_id,trial,finish_time,blocks_total,decode_ok"]
    for r in rows:
        ok = "true" if r.decode_ok else "false"
        lines.append(f"{r.plan_id},{r.trial},{r.finish_time!r},{r.blocks_total},{ok}")
    return "\n".join(lines) + "\n"


def min_uncoded_coverage(plan, k, budget=oracle.DEFAULT_BUDGET):
    """Minimum, over all k-subsets of workers, of the number of distinct
    uncoded blocks they jointly hold.

    Raises:
        ValueError: k outside [1, n].
        BudgetExceededError: C(n, k) subsets above the evaluation budget.
    """
    n = plan.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k = {k}")
    if comb(n, k) > budget:
        raise oracle.BudgetExceededError(
            f"coverage search needs {comb(n, k)} evaluations, budget is {budget}", budget, 0
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
    state of a larger total has been checked decodable. States are decided
    by :func:`rank_decodable`.
    """
    n, ell = plan.n, plan.ell
    decodable = rank_decodable(plan)
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


def rank_decodable(plan):
    """Decodability predicate of one plan that always ranks: the received
    coded rows, restricted to the unknown blocks, by ``field.rank``.

    It uses neither the checker's Cauchy certificate nor its count, so the
    references built on it test that path rather than repeat it.
    """
    delta = plan.params.delta
    tasks = [
        [t.block if isinstance(t, core.Uncoded) else
         [dict(t.coeffs).get(b, 0) for b in range(delta)] for t in worker]
        for worker in plan.workers
    ]

    def decodable(state):
        known, rows = set(), []
        for worker, count in zip(tasks, state):
            for t in worker[:count]:
                if isinstance(t, int):
                    known.add(t)
                else:
                    rows.append(t)
        unknown = [b for b in range(delta) if b not in known]
        if len(rows) < len(unknown):
            return False
        return not unknown or rank(np.array(rows)[:, unknown]) == len(unknown)

    return decodable


def reference_decodable(delta, known, coded):
    """The coded rows restricted to the unknown blocks have full column rank."""
    unknown = [b for b in range(delta) if b not in known]
    if not unknown:
        return True
    rows = [[dict(t.coeffs).get(b, 0) for b in unknown] for t in coded]
    return reference_rank(rows) == len(unknown)


def split_matrix(rows, delta):
    """Balanced contiguous block-row ranges: the first rows % delta blocks
    take one extra row; ranges are disjoint and cover [0, rows).

    Raises:
        ValueError: rows < delta or delta < 1.
    """
    if delta < 1:
        raise ValueError("delta must be positive")
    if rows < delta:
        raise ValueError(f"need rows >= delta, got {rows} < {delta}")
    base, extra = divmod(rows, delta)
    starts = [b * base + min(b, extra) for b in range(delta + 1)]
    return [range(lo, hi) for lo, hi in zip(starts, starts[1:])]


def reference_decode(plan, A, x, received):
    """``sim.numeric_decode`` as per-coefficient Python loops: the vectors
    of :func:`reference_products`, then ``field.pivots`` picks the rows in
    every case, and each right-hand side subtracts one known block at a
    time."""
    ranges = split_matrix(len(A), plan.params.delta)
    known, coded = {}, []
    for i, k, vec in reference_products(plan, A, x, received):
        t = plan.workers[i][k]
        if isinstance(t, core.Uncoded):
            known[t.block] = vec
        else:
            coded.append((dict(t.coeffs), vec))
    unknown = [b for b in range(plan.params.delta) if b not in known]
    if unknown:
        u = len(unknown)
        field_rows = np.array(
            [[cm.get(b, 0) for b in unknown] for cm, _ in coded], dtype=np.int64
        ).reshape(len(coded), u)
        sel = pivots(field_rows.T)
        if len(sel) < u:
            raise sim.NotDecodableError(
                "received equations do not determine every block product"
            )
        square = np.zeros((u, u))
        rhs = np.zeros((u, len(ranges[0])))
        for r, ridx in enumerate(sel):
            cm, vec = coded[ridx]
            rhs[r] = vec
            for b, c in cm.items():
                if b in known:
                    p = known[b]
                    rhs[r, : len(p)] -= real_coefficient(c) * p
            for j, b in enumerate(unknown):
                if b in cm:
                    square[r, j] = real_coefficient(cm[b])
        cond = float(np.linalg.cond(square))
        if not cond <= 1e12:
            raise sim.DecodeFailure(cond)
        known.update(zip(unknown, np.linalg.solve(square, rhs)))
    return np.concatenate([known[b][: len(r)] for b, r in enumerate(ranges)])


def reference_products(plan, A, x, received):
    """The (worker, position, vector) each distinct received pair would
    transmit, in first-occurrence order: an uncoded task's block product,
    or a coded task's vector built one coefficient at a time.

    Raises:
        ValueError: ``A`` is not 2-D, a block product is not finite, or a
            pair lies outside the plan.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got {A.ndim} dimension(s)")
    x = np.asarray(x, dtype=float)
    prods = [A[r.start : r.stop] @ x for r in split_matrix(A.shape[0], plan.params.delta)]
    bad = [f"A_{b + 1}" for b, prod in enumerate(prods) if not np.isfinite(prod).all()]
    if bad:
        raise ValueError(f"non-finite block products: {', '.join(bad)}")
    vecs = []
    for i, k in dict.fromkeys((i, k) for i, k in received):
        if not 0 <= i < plan.n or not 0 <= k < plan.ell:
            raise ValueError(f"received task ({i}, {k}) outside the plan")
        t = plan.workers[i][k]
        if isinstance(t, core.Uncoded):
            vec = prods[t.block]
        else:
            vec = np.zeros(len(prods[0]))
            for b, c in t.coeffs:
                vec[: len(prods[b])] += real_coefficient(c) * prods[b]
        vecs.append((i, k, vec))
    return vecs


def decode_outcome(decode, *args):
    """A decode's result as bytes, or the type and text of what it raised."""
    try:
        return decode(*args).tobytes()
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)
