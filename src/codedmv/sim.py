"""Worker simulation and the end-to-end numeric decode path.

Worker i's k-th task completes at the cumulative sum of its per-task
durations, each duration being a raw speed draw scaled by the cost weight
of that task; the master stops at the first completion after which the
plan can decode. Trials run in batches of ``_BATCH``: per batch, one
masked multiply weights the raw durations (a task a halted worker never
reaches stays at inf), one cumulative sum gives the completion times and
one stable argsort over the worker-major flat task index orders the
events. Ties in time therefore fall in (worker, position) order. Each
trial then walks its own finite events in plain Python, asking a
decodability callable after every completion. Memory per batch is
O(batch * n * ell), whatever the trial count. Paired trials revisit the
same states again and again, so ``run_experiment`` memoises each plan's
decodability answers for the length of the experiment; the checker itself
remembers nothing.

The numeric path maps each field coefficient c to the real number
1 / d where d is the canonical representative of c^-1 in GF(P). For
coefficients produced by the Cauchy construction d is exactly x_i - y_j,
so the real and field matrices share the same parameters and the same
generic rank profile. Decode chooses its rows exactly: one GF(P)
elimination over the received coded rows both decides decodability and
picks the first independent rows in arrival order. The real square system
on those rows is solved only when its condition number is at most 1e12;
above that the decode is refused as numerically unsafe (DecodeFailure).
Below that bound no residual is checked, so the error of a returned vector
grows with the condition number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .core import AssignmentPlan, DecodabilityChecker, Uncoded
from .field import P, pivots


class NotDecodableError(ValueError):
    """The received equation set cannot determine every block product."""


class DecodeFailure(RuntimeError):
    """The exactly independent rows form a real system too ill-conditioned
    to solve safely: its condition number exceeds 1e12 or is not finite."""

    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(
            f"selected system is numerically unsafe (condition estimate {cond:.3e})"
        )


# ---------------------------------------------------------------------------
# speed models


@dataclass(frozen=True)
class ShiftedExponential:
    """Per-task duration shift + Exp(rate * multiplier_i); multipliers > 1
    speed a worker up, < 1 slow it down (e.g. 0.2 for a straggler)."""

    shift: float = 1.0
    rate: float = 1.0
    multipliers: tuple | None = None

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError("shift must be >= 0")
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.multipliers is not None and any(m <= 0 for m in self.multipliers):
            raise ValueError("multipliers must be positive")


@dataclass(frozen=True)
class Deterministic:
    """Fixed per-task duration for every worker (scalar or one per worker)."""

    per_block: Union[float, tuple] = 1.0

    def __post_init__(self):
        values = (
            (self.per_block,) if isinstance(self.per_block, (int, float)) else self.per_block
        )
        if any(v <= 0 for v in values):
            raise ValueError("per-block times must be positive")


@dataclass(frozen=True)
class HaltAfter:
    """Workers in ``stragglers`` stop after ``blocks`` completed tasks; every
    completed task takes ``per_block`` seconds."""

    stragglers: tuple
    blocks: int = 0
    per_block: float = 1.0

    def __post_init__(self):
        if self.blocks < 0:
            raise ValueError("blocks must be >= 0")
        if self.per_block <= 0:
            raise ValueError("per_block must be positive")


SpeedModel = Union[ShiftedExponential, Deterministic, HaltAfter]

# trials simulated per batch of durations and completion times
_BATCH = 64


def raw_durations(speed: SpeedModel, n: int, ell: int, seeds: Sequence[int]) -> np.ndarray:
    """(len(seeds), n, ell) per-task durations before cost weighting, one
    (n, ell) slice per trial seed; inf marks tasks a halted worker never
    completes. Slice j depends only on (n, ell, seeds[j]) and on no plan,
    which is what makes paired trials comparable. Deterministic and
    halt-after models return one read-only (n, ell) array broadcast over
    the seeds."""
    if isinstance(speed, ShiftedExponential):
        mult = np.ones(n) if speed.multipliers is None else np.asarray(speed.multipliers, dtype=float)
        if mult.shape != (n,):
            raise ValueError(f"need {n} multipliers, got {mult.shape}")
        dur = np.empty((len(seeds), n, ell))
        for j, s in enumerate(seeds):
            dur[j] = np.random.default_rng(s).exponential(size=(n, ell))
        dur /= (speed.rate * mult)[:, None]
        dur += speed.shift
        return dur
    if isinstance(speed, Deterministic):
        if isinstance(speed.per_block, (int, float)):
            per = np.full(n, float(speed.per_block))
        else:
            per = np.asarray(speed.per_block, dtype=float)
            if per.shape != (n,):
                raise ValueError(f"need {n} per-block times, got {per.shape}")
        one = np.repeat(per[:, None], ell, axis=1)
    elif isinstance(speed, HaltAfter):
        bad = [i for i in speed.stragglers if not 0 <= i < n]
        if bad:
            raise ValueError(f"straggler index {bad[0]} outside [0, {n})")
        one = np.full((n, ell), speed.per_block)
        for i in speed.stragglers:
            one[i, min(speed.blocks, ell) :] = np.inf
    else:
        raise TypeError(f"unknown speed model {speed!r}")
    return np.broadcast_to(one, (len(seeds), n, ell))


# ---------------------------------------------------------------------------
# cost models


@dataclass(frozen=True)
class Uniform:
    """Every task costs the same."""


@dataclass(frozen=True)
class SparsityAware:
    """Per-block nonzero counts; an uncoded task costs the count of its
    block, a coded task the size of the union of the supports it combines.
    Blocks are disjoint row ranges, so that union is the sum of the counts
    of the combined blocks; coefficient cancellations earn no discount."""

    nnz: tuple

    def __post_init__(self):
        if any(v < 0 for v in self.nnz):
            raise ValueError("nonzero counts must be non-negative")


CostModel = Union[Uniform, SparsityAware]


def task_weight(cost: CostModel, task) -> float:
    if isinstance(cost, Uniform):
        return 1.0
    if isinstance(cost, SparsityAware):
        if isinstance(task, Uncoded):
            return float(cost.nnz[task.block])
        return float(sum(cost.nnz[b] for b in task.support))
    raise TypeError(f"unknown cost model {cost!r}")


# ---------------------------------------------------------------------------
# trials


@dataclass(frozen=True)
class TrialResult:
    finish_time: float
    final_state: tuple
    blocks_processed_total: int
    decode_ok: bool


def task_weights(plan: AssignmentPlan, cost: CostModel) -> np.ndarray:
    """(n, ell) cost weights of the plan's tasks, worker-major.

    Raises:
        ValueError: a sparsity-aware cost that does not list one nonzero
            count per block of the plan.
    """
    if isinstance(cost, SparsityAware) and len(cost.nnz) != plan.params.delta:
        raise ValueError(
            f"sparsity-aware cost lists {len(cost.nnz)} nonzero counts, "
            f"plan has delta = {plan.params.delta} blocks"
        )
    return np.array(
        [[task_weight(cost, t) for t in tasks] for tasks in plan.workers], dtype=float
    )


def run_trial(decodable, times: np.ndarray, events: Sequence[int]) -> TrialResult:
    """Walk one simulated job's completion events.

    ``times`` is the trial's (n, ell) array of completion times and
    ``events`` lists the flat worker-major indices i * ell + k of its
    finite completions in the order they happen. ``decodable`` decides a
    state tuple of the plan (a checker's ``decodable``, memoised or not).

    The master decodes at the first event whose state is decodable. If even
    the final reachable state cannot decode, the result reports
    decode_ok = False with finish_time = inf.
    """
    n, ell = times.shape
    state = [0] * n
    for e in events:
        i, k = divmod(e, ell)
        state[i] = k + 1
        reached = tuple(state)
        if decodable(reached):
            return TrialResult(
                finish_time=float(times[i, k]),
                final_state=reached,
                blocks_processed_total=sum(state),
                decode_ok=True,
            )
    return TrialResult(
        finish_time=math.inf,
        final_state=tuple(state),
        blocks_processed_total=sum(state),
        decode_ok=False,
    )


def _trials(decodable, weights: np.ndarray, speed: SpeedModel, seeds: Sequence[int]):
    """Yield one :func:`run_trial` result per seed, in seed order, for the
    plan whose :func:`task_weights` are ``weights``; ``_BATCH`` seeds share
    one pass of array operations (see the module docstring)."""
    n, ell = weights.shape
    for lo in range(0, len(seeds), _BATCH):
        dur = raw_durations(speed, n, ell, seeds[lo : lo + _BATCH])
        # a task never completed stays at inf; masking never forms inf * 0
        times = np.full(dur.shape, np.inf)
        np.multiply(dur, weights, out=times, where=~np.isinf(dur))
        np.cumsum(times, axis=2, out=times)
        # stable: equal times keep the worker-major (worker, position) order,
        # and the infinite times of unreachable tasks sort last
        flat = times.reshape(len(dur), n * ell)
        order = np.argsort(flat, axis=1, kind="stable")
        counts = np.isfinite(flat).sum(axis=1).tolist()
        for j, count in enumerate(counts):
            yield run_trial(decodable, times[j], order[j, :count].tolist())


@dataclass(frozen=True)
class TrialRow:
    plan_id: str
    trial: int
    finish_time: float
    blocks_total: int
    decode_ok: bool


@dataclass(frozen=True)
class PlanSummary:
    plan_id: str
    trials: int
    mean_finish: float
    median_finish: float
    p95_finish: float
    failure_rate: float


def trial_seed(seed: int, trial: int) -> int:
    """Per-trial seed; deliberately independent of the plan so all plans in
    one experiment see identical raw duration draws."""
    if seed < 0 or trial < 0:
        raise ValueError("seed and trial index must be non-negative")
    return int(np.random.SeedSequence((seed, trial)).generate_state(1)[0])


def run_experiment(
    plans: Sequence[AssignmentPlan],
    speed: SpeedModel,
    cost: CostModel,
    trials: int,
    seed: int,
    plan_ids: Sequence | None = None,
):
    """Paired trials over several plans.

    Returns (rows, summaries); row order is plan-major, trial-minor.
    Summary statistics are over successful trials (inf when none succeed).
    Plans run one after another, each over every trial seed in batches of
    ``_BATCH`` (see :func:`_trials`); a trial's row is built as soon as it
    is walked, so only one batch of durations and completion times is
    alive at a time. Each plan gets one checker, memoised for its trials
    only: nothing is kept once the experiment returns.

    Raises:
        ValueError: trials < 1, mismatched plan_ids, or a cost model that
            does not fit a plan (see :func:`task_weights`).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if plan_ids is None:
        plan_ids = [f"plan_{i}" for i in range(len(plans))]
    if len(plan_ids) != len(plans):
        raise ValueError("plan_ids must match plans")
    seeds = [trial_seed(seed, t) for t in range(trials)]
    rows = []
    summaries = []
    for pid, plan in zip(plan_ids, plans):
        decodable = functools.cache(DecodabilityChecker(plan).decodable)
        weights = task_weights(plan, cost)
        finishes = []
        failures = 0
        for t, res in enumerate(_trials(decodable, weights, speed, seeds)):
            rows.append(
                TrialRow(
                    plan_id=pid,
                    trial=t,
                    finish_time=res.finish_time,
                    blocks_total=res.blocks_processed_total,
                    decode_ok=res.decode_ok,
                )
            )
            if res.decode_ok:
                finishes.append(res.finish_time)
            else:
                failures += 1
        if finishes:
            arr = np.array(finishes)
            summaries.append(
                PlanSummary(
                    plan_id=pid,
                    trials=trials,
                    mean_finish=float(arr.mean()),
                    median_finish=float(np.median(arr)),
                    p95_finish=float(np.percentile(arr, 95)),
                    failure_rate=failures / trials,
                )
            )
        else:
            summaries.append(
                PlanSummary(
                    plan_id=pid,
                    trials=trials,
                    mean_finish=math.inf,
                    median_finish=math.inf,
                    p95_finish=math.inf,
                    failure_rate=1.0,
                )
            )
    return rows, summaries


def rows_to_csv(rows: Iterable[TrialRow]) -> str:
    lines = ["plan_id,trial,finish_time,blocks_total,decode_ok"]
    for r in rows:
        ok = "true" if r.decode_ok else "false"
        lines.append(f"{r.plan_id},{r.trial},{r.finish_time!r},{r.blocks_total},{ok}")
    return "\n".join(lines) + "\n"


def summaries_to_csv(summaries: Iterable[PlanSummary]) -> str:
    lines = ["plan_id,trials,mean_finish,median_finish,p95_finish,failure_rate"]
    for s in summaries:
        lines.append(
            f"{s.plan_id},{s.trials},{s.mean_finish!r},{s.median_finish!r},"
            f"{s.p95_finish!r},{s.failure_rate!r}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# numeric decode


def split_matrix(rows: int, delta: int):
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
    out = []
    start = 0
    for b in range(delta):
        size = base + (1 if b < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


def real_coefficient(c: int) -> float:
    """Real image of a field coefficient: 1 / d for d = c^-1 mod P.

    Cauchy-built coefficients are stored as (x_i - y_j)^-1 with
    0 < x_i - y_j < P, so d recovers the original integer difference and
    the real matrix is the Cauchy matrix over the same parameters.
    """
    return 1.0 / pow(c % P, -1, P)


def _block_products(plan, A, x, pairs):
    """Products each completed task would transmit, keyed by (worker, pos)."""
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    ranges = split_matrix(A.shape[0], plan.params.delta)
    hmax = max(len(r) for r in ranges)
    cache = {}

    def block_product(b):
        if b not in cache:
            r = ranges[b]
            cache[b] = A[r.start : r.stop] @ x
        return cache[b]

    out = {}
    for i, k in pairs:
        t = plan.workers[i][k]
        if isinstance(t, Uncoded):
            out[(i, k)] = block_product(t.block)
        else:
            acc = np.zeros(hmax)
            for b, c in t.coeffs:
                p = block_product(b)
                acc[: len(p)] += real_coefficient(c) * p
            out[(i, k)] = acc
    return out


def decode_from_products(plan: AssignmentPlan, nrows: int, received) -> np.ndarray:
    """Master-side reconstruction of the full product vector.

    ``received`` is an iterable of (worker, position, product_vector). The
    plan's coefficients and the received vectors are the only inputs; the
    matrix itself is never touched here.

    Known uncoded products are copied verbatim (duplicates must agree
    bitwise). The unknown blocks are solved from a square system: its rows
    are the first received coded rows that are independent over GF(P) when
    restricted to the unknown blocks, in arrival order.

    Raises:
        NotDecodableError: the equation set has rank below delta.
        DecodeFailure: the chosen real system has condition number above
            1e12 (or not finite).
        ValueError: duplicated uncoded products disagree.
    """
    delta = plan.params.delta
    ranges = split_matrix(nrows, delta)
    hmax = max(len(r) for r in ranges)
    known = {}
    coded = []
    for i, k, vec in received:
        t = plan.workers[i][k]
        vec = np.asarray(vec, dtype=float)
        if isinstance(t, Uncoded):
            prev = known.get(t.block)
            if prev is not None and not np.array_equal(prev, vec):
                raise ValueError(
                    f"inconsistent duplicate products for block A_{t.block + 1}"
                )
            known[t.block] = vec
        else:
            coded.append((t.coeff_map(), vec))
    unknown = [b for b in range(delta) if b not in known]
    solved = {}
    if unknown:
        u = len(unknown)
        # coded rows restricted to the unknown blocks, as the checker ranks them
        field_rows = np.array(
            [[cm.get(b, 0) for b in unknown] for cm, _ in coded], dtype=np.int64
        ).reshape(len(coded), u)
        sel = pivots(field_rows.T)
        if len(sel) < u:
            raise NotDecodableError(
                "received equations do not determine every block product"
            )
        square = np.zeros((u, u))
        rhs = np.zeros((u, hmax))
        for r, ridx in enumerate(sel):
            cm, vec = coded[ridx]
            row_rhs = vec.copy()
            for b, c in cm.items():
                if b in known:
                    p = known[b]
                    row_rhs[: len(p)] -= real_coefficient(c) * p
            for j, b in enumerate(unknown):
                if b in cm:
                    square[r, j] = real_coefficient(cm[b])
            rhs[r] = row_rhs
        cond = float(np.linalg.cond(square))
        if not cond <= 1e12:
            raise DecodeFailure(cond)
        z = np.linalg.solve(square, rhs)
        for j, b in enumerate(unknown):
            solved[b] = z[j]
    parts = []
    for b in range(delta):
        h = len(ranges[b])
        vec = known[b] if b in known else solved[b]
        parts.append(np.asarray(vec)[:h])
    return np.concatenate(parts)


def numeric_decode(plan: AssignmentPlan, A, x, received) -> np.ndarray:
    """End-to-end check: compute the products the completed tasks would
    transmit, then reconstruct A @ x from those products alone.

    ``received`` is an iterable of (worker, position) pairs.
    """
    A = np.asarray(A, dtype=float)
    pairs = []
    seen = set()
    for i, k in received:
        if not 0 <= i < plan.n or not 0 <= k < plan.ell:
            raise ValueError(f"received task ({i}, {k}) outside the plan")
        if (i, k) not in seen:
            seen.add((i, k))
            pairs.append((i, k))
    prods = _block_products(plan, A, x, pairs)
    return decode_from_products(
        plan, A.shape[0], [(i, k, prods[(i, k)]) for i, k in pairs]
    )


def state_received(plan: AssignmentPlan, state: Sequence) -> list:
    """(worker, position) pairs a prefix state corresponds to."""
    out = []
    for i, w in enumerate(state):
        out.extend((i, k) for k in range(int(w)))
    return out
