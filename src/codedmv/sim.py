"""Worker simulation and the end-to-end numeric decode path.

Worker i's k-th task completes at the cumulative sum of its per-task
durations, each duration being a raw speed draw scaled by the cost weight
of that task; the master stops at the first completion after which the
plan can decode. Trials run in batches of ``_BATCH`` seeds, and every plan
of an experiment runs each batch before the next batch is drawn. Trial t's
seed is the first word of ``SeedSequence((seed, t))``, and its durations
come from the stream of ``default_rng`` of that seed, bit for bit; yet no
trial builds either. SeedSequence's hash and PCG64's seeding are fixed
integer steps, so :mod:`codedmv.seeding` takes them on uint32 arrays:
once for every trial seed of the experiment, once per batch for the
generators' states. One generator per batch is then set to each seed's
state in turn. Each seed's standard-exponential stream is drawn once, as
wide as the largest n * ell of the plans, and a plan of shape (n, ell)
reads the first n * ell values of it. Per plan and batch, one masked
multiply weights the raw durations (a task a halted worker never reaches
stays at inf), one cumulative sum gives the completion times and one
stable argsort over the worker-major flat task index orders the events.
Ties in time therefore fall in (worker, position) order. Inverting that
order gives each task's place among its trial's events. On a plan whose checker is ``count_exact``
(every plan :mod:`codedmv.schemes` builds, designed or relabelled), a
state decodes exactly when its coded rows plus its known blocks number at
least delta. Each coded task adds one at its place and each block one at
the place of its first uncoded copy (one ``min`` over the checker's holder
table), so the decoding event is the delta-th smallest of those places,
taken for the whole batch by one ``np.partition``; a trial whose decoding
event lies past its finite events fails. Any other plan walks each trial's
finite events (:func:`run_trial`): every event takes the plan checker's
O(1) step of the state's summary, and the checker's rule ranks only where
its count cannot decide. Both give the place of the decoding event, from
which one tail takes finish time, blocks processed and final state.
An experiment keeps three (plans, trials) columns of results. Summaries
read the median and p95 off one sort by the arithmetic of ``np.median``
and ``np.percentile``, bit for bit, as those two import ``numpy.ma`` on
first use (12-16 ms); the mean stays on the unsorted times, as its
pairwise sum depends on order. The speed and cost models check their
fields when made, and :func:`run_experiment` its ``trials`` and ``seed``:
a count, index or seed must be an integer (Python or numpy), a time, rate
or multiplier a finite real number; a bool, a string or an integer too
large for a float is a ValueError.

The numeric path maps each field coefficient c to the real number
1 / d where d is the canonical representative of c^-1 in GF(P). For
coefficients produced by the Cauchy construction d is exactly x_i - y_j,
so the real and field matrices share the same parameters and the same
generic rank profile. The plan's checker tabulates the real coefficients,
supports and uncoded blocks of every task when it is built. The one
decode, :func:`numeric_decode`, models the master: it computes the block
products, builds the vectors the received tasks transmit from them, and
solves from those alone. The block products are two stacked matmuls, one
over the blocks a row taller than the rest and one over the rest: numpy
runs BLAS gemv once per stacked block, so each product has the bits of
``A_b @ x``, where one gemv over all of ``A`` groups rows (in fours, in
OpenBLAS) across block boundaries and changes them. It solves from the
rows that :meth:`~codedmv.core.DecodabilityChecker.solving_rows` picks,
the rank case of the decodability rule: the first received coded rows
independent over GF(P) on the unknown blocks, in arrival order, taken
without elimination when the certificate vouches for them. Block
products, right-hand sides and solved blocks must be finite. The real
square system on those rows is solved only when its condition number
(the ratio of its extreme singular values, without ``np.linalg.cond``'s
wrapper) is at most 1e12; above that the decode is refused as
numerically unsafe (DecodeFailure). Below that bound no residual is
checked, so the error of a returned vector grows with the condition number.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import AssignmentPlan, DecodabilityChecker, _integer, check_state
from .seeding import pcg64_states, trial_seeds


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


def _number(value, what: str) -> float:
    """``value`` as a float: a finite real number, never a bool.

    Raises:
        ValueError: anything else, an integer too large for a float included.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            raise ValueError(f"{what} must be a finite number, got one too large for a float") from None
        if math.isfinite(out):
            return out
    raise ValueError(f"{what} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ShiftedExponential:
    """Per-task duration shift + Exp(rate * multiplier_i); multipliers > 1
    speed a worker up, < 1 slow it down (e.g. 0.2 for a straggler)."""

    shift: float = 1.0
    rate: float = 1.0
    multipliers: tuple | None = None

    def __post_init__(self):
        if not _number(self.shift, "shift") >= 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
        if not _number(self.rate, "rate") > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.multipliers is not None and not all(
            _number(m, "every multiplier") > 0 for m in self.multipliers
        ):
            raise ValueError(f"multipliers must be positive, got {self.multipliers}")


@dataclass(frozen=True)
class Deterministic:
    """Fixed per-task duration for every worker (scalar or one per worker)."""

    per_block: Union[float, tuple] = 1.0

    def __post_init__(self):
        values = self.per_block if np.ndim(self.per_block) else (self.per_block,)
        if not all(_number(v, "per_block") > 0 for v in values):
            raise ValueError(f"per-block times must be positive, got {self.per_block}")


@dataclass(frozen=True)
class HaltAfter:
    """Workers in ``stragglers`` stop after ``blocks`` completed tasks; every
    completed task takes ``per_block`` seconds."""

    stragglers: tuple = ()
    blocks: int = 0
    per_block: float = 1.0

    def __post_init__(self):
        for v in self.stragglers:
            _integer(v, "every straggler")
        if _integer(self.blocks, "blocks") < 0:
            raise ValueError("blocks must be >= 0")
        if not _number(self.per_block, "per_block") > 0:
            raise ValueError(f"per_block must be positive, got {self.per_block}")


SpeedModel = Union[ShiftedExponential, Deterministic, HaltAfter]

# trials simulated per batch of durations and completion times
_BATCH = 256


def raw_durations(speed: SpeedModel, shapes: Iterable[tuple], seeds: Sequence[int]) -> dict:
    """Per-task durations before cost weighting for one batch of trial
    seeds: {(n, ell): (len(seeds), n, ell) array} for every (n, ell) in
    ``shapes``; inf marks tasks a halted worker never completes.

    Shifted-exponential speeds draw each seed's standard-exponential stream
    once, as wide as the largest n * ell in ``shapes``, from one generator
    per batch set to the seed's PCG64 state (see
    :func:`~codedmv.seeding.pcg64_states`): bit for bit the values of
    ``default_rng(seed).exponential``, whose scale of 1.0 multiplies
    exactly. Slice j of shape (n, ell) holds the first n * ell values of
    seed j's stream in worker-major order, scaled by 1 / (rate * multiplier)
    per worker and shifted; a generator fills its output sequentially, so
    those values equal a draw of size (n, ell) from the same seed, whatever
    the other shapes are. They depend on no plan, which is what makes
    paired trials comparable. Deterministic and halt-after models return,
    per shape, one read-only (n, ell) array broadcast over the seeds.

    Raises:
        ValueError: multipliers or per-worker times that do not list one
            value per worker of a shape, a straggler index outside it, or
            a seed that is not a non-negative integer.
    """
    shapes = list(dict.fromkeys(shapes))
    if not isinstance(speed, ShiftedExponential):
        return {
            (n, ell): np.broadcast_to(_fixed_durations(speed, n, ell), (len(seeds), n, ell))
            for n, ell in shapes
        }
    scales = {}
    for n, ell in shapes:
        mult = np.ones(n) if speed.multipliers is None else np.asarray(speed.multipliers, dtype=float)
        if mult.shape != (n,):
            raise ValueError(f"need {n} multipliers, got {mult.shape}")
        scales[n, ell] = (speed.rate * mult)[:, None]
    stream = np.empty((len(seeds), max((n * ell for n, ell in shapes), default=0)))
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).standard_exponential
    # a new generator buffers no uint32, so only the 128-bit words change
    doc = bits.state
    for j, (state, inc) in enumerate(pcg64_states(seeds)):
        doc["state"] = {"state": state, "inc": inc}
        bits.state = doc
        draw(out=stream[j])
    out = {}
    for (n, ell), scale in scales.items():
        dur = stream[:, : n * ell].reshape(len(seeds), n, ell) / scale
        dur += speed.shift
        out[n, ell] = dur
    return out


def _fixed_durations(speed: SpeedModel, n: int, ell: int) -> np.ndarray:
    """The (n, ell) durations of a deterministic or halt-after model."""
    if isinstance(speed, Deterministic):
        per = np.asarray(speed.per_block, dtype=float)
        if per.ndim == 0:
            per = np.full(n, per)
        elif per.shape != (n,):
            raise ValueError(f"need {n} per-block times, got {per.shape}")
        return np.repeat(per[:, None], ell, axis=1)
    if isinstance(speed, HaltAfter):
        bad = [i for i in speed.stragglers if not 0 <= i < n]
        if bad:
            raise ValueError(f"straggler index {bad[0]} outside [0, {n})")
        one = np.full((n, ell), float(speed.per_block))
        for i in speed.stragglers:
            one[i, min(speed.blocks, ell) :] = np.inf
        return one
    raise TypeError(f"unknown speed model {speed!r}")


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
        counts = [_integer(v, "every nonzero count") for v in self.nnz]
        if any(v < 0 for v in counts):
            raise ValueError("nonzero counts must be non-negative")
        # bounds every task's weight, which task_weights makes a float
        _number(sum(counts), "the total nonzero count")


CostModel = Union[Uniform, SparsityAware]


# ---------------------------------------------------------------------------
# trials


def task_weights(plan: AssignmentPlan, cost: CostModel) -> np.ndarray:
    """(n, ell) cost weights of the plan's tasks, worker-major.

    Sparsity-aware weights sum the counts of the checker's ``blocks`` and
    ``support`` as exact integers and are made floats at the end.

    Raises:
        ValueError: a sparsity-aware cost that does not list one nonzero
            count per block of the plan.
    """
    if isinstance(cost, Uniform):
        return np.ones((plan.n, plan.ell))
    if not isinstance(cost, SparsityAware):
        raise TypeError(f"unknown cost model {cost!r}")
    nnz = cost.nnz
    if len(nnz) != plan.params.delta:
        raise ValueError(
            f"sparsity-aware cost lists {len(nnz)} nonzero counts, "
            f"plan has delta = {plan.params.delta} blocks"
        )
    checker, nnz = plan.checker, np.array([int(v) for v in nnz], dtype=object)
    blocks = np.array(checker.blocks, dtype=np.intp)
    weights = np.where(blocks < 0, checker.support @ nnz, nnz[blocks])
    return weights.astype(float).reshape(plan.n, plan.ell)


def run_trial(checker: DecodabilityChecker, events: Sequence[int]) -> int:
    """The place in ``events`` of the first event after which the plan
    decodes, or ``len(events)`` if none does.

    ``events`` lists the flat worker-major indices i * ell + k of one
    trial's finite completions in the order they happen; each worker's
    tasks complete in position order. ``checker`` is the plan's
    :class:`~codedmv.core.DecodabilityChecker`: each event takes the
    checker's O(1) step of the state's summary, and
    :meth:`~codedmv.core.DecodabilityChecker.decide` decides the state.
    """
    ell, prefixes, decide = checker.ell, checker.prefix, checker.decide
    state = [0] * checker.n
    mask, coded = 0, 0
    for j, e in enumerate(events):
        i, k = divmod(e, ell)
        state[i] = k + 1
        prefix = prefixes[i]
        u, c = prefix[k + 1]
        mask, coded = mask | u, coded + c - prefix[k][1]
        if decide(mask, coded, state):
            return j
    return len(events)


def _trials(checker: DecodabilityChecker, weights: np.ndarray, dur: np.ndarray):
    """The trials of ``dur``, a batch of :func:`raw_durations` of the
    plan's shape, for the plan whose checker is ``checker`` and whose
    :func:`task_weights` are ``weights``. Returns, in seed order, arrays of
    finish times (inf where the plan never decodes), blocks processed,
    decode_ok and the (batch, n) final states.

    The batch shares one pass of array operations (see the module
    docstring). Each trial's decoding place is, on a plan whose checker is
    ``count_exact``, the delta-th smallest place among its coded tasks and
    its blocks' first uncoded copies, taken for the whole batch at once;
    on any other plan, :func:`run_trial`'s walk of the trial.
    """
    batch, n, ell = dur.shape
    tasks = n * ell
    # a task never completed stays at inf; masking never forms inf * 0
    times = np.full(dur.shape, np.inf)
    np.multiply(dur, weights, out=times, where=~np.isinf(dur))
    np.cumsum(times, axis=2, out=times)
    # stable: equal times keep the worker-major (worker, position) order,
    # and the infinite times of unreachable tasks sort last
    flat = times.reshape(batch, tasks)
    order = np.argsort(flat, axis=1, kind="stable")
    counts = np.isfinite(flat).sum(axis=1)
    # pos[j, t]: the place of task t in trial j's events; column n * ell,
    # the sentinel that pads the holder table, never happens
    rows = np.arange(batch)
    pos = np.empty((batch, tasks + 1), dtype=np.intp)
    pos[:, tasks] = tasks
    pos[rows[:, None], order] = np.arange(tasks)
    if checker.count_exact:
        # coded rows plus known blocks reach delta at the decoding event:
        # a coded task adds one at its place and a block one at its first
        # copy's, so the delta-th smallest of those places is that event
        gains = np.concatenate(
            [pos[:, checker.coded_tasks], pos[:, checker.holders].min(axis=2)], axis=1
        )
        at = np.partition(gains, checker.delta - 1, axis=1)[:, checker.delta - 1]
    else:
        at = np.array([run_trial(checker, order[j, :c].tolist())
                       for j, c in enumerate(counts.tolist())], dtype=np.intp)
    ok = at < counts
    last = np.where(ok, at, counts - 1)
    # each event raises one worker by one task, in position order
    finish = np.where(ok, flat[rows, order[rows, last]], np.inf)
    states = (pos[:, :tasks].reshape(batch, n, ell) <= last[:, None, None]).sum(axis=2)
    return finish, last + 1, ok, states


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


@dataclass(frozen=True, eq=False)
class Trials:
    """An experiment's trials: per plan of ``plan_ids``, one row of each
    (plans, trials) column."""

    plan_ids: tuple
    finish: np.ndarray  # inf where the plan never decodes
    blocks: np.ndarray
    ok: np.ndarray

    def __iter__(self):
        """Each trial as a :class:`TrialRow`, plan-major, trial-minor."""
        columns = self.finish.tolist(), self.blocks.tolist(), self.ok.tolist()
        for pid, *plan in zip(self.plan_ids, *columns):
            yield from (TrialRow(pid, t, *row) for t, row in enumerate(zip(*plan)))


def run_experiment(
    plans: Sequence[AssignmentPlan],
    speed: SpeedModel,
    cost: CostModel,
    trials: int,
    seed: int,
    plan_ids: Sequence | None = None,
):
    """Paired trials over several plans.

    Returns (:class:`Trials`, summaries). Summary statistics are over
    successful trials (inf when none succeed). Trial t's seed is the first
    word of ``SeedSequence((seed, t))`` whatever the plan, so every plan
    reads the same durations (see :func:`~codedmv.seeding.trial_seeds`).
    The seeds run in batches of ``_BATCH``: one :func:`raw_durations` call
    per batch draws every plan's durations from one stream per seed, then
    each plan decides the batch (see :func:`_trials`) into its slice of the
    columns, so only one batch of durations and completion times is alive
    at a time (256 * n * ell values per array, about 250 KB at n = 40 and
    ell = 3). Each plan's trials share its memoised checker,
    ``plan.checker``, which remembers no answers.

    Raises:
        ValueError: trials or seed not an integer (a bool is not), trials
            < 1 or seed < 0; plan_ids that do not match plans, or that
            repeat an id or hold one that is not a str free of ``,``, ``"``,
            CR and LF (the CSV writers do not quote); or a speed or cost
            model that does not fit a plan (see :func:`raw_durations` and
            :func:`task_weights`).
    """
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if plan_ids is None:
        plan_ids = [f"plan_{i}" for i in range(len(plans))]
    if len(plan_ids) != len(plans):
        raise ValueError("plan_ids must match plans")
    for i, pid in enumerate(plan_ids):
        if not isinstance(pid, str) or any(ch in pid for ch in ',"\r\n'):
            raise ValueError(f"plan id {pid!r} is not a string free of ',', '\"', CR and LF")
        if pid in plan_ids[:i]:
            raise ValueError(f"plan id {pid!r} is repeated")
    seeds = trial_seeds(seed, range(trials))
    checkers = [plan.checker for plan in plans]
    weights = [task_weights(plan, cost) for plan in plans]
    shape = (len(plans), trials)
    finish, blocks, ok = np.empty(shape), np.empty(shape, dtype=np.intp), np.empty(shape, dtype=bool)
    for lo in range(0, trials, _BATCH):
        durs = raw_durations(speed, [w.shape for w in weights], seeds[lo : lo + _BATCH])
        cut = slice(lo, lo + _BATCH)
        for p, (checker, w) in enumerate(zip(checkers, weights)):
            finish[p, cut], blocks[p, cut], ok[p, cut], _ = _trials(checker, w, durs[w.shape])
    summaries = []
    for pid, f, o in zip(plan_ids, finish, ok):
        finishes = f[o]
        m = finishes.size
        stats = (math.inf,) * 3
        if m:
            s, x = np.sort(finishes), (m - 1) * 0.95
            lo = math.floor(x)
            a, b, g = s[lo], s[min(lo + 1, m - 1)], x - lo
            stats = (finishes.mean(), s[m // 2] if m % 2 else (s[m // 2 - 1] + s[m // 2]) / 2,
                     b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
        summaries.append(PlanSummary(pid, trials, *map(float, stats), (trials - m) / trials))
    return Trials(tuple(plan_ids), finish, blocks, ok), summaries


def rows_to_csv(rows: Trials) -> str:
    lines = ["plan_id,trial,finish_time,blocks_total,decode_ok"]
    columns = rows.finish.tolist(), rows.blocks.tolist(), np.where(rows.ok, "true", "false").tolist()
    for pid, *plan in zip(rows.plan_ids, *columns):
        lines += [f"{pid},{t},{f!r},{b},{o}" for t, (f, b, o) in enumerate(zip(*plan))]
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


def numeric_decode(plan: AssignmentPlan, A, x, received) -> np.ndarray:
    """End-to-end decode: compute each block product A_b @ x once, build the
    vector each received coded task transmits from them, then rebuild A @ x
    from the received tasks' products alone.

    The rows of ``A`` form delta contiguous blocks, A_1 on top; the first
    rows % delta blocks take one extra row. Each block product is one gemv
    of a stacked matmul, bit for bit ``A_b @ x`` (see the module docstring).

    ``received`` is an iterable of (worker, position) pairs; a repeated
    pair counts once, at its first occurrence. Received uncoded products
    are copied. The other blocks are solved from the received coded rows
    that :meth:`~codedmv.core.DecodabilityChecker.solving_rows` picks. A
    picked row's right-hand side is one running sum from 0: c_b * A_b x
    over the row's support in block order, which is the vector it
    transmits, then minus the known blocks' terms in block order.
    ``np.add.accumulate`` adds in that order, where ``np.add.reduce`` may
    pair the terms up. The condition number is the ratio of the extreme
    singular values, as ``np.linalg.cond`` takes it, nan read as inf.

    Raises:
        ValueError: ``A`` is not 2-D or has fewer rows than delta, ``x`` is
            not 1-D with one entry per column of ``A``, a pair lies outside
            the plan, or a block product, right-hand side or solved block
            is not finite.
        NotDecodableError: the received tasks do not determine every block.
        DecodeFailure: the chosen real system has condition number above
            1e12 (or not finite).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got {A.ndim} dimension(s)")
    x = np.asarray(x, dtype=float)
    if x.shape != A.shape[1:]:
        raise ValueError(
            f"vector must be 1-D with one entry per matrix column: got shape {x.shape}, "
            f"expected ({A.shape[1]},)"
        )
    (rows, cols), delta = A.shape, plan.params.delta
    if rows < delta:
        raise ValueError(f"need rows >= delta, got {rows} < {delta}")
    # block b's product in row b of products, 0 below its height
    base, extra = divmod(rows, delta)
    cut = extra * (base + 1)
    # need not warn: non-finite values are refused below; a 0 singular value gives cond inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        products = np.zeros((delta, base + (extra > 0)))
        if extra:
            products[:extra] = A[:cut].reshape(extra, base + 1, cols) @ x
        products[extra:, :base] = A[cut:].reshape(delta - extra, base, cols) @ x
        if not np.isfinite(products).all():
            bad = [f"A_{b + 1}" for b, p in enumerate(products) if not np.isfinite(p).all()]
            raise ValueError(f"non-finite block products: {', '.join(bad)}")
        checker = plan.checker
        n, ell, blocks = plan.n, plan.ell, checker.blocks
        known, coded = [False] * delta, []
        for i, k in dict.fromkeys((i, k) for i, k in received):
            if not 0 <= i < n or not 0 <= k < ell:
                raise ValueError(f"received task ({i}, {k}) outside the plan")
            j = i * ell + k
            if blocks[j] >= 0:
                known[blocks[j]] = True
            else:
                coded.append(j)
        unknown = [b for b, have in enumerate(known) if not have]
        if unknown:
            picked = checker.solving_rows(coded, unknown)
            if len(picked) < len(unknown):
                raise NotDecodableError("received equations do not determine every block product")
            sel = [coded[r] for r in picked]
            coeffs = checker.real[sel]
            # per picked row, the running sum's terms: 0, then c_b * A_b x for
            # b = 0 .. delta - 1 on its support, then -(c_b * A_b x) for each
            # known b, 0 elsewhere. x + -y is x - y bit for bit, and a sum that
            # starts at 0.0 never reaches -0.0, so a 0 term changes nothing:
            # the sum is the transmitted vector less the known blocks' terms in
            # block order, as a loop over them would form it
            terms = np.zeros((len(sel), 2 * delta + 1, products.shape[1]))
            sent = terms[:, 1 : delta + 1]
            np.multiply(coeffs[:, :, None], products, out=sent, where=checker.support[sel, :, None])
            np.negative(sent, out=terms[:, delta + 1 :], where=np.array(known)[:, None])
            rhs = np.add.accumulate(terms, axis=1)[:, -1]
            names = ", ".join(f"A_{b + 1}" for b in unknown)
            if not np.isfinite(rhs).all():
                raise ValueError(f"solving for {names} overflows: a right-hand side is not finite")
            square = coeffs[:, unknown]
            s = np.linalg.svd(square, compute_uv=False)
            cond = float(s[0] / s[-1])
            if not cond <= 1e12:
                raise DecodeFailure(math.inf if math.isnan(cond) else cond)
            products[unknown] = np.linalg.solve(square, rhs)
            if not np.isfinite(products).all():
                raise ValueError(f"solving for {names} overflows: the solution is not finite")
    return np.concatenate((products[:extra], products[extra:, :base]), axis=None)


def state_received(plan: AssignmentPlan, state: Sequence) -> list:
    """(worker, position) pairs a prefix state corresponds to.

    Raises:
        ValueError: a state that does not fit the plan (see
            :func:`~codedmv.core.check_state`).
    """
    return [(i, k) for i, w in enumerate(check_state(plan, state)) for k in range(w)]
