"""Core data model: system parameters, tasks, assignment plans, states.

An assignment plan gives every worker an ordered list of block-row tasks,
processed strictly top to bottom. A computation state is a plain tuple of
per-worker processed-task counts; decodability of a state is a monotone,
exact predicate over GF(P). When the plan's coded rows are certified to
form a Cauchy matrix and each coded row covers every block its worker has
not delivered uncoded above it (every plan :mod:`codedmv.schemes` builds
does both), it is a count of rows against unknown blocks; otherwise it is
a GF(P) rank, taken by the elimination that also picks the rows numeric
decode solves from. Both facts, and every table the rule and the decode
read, are made in one pass over the tasks and whole-plan array
operations over the coefficients, each distinct one inverted once, by
:class:`DecodabilityChecker`, whose :meth:`~DecodabilityChecker.decide`
is the one rule.

Conventions:
  * block indices are 0-based in code and in the JSON interchange format;
    human-readable output (CLI grids, violation messages) is 1-based,
    A_1 .. A_Delta;
  * coded coefficients are canonical residues in [1, P);
  * all types are immutable values after construction and safe to share
    across threads. A plan builds its :class:`DecodabilityChecker` at the
    first use of ``plan.checker`` and keeps it; the checker holds only
    tables of the plan and remembers no answers, so ``is_decodable`` and
    ``DecodabilityChecker.decodable`` are pure functions of (plan, state)
    and callers may parallelize over states freely.
"""

from __future__ import annotations

import json
import operator
import re
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from typing import Union

import numpy as np

from .field import P, pivots

StateVector = tuple  # per-worker processed-task counts, length n


class Placement(str, Enum):
    """Where coded tasks sit in each worker's processing order."""

    UNCODED_ONLY = "uncoded-only"
    CODED_BOTTOM = "coded-bottom"
    CODED_TOP = "coded-top"
    FULLY_CODED = "fully-coded"


@dataclass(frozen=True)
class SystemParams:
    """System tuple: worker count n, block count delta, per-worker uncoded
    and coded row counts ell_u / ell_c, uncoded replication factor r_u.

    Construction enforces the parameter-level invariants; plan-level
    structure is checked separately by :func:`validate_plan`.
    """

    n: int
    delta: int
    ell_u: int
    ell_c: int
    r_u: int
    placement: Placement

    def __post_init__(self):
        for name in ("n", "delta", "ell_u", "ell_c", "r_u"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.n < 1 or self.delta < 1:
            raise ValueError("n and delta must be positive")
        if self.ell_u < 0 or self.ell_c < 0 or self.r_u < 0:
            raise ValueError("ell_u, ell_c and r_u must be non-negative")
        if self.ell_u + self.ell_c > self.delta:
            raise ValueError(
                f"ell = {self.ell_u + self.ell_c} exceeds delta = {self.delta}"
            )
        if self.n * self.ell_u != self.delta * self.r_u:
            raise ValueError(
                f"n*ell_u = {self.n * self.ell_u} != delta*r_u = "
                f"{self.delta * self.r_u}"
            )
        if not isinstance(self.placement, Placement):
            raise ValueError(f"placement must be a Placement, got {self.placement!r}")
        if self.placement is Placement.UNCODED_ONLY and self.ell_c != 0:
            raise ValueError("uncoded-only placement requires ell_c = 0")
        if self.placement is Placement.FULLY_CODED and (self.ell_u or self.r_u):
            raise ValueError("fully-coded placement requires ell_u = r_u = 0")

    @property
    def ell(self) -> int:
        """Tasks per worker."""
        return self.ell_u + self.ell_c

    @property
    def gamma_u(self) -> Fraction:
        return Fraction(self.ell_u, self.delta)

    @property
    def gamma_c(self) -> Fraction:
        return Fraction(self.ell_c, self.delta)


@dataclass(frozen=True)
class Uncoded:
    """A task that computes one plain block-row product."""

    block: int

    def __post_init__(self):
        if not isinstance(self.block, int) or isinstance(self.block, bool) or self.block < 0:
            raise ValueError(f"block index must be a non-negative int, got {self.block!r}")


@dataclass(frozen=True)
class Coded:
    """A task that computes one linear combination of block-row products.

    ``coeffs`` is a tuple of (block, coefficient) pairs with strictly
    increasing blocks and coefficients that are canonical residues in
    [1, P). ``Coded(...)`` checks all of it; :func:`plan_from_dict`, which
    reduces a document's values to such pairs and has checked each one,
    builds its tasks with :meth:`_read`, which does not check again.
    """

    coeffs: tuple

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple):
            raise ValueError(
                f"coded task needs a tuple of (block, coefficient) pairs, got {type(self.coeffs).__name__}"
            )
        if not self.coeffs:
            raise ValueError("coded task needs a non-empty coefficient map")
        last = -1
        for pair in self.coeffs:
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ValueError(f"coded task needs (block, coefficient) pairs, got {pair!r}")
            b, c = pair
            if not isinstance(b, int) or isinstance(b, bool) or b < 0:
                raise ValueError(f"bad block index {b!r} in coded task")
            if b <= last:
                raise ValueError("coefficient blocks must be sorted and distinct")
            if not isinstance(c, int) or isinstance(c, bool) or not 0 < c < P:
                raise ValueError(f"coefficient for block {b} must be an integer in [1, P), got {c!r}")
            last = b

    @classmethod
    def _read(cls, coeffs: tuple) -> "Coded":
        """The task of pairs :func:`plan_from_dict` has checked, built
        without ``__post_init__``."""
        task = object.__new__(cls)
        object.__setattr__(task, "coeffs", coeffs)
        return task

    @property
    def support(self) -> tuple:
        return tuple(b for b, _ in self.coeffs)


Task = Union[Uncoded, Coded]


@dataclass(frozen=True)
class AssignmentPlan:
    """n ordered worker task lists, each processed top to bottom."""

    params: SystemParams
    workers: tuple  # tuple of n tuples of Task, each of length ell

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def ell(self) -> int:
        return self.params.ell

    @cached_property
    def checker(self) -> "DecodabilityChecker":
        """The plan's :class:`DecodabilityChecker`, built at the first access
        and kept with the plan; equality and hashing ignore it."""
        return DecodabilityChecker(self)


def _block_label(b: int) -> str:
    return f"A_{b + 1}"


def _outside(t: Task, delta: int) -> str | None:
    """The block a task names past A_delta, in :func:`validate_plan`'s
    words, or None."""
    if isinstance(t, Uncoded):
        if t.block < delta:
            return None
        what, bad = "uncoded block", t.block
    elif t.coeffs[-1][0] < delta:  # blocks increase: the last is the largest
        return None
    else:
        what, bad = "coded task references", next(b for b, _ in t.coeffs if b >= delta)
    return f"{what} {_block_label(bad)} outside [A_1, {_block_label(delta - 1)}]"


# per placement, the positions that a worker's m >= 1 coded tasks of ell take
_CODED_POSITIONS = {
    Placement.UNCODED_ONLY: lambda ell, m: [],
    Placement.CODED_BOTTOM: lambda ell, m: list(range(ell - m, ell)),
    Placement.CODED_TOP: lambda ell, m: list(range(m)),
    Placement.FULLY_CODED: lambda ell, m: list(range(ell)),
}


def validate_plan(plan: AssignmentPlan) -> list:
    """Check every structural invariant of a plan.

    Returns an empty list when the plan is well formed; otherwise one
    message per violation, naming the worker or block involved (1-based).
    Violations are data, not exceptions.
    """
    p = plan.params
    out = []
    if len(plan.workers) != p.n:
        out.append(f"plan lists {len(plan.workers)} workers, params say n = {p.n}")
    uncoded_counts = {}
    for i, tasks in enumerate(plan.workers):
        wid = i + 1
        if len(tasks) != p.ell:
            out.append(f"worker {wid}: holds {len(tasks)} tasks, expected ell = {p.ell}")
        n_u = sum(isinstance(t, Uncoded) for t in tasks)
        n_c = len(tasks) - n_u
        if n_u != p.ell_u or n_c != p.ell_c:
            out.append(
                f"worker {wid}: {n_u} uncoded / {n_c} coded tasks, "
                f"expected {p.ell_u} / {p.ell_c}"
            )
        seen = set()
        for t in tasks:
            if (outside := _outside(t, p.delta)) is not None:
                out.append(f"worker {wid}: {outside}")
            if isinstance(t, Uncoded):
                if t.block in seen:
                    out.append(
                        f"worker {wid}: duplicate uncoded block {_block_label(t.block)}"
                    )
                seen.add(t.block)
                uncoded_counts[t.block] = uncoded_counts.get(t.block, 0) + 1
        coded_pos = [k for k, t in enumerate(tasks) if isinstance(t, Coded)]
        if coded_pos and coded_pos != _CODED_POSITIONS[p.placement](len(tasks), len(coded_pos)):
            out.append(
                f"worker {wid}: coded task positions {coded_pos} do not match "
                f"placement {p.placement.value}"
            )
    if p.r_u > 0:
        for b in range(p.delta):
            c = uncoded_counts.get(b, 0)
            if c != p.r_u:
                out.append(
                    f"block {_block_label(b)}: replication count {c}, "
                    f"expected r_u = {p.r_u}"
                )
    return out


def _integer(value, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool.

    Raises:
        ValueError: anything else; a float is refused, never truncated.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _known_keys(doc: Mapping, keys: tuple, what: str):
    """Refuse a key of ``doc`` outside ``keys`` with a TypeError, as a
    keyword call would; ``what`` names the document in the message."""
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise TypeError(f"unknown {what} key {unknown[0]!r}; known keys are {', '.join(keys)}")


def check_state(plan: AssignmentPlan, state: Sequence) -> StateVector:
    """Validate a state against a plan; returns it as a tuple of ints.

    Raises:
        ValueError: wrong length, an entry that is not an integer (see
            :func:`_integer`), negative entries, or entries above ell.
    """
    w = tuple(_integer(v, f"state[{i}]") for i, v in enumerate(state))
    if len(w) != plan.n:
        raise ValueError(f"state has {len(w)} entries, plan has n = {plan.n} workers")
    for i, v in enumerate(w):
        if v < 0 or v > plan.ell:
            raise ValueError(f"state[{i}] = {v} outside [0, ell = {plan.ell}]")
    return w


class DecodabilityChecker:
    """Precomputed tables and the one decodability rule of a plan.

    ``__init__`` reads each task once, task i * ell + k being worker i's
    position k (a plan not listing n workers, a worker not holding ell
    tasks, or a task naming a block past A_delta, is a ValueError in
    :func:`validate_plan`'s words), into
    ``blocks[t]``, task t's uncoded block or -1 for a coded task, the
    other per-task tables below, and one list of the coded tasks'
    (block, c) pairs. The coefficient tables are whole-plan array
    operations on those pairs: one flat array of them, in task order, and
    one scatter of it fill ``field``, the (n * ell, delta) int64 array of
    the coded coefficients; ``support`` is its nonzero mask, and ``real``
    holds the numbers numeric decode uses in their place, 1 / d for
    d = c^-1 mod P (see :mod:`codedmv.sim`); both arrays are 0 off each
    support and on uncoded tasks. Each distinct coefficient is inverted
    once: an m x k Cauchy matrix on consecutive parameters, as
    :func:`codedmv.schemes.cauchy` builds it, holds at most m + k - 1
    distinct values. ``coded_tasks`` lists the coded tasks in task order,
    and row b of ``holders``, a (delta, max(1, most copies of a block))
    array, the tasks holding block b uncoded, padded with the sentinel
    n * ell; the batch of trials in :mod:`codedmv.sim` reads it.
    ``prefix[i][w]`` is the (uncoded block mask, coded row count) summary
    of worker i's first w tasks; a state's summary ORs the masks and adds
    the counts of one pair per worker.

    The build decides two facts. ``certified`` (see
    :func:`_cauchy_certified`, which reads the coded rows of ``support``
    and of the c^-1 table): values x_r per coded row r and y_j per block
    j with inv(c_{r,j}) = x_r - y_j (mod P) on every support entry,
    pairwise distinct within each connected piece of the row-block support
    graph, so every square submatrix is nonsingular. ``count_complete``:
    each coded task's support, ORed with the blocks its worker holds
    uncoded above it, covers every block; tasks arrive in prefix order, so
    every received coded row then holds every unknown block.
    ``count_exact`` is both facts together (every plan
    :mod:`codedmv.schemes` builds has it, an uncoded plan trivially): a
    state then decodes exactly when its coded rows plus its known blocks
    number at least delta, a count that :mod:`codedmv.sim` takes for a
    whole batch of trials at once.

    :meth:`decide` is the rule. A state with fewer coded rows than unknown
    blocks never decodes and one with no unknown block always does; on a
    ``count_exact`` plan, enough coded rows always decode. Any other state
    decodes when
    :meth:`solving_rows`, which picks the rows numeric decode solves from,
    finds as many independent received coded rows as unknown blocks.
    :meth:`decodable` combines a state's n prefix pairs. The trial walk of
    :mod:`codedmv.sim` and the threshold search of :mod:`codedmv.oracle`
    raise one worker i from w to w + 1 tasks at a time and step the summary
    in O(1) to ``mask | prefix[i][w + 1][0]`` and
    ``coded + prefix[i][w + 1][1] - prefix[i][w][1]`` (a worker's mask only
    grows along its prefix), which they pass to :meth:`decide`. The checker
    keeps no reference to the plan and remembers no answers; no method
    writes to its tables, so one checker, ``plan.checker``, serves every
    caller of a plan.
    """

    def __init__(self, plan: AssignmentPlan):
        p = plan.params
        n, ell, delta = p.n, p.ell, p.delta
        if len(plan.workers) != n:
            raise ValueError(f"plan lists {len(plan.workers)} workers, params say n = {n}")
        self.n, self.ell, self.delta = n, ell, delta
        blocks = [-1] * (n * ell)
        holders = [[] for _ in range(delta)]
        prefixes = []
        coeffs = []  # every coded task's (block, c) pairs, in task order
        for i, tasks in enumerate(plan.workers):
            if len(tasks) != ell:
                raise ValueError(f"worker {i + 1}: holds {len(tasks)} tasks, expected ell = {ell}")
            umask, coded = 0, 0
            prefix = [(umask, coded)]
            for k, t in enumerate(tasks):
                if (outside := _outside(t, delta)) is not None:
                    raise ValueError(f"worker {i + 1}: {outside}")
                if isinstance(t, Uncoded):
                    umask |= 1 << t.block
                    blocks[i * ell + k] = t.block
                    holders[t.block].append(i * ell + k)
                else:
                    coeffs.append(t.coeffs)
                    coded += 1
                prefix.append((umask, coded))
            prefixes.append(tuple(prefix))
        self.prefix = tuple(prefixes)
        self.blocks = tuple(blocks)
        width = max(1, *map(len, holders))
        self.holders = np.array([h + [n * ell] * (width - len(h)) for h in holders], dtype=np.intp)
        block = np.array(blocks, dtype=np.intp)
        self.coded_tasks = (block < 0).nonzero()[0]
        b, c = np.fromiter(chain.from_iterable(chain.from_iterable(coeffs)), np.int64).reshape(-1, 2).T
        task = self.coded_tasks.repeat([len(m) for m in coeffs])
        self.field = np.zeros((n * ell, delta), dtype=np.int64)
        self.field[task, b] = c
        self.support = self.field != 0
        values, at = np.unique(c, return_inverse=True)
        inverse = np.zeros_like(self.field)
        inverse[task, b] = np.array([pow(v, -1, P) for v in values.tolist()], dtype=np.int64)[at]
        self.real = np.divide(1.0, inverse, out=np.zeros(inverse.shape), where=self.support)
        self.certified = _cauchy_certified(inverse[self.coded_tasks], self.support[self.coded_tasks])
        uncoded = (block >= 0).nonzero()[0]
        onehot = np.zeros((n, ell, delta), dtype=bool)
        onehot.reshape(n * ell, delta)[uncoded, block[uncoded]] = True
        known = np.logical_or.accumulate(onehot, axis=1).reshape(n * ell, delta)  # held uncoded so far
        self.count_complete = bool((known | self.support)[self.coded_tasks].all())
        self.count_exact = self.certified and self.count_complete

    def decide(self, mask: int, coded: int, state: Sequence[int]) -> bool:
        """Decodability of ``state``, whose summary is uncoded mask ``mask``
        and ``coded`` coded rows."""
        missing = self.delta - mask.bit_count()
        if coded < missing:
            return False
        if missing == 0 or self.count_exact:
            return True
        return self._rank_decides(mask, state)

    def _rank_decides(self, mask: int, state: Sequence[int]) -> bool:
        """The rank case of :meth:`decide`: the state's received coded rows
        have full rank on its unknown blocks. Kept out of :meth:`decide`,
        whose locals the comprehensions would turn into cells."""
        ell, blocks = self.ell, self.blocks
        rows = [t for i, w in enumerate(state) for t in range(i * ell, i * ell + w) if blocks[t] < 0]
        unknown = [b for b in range(self.delta) if not mask >> b & 1]
        return len(self.solving_rows(rows, unknown)) == len(unknown)

    def solving_rows(self, rows: list, unknown: list) -> list:
        """Positions in ``rows``, distinct coded tasks, of the rows a state
        solves from: the first, in order, whose restrictions to the
        ``unknown`` blocks are independent over GF(P), as
        :func:`~codedmv.field.pivots` finds them.

        On a certified plan whose first len(unknown) rows each hold every
        unknown block, those rows are the answer without elimination: they
        share a block, so they lie in one Cauchy component, and restricted
        to the unknown blocks they form a square submatrix of it, which is
        nonsingular. Every other case runs ``pivots``.
        """
        u = len(unknown)
        if self.certified and len(rows) >= u and self.support.take(rows[:u], 0).take(unknown, 1).all():
            return list(range(u))
        return pivots(self.field.take(rows, 0).take(unknown, 1).T)

    def decodable(self, state: StateVector) -> bool:
        mask, coded = 0, 0
        for prefix, w in zip(self.prefix, state):
            u, c = prefix[w]
            mask |= u
            coded += c
        return self.decide(mask, coded, state)


def _cauchy_certified(inverse: np.ndarray, support: np.ndarray) -> bool:
    """True iff every connected piece of the coded rows is a Cauchy matrix
    over GF(P). ``support`` is the coded rows' (rows, delta) support mask
    and ``inverse`` holds inv(c_{r,j}) on it and 0 elsewhere.

    Walks the bipartite row-block support graph one connected component at
    a time, labelled by its first row, and one breadth-first level per
    numpy step. The walk keeps x_r per row and z_j = -y_j per block, so
    that x_r + z_j = inv(c_{r,j}) and a step from rows to blocks is the
    same rule as one back: the first row fixes x = 0, and every other row
    or block takes its value from one entry linking it to the level
    before. Consistent values are unique under that normalisation, so the
    answer is True exactly when every support entry agrees and no two
    rows, nor two blocks, share a (label, value) pair. Values of different
    components are never compared. Rows whose supports share a block lie in
    one component, so a set of received rows that all hold every unknown
    block restricts to a Cauchy submatrix of one.
    """
    rows, delta = support.shape
    mask, d = (support, support.T), (inverse, inverse.T)
    value = np.zeros(rows, dtype=np.int64), np.zeros(delta, dtype=np.int64)  # x, z
    label = np.full(rows, -1), np.full(delta, -1)
    for first in range(rows):
        if label[0][first] >= 0:
            continue
        label[0][first] = first
        level, side = np.array([first]), 0
        while level.size:
            held = mask[side][level]
            new = (held.any(axis=0) & (label[1 - side] < 0)).nonzero()[0]
            by = level[held[:, new].argmax(axis=0)]  # a level node linked to each new one
            label[1 - side][new] = first
            value[1 - side][new] = (d[side][by, new] - value[side][by]) % P
            level, side = new, 1 - side
    x, z = value
    if not np.array_equal((x[:, None] + z) % P * support, inverse):
        return False
    held = label[1] >= 0
    keys = (label[0] * P + x).tolist(), (label[1][held] * P + z[held]).tolist()
    return all(len(set(k)) == len(k) for k in keys)


def is_decodable(plan: AssignmentPlan, state: Sequence) -> bool:
    """True iff the master can recover every block product at ``state``.

    The unit rows of the known uncoded blocks together with the received
    coded rows must have rank delta over GF(P); equivalently, the coded
    rows restricted to the unknown columns must cover all the unknowns.
    On a plan that is Cauchy-certified and count-complete, that rank is the
    smaller of the two counts, so no elimination runs; see
    :class:`DecodabilityChecker`.

    The query goes to the plan's memoised checker, ``plan.checker``: its
    certificate and tables are built at the plan's first query or decode,
    and every answer is decided afresh.
    """
    w = check_state(plan, state)
    return plan.checker.decodable(w)


# comma-separated canonical decimals, each 0 or digits with no leading zero:
# coefficient keys, as plan_to_dict writes the blocks (so no two keys name one
# block), and ``decode --state`` counts; _INTEGERS allows a minus on each, for values
_DECIMALS = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")
_INTEGERS = re.compile(r"-?(?:0|[1-9][0-9]*)(?:,-?(?:0|[1-9][0-9]*))*")
# _INTEGERS with at most 18 digits a field, so every value fits int64:
# np.fromstring reads a field past int64 as its largest value, without a word
_BOUNDED = re.compile(r"-?(?:0|[1-9][0-9]{0,17})(?:,-?(?:0|[1-9][0-9]{0,17}))*")


def plan_to_dict(plan: AssignmentPlan) -> dict:
    """Plan as a JSON-ready dict; coefficients become decimal strings."""
    p = plan.params
    workers = []
    for tasks in plan.workers:
        row = []
        for t in tasks:
            if isinstance(t, Uncoded):
                row.append({"u": t.block})
            else:
                row.append({"c": {str(b): str(c) for b, c in t.coeffs}})
        workers.append(row)
    return {
        "params": {
            "n": p.n,
            "delta": p.delta,
            "ell_u": p.ell_u,
            "ell_c": p.ell_c,
            "r_u": p.r_u,
            "placement": p.placement.value,
        },
        "workers": workers,
    }


def plan_from_dict(doc: Mapping) -> AssignmentPlan:
    """Inverse of :func:`plan_to_dict`.

    Nothing is coerced or ignored: the document, its ``params`` and each
    task hold only the keys :func:`plan_to_dict` writes, and a task exactly
    one of ``u`` and ``c``; the ``params`` counts and every ``u`` block
    must be integers (not bools), a ``c`` a non-empty map, and a
    coefficient key the canonical decimal of a block, as
    :func:`plan_to_dict` writes it (``"1"``, never ``"01"``, ``" 1"`` or
    ``"+1"``), so no two keys can name one block. A coefficient is an
    integer or such a decimal with an optional minus sign, read mod P,
    where it must not vanish.

    Each distinct key set is checked, read and ordered once per document
    (dense rows share one). A task whose values have at most 18 digits
    each, as every designed plan's have, is read after the walk: all such
    values are parsed by one array parse into int64, reduced mod P, put in
    block order through the places kept for their key sets and checked
    for zeros at once. A longer value is read by ``int`` in document
    order. The tasks are built from these checked pairs without
    :class:`Coded`'s second check. A malformed document fails with the
    first error in document order, as if each task were read in turn.

    Raises:
        ValueError / KeyError: a wrong value or a missing field.
        AttributeError / TypeError: a document of the wrong shape, or an
            unknown key.
    """
    _known_keys(doc, ("params", "workers"), "plan")
    pd = doc["params"]
    _known_keys(pd, ("n", "delta", "ell_u", "ell_c", "r_u", "placement"), "params")
    counts = {k: pd[k] for k in ("n", "delta", "ell_u", "ell_c", "r_u")}
    params = SystemParams(**counts, placement=Placement(pd["placement"]))
    # joined key text -> (its blocks in increasing order, the places that sort them)
    orders = {}
    # the tasks read after the walk: their joined value texts, and for each
    # its key set's order, its worker's task list and its place there
    texts, deferred = [], []
    workers = []
    try:
        for row in doc["workers"]:
            tasks = []
            for t in row:
                _known_keys(t, ("u", "c"), "task")
                if "u" in t and "c" in t:
                    raise ValueError(f"task {t!r} names both u and c; give one")
                if "u" in t:
                    tasks.append(Uncoded(t["u"]))
                elif "c" in t:
                    coeffs = t["c"]
                    if not isinstance(coeffs, Mapping):
                        raise ValueError(f"coded task {t!r} needs a map from block numbers to "
                                         f"coefficients, got {type(coeffs).__name__}")
                    if not coeffs:
                        tasks.append(Coded(()))  # refuses {}
                        continue
                    # a key or value holding a comma would pass as two fields, so
                    # each joined text must hold fewer commas than there are entries;
                    # a text read before with as many entries passed that check
                    keys = ",".join(coeffs)
                    order = orders.get(keys)
                    if order is None or len(order[1]) != len(coeffs):
                        if not (_DECIMALS.fullmatch(keys) and keys.count(",") < len(coeffs)):
                            raise ValueError(
                                f"coefficient keys {list(coeffs)} must be block numbers such as "
                                "'0' or '12', with no sign, space or leading zero"
                            )
                        order = None
                    try:
                        values = ",".join(coeffs.values())
                    except TypeError:  # a value that is not a str: a JSON int, or one refused below
                        values = ",".join(map(str, coeffs.values()))
                    commas_ok = values.count(",") < len(coeffs)
                    if commas_ok and _BOUNDED.fullmatch(values):
                        if order is None:
                            blocks = list(map(int, coeffs))
                            places = sorted(range(len(blocks)), key=blocks.__getitem__)
                            orders[keys] = order = (tuple(blocks[i] for i in places), np.array(places))
                        texts.append(values)
                        deferred.append((order, tasks, len(tasks)))
                        tasks.append(None)
                        continue
                    if not (commas_ok and _INTEGERS.fullmatch(values)):
                        raise ValueError(
                            f"coefficients {list(coeffs.values())} must be integers or decimal strings "
                            "such as '7' or '-12', with no plus, space, underscore or leading zero"
                        )
                    if order is None:
                        # key, value, key, ...: a too-long decimal fails as it did
                        pairs = [(int(b), int(c)) for b, c in coeffs.items()]
                        places = sorted(range(len(pairs)), key=pairs.__getitem__)
                        orders[keys] = order = (tuple(pairs[i][0] for i in places), np.array(places))
                        read = [c for _, c in pairs]
                    else:
                        read = list(map(int, coeffs.values()))
                    blocks, places = order
                    cs = [read[i] % P for i in places.tolist()]
                    if 0 in cs:  # named here: the reduced value would not show what was given
                        raise ValueError(f"coefficient for block {blocks[cs.index(0)]} must be nonzero mod P")
                    tasks.append(Coded._read(tuple(zip(blocks, cs))))
                else:
                    raise ValueError(f"task {t!r} is neither uncoded nor coded")
            workers.append(tasks)
    except Exception:
        _read_deferred(texts, deferred)  # a zero in an earlier task is the first error
        raise
    _read_deferred(texts, deferred)
    return AssignmentPlan(params=params, workers=tuple(map(tuple, workers)))


def _read_deferred(texts: list, deferred: list):
    """Parse the joined value texts of :func:`plan_from_dict`'s deferred
    tasks at once, and put each task, in block order, in its place.

    Raises:
        ValueError: a value that vanishes mod P; the first such task in
            document order is named, at its first zero in block order.
    """
    if not texts:
        return
    values = np.fromstring(",".join(texts), dtype=np.int64, sep=",") % P
    sizes = [len(order[0]) for order, _, _ in deferred]
    ends = list(accumulate(sizes))
    starts = np.array(ends) - sizes
    cs = values[np.concatenate([order[1] for order, _, _ in deferred]) + np.repeat(starts, sizes)]
    if not cs.all():
        at = int(cs.argmin())  # the first zero: values are in [0, P)
        k = bisect_right(ends, at)
        raise ValueError(f"coefficient for block {deferred[k][0][0][at - starts[k]]} must be nonzero mod P")
    cs = cs.tolist()
    for ((blocks, _), tasks, i), hi in zip(deferred, ends):
        tasks[i] = Coded._read(tuple(zip(blocks, cs[hi - len(blocks):hi])))


def plan_to_json(plan: AssignmentPlan) -> str:
    """Canonical JSON text (sorted keys, two-space indent, newline-terminated),
    so identical plans serialize to identical bytes."""
    return json.dumps(plan_to_dict(plan), sort_keys=True, indent=2) + "\n"


def plan_from_json(text: str) -> AssignmentPlan:
    return plan_from_dict(json.loads(text))
