"""Core data model: system parameters, tasks, assignment plans, states.

An assignment plan gives every worker an ordered list of block-row tasks,
processed strictly top to bottom. A computation state is a plain tuple of
per-worker processed-task counts; decodability of a state is a monotone
predicate decided by an exact rank computation over GF(P).

Conventions:
  * block indices are 0-based in code and in the JSON interchange format;
    human-readable output (CLI grids, violation messages) is 1-based,
    A_1 .. A_Delta;
  * coded coefficients are canonical residues in [1, P);
  * all types are immutable values after construction and safe to share
    across threads; ``is_decodable`` is a pure function, so callers may
    parallelize over states freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

import numpy as np

from .field import P, rank

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
    def gamma(self) -> Fraction:
        """Storage fraction ell/delta, exact."""
        return Fraction(self.ell, self.delta)

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
        if not isinstance(self.block, int) or self.block < 0:
            raise ValueError(f"block index must be a non-negative int, got {self.block!r}")


@dataclass(frozen=True)
class Coded:
    """A task that computes one linear combination of block-row products.

    ``coeffs`` is a sorted tuple of (block, coefficient) pairs; coefficients
    are nonzero residues in GF(P).
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("coded task needs a non-empty coefficient map")
        blocks = [b for b, _ in self.coeffs]
        if blocks != sorted(set(blocks)):
            raise ValueError("coefficient blocks must be sorted and distinct")
        for b, c in self.coeffs:
            if not isinstance(b, int) or b < 0:
                raise ValueError(f"bad block index {b!r} in coded task")
            if not isinstance(c, int) or c % P == 0:
                raise ValueError(f"coefficient for block {b} must be nonzero mod P")

    @classmethod
    def from_map(cls, coeffs: Mapping[int, int]) -> "Coded":
        return cls(tuple(sorted((int(b), int(c) % P) for b, c in coeffs.items())))

    @property
    def support(self) -> tuple:
        return tuple(b for b, _ in self.coeffs)

    def coeff_map(self) -> dict:
        return dict(self.coeffs)


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


def _block_label(b: int) -> str:
    return f"A_{b + 1}"


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
            if isinstance(t, Uncoded):
                if t.block >= p.delta:
                    out.append(
                        f"worker {wid}: uncoded block {_block_label(t.block)} "
                        f"outside [A_1, {_block_label(p.delta - 1)}]"
                    )
                if t.block in seen:
                    out.append(
                        f"worker {wid}: duplicate uncoded block {_block_label(t.block)}"
                    )
                seen.add(t.block)
                uncoded_counts[t.block] = uncoded_counts.get(t.block, 0) + 1
            else:
                bad = [b for b in t.support if b >= p.delta]
                if bad:
                    out.append(
                        f"worker {wid}: coded task references "
                        f"{_block_label(bad[0])} outside [A_1, {_block_label(p.delta - 1)}]"
                    )
        coded_pos = [k for k, t in enumerate(tasks) if isinstance(t, Coded)]
        if coded_pos:
            if p.placement is Placement.CODED_BOTTOM:
                want = list(range(len(tasks) - len(coded_pos), len(tasks)))
            elif p.placement is Placement.CODED_TOP:
                want = list(range(len(coded_pos)))
            elif p.placement is Placement.FULLY_CODED:
                want = list(range(len(tasks)))
            else:
                want = []
            if coded_pos != want:
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
        stray = [b for b in uncoded_counts if b >= p.delta]
        for b in sorted(stray):
            out.append(f"block {_block_label(b)}: index outside [A_1, {_block_label(p.delta - 1)}]")
    return out


def check_state(plan: AssignmentPlan, state: Sequence) -> StateVector:
    """Validate a state against a plan; returns it as a tuple.

    Raises:
        ValueError: wrong length, negative entries, or entries above ell.
    """
    w = tuple(int(v) for v in state)
    if len(w) != plan.n:
        raise ValueError(f"state has {len(w)} entries, plan has n = {plan.n} workers")
    for i, v in enumerate(w):
        if v < 0 or v > plan.ell:
            raise ValueError(f"state[{i}] = {v} outside [0, ell = {plan.ell}]")
    return w


class DecodabilityChecker:
    """Precomputed fast path for repeated decodability queries on one plan.

    Builds per-worker prefix coverage bitmasks and a dense GF(P) matrix of
    all coded rows so a query costs one mask OR plus (only when coded rows
    are involved) one small rank computation.
    """

    def __init__(self, plan: AssignmentPlan):
        p = plan.params
        self.plan = plan
        self.delta = p.delta
        self.full_mask = (1 << p.delta) - 1
        rows = []
        self._umask = []
        self._crows = []
        for tasks in plan.workers:
            masks = [0]
            row_ids = [()]
            for t in tasks:
                if isinstance(t, Uncoded):
                    masks.append(masks[-1] | (1 << t.block))
                    row_ids.append(row_ids[-1])
                else:
                    masks.append(masks[-1])
                    vec = [0] * p.delta
                    for b, c in t.coeffs:
                        vec[b] = c % P
                    row_ids.append(row_ids[-1] + (len(rows),))
                    rows.append(vec)
            self._umask.append(masks)
            self._crows.append(row_ids)
        self._rows = np.array(rows, dtype=np.int64) if rows else np.zeros((0, p.delta), dtype=np.int64)
        self._memo = {}

    def decodable(self, state: StateVector) -> bool:
        hit = self._memo.get(state)
        if hit is not None:
            return hit
        mask = 0
        row_ids = []
        for i, w in enumerate(state):
            mask |= self._umask[i][w]
            row_ids.extend(self._crows[i][w])
        missing = self.delta - mask.bit_count()
        if missing == 0:
            result = True
        elif len(row_ids) < missing:
            result = False
        else:
            cols = [j for j in range(self.delta) if not mask >> j & 1]
            sub = self._rows[np.ix_(row_ids, cols)]
            result = rank(sub) == missing
        if len(self._memo) < 1 << 20:  # keep huge oracle sweeps bounded
            self._memo[state] = result
        return result


@lru_cache(maxsize=64)
def decodability_checker(plan: AssignmentPlan) -> DecodabilityChecker:
    """Cached checker per plan (plans are immutable, so sharing is safe)."""
    return DecodabilityChecker(plan)


def is_decodable(plan: AssignmentPlan, state: Sequence) -> bool:
    """True iff the master can recover every block product at ``state``.

    The unit rows of the known uncoded blocks together with the received
    coded rows must have rank delta over GF(P); equivalently, the coded
    rows restricted to the unknown columns must cover all the unknowns.
    """
    w = check_state(plan, state)
    return decodability_checker(plan).decodable(w)


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

    Raises:
        ValueError / KeyError: malformed documents.
    """
    pd = doc["params"]
    params = SystemParams(
        n=int(pd["n"]),
        delta=int(pd["delta"]),
        ell_u=int(pd["ell_u"]),
        ell_c=int(pd["ell_c"]),
        r_u=int(pd["r_u"]),
        placement=Placement(pd["placement"]),
    )
    workers = []
    for row in doc["workers"]:
        tasks = []
        for t in row:
            if "u" in t:
                tasks.append(Uncoded(int(t["u"])))
            elif "c" in t:
                tasks.append(Coded.from_map({int(b): int(c) for b, c in t["c"].items()}))
            else:
                raise ValueError(f"task {t!r} is neither uncoded nor coded")
        workers.append(tuple(tasks))
    return AssignmentPlan(params=params, workers=tuple(workers))


def plan_to_json(plan: AssignmentPlan) -> str:
    """Canonical JSON text (sorted keys, two-space indent, newline-terminated),
    so identical plans serialize to identical bytes."""
    return json.dumps(plan_to_dict(plan), sort_keys=True, indent=2) + "\n"


def plan_from_json(text: str) -> AssignmentPlan:
    return plan_from_dict(json.loads(text))
