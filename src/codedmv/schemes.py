"""Plan constructions.

Four families:

  * ``cyclic_uncoded(n, r)``: delta = n, worker i holds blocks
    i, i+1, ..., i+r-1 (mod n), top to bottom.
  * ``cyclic_coded(n, r_u, ell_c, placement)``: the cyclic uncoded layout
    for the replicated part plus ell_c coded rows per worker, placed at the
    bottom or at the top. Bottom rows are masked so a worker never codes
    over blocks it already stores uncoded; top rows keep full support
    (the worker has established nothing when it processes them, so every
    unknown must stay reachable).
  * ``mds_plan(n, ell, delta)``: the dense baseline; every task is a
    full-support coded row, any delta received rows decode.

Coefficients come from a Cauchy matrix over GF(P): entry (i, j) is the
field inverse of x_i - y_j with all parameters distinct, which makes every
square submatrix invertible. Rows are consumed worker-major in ascending
index so identical inputs always produce bit-identical plans.
"""

from __future__ import annotations

from .core import AssignmentPlan, Coded, Placement, SystemParams, Uncoded
from .field import P, inv


def cauchy(m: int, k: int) -> tuple:
    """Deterministic m x k Cauchy matrix over GF(P), as a tuple of m rows
    of k residues: entry (i, j) is (x_i - y_j)^-1 with y_j = j and
    x_i = k + i.

    The m + k parameters are the integers 0 .. m + k - 1, hence pairwise
    distinct residues as long as m + k < P.

    Raises:
        ValueError: m + k >= P, or non-positive dimensions.
    """
    if m < 1 or k < 1:
        raise ValueError("cauchy needs m >= 1 and k >= 1")
    if m + k >= P:
        raise ValueError(f"m + k = {m + k} must stay below the field size {P}")
    return tuple(tuple(inv(k + i - j) for j in range(k)) for i in range(m))


def cyclic_uncoded(n: int, r: int) -> AssignmentPlan:
    """Cyclic uncoded plan with delta = n and replication factor r.

    Raises:
        ValueError: unless 1 <= r <= n.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r = {r}, n = {n}")
    params = SystemParams(
        n=n, delta=n, ell_u=r, ell_c=0, r_u=r, placement=Placement.UNCODED_ONLY
    )
    workers = tuple(
        tuple(Uncoded((i + t) % n) for t in range(r)) for i in range(n)
    )
    return AssignmentPlan(params=params, workers=workers)


def _coded_task(row: tuple, excluded: frozenset) -> Coded:
    coeffs = tuple((b, c) for b, c in enumerate(row) if b not in excluded)
    return Coded(coeffs)


def cyclic_coded(n: int, r_u: int, ell_c: int, placement: Placement) -> AssignmentPlan:
    """Cyclic plan with r_u-replicated uncoded blocks plus ell_c coded rows
    per worker, at the bottom or the top. delta is fixed to n.

    With ell_c = 0 this degenerates to :func:`cyclic_uncoded`.

    Raises:
        ValueError: parameter combinations outside the construction.
    """
    if placement not in (Placement.CODED_BOTTOM, Placement.CODED_TOP):
        raise ValueError("placement must be coded-bottom or coded-top")
    params = SystemParams(
        n=n, delta=n, ell_u=r_u, ell_c=ell_c, r_u=r_u, placement=placement
    )
    if r_u == 0 and ell_c == 0:
        raise ValueError("need at least one of r_u, ell_c positive")
    if ell_c == 0:
        return cyclic_uncoded(n, r_u)
    mat = cauchy(n * ell_c, n)
    bottom = placement is Placement.CODED_BOTTOM
    workers = []
    for i in range(n):
        uncoded = [Uncoded((i + t) % n) for t in range(r_u)]
        excluded = frozenset((i + t) % n for t in range(r_u)) if bottom else frozenset()
        coded = [
            _coded_task(mat[i * ell_c + j], excluded) for j in range(ell_c)
        ]
        if bottom:
            workers.append(tuple(uncoded + coded))
        else:
            workers.append(tuple(coded + uncoded))
    return AssignmentPlan(params=params, workers=tuple(workers))


def mds_plan(n: int, ell: int, delta: int) -> AssignmentPlan:
    """Dense baseline: n*ell full-support coded rows over delta blocks.

    Raises:
        ValueError: when n*ell < delta (not enough rows to ever decode).
    """
    if ell < 1 or delta < 1 or n < 1:
        raise ValueError("n, ell and delta must be positive")
    if n * ell < delta:
        raise ValueError(f"need n*ell >= delta, got {n * ell} < {delta}")
    params = SystemParams(
        n=n, delta=delta, ell_u=0, ell_c=ell, r_u=0, placement=Placement.FULLY_CODED
    )
    mat = cauchy(n * ell, delta)
    workers = tuple(
        tuple(_coded_task(mat[i * ell + j], frozenset()) for j in range(ell))
        for i in range(n)
    )
    return AssignmentPlan(params=params, workers=workers)
