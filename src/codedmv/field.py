"""Exact arithmetic over the prime field GF(P), P = 2**31 - 1.

All coding coefficients and decodability rank checks live in this field;
:func:`pivots` is the one elimination every rank question goes through.
With elements reduced to [0, P), a product of two elements stays below
2**62, so plain int64 numpy arithmetic is exact and no big-integer
fallback is needed.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

P: int = 2**31 - 1


def inv(a: int) -> int:
    """Multiplicative inverse of ``a`` in GF(P).

    Raises:
        ZeroDivisionError: if ``a`` reduces to zero.
    """
    a %= P
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(P)")
    return pow(a, -1, P)


def pivots(mat: NDArray[np.int64] | list) -> list:
    """Pivot columns of an integer matrix over GF(P), by Gaussian elimination.

    These are the first linearly independent columns, in order: column j
    is a pivot iff it is not a combination of the columns before it. The
    input is copied and reduced mod P; it is never mutated.
    """
    m = np.array(mat, dtype=np.int64) % P
    if m.ndim != 2:
        raise ValueError("pivots expects a 2-D matrix")
    n_rows, n_cols = m.shape
    out = []
    for c in range(n_cols):
        r = len(out)
        if r == n_rows:
            break
        nonzero = np.nonzero(m[r:, c])[0]
        if nonzero.size == 0:
            continue
        p_row = r + int(nonzero[0])
        if p_row != r:
            m[[r, p_row]] = m[[p_row, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, P) % P
        below = np.nonzero(m[r + 1 :, c])[0] + r + 1
        if below.size:
            m[below] = (m[below] - np.outer(m[below, c], m[r])) % P
        out.append(c)
    return out


def rank(mat: NDArray[np.int64] | list) -> int:
    """Rank of an integer matrix over GF(P); see :func:`pivots`."""
    return len(pivots(mat))
