import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmv.field import P, inv, pivots, rank

from support import reference_rank


def det3(m):
    # independent 3x3 determinant over GF(P), permutation expansion
    total = 0
    for perm, sign in [
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ]:
        term = sign
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total % P


def test_inv_roundtrip():
    rng = np.random.default_rng(0)
    for a in rng.integers(1, P, size=50):
        assert int(a) * inv(int(a)) % P == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inv(0)
    with pytest.raises(ZeroDivisionError):
        inv(P)


def test_rank_identity_and_zero():
    assert rank(np.eye(4, dtype=np.int64)) == 4
    assert rank(np.zeros((3, 5), dtype=np.int64)) == 0


def test_rank_duplicate_rows():
    m = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]], dtype=np.int64)
    assert rank(m) == 2  # second row is twice the first


def test_rank_matches_det_oracle_3x3():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = rng.integers(0, P, size=(3, 3)).astype(np.int64)
        invertible = det3(m.tolist()) != 0
        assert (rank(m) == 3) == invertible


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_rank_planted(seed, r, extra_rows, extra_cols):
    # A = L @ R with identity corners has rank exactly r
    rng = np.random.default_rng(seed)
    m, n = r + extra_rows, r + extra_cols
    left = rng.integers(0, P, size=(m, r)).astype(object)
    right = rng.integers(0, P, size=(r, n)).astype(object)
    left[:r, :r] = np.eye(r, dtype=np.int64)
    right[:r, :r] = np.eye(r, dtype=np.int64)
    a = np.array([[int(v) % P for v in row] for row in (left @ right)], dtype=np.int64)
    assert rank(a) == r


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_rank_transpose_invariant(seed, m, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, P, size=(m, n)).astype(np.int64)
    assert rank(a) == rank(a.T)


def test_rank_does_not_mutate():
    m = np.array([[5, 7], [11, 13]], dtype=np.int64)
    before = m.copy()
    rank(m)
    assert np.array_equal(m, before)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_pivots_are_the_first_independent_columns(seed, n_rows, n_cols):
    # plant dependent columns: each column is, with probability 1/2, a
    # random GF(P) combination of the columns before it
    rng = np.random.default_rng(seed)
    cols = []
    planted = set()
    for j in range(n_cols):
        if cols and rng.random() < 0.5:
            coeffs = [int(c) for c in rng.integers(0, P, size=len(cols))]
            cols.append([sum(c * col[r] for c, col in zip(coeffs, cols)) % P
                         for r in range(n_rows)])
            planted.add(j)
        else:
            cols.append([int(v) for v in rng.integers(0, P, size=n_rows)])
    expect = [j for j in range(n_cols)
              if reference_rank(cols[: j + 1]) > reference_rank(cols[:j])]
    got = pivots(np.array(cols, dtype=np.int64).T)
    assert got == expect
    assert planted.isdisjoint(got)
    assert rank(np.array(cols, dtype=np.int64).T) == len(got)
