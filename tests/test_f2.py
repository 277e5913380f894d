from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import span_of_basis
from mgstate.f2 import (
    BinMatrix,
    bits_of,
    bitstring,
    in_rowspan,
    kernel,
    kernel_batch,
    mask_dtype,
    mask_of,
    parity,
    rank,
    rref,
    rref_batch,
    solve,
    span,
    span_batch,
    symplectic_basis,
)


def test_bitstring_matches_per_bit_reference(rng):
    for n in (0, 1, 64, 256):
        for _ in range(200):
            v = rng.randrange(1 << n) if rng.random() < 0.9 else rng.randrange(1 << (n + 8))
            assert bitstring(v, n) == "".join(str((v >> j) & 1) for j in range(n))
    assert bitstring(0, 0) == bitstring(5, 0) == ""
    assert BinMatrix((0b011, 0b100), 3).row_strings() == ["110", "001"]


def test_is_symmetric_matches_transpose(rng):
    for n in (0, 1, 64, 256):
        for nrows, cols in ((n, n), (n + 1, n), (n, n + 1)):
            for _ in range(8):
                m = BinMatrix(tuple(rng.randrange(1 << cols) for _ in range(nrows)), cols)
                if nrows == cols and rng.random() < 0.6:  # A + A^T plus a diagonal
                    diag = rng.randrange(1 << n)
                    m = BinMatrix(tuple(r ^ (diag & 1 << i) for i, r in enumerate(
                        m.add(m.transpose()).rows)), n)
                    if n > 1 and rng.random() < 0.5:  # one mirror bit off
                        i, j = rng.sample(range(n), 2)
                        m = BinMatrix(m.rows[:i] + (m.rows[i] ^ 1 << j,) + m.rows[i + 1:], n)
                assert m.is_symmetric() == (m == m.transpose())


def rref_column_scan(rows, cols):
    """The oracle: for each column in turn, take the first unused row with a
    1 there as its pivot row, move it up, and clear the column in every other
    row.  O(cols x rows) column tests whatever the rank."""
    work = list(rows)
    pivots = []
    for col in range(cols):
        found = next((r for r in range(len(pivots), len(work)) if (work[r] >> col) & 1), None)
        if found is None:
            continue
        top = len(pivots)
        work[top], work[found] = work[found], work[top]
        for r in range(len(work)):
            if r != top and (work[r] >> col) & 1:
                work[r] ^= work[top]
        pivots.append(col)
    return work[:len(pivots)], pivots


def check_elimination(rows, cols):
    """``rref`` against the oracle, and what ``kernel`` and ``in_rowspan``
    derive from it against their definitions."""
    reduced, pivots = rref(rows, cols)
    assert (reduced, pivots) == rref_column_scan(rows, cols)
    m = BinMatrix(tuple(rows), cols)
    ker = kernel(m).rows
    assert len(ker) == cols - len(pivots)
    assert all(m.mul_vec(v) == 0 for v in ker)
    for v in list(rows[:3]) + [rows[0] ^ 1 << (cols - 1) if rows and cols else 0]:
        assert in_rowspan(v, rows, cols) == (len(rref(list(rows) + [v], cols)[0]) == len(reduced))


def mixed_rows(rng, cols, count):
    """Random rows with zero, unit, duplicate and dependent (sum) rows mixed in."""
    rows = []
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            rows.append(0)
        elif kind == 1 and cols:
            rows.append(1 << rng.randrange(cols))
        elif kind == 2 and rows:
            rows.append(rng.choice(rows))
        elif kind == 3 and rows:
            rows.append(rng.choice(rows) ^ rng.choice(rows))
        else:
            rows.append(rng.randrange(1 << cols))
    return rows


def test_rref_matches_column_scan_seeded(rng):
    for cols in range(301):
        check_elimination(mixed_rows(rng, cols, rng.randrange(13)), cols)
    for _ in range(100):  # wide and low rank, like Gamma: few rows, many sums of them
        cols = rng.randrange(1, 301)
        base = mixed_rows(rng, cols, rng.randrange(1, 5))
        sums = [rng.choice(base) ^ rng.choice(base) for _ in range(rng.randrange(20))]
        check_elimination(base + sums, cols)


@st.composite
def row_lists(draw):
    cols = draw(st.integers(0, 300))
    unit = st.integers(0, cols - 1).map(lambda j: 1 << j) if cols else st.just(0)
    rows = draw(st.lists(st.one_of(st.integers(0, (1 << cols) - 1), unit), max_size=10))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6)):
        if rows:  # a duplicate when i == j, else a sum of two rows
            rows.append(rows[i % len(rows)] ^ (rows[j % len(rows)] if i != j else 0))
    return rows, cols


@settings(max_examples=200, deadline=None, database=None)
@given(row_lists())
def test_rref_matches_column_scan(rows_cols):
    check_elimination(*rows_cols)


def test_rref_rejects_rows_out_of_range():
    for rows, cols in (([1], 0), ([8], 3), ([0, 1 << 300], 300), ([-1], 3), ([3, 1 << 40], 40)):
        with pytest.raises(ValueError, match="out of range"):
            rref(rows, cols)
    assert rref([7], 3) == ([7], [0])


def test_rank_zero_matrix():
    assert rank(BinMatrix((0, 0, 0), 3)) == 0


def test_rank_identity():
    assert rank(BinMatrix.identity(5)) == 5


def test_rank_fournode_gamma():
    g = BinMatrix.from_lists([[0, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]])
    assert rank(g) == 4


def test_kernel_triangle_gamma():
    g = BinMatrix.from_lists([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    k = kernel(g)
    assert k.rows == (0b111,)


def test_kernel_times_matrix_is_zero(rng):
    for _ in range(100):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = BinMatrix(tuple(rng.randrange(1 << ncols) for _ in range(nrows)), ncols)
        k = kernel(m)
        for v in k.rows:
            assert m.mul_vec(v) == 0
        assert len(k.rows) == ncols - rank(m)


def test_row_reduce_idempotent(rng):
    for _ in range(50):
        rows = [rng.randrange(16) for _ in range(4)]
        reduced, pivots = rref(rows, 4)
        assert rref(reduced, 4) == (reduced, pivots)
        assert len(reduced) == rank(BinMatrix(tuple(rows), 4))


def test_span_and_rowspan():
    rows = [0b011, 0b101]
    sp = span(rows, 3)
    assert len(sp) == 4
    for v in sp:
        assert in_rowspan(v, rows, 3)
    assert not in_rowspan(0b001, rows, 3)


def test_solve_consistent_and_inconsistent():
    a = BinMatrix.from_lists([[1, 1, 0], [0, 1, 1]])
    x = solve(a, 0b11)
    assert x is not None and a.mul_vec(x) == 0b11
    b = BinMatrix.from_lists([[1, 1, 0], [1, 1, 0]])
    assert solve(b, 0b01) is None
    for extra in span(kernel(a).rows, 3):
        assert a.mul_vec(x ^ extra) == 0b11


def test_matmul_transpose_submatrix():
    m = BinMatrix.from_lists([[1, 0, 1], [0, 1, 1]])
    mt = m.transpose()
    assert mt.to_lists() == [[1, 0], [0, 1], [1, 1]]
    prod = m.matmul(mt)
    assert prod.to_lists() == [[0, 1], [1, 0]]
    sub = m.submatrix([1], [0, 2])
    assert sub.to_lists() == [[0, 1]]


def test_symplectic_basis_properties(rng):
    for _ in range(60):
        n = rng.randrange(2, 7)
        rows = [0] * n
        for j in range(n):
            for k in range(j + 1, n):
                if rng.random() < 0.5:
                    rows[j] |= 1 << k
                    rows[k] |= 1 << j
        gamma = BinMatrix(tuple(rows), n)
        pairs, ker = symplectic_basis(gamma)

        def form(u, v):
            return parity(u & gamma.mul_vec(v))

        flat = [w for p in pairs for w in p] + list(ker)
        assert len(rref(flat, n)[0]) == n  # full basis
        for i, (a, b) in enumerate(pairs):
            assert form(a, b) == 1
            for j, (c, d) in enumerate(pairs):
                if i != j:
                    assert form(a, c) == form(a, d) == form(b, c) == form(b, d) == 0
        for v in ker:
            assert gamma.mul_vec(v) == 0
        assert 2 * len(pairs) + len(ker) == n


def test_bits_helpers():
    assert bits_of(0b1011) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011


@pytest.mark.parametrize("width", [0, 1, 64, 256])
def test_bits_of_and_transpose_match_per_bit_reference(rng, width):
    for nrows, density in ((0, 0.5), (9, 0.02), (9, 0.5), (width, 0.02)):
        rows = tuple(
            mask_of(j for j in range(width) if rng.random() < density) for _ in range(nrows)
        )
        for r in rows:
            assert bits_of(r) == [j for j in range(width) if (r >> j) & 1]
        cols = tuple(
            mask_of(i for i in range(nrows) if (rows[i] >> j) & 1) for j in range(width)
        )
        assert BinMatrix(rows, width).transpose() == BinMatrix(cols, nrows)


def test_binmatrix_validation():
    with pytest.raises(ValueError):
        BinMatrix((4,), 2)


@pytest.mark.parametrize("width", [0, 1, 5, 12, 62, 63, 130])
def test_batched_rref_kernel_and_span_match_row_by_row(rng, width):
    # int64 masks up to 62 bits, Python ints in object arrays past that
    for r in (0, 1, 3, 7):
        rows = [[rng.randrange(1 << width) if rng.random() < 0.8 else 0 for _ in range(r)]
                for _ in range(40)]
        rows.append([rng.randrange(1 << width)] * r)  # dependent rows
        batch = np.array(rows, dtype=mask_dtype(width)).reshape(len(rows), r)
        reduced, ranks = rref_batch(batch, width)
        assert reduced.shape == batch.shape and reduced.dtype == batch.dtype
        for row, got, got_rank in zip(rows, reduced.tolist(), ranks.tolist()):
            want = rref(row, width)[0]
            assert got == want + [0] * (r - len(want)) and got_rank == len(want)
        full = [rref(row, width)[0] for row in rows]
        full = [basis for basis in full if len(basis) == min(r, width)]
        if not full or len(full[0]) > 6:
            continue
        bases = np.array(full, dtype=mask_dtype(width)).reshape(len(full), -1)
        assert span_batch(bases).tolist() == [span_of_basis(basis) for basis in full]
        kernels = kernel_batch(bases, width).tolist()
        assert kernels == [list(kernel(BinMatrix(tuple(basis), width)).rows) for basis in full]


def test_span_is_the_sorted_span_of_the_rref(rng):
    for width in (0, 3, 10, 70):
        for _ in range(20):
            rows = [rng.randrange(1 << width) for _ in range(rng.randrange(5))]
            assert span(rows, width) == span_of_basis(rref(rows, width)[0])
