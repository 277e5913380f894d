from __future__ import annotations

import random

import pytest

from mgstate.f2 import (
    BinMatrix,
    bits_of,
    bitstring,
    in_rowspan,
    kernel,
    mask_of,
    parity,
    rank,
    rref,
    solve,
    span,
    symplectic_basis,
)


def test_bitstring_matches_per_bit_reference(rng):
    for n in (0, 1, 64, 256):
        for _ in range(200):
            v = rng.randrange(1 << n) if rng.random() < 0.9 else rng.randrange(1 << (n + 8))
            assert bitstring(v, n) == "".join(str((v >> j) & 1) for j in range(n))
    assert bitstring(0, 0) == bitstring(5, 0) == ""
    assert BinMatrix((0b011, 0b100), 3).row_strings() == ["110", "001"]


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
