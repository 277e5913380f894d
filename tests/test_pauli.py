from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import gm_to_complex, kron_letters, random_word, word_to_complex
from mgstate.pauli import (
    BoundExceeded,
    DimensionError,
    GaussianMatrix,
    PauliWord,
    _bits_to_index,
    ordered_product,
    pauli_sum,
)
from paper_data import TRIANGLE, TRIANGLE_S_WORDS


def all_words(n):
    for x in range(1 << n):
        for z in range(1 << n):
            for ph in range(4):
                yield PauliWord(n, x, z, ph)


def phaseless_words(n):
    for x in range(1 << n):
        for z in range(1 << n):
            yield PauliWord(n, x, z, 0)


def test_letter_round_trip():
    for letters in itertools.product("IXZY", repeat=3):
        w = PauliWord.from_letters("".join(letters))
        assert w.letters() == "".join(letters)
        assert w.letter_phase() == 0


def test_single_qubit_dense_values():
    assert np.array_equal(word_to_complex(PauliWord.from_letters("Y")), kron_letters("Y"))
    for c in "IXZ":
        assert np.array_equal(word_to_complex(PauliWord.from_letters(c)), kron_letters(c))
    # XZ stored with phase 0 renders as -iY
    w = PauliWord(1, 1, 1, 0)
    assert np.array_equal(word_to_complex(w), -1j * kron_letters("Y"))


def test_x_times_z_is_minus_i_y():
    x = PauliWord.from_letters("X")
    z = PauliWord.from_letters("Z")
    prod = x.mul(z)
    assert (prod.x, prod.z) == (1, 1)
    assert np.array_equal(word_to_complex(prod), -1j * kron_letters("Y"))


def test_sec2_product_phase_is_plus_i():
    p = PauliWord.from_letters("XZI")
    q = PauliWord.from_letters("IXZ")
    prod = p.mul(q)
    assert np.array_equal(word_to_complex(prod), 1j * kron_letters("XYZ"))


def test_mul_identity_keeps_phase():
    for w in all_words(2):
        ident = PauliWord.identity(2)
        assert w.mul(ident) == w
        assert ident.mul(w) == w


def test_mul_dense_oracle_exhaustive_n2():
    words = list(phaseless_words(2))
    dense = {(w.x, w.z): word_to_complex(w) for w in words}
    for p in words:
        for q in words:
            prod = p.mul(q)
            expect = dense[(p.x, p.z)] @ dense[(q.x, q.z)]
            assert np.array_equal(word_to_complex(prod), expect)


def test_mul_dense_oracle_random_n3(rng):
    for _ in range(1000):
        p, q = random_word(rng, 3), random_word(rng, 3)
        assert np.array_equal(
            word_to_complex(p.mul(q)), word_to_complex(p) @ word_to_complex(q)
        )


def test_mul_associative(rng):
    for _ in range(300):
        a, b, c = (random_word(rng, 3) for _ in range(3))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        PauliWord.identity(2).mul(PauliWord.identity(3))
    with pytest.raises(DimensionError):
        PauliWord.identity(2).commutes(PauliWord.identity(3))


def test_commutes_examples():
    x = PauliWord.from_letters("X")
    z = PauliWord.from_letters("Z")
    assert not x.commutes(z)
    assert x.commutes(x)
    # path-mixed rows: 0 and 2 commute, 1 and 2 commute, 0 and 1 do not
    r0 = PauliWord.from_letters("XZI")
    r1 = PauliWord.from_letters("IXZ")
    r2 = PauliWord.from_letters("IZX")
    assert r0.commutes(r2) and r1.commutes(r2)
    assert not r0.commutes(r1)


def test_commutes_dense_oracle_exhaustive_n2():
    words = list(phaseless_words(2))
    for p in words:
        for q in words:
            mp = word_to_complex(p) @ word_to_complex(q)
            mq = word_to_complex(q) @ word_to_complex(p)
            assert p.commutes(q) == np.array_equal(mp, mq)


def test_commutes_dense_oracle_sampled_n3(rng):
    for _ in range(400):
        p, q = random_word(rng, 3), random_word(rng, 3)
        mp = word_to_complex(p) @ word_to_complex(q)
        mq = word_to_complex(q) @ word_to_complex(p)
        assert p.commutes(q) == np.array_equal(mp, mq)


def triangle_duals():
    from mgstate import dual_stabilizer, parse_graph

    return dual_stabilizer(parse_graph(TRIANGLE))


def test_ordered_product_empty_is_identity():
    rows = triangle_duals()
    assert ordered_product(rows, []) == PauliWord.identity(3)


def test_ordered_product_triangle_listing():
    rows = triangle_duals()
    for bits, expect in TRIANGLE_S_WORDS.items():
        indices = [j for j, b in enumerate(bits) if b == "1"]
        assert str(ordered_product(rows, indices)) == expect


def test_ordered_product_out_of_range():
    rows = triangle_duals()
    with pytest.raises(IndexError):
        ordered_product(rows, [3])


def _reorder_sign(rows, left, right):
    """Independent oracle: bubble the concatenation left+right into sorted
    order with duplicate cancellation, counting anticommuting swaps."""
    seq = sorted(left) + sorted(right)
    sign = 0
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(seq):
            a, b = seq[i], seq[i + 1]
            if a == b:
                del seq[i : i + 2]
                changed = True
                continue
            if a > b:
                if not rows[a].commutes(rows[b]):
                    sign ^= 1
                seq[i], seq[i + 1] = b, a
                changed = True
            i += 1
    return sign


def test_ordered_product_group_law(rng):
    from mgstate import dual_stabilizer, parse_graph
    from paper_data import FOURNODE

    rows = dual_stabilizer(parse_graph(FOURNODE))
    n = 4
    for ka in range(1 << n):
        for kb in range(1 << n):
            left = [j for j in range(n) if (ka >> j) & 1]
            right = [j for j in range(n) if (kb >> j) & 1]
            combined = ordered_product(rows, [j for j in range(n) if ((ka ^ kb) >> j) & 1])
            product = ordered_product(rows, left).mul(ordered_product(rows, right))
            delta = (product.phase - combined.phase) % 4
            assert delta in (0, 2)
            assert (product.x, product.z) == (combined.x, combined.z)
            assert delta == 2 * _reorder_sign(rows, left, right)


def test_is_hermitian_examples():
    # dual rows (X Z / I X): their product is +-i (X x Y), not Hermitian;
    # scaling by a further +-i makes it Hermitian
    prod = ordered_product(
        [PauliWord.from_letters("XZ"), PauliWord.from_letters("IX")], [0, 1]
    )
    assert np.array_equal(word_to_complex(prod), 1j * kron_letters("XY"))
    assert not prod.is_hermitian()
    assert PauliWord(2, prod.x, prod.z, prod.phase + 1).is_hermitian()
    assert PauliWord.from_letters("XY").is_hermitian()
    assert PauliWord.identity(3).is_hermitian()


def test_is_hermitian_dense_oracle():
    for w in all_words(2):
        dense = word_to_complex(w)
        assert w.is_hermitian() == np.array_equal(dense, dense.conj().T)


def test_to_dense_examples():
    ii = PauliWord.from_letters("II")
    assert np.array_equal(word_to_complex(ii), np.eye(4))
    w = PauliWord.from_letters("YXZ", phase=2)  # -Y x X x Z
    assert np.array_equal(word_to_complex(w), -kron_letters("YXZ"))


def test_to_dense_bound(monkeypatch):
    monkeypatch.setenv("MGSTATE_MAX_QUBITS", "2")
    with pytest.raises(BoundExceeded):
        PauliWord.identity(3).to_dense()
    monkeypatch.setenv("MGSTATE_MAX_QUBITS", "3")
    PauliWord.identity(3).to_dense()


def _random_terms(rng, n):
    # x-parts come from a pool of two, so several words share their nonzero
    # positions and entries accumulate (and sometimes cancel)
    pool = [rng.randrange(1 << n) for _ in range(2)]
    return [
        (PauliWord(n, rng.choice(pool), rng.randrange(1 << n), rng.randrange(4)), rng.randrange(4))
        for _ in range(rng.randrange(1, 9))
    ]


def test_pauli_sum_matches_term_by_term_accumulation(rng):
    for n in range(1, 6):
        for _ in range(20):
            terms = _random_terms(rng, n)
            terms.append((terms[0][0], terms[0][1] + 2))  # cancels one term
            acc = np.zeros((1 << n, 1 << n), complex)
            for w, k in terms:
                dense = w.to_dense()
                acc += 1j**k * (dense.re + 1j * dense.im)
            got = pauli_sum(n, terms)
            assert got.denom_log2 == 0
            assert np.array_equal(got.re, acc.real) and np.array_equal(got.im, acc.imag)
            oracle = sum(
                1j**k * kron_letters(w.letters(), 1j ** w.letter_phase()) for w, k in terms
            )
            assert np.array_equal(gm_to_complex(got), oracle)
    # every term on the diagonal: entries reach +-(number of terms)
    n = 6
    terms = [(PauliWord(n, 0, z, 0), 0) for z in range(1 << n)] * 3
    got = pauli_sum(n, terms)
    assert got.re.dtype == np.int64 and got.re[0, 0] == 3 << n
    oracle = 3 * sum(kron_letters(w.letters()) for w, _ in terms[:1 << n])
    assert np.array_equal(gm_to_complex(got), oracle)


def test_pauli_sum_empty_and_bound(monkeypatch):
    zeros = np.zeros((4, 4), np.int64)
    assert pauli_sum(2, []) == GaussianMatrix(zeros, zeros, 0)
    monkeypatch.setenv("MGSTATE_MAX_QUBITS", "2")
    with pytest.raises(BoundExceeded):
        pauli_sum(3, [(PauliWord.identity(3), 0)])
    monkeypatch.setenv("MGSTATE_MAX_QUBITS", "3")
    i_times_identity = GaussianMatrix(np.zeros((8, 8), np.int64), np.eye(8, dtype=np.int64), 0)
    assert pauli_sum(3, [(PauliWord.identity(3), 1)]) == i_times_identity


def test_gaussian_matrix_arithmetic():
    a = GaussianMatrix(np.array([[2, 0], [0, 2]]), np.zeros((2, 2), int), 1)
    b = GaussianMatrix(np.eye(2, dtype=int), np.zeros((2, 2), int), 0)
    assert a == b
    assert a.matmul(b) == b
    assert a.trace_is_one() is False
    assert b.divided_by_pow2(1).trace_is_one()


def test_gaussian_matrix_json_round_trip():
    m = PauliWord.from_letters("XY").to_dense().divided_by_pow2(2)
    d = m.to_json_dict()
    entries = np.array(d["entries"])
    assert d["dim"] == 4 and entries.shape == (4, 4, 2)
    assert m == GaussianMatrix(entries[..., 0], entries[..., 1], d["denom_log2"])


def test_gaussian_text_grid():
    m = PauliWord.from_letters("Y").to_dense()
    assert m.to_text_grid() == " 0 -i\n i  0"


def _gaussian_text_oracle(re: int, im: int) -> str:
    """Reference for the grid's entry text, written case by case."""
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, f"{im}i")
    mag = abs(im)
    return f"{re}{'+' if im > 0 else '-'}{'i' if mag == 1 else f'{mag}i'}"


def test_text_grid_matches_entry_by_entry_oracle(rng):
    for n in (1, 2, 3):
        dim = 1 << n
        re = np.array([[rng.randint(-12, 12) for _ in range(dim)] for _ in range(dim)])
        im = np.array([[rng.choice((0, 0, 1, -1, rng.randint(-12, 12))) for _ in range(dim)]
                       for _ in range(dim)])
        distinct = np.arange(dim * dim).reshape(dim, dim) - dim  # every entry distinct
        wide = np.array([[rng.choice((1, -1)) * rng.randint(0, 10 ** 15) for _ in range(dim)]
                         for _ in range(dim)])
        zero = np.zeros((dim, dim), dtype=np.int64)
        cases = [(re, im), (distinct, distinct.T), (distinct, zero), (zero, -distinct),
                 (wide, wide.T), (wide, zero), ((1 << 62) - re, im - (1 << 62)), (zero, zero)]
        for (re, im), d in itertools.product(cases, (0, 3)):
            rows = zip(re.tolist(), im.tolist())
            cells = [list(map(_gaussian_text_oracle, r, i)) for r, i in rows]
            width = max(len(s) for row in cells for s in row)
            body = "\n".join(" ".join(s.rjust(width) for s in row) for row in cells)
            want = f"1/{1 << d} *\n{body}" if d else body
            assert GaussianMatrix(re, im, d).to_text_grid() == want


# ---- the dense kernels against the loops they replaced ----


def _bits_to_index_loop(mask, n):
    idx = 0
    for j in range(n):
        if (mask >> j) & 1:
            idx |= 1 << (n - 1 - j)
    return idx


def test_bits_to_index_matches_per_bit_loop():
    for n in range(13):
        for mask in range(1 << n):
            assert _bits_to_index(mask, n) == _bits_to_index_loop(mask, n), (mask, n)
    assert _bits_to_index(1, 12) == 1 << 11 and _bits_to_index(1 << 11, 12) == 1


def _halving_normalized(m):
    re, im, d = m.re, m.im, m.denom_log2
    while d > 0 and not ((re & 1).any() or (im & 1).any()):
        re, im, d = re >> 1, im >> 1, d - 1
    return re, im, d


def test_normalized_matches_halving_loop(rng):
    zeros = np.zeros((4, 4), np.int64)
    even = np.full((4, 4), 6, np.int64)
    cases = [
        GaussianMatrix(even, zeros, 0),  # denominator 0: nothing to halve
        GaussianMatrix(zeros, zeros, 5),  # all zero: the whole denominator goes
        GaussianMatrix(zeros, zeros, 0),
        GaussianMatrix(np.array([[-8, 4], [0, -16]]), np.array([[0, -4], [4, 0]]), 3),
        GaussianMatrix(np.array([[-8, 0], [0, -16]]), np.array([[0, -24], [8, 0]]), 2),
        GaussianMatrix(np.array([[-(1 << 40), 0], [0, 0]]), np.zeros((2, 2), np.int64), 60),
    ]
    for _ in range(200):
        dim = 1 << rng.randrange(0, 4)
        k = rng.randrange(0, 6)
        re = np.array([[rng.randrange(-9, 10) << k for _ in range(dim)] for _ in range(dim)])
        im = np.array([[rng.choice((0, rng.randrange(-9, 10))) << rng.randrange(k, 7)
                        for _ in range(dim)] for _ in range(dim)])
        cases.append(GaussianMatrix(re, im, rng.randrange(0, 9)))
    shifted = 0
    for m in cases:
        re, im, d = _halving_normalized(m)
        got = m.normalized()
        assert got.denom_log2 == d and np.array_equal(got.re, re) and np.array_equal(got.im, im)
        assert got.re.dtype == np.int64 and got.im.dtype == np.int64
        if d == m.denom_log2:
            assert got is m
        shifted += d < m.denom_log2
    assert 20 < shifted < len(cases) - 20
