from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mgstate.pauli import (
    GaussianMatrix,
    PauliWord,
    _parity_array,
    check_dense,
    dense_conjugation,
    i_power,
    state_index,
)
from mgstate.states import DensityMatrix

K_I = np.eye(2, dtype=complex)
K_X = np.array([[0, 1], [1, 0]], dtype=complex)
K_Z = np.array([[1, 0], [0, -1]], dtype=complex)
K_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
KRON = {"I": K_I, "X": K_X, "Z": K_Z, "Y": K_Y}


def kron_letters(letters: str, phase: complex = 1) -> np.ndarray:
    """Independent dense oracle: plain numpy Kronecker product."""
    out = np.array([[1]], dtype=complex)
    for c in letters:
        out = np.kron(out, KRON[c])
    return phase * out


def word_to_complex(w: PauliWord) -> np.ndarray:
    m = w.to_dense()
    return (m.re + 1j * m.im) / 2**m.denom_log2


def gm_to_complex(m: GaussianMatrix) -> np.ndarray:
    return (m.re + 1j * m.im) / 2**m.denom_log2


def rho_to_complex(rho: DensityMatrix) -> np.ndarray:
    return gm_to_complex(rho.mat)


def pauli_sum(n: int, terms) -> GaussianMatrix:
    """Dense oracle for the sum over (w, k) of i^k w, scattered with
    ``np.add.at``: w's nonzero entries sit at the qubit masks (c ^ x, c),
    state indices (index[c ^ x], index[c]), and equal i^(phase + k + 2
    z.c), and terms that share an x add up."""
    check_dense(16 << 2 * n, f"a dense rendering of {n} qubits")
    dim, index = 1 << n, state_index(n)
    cols = np.arange(dim, dtype=np.int64)
    xs = np.array([w.x for w, _ in terms], dtype=np.int64)
    zs = np.array([w.z for w, _ in terms], dtype=np.int64)
    ks = np.array([w.phase + k for w, k in terms], dtype=np.int64)
    flat = (index[xs[:, None] ^ cols] * dim + index).ravel()
    re_part, im_part = i_power(ks[:, None] + 2 * _parity_array(zs[:, None] & cols))
    re = np.zeros(dim * dim, dtype=np.int64)
    im = np.zeros(dim * dim, dtype=np.int64)
    np.add.at(re, flat, re_part.ravel())
    np.add.at(im, flat, im_part.ravel())
    return GaussianMatrix(re.reshape(dim, dim), im.reshape(dim, dim), 0)


def divided_by_pow2(m: GaussianMatrix, extra: int) -> GaussianMatrix:
    return GaussianMatrix(m.re, m.im, m.denom_log2 + extra)


def layout_of(m: GaussianMatrix) -> DensityMatrix:
    """m in the XOR-offset layout, on the offsets where it has a nonzero
    entry: V[d, c] = m[index[c ^ d], index[c]] over qubit masks d and c."""
    dim = m.dim
    index = state_index(dim.bit_length() - 1)
    cols = np.arange(dim)
    rows = cols[:, None] ^ cols  # rows[d, c] = c ^ d
    num = np.stack((m.re[index[rows], index], m.im[index[rows], index]))
    keep = np.flatnonzero(num.any(axis=(0, 2)))
    return DensityMatrix(dim.bit_length() - 1, keep, num[:, keep], m.denom_log2)


def conjugate_dense(m: GaussianMatrix, w: PauliWord) -> GaussianMatrix:
    """Dense oracle for w m w^dag: every row and column of m permuted by
    ``dense_conjugation`` and multiplied by the full 4^n sign matrix."""
    perm, flip = dense_conjugation(w, m.dim)
    signs = np.outer(flip, flip)
    return GaussianMatrix(
        m.re.take(perm, 0).take(perm, 1) * signs,
        m.im.take(perm, 0).take(perm, 1) * signs,
        m.denom_log2,
    )


def conjugated(rho: DensityMatrix, w: PauliWord) -> DensityMatrix:
    return layout_of(conjugate_dense(rho.mat, w))


def random_word(rng, n: int) -> PauliWord:
    return PauliWord(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))


@pytest.fixture
def rng():
    import random

    return random.Random(20240811)
