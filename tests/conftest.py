from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mgstate.pauli import GaussianMatrix, PauliWord, dense_conjugation
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
    return DensityMatrix(rho.n, conjugate_dense(rho.mat, w))


def random_word(rng, n: int) -> PauliWord:
    return PauliWord(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))


@pytest.fixture
def rng():
    import random

    return random.Random(20240811)
