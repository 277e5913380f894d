"""Exact n-qubit Pauli operators in binary symplectic form.

A word is stored as ``i**phase * (X^x Z^z)`` where ``x`` and ``z`` are
bitsets (bit j = qubit j) and the per-qubit factor is ``X^{x_j} Z^{z_j}``
in that order.  A ``Y`` on qubit j is ``x_j = z_j = 1`` with ``+1`` added
to the phase exponent, since ``Y = iXZ``.

Tensor convention, fixed once for the whole package: qubit 0 is the
leftmost tensor factor and the most significant bit of a state index.

This module is the one owner of four jobs the rest of the package shares:
the letter table (``_LETTER_XZ``, ``_LETTER_ADJUST``, ``_XZ_LETTER``), the
qubit-to-index map (``_bits_to_index``), dense conjugation by a word
(``dense_conjugation``, used by ``states.stabilized_by`` and
``states.RationalMatrix.conjugated_by``) and dense rendering of words and
their sums (``pauli_sum``; ``PauliWord.to_dense`` is its one-term case).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import prod
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .f2 import parity, popcount

DEFAULT_DENSE_BOUND = 12


class DimensionError(ValueError):
    """Qubit counts of two operands disagree."""


class BoundExceeded(RuntimeError):
    """A dense rendering would exceed the configured qubit bound."""


def dense_bound() -> int:
    """Dense-rendering qubit bound; MGSTATE_MAX_QUBITS overrides."""
    env = os.environ.get("MGSTATE_MAX_QUBITS")
    if env is not None:
        return int(env)
    return DEFAULT_DENSE_BOUND


_LETTER_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
# phase exponent added when writing the letter in canonical X^x Z^z form
_LETTER_ADJUST = {"I": 0, "X": 0, "Z": 0, "Y": 1}
_XZ_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


@dataclass(frozen=True)
class PauliWord:
    """n-qubit Pauli operator with exact i-power phase."""

    n: int
    x: int
    z: int
    phase: int

    def __post_init__(self) -> None:
        limit = 1 << self.n
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValueError("x/z bits out of range")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliWord":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_letters(cls, letters: str, phase: int = 0) -> "PauliWord":
        """Build from a string like "XZI"; qubit 0 is the first letter."""
        x = z = 0
        ph = phase
        for j, c in enumerate(letters):
            xb, zb = _LETTER_XZ[c]
            x |= xb << j
            z |= zb << j
            ph += _LETTER_ADJUST[c]
        return cls(len(letters), x, z, ph)

    def letters(self) -> str:
        return "".join(
            _XZ_LETTER[((self.x >> j) & 1, (self.z >> j) & 1)] for j in range(self.n)
        )

    def letter_phase(self) -> int:
        """Phase exponent relative to the plain tensor of letters.

        ``self == i**letter_phase() * (letter string as matrices)``.
        """
        return (self.phase - popcount(self.x & self.z)) % 4

    def __str__(self) -> str:
        pre = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.letter_phase()]
        return pre + self.letters()

    def mul(self, other: "PauliWord") -> "PauliWord":
        """Matrix product self * other (self acts on the left)."""
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} != {other.n}")
        ph = self.phase + other.phase + 2 * parity(self.z & other.x)
        return PauliWord(self.n, self.x ^ other.x, self.z ^ other.z, ph)

    def commutes(self, other: "PauliWord") -> bool:
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} != {other.n}")
        return (parity(self.x & other.z) ^ parity(self.z & other.x)) == 0

    def is_hermitian(self) -> bool:
        return (self.phase & 1) == parity(self.x & self.z)

    def to_dense(self) -> "GaussianMatrix":
        return pauli_sum(self.n, [(self, 0)])


def _bits_to_index(mask: int, n: int) -> int:
    """Qubit bitset -> state index (qubit 0 becomes the most significant bit):
    the n-bit reversal of ``mask``, one table lookup per byte."""
    idx = 0
    for _ in range(0, n, 8):
        idx = (idx << 8) | _BYTE_REVERSED[mask & 255]
        mask >>= 8
    return idx >> (-n % 8)


_BYTE_REVERSED = [int(f"{b:08b}"[::-1], 2) for b in range(256)]
_BYTE_PARITY = np.array([popcount(b) & 1 for b in range(256)], dtype=np.int64)


def _parity_array(values: np.ndarray) -> np.ndarray:
    """Bit parity of each non-negative entry, one table lookup per byte."""
    out = _BYTE_PARITY[values & 255]
    v = values >> 8
    while v.any():
        out ^= _BYTE_PARITY[v & 255]
        v >>= 8
    return out


def dense_conjugation(w: PauliWord, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """(perm, flip) with (w M w^dag)[a, b] = flip[a] flip[b] M[perm[a], perm[b]].

    With x and z as state-index masks, w|c> = i^phase (-1)^{z.c} |c ^ x>, so
    ``perm`` maps a -> a ^ x on rows and columns, row a carries the sign
    flip[a] = (-1)^{z.(a^x)}, and the phase cancels against w^dag.  Both are
    vectors of ``dim`` entries; a caller reads them at the indices it needs.
    """
    if dim != (1 << w.n):
        raise DimensionError("word size does not match matrix")
    perm = np.arange(dim, dtype=np.int64) ^ _bits_to_index(w.x, w.n)
    return perm, 1 - 2 * _parity_array(perm & _bits_to_index(w.z, w.n))


# real and imaginary part of i^k, indexed by k mod 4
_I_POWER_RE = np.array([1, 0, -1, 0], dtype=np.int64)
_I_POWER_IM = np.array([0, 1, 0, -1], dtype=np.int64)


def pauli_sum(n: int, terms: Sequence[Tuple[PauliWord, int]]) -> "GaussianMatrix":
    """Exact dense sum over (w, k) of i^k w, scattered in one pass.

    w|c> = i^phase (-1)^{z.c} |c ^ x>, so a word's only nonzero entries sit
    at (c ^ x, c) and equal i^(phase + k + 2 z.c): each term writes 2^n
    entries, never a 4^n matrix of its own.
    """
    if n > dense_bound():
        raise BoundExceeded(f"dense rendering of {n} qubits exceeds bound {dense_bound()}")
    dim = 1 << n
    cols = np.arange(dim, dtype=np.int64)
    xs = np.array([_bits_to_index(w.x, n) for w, _ in terms], dtype=np.int64)
    zs = np.array([_bits_to_index(w.z, n) for w, _ in terms], dtype=np.int64)
    ks = np.array([w.phase + k for w, k in terms], dtype=np.int64)
    rows = xs[:, None] ^ cols
    exps = (ks[:, None] + 2 * _parity_array(zs[:, None] & cols)) % 4
    flat = (rows * dim + cols).ravel()
    re = np.zeros(dim * dim, dtype=np.int64)
    im = np.zeros(dim * dim, dtype=np.int64)
    np.add.at(re, flat, _I_POWER_RE[exps].ravel())
    np.add.at(im, flat, _I_POWER_IM[exps].ravel())
    return GaussianMatrix(re.reshape(dim, dim), im.reshape(dim, dim), 0)


def ordered_product(rows: Sequence[PauliWord], indices: Iterable[int]) -> PauliWord:
    """Product of the indexed rows with the lowest index leftmost.

    This matches the worked product listings (e.g. rows {0,1} multiply as
    rows[0] @ rows[1]); the empty index set gives the identity.
    """
    idx = sorted(indices)
    if not rows:
        raise ValueError("ordered_product needs at least the row list")
    n = rows[0].n
    acc = PauliWord.identity(n)
    for h in idx:
        if not 0 <= h < len(rows):
            raise IndexError(f"row index {h} out of range")
        acc = acc.mul(rows[h])
    return acc


class GaussianMatrix:
    """Square matrix of Gaussian integers over a power-of-two denominator.

    The value is ``(re + i*im) / 2**denom_log2``; all arithmetic is exact.
    """

    __slots__ = ("re", "im", "denom_log2")

    def __init__(self, re: np.ndarray, im: np.ndarray, denom_log2: int = 0):
        re = np.asarray(re, dtype=np.int64)
        im = np.asarray(im, dtype=np.int64)
        if re.shape != im.shape or re.ndim != 2 or re.shape[0] != re.shape[1]:
            raise ValueError("re/im must be equal square matrices")
        if denom_log2 < 0:
            raise ValueError("denominator exponent must be non-negative")
        self.re = re
        self.im = im
        self.denom_log2 = denom_log2

    @property
    def dim(self) -> int:
        return self.re.shape[0]

    def normalized(self) -> "GaussianMatrix":
        """Equivalent matrix with the smallest possible denominator.  The OR
        of all entries has the fewest trailing zeros of any entry (two's
        complement keeps a negative entry's), so one pass finds the shift."""
        d = self.denom_log2
        if d == 0:
            return self
        bits = int(np.bitwise_or.reduce(self.re, axis=None))
        bits |= int(np.bitwise_or.reduce(self.im, axis=None))
        shift = min(d, (bits & -bits).bit_length() - 1) if bits else d
        if shift == 0:
            return self
        return GaussianMatrix(self.re >> shift, self.im >> shift, d - shift)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.denom_log2 == other.denom_log2:  # same denominator: compare numerators
            return np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)
        a, b = self.normalized(), other.normalized()
        return (
            a.denom_log2 == b.denom_log2
            and np.array_equal(a.re, b.re)
            and np.array_equal(a.im, b.im)
        )

    def divided_by_pow2(self, extra: int) -> "GaussianMatrix":
        """Value divided by 2**extra."""
        return GaussianMatrix(self.re, self.im, self.denom_log2 + extra)

    def matmul(self, other: "GaussianMatrix") -> "GaussianMatrix":
        if self.dim != other.dim:
            raise DimensionError("matrix dimensions differ")
        re = self.re @ other.re - self.im @ other.im
        im = self.re @ other.im + self.im @ other.re
        return GaussianMatrix(re, im, self.denom_log2 + other.denom_log2)

    def is_hermitian(self) -> bool:
        return np.array_equal(self.re, self.re.T) and np.array_equal(self.im, -self.im.T)

    def trace(self) -> Tuple[int, int, int]:
        """Exact trace as (re, im, denom_log2)."""
        return int(self.re.trace()), int(self.im.trace()), self.denom_log2

    def trace_is_one(self) -> bool:
        tr_re, tr_im, d = self.trace()
        return tr_im == 0 and tr_re == (1 << d)

    def to_json_dict(self) -> Dict:
        """The fields of a JSON report; ``entries[a, b]`` is ``(re, im)``, an
        int array that ``cli`` writes as the nested lists ``tolist`` gives."""
        return {
            "dim": self.dim,
            "denom_log2": self.denom_log2,
            "entries": np.stack((self.re, self.im), axis=-1),
        }

    def to_text_grid(self) -> str:
        """Aligned grid of exact entries with the denominator up front.  Each
        distinct entry is formatted and padded once, and each row is one join
        of those cells, looked up by the entries' codes."""
        pairs, codes = distinct_entries((self.re.ravel(), self.im.ravel()))
        texts = [_format_gaussian(*pair) for pair in pairs]
        width = max(map(len, texts))
        cells = np.array([s.rjust(width) for s in texts], dtype=object)
        body = "\n".join(" ".join(cells[row].tolist()) for row in codes.reshape(self.re.shape))
        if self.denom_log2:
            return f"1/{1 << self.denom_log2} *\n{body}"
        return body


def distinct_entries(cols: Sequence[np.ndarray]) -> Tuple[List[list], np.ndarray]:
    """The distinct entries of the equal-length int columns ``cols`` and each
    entry's code: entry i, the list of ``col[i]`` over ``cols``, is
    ``entries[codes[i]]``.  When every entry with values between the least
    and the greatest fits a table of at most four slots per entry, as a
    density matrix's few small numerators do, one pass over it finds them
    with no sort; otherwise ``np.unique`` sorts the entries, exact for any
    int64 values."""
    lo = min(int(c.min()) for c in cols)
    dims = (max(int(c.max()) for c in cols) - lo + 1,) * len(cols)
    if prod(dims) > 4 * len(cols[0]):
        entries, codes = np.unique(np.stack(cols, axis=-1), axis=0, return_inverse=True)
        return entries.tolist(), codes.reshape(-1)  # the inverse's shape varies across numpy 2.x
    key = cols[0] - lo
    for col in cols[1:]:
        key *= dims[0]
        key += col - lo
    seen = np.zeros(prod(dims), dtype=bool)
    seen[key] = True
    entries = np.stack(np.unravel_index(np.flatnonzero(seen), dims), axis=-1) + lo
    return entries.tolist(), (np.cumsum(seen) - 1)[key]


def _format_gaussian(re: int, im: int) -> str:
    """re + im i as text, e.g. "3", "-i", "2i", "1+i", "-1-2i"."""
    if im == 0:
        return str(re)
    imag = {1: "i", -1: "-i"}.get(im, f"{im}i")
    return imag if re == 0 else f"{re}{'' if im < 0 else '+'}{imag}"
