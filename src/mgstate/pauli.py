"""Exact n-qubit Pauli operators in binary symplectic form.

A word is stored as ``i**phase * (X^x Z^z)`` where ``x`` and ``z`` are
bitsets (bit j = qubit j) and the per-qubit factor is ``X^{x_j} Z^{z_j}``
in that order.  A ``Y`` on qubit j is ``x_j = z_j = 1`` with ``+1`` added
to the phase exponent, since ``Y = iXZ``.

Tensor convention, fixed once for the whole package: qubit 0 is the
leftmost tensor factor and the most significant bit of a state index.
Only a dense matrix is indexed so: words, the XOR-offset layout's offsets
and columns (``word_rows``) and every child index basis states by qubit
masks, bit j = qubit j.  ``state_index``, a bit reversal and so linear over
XOR, is the one map between the two: ``GaussianMatrix.from_offsets``
applies it, and ``dense_conjugation``, for ``RationalMatrix``, reads it.

This module also owns the letter tables (``_LETTER_XZ``, ``_LETTER_ADJUST``)
and ``xz_digits``, the one source of a word's letters and of its F4 row text;
``PauliWord.to_dense`` renders one word as a one-row layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .f2 import parity, popcount

DENSE_BYTES = 3 << 27  # 384 MiB: renders 12 qubits (16 4^n bytes, 256 MiB), not 13 (1 GiB)


class DimensionError(ValueError):
    """Qubit counts of two operands disagree."""


class BoundExceeded(RuntimeError):
    """Dense storage past ``DENSE_BYTES``, or an enumeration or oracle past its size bound."""


def check_dense(nbytes: int, what: str) -> None:
    """Raise ``BoundExceeded`` before ``what`` allocates more than ``DENSE_BYTES``."""
    if nbytes > DENSE_BYTES:
        raise BoundExceeded(f"{what} takes {nbytes} bytes, over the cap of {DENSE_BYTES} bytes")


_LETTER_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
# phase exponent added when writing the letter in canonical X^x Z^z form
_LETTER_ADJUST = {"I": 0, "X": 0, "Z": 0, "Y": 1}
_DIGIT_LETTER = str.maketrans("0123", "IZXY")  # xz_digits' 2x + z to a letter


def xz_digits(x: int, z: int, n: int) -> str:
    """Character j is 2 x_j + z_j: a mask's binary text read as hex has digit j = bit j."""
    digits = 2 * int(format(x, "b"), 16) + int(format(z, "b"), 16)
    return format(digits, f"0{n}x")[::-1][:n]


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
        return xz_digits(self.x, self.z, self.n).translate(_DIGIT_LETTER)

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
        rows = word_rows(self.n, np.array([self.z]), [self.phase])
        return GaussianMatrix.from_offsets(np.array([self.x]), rows, 0)


_STATE_INDEX: Dict[int, np.ndarray] = {}  # state_index(n) by n, built once, read-only


def state_index(n: int) -> np.ndarray:
    """Entry m: the state index of the n-qubit mask m, its n-bit reversal.  A
    new highest qubit shifts every index up one place and sets index bit 0.
    Each n's table is built once and then shared, so it is read-only."""
    index = _STATE_INDEX.get(n)
    if index is None:
        index = np.zeros(1, dtype=np.int64)
        for _ in range(n):
            index = np.concatenate((2 * index, 2 * index + 1))
        index.flags.writeable = False
        _STATE_INDEX[n] = index
    return index


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

    With x, z and c as state indices, w|c> = i^phase (-1)^{z.c} |c ^ x>, so
    ``perm`` maps a -> a ^ x on rows and columns, row a carries the sign
    flip[a] = (-1)^{z.(a^x)}, and the phase cancels against w^dag.  Both are
    vectors of ``dim`` entries over the dense matrix's state indices.
    """
    if dim != (1 << w.n):
        raise DimensionError("word size does not match matrix")
    index = state_index(w.n)
    perm = np.arange(dim, dtype=np.int64) ^ index[w.x]
    return perm, 1 - 2 * _parity_array(perm & index[w.z])


# real (row 0) and imaginary (row 1) part of i^k by k mod 4; int8 for units
_I_POWER = np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=np.int8)


def i_power(k: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of i^k, entry by entry, stacked on a new first axis."""
    return _I_POWER.take(k & 3, axis=1)


def word_rows(n: int, zs: np.ndarray, ks: Sequence[int]) -> np.ndarray:
    """Row r: i^(ks[r] + 2 zs[r].c) over the column masks c, zs qubit masks,
    as ``i_power`` stacks it; ``zs`` and ``ks`` may have any equal shape.
    w = i^k X^x Z^z sends |c> to i^k (-1)^{z.c} |c ^ x>, so that row is
    w[c ^ x, c], the XOR-offset row x of w."""
    cols = np.arange(1 << n, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)[..., None]
    return i_power(ks + 2 * _parity_array(zs[..., None] & cols))


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
        re, im = np.asarray(re, dtype=np.int64), np.asarray(im, dtype=np.int64)
        if re.shape != im.shape or re.ndim != 2 or re.shape[0] != re.shape[1] or not re.size:
            raise ValueError("re/im must be equal non-empty square matrices")
        if denom_log2 < 0:
            raise ValueError("denominator exponent must be non-negative")
        self.re, self.im, self.denom_log2 = re, im, denom_log2

    @property
    def dim(self) -> int:
        return self.re.shape[0]

    @classmethod
    def from_offsets(cls, offsets: np.ndarray, num: np.ndarray, denom_log2: int) -> GaussianMatrix:
        """M[c ^ offsets[k], c] = (num[0] + i num[1])[k, c] / 2^denom_log2 over
        masks, zero elsewhere: one assignment at the masks' ``state_index``."""
        n = num.shape[2].bit_length() - 1
        check_dense(16 << 2 * n, f"a dense rendering of {n} qubits")
        index = state_index(n)
        dense = np.zeros((2, index.size, index.size), dtype=np.int64)
        dense[:, index[offsets][:, None] ^ index, index] = num
        return cls(dense[0], dense[1], denom_log2)

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
        distinct entry is formatted and padded once, as a fixed-width byte
        cell led by a space; the grid is one lookup of those cells by the
        entries' codes, a (dim, dim (w + 1)) byte array whose rows' first
        spaces become the line breaks, and one ``tobytes``."""
        pairs, codes = distinct_entries((self.re.ravel(), self.im.ravel()))
        texts = [_format_gaussian(*pair) for pair in pairs]
        width = max(map(len, texts))
        cells = np.array([(" " + s.rjust(width)).encode() for s in texts])
        grid = cells[codes].view(np.uint8).reshape(self.dim, -1)
        grid[:, 0] = ord("\n")
        body = grid.tobytes()[1:].decode()
        return f"1/{1 << self.denom_log2} *\n{body}" if self.denom_log2 else body


@dataclass(frozen=True)
class RationalMatrix:
    """Dense Gaussian-rational matrix for convex mixtures: (re + i im) / denom."""

    re: np.ndarray
    im: np.ndarray
    denom: int

    def conjugated_by(self, w: PauliWord) -> "RationalMatrix":
        perm, flip = dense_conjugation(w, self.re.shape[0])
        signs = np.outer(flip, flip)
        return RationalMatrix(
            self.re.take(perm, 0).take(perm, 1) * signs,
            self.im.take(perm, 0).take(perm, 1) * signs,
            self.denom,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return bool(
            np.array_equal(self.re * other.denom, other.re * self.denom)
            and np.array_equal(self.im * other.denom, other.im * self.denom)
        )

    def trace(self) -> Tuple[int, int, int]:
        return int(self.re.trace()), int(self.im.trace()), self.denom

    def trace_is_one(self) -> bool:
        tr_re, tr_im, d = self.trace()
        return tr_im == 0 and tr_re == d


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
