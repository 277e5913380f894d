"""Dense linear algebra over F2 with int-bitset rows.

Rows are Python ints; bit ``j`` of a row is column ``j``.  All routines are
pure and deterministic, so canonical forms (reduced row echelon) can be used
as dictionary keys for deduplication.  Cost model: ``rref`` makes one XOR for
each pivot bit that a row meets, plus its back substitution; no column scan.

The batched routines (``rref_batch``, ``kernel_batch``, ``span_batch``)
take one set of rows per row of an array of masks, (k, r), and treat all k
at once, each step one array pass.  A mask is an int64 while its width fits
62 bits, and a Python int in an object array past that (``mask_dtype``), so
a wide matrix stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


def popcount(x: int) -> int:
    return x.bit_count()


def parity(x: int) -> int:
    return popcount(x) & 1


def bits_of(mask: int) -> List[int]:
    """Sorted list of set bit positions, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for j in indices:
        m |= 1 << j
    return m


def combine(vectors: Sequence[int], coords: int) -> int:
    """Sum of the vectors picked by the set bits of ``coords``."""
    out = 0
    for k in bits_of(coords):
        out ^= vectors[k]
    return out


def combine_table(vectors: Sequence[int]) -> List[int]:
    """``combine(vectors, x)`` for every x < 2^len(vectors), indexed by x: a
    linear map as a lookup table, for a caller that applies it many times."""
    return [combine(vectors, x) for x in range(1 << len(vectors))]


def bitstring(v: int, n: int) -> str:
    """Bits 0..n-1 of v as text, bit j as character j."""
    return format(v, f"0{n}b")[::-1][:n]


@dataclass(frozen=True)
class BinMatrix:
    """Immutable matrix over F2; ``rows[i]`` holds row i as a bitset."""

    rows: Tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        limit = 1 << self.cols
        for r in self.rows:
            if r < 0 or r >= limit:
                raise ValueError("row value out of range for column count")

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "BinMatrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        packed = tuple(mask_of(j for j, v in enumerate(row) if v & 1) for row in rows)
        return cls(packed, cols)

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(tuple(1 << j for j in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_lists(self) -> List[List[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.rows]

    def row_strings(self) -> List[str]:
        return [bitstring(r, self.cols) for r in self.rows]

    def transpose(self) -> "BinMatrix":
        """Scatter each row's set bits into the columns: O(set bits)."""
        cols = [0] * self.cols
        for i, r in enumerate(self.rows):
            for j in bits_of(r):
                cols[j] |= 1 << i
        return BinMatrix(tuple(cols), self.nrows)

    def mul_vec(self, v: int) -> int:
        """Matrix-vector product; v is a length-``cols`` bit vector."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= parity(r & v) << i
        return out

    def matmul(self, other: "BinMatrix") -> "BinMatrix":
        if self.cols != other.nrows:
            raise ValueError("dimension mismatch in matmul")
        return BinMatrix(tuple(combine(other.rows, r) for r in self.rows), other.cols)

    def add(self, other: "BinMatrix") -> "BinMatrix":
        if (self.nrows, self.cols) != (other.nrows, other.cols):
            raise ValueError("dimension mismatch in add")
        return BinMatrix(tuple(a ^ b for a, b in zip(self.rows, other.rows)), self.cols)

    def is_symmetric(self) -> bool:
        """Each set bit (i, j) has its mirror (j, i): O(set bits), no transpose."""
        if self.nrows != self.cols:
            return False
        rows = self.rows
        for i, r in enumerate(rows):
            while r:
                low = r & -r
                if not (rows[low.bit_length() - 1] >> i) & 1:
                    return False
                r ^= low
        return True

    def is_zero_diagonal(self) -> bool:
        return all(((r >> i) & 1) == 0 for i, r in enumerate(self.rows))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "BinMatrix":
        rows = (mask_of(k for k, j in enumerate(col_idx) if self.get(i, j)) for i in row_idx)
        return BinMatrix(tuple(rows), len(col_idx))


def rref(rows: Sequence[int], cols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form: (nonzero rows, pivot columns), by pivot.  Rows
    must lie in [0, 2^cols).  Each is reduced on its lowest set bits, and one
    back substitution, from the highest pivot down, clears the rest."""
    lead = {}  # lowest set bit (a power of two) -> the stored row it leads
    for r in rows:
        if not 0 <= r < 1 << cols:
            raise ValueError(f"row {r} out of range for {cols} columns")
        low = r & -r
        while low in lead:
            r ^= lead[low]  # adds only bits above low
            low = r & -r
        if r:
            lead[low] = r
    lows = sorted(lead)
    pivot_mask = sum(lows)
    for low in reversed(lows):  # the rows of higher pivots are already reduced
        above = lead[low] & pivot_mask ^ low
        while above:
            lead[low] ^= lead[above & -above]
            above &= above - 1
    return [lead[low] for low in lows], [low.bit_length() - 1 for low in lows]


def rank(m: BinMatrix) -> int:
    return len(rref(m.rows, m.cols)[0])


def kernel(m: BinMatrix) -> BinMatrix:
    """Basis of the right null space {v : m @ v = 0}, in RREF."""
    return BinMatrix(tuple(rref_kernel(*rref(m.rows, m.cols), m.cols)), m.cols)


def rref_kernel(reduced: Sequence[int], pivots: Sequence[int], cols: int) -> List[int]:
    """RREF null-space basis of a matrix from its ``rref`` (reduced, pivots):
    free column f with the pivots of the reduced rows that hold bit f."""
    vectors = {f: 1 << f for f in bits_of((1 << cols) - 1 - sum(1 << p for p in pivots))}
    for row, p in zip(reduced, pivots):
        for f in bits_of(row ^ 1 << p):
            vectors[f] |= 1 << p
    return rref(list(vectors.values()), cols)[0]


def in_rowspan(v: int, rows: Sequence[int], cols: int) -> bool:
    for row, p in zip(*rref(rows, cols)):  # a reduced row holds no other pivot bit
        v ^= row if (v >> p) & 1 else 0
    return v == 0


def span(rows: Sequence[int], cols: int) -> List[int]:
    """All vectors in the row span, sorted ascending."""
    basis, _ = rref(rows, cols)
    return span_batch(np.array([basis], dtype=mask_dtype(cols)).reshape(1, -1))[0].tolist()


def solve(a: BinMatrix, b: int) -> Optional[int]:
    """One solution x of a @ x = b (bit i of b = row i), or None."""
    aug_rows = [r | (((b >> i) & 1) << a.cols) for i, r in enumerate(a.rows)]
    reduced, pivots = rref(aug_rows, a.cols + 1)
    x = 0
    for row, p in zip(reduced, pivots):
        if p == a.cols:
            return None
        if (row >> a.cols) & 1:
            x |= 1 << p
    return x


def symplectic_basis(gamma: BinMatrix) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Hyperbolic pairs and radical basis for a symmetric zero-diagonal form.

    Returns (pairs, kernel_basis) with a_i gamma b_i^T = 1, all other basis
    products 0. Deterministic: smallest-index choices throughout.
    """
    n = gamma.cols
    if not gamma.is_symmetric() or not gamma.is_zero_diagonal():
        raise ValueError("symplectic_basis requires a symmetric zero-diagonal matrix")

    def form(u: int, v: int) -> int:
        return parity(u & gamma.mul_vec(v))

    pool = [1 << j for j in range(n)]
    pairs: List[Tuple[int, int]] = []
    while True:
        found = None
        for i, u in enumerate(pool):
            for k, v in enumerate(pool):
                if k != i and form(u, v):
                    found = (i, k)
                    break
            if found:
                break
        if not found:
            break
        i, k = found
        a, b = pool[i], pool[k]
        rest = [w for idx, w in enumerate(pool) if idx not in (i, k)]
        pool = [w ^ (a if form(w, b) else 0) ^ (b if form(w, a) else 0) for w in rest]
        pairs.append((a, b))
    radical, _ = rref(pool, n)
    return pairs, radical


def mask_dtype(width: int):
    """The dtype of an array of masks over ``width`` bits: int64 up to 62
    bits, Python ints past that."""
    return np.int64 if width <= 62 else object


def unit_masks(width: int) -> np.ndarray:
    """The masks 1 << j for j < ``width``."""
    return np.array([1 << j for j in range(width)], dtype=mask_dtype(width))


def bit_table(masks: np.ndarray, width: int) -> np.ndarray:
    """The bit table of an array of masks: (..., width) bools, entry j bit
    j.  Python ints are unpacked from their bytes, not shifted bit by bit."""
    if masks.dtype != object:
        return ((masks[..., None] >> np.arange(width)) & 1).astype(bool)
    size, low = (width + 7) // 8, (1 << width) - 1
    raw = b"".join((m & low).to_bytes(size, "little") for m in masks.ravel().tolist())
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(*masks.shape, 8 * size)[..., :width].astype(bool)


def rref_batch(rows: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """``rref`` of each row of masks of a batch, ``rows`` (k, r): the
    reduced rows by ascending pivot (lowest set bit), then zero rows, and
    the rank of each.  One pass per row slot, each an array pass: the
    slot's lowest set bit becomes its pivot and is cleared from every other
    row.  An XOR never sets a bit below the pivot of the row it changes,
    and clears no pivot already taken, so the rows end fully reduced, and
    one sort by pivot puts them in order.  ``width`` bounds the masks."""
    rows = rows.copy()
    for j in range(rows.shape[1]):
        row = rows[:, j].copy()
        hit = (rows & (row & -row)[:, None]) != 0
        np.bitwise_xor(rows, row[:, None], out=rows, where=hit)
        rows[:, j] = row  # it met its own pivot
    key = np.negative(rows)
    key &= rows  # the pivot of each row, and past every pivot for a zero row
    key[key == 0] = 1 << width
    order = key.argsort(axis=1, kind="stable")
    del key
    rows = rows[np.arange(len(rows))[:, None], order]
    return rows, (rows != 0).sum(axis=1)


def kernel_batch(reduced: np.ndarray, width: int) -> np.ndarray:
    """``kernel`` of each row of a batch of full-rank RREF rows, ``reduced``
    (k, r): the (k, width - r) RREF bases of their null spaces, each built
    as ``rref_kernel`` builds it, free column f with the pivots of the rows
    that hold bit f."""
    k, r = reduced.shape
    low = reduced & -reduced
    free = np.nonzero(~bit_table(low.sum(axis=1), width))[1].reshape(k, width - r)
    held = np.take_along_axis(bit_table(reduced, width), free[:, None, :], axis=2)
    return rref_batch(unit_masks(width)[free] + (held * low[:, :, None]).sum(axis=1), width)[0]


def span_batch(basis: np.ndarray) -> np.ndarray:
    """All members of the span of each row of independent masks, ``basis``
    (k, r): (k, 2^r), ascending.  One XOR doubling per basis column, then
    one sort."""
    k, r = basis.shape
    out = np.zeros((k, 1 << r), dtype=basis.dtype)
    for j in range(r):
        out[:, 1 << j:2 << j] = out[:, :1 << j] ^ basis[:, j, None]
    out.sort(axis=1, kind="stable")
    return out
