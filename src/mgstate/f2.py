"""Dense linear algebra over F2 with int-bitset rows.

Rows are Python ints; bit ``j`` of a row is column ``j``.  All routines are
pure and deterministic, so canonical forms (reduced row echelon) can be used
as dictionary keys for deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


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
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    work = list(rows)
    pivots: List[int] = []
    rank_sofar = 0
    for col in range(cols):
        pivot = None
        for r in range(rank_sofar, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank_sofar], work[pivot] = work[pivot], work[rank_sofar]
        for r in range(len(work)):
            if r != rank_sofar and ((work[r] >> col) & 1):
                work[r] ^= work[rank_sofar]
        pivots.append(col)
        rank_sofar += 1
    return work[:rank_sofar], pivots


def rank(m: BinMatrix) -> int:
    return len(rref(m.rows, m.cols)[0])


def kernel(m: BinMatrix) -> BinMatrix:
    """Basis of the right null space {v : m @ v = 0}, in RREF."""
    return BinMatrix(tuple(rref_kernel(*rref(m.rows, m.cols), m.cols)), m.cols)


def rref_kernel(reduced: Sequence[int], pivots: Sequence[int], cols: int) -> List[int]:
    """RREF null-space basis of a matrix from its ``rref`` (reduced, pivots)."""
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = 1 << f
        for row, p in zip(reduced, pivots):
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return rref(basis, cols)[0]


def in_rowspan(v: int, rows: Sequence[int], cols: int) -> bool:
    base, _ = rref(rows, cols)
    aug, _ = rref(list(base) + [v], cols)
    return len(aug) == len(base)


def span(rows: Sequence[int], cols: int) -> List[int]:
    """All vectors in the row span, sorted ascending."""
    basis, _ = rref(rows, cols)
    return span_of_basis(basis)


def span_of_basis(basis: Sequence[int]) -> List[int]:
    """All vectors in the span of independent rows, sorted ascending."""
    vecs = [0]
    for b in basis:
        vecs += [v ^ b for v in vecs]
    return sorted(vecs)


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
