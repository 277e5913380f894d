"""Mixed graphs: file format, adjacency matrices, stabilizer rows.

A mixed graph has white (X) or red (Y) nodes and at most one edge per node
pair, either undirected or directed.  The modified adjacency matrix A has
``A[j][k] = 1`` iff there is an undirected edge jk or a directed edge j->k,
and ``A[j][j] = 1`` exactly for red nodes.  The skeleton ``Gamma = A + A^T``
keeps only the directed edges and governs all commutation structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .f2 import BinMatrix, bits_of, mask_of, popcount, rank
from .pauli import BoundExceeded, PauliWord

UNDIRECTED = "--"
DIRECTED = "->"

F4_NAMES = {0: "0", 1: "1", 2: "w", 3: "w2"}


class GraphParseError(ValueError):
    """Malformed input; carries a 1-based line number, or None for an error
    tied to no line, such as an unreadable file or a malformed fixture."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class MixedGraph:
    """Immutable mixed graph on nodes 0..n-1."""

    n: int
    red: FrozenSet[int] = frozenset()
    undirected: FrozenSet[Tuple[int, int]] = frozenset()
    directed: FrozenSet[Tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        for j in self.red:
            if not 0 <= j < self.n:
                raise ValueError(f"red node {j} out of range")
        seen: Set[Tuple[int, int]] = set()
        for j, k in self.undirected:
            if j >= k:
                raise ValueError("undirected edges must be stored as (min, max)")
            self._check_edge(j, k, seen)
        for j, k in self.directed:
            self._check_edge(j, k, seen)

    def _check_edge(self, j: int, k: int, seen: Set[Tuple[int, int]]) -> None:
        if j == k:
            raise ValueError(f"self-loop at node {j}")
        if not (0 <= j < self.n and 0 <= k < self.n):
            raise ValueError(f"edge ({j},{k}) out of range")
        key = (min(j, k), max(j, k))
        if key in seen:
            raise ValueError(f"duplicate edge between {j} and {k}")
        seen.add(key)

    @classmethod
    def build(
        cls,
        n: int,
        edges: Sequence[Tuple[int, int, str]] = (),
        red: Sequence[int] = (),
    ) -> "MixedGraph":
        und = set()
        dire = set()
        for j, k, kind in edges:
            if kind == UNDIRECTED:
                und.add((min(j, k), max(j, k)))
            elif kind == DIRECTED:
                dire.add((j, k))
            else:
                raise ValueError(f"unknown edge kind {kind!r}")
        return cls(n, frozenset(red), frozenset(und), frozenset(dire))

    def adjacency(self) -> BinMatrix:
        rows = [0] * self.n
        for j in self.red:
            rows[j] |= 1 << j
        for j, k in self.undirected:
            rows[j] |= 1 << k
            rows[k] |= 1 << j
        for j, k in self.directed:
            rows[j] |= 1 << k
        return BinMatrix(tuple(rows), self.n)

    def gamma(self) -> BinMatrix:
        a = self.adjacency()
        return a.add(a.transpose())

    def has_gamma(self, gamma: BinMatrix) -> bool:
        """``gamma == self.gamma()``: both bits of each directed edge, no others."""
        return (
            gamma.nrows == gamma.cols == self.n
            and sum(map(popcount, gamma.rows)) == 2 * len(self.directed)
            and all((gamma.rows[j] >> k) & (gamma.rows[k] >> j) & 1 for j, k in self.directed)
        )

    def reverse(self) -> "MixedGraph":
        directed = frozenset((k, j) for j, k in self.directed)
        return MixedGraph(self.n, self.red, self.undirected, directed)

    def canonical_edges(self) -> List[Tuple[int, int, str]]:
        out = [(j, k, UNDIRECTED) for j, k in self.undirected]
        out += [(j, k, DIRECTED) for j, k in self.directed]
        return sorted(out)


def parse_graph(text: str) -> MixedGraph:
    n: Optional[int] = None
    red: Set[int] = set()
    edges: List[Tuple[int, int, str]] = []
    seen_pairs: Set[Tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "nodes":
            if n is not None:
                raise GraphParseError(lineno, "duplicate nodes directive")
            if len(parts) != 2 or not parts[1].isdigit():
                raise GraphParseError(lineno, "expected: nodes <n>")
            n = int(parts[1])
            if n <= 0:
                raise GraphParseError(lineno, "node count must be positive")
            continue
        if n is None:
            raise GraphParseError(lineno, "nodes directive must come first")
        if parts[0] == "color":
            if len(parts) != 3 or parts[2] not in ("red", "white"):
                raise GraphParseError(lineno, "expected: color <j> red|white")
            j = _parse_node(parts[1], n, lineno)
            if parts[2] == "red":
                red.add(j)
            else:
                red.discard(j)
            continue
        if parts[0] == "edge":
            if len(parts) != 4 or parts[2] not in (UNDIRECTED, DIRECTED):
                raise GraphParseError(lineno, "expected: edge <j> ->|-- <k>")
            j = _parse_node(parts[1], n, lineno)
            k = _parse_node(parts[3], n, lineno)
            if j == k:
                raise GraphParseError(lineno, f"self-loop at node {j}")
            key = (min(j, k), max(j, k))
            if key in seen_pairs:
                raise GraphParseError(lineno, f"duplicate edge between {j} and {k}")
            seen_pairs.add(key)
            edges.append((j, k, parts[2]))
            continue
        raise GraphParseError(lineno, f"unknown directive {parts[0]!r}")
    if n is None:
        raise GraphParseError(1, "missing nodes directive")
    return MixedGraph.build(n, edges, sorted(red))


def _parse_node(token: str, n: int, lineno: int) -> int:
    if not token.isdigit():
        raise GraphParseError(lineno, f"node index expected, got {token!r}")
    j = int(token)
    if j >= n:
        raise GraphParseError(lineno, f"node index {j} >= node count {n}")
    return j


def stabilizer_matrix(g: MixedGraph) -> List[PauliWord]:
    """Row j: X (white) or Y (red) at j, Z at each k with A[j][k] = 1."""
    return [PauliWord(g.n, 1 << j, z, (z >> j) & 1) for j, z in enumerate(g.adjacency().rows)]


def dual_stabilizer(g: MixedGraph) -> List[PauliWord]:
    return stabilizer_matrix(g.reverse())


def mixed_rank(g: MixedGraph) -> Tuple[int, int]:
    """(e, t) with e = rank(Gamma)/2 and t = n - rank(Gamma)."""
    r = rank(g.gamma())
    assert r % 2 == 0, "rank of an alternating form must be even"
    return r // 2, g.n - r


def f4_matrix(g: MixedGraph) -> List[List[int]]:
    """Stabilizer matrix mapped entrywise to F4: I->0, Z->1, X->w, Y->w^2.

    Encoded additively as 2*x + z in {0, 1, 2, 3} = {0, 1, w, w^2}, which
    makes row multiplication in the stabilizer exactly F4 addition.
    """
    return [[2 * ((row.x >> j) & 1) + ((row.z >> j) & 1) for j in range(g.n)]
            for row in stabilizer_matrix(g)]


def f4_row_strings(m: List[List[int]]) -> List[str]:
    return [" ".join(F4_NAMES[v] for v in row) for row in m]


DEFAULT_MIS_BOUND = 16


def maximal_independent_sets(gamma: BinMatrix, bound: int = DEFAULT_MIS_BOUND) -> List[Tuple[int, ...]]:
    """All inclusion-maximal independent sets of the skeleton, sorted."""
    n = gamma.cols
    if n > bound:
        raise BoundExceeded(f"maximal_independent_sets bound exceeded: {n} > {bound}")
    adj = list(gamma.rows)
    found: Set[int] = set()

    # maximal cliques of the complement via Bron-Kerbosch
    full = (1 << n) - 1
    comp = [(~adj[v] & full) & ~(1 << v) for v in range(n)]

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            found.add(r)
            return
        pivot_pool = p | x
        best = (pivot_pool & -pivot_pool).bit_length() - 1
        best_deg = -1
        m = pivot_pool
        while m:
            v = (m & -m).bit_length() - 1
            deg = bin(p & comp[v]).count("1")
            if deg > best_deg:
                best, best_deg = v, deg
            m &= m - 1
        cand = p & ~comp[best]
        while cand:
            v = (cand & -cand).bit_length() - 1
            vb = 1 << v
            expand(r | vb, p & comp[v], x & comp[v])
            p &= ~vb
            x |= vb
            cand &= cand - 1

    expand(0, full, 0)
    return sorted(tuple(bits_of(m)) for m in found)


def complete_multipartite_parts(
    gamma: BinMatrix,
) -> Optional[Tuple[List[Tuple[int, ...]], Tuple[int, ...]]]:
    """Parts of the skeleton when it is complete multipartite with <= 3 parts.

    Returns (parts, isolated) or None.  None is also returned for edgeless
    skeletons (no parts to report), so presence is equivalent to mixed rank
    e = 1.  For a complete bipartite skeleton the third part is simply absent.
    The parts are the active nodes grouped by their Gamma row, and the
    skeleton is complete multipartite iff each group's row is exactly the
    active nodes outside it.
    """
    active = mask_of(v for v in range(gamma.cols) if gamma.rows[v])
    groups: Dict[int, List[int]] = {}
    for v in bits_of(active):
        groups.setdefault(gamma.rows[v], []).append(v)
    if not groups or len(groups) > 3:
        return None
    if any(row != active & ~mask_of(part) for row, part in groups.items()):
        return None
    isolated = tuple(v for v in range(gamma.cols) if not gamma.rows[v])
    return sorted(map(tuple, groups.values())), isolated
