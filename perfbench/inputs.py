"""Seeded inputs and the operation list of each workload.

Every generator here is self-contained: it uses only ``random.Random`` and
bit masks, never ``mgstate``, so a defect in the program cannot change the
inputs it is measured on.  The same seed gives byte-identical graph files.
"""

from __future__ import annotations

import itertools
import random
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

FIXTURE_DIR = Path("src") / "mgstate" / "fixtures"
FIXTURES = ("appendix_a", "clique6", "fivenode", "fournode", "path_mixed", "triangle")
CHILDREN_FIXTURES = ("clique6", "appendix_a", "fivenode", "fournode")  # the e >= 2 ones

# verify_mixed: (n, e) strata and graphs per stratum: two of each, and one
# of the last, the n = 7, e = 3 graph (dense children on 10 qubits), which is
# about 40% of a pass and is the workload's largest input.  Strata that the
# test suite's edge distribution hits too rarely to sample (e = 0 needs every
# one of the n(n-1)/2 pairs to be non-directed) are left out; e = 0 is still
# covered by n = 3.
VERIFY_STRATA: Tuple[Tuple[int, int, int], ...] = (
    (3, 0, 2), (3, 1, 2),
    (4, 1, 2), (4, 2, 2),
    (5, 1, 2), (5, 2, 2),
    (6, 1, 2), (6, 2, 2), (6, 3, 2),
    (7, 2, 2), (7, 3, 1),
)
ENUM_LADDER = tuple(range(2, 9))
SPARSE_SIZES = (16, 32, 64, 128, 256)
SPARSE_DIRECTED = 3
SPARSE_UNDIRECTED_PER_NODE = 2
MAX_DRAWS = 100_000


def f2_rank(rows: List[int]) -> int:
    """Rank over F2 of rows given as bit masks."""
    basis: List[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def graph_text(n: int, red: List[int], edges: List[Tuple[int, int, str]], comment: str) -> str:
    lines = [f"# {comment}", f"nodes {n}"]
    lines += [f"color {j} red" for j in sorted(red)]
    lines += [f"edge {j} {kind} {k}" for j, k, kind in sorted(edges)]
    return "\n".join(lines) + "\n"


def gamma_rows(n: int, edges: List[Tuple[int, int, str]]) -> List[int]:
    """Skeleton Gamma of the directed edges, row j as a bit mask."""
    rows = [0] * n
    for j, k, kind in edges:
        if kind == "->":
            rows[j] ^= 1 << k
            rows[k] ^= 1 << j
    return rows


def mixed_rank_e(n: int, edges: List[Tuple[int, int, str]]) -> int:
    """e = rank(Gamma) / 2."""
    return f2_rank(gamma_rows(n, edges)) // 2


# The checks ``verify`` runs on a graph file without ``expect``, by e, when
# n + e is inside the dense bound (always, for n <= 7 and e <= 3).
VERIFY_BASE_CHECKS = (
    "gamma-rank-even", "dual-commutes-with-stabilizer", "rows-hermitian",
    "tripartite-iff-e1", "subgroup-count-chi", "subgroup-size", "signfree-three-way",
    "extension-found", "extension-commutes", "indicator-matches-subgroup",
    "pauli-sum-vs-partial-trace", "child-stabilized", "child-trace-one", "child-hermitian",
)


def verify_checks(e: int) -> List[str]:
    checks = list(VERIFY_BASE_CHECKS)
    if e >= 1:
        checks.append("child-mixed")
    if e == 1:
        checks += ["family-size", "family-classes"]
    return sorted(checks)


def random_mixed(rng: random.Random, n: int) -> Tuple[List[int], List[Tuple[int, int, str]]]:
    """Same distribution as the test suite's ``random_mixed_graph``."""
    edges = []
    for j, k in itertools.combinations(range(n), 2):
        kind = rng.randrange(4)
        if kind == 1:
            edges.append((j, k, "--"))
        elif kind == 2:
            edges.append((j, k, "->"))
        elif kind == 3:
            edges.append((k, j, "->"))
    red = [j for j in range(n) if rng.random() < 0.25]
    return red, edges


def directed_clique(n: int) -> str:
    edges = [(j, k, "->") for j, k in itertools.combinations(range(n), 2)]
    return graph_text(n, [], edges, f"fully arrowed {n}-clique, e = {n // 2}")


def sparse_graph(rng: random.Random, n: int) -> Tuple[List[int], List[Tuple[int, int, str]]]:
    pairs = set()
    while len(pairs) < SPARSE_UNDIRECTED_PER_NODE * n + SPARSE_DIRECTED:
        j, k = rng.sample(range(n), 2)
        pairs.add((min(j, k), max(j, k)))
    ordered = sorted(pairs)
    rng.shuffle(ordered)
    edges = [(j, k, "->") if rng.random() < 0.5 else (k, j, "->")
             for j, k in ordered[:SPARSE_DIRECTED]]
    edges += [(j, k, "--") for j, k in ordered[SPARSE_DIRECTED:]]
    red = [j for j in range(n) if rng.random() < 0.25]
    return red, edges


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _copy_fixture(src_root: Path, name: str, suffix: str, dest: Path) -> str:
    target = dest / f"{name}{suffix}"
    shutil.copyfile(src_root / FIXTURE_DIR / f"{name}{suffix}", target)
    return str(target)


def build_ops(workload: str, seed: int, src_root: Path, dest: Path) -> List[Dict]:
    """Write the workload's inputs under ``dest`` and return its operations.

    Each operation is ``{"name", "argv", "check"}``.  ``check`` is either
    ``{"recorded": key}`` (compare with the exit code and report digest
    recorded in ``expected.json``) or, for seeded inputs, ``{"exit": 0}`` plus
    the result the generator knows independently: the exact set of checks a
    ``verify`` report must list, or an ``analyze`` input's n, e and Gamma.
    One operation per workload carries ``"largest": true``.
    """
    dest.mkdir(parents=True, exist_ok=True)
    ops: List[Dict] = []
    if workload == "verify_mixed":
        for name in FIXTURES:
            path = _copy_fixture(src_root, name, ".fixture.json", dest)
            ops.append({"name": name, "argv": ["verify", "--json", path],
                        "check": {"recorded": f"verify/{name}"}})
        rng = random.Random(seed)
        quota = {(n, e): c for n, e, c in VERIFY_STRATA}
        got: Dict[Tuple[int, int], int] = {key: 0 for key in quota}
        for n in sorted({n for n, _ in quota}):
            draws = 0
            while any(got[key] < quota[key] for key in quota if key[0] == n):
                draws += 1
                if draws > MAX_DRAWS:
                    raise RuntimeError(f"cannot fill the n = {n} strata")
                red, edges = random_mixed(rng, n)
                key = (n, mixed_rank_e(n, edges))
                if got.get(key, 0) >= quota.get(key, 0):
                    continue
                name = f"rand_n{n}_e{key[1]}_{got[key]}"
                got[key] += 1
                path = _write(dest / f"{name}.graph",
                              graph_text(n, red, edges, f"random mixed, n = {n}, e = {key[1]}"))
                ops.append({"name": name, "argv": ["verify", "--json", path],
                            "check": {"exit": 0, "verify_checks": verify_checks(key[1])},
                            "largest": key == VERIFY_STRATA[-1][:2]})
    elif workload == "enum_ladder":
        for n in ENUM_LADDER:
            name = f"clique{n}"
            path = _write(dest / f"{name}.graph", directed_clique(n))
            ops.append({"name": name, "argv": ["subgroups", "--json", path],
                        "check": {"recorded": f"subgroups/{name}"},
                        "largest": n == ENUM_LADDER[-1]})
    elif workload == "children_report":
        for name in CHILDREN_FIXTURES:
            path = _copy_fixture(src_root, name, ".graph", dest)
            ops.append({"name": name, "argv": ["children", "--all", "--json", path],
                        "check": {"recorded": f"children/{name}"},
                        "largest": name == "clique6"})
    elif workload == "sparse_analyze":
        rng = random.Random(seed)
        for n in SPARSE_SIZES:
            name = f"sparse_n{n}"
            red, edges = sparse_graph(rng, n)
            path = _write(dest / f"{name}.graph", graph_text(
                n, red, edges, f"sparse, {SPARSE_DIRECTED} directed edges"))
            gamma = gamma_rows(n, edges)
            ops.append({"name": name, "argv": ["analyze", "--json", path],
                        "check": {"exit": 0, "analyze": {"n": n, "e": f2_rank(gamma) // 2,
                                                         "gamma": gamma}},
                        "largest": n == SPARSE_SIZES[-1]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
