from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from conftest import reversed_graph
from mgstate.f2 import BinMatrix, rank
from mgstate.graphs import (
    F4_NAMES,
    GraphParseError,
    MixedGraph,
    complete_multipartite_parts,
    dual_stabilizer,
    f4_matrix,
    f4_row_strings,
    maximal_independent_sets,
    mixed_rank,
    parse_graph,
    stabilizer_matrix,
)
from mgstate.pauli import PauliWord
from paper_data import APPENDIX_A, CLIQUE6, FIVENODE, FOURNODE, PATH_MIXED, TRIANGLE

FIXTURES = Path(__file__).parent.parent / "src" / "mgstate" / "fixtures"


def all_mixed_graphs(n, with_colors=False):
    """Every mixed graph on n nodes (edge kinds per pair; optionally colors)."""
    pairs = list(itertools.combinations(range(n), 2))
    color_choices = range(1 << n) if with_colors else [0]
    for reds in color_choices:
        for kinds in itertools.product(range(4), repeat=len(pairs)):
            edges = []
            for (j, k), kind in zip(pairs, kinds):
                if kind == 1:
                    edges.append((j, k, "--"))
                elif kind == 2:
                    edges.append((j, k, "->"))
                elif kind == 3:
                    edges.append((k, j, "->"))
            yield MixedGraph.build(n, edges, [j for j in range(n) if (reds >> j) & 1])


def random_mixed_graph(rng, n, allow_red=True):
    edges = []
    for j, k in itertools.combinations(range(n), 2):
        kind = rng.randrange(4)
        if kind == 1:
            edges.append((j, k, "--"))
        elif kind == 2:
            edges.append((j, k, "->"))
        elif kind == 3:
            edges.append((k, j, "->"))
    red = [j for j in range(n) if allow_red and rng.random() < 0.25] if allow_red else []
    return MixedGraph.build(n, edges, red)


def test_parse_example_adjacency():
    g = parse_graph("nodes 3\nedge 0 -> 1\nedge 1 -- 2\n")
    assert g.adjacency().to_lists() == [[0, 1, 0], [0, 0, 1], [0, 1, 0]]


def test_parse_single_node():
    g = parse_graph("nodes 1\n")
    assert g.adjacency().to_lists() == [[0]]


def test_parse_triangle():
    g = parse_graph(TRIANGLE)
    assert g.adjacency().to_lists() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_parse_comments_and_colors():
    g = parse_graph("# a comment\nnodes 2\ncolor 1 red\nedge 0 -> 1  # trailing\n")
    assert g.red == frozenset({1})
    assert g.adjacency().to_lists() == [[0, 1], [0, 1]]


def test_parse_errors_carry_line_numbers():
    cases = [
        ("nodes 2\nedge 0 -> 2\n", 2),       # node out of range
        ("nodes 2\nedge 0 -> 0\n", 2),       # self loop
        ("nodes 2\nedge 0 -> 1\nedge 1 -- 0\n", 3),  # duplicate pair
        ("edge 0 -> 1\n", 1),                # nodes missing
        ("nodes 2\nfrob 1\n", 2),            # unknown directive
        ("nodes 2\nnodes 2\n", 2),           # duplicate nodes
        ("nodes 0\n", 1),                    # empty graph
        ("nodes \u00b2\n", 1),               # digits int() cannot read
        ("nodes 2\nedge 0 -> \u00b2\n", 2),
        ("nodes 2\ncolor \u00b9 red\n", 2),
    ]
    for text, line in cases:
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert err.value.line == line


def test_round_trip_random(rng):
    # graph text in random line order, with either end of an edge first
    for _ in range(200):
        n = rng.randrange(1, 7)
        edges = []
        for j, k in itertools.combinations(range(n), 2):
            kind = rng.choice([None, "--", "->"])
            if kind:
                edges.append((j, k, kind) if rng.random() < 0.5 else (k, j, kind))
        red = [j for j in range(n) if rng.random() < 0.25]
        lines = [f"color {j} red" for j in red] + [f"edge {j} {kind} {k}" for j, k, kind in edges]
        text = "\n".join([f"nodes {n}"] + rng.sample(lines, len(lines))) + "\n"
        assert parse_graph(text) == MixedGraph.build(n, edges, red)


def test_stabilizer_star_example():
    g = parse_graph("nodes 3\nedge 0 -- 1\nedge 0 -- 2\n")
    assert [str(r) for r in stabilizer_matrix(g)] == ["+XZZ", "+ZXI", "+ZIX"]


def test_stabilizer_red_example():
    g = parse_graph("nodes 3\nedge 0 -- 1\nedge 0 -- 2\nedge 1 -- 2\ncolor 1 red\ncolor 2 red\n")
    assert [str(r) for r in stabilizer_matrix(g)] == ["+XZZ", "+ZYZ", "+ZZY"]


def test_stabilizer_single_white_node():
    g = parse_graph("nodes 1\n")
    assert [str(r) for r in stabilizer_matrix(g)] == ["+X"]


def test_stabilizer_rows_hermitian(rng):
    for _ in range(100):
        g = random_mixed_graph(rng, rng.randrange(1, 6))
        for row in stabilizer_matrix(g):
            assert row.is_hermitian()


def test_dual_triangle():
    g = parse_graph(TRIANGLE)
    assert [str(r) for r in dual_stabilizer(g)] == ["+XIZ", "+ZXI", "+IZX"]


def test_dual_undirected_graph_equals_primal():
    g = parse_graph("nodes 3\nedge 0 -- 1\nedge 1 -- 2\n")
    assert dual_stabilizer(g) == stabilizer_matrix(g)


def test_dual_fivenode_display():
    g = parse_graph(FIVENODE)
    assert [str(r) for r in dual_stabilizer(g)] == [
        "+XIIII",
        "+ZXIII",
        "+IZXII",
        "+IIZXI",
        "+ZZZZX",
    ]


def test_reverse_involution(rng):
    for _ in range(100):
        g = random_mixed_graph(rng, rng.randrange(1, 7))
        assert reversed_graph(reversed_graph(g)) == g
        # the dual rows are the reversed graph's rows, read off A^T
        assert dual_stabilizer(g) == stabilizer_matrix(reversed_graph(g))


def test_dual_rows_commute_with_primal(rng):
    for _ in range(60):
        g = random_mixed_graph(rng, rng.randrange(1, 7))
        for a in stabilizer_matrix(g):
            for b in dual_stabilizer(g):
                assert a.commutes(b)


def test_mixed_rank_examples():
    assert mixed_rank(parse_graph(TRIANGLE)) == (1, 1)
    assert mixed_rank(parse_graph(FOURNODE)) == (2, 0)
    assert mixed_rank(parse_graph("nodes 4\n")) == (0, 4)
    assert mixed_rank(parse_graph(FIVENODE)) == (2, 1)
    assert mixed_rank(parse_graph(CLIQUE6)) == (3, 0)


def test_gamma_rank_even_exhaustive_small():
    for n in (2, 3):
        for g in all_mixed_graphs(n):
            assert rank(g.gamma()) % 2 == 0


def test_gamma_rank_even_sampled(rng):
    for _ in range(300):
        g = random_mixed_graph(rng, 5)
        gamma = g.gamma()
        assert gamma.is_symmetric() and gamma.is_zero_diagonal()
        assert rank(gamma) % 2 == 0


def test_has_gamma_matches_built_gamma(rng):
    # each 3-node graph against every 3-node Gamma, plus 5-node samples
    small = [(g, g.gamma()) for g in all_mixed_graphs(3)]
    for g, gamma_g in small:
        for _, gamma_h in small:
            assert g.has_gamma(gamma_h) == (gamma_g == gamma_h)
    for _ in range(200):
        g, h = random_mixed_graph(rng, 5), random_mixed_graph(rng, 5)
        assert g.has_gamma(g.gamma())
        assert g.has_gamma(h.gamma()) == (g.gamma() == h.gamma())
    assert not parse_graph(TRIANGLE).has_gamma(parse_graph(FOURNODE).gamma())


def test_f4_matrix_display_example():
    g = parse_graph(
        "nodes 3\nedge 0 -- 1\nedge 0 -- 2\nedge 1 -- 2\ncolor 1 red\ncolor 2 red\n"
    )
    assert f4_row_strings(stabilizer_matrix(g)) == ["w 1 1", "1 w2 1", "1 1 w2"]


def test_f4_matrix_edgeless_is_omega_identity():
    g = parse_graph("nodes 3\n")
    assert f4_row_strings(stabilizer_matrix(g)) == ["w 0 0", "0 w 0", "0 0 w"]


def test_f4_matrix_triangle():
    g = parse_graph(TRIANGLE)
    assert f4_row_strings(stabilizer_matrix(g)) == ["w 1 0", "0 w 1", "1 0 w"]


def test_f4_addition_matches_row_products(rng):
    # multiplying stabilizer rows = adding F4 rows entrywise (x, z bits add)
    for _ in range(50):
        g = random_mixed_graph(rng, 4)
        rows = stabilizer_matrix(g)
        m = f4_matrix(g)
        prod = rows[0].mul(rows[2])
        added = [a ^ b for a, b in zip(m[0], m[2])]
        got = [2 * ((prod.x >> j) & 1) + ((prod.z >> j) & 1) for j in range(4)]
        assert got == added


def test_f4_rows_match_per_entry_oracle(rng):
    # f4_matrix and f4_row_strings against one F4_NAMES lookup per entry
    def oracle(w):
        return [2 * ((w.x >> j) & 1) + ((w.z >> j) & 1) for j in range(w.n)]

    for n in (1, 2, 5, 64, 300):
        pairs = {tuple(rng.sample(range(n), 2)) for _ in range(2 * n)} if n > 1 else set()
        edges = {(min(p), max(p)): (*p, rng.choice(("--", "->"))) for p in pairs}
        g = MixedGraph.build(n, edges.values(), [j for j in range(n) if rng.random() < 0.25])
        rows = stabilizer_matrix(g)
        assert f4_matrix(g) == [oracle(w) for w in rows]
        assert f4_row_strings(rows) == [" ".join(F4_NAMES[v] for v in oracle(w)) for w in rows]
    words = [PauliWord(n, rng.randrange(1 << n), rng.randrange(1 << n), 0) for n in range(301)]
    assert f4_row_strings(words) == [" ".join(F4_NAMES[v] for v in oracle(w)) for w in words]


def test_maximal_independent_sets_appendix():
    g = parse_graph(APPENDIX_A)
    v = maximal_independent_sets(g.gamma())
    assert v == sorted([(0, 1, 2), (2, 3, 4), (1, 2, 3, 5)])


def test_maximal_independent_sets_edgeless():
    g = parse_graph("nodes 3\n")
    assert maximal_independent_sets(g.gamma()) == [(0, 1, 2)]


def test_maximal_independent_sets_triangle_brute_force():
    g = parse_graph(TRIANGLE)
    assert maximal_independent_sets(g.gamma()) == [(0,), (1,), (2,)]


def brute_force_mis(gamma):
    n = gamma.cols
    independent = []
    for mask in range(1 << n):
        nodes = [j for j in range(n) if (mask >> j) & 1]
        if all(not gamma.get(a, b) for a in nodes for b in nodes if a < b):
            independent.append(set(nodes))
    maximal = [
        s for s in independent if not any(s < t for t in independent)
    ]
    return sorted(tuple(sorted(s)) for s in maximal)


def test_maximal_independent_sets_brute_force_oracle(rng):
    for _ in range(100):
        g = random_mixed_graph(rng, rng.randrange(1, 7))
        gamma = g.gamma()
        assert maximal_independent_sets(gamma) == brute_force_mis(gamma)


def test_maximal_independent_sets_bound():
    from mgstate.pauli import BoundExceeded

    g = parse_graph("nodes 3\n")
    with pytest.raises(BoundExceeded):
        maximal_independent_sets(g.gamma(), bound=2)


def test_multipartite_triangle():
    g = parse_graph(TRIANGLE)
    parts, isolated = complete_multipartite_parts(g.gamma())
    assert parts == [(0,), (1,), (2,)]
    assert isolated == ()


def test_multipartite_path():
    g = parse_graph("nodes 3\nedge 0 -> 1\nedge 1 -> 2\n")
    parts, isolated = complete_multipartite_parts(g.gamma())
    assert parts == [(0, 2), (1,)]
    assert mixed_rank(g) == (1, 1)


def test_multipartite_absent_for_e2():
    g = parse_graph(FOURNODE)
    assert complete_multipartite_parts(g.gamma()) is None


def test_multipartite_isolated_nodes_reported():
    g = parse_graph(PATH_MIXED)  # undirected 1-2 drops out of the skeleton
    parts, isolated = complete_multipartite_parts(g.gamma())
    assert parts == [(0,), (1,)]
    assert isolated == (2,)


def test_multipartite_iff_e1_exhaustive_n4():
    count = 0
    for g in all_mixed_graphs(4):
        e, _ = mixed_rank(g)
        present = complete_multipartite_parts(g.gamma()) is not None
        assert present == (e == 1)
        count += 1
    assert count == 4**6


def test_multipartite_iff_e1_sampled_n5():
    rng = random.Random(987654)  # seed recorded: criterion asks for 10^4 cases
    for _ in range(10_000):
        g = random_mixed_graph(rng, 5, allow_red=True)
        e, _ = mixed_rank(g)
        assert (complete_multipartite_parts(g.gamma()) is not None) == (e == 1)


def multipartite_by_components(gamma):
    """Oracle for ``complete_multipartite_parts``: the parts are the connected
    components of the skeleton's complement on the active nodes, and each
    must be complete in the complement (independent, and fully joined to
    every other part in the skeleton)."""
    n = gamma.cols
    isolated = [v for v in range(n) if gamma.rows[v] == 0]
    active = [v for v in range(n) if gamma.rows[v] != 0]
    if not active:
        return None
    active_mask = sum(1 << v for v in active)
    comp = {v: (~gamma.rows[v]) & active_mask & ~(1 << v) for v in active}
    unvisited = set(active)
    parts = []
    while unvisited:
        stack = [min(unvisited)]
        comp_nodes = set()
        while stack:
            v = stack.pop()
            if v in comp_nodes:
                continue
            comp_nodes.add(v)
            stack.extend(w for w in range(n) if (comp[v] >> w) & 1 and w not in comp_nodes)
        unvisited -= comp_nodes
        parts.append(tuple(sorted(comp_nodes)))
    if len(parts) > 3:
        return None
    for part in parts:
        pm = sum(1 << v for v in part)
        if any(comp[v] != pm & ~(1 << v) for v in part):
            return None
    return sorted(parts), tuple(isolated)


def random_near_multipartite_gamma(rng, n):
    """A skeleton with up to 4 labelled parts plus isolated nodes, joined
    completely across parts, then with each pair flipped with chance 1/n^2."""
    label = [rng.randrange(5) for _ in range(n)]  # label 4: isolated
    rows = [0] * n
    for j, k in itertools.combinations(range(n), 2):
        joined = label[j] != label[k] and 4 not in (label[j], label[k])
        if joined != (rng.random() < 1 / (n * n)):
            rows[j] |= 1 << k
            rows[k] |= 1 << j
    return BinMatrix(tuple(rows), n)


def test_multipartite_matches_component_oracle_random():
    rng = random.Random(31415)
    present = 0
    for i in range(4_000):
        n = rng.randrange(1, 8)
        if i % 2:
            gamma = random_near_multipartite_gamma(rng, n)
        else:
            gamma = random_mixed_graph(rng, n).gamma()
        want = multipartite_by_components(gamma)
        assert complete_multipartite_parts(gamma) == want
        present += want is not None
    assert 1_000 < present < 3_000  # both outcomes are well represented


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.graph")), ids=lambda p: p.stem)
def test_multipartite_matches_component_oracle_fixtures(fixture):
    gamma = parse_graph(fixture.read_text()).gamma()
    assert complete_multipartite_parts(gamma) == multipartite_by_components(gamma)
