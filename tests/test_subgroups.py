from __future__ import annotations

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    enumerate_level_by_level,
    enumerate_pair_by_pair,
    lift_by_bits,
    span_of_basis,
    subgroup_batch_of,
)
from mgstate.f2 import (
    BinMatrix,
    bits_of,
    combine_table,
    kernel,
    parity,
    rank,
    rref,
    span,
    symplectic_basis,
)
from mgstate.graphs import MixedGraph, dual_stabilizer, mixed_rank, parse_graph
from mgstate.pauli import ordered_product
from mgstate.subgroups import (
    GammaReduction,
    IsotropicSubspace,
    SubgroupBatch,
    apply_row_map,
    chi,
    commutes_via_gamma,
    enumerate_max_isotropic,
    gamma_order,
    gram_factor_search,
    membership_count,
    reduce_gamma,
    subgroup_isomorphism,
)
from paper_data import (
    CLIQUE4,
    CLIQUE6,
    FIVENODE,
    FOURNODE,
    LINE4,
    STAR3,
    TRIANGLE,
    TRIANGLE_B_LIFTED,
    FOURNODE_B_MATRICES,
    TRIANGLE_TO_STAR_MAP,
)
from test_graphs import random_mixed_graph

FIXTURES = Path(__file__).parent.parent / "src" / "mgstate" / "fixtures"


def directed_clique(n):
    return "nodes %d\n" % n + "".join(
        f"edge {j} -> {k}\n" for j in range(n) for k in range(j + 1, n)
    )


def combine_by_bits(vectors, x):
    """The sum of the vectors picked by the set bits of x, bit by bit."""
    out = 0
    for k, vector in enumerate(vectors):
        if (x >> k) & 1:
            out ^= vector
    return out


def reduce_gamma_incremental(gamma):
    """Reference reduction: keep each row iff it increases the rank of the
    rows kept so far, at two RREFs per row."""
    n = gamma.cols
    kept, current = [], []
    for j in range(n):
        trial = current + [gamma.rows[j]]
        if len(rref(trial, n)[0]) > len(rref(current, n)[0]):
            kept.append(j)
            current = trial
    removed = tuple(j for j in range(n) if j not in kept)
    gt = gamma.submatrix(kept, kept)
    return GammaReduction(gamma, gt, tuple(kept), removed, tuple(kernel(gamma).rows))


def random_alternating(rng, n, density):
    """A random symmetric zero-diagonal matrix over F2."""
    rows = [0] * n
    for j, k in itertools.combinations(range(n), 2):
        if rng.random() < density:
            rows[j] |= 1 << k
            rows[k] |= 1 << j
    return BinMatrix(tuple(rows), n)


def bitstr_to_mask(s: str) -> int:
    # strings are written with index 0 leftmost
    return sum(1 << j for j, c in enumerate(s) if c == "1")


def test_chi_values():
    assert chi(0) == 1
    assert chi(1) == 3
    assert chi(2) == 15
    assert chi(3) == 135


def test_reduce_gamma_triangle():
    g = parse_graph(TRIANGLE)
    red = reduce_gamma(g.gamma())
    assert red.removed == (2,)
    assert red.gamma_tilde.to_lists() == [[0, 1], [1, 0]]
    assert red.kernel_basis == (0b111,)
    assert red.t == 1 and red.e == 1


def test_reduce_gamma_full_rank():
    g = parse_graph(FOURNODE)
    red = reduce_gamma(g.gamma())
    assert red.removed == ()
    assert red.gamma_tilde == g.gamma()


def test_reduce_gamma_fivenode():
    g = parse_graph(FIVENODE)
    red = reduce_gamma(g.gamma())
    assert red.t == 1 and red.e == 2


def test_reduce_gamma_properties(rng):
    for _ in range(100):
        g = random_mixed_graph(rng, rng.randrange(1, 7))
        red = reduce_gamma(g.gamma())
        assert rank(red.gamma_tilde) == red.n - red.t
        for v in red.kernel_basis:
            assert g.gamma().mul_vec(v) == 0
        assert len(red.kernel_basis) == red.t


def test_reduce_gamma_matches_incremental_oracle(rng):
    gammas = [parse_graph(p.read_text()).gamma() for p in sorted(FIXTURES.glob("*.graph"))]
    gammas += [random_alternating(rng, rng.randrange(1, 40), rng.choice((0.05, 0.2, 0.5)))
               for _ in range(80)]
    gammas.append(random_alternating(rng, 96, 0.02))
    assert any(rank(g) < g.cols for g in gammas) and any(rank(g) == g.cols for g in gammas)
    for gamma in gammas:
        red = reduce_gamma(gamma)
        assert red == reduce_gamma_incremental(gamma)
        # the kernel basis comes from the same RREF as the kept rows
        assert red.kernel_basis == kernel(gamma).rows
        assert all(gamma.mul_vec(v) == 0 for v in red.kernel_basis)
        assert list(red.kernel_basis) == rref(red.kernel_basis, gamma.cols)[0]
        assert len(red.kernel_basis) == gamma.cols - rank(gamma)


def test_enumerate_triangle_lifted_generators():
    g = parse_graph(TRIANGLE)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    assert len(subs) == 3
    expected = {
        tuple(sorted(span([bitstr_to_mask(a), bitstr_to_mask(b)], 3)))
        for a, b in TRIANGLE_B_LIFTED
    }
    got = {tuple(sorted(span_of_basis(s.lifted_basis))) for s in subs}
    assert got == expected


def test_enumerate_fournode_matches_paper_b_list():
    g = parse_graph(FOURNODE)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    assert len(subs) == chi(2) == 15
    expected = {
        tuple(sorted(span([bitstr_to_mask(a), bitstr_to_mask(b)], 4)))
        for a, b in FOURNODE_B_MATRICES
    }
    got = {tuple(sorted(span_of_basis(s.lifted_basis))) for s in subs}
    assert got == expected


def test_enumerate_clique6_count():
    g = parse_graph(CLIQUE6)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    assert len(subs) == chi(3) == 135


def test_enumerate_e0_single_subgroup():
    g = parse_graph("nodes 3\nedge 0 -- 1\n")
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    assert len(subs) == 1
    assert set(span_of_basis(subs[0].lifted_basis)) == set(range(8))


def test_enumerate_bound():
    from mgstate.pauli import BoundExceeded

    g = parse_graph(CLIQUE6)
    with pytest.raises(BoundExceeded):
        enumerate_max_isotropic(reduce_gamma(g.gamma()), bound=4)


def assert_matches_oracle(g):
    red = reduce_gamma(g.gamma())
    got = enumerate_max_isotropic(red)
    want = enumerate_level_by_level(red)
    assert [s.basis for s in got] == [s.basis for s in want]
    assert [s.lifted_basis for s in got] == [s.lifted_basis for s in want]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.graph")), ids=lambda p: p.stem)
def test_enumerate_matches_oracle_on_fixtures(path):
    assert_matches_oracle(parse_graph(path.read_text()))


def test_enumerate_matches_oracle_on_random_graphs(rng):
    for _ in range(40):  # n <= 7, so e <= 3
        assert_matches_oracle(random_mixed_graph(rng, rng.randrange(1, 8)))


def assert_matches_pair_by_pair(red):
    got = enumerate_max_isotropic(red)
    want = enumerate_pair_by_pair(red)
    assert [tuple(b) for b in got.basis.tolist()] == [s.basis for s in want]
    assert [tuple(b) for b in got.lifted.tolist()] == [s.lifted_basis for s in want]
    assert [got[i] for i in (0, -1)] == [want[i] for i in (0, -1)]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.graph")), ids=lambda p: p.stem)
def test_array_enumeration_matches_pair_by_pair_on_fixtures(path):
    assert_matches_pair_by_pair(reduce_gamma(parse_graph(path.read_text()).gamma()))


@pytest.mark.parametrize("n", range(2, 11))
def test_array_enumeration_matches_pair_by_pair_on_directed_cliques(n):
    red = reduce_gamma(parse_graph(directed_clique(n)).gamma())
    assert (red.e, red.t) == (n // 2, n % 2)
    assert_matches_pair_by_pair(red)


def test_array_enumeration_matches_pair_by_pair_with_kernel(rng):
    # t > 0 lifts through the kernel of Gamma; n = 96 holds its lifted
    # masks as Python ints
    reductions = [reduce_gamma(random_mixed_graph(rng, rng.randrange(2, 10)).gamma())
                  for _ in range(60)]
    reductions += [reduce_gamma(sparse_graph(seed, 96).gamma()) for seed in range(3)]
    assert sum(red.t > 0 for red in reductions) >= 40
    assert {red.e for red in reductions if red.t} >= {1, 2, 3}
    for red in reductions:
        assert_matches_pair_by_pair(red)


def test_array_enumeration_e0_one_empty_subgroup():
    # np.lexsort takes at least one key; e = 0 has one subgroup and no basis row
    red = reduce_gamma(parse_graph("nodes 3\nedge 0 -- 1\n").gamma())
    assert (red.e, red.t) == (0, 3)
    subs = enumerate_max_isotropic(red)
    assert subs.basis.shape == (1, 0) and subs.lifted.shape == (1, 3)
    assert_matches_pair_by_pair(red)


def test_subgroup_batch_items_and_slices():
    red = reduce_gamma(parse_graph(FOURNODE).gamma())
    subs = enumerate_max_isotropic(red)
    items = list(subs)
    assert len(items) == len(subs) == 15 and all(isinstance(s, IsotropicSubspace) for s in items)
    part = subs[3:7]
    assert isinstance(part, SubgroupBatch) and list(part) == items[3:7]
    assert subgroup_batch_of(items[3:7]).lifted.tolist() == part.lifted.tolist()
    assert subgroup_batch_of(part) is part
    assert subs.dims().tolist() == [red.n - red.e] * 15
    with pytest.raises(IndexError):
        subs[15]


def test_enumerate_e5_each_lagrangian_once():
    red = reduce_gamma(parse_graph(directed_clique(10)).gamma())
    assert red.e == 5
    subs = enumerate_max_isotropic(red)
    assert len(subs) == chi(5) == 75_735
    assert len({s.basis for s in subs}) == len(subs)
    gt = red.gamma_tilde
    for s in subs:
        assert len(s.basis) == 5
        images = [gt.mul_vec(u) for u in s.basis]
        assert not any(parity(img & v) for img in images for v in s.basis)


def sparse_graph(seed, n, directed=3):
    """A seeded graph with 2n edges on n nodes, ``directed`` of them directed."""
    rng = random.Random(seed)
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), 2 * n)
    edges = [(j, k, "->") for j, k in pairs[:directed]]
    return MixedGraph.build(n, edges + [(j, k, "--") for j, k in pairs[directed:]], [])


TABLE_GRAPHS = [(p.stem, parse_graph(p.read_text())) for p in sorted(FIXTURES.glob("*.graph"))] + [
    ("clique9", parse_graph(directed_clique(9))),
    ("sparse32", sparse_graph(32, 32)),
]


@pytest.mark.parametrize("g", [g for _, g in TABLE_GRAPHS], ids=[name for name, _ in TABLE_GRAPHS])
def test_lift_and_combine_tables_match_bit_loops(g):
    # each directed clique of the perfbench ladder has t = 0, where the lift
    # is the identity; these reductions have t = 0, 1, 2 and 26
    red = reduce_gamma(g.gamma())
    xs = range(1 << (red.n - red.t))
    assert [red.lift(x) for x in xs] == [lift_by_bits(red, x) for x in xs]
    pairs, _ = symplectic_basis(red.gamma_tilde)
    images = [pair[k] for pair in pairs for k in (0, 1)]
    assert combine_table(images) == [combine_by_bits(images, x) for x in xs]
    for s in enumerate_max_isotropic(red):
        lifted = [lift_by_bits(red, b) for b in s.basis] + list(red.kernel_basis)
        assert s.lifted_basis == tuple(rref(lifted, red.n)[0])


def test_table_graphs_cover_each_gamma_rank_deficiency():
    ts = {name: reduce_gamma(g.gamma()).t for name, g in TABLE_GRAPHS}
    assert {0, 1, 2} <= set(ts.values())
    assert ts["clique9"] == 1 and ts["sparse32"] == 26


def test_subspace_sizes_and_isotropy(rng):
    for _ in range(25):
        g = random_mixed_graph(rng, rng.randrange(2, 7))
        gamma = g.gamma()
        red = reduce_gamma(gamma)
        subs = enumerate_max_isotropic(red)
        assert len(subs) == chi(red.e)
        for s in subs:
            lifted = span_of_basis(s.lifted_basis)
            assert len(lifted) == 1 << (g.n - red.e)
            for u in lifted:
                for v in lifted:
                    assert commutes_via_gamma(gamma, u, v)
            # maximality: adding any outside vector breaks isotropy
            inside = set(lifted)
            for v in range(1 << g.n):
                if v in inside:
                    continue
                if all(commutes_via_gamma(gamma, v, u) for u in lifted):
                    pytest.fail("subspace is not maximal")


def test_membership_counts_fournode():
    g = parse_graph(FOURNODE)
    red = reduce_gamma(g.gamma())
    subs = enumerate_max_isotropic(red)
    # element 1100 (rows {0,1}) is the word -+i Y X Z I
    v = bitstr_to_mask("1100")
    assert membership_count(subs, v) == 3
    word = ordered_product(dual_stabilizer(g), bits_of(v))
    assert word.letters() == "YXZI"


def test_membership_counts_triangle():
    g = parse_graph(TRIANGLE)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    assert membership_count(subs, 0b111) == 3  # the lifted kernel direction
    assert membership_count(subs, 0b001) == 1  # generic element, empty product


def test_membership_formula_suite(rng):
    # elements with nonzero image in the reduced space lie in
    # prod_{j=1}^{e-1} (2^j + 1) subgroups; pure kernel elements are in all
    for _ in range(20):
        g = random_mixed_graph(rng, rng.randrange(2, 7))
        red = reduce_gamma(g.gamma())
        subs = enumerate_max_isotropic(red)
        kernel_span = set(span(list(red.kernel_basis), g.n))
        seen = set()
        for s in subs:
            seen.update(span_of_basis(s.lifted_basis))
        for v in seen:
            if v == 0:
                continue
            expected = chi(red.e) if v in kernel_span else chi(red.e - 1)
            assert membership_count(subs, v) == expected


def test_commutes_via_gamma_paper_example():
    # skeleton 01, 04, 12, 23, 34, 14
    gamma = BinMatrix.from_lists(
        [
            [0, 1, 0, 0, 1],
            [1, 0, 1, 0, 1],
            [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 1],
            [1, 1, 0, 1, 0],
        ]
    )
    v_k = bitstr_to_mask("11001")
    v_j = bitstr_to_mask("00110")
    assert commutes_via_gamma(gamma, v_k, v_j)
    assert commutes_via_gamma(gamma, bitstr_to_mask("10000"), bitstr_to_mask("00010"))
    assert not commutes_via_gamma(gamma, bitstr_to_mask("10000"), bitstr_to_mask("01000"))


def test_commutes_via_gamma_self_always():
    g = parse_graph(FOURNODE)
    gamma = g.gamma()
    for v in range(16):
        assert commutes_via_gamma(gamma, v, v)


def test_commutes_via_gamma_matches_pauli(rng):
    for _ in range(30):
        g = random_mixed_graph(rng, 4)
        gamma = g.gamma()
        duals = dual_stabilizer(g)
        for vk in range(16):
            for vj in range(16):
                wk = ordered_product(duals, bits_of(vk))
                wj = ordered_product(duals, bits_of(vj))
                assert commutes_via_gamma(gamma, vk, vj) == wk.commutes(wj)


def test_gamma_order_fournode_is_four():
    g = parse_graph(FOURNODE)
    assert gamma_order(g.gamma()) == 4


def test_gamma_order_involution():
    m = BinMatrix.from_lists([[0, 1], [1, 0]])
    assert gamma_order(m) == 2


def test_gamma_order_even_property(rng):
    found = 0
    while found < 40:
        n = rng.choice([2, 4, 6])
        rows = [0] * n
        for j in range(n):
            for k in range(j + 1, n):
                if rng.random() < 0.5:
                    rows[j] |= 1 << k
                    rows[k] |= 1 << j
        m = BinMatrix(tuple(rows), n)
        if rank(m) != n:
            continue
        found += 1
        assert gamma_order(m) % 2 == 0


def test_gamma_order_singular_raises():
    with pytest.raises(ValueError):
        gamma_order(BinMatrix((0, 0), 2))


def test_gram_factor_absent_for_2x2():
    assert gram_factor_search(BinMatrix.from_lists([[0, 1], [1, 0]])) is None


def test_gram_factor_identity_control():
    omega = gram_factor_search(BinMatrix.identity(3))
    assert omega is not None
    got = [[parity(omega.rows[i] & omega.rows[j]) for j in range(3)] for i in range(3)]
    assert got == BinMatrix.identity(3).to_lists()


def gram_codes(n):
    """Oracle: every Omega Omega^T over the 2^(n*n) square n x n Omega,
    each Gram matrix encoded with bit (i*n + j) for entry (i, j)."""
    codes = np.arange(1 << (n * n), dtype=np.int64)
    omegas = ((codes[:, None] >> np.arange(n * n)) & 1).reshape(-1, n, n)
    grams = np.einsum("aik,ajk->aij", omegas, omegas) & 1
    return set((grams.reshape(len(codes), -1) << np.arange(n * n)).sum(axis=1).tolist())


def test_gram_factor_absent_all_valid_4x4():
    # every symmetric 2x2 to 4x4 matrix against the exhaustive oracle; the
    # symmetric zero-diagonal full-rank ones (valid gamma_tilde) have none
    valid = 0
    for n in (2, 3, 4):
        achievable = gram_codes(n)
        entries = list(itertools.combinations_with_replacement(range(n), 2))
        for bits in range(1 << len(entries)):
            rows = [0] * n
            for idx, (j, k) in enumerate(entries):
                if (bits >> idx) & 1:
                    rows[j] |= 1 << k
                    rows[k] |= 1 << j
            m = BinMatrix(tuple(rows), n)
            omega = gram_factor_search(m)
            code = sum(m.get(i, j) << (i * n + j) for i in range(n) for j in range(n))
            assert (omega is not None) == (code in achievable)
            if m.is_zero_diagonal() and rank(m) == n:
                valid += 1
                assert omega is None
            if omega is not None:
                got = [[parity(omega.rows[i] & omega.rows[j]) for j in range(n)] for i in range(n)]
                assert got == m.to_lists()
    assert valid == 1 + 0 + 28  # invertible alternating forms for n = 2, 3, 4


def form_preserved(g, h, mapping):
    gamma_g, gamma_h = g.gamma(), h.gamma()
    for u in range(1 << g.n):
        for v in range(1 << g.n):
            fu = apply_row_map(mapping, u)
            fv = apply_row_map(mapping, v)
            lhs = parity(u & gamma_g.mul_vec(v))
            rhs = parity(fu & gamma_h.mul_vec(fv))
            if lhs != rhs:
                return False
    return True


def test_isomorphism_identity_when_equal():
    g = parse_graph(TRIANGLE)
    mapping = subgroup_isomorphism(g, g)
    assert mapping == {0: (0,), 1: (1,), 2: (2,)}


def test_isomorphism_triangle_star_paper_map_is_valid():
    g = parse_graph(TRIANGLE)
    h = parse_graph(STAR3)
    assert form_preserved(g, h, TRIANGLE_TO_STAR_MAP)


def test_isomorphism_triangle_star_constructed():
    g = parse_graph(TRIANGLE)
    h = parse_graph(STAR3)
    mapping = subgroup_isomorphism(g, h)
    assert mapping is not None
    assert form_preserved(g, h, mapping)


def test_isomorphism_line_clique():
    g = parse_graph(LINE4)
    h = parse_graph(CLIQUE4)
    mapping = subgroup_isomorphism(g, h)
    assert mapping is not None
    assert form_preserved(g, h, mapping)


def test_isomorphism_mismatched_returns_none():
    assert subgroup_isomorphism(parse_graph(TRIANGLE), parse_graph(LINE4)) is None
    assert (
        subgroup_isomorphism(parse_graph(LINE4), parse_graph("nodes 4\n")) is None
    )


def test_isomorphism_random_same_rank(rng):
    made = 0
    while made < 25:
        n = rng.randrange(2, 6)
        g = random_mixed_graph(rng, n)
        h = random_mixed_graph(rng, n)
        if mixed_rank(g) != mixed_rank(h):
            continue
        made += 1
        mapping = subgroup_isomorphism(g, h)
        assert mapping is not None
        assert form_preserved(g, h, mapping)


def test_isomorphism_maps_subgroups_to_subgroups(rng):
    # image of a maximal commutative subgroup spans a maximal commutative one
    g = parse_graph(LINE4)
    h = parse_graph(CLIQUE4)
    mapping = subgroup_isomorphism(g, h)
    subs_g = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    subs_h = enumerate_max_isotropic(reduce_gamma(h.gamma()))
    spans_h = {tuple(sorted(span_of_basis(s.lifted_basis))) for s in subs_h}
    for s in subs_g:
        image = sorted({apply_row_map(mapping, v) for v in span_of_basis(s.lifted_basis)})
        assert tuple(image) in spans_h
