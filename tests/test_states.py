from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mgstate.states
from conftest import (
    Layout,
    OneChild,
    ParentExtension,
    batch_of,
    conjugate_dense,
    conjugated,
    divided_by_pow2,
    kron_letters,
    layout_of,
    layout_partial_trace,
    layout_stabilized_by,
    matmul,
    members_of,
    one_gens,
    one_indicator,
    one_partial_trace,
    one_pauli_sum,
    parents_of,
    pauli_sum,
    pauli_sum_of,
    random_word,
    reversed_graph,
    rho_to_complex,
    same_children,
    same_matrix,
    span_of_basis,
    subgroup_batch_of,
    word_to_complex,
)
from mgstate.extension import (
    extend_e1,
    extend_for_subgroup,
    indicator,
    phases,
    symmetrize,
)
from mgstate.f2 import BinMatrix, bits_of, parity, span
from mgstate.graphs import MixedGraph, dual_stabilizer, mixed_rank, parse_graph, stabilizer_matrix
from mgstate.pauli import (
    BoundExceeded,
    DimensionError,
    GaussianMatrix,
    PauliWord,
    ordered_product,
)
from mgstate.states import (
    DensityMatrix,
    RationalMatrix,
    _z_pattern_equivalent,
    child_from_partial_trace,
    child_from_pauli_sum,
    children_family_e1,
    convex_combine,
    stabilized_by,
)
from mgstate.subgroups import enumerate_max_isotropic, reduce_gamma
from paper_data import (
    CLIQUE6,
    CLIQUE6_CHILD_TERMS,
    CLIQUE6_G_ROWS,
    CLIQUE6_H_ROWS,
    CLIQUE6_L_SETS,
    CLIQUE6_PARENT_AE_ROWS,
    CLIQUE6_PARENT_BINARY,
    CLIQUE6_PARENT_QUAD,
    CLIQUE6_PARENT_Z4,
    FIVENODE,
    FIVENODE_SUBGROUP_GENS,
    FOURNODE,
    PATH_MIXED,
    RHO0_NUM,
    RHO0_PARENT,
    RHO1_NUM,
    RHO1_PARENT,
    RHO2_NUM,
    RHO2_PARENT,
    SEC2_PARENT,
    SEC2_STATE_LSB,
    SEC2_TRACED_NUM,
    SIGN_TABLE,
    TRIANGLE,
)
from test_graphs import random_mixed_graph


def paper_matrix(num, denom):
    return np.array(num, dtype=complex) / denom


def parent_from_paper(quad, z4, binary, n, e):
    """ParentExtension reconstructed from a displayed phase function."""
    total = n + e
    rows = [0] * total
    for a, b in quad:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    for j in z4:
        rows[j] |= 1 << j
    lab_off = frozenset(j for j in binary if j < n)
    env_off = frozenset(j for j in binary if j >= n)
    return ParentExtension(n, e, BinMatrix(tuple(rows), total), lab_off, env_off)


def psi_of(p):
    """Unnormalised parent amplitudes i^{p(x)} as a complex vector."""
    return np.array([1, 1j, -1, -1j])[oracle_phases(p)]


def fixes(w, psi):
    """w |psi> = |psi>, through the dense word of the test oracle."""
    return np.array_equal(word_to_complex(w) @ psi, psi)


# ---- the parent state i^{p(x)} ----


def test_state_sec2_vector_matches_display():
    ph = oracle_phases(parent_from_paper(*SEC2_PARENT, 3, 1))
    # the displayed 16-vector indexes with x0 as the least significant bit
    got = []
    for disp_idx in range(16):
        msb_idx = int(format(disp_idx, "04b")[::-1], 2)
        got.append({0: 1, 2: -1}[int(ph[msb_idx])])
    assert got == SEC2_STATE_LSB


def test_state_trivial_plus():
    p = parent_from_paper([], [], [], 1, 0)
    assert oracle_phases(p) == [0, 0]
    # normalised by 2^{-1/2} per amplitude: |+><+|
    rho = child_from_partial_trace(batch_of([p]))
    assert np.array_equal(rho_to_complex(rho), np.full((2, 2), 0.5))


def test_state_bound():
    # no lab-environment edge: D is all 2^13 offsets, 3 words each as a
    # member list, while its layout takes 8 4^13 bytes and a dense rendering
    # 16 4^13: both are past the cap
    p = parent_from_paper([], [], [], 13, 1)
    rho = child_from_partial_trace(batch_of([p]))
    assert rho.offsets.tolist() == [list(range(1 << 13))]
    with pytest.raises(BoundExceeded, match="8192 x 8192 entries takes 536870912 bytes"):
        rho.num
    with pytest.raises(BoundExceeded):
        rho.dense(0)
    # the route's own scan of the 2^n syndromes H c is capped too: 8 2^26 bytes
    with pytest.raises(BoundExceeded, match="1 x 67108864 lab syndromes takes 536870912 bytes"):
        child_from_partial_trace(batch_of([parent_from_paper([], [], [], 26, 1)]))


def test_stabilizes_plus_state():
    psi = psi_of(parent_from_paper([], [], [], 1, 0))
    assert fixes(PauliWord.from_letters("X"), psi)
    assert not fixes(PauliWord.from_letters("Z"), psi)


def test_parent_rows_stabilize_parent_state(rng):
    made = 0
    while made < 12:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        if mixed_rank(g)[0] != 1:
            continue
        made += 1
        for p in parents_of(extend_e1(g)):
            psi = psi_of(p)
            for row in p.rows():
                assert fixes(row, psi)


def test_triangle_parent_stabilized_by_ae_rows():
    p = parent_from_paper(*RHO0_PARENT, 3, 1)
    psi = psi_of(p)
    for row in p.rows():
        assert fixes(row, psi)


# ---- partial trace ----


def test_rho0_from_partial_trace():
    rho = child_from_partial_trace(batch_of([parent_from_paper(*RHO0_PARENT, 3, 1)]))
    assert np.array_equal(rho_to_complex(rho), paper_matrix(RHO0_NUM, 8))


def test_rho1_rho2_from_partial_trace():
    for parent, num in ((RHO1_PARENT, RHO1_NUM), (RHO2_PARENT, RHO2_NUM)):
        rho = child_from_partial_trace(batch_of([parent_from_paper(*parent, 3, 1)]))
        assert np.array_equal(rho_to_complex(rho), paper_matrix(num, 8))


def test_sec2_traced_display():
    # the displayed matrix is twice the partial trace, indexed with x0 as
    # the least significant bit
    rho = child_from_partial_trace(batch_of([parent_from_paper(*SEC2_PARENT, 3, 1)]))
    mine = rho_to_complex(rho)
    rev = [int(format(a, "03b")[::-1], 2) for a in range(8)]
    reindexed = mine[np.ix_(rev, rev)]
    assert np.array_equal(2 * reindexed, paper_matrix(SEC2_TRACED_NUM, 4))
    assert rho.trace_is_one()


def test_partial_trace_product_state_is_pure():
    # lab state (x0 x1 quadratic) tensored with an unentangled environment
    rho = child_from_partial_trace(batch_of([parent_from_paper([(0, 1)], [], [], 2, 1)]))
    assert rho.is_pure()
    assert rho.trace_is_one()


# ---- sign coefficients and the Pauli sum ----


def triangle_duals():
    return dual_stabilizer(parse_graph(TRIANGLE))


def exp_of(c):
    return {1: 0, 1j: 1, -1: 2, -1j: 3}[c]


def test_sign_coefficients_worked_parents():
    g = parse_graph(TRIANGLE)
    duals = triangle_duals()
    parents = parents_of(extend_e1(g))
    # column (X, Z, Y): rho = (s000 + s100 + i s011 + i s111)/8
    p_xzy = parents[0]
    coeffs = pauli_sum_of([p_xzy], duals).terms(0)
    keyed = {format(k, "03b")[::-1]: v for k, v in coeffs.items()}
    assert keyed == {"000": 0, "100": 0, "011": 1, "111": 1}
    # column (X, Y, Z): rho = (s000 + s100 - i s011 - i s111)/8
    p_xyz = parents[1]
    coeffs = pauli_sum_of([p_xyz], duals).terms(0)
    keyed = {format(k, "03b")[::-1]: v for k, v in coeffs.items()}
    assert keyed == {"000": 0, "100": 0, "011": 3, "111": 3}


def test_sign_coefficients_binary_flip_rule():
    g = parse_graph(TRIANGLE)
    duals = triangle_duals()
    p = parents_of(extend_e1(g))[0]
    base = pauli_sum_of([p], duals).terms(0)
    p_flipped = dataclasses.replace(p, lab_offsets=p.lab_offsets ^ {0})
    flipped = pauli_sum_of([p_flipped], duals).terms(0)
    for j, v in base.items():
        expect = (v + 2) % 4 if (j & 1) else v  # terms containing row 0
        assert flipped[j] == expect


def test_terms_are_hermitian(rng):
    made = 0
    while made < 10:
        g = random_mixed_graph(rng, rng.randrange(2, 5))
        if mixed_rank(g)[0] != 1:
            continue
        made += 1
        duals = dual_stabilizer(g)
        for p in parents_of(extend_e1(g)):
            coeffs = pauli_sum_of([p], duals).terms(0)
            for j, k in coeffs.items():
                word = ordered_product(duals, bits_of(j))
                scaled = PauliWord(word.n, word.x, word.z, word.phase + k)
                assert scaled.is_hermitian()
                dense = word_to_complex(scaled)
                assert np.array_equal(dense, dense.conj().T)


def test_child_equals_partial_trace_all_paper_graphs():
    for text in (TRIANGLE, PATH_MIXED, FOURNODE, FIVENODE, CLIQUE6):
        g = parse_graph(text)
        duals = dual_stabilizer(g)
        e, _ = mixed_rank(g)
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        parents = []
        if e == 1:
            parents += parents_of(extend_e1(g))
        for i in range(len(subs)):
            (p,) = parents_of(extend_for_subgroup(g, subs[i:i + 1], stabilizer_matrix(g)))
            assert p is not None
            parents.append(p)
        for p in parents:
            child = pauli_sum_of([p], duals)
            assert same_children(child.rho, child_from_partial_trace(batch_of([p])))


def test_child_trace_hermitian_mixed(rng):
    made = 0
    while made < 10:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        e, _ = mixed_rank(g)
        if e < 1:
            continue
        made += 1
        duals = dual_stabilizer(g)
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))[:1]
        (p,) = parents_of(extend_for_subgroup(g, subs, stabilizer_matrix(g)))
        child = pauli_sum_of([p], duals)
        assert child.rho.trace_is_one()
        assert child.rho.is_hermitian()
        assert not child.rho.is_pure()  # e >= 1 means properly mixed
        assert stabilized_by(child.rho, stabilizer_matrix(g))
        assert child.rho.dense(0).denom_log2 == g.n


def test_child_subgroup_is_maximal(rng):
    made = 0
    while made < 10:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        if mixed_rank(g)[0] != 1:
            continue
        made += 1
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        spans = {tuple(sorted(span_of_basis(s.lifted_basis))) for s in subs}
        for p in parents_of(extend_e1(g)):
            assert tuple(span(one_indicator(p)[1].rows, p.n)) in spans


def test_e0_child_is_pure_projector():
    g = parse_graph("nodes 3\nedge 0 -- 1\nedge 1 -- 2\n")
    (p,) = parents_of(symmetrize(stabilizer_matrix(g), [()]))
    child = pauli_sum_of([p], dual_stabilizer(g))
    assert len(child.terms(0)) == 8  # sum over the whole stabilizer group
    assert same_children(child.rho, child_from_partial_trace(batch_of([p])))
    assert child.rho.is_pure()


def test_rho0_is_a_pauli_sum_child():
    # rho0's stated parent, fed through the Pauli-sum route
    p = parent_from_paper(*RHO0_PARENT, 3, 1)
    duals = triangle_duals()
    child = pauli_sum_of([p], duals)
    assert np.array_equal(rho_to_complex(child.rho), paper_matrix(RHO0_NUM, 8))
    # and it matches the partial trace of the same parent
    assert same_children(child.rho, child_from_partial_trace(batch_of([p])))


def test_disjoint_support_of_dual_products(rng):
    for _ in range(8):
        g = random_mixed_graph(rng, 4)
        duals = dual_stabilizer(g)
        supports = []
        for mask in range(1 << 4):
            w = ordered_product(duals, bits_of(mask))
            dense = w.to_dense()
            nz = {(r, c) for r, c in zip(*np.nonzero(dense.re + 1j * dense.im))}
            supports.append(nz)
        for a in range(len(supports)):
            for b in range(a + 1, len(supports)):
                assert not (supports[a] & supports[b])


def test_dual_count_exhaustive_small(rng):
    # exactly 2^n phaseless words commute with all rows, and they are the
    # span of the dual rows
    from test_graphs import all_mixed_graphs

    for n in (1, 2, 3):
        graphs = list(all_mixed_graphs(n))
        for g in graphs:
            rows = stabilizer_matrix(g)
            duals = dual_stabilizer(g)
            commuting = set()
            for x in range(1 << n):
                for z in range(1 << n):
                    w = PauliWord(n, x, z, 0)
                    if all(w.commutes(r) for r in rows):
                        commuting.add((x, z))
            assert len(commuting) == 1 << n
            expected = set()
            for mask in range(1 << n):
                w = ordered_product(duals, bits_of(mask))
                expected.add((w.x, w.z))
            assert commuting == expected


def test_dual_count_sampled_n4(rng):
    for _ in range(40):
        g = random_mixed_graph(rng, 4)
        rows = stabilizer_matrix(g)
        duals = dual_stabilizer(g)
        commuting = {
            (x, z)
            for x in range(16)
            for z in range(16)
            if all(PauliWord(4, x, z, 0).commutes(r) for r in rows)
        }
        expected = {
            (w.x, w.z)
            for w in (ordered_product(duals, bits_of(m)) for m in range(16))
        }
        assert len(commuting) == 16 and commuting == expected


# ---- children family and the sign table ----


def test_children_family_triangle():
    g = parse_graph(TRIANGLE)
    duals = dual_stabilizer(g)
    children, classes = children_family_e1(duals, extend_e1(g))
    assert len(children) == 6
    assert len(classes) == 3
    assert sorted(len(c) for c in classes) == [2, 2, 2]
    mats = [rho_to_complex(c.rho) for c in children]
    for num in (RHO0_NUM, RHO1_NUM, RHO2_NUM):
        target = paper_matrix(num, 8)
        assert any(np.array_equal(m, target) for m in mats)


def test_children_family_all_trace_one_and_stabilized():
    g = parse_graph(TRIANGLE)
    duals = dual_stabilizer(g)
    gens = stabilizer_matrix(g)
    children, _ = children_family_e1(duals, extend_e1(g))
    for c in children:
        assert c.rho.trace_is_one()
        assert stabilized_by(c.rho, gens)


def _z_pattern_search(a, b, n):
    """Oracle for ``_z_pattern_equivalent``: the first of all 2^n lab Z
    patterns that carries a's coefficient signs onto b's."""
    if set(a) != set(b):
        return None
    for pattern in range(1 << n):
        if all((a[j] + 2 * parity(pattern & j)) % 4 == b[j] for j in a):
            return pattern
    return None


def assert_z_patterns_match_search(terms, n):
    for a, b in itertools.combinations(terms, 2):
        got = _z_pattern_equivalent(a, b, n)
        assert (got is None) == (_z_pattern_search(a, b, n) is None)
        if got is not None:
            assert all((a[j] + 2 * parity(got & j)) % 4 == b[j] for j in a)


def random_e1_graph(rng, n):
    """Directed edges only between parts 1-3 of a random labelling, all of
    them, so the skeleton is complete multipartite; undirected edges elsewhere."""
    part = [rng.randrange(4) for _ in range(n)]  # 0: outside the skeleton
    edges = []
    for j, k in itertools.combinations(range(n), 2):
        if part[j] and part[k] and part[j] != part[k]:
            edges.append((j, k, "->") if rng.random() < 0.5 else (k, j, "->"))
        elif rng.random() < 0.5:
            edges.append((j, k, "--"))
    return MixedGraph.build(n, edges, [j for j in range(n) if rng.random() < 0.25])


def test_z_pattern_solve_matches_search(rng):
    fixtures = [parse_graph(p.read_text()) for p in sorted(FIXTURES.glob("*.graph"))]
    graphs = [g for g in fixtures if mixed_rank(g)[0] == 1]
    while len(graphs) < 32:
        g = random_e1_graph(rng, rng.randrange(3, 9))
        if mixed_rank(g)[0] == 1:
            graphs.append(g)
    for g in graphs:
        duals = dual_stabilizer(g)
        children = [pauli_sum_of([p], duals) for p in parents_of(extend_e1(g))]
        assert_z_patterns_match_search([c.terms(0) for c in children], g.n)
    # an odd difference (b_1 - a_1 = 3) and a J where a sign flip is forced
    # on 0b11 but not on either of its factors
    odd = [{0: 0, 1: 0}, {0: 0, 1: 3}]
    forced = [{0: 0, 1: 0, 2: 0, 3: 0}, {0: 0, 1: 0, 2: 0, 3: 2}]
    assert_z_patterns_match_search(odd, 1)
    assert_z_patterns_match_search(forced, 2)
    assert _z_pattern_equivalent(*odd, 1) is None and _z_pattern_equivalent(*forced, 2) is None


def test_sign_table_row_for_row():
    # 16 parent phase functions -> 4 distinct children, as displayed
    duals = triangle_duals()

    def child_matrix(a, b):
        acc = kron_letters("III").astype(complex)
        acc = acc + a * kron_letters("XIZ")
        acc = acc + b * np.kron(np.kron(kron_letters("Z"), kron_letters("Y")), kron_letters("X"))
        acc = acc + a * b * kron_letters("YYY")
        return acc / 8

    for (a, b), parents in SIGN_TABLE.items():
        expect = child_matrix(a, b)
        for quad, z4, binary in parents:
            p = parent_from_paper(quad, z4, binary, 3, 1)
            rho = child_from_partial_trace(batch_of([p]))
            assert np.array_equal(rho_to_complex(rho), expect), (a, b, binary)
            # and through the Pauli-sum route
            child = pauli_sum_of([p], duals)
            assert same_children(child.rho, rho)


def test_linear_term_rule_via_z_conjugation(rng):
    # child(parent + binary x_k) = Z_k child(parent) Z_k
    made = 0
    while made < 8:
        g = random_mixed_graph(rng, rng.randrange(2, 5))
        if mixed_rank(g)[0] != 1:
            continue
        made += 1
        duals = dual_stabilizer(g)
        for p in parents_of(extend_e1(g))[:2]:
            base = pauli_sum_of([p], duals).rho
            for k in range(g.n):
                flipped = dataclasses.replace(p, lab_offsets=p.lab_offsets ^ {k})
                flipped = pauli_sum_of([flipped], duals).rho
                zk = PauliWord(g.n, 0, 1 << k, 0)
                assert same_children(flipped, conjugated(base, zk))


# ---- six-clique worked child ----


def test_clique6_displayed_parent_graph_form():
    # the displayed intermediate extension of the clique symmetrizes to the
    # displayed graph form, binary offsets {1, 3, 4, 5} included
    from mgstate.extension import symmetrize
    from paper_data import CLIQUE6_SEC5_INTERMEDIATE_COLUMNS
    from test_extension import mask_columns

    g = parse_graph(CLIQUE6)
    columns = mask_columns(CLIQUE6_SEC5_INTERMEDIATE_COLUMNS)
    (p,) = parents_of(symmetrize(stabilizer_matrix(g), [columns]))
    assert [r.letters() for r in p.rows()] == CLIQUE6_PARENT_AE_ROWS
    assert sorted(p.lab_offsets) == CLIQUE6_PARENT_BINARY
    assert p.env_offsets == frozenset()
    built = parent_from_paper(
        CLIQUE6_PARENT_QUAD, CLIQUE6_PARENT_Z4, CLIQUE6_PARENT_BINARY, 6, 3
    )
    assert built.ae == p.ae and built.lab_offsets == p.lab_offsets
    l_sets, gmat, h = one_indicator(p)
    assert [tuple(L) for L in l_sets] == [tuple(t) for t in CLIQUE6_L_SETS]
    assert h.row_strings() == CLIQUE6_H_ROWS
    assert gmat.row_strings() == CLIQUE6_G_ROWS
    # its child agrees across both routes and is stabilized by the clique
    duals = dual_stabilizer(g)
    child = pauli_sum_of([p], duals)
    assert same_children(child.rho, child_from_partial_trace(batch_of([p])))
    assert stabilized_by(child.rho, stabilizer_matrix(g))


def test_clique6_displayed_eight_term_child():
    # the displayed 8-term rho lists products of the rows of A itself,
    # i.e. it is the child of the mirror parent on the arrow-reversed
    # clique; with that orientation it reproduces exactly
    from mgstate.extension import extend_for_subgroup
    from mgstate.f2 import span
    from mgstate.subgroups import enumerate_max_isotropic, reduce_gamma
    from paper_data import CLIQUE6_SEC5_SUBGROUP_GENS

    g = reversed_graph(parse_graph(CLIQUE6))
    duals = dual_stabilizer(g)
    target = set(span(list(CLIQUE6_SEC5_SUBGROUP_GENS), 6))
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    i = next(i for i, s in enumerate(subs) if set(span_of_basis(s.lifted_basis)) == target)
    (p,) = parents_of(extend_for_subgroup(g, subs[i:i + 1], stabilizer_matrix(g)))
    child = pauli_sum_of([p], duals)
    expect = np.zeros((64, 64), dtype=complex)
    for sign, letters in CLIQUE6_CHILD_TERMS:
        expect = expect + sign * kron_letters(letters)
    assert np.array_equal(rho_to_complex(child.rho), expect / 64)
    assert same_children(child.rho, child_from_partial_trace(batch_of([p])))
    assert stabilized_by(child.rho, stabilizer_matrix(g))


def test_clique6_worked_subgroup_child_matches_trace():
    g = parse_graph(FIVENODE)
    duals = dual_stabilizer(g)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    target = set(span(list(FIVENODE_SUBGROUP_GENS), 5))
    i = next(i for i, s in enumerate(subs) if set(span_of_basis(s.lifted_basis)) == target)
    (p,) = parents_of(extend_for_subgroup(g, subs[i:i + 1], stabilizer_matrix(g)))
    child = pauli_sum_of([p], duals)
    assert same_children(child.rho, child_from_partial_trace(batch_of([p])))
    assert set(child.terms(0)) == target


# ---- convex combinations ----


def test_convex_combine_unit_weight():
    g = parse_graph(TRIANGLE)
    duals = dual_stabilizer(g)
    children, _ = children_family_e1(duals, extend_e1(g))
    rhos = [c.rho for c in children]
    mixed = convex_combine(rhos, [Fraction(1)] + [Fraction(0)] * 5)
    base = rhos[0]
    assert np.array_equal(
        mixed.re * (1 << base.dense(0).denom_log2), base.dense(0).re * mixed.denom
    )


def test_convex_combine_uniform_stabilized():
    g = parse_graph(TRIANGLE)
    duals = dual_stabilizer(g)
    gens = stabilizer_matrix(g)
    children, _ = children_family_e1(duals, extend_e1(g))
    mixed = convex_combine([c.rho for c in children], [Fraction(1, 6)] * 6)
    assert mixed.trace_is_one()
    for gen in gens:
        assert mixed.conjugated_by(gen) == mixed


def test_convex_combine_validation():
    g = parse_graph(TRIANGLE)
    duals = dual_stabilizer(g)
    children, _ = children_family_e1(duals, extend_e1(g))
    rhos = [c.rho for c in children]
    with pytest.raises(ValueError):
        convex_combine(rhos, [Fraction(1, 2)] * 6)
    with pytest.raises(ValueError):
        convex_combine(rhos, [Fraction(-1)] + [Fraction(1, 2)] * 2 + [Fraction(1)] + [Fraction(0)] * 2)


def test_maximally_mixed_stabilized_by_anything():
    ident = divided_by_pow2(PauliWord.identity(2).to_dense(), 2)
    rho = members_of(ident)
    assert stabilized_by(rho, [PauliWord.from_letters("XY"), PauliWord.from_letters("ZI")])


# ---- purity: tr rho^2 = 2^-e, with rho^2 = 2^-e rho as the matmul oracle ----


FIXTURES = Path(__file__).parent.parent / "src" / "mgstate" / "fixtures"


def _every_parent(g):
    rows = stabilizer_matrix(g)
    e, _ = mixed_rank(g)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    parents = parents_of(extend_for_subgroup(g, subs, rows))
    if e == 1:
        parents += parents_of(extend_e1(g))
    return e, parents


def _every_child(g):
    duals = dual_stabilizer(g)
    e, parents = _every_parent(g)
    return e, [pauli_sum_of([p], duals) for p in parents]


def _purity_graphs():
    graphs = [parse_graph(p.read_text()) for p in sorted(FIXTURES.glob("*.graph"))]
    rng = random.Random(4407)
    graphs += [random_mixed_graph(rng, rng.randrange(2, 7)) for _ in range(30)]
    return graphs


def test_child_purity_is_two_to_minus_e():
    seen_e = set()
    for g in _purity_graphs():
        e, children = _every_child(g)
        seen_e.add(e)
        for child in children:
            rho = child.rho
            assert rho.purity() == [Fraction(1, 1 << e)]
            # the full identity through the O(8^n) product
            mat = rho.dense(0)
            assert same_matrix(matmul(mat, mat), divided_by_pow2(mat, e))
    assert seen_e >= {0, 1, 2, 3}


def test_purity_examples():
    for n in range(1, 5):
        ident = np.eye(1 << n, dtype=np.int64)
        mixed = members_of(GaussianMatrix(ident, 0 * ident, n))
        assert not mixed.is_pure()  # the old check passes it for any e >= 1 ...
        assert mixed.purity() == [Fraction(1, 1 << n)]  # ... purity tells it apart
    g = parse_graph("nodes 3\nedge 0 -- 1\nedge 1 -- 2\n")
    (p,) = parents_of(symmetrize(stabilizer_matrix(g), [()]))
    assert pauli_sum_of([p], dual_stabilizer(g)).rho.purity() == [1]


def test_purity_exact_beyond_int64():
    # 2 * 4 * (2^31)^2 = 2^65 would overflow int64 squares summed
    big = 1 << 31
    m = GaussianMatrix(np.full((2, 2), big, np.int64), np.full((2, 2), -big, np.int64), 40)
    assert layout_of(m).purity() == [Fraction(8 * big * big, 1 << 80)]


def test_rational_conjugation_matches_gaussian_and_dense(rng):
    for n in range(1, 5):
        dim = 1 << n
        for _ in range(6):
            w = random_word(rng, n)
            re = np.array([[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)])
            im = np.array([[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)])
            got = RationalMatrix(re.astype(object), im.astype(object), 3).conjugated_by(w)
            gauss = conjugate_dense(GaussianMatrix(re, im), w)
            assert got.denom == 3
            assert got.re.tolist() == gauss.re.tolist()
            assert got.im.tolist() == gauss.im.tolist()
            dense = word_to_complex(w)
            want = dense @ ((re + 1j * im) / 3) @ dense.conj().T
            assert np.allclose((got.re + 1j * got.im).astype(complex) / 3, want)
    with pytest.raises(DimensionError):
        RationalMatrix(re, im, 3).conjugated_by(PauliWord.identity(3))
    with pytest.raises(DimensionError):
        conjugate_dense(GaussianMatrix(re, im), PauliWord.identity(3))


def test_rational_conjugation_stays_exact():
    big = np.array([[(1 << 70) + 3 * j + k for k in range(4)] for j in range(4)], dtype=object)
    m = RationalMatrix(big, -big, 1 << 71)
    w = PauliWord.from_letters("YZ")
    once = m.conjugated_by(w)
    assert all(type(v) is int for v in once.re.flat)
    # Y on qubit 0 (the most significant index bit) maps index a to a ^ 2
    assert abs(once.re).tolist() == abs(big[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]).tolist()
    assert once.conjugated_by(w) == m


# ---- each child reads its J members off the dual rows' quadratic form ----


def test_child_from_pauli_sum_no_product_per_member(monkeypatch):
    # no ordered product and no word product per member: one call of the
    # parents' phases for all members of the chunk, and no word built for
    # the commutation test, which multiplies the generators' bit rows
    calls = {"ordered_product": 0, "mul": 0, "phases": 0, "PauliWord": 0}
    originals = {
        "ordered_product": mgstate.pauli.ordered_product,
        "mul": PauliWord.mul,
        "phases": mgstate.states.phases,
        "PauliWord": PauliWord.__init__,
    }

    def counting(name):
        def counted(*args):
            calls[name] += 1
            return originals[name](*args)
        return counted

    monkeypatch.setattr(mgstate.pauli, "ordered_product", counting("ordered_product"))
    monkeypatch.setattr(PauliWord, "mul", counting("mul"))
    monkeypatch.setattr(mgstate.states, "phases", counting("phases"))
    for text in (TRIANGLE, FOURNODE, FIVENODE):
        g = parse_graph(text)
        e, _ = mixed_rank(g)
        duals = dual_stabilizer(g)
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        for i in range(len(subs)):
            parents = extend_for_subgroup(g, subs[i:i + 1], stabilizer_matrix(g))
            gens = indicator(parents)
            for name in calls:
                calls[name] = 0
            monkeypatch.setattr(PauliWord, "__init__", counting("PauliWord"))
            child = child_from_pauli_sum(parents, duals, gens)
            monkeypatch.setattr(PauliWord, "__init__", originals["PauliWord"])
            assert len(child.terms(0)) == 1 << (g.n - e)
            assert calls == {"ordered_product": 0, "mul": 0, "phases": 1, "PauliWord": 0}


def _term_graphs():
    graphs = [parse_graph(p.read_text()) for p in sorted(FIXTURES.glob("*.graph"))]
    for n in range(2, 8):
        edges = "".join(f"edge {j} -> {k}\n" for j, k in itertools.combinations(range(n), 2))
        graphs.append(parse_graph(f"nodes {n}\n" + edges))
    rng = random.Random(5120)
    return graphs + [random_mixed_graph(rng, rng.randrange(2, 8)) for _ in range(40)]


def test_pauli_terms_match_ordered_products():
    # the oracle: one ordered product of the dual rows per J member, and the
    # term-by-term parent phase, give the same x, z, phase and b_j as the
    # quadratic forms
    members_seen = 0
    for g in _term_graphs():
        duals = dual_stabilizer(g)
        for p in _every_parent(g)[1]:
            gmat, parent_phase = one_indicator(p)[1], phase_oracle(p)
            terms = mgstate.states._pauli_terms(batch_of([p]), duals, one_gens([p]))
            x, z, phase, b = (a[0] for a in terms)
            members = x.tolist()
            assert members == span(gmat.rows, g.n)  # ascending
            for k, j in enumerate(members):
                word = ordered_product(duals, bits_of(j))
                want_b = (-parent_phase(j) - word.phase - 2 * parity(word.x & word.z)) % 4
                want = (word.x, word.z, word.phase, want_b)
                assert (x[k], z[k], phase[k], b[k]) == want, (g, p, j)
            child = pauli_sum_of([p], duals)
            assert child.terms(0) == dict(zip(members, b))
            members_seen += len(members)
    assert members_seen > 5000


def test_offsets_are_j_as_the_report_masks():
    # D = J as the masks the report prints under generators_g and
    # coefficients, bit j = qubit j, on both routes, and the terms' keys
    parents = 0
    for g in _term_graphs():
        duals = dual_stabilizer(g)
        for p in _every_parent(g)[1]:
            ind = one_indicator(p)
            members = span_of_basis(ind[1].rows)
            child = pauli_sum_of([p], duals)
            assert child.rho.offsets.tolist() == [members], (g, p)
            assert child_from_partial_trace(batch_of([p])).offsets.tolist() == [members], (g, p)
            assert sorted(child.terms(0)) == members, (g, p)
            parents += 1
    assert parents > 500


def test_child_from_pauli_sum_rejects_anticommuting_generators():
    # J of a triangle parent is spanned by 100 and 011; over the dual rows of
    # the one-arc graph 0 -> 1 those index XII and ZXX, which anticommute
    p = parents_of(extend_e1(parse_graph(TRIANGLE)))[0]
    other = dual_stabilizer(parse_graph("nodes 3\nedge 0 -> 1\n"))
    with pytest.raises(AssertionError, match="J members must commute pairwise"):
        pauli_sum_of([p], other)
    pauli_sum_of([p], dual_stabilizer(parse_graph(TRIANGLE)))


# ---- the partial-trace route against term-by-term and einsum oracles ----


def phase_oracle(p):
    """p(x) summed term by term: 2 per edge inside x, 1 per red node in x
    and 2 per offset row in x, for x a bitset over all n + e qubits."""
    pairs = [(j, k) for j, k in itertools.combinations(range(p.total), 2) if p.ae.get(j, k)]
    red = [j for j in range(p.total) if p.ae.get(j, j)]
    offsets = sorted(p.lab_offsets | p.env_offsets)

    def evaluate(x):
        v = sum(2 * ((x >> j) & (x >> k) & 1) for j, k in pairs)
        v += sum((x >> j) & 1 for j in red)
        v += sum(2 * ((x >> j) & 1) for j in offsets)
        return v % 4

    return evaluate


def oracle_phases(p):
    """``phase_oracle`` at every basis index of the n + e parent qubits."""
    evaluate = phase_oracle(p)
    # index bit total - 1 - j is qubit j
    return [
        evaluate(sum(((idx >> (p.total - 1 - j)) & 1) << j for j in range(p.total)))
        for idx in range(1 << p.total)
    ]


def traced_oracle(p):
    """The child as a numpy complex |psi><psi| traced over the environment
    axes by einsum, with psi built from ``phase_oracle``."""
    n, total = p.n, p.total
    psi = psi_of(p).reshape((2,) * total)
    lab, lab2, env = list(range(n)), list(range(total, total + n)), list(range(n, total))
    rho = np.einsum(psi, lab + env, psi.conj(), lab2 + env, lab + lab2)
    return rho.reshape(1 << n, 1 << n) / (1 << total)


def hand_built_parents(rng, count):
    """Random symmetric parents with what ``symmetrize`` never writes: red
    environment nodes, environment-environment edges and environment
    offsets."""
    out = []
    for _ in range(count):
        n, e = rng.randrange(1, 5), rng.randrange(0, 4)
        total = n + e
        rows = [0] * total
        for j in range(total):
            for k in range(j, total):
                if rng.random() < 0.5:
                    rows[j] |= 1 << k
                    rows[k] |= 1 << j
        offsets = [j for j in range(total) if rng.random() < 0.4]
        out.append(ParentExtension(
            n, e, BinMatrix(tuple(rows), total),
            frozenset(j for j in offsets if j < n), frozenset(j for j in offsets if j >= n),
        ))
    return out


def _oracle_parents():
    parents = []
    for path in sorted(FIXTURES.glob("*.graph")):
        parents += _every_parent(parse_graph(path.read_text()))[1]
    hand = hand_built_parents(random.Random(9310), 60)
    env = [(p.ae.rows[j] >> p.n, 1 << (j - p.n)) for p in hand for j in range(p.n, p.total)]
    assert any(p.env_offsets for p in hand)
    assert any(row & own for row, own in env)  # a red environment node
    assert any(row & ~own for row, own in env)  # an environment-environment edge
    return parents + hand


def test_phase_matches_term_by_term_oracle():
    for p in _oracle_parents():
        evaluate = phase_oracle(p)
        xs = range(1 << p.total)
        bits = (np.array(xs)[:, None] >> np.arange(p.total)) & 1
        assert phases(batch_of([p]), bits).tolist() == [[evaluate(x) for x in xs]], p
        for k in range(p.total):  # rows over the first k qubits: x sets no later one
            want = [[evaluate(x) for x in range(1 << k)]]
            assert phases(batch_of([p]), bits[: 1 << k, :k]).tolist() == want


def _n_plus_e_12_parents():
    """Two parents at n + e = 12: the first subgroup's parent of the 8-node
    directed clique (e = 4), and an empty 2 + 10 parent with offset {1}, whose
    child sums 2^10 equal terms per entry, the most any n + e = 12 parent
    has."""
    edges = "".join(f"edge {j} -> {k}\n" for j, k in itertools.combinations(range(8), 2))
    g = parse_graph("nodes 8\n" + edges)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))[:1]
    empty = ParentExtension(2, 10, BinMatrix((0,) * 12, 12), frozenset({1}))
    return parents_of(extend_for_subgroup(g, subs, stabilizer_matrix(g))) + [empty]


def test_partial_trace_matches_einsum_oracle():
    for p in _oracle_parents() + _n_plus_e_12_parents():
        rho = child_from_partial_trace(batch_of([p]))
        assert np.array_equal(rho_to_complex(rho), traced_oracle(p)), p


def test_partial_trace_memory_does_not_grow_with_environment():
    # labs 0 and 1 joined to environment nodes 2 and 3, an offset on lab 0 and
    # 14 more isolated environment nodes: 2^18 parent amplitudes, a 4 x 4 child
    rows = [1 << 2, 1 << 3, 1 << 0, 1 << 1] + [0] * 14
    p = ParentExtension(2, 16, BinMatrix(tuple(rows), 18), frozenset({0}))
    tracemalloc.start()
    try:
        rho = child_from_partial_trace(batch_of([p]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rho_to_complex(rho), np.eye(4) / 4)
    assert peak < 1 << 20


# ---- stabilized_by on rho's nonzero entries, against the dense oracle ----


def dense_stabilized_by(rho, gens):
    mat = rho.dense(0)
    return all(same_matrix(conjugate_dense(mat, w), mat) for w in gens)


def complex_stabilized_by(rho, gens):
    dense = rho_to_complex(rho)
    return all(
        np.array_equal(word_to_complex(w) @ dense @ word_to_complex(w).conj().T, dense)
        for w in gens
    )


def test_stabilized_by_matches_dense_oracle_on_every_child():
    graphs = [parse_graph(p.read_text()) for p in sorted(FIXTURES.glob("*.graph"))]
    rng = random.Random(8821)
    graphs += [random_mixed_graph(rng, n) for n in (2, 3, 3, 4, 4, 5, 5, 6, 6, 7)]
    verdicts = {True: 0, False: 0}
    for g in graphs:
        rows, duals = stabilizer_matrix(g), dual_stabilizer(g)
        _, children = _every_child(g)
        for child in children:
            rho = child.rho
            assert stabilized_by(rho, rows) and dense_stabilized_by(rho, rows)
            for w in list(duals) + [random_word(rng, g.n)]:
                (got,) = stabilized_by(rho, [w]).tolist()
                assert got == dense_stabilized_by(rho, [w]), (g, child.parents.ae, w)
                verdicts[got] += 1
            mixed = list(rows) + [duals[0]]
            assert stabilized_by(rho, mixed).tolist() == [dense_stabilized_by(rho, mixed)]
    assert min(verdicts.values()) > 300


def _dm(n, terms, denom_log2):
    return layout_of(divided_by_pow2(pauli_sum(n, terms), denom_log2))


def _members(*words):
    """2^-n times the sum of ``words``, whose x parts differ, as a member list."""
    words = sorted(words, key=lambda w: w.x)
    return DensityMatrix(words[0].n, [[w.x for w in words]], [[w.z for w in words]],
                         [[w.phase for w in words]])


def test_stabilized_by_hand_made_cases():
    w = PauliWord.from_letters
    # member lists, checked by the identity z.d + x.z_d = 0 and by the oracles
    xx = _members(w("II"), w("XX"))
    plus_x = _members(w("I"), w("X"))
    plus_y = _members(w("I"), w("Y"))
    zero = members_of(GaussianMatrix(np.zeros((4, 4)), np.zeros((4, 4)), 3))  # no member
    assert zero.offsets.shape == (1, 0)
    members = [
        (xx, [w("ZZ")], True),
        (xx, [w("XI"), w("ZZ"), w("YY")], True),
        (xx, [w("ZI")], False),  # anticommutes with the XX term
        (xx, [w("ZZ"), w("IY")], False),  # only the second fails
        (plus_x, [w("Z")], False),  # every entry matches up to sign: real part
        (plus_y, [w("Z")], False),  # ... and imaginary part
        (plus_y, [w("Y")], True),
        (plus_x, [], True),  # no generators
        (zero, [w("XY"), w("ZI")], True),  # no nonzero entries
        (zero, [], True),
    ]
    for rho, gens, want in members:
        assert stabilized_by(rho, gens).tolist() == [want], (rho.z, gens)
        assert layout_stabilized_by(Layout.of(rho), gens).tolist() == [want]
        assert dense_stabilized_by(rho, gens) is want
        assert complex_stabilized_by(rho, gens) is want
    # layouts that no member list is: the oracle alone checks them
    zz = _dm(2, [(w("II"), 0), (w("ZZ"), 0)], 2)
    # diag(1, 1, 1, 0): (a, a) -> (a ^ x, a ^ x) leaves the nonzero pattern
    open_pattern = layout_of(GaussianMatrix(np.diag([1, 1, 1, 0]), np.zeros((4, 4)), 0))
    skew = layout_of(GaussianMatrix([[1, 2], [-3, 0]], [[0, 1], [5, 2]], 1))
    layouts = [
        (zz, [w("XX")], True),
        (zz, [w("ZI"), w("XX"), w("YY")], True),
        (zz, [w("XI")], False),  # anticommutes with the ZZ term
        (zz, [w("XX"), w("IY")], False),  # only the second fails
        (open_pattern, [w("IX")], False),
        (open_pattern, [w("XX")], False),
        (open_pattern, [w("ZZ"), w("IZ")], True),
        (skew, [], True),  # no generators
    ]
    for rho, gens, want in layouts:
        with pytest.raises(ValueError):
            members_of(rho.dense(0))
        assert layout_stabilized_by(rho, gens).tolist() == [want], (rho.dense(0).re, gens)
        assert dense_stabilized_by(rho, gens) is want
        assert complex_stabilized_by(rho, gens) is want
    with pytest.raises(DimensionError):
        stabilized_by(xx, [w("X")])
    with pytest.raises(DimensionError):
        layout_stabilized_by(zz, [w("X")])
    with pytest.raises(DimensionError):
        dense_stabilized_by(zz, [w("X")])


# ---- the XOR-offset layout against dense oracles ----


def test_layout_renders_both_oracles():
    # both routes' dense renderings equal the Pauli-sum oracle, the np.add.at
    # scatter of one ordered product per member, on every fixture parent, and
    # the einsum partial trace too on seeded random graphs with n <= 8, the
    # first 8 subgroups of each; the einsum test above covers the fixture
    # parents, and the hand-built ones, which have no dual rows
    rng = random.Random(6637)
    graphs = [(parse_graph(p.read_text()), None) for p in sorted(FIXTURES.glob("*.graph"))]
    graphs += [(random_mixed_graph(rng, n), 8) for n in (2, 3, 4, 5, 6, 7, 8, 6, 7, 8)]
    traced = 0
    for g, first in graphs:
        duals, rows = dual_stabilizer(g), stabilizer_matrix(g)
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))[:first]
        parents = parents_of(extend_for_subgroup(g, subs, rows))
        parents += parents_of(extend_e1(g)) if mixed_rank(g)[0] == 1 and first is None else []
        for p in parents:
            child = pauli_sum_of([p], duals)
            terms = [(ordered_product(duals, bits_of(j)), k) for j, k in child.terms(0).items()]
            oracle = divided_by_pow2(pauli_sum(g.n, terms), g.n)
            assert same_matrix(child.rho.dense(0), oracle)
            assert same_matrix(child_from_partial_trace(batch_of([p])).dense(0), oracle)
            assert same_children(members_of(oracle), child.rho)
            assert layout_of(oracle) == Layout.of(child.rho)
            if first:
                assert np.array_equal(rho_to_complex(child.rho), traced_oracle(p)), p
                traced += 1
    for p in hand_built_parents(random.Random(9310), 60):
        rho = child_from_partial_trace(batch_of([p]))
        assert same_children(members_of(rho.dense(0)), rho)
        assert layout_partial_trace([p]) == Layout.of(rho)
    assert traced > 40


def _dense_purity(m):
    return Fraction(int((m.re.astype(object) ** 2).sum() + (m.im.astype(object) ** 2).sum()),
                    1 << (2 * m.denom_log2))


def _member_cases(rho):
    """Edits of a member list, a chunk of one, that fail the checks: one
    phase off by 1, member 0's phase off by 2, one z bit flipped, and the
    last member dropped."""
    d, z, kappa = rho.offsets, rho.z.copy(), rho.kappa.copy()
    odd, sign, flipped = kappa.copy(), kappa.copy(), z.copy()
    odd[0, -1] += 1
    sign[0, 0] += 2
    flipped[0, -1] ^= 1
    return [DensityMatrix(rho.n, d, z, odd), DensityMatrix(rho.n, d, z, sign),
            DensityMatrix(rho.n, d, flipped, kappa),
            DensityMatrix(rho.n, d[:, :-1], z[:, :-1], kappa[:, :-1])]


def test_layout_checks_match_dense_oracles():
    w = PauliWord.from_letters
    g = parse_graph(TRIANGLE)
    rows = stabilizer_matrix(g)
    parents = extend_e1(g)[:1]
    child = child_from_pauli_sum(parents, dual_stabilizer(g), one_gens(parents_of(parents)))
    words = [w("".join(letters)) for letters in itertools.product("IXYZ", repeat=3)]
    mover = next(v for v in words if not stabilized_by(child.rho, [v]))
    moved = conjugated(child.rho, mover)
    no_diagonal = members_of(GaussianMatrix([[0, 1], [1, 0]], np.zeros((2, 2)), 1))
    layouts = [
        Layout.of(child.rho),
        Layout(3, child.rho.offsets, 2 * child.rho.num, 3),  # doubled
        Layout.of(moved),  # a child conjugated by a word that does not fix it
        layout_of(GaussianMatrix(np.diag([1, 1, 1, 0]), np.zeros((4, 4)), 0)),  # open_pattern
        layout_of(GaussianMatrix(np.zeros((4, 4)), np.zeros((4, 4)), 3)),  # zero
        layout_of(GaussianMatrix([[1, 2], [-3, 0]], [[0, 1], [5, 2]], 1)),  # skew
        Layout.of(no_diagonal),  # no diagonal row
    ]
    for rho in layouts:
        dense = rho_to_complex(rho)
        assert rho.trace_is_one().tolist() == [np.trace(dense) == 1]
        assert rho.is_hermitian().tolist() == [np.array_equal(dense, dense.conj().T)]
        assert rho.purity() == [_dense_purity(rho.dense(0))]
        same_n = rho.n == g.n
        for gens in [rows, [mover], words] if same_n else [[w("X" * rho.n), w("Z" * rho.n)]]:
            assert layout_stabilized_by(rho, gens).tolist() == [dense_stabilized_by(rho, gens)]
        for other in layouts:
            assert (rho == other) == (rho.n == other.n and same_matrix(rho.dense(0), other.dense(0)))
    traces = np.concatenate([rho.trace_is_one() for rho in layouts]).tolist()
    assert traces == [True, False, True, False, False, False, False]
    hermitian = np.concatenate([rho.is_hermitian() for rho in layouts]).tolist()
    assert hermitian == [True, True, True, True, True, False, True]
    assert not dense_stabilized_by(child.rho, [mover]) and not same_children(moved, child.rho)
    # each identity on a member list gives the verdict of its check on the
    # rendered layout, on children and on edits that fail them
    members = [child.rho, moved, no_diagonal] + _member_cases(child.rho) + _member_cases(moved)
    failed = set()
    for rho in members:
        layout = Layout.of(rho)
        got = [rho.trace_is_one().tolist(), rho.is_hermitian().tolist(), rho.purity()]
        assert got == [layout.trace_is_one().tolist(), layout.is_hermitian().tolist(),
                       layout.purity()]
        same_n = rho.n == g.n
        for gens in [rows, [mover], words] if same_n else [[w("X" * rho.n), w("Z" * rho.n)]]:
            assert stabilized_by(rho, gens).tolist() == layout_stabilized_by(layout, gens).tolist()
        for other in members:
            assert rho.agrees_with(other).tolist() == layout.agrees_with(Layout.of(other)).tolist()
        failed |= {name for name, ok in zip(("trace", "hermitian"), got[:2]) if not ok[0]}
        failed |= {"stabilized"} if same_n and not stabilized_by(rho, rows)[0] else set()
    assert failed == {"trace", "hermitian", "stabilized"}


def test_layout_rejects_duplicate_or_missing_offset():
    rho = child_from_partial_trace(extend_e1(parse_graph(TRIANGLE))[:1])
    d, z, kappa = rho.offsets[0], rho.z[0], rho.kappa[0]

    def members(offsets, zs=z, ks=kappa):  # a chunk of one
        return DensityMatrix(3, offsets[None], zs[None], ks[None])

    assert list(d) == sorted(set(d.tolist())) and len(d) == 4
    with pytest.raises(ValueError, match="distinct"):  # a duplicate member
        members(np.array([d[0], d[1], d[1], d[3]]))
    with pytest.raises(ValueError, match="distinct"):  # out of order
        members(d[::-1].copy())
    with pytest.raises(ValueError, match="distinct"):  # past 2^n
        members(np.array([0, 1, 2, 8]))
    with pytest.raises(ValueError, match="z masks below"):  # a z mask past 2^n
        members(d, z | 8)
    with pytest.raises(ValueError, match="one z mask"):  # a member with no z mask
        members(d[:3])
    with pytest.raises(ValueError, match="one z mask"):
        members(d, z[:3])
    with pytest.raises(ValueError, match="one z mask"):  # a member with no phase
        members(d, ks=kappa[:3])
    with pytest.raises(ValueError, match="one z mask"):  # one child's arrays, not a chunk's
        DensityMatrix(3, d, z, kappa)
    # phases are read mod 4; a list missing one member of the child's
    # support differs from it, and so does one with a member's phase moved
    assert same_children(members(d, z, kappa + 4), rho)
    assert not same_children(members(d[:3], z[:3], kappa[:3]), rho)
    assert not same_children(members(d, z, kappa + (d == d[-1])), rho)


def test_layout_keeps_int8_numerators_only_without_their_minimum():
    # the routes' rendered rows are int8 units; -(-128) wraps to -128 in
    # int8, so the layout oracle widens a layout holding -128, and its sign
    # and conjugation checks stay exact
    g = parse_graph(TRIANGLE)
    p = parents_of(extend_e1(g))[0]
    child = pauli_sum_of([p], dual_stabilizer(g))
    assert child.rho.num.dtype == child_from_partial_trace(batch_of([p])).num.dtype == np.int8
    w = PauliWord.from_letters
    real = Layout(1, np.array([[1]]), np.array([[[[-128, -128]], [[0, 0]]]], np.int8), 0)
    imaginary = Layout(1, np.array([[1]]), np.array([[[[0, 0]], [[-128, -128]]]], np.int8), 0)
    assert real.num.dtype == imaginary.num.dtype == np.int64
    assert not layout_stabilized_by(real, [w("Z")]) and not dense_stabilized_by(real, [w("Z")])
    assert real.is_hermitian() and not imaginary.is_hermitian()
    dense = rho_to_complex(imaginary)
    assert not np.array_equal(dense, dense.conj().T)


# ---- the member lists against the layout oracle ----


def test_member_lists_render_the_layout_oracle():
    # each row of a child's layout is a signed character, V[d, c] =
    # i^kappa_d (-1)^{z_d.c}: route 2's member list (d with H d = 0, A_L d
    # with its diagonal, p_L(d)) and route 1's, rendered by word_rows, equal
    # the partial trace on whole rows, on every child of the e >= 1
    # fixtures and on 300 seeded children of the 9-node directed clique
    cases = []
    for path in sorted(FIXTURES.glob("*.graph")):
        g = parse_graph(path.read_text())
        e, parents = _every_parent(g)
        if e >= 1:
            cases.append((g, parents))
    edges = "".join(f"edge {j} -> {k}\n" for j, k in itertools.combinations(range(9), 2))
    clique9 = parse_graph("nodes 9\n" + edges)
    subs = enumerate_max_isotropic(reduce_gamma(clique9.gamma()))
    picked = [subs[i] for i in sorted(random.Random(2609).sample(range(len(subs)), 300))]
    picked = extend_for_subgroup(clique9, subgroup_batch_of(picked), stabilizer_matrix(clique9))
    cases.append((clique9, parents_of(picked)))
    children = 0
    for g, parents in cases:
        want = layout_partial_trace(parents)
        traced = child_from_partial_trace(batch_of(parents))
        built = pauli_sum_of(parents, dual_stabilizer(g))
        assert Layout.of(traced) == want and Layout.of(built.rho) == want, g
        children += len(parents)
    assert children == 180 + 2 * 9 + 300  # e >= 2, the two e = 1 fixtures, the clique


# ---- chunks against the per-child oracle ----


def _perturbed(rho, start):
    """The chunk with the child at place start + i changed by that place mod
    4: kept, negated, its last member's phase off by 1, or its last
    member's z bit 0 flipped, so that the checks meet children that fail
    them."""
    z, kappa = rho.z.copy(), rho.kappa.copy()
    kind = (start + np.arange(len(rho))) % 4
    kappa[kind == 1] += 2
    kappa[kind == 2, -1] += 1
    z[kind == 3, -1] ^= 1
    return DensityMatrix(rho.n, rho.offsets, z, kappa)


def _one_verdicts(one, traced, rows, words):
    """The per-child checks of ``one``: the oracle of the chunk's verdicts."""
    return [one.stabilized_by(rows), one.trace_is_one(), one.is_hermitian(), one.purity(),
            np.array_equal(one.num, traced.num)] + [one.stabilized_by([w]) for w in words]


def test_chunks_match_the_per_child_oracle(monkeypatch):
    # every parent of the fixtures, the directed cliques on 2-7 nodes and
    # 40 seeded graphs, chunked as verify chunks them with 1, 3 or all
    # children per chunk: rendered layouts, D, terms and every check's
    # verdict equal the per-child layout routes and checks, on the children
    # and on perturbed ones
    rng = random.Random(2323)
    verdicts = {True: 0, False: 0}
    for g in _term_graphs():
        duals, rows = dual_stabilizer(g), stabilizer_matrix(g)
        e, parents = _every_parent(g)
        inds = [one_indicator(p) for p in parents]
        words = [random_word(rng, g.n)]
        whole = pauli_sum_of(parents, duals)
        oracle = []
        for p, ind, perturbed in zip(parents, inds, _perturbed(whole.rho, 0).num):
            one, terms = one_pauli_sum(p, duals, ind)
            one_traced = one_partial_trace(p)
            want = [_one_verdicts(OneChild(g.n, one.offsets, num, g.n), one_traced, rows, words)
                    for num in (one.num, perturbed)]
            oracle.append((one, terms, one_traced, want))
            for verdict in want[0][:3] + want[1][:3]:
                verdicts[verdict] += 1
        for children in (1, 3, len(parents)):
            words_per_child = (3 << g.n - e) + (1 << g.n)
            monkeypatch.setattr(mgstate.states, "CHUNK_ENTRIES", children * words_per_child)
            assert mgstate.states.chunk_len(g.n, e) == children
            for start in range(0, len(parents), children):
                built = pauli_sum_of(parents[start:start + children], duals)
                traced = child_from_partial_trace(batch_of(parents[start:start + children]))
                got = [list(zip(
                    stabilized_by(rho, rows).tolist(), rho.trace_is_one().tolist(),
                    rho.is_hermitian().tolist(), rho.purity(), rho.agrees_with(traced).tolist(),
                    *(stabilized_by(rho, [w]).tolist() for w in words)))
                    for rho in (built.rho, _perturbed(built.rho, start))]
                for i in range(len(built)):
                    one, terms, one_traced, want = oracle[start + i]
                    assert built.terms(i) == terms
                    assert built.rho.offsets[i].tolist() == one.offsets.tolist()
                    assert traced.offsets[i].tolist() == one_traced.offsets.tolist()
                    assert np.array_equal(built.rho.num[i], one.num)
                    assert np.array_equal(traced.num[i], one_traced.num)
                    assert [list(v[i]) for v in got] == want, (g, parents[start + i])
    assert min(verdicts.values()) > 500


def test_chunk_children_must_share_d():
    # a chunk holds children of one |D|: the e = 1 triangle parent and an
    # e = 0 parent on the same lab qubits do not share one
    g = parse_graph(TRIANGLE)
    p1 = parents_of(extend_e1(g))[0]
    (p0,) = parents_of(symmetrize(stabilizer_matrix(g), [()]))
    with pytest.raises(ValueError, match="share"):
        pauli_sum_of([p1, p0], dual_stabilizer(g))
    hand = [ParentExtension(2, 1, BinMatrix((4, 0, 1), 3)), ParentExtension(2, 1, BinMatrix((0, 0, 0), 3))]
    with pytest.raises(ValueError, match="share"):
        child_from_partial_trace(batch_of(hand))
    # a chunk renders child i as the chunk of its parent alone does
    pair = child_from_partial_trace(extend_e1(g)[:2])
    assert same_matrix(pair.dense(1), child_from_partial_trace(extend_e1(g)[1:2]).dense(0))
