from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mgstate.states
from conftest import kron_letters, random_word, rho_to_complex, word_to_complex
from mgstate.extension import (
    ParentExtension,
    extend_e1,
    extend_for_subgroup,
    indicator,
    symmetrize,
)
from mgstate.f2 import BinMatrix, bits_of, parity, span
from mgstate.graphs import MixedGraph, dual_stabilizer, mixed_rank, parse_graph, stabilizer_matrix
from mgstate.pauli import BoundExceeded, DimensionError, GaussianMatrix, PauliWord, ordered_product
from mgstate.states import (
    DensityMatrix,
    RationalMatrix,
    _z_pattern_equivalent,
    child_from_partial_trace,
    child_from_pauli_sum,
    children_family_e1,
    convex_combine,
    parent_phases,
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
    return np.array([1, 1j, -1, -1j])[parent_phases(p)]


def fixes(w, psi):
    """w |psi> = |psi>, through the dense word of the test oracle."""
    return np.array_equal(word_to_complex(w) @ psi, psi)


# ---- the parent state i^{p(x)} ----


def test_state_sec2_vector_matches_display():
    ph = parent_phases(parent_from_paper(*SEC2_PARENT, 3, 1))
    # the displayed 16-vector indexes with x0 as the least significant bit
    got = []
    for disp_idx in range(16):
        msb_idx = int(format(disp_idx, "04b")[::-1], 2)
        got.append({0: 1, 2: -1}[int(ph[msb_idx])])
    assert got == SEC2_STATE_LSB


def test_state_trivial_plus():
    p = parent_from_paper([], [], [], 1, 0)
    assert parent_phases(p).tolist() == [0, 0]
    # normalised by 2^{-1/2} per amplitude: |+><+|
    assert np.array_equal(rho_to_complex(child_from_partial_trace(p)), np.full((2, 2), 0.5))


def test_state_bound(monkeypatch):
    monkeypatch.delenv("MGSTATE_MAX_QUBITS", raising=False)
    p = parent_from_paper([], [], [], 12, 1)
    with pytest.raises(BoundExceeded):
        parent_phases(p)
    with pytest.raises(BoundExceeded):
        child_from_partial_trace(p)


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
        for p in extend_e1(g):
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
    rho = child_from_partial_trace(parent_from_paper(*RHO0_PARENT, 3, 1))
    assert np.array_equal(rho_to_complex(rho), paper_matrix(RHO0_NUM, 8))


def test_rho1_rho2_from_partial_trace():
    for parent, num in ((RHO1_PARENT, RHO1_NUM), (RHO2_PARENT, RHO2_NUM)):
        rho = child_from_partial_trace(parent_from_paper(*parent, 3, 1))
        assert np.array_equal(rho_to_complex(rho), paper_matrix(num, 8))


def test_sec2_traced_display():
    # the displayed matrix is twice the partial trace, indexed with x0 as
    # the least significant bit
    rho = child_from_partial_trace(parent_from_paper(*SEC2_PARENT, 3, 1))
    mine = rho_to_complex(rho)
    rev = [int(format(a, "03b")[::-1], 2) for a in range(8)]
    reindexed = mine[np.ix_(rev, rev)]
    assert np.array_equal(2 * reindexed, paper_matrix(SEC2_TRACED_NUM, 4))
    assert rho.trace_is_one()


def test_partial_trace_product_state_is_pure():
    # lab state (x0 x1 quadratic) tensored with an unentangled environment
    rho = child_from_partial_trace(parent_from_paper([(0, 1)], [], [], 2, 1))
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
    parents = extend_e1(g)
    # column (X, Z, Y): rho = (s000 + s100 + i s011 + i s111)/8
    p_xzy = parents[0]
    coeffs = child_from_pauli_sum(p_xzy, duals).terms
    keyed = {format(k, "03b")[::-1]: v for k, v in coeffs.items()}
    assert keyed == {"000": 0, "100": 0, "011": 1, "111": 1}
    # column (X, Y, Z): rho = (s000 + s100 - i s011 - i s111)/8
    p_xyz = parents[1]
    coeffs = child_from_pauli_sum(p_xyz, duals).terms
    keyed = {format(k, "03b")[::-1]: v for k, v in coeffs.items()}
    assert keyed == {"000": 0, "100": 0, "011": 3, "111": 3}


def test_sign_coefficients_binary_flip_rule():
    g = parse_graph(TRIANGLE)
    duals = triangle_duals()
    p = extend_e1(g)[0]
    base = child_from_pauli_sum(p, duals).terms
    flipped = child_from_pauli_sum(
        dataclasses.replace(p, lab_offsets=p.lab_offsets ^ {0}), duals
    ).terms
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
        for p in extend_e1(g):
            coeffs = child_from_pauli_sum(p, duals).terms
            for j, k in coeffs.items():
                word = ordered_product(duals, bits_of(j))
                scaled = PauliWord(word.n, word.x, word.z, word.phase + k)
                assert scaled.is_hermitian()
                dense = scaled.to_dense()
                assert dense.is_hermitian()


def test_child_equals_partial_trace_all_paper_graphs():
    for text in (TRIANGLE, PATH_MIXED, FOURNODE, FIVENODE, CLIQUE6):
        g = parse_graph(text)
        duals = dual_stabilizer(g)
        e, _ = mixed_rank(g)
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        parents = []
        if e == 1:
            parents += extend_e1(g)
        for sub in subs:
            p = extend_for_subgroup(g, sub, stabilizer_matrix(g))
            assert p is not None
            parents.append(p)
        for p in parents:
            child = child_from_pauli_sum(p, duals)
            assert child.rho == child_from_partial_trace(p)


def test_child_trace_hermitian_mixed(rng):
    made = 0
    while made < 10:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        e, _ = mixed_rank(g)
        if e < 1:
            continue
        made += 1
        duals = dual_stabilizer(g)
        sub = enumerate_max_isotropic(reduce_gamma(g.gamma()))[0]
        p = extend_for_subgroup(g, sub, stabilizer_matrix(g))
        child = child_from_pauli_sum(p, duals)
        assert child.rho.trace_is_one()
        assert child.rho.is_hermitian()
        assert not child.rho.is_pure()  # e >= 1 means properly mixed
        assert stabilized_by(child.rho, stabilizer_matrix(g))
        assert child.rho.mat.denom_log2 == g.n


def test_child_subgroup_is_maximal(rng):
    made = 0
    while made < 10:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        if mixed_rank(g)[0] != 1:
            continue
        made += 1
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        spans = {tuple(sorted(s.span_lifted())) for s in subs}
        for p in extend_e1(g):
            assert tuple(span(indicator(p)[1].rows, p.n)) in spans


def test_e0_child_is_pure_projector():
    g = parse_graph("nodes 3\nedge 0 -- 1\nedge 1 -- 2\n")
    p = symmetrize(stabilizer_matrix(g), ())
    child = child_from_pauli_sum(p, dual_stabilizer(g))
    assert len(child.terms) == 8  # sum over the whole stabilizer group
    assert child.rho == child_from_partial_trace(p)
    assert child.rho.is_pure()


def test_rho0_is_a_pauli_sum_child():
    # rho0's stated parent, fed through the Pauli-sum route
    p = parent_from_paper(*RHO0_PARENT, 3, 1)
    duals = triangle_duals()
    child = child_from_pauli_sum(p, duals)
    assert np.array_equal(rho_to_complex(child.rho), paper_matrix(RHO0_NUM, 8))
    # and it matches the partial trace of the same parent
    assert child.rho == child_from_partial_trace(p)


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
    if set(a.terms) != set(b.terms):
        return None
    for pattern in range(1 << n):
        if all((a.terms[j] + 2 * parity(pattern & j)) % 4 == b.terms[j] for j in a.terms):
            return pattern
    return None


def assert_z_patterns_match_search(children, n):
    for a, b in itertools.combinations(children, 2):
        got = _z_pattern_equivalent(a, b, n)
        assert (got is None) == (_z_pattern_search(a, b, n) is None)
        if got is not None:
            assert all((a.terms[j] + 2 * parity(got & j)) % 4 == b.terms[j] for j in a.terms)


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
        assert_z_patterns_match_search([child_from_pauli_sum(p, duals) for p in extend_e1(g)], g.n)
    # an odd difference (b_1 - a_1 = 3) and a J where a sign flip is forced
    # on 0b11 but not on either of its factors
    odd = [SimpleNamespace(terms={0: 0, 1: 0}), SimpleNamespace(terms={0: 0, 1: 3})]
    forced = [SimpleNamespace(terms={0: 0, 1: 0, 2: 0, 3: 0}),
              SimpleNamespace(terms={0: 0, 1: 0, 2: 0, 3: 2})]
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
            rho = child_from_partial_trace(p)
            assert np.array_equal(rho_to_complex(rho), expect), (a, b, binary)
            # and through the Pauli-sum route
            child = child_from_pauli_sum(p, duals)
            assert child.rho == rho


def test_linear_term_rule_via_z_conjugation(rng):
    # child(parent + binary x_k) = Z_k child(parent) Z_k
    made = 0
    while made < 8:
        g = random_mixed_graph(rng, rng.randrange(2, 5))
        if mixed_rank(g)[0] != 1:
            continue
        made += 1
        duals = dual_stabilizer(g)
        for p in extend_e1(g)[:2]:
            base = child_from_pauli_sum(p, duals).rho
            for k in range(g.n):
                flipped = dataclasses.replace(p, lab_offsets=p.lab_offsets ^ {k})
                flipped = child_from_pauli_sum(flipped, duals).rho
                zk = PauliWord(g.n, 0, 1 << k, 0)
                assert flipped == base.conjugated_by(zk)


# ---- six-clique worked child ----


def test_clique6_displayed_parent_graph_form():
    # the displayed intermediate extension of the clique symmetrizes to the
    # displayed graph form, binary offsets {1, 3, 4, 5} included
    from mgstate.extension import indicator, symmetrize
    from paper_data import CLIQUE6_SEC5_INTERMEDIATE_COLUMNS

    g = parse_graph(CLIQUE6)
    p = symmetrize(stabilizer_matrix(g), CLIQUE6_SEC5_INTERMEDIATE_COLUMNS)
    assert [r.letters() for r in p.rows()] == CLIQUE6_PARENT_AE_ROWS
    assert sorted(p.lab_offsets) == CLIQUE6_PARENT_BINARY
    assert p.env_offsets == frozenset()
    built = parent_from_paper(
        CLIQUE6_PARENT_QUAD, CLIQUE6_PARENT_Z4, CLIQUE6_PARENT_BINARY, 6, 3
    )
    assert built.ae == p.ae and built.lab_offsets == p.lab_offsets
    l_sets, gmat, h = indicator(p)
    assert [tuple(L) for L in l_sets] == [tuple(t) for t in CLIQUE6_L_SETS]
    assert h.row_strings() == CLIQUE6_H_ROWS
    assert gmat.row_strings() == CLIQUE6_G_ROWS
    # its child agrees across both routes and is stabilized by the clique
    duals = dual_stabilizer(g)
    child = child_from_pauli_sum(p, duals)
    assert child.rho == child_from_partial_trace(p)
    assert stabilized_by(child.rho, stabilizer_matrix(g))


def test_clique6_displayed_eight_term_child():
    # the displayed 8-term rho lists products of the rows of A itself,
    # i.e. it is the child of the mirror parent on the arrow-reversed
    # clique; with that orientation it reproduces exactly
    from mgstate.extension import extend_for_subgroup
    from mgstate.f2 import span
    from mgstate.subgroups import enumerate_max_isotropic, reduce_gamma
    from paper_data import CLIQUE6_SEC5_SUBGROUP_GENS

    g = parse_graph(CLIQUE6).reverse()
    duals = dual_stabilizer(g)
    target = set(span(list(CLIQUE6_SEC5_SUBGROUP_GENS), 6))
    sub = next(
        s
        for s in enumerate_max_isotropic(reduce_gamma(g.gamma()))
        if set(s.span_lifted()) == target
    )
    p = extend_for_subgroup(g, sub, stabilizer_matrix(g))
    child = child_from_pauli_sum(p, duals)
    expect = np.zeros((64, 64), dtype=complex)
    for sign, letters in CLIQUE6_CHILD_TERMS:
        expect = expect + sign * kron_letters(letters)
    assert np.array_equal(rho_to_complex(child.rho), expect / 64)
    assert child.rho == child_from_partial_trace(p)
    assert stabilized_by(child.rho, stabilizer_matrix(g))


def test_clique6_worked_subgroup_child_matches_trace():
    g = parse_graph(FIVENODE)
    duals = dual_stabilizer(g)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    target = set(span(list(FIVENODE_SUBGROUP_GENS), 5))
    sub = next(s for s in subs if set(s.span_lifted()) == target)
    p = extend_for_subgroup(g, sub, stabilizer_matrix(g))
    child = child_from_pauli_sum(p, duals)
    assert child.rho == child_from_partial_trace(p)
    assert set(child.terms) == target


# ---- convex combinations ----


def test_convex_combine_unit_weight():
    g = parse_graph(TRIANGLE)
    duals = dual_stabilizer(g)
    children, _ = children_family_e1(duals, extend_e1(g))
    rhos = [c.rho for c in children]
    mixed = convex_combine(rhos, [Fraction(1)] + [Fraction(0)] * 5)
    base = rhos[0]
    assert np.array_equal(
        mixed.re * (1 << base.mat.denom_log2), base.mat.re * mixed.denom
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
    ident = PauliWord.identity(2).to_dense().divided_by_pow2(2)
    rho = DensityMatrix(2, ident)
    assert stabilized_by(rho, [PauliWord.from_letters("XY"), PauliWord.from_letters("ZI")])


# ---- purity: tr rho^2 = 2^-e, with rho^2 = 2^-e rho as the matmul oracle ----


FIXTURES = Path(__file__).parent.parent / "src" / "mgstate" / "fixtures"


def _every_parent(g):
    rows = stabilizer_matrix(g)
    e, _ = mixed_rank(g)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    parents = [extend_for_subgroup(g, s, rows) for s in subs]
    if e == 1:
        parents += extend_e1(g)
    return e, parents


def _every_child(g):
    duals = dual_stabilizer(g)
    e, parents = _every_parent(g)
    return e, [child_from_pauli_sum(p, duals) for p in parents]


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
            assert rho.purity() == Fraction(1, 1 << e)
            # the full identity through the O(8^n) product
            assert rho.mat.matmul(rho.mat) == rho.mat.divided_by_pow2(e)
    assert seen_e >= {0, 1, 2, 3}


def test_purity_examples():
    for n in range(1, 5):
        ident = np.eye(1 << n, dtype=np.int64)
        mixed = DensityMatrix(n, GaussianMatrix(ident, 0 * ident, n))
        assert not mixed.is_pure()  # the old check passes it for any e >= 1 ...
        assert mixed.purity() == Fraction(1, 1 << n)  # ... purity tells it apart
    g = parse_graph("nodes 3\nedge 0 -- 1\nedge 1 -- 2\n")
    p = symmetrize(stabilizer_matrix(g), ())
    assert child_from_pauli_sum(p, dual_stabilizer(g)).rho.purity() == 1


def test_purity_exact_beyond_int64():
    # 2 * 4 * (2^31)^2 = 2^65 would overflow int64 squares summed
    big = 1 << 31
    m = GaussianMatrix(np.full((2, 2), big, np.int64), np.full((2, 2), -big, np.int64), 40)
    assert DensityMatrix(1, m).purity() == Fraction(8 * big * big, 1 << 80)


def test_rational_conjugation_matches_gaussian_and_dense(rng):
    for n in range(1, 5):
        dim = 1 << n
        for _ in range(6):
            w = random_word(rng, n)
            re = np.array([[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)])
            im = np.array([[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)])
            got = RationalMatrix(re.astype(object), im.astype(object), 3).conjugated_by(w)
            gauss = GaussianMatrix(re, im).conjugate_by_word(w)
            assert got.denom == 3
            assert got.re.tolist() == gauss.re.tolist()
            assert got.im.tolist() == gauss.im.tolist()
            dense = word_to_complex(w)
            want = dense @ ((re + 1j * im) / 3) @ dense.conj().T
            assert np.allclose((got.re + 1j * got.im).astype(complex) / 3, want)
    with pytest.raises(DimensionError):
        RationalMatrix(re, im, 3).conjugated_by(PauliWord.identity(3))
    with pytest.raises(DimensionError):
        GaussianMatrix(re, im).conjugate_by_word(PauliWord.identity(3))


def test_rational_conjugation_stays_exact():
    big = np.array([[(1 << 70) + 3 * j + k for k in range(4)] for j in range(4)], dtype=object)
    m = RationalMatrix(big, -big, 1 << 71)
    w = PauliWord.from_letters("YZ")
    once = m.conjugated_by(w)
    assert all(type(v) is int for v in once.re.flat)
    # Y on qubit 0 (the most significant index bit) maps index a to a ^ 2
    assert abs(once.re).tolist() == abs(big[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]).tolist()
    assert once.conjugated_by(w) == m


# ---- each child is built from one ordered product per J member ----


def test_child_from_pauli_sum_one_product_per_member(monkeypatch):
    calls = []

    def counted(rows, indices):
        calls.append(indices)
        return ordered_product(rows, indices)

    monkeypatch.setattr(mgstate.states, "ordered_product", counted)
    for text in (TRIANGLE, FOURNODE, FIVENODE):
        g = parse_graph(text)
        e, _ = mixed_rank(g)
        duals = dual_stabilizer(g)
        for sub in enumerate_max_isotropic(reduce_gamma(g.gamma())):
            p = extend_for_subgroup(g, sub, stabilizer_matrix(g))
            calls.clear()
            child = child_from_pauli_sum(p, duals)
            assert len(calls) == len(child.terms) == 1 << (g.n - e)


def test_child_from_pauli_sum_rejects_anticommuting_generators():
    # J of a triangle parent is spanned by 100 and 011; over the dual rows of
    # the one-arc graph 0 -> 1 those index XII and ZXX, which anticommute
    p = extend_e1(parse_graph(TRIANGLE))[0]
    other = dual_stabilizer(parse_graph("nodes 3\nedge 0 -> 1\n"))
    with pytest.raises(AssertionError, match="J members must commute pairwise"):
        child_from_pauli_sum(p, other)
    child_from_pauli_sum(p, dual_stabilizer(parse_graph(TRIANGLE)))


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


def traced_oracle(p):
    """The child as a numpy complex |psi><psi| traced over the environment
    axes by einsum, with psi built from ``phase_oracle``."""
    n, total = p.n, p.total
    evaluate = phase_oracle(p)
    units = [1, 1j, -1, -1j]
    # index bit total - 1 - j is qubit j
    psi = np.array([
        units[evaluate(sum(((idx >> (total - 1 - j)) & 1) << j for j in range(total)))]
        for idx in range(1 << total)
    ]).reshape((2,) * total)
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
        table = parent_phases(p).tolist()
        for idx in range(1 << p.total):
            x = sum(((idx >> (p.total - 1 - j)) & 1) << j for j in range(p.total))
            assert p.phase(x) == table[idx] == evaluate(x), (p, x)


def test_partial_trace_matches_einsum_oracle():
    for p in _oracle_parents():
        assert np.array_equal(rho_to_complex(child_from_partial_trace(p)), traced_oracle(p)), p
