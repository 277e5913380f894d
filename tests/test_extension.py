from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

import mgstate.extension
from conftest import (
    ParentExtension,
    one_closed_form_columns,
    one_extend_for_subgroup,
    one_indicator,
    one_meets_extension_condition,
    one_parity_basis,
    one_symmetrize,
    parents_of,
    span_of_basis,
)
from mgstate.extension import (
    ExtensionError,
    ParentBatch,
    _closed_form_columns,
    _greedy_columns,
    extend_e1,
    extend_for_subgroup,
    indicator,
    meets_extension_condition,
    symmetrize,
    verify_full_commutation,
)
from mgstate.f2 import BinMatrix, bits_of, mask_of, rank, rref, solve, span
from mgstate.graphs import (
    MixedGraph,
    dual_stabilizer,
    mixed_rank,
    parse_graph,
    stabilizer_matrix,
)
from mgstate.pauli import PauliWord
from mgstate.subgroups import chi, enumerate_max_isotropic, reduce_gamma
from paper_data import (
    CLIQUE6,
    CLIQUE6_EXT_COLUMNS,
    CLIQUE6_SUBGROUP_GENS,
    FIVENODE,
    FIVENODE_EXT_COLUMNS,
    FIVENODE_SUBGROUP_GENS,
    FOURNODE,
    PATH_MIXED,
    SEC2_AE_ROWS,
    SEC2_AE_ROWS_ALT,
    TRIANGLE,
)
from test_graphs import random_mixed_graph
from test_states import _term_graphs

FIXTURES = Path(__file__).parent.parent / "src" / "mgstate" / "fixtures"

# a 128-node path with two directed edges: e = 2, chi(2) = 15 subgroups of
# 2^126 members each
SPARSE128 = (
    "nodes 128\n"
    + "".join(f"edge {j} -- {j + 1}\n" for j in range(127))
    + "edge 0 -> 5\nedge 40 -> 90\n"
)


def subgroup_for_generators(g, gens):
    """The enumerated subgroup that ``gens`` span, as a batch of one."""
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    target_span = set(span(list(gens), g.n))
    for i, s in enumerate(subs):
        if set(span_of_basis(s.lifted_basis)) == target_span:
            return subs[i:i + 1]
    raise AssertionError("generators do not span an enumerated maximal subgroup")


def graph_form_letters(p: ParentExtension):
    return [r.letters() for r in p.rows()]


def mask_columns(columns):
    """Extension columns written as letters, such as ("X", "Z", "I") or
    "XZI", as the (x, z) lab bit masks that the extension code takes."""
    return tuple((w.x, w.z) for w in (PauliWord.from_letters("".join(c)) for c in columns))


def test_verify_full_commutation_triangle_rows():
    g = parse_graph(TRIANGLE)
    assert not verify_full_commutation(stabilizer_matrix(g))


def test_extend_e1_requires_rank_one():
    with pytest.raises(ExtensionError):
        extend_e1(parse_graph(FOURNODE))


def test_extend_e1_triangle_six_parents():
    g = parse_graph(TRIANGLE)
    parents = parents_of(extend_e1(g))
    assert len(parents) == 6
    assigns = [p.ext_assign[0] for p in parents]
    assert assigns == list(mask_columns(["XZY", "XYZ", "ZXY", "ZYX", "YXZ", "YZX"]))
    for p in parents:
        assert verify_full_commutation(p.rows())
        assert p.ae.is_symmetric()
        # environment diagonal fixed to X
        assert not p.ae.get(3, 3)


def test_extend_e1_triangle_xzy_graph_form():
    # the worked (X, Z, Y) parent: 2(x0x2+x1x2+x1x3+x2x3+x2)+x2
    g = parse_graph(TRIANGLE)
    p = parents_of(extend_e1(g))[0]
    assert p.ext_assign == mask_columns(["XZY"])
    edges = {(j, k) for j, k in itertools.combinations(range(p.total), 2) if p.ae.get(j, k)}
    assert edges == {(0, 2), (1, 2), (1, 3), (2, 3)}
    assert [j for j in range(p.total) if p.ae.get(j, j)] == [2]
    assert sorted(p.lab_offsets) == [2]
    assert sorted(p.env_offsets) == []


def test_extend_e1_sec2_worked_graph_forms():
    g = parse_graph(PATH_MIXED)
    parents = parents_of(extend_e1(g))
    assert len(parents) == 6
    by_assign = {p.ext_assign[0]: p for p in parents}
    # column (Z, X, I) gives the displayed connected graph form
    p = by_assign[mask_columns(["ZXI"])[0]]
    assert graph_form_letters(p) == SEC2_AE_ROWS
    assert p.lab_offsets == frozenset() and p.env_offsets == frozenset()
    # column (X, Z, I) gives the displayed disconnected graph form
    q = by_assign[mask_columns(["XZI"])[0]]
    assert graph_form_letters(q) == SEC2_AE_ROWS_ALT
    assert q.lab_offsets == frozenset() and q.env_offsets == frozenset()


def test_extend_e1_undirected_only_node_gets_identity():
    g = parse_graph(PATH_MIXED)
    for p in parents_of(extend_e1(g)):
        x, z = p.ext_assign[0]
        assert not ((x | z) >> 2) & 1


def test_extend_e1_rows_commute_random(rng):
    made = 0
    while made < 30:
        g = random_mixed_graph(rng, rng.randrange(2, 7))
        if mixed_rank(g)[0] != 1:
            continue
        made += 1
        parents = extend_e1(g)
        assert 1 <= len(parents) <= 6
        assert indicator(parents).shape == (len(parents), g.n - 1)
        for p, h in zip(parents_of(parents), parents.parity_rows().tolist()):
            assert verify_full_commutation(p.rows())
            assert p.ae.is_symmetric()
            assert len(h) == 1


def test_extend_e1_children_cover_all_maximal_subgroups(rng):
    made = 0
    while made < 15:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        if mixed_rank(g)[0] != 1:
            continue
        made += 1
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        spans = {tuple(sorted(span_of_basis(s.lifted_basis))) for s in subs}
        hit = set()
        for gens in indicator(extend_e1(g)).tolist():
            hit.add(tuple(span(gens, g.n)))
        assert hit == spans  # all 3 maximal subgroups appear as children
        assert len(spans) == 3


def _extended_rows(stabilizer, columns):
    """Lab rows (the graph's stabilizer rows) with the (x, z) extension
    columns' tags plus the forced environment rows X_{n+m} Z^{L_m}, L_m the
    Z/Y support of column m.
    """
    n = len(stabilizer)
    total = n + len(columns)
    rows = []
    for j, base in enumerate(stabilizer):
        x, z, ph = base.x, base.z, base.phase
        for m, (xm, zm) in enumerate(columns):
            xb, zb = (xm >> j) & 1, (zm >> j) & 1
            x |= xb << (n + m)
            z |= zb << (n + m)
            ph += xb & zb  # Y = i X Z
        rows.append(PauliWord(total, x, z, ph))
    for m, (_, zm) in enumerate(columns):
        rows.append(PauliWord(total, 1 << (n + m), zm, 0))
    return rows


def _graph_form_by_row_products(rows, n, e):
    """Oracle for ``symmetrize``: the general reduction of commuting rows to
    graph form by row multiplications, as (ae, lab offsets, env offsets).

    Where the reduction would have to conjugate an environment column, the
    oracle raises instead.
    """
    total = n + e
    work = list(rows)
    if not verify_full_commutation(work):
        raise ExtensionError("rows do not pairwise commute")
    assert all((work[j].x & ((1 << n) - 1)) == 1 << j for j in range(n))
    # environment rows: clear lab x-bits by multiplying with lab rows
    for m in range(n, total):
        for j in range(n):
            if (work[m].x >> j) & 1:
                work[m] = work[j].mul(work[m])
    if rank(BinMatrix(tuple(work[m].x >> n for m in range(n, total)), e)) != e:
        raise AssertionError("reduction needs an H conjugation")
    # row-reduce environment rows to X exactly at their own position
    for m in range(e):
        col = n + m
        pivot = next(i for i in range(m, e) if (work[n + i].x >> col) & 1)
        work[n + m], work[n + pivot] = work[n + pivot], work[n + m]
        for i in range(e):
            if i != m and ((work[n + i].x >> col) & 1):
                work[n + i] = work[n + m].mul(work[n + i])
    # lab rows: clear environment x-bits
    for j in range(n):
        for m in range(e):
            if (work[j].x >> (n + m)) & 1:
                work[j] = work[n + m].mul(work[j])
    if any((work[n + m].z >> (n + m)) & 1 for m in range(e)):
        raise AssertionError("reduction needs an HN conjugation")
    assert all(w.x == 1 << i for i, w in enumerate(work))
    ae = BinMatrix(tuple(w.z for w in work), total)
    signed = set()
    for i, w in enumerate(work):
        delta = (w.phase - ae.get(i, i)) % 4
        assert delta in (0, 2), "graph-form rows must be +-Hermitian"
        if delta == 2:
            signed.add(i)
    return ae, frozenset(i for i in signed if i < n), frozenset(i for i in signed if i >= n)


def assert_symmetrize_matches_row_products(stabilizer, columns):
    n, e = len(stabilizer), len(columns)
    try:
        want = _graph_form_by_row_products(_extended_rows(stabilizer, columns), n, e)
    except ExtensionError:  # the rows do not commute: the adjacency comes out asymmetric
        assert symmetrize(stabilizer, [columns]).is_symmetric().tolist() == [False]
        return
    (p,) = parents_of(symmetrize(stabilizer, [columns]))
    assert (p.ae, p.lab_offsets, p.env_offsets) == want
    assert p.ext_assign == tuple(columns)


def assert_parents_match_row_products(g):
    """Every production call: each subgroup's columns and, for e = 1, each
    ``extend_e1`` column."""
    stabilizer = stabilizer_matrix(g)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    parents = parents_of(extend_for_subgroup(g, subs, stabilizer))
    if mixed_rank(g)[0] == 1:
        parents += parents_of(extend_e1(g))
    for p in parents:
        assert_symmetrize_matches_row_products(stabilizer, p.ext_assign)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.graph")), ids=lambda p: p.stem)
def test_symmetrize_matches_row_products_on_fixtures(path):
    assert_parents_match_row_products(parse_graph(path.read_text()))


def test_symmetrize_matches_row_products_random(rng):
    for _ in range(40):
        g = random_mixed_graph(rng, rng.randrange(2, 8))
        assert_parents_match_row_products(g)
        # arbitrary columns: mostly non-commuting rows, which the oracle
        # rejects and symmetrize writes as an asymmetric adjacency
        for e in (1, 2):
            columns = mask_columns([[rng.choice("IXZY") for _ in range(g.n)] for _ in range(e)])
            assert_symmetrize_matches_row_products(stabilizer_matrix(g), columns)


def test_symmetrize_sec2_appended_matrix():
    # the worked A' = (A | (Z X I)^T ; Z I I X) reduces to the displayed form
    rows = stabilizer_matrix(parse_graph(PATH_MIXED))
    (p,) = parents_of(symmetrize(rows, [mask_columns(["ZXI"])]))
    assert graph_form_letters(p) == SEC2_AE_ROWS
    assert p.lab_offsets == frozenset() and p.env_offsets == frozenset()


def test_symmetrize_alt_extension():
    rows = stabilizer_matrix(parse_graph(PATH_MIXED))
    (p,) = parents_of(symmetrize(rows, [mask_columns(["XZI"])]))
    assert graph_form_letters(p) == SEC2_AE_ROWS_ALT


def test_symmetrize_identity_on_graph_form():
    g = parse_graph("nodes 3\nedge 0 -- 1\nedge 1 -- 2\n")
    rows = stabilizer_matrix(g)
    (p,) = parents_of(symmetrize(rows, [()]))
    assert [r.letters() for r in p.rows()] == ["XZI", "ZXZ", "IZX"]
    assert p.lab_offsets == frozenset()


def test_symmetrize_rejects_noncommuting():
    # the triangle's lab rows do not commute, so the graph form symmetrize
    # writes is asymmetric: the CLI's extension-commutes check rejects it
    g = parse_graph(TRIANGLE)
    assert symmetrize(stabilizer_matrix(g), [()]).is_symmetric().tolist() == [False]


def test_symmetrize_preserves_group(rng):
    # output rows span the same symplectic subspace as the input extension
    # rows (same stabilizer group up to signs)
    made = 0
    while made < 20:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        e, _ = mixed_rank(g)
        if e != 1:
            continue
        made += 1
        for p in parents_of(extend_e1(g)):
            total = p.total
            base = _extended_rows(stabilizer_matrix(g), [p.ext_assign[0]])

            def sympl(rows_):
                return [w.x | (w.z << total) for w in rows_]

            got, _ = rref(sympl(p.rows()), 2 * total)
            want, _ = rref(sympl(base), 2 * total)
            assert got == want


def test_indicator_triangle():
    g = parse_graph(TRIANGLE)
    parents = extend_e1(g)[:1]  # (X, Z, Y)
    (gens,), (h,) = indicator(parents).tolist(), parents.parity_rows().tolist()
    assert [bits_of(row) for row in h] == [[1, 2]]  # the L sets
    assert h == [mask_of([1, 2])]
    assert span(gens, 3) == sorted([0b000, 0b001, 0b110, 0b111])
    # members as bitstrings j0j1j2: 000, 100, 011, 111
    members = {format(v, "03b")[::-1] for v in span(gens, 3)}
    assert members == {"000", "100", "011", "111"}


def test_indicator_e0_full_group():
    g = parse_graph("nodes 3\nedge 0 -- 1\n")
    parents = symmetrize(stabilizer_matrix(g), [()])
    (gens,), (h,) = indicator(parents).tolist(), parents.parity_rows().tolist()
    assert h == []  # no L set, no H row
    assert span(gens, 3) == list(range(8))


def test_fivenode_worked_extension():
    g = parse_graph(FIVENODE)
    sub = subgroup_for_generators(g, FIVENODE_SUBGROUP_GENS)
    parents = extend_for_subgroup(g, sub, stabilizer_matrix(g))
    (p,) = parents_of(parents)
    h = BinMatrix(tuple(parents.parity_rows()[0].tolist()), g.n)
    assert h.row_strings() == ["01001", "00101"]  # conditions {1,4}, {2,4}
    assert p.ext_assign == mask_columns(FIVENODE_EXT_COLUMNS)
    assert verify_full_commutation(p.rows())
    assert set(span(indicator(parents)[0].tolist(), p.n)) == set(span_of_basis(sub[0].lifted_basis))


def test_clique6_worked_extension():
    g = parse_graph(CLIQUE6)
    sub = subgroup_for_generators(g, CLIQUE6_SUBGROUP_GENS)
    parents = extend_for_subgroup(g, sub, stabilizer_matrix(g))
    (p,) = parents_of(parents)
    assert p.ext_assign == mask_columns(CLIQUE6_EXT_COLUMNS)
    assert verify_full_commutation(p.rows())
    assert set(span(indicator(parents)[0].tolist(), p.n)) == set(span_of_basis(sub[0].lifted_basis))


def test_displayed_extensions_commute():
    # the two worked extensions, entered verbatim, pass the commutation gate
    g5 = parse_graph(FIVENODE)
    rows5 = _extended_rows(stabilizer_matrix(g5), mask_columns(FIVENODE_EXT_COLUMNS))
    assert verify_full_commutation(rows5)
    g6 = parse_graph(CLIQUE6)
    rows6 = _extended_rows(stabilizer_matrix(g6), mask_columns(CLIQUE6_EXT_COLUMNS))
    assert verify_full_commutation(rows6)


def test_extend_for_subgroup_rejects_foreign_subgroup():
    # a subgroup of another 5-node graph with e = 2, so only Gamma differs
    g = parse_graph(FIVENODE)
    other = parse_graph("nodes 5\nedge 0 -> 1\nedge 2 -> 3\n")
    assert mixed_rank(other)[0] == mixed_rank(g)[0] == 2
    subs = enumerate_max_isotropic(reduce_gamma(other.gamma()))[:1]
    with pytest.raises(ExtensionError):
        extend_for_subgroup(g, subs, stabilizer_matrix(g))


def test_parent_batch_takes_slices_only():
    # the batch is the only parent type: a slice is a batch, while an item
    # would be one of 1-D arrays, so asking for one raises, and so does
    # iterating, which asks for item 0 first
    parents = extend_e1(parse_graph(TRIANGLE))
    part = parents[1:3]
    assert isinstance(part, ParentBatch) and (part.n, part.e, len(part)) == (3, 1, 2)
    assert part.ae.tolist() == parents.ae[1:3].tolist()
    assert part.offsets.tolist() == parents.offsets[1:3].tolist()
    assert part.xcols.tolist() == parents.xcols[1:3].tolist()
    for item in (0, -1, np.int64(0)):
        with pytest.raises(TypeError, match="slices"):
            parents[item]
    with pytest.raises(TypeError, match="slices"):
        list(parents)


def test_extend_for_subgroup_e0():
    g = parse_graph("nodes 2\nedge 0 -- 1\n")
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))[:1]
    (p,) = parents_of(extend_for_subgroup(g, subs, stabilizer_matrix(g)))
    assert p.e == 0
    assert [r.letters() for r in p.rows()] == ["XZ", "ZX"]


def test_extend_for_subgroup_all_subgroups_random(rng):
    for _ in range(40):
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        parents = extend_for_subgroup(g, subs, stabilizer_matrix(g))
        assert len(parents) == len(subs)
        hs = parents.parity_rows().tolist()
        for sub, p, gens, h in zip(subs, parents_of(parents), indicator(parents).tolist(), hs):
            assert verify_full_commutation(p.rows())
            assert set(span(gens, p.n)) == set(span_of_basis(sub.lifted_basis))
            assert len(h) == p.e


def test_extend_minimum_e_only(rng):
    made = 0
    while made < 20:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        e, _ = mixed_rank(g)
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        made += 1
        assert extend_for_subgroup(g, subs[:1], stabilizer_matrix(g)).e == e


def _greedy_columns_per_qubit(gamma, h):
    """Reference for ``_greedy_columns``: the same anchor rule on per-qubit
    0/1 lists, checked one pair of L_m at a time.  Returns the x masks, or
    None."""
    n = gamma.cols
    cur = list(gamma.rows)
    xcols = []
    for m in range(h.nrows):
        lset = bits_of(h.rows[m])
        if not lset:
            return None
        anchor = lset[0]
        xcol = [0] * n
        for j in lset[1:]:
            xcol[j] = (cur[anchor] >> j) & 1
        for a, b in itertools.combinations(lset, 2):
            if (xcol[a] ^ xcol[b]) != ((cur[a] >> b) & 1):
                return None
        for j in range(n):
            if j in lset:
                continue
            bits = [(cur[j] >> k) & 1 for k in lset]
            xcol[j] = bits[0] if all(b == bits[0] for b in bits) else 0
        zrow = h.rows[m]
        xmask = mask_of(j for j in range(n) if xcol[j])
        nxt = []
        for j in range(n):
            # anti'(j,k) = anti(j,k) ^ x_j z_k ^ z_j x_k
            upd = cur[j]
            if xcol[j]:
                upd ^= zrow
            if (zrow >> j) & 1:
                upd ^= xmask
            nxt.append(upd & ~(1 << j))
        cur = nxt
        xcols.append(xmask)
    if any(cur):
        return None
    return xcols


def assert_greedy_matches_per_qubit(g, outcomes):
    # the batched greedy pass on every subgroup's H at once, each one
    # compared with the reference on its own
    gamma = g.gamma()
    subs = enumerate_max_isotropic(reduce_gamma(gamma))
    h = extend_for_subgroup(g, subs, stabilizer_matrix(g)).parity_rows()
    xcols, ok = _greedy_columns(np.array(gamma.rows, dtype=h.dtype), h)
    for i, h_rows in enumerate(h.tolist()):
        want = _greedy_columns_per_qubit(gamma, BinMatrix(tuple(h_rows), g.n))
        assert (xcols[i].tolist() if ok[i] else None) == want
        outcomes.add(want is None)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.graph")), ids=lambda p: p.stem)
def test_greedy_columns_match_per_qubit_on_fixtures(path):
    assert_greedy_matches_per_qubit(parse_graph(path.read_text()), set())


def test_greedy_columns_match_per_qubit_on_cliques_and_random(rng):
    outcomes = set()
    for n in range(2, 9):
        edges = [(j, k, "->") for j, k in itertools.combinations(range(n), 2)]
        assert_greedy_matches_per_qubit(MixedGraph.build(n, edges), outcomes)
    for _ in range(40):
        assert_greedy_matches_per_qubit(random_mixed_graph(rng, rng.randrange(2, 8)), outcomes)
    assert outcomes == {True, False}  # both columns and None were compared


def _solve_columns(gamma, h):
    """Oracle for the closed form: an exact F2 solve of X H + (X H)^T = Gamma.

    One equation per node pair and n*e unknowns, unknown j*e + m being
    X[j, m]; ``solve`` sets every free unknown to zero.
    """
    n = gamma.cols
    e = h.nrows
    pairs = list(itertools.combinations(range(n), 2))
    rows = []
    rhs = 0
    for idx, (j, k) in enumerate(pairs):
        row = 0
        for m in range(e):
            if h.get(m, k):
                row |= 1 << (j * e + m)
            if h.get(m, j):
                row ^= 1 << (k * e + m)
        rows.append(row)
        rhs |= gamma.get(j, k) << idx
    sol = solve(BinMatrix(tuple(rows), n * e), rhs)
    assert sol is not None, "X H + (X H)^T = Gamma has no solution"
    return [mask_of(j for j in range(n) if (sol >> (j * e + m)) & 1) for m in range(e)]


def assert_closed_form_matches_solve(g):
    gamma = g.gamma()
    subs = enumerate_max_isotropic(reduce_gamma(gamma))
    h_rows = extend_for_subgroup(g, subs, stabilizer_matrix(g)).parity_rows()
    solved = _closed_form_columns(np.array(gamma.rows, dtype=h_rows.dtype), h_rows).tolist()
    for sub, row, xcols in zip(subs, h_rows.tolist(), solved):
        h = BinMatrix(tuple(row), g.n)
        assert h == one_parity_basis(sub)
        assert xcols == _solve_columns(gamma, h)
        x = BinMatrix.from_lists([[(col >> j) & 1 for col in xcols] for j in range(g.n)], h.nrows)
        xh = x.matmul(h)
        assert xh.add(xh.transpose()) == gamma


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.graph")), ids=lambda p: p.stem)
def test_closed_form_matches_solve_on_fixtures(path):
    assert_closed_form_matches_solve(parse_graph(path.read_text()))


def test_closed_form_matches_solve_random(rng):
    for _ in range(40):
        assert_closed_form_matches_solve(random_mixed_graph(rng, rng.randrange(2, 8)))


def test_extend_for_subgroup_n128(monkeypatch):
    # greedy falls back to the closed form on 6 of the 15 subgroups, in one
    # call for the batch; the masks are Python ints past 62 bits
    fallbacks = []

    def counted(gamma, h):
        fallbacks.append(len(h))
        return _closed_form_columns(gamma, h)

    monkeypatch.setattr(mgstate.extension, "_closed_form_columns", counted)
    g = parse_graph(SPARSE128)
    rows = stabilizer_matrix(g)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    assert mixed_rank(g)[0] == 2 and len(subs) == chi(2) == 15
    parents = extend_for_subgroup(g, subs, rows)
    assert parents.ae.dtype == object
    assert list(map(tuple, indicator(parents).tolist())) == [sub.lifted_basis for sub in subs]
    assert meets_extension_condition(g.gamma(), parents).all()
    assert fallbacks == [6]


def test_extension_condition_worked_columns():
    for text, displayed in ((FIVENODE, FIVENODE_EXT_COLUMNS), (CLIQUE6, CLIQUE6_EXT_COLUMNS)):
        g = parse_graph(text)
        columns = mask_columns(displayed)
        # I instead of the displayed X at node 0 of column 0
        assert displayed[0][0] == "X"
        flipped = ((columns[0][0] ^ 1, columns[0][1]),) + columns[1:]
        parents = symmetrize(stabilizer_matrix(g), [columns, flipped])
        assert meets_extension_condition(g.gamma(), parents).tolist() == [True, False]


def _oracle_verdicts(p, sub):
    """The per-parent checks: the extension condition on ``ext_assign``,
    symmetry of ``ae`` and the RREF kernel of H against the lifted basis;
    a rank-deficient H has no kernel of the subgroup's size."""
    try:
        matches = one_indicator(p)[1].rows == sub.lifted_basis
    except ExtensionError:
        matches = False
    return [one_meets_extension_condition(sub.reduction.gamma, p.ext_assign),
            p.ae.is_symmetric(), matches]


def _batch_verdicts(parents, subs):
    return np.array([
        meets_extension_condition(subs[0].reduction.gamma, parents),
        parents.is_symmetric(),
        parents.has_kernel([s.lifted_basis for s in subs]),
    ]).T.tolist()


def assert_batch_matches_oracle(g, oracle=None):
    """Every subgroup of g, as one batch: each parent (adjacency, offsets
    and columns), its three verdicts and its indicator equal those of the
    per-parent oracle, ``oracle(g, sub, rows)``."""
    rows = stabilizer_matrix(g)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    parents = extend_for_subgroup(g, subs, rows)
    want = [(oracle or one_extend_for_subgroup)(g, sub, rows) for sub in subs]
    assert parents_of(parents) == want
    assert _batch_verdicts(parents, subs) == list(map(_oracle_verdicts, want, subs))
    assert indicator(parents).tolist() == [list(one_indicator(p)[1].rows) for p in want]
    return parents


def _directed_clique(n):
    return MixedGraph.build(n, [(j, k, "->") for j, k in itertools.combinations(range(n), 2)])


def _sparse_path(n):
    """A path with three directed edges: e = 3, so at n = 32 the adjacency
    masks fit int64 and the closed form's n e flat variables do not, and
    at n = 60 neither does."""
    return parse_graph(f"nodes {n}\n" + "".join(f"edge {j} -- {j + 1}\n" for j in range(n - 1))
                       + f"edge 0 -> 5\nedge 9 -> {n - 3}\nedge 12 -> {n - 1}\n")


def test_batched_parents_match_oracle():
    # the fixtures, the directed cliques on 2-9 nodes, the 40 seeded graphs
    # with t > 0 among them, both sides of the 62-bit mask width, and the
    # n = 128 graph
    graphs = _term_graphs() + [_directed_clique(n) for n in (8, 9)]
    graphs += [_sparse_path(32), _sparse_path(60), parse_graph(SPARSE128)]
    assert any(reduce_gamma(g.gamma()).t > 0 for g in graphs)
    dtypes = [assert_batch_matches_oracle(g).ae.dtype for g in graphs[-3:]]
    assert dtypes == [np.int64, object, object]
    for g in graphs[:-3]:
        assert_batch_matches_oracle(g)


def test_batched_parents_match_oracle_with_flipped_greedy_flags(monkeypatch):
    # every greedy flag inverted: the subgroups greedy solves take the
    # closed form, and the others keep greedy's columns that fail; each
    # parent and verdict is still the oracle's for the same columns
    original = mgstate.extension._greedy_columns
    greedy = {}

    def flipped(gamma, h):
        xcols, ok = original(gamma, h)
        greedy.update(zip(map(tuple, h.tolist()), zip(xcols.tolist(), ok.tolist())))
        return xcols, ~ok

    def oracle(g, sub, rows):
        h = one_parity_basis(sub)
        xcols, ok = greedy[h.rows]
        if ok:
            xcols = one_closed_form_columns(sub.reduction.gamma, h)
        return one_symmetrize(rows, zip(xcols, h.rows))

    monkeypatch.setattr(mgstate.extension, "_greedy_columns", flipped)
    outcomes, found = set(), set()
    for g in _term_graphs():
        greedy.clear()
        parents = assert_batch_matches_oracle(g, oracle)
        outcomes.update(ok for _, ok in greedy.values())
        found.update(meets_extension_condition(g.gamma(), parents).tolist())
    assert outcomes == found == {True, False}


def test_batched_verdicts_match_oracle_on_corrupted_parity_rows():
    # one bit of one environment row flipped, parent by parent: the three
    # verdicts of the corrupted batch equal the oracle's on the same parent
    for g in _term_graphs():
        rows = stabilizer_matrix(g)
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        parents = extend_for_subgroup(g, subs, rows)
        if not parents.e:
            continue
        ae = parents.ae.copy()
        want = []
        for i, (sub, p) in enumerate(zip(subs, parents_of(parents))):
            m, j = i % p.e, (i // p.e) % p.n
            ae[i, p.n + m] ^= 1 << j
            env = list(p.ae.rows[p.n:])
            env[m] ^= 1 << j
            corrupted = dataclasses.replace(
                p, ae=BinMatrix(p.ae.rows[:p.n] + tuple(env), p.total),
                ext_assign=tuple(zip((x for x, _ in p.ext_assign), env)))
            want.append(_oracle_verdicts(corrupted, sub))
        assert _batch_verdicts(dataclasses.replace(parents, ae=ae), subs) == want
        assert [w[2] for w in want].count(False) > 0
