from __future__ import annotations

import itertools
from pathlib import Path

import pytest

import mgstate.extension
from mgstate.extension import (
    ExtensionError,
    ParentExtension,
    _closed_form_columns,
    _greedy_columns,
    extend_e1,
    extend_for_subgroup,
    indicator,
    meets_extension_condition,
    parity_basis,
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

FIXTURES = Path(__file__).parent.parent / "src" / "mgstate" / "fixtures"

# a 128-node path with two directed edges: e = 2, chi(2) = 15 subgroups of
# 2^126 members each
SPARSE128 = (
    "nodes 128\n"
    + "".join(f"edge {j} -- {j + 1}\n" for j in range(127))
    + "edge 0 -> 5\nedge 40 -> 90\n"
)


def subgroup_for_generators(g, gens):
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    target_span = set(span(list(gens), g.n))
    for s in subs:
        if set(s.span_lifted()) == target_span:
            return s
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
    parents = extend_e1(g)
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
    p = extend_e1(g)[0]
    assert p.ext_assign == mask_columns(["XZY"])
    edges = {(j, k) for j, k in itertools.combinations(range(p.total), 2) if p.ae.get(j, k)}
    assert edges == {(0, 2), (1, 2), (1, 3), (2, 3)}
    assert [j for j in range(p.total) if p.ae.get(j, j)] == [2]
    assert sorted(p.lab_offsets) == [2]
    assert sorted(p.env_offsets) == []


def test_extend_e1_sec2_worked_graph_forms():
    g = parse_graph(PATH_MIXED)
    parents = extend_e1(g)
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
    for p in extend_e1(g):
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
        for p in parents:
            assert verify_full_commutation(p.rows())
            assert p.ae.is_symmetric()
            l_sets, gmat, h = indicator(p)
            assert h.nrows == 1


def test_extend_e1_children_cover_all_maximal_subgroups(rng):
    made = 0
    while made < 15:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        if mixed_rank(g)[0] != 1:
            continue
        made += 1
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        spans = {tuple(sorted(s.span_lifted())) for s in subs}
        hit = set()
        for p in extend_e1(g):
            hit.add(tuple(span(indicator(p)[1].rows, p.n)))
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
        assert not symmetrize(stabilizer, columns).ae.is_symmetric()
        return
    p = symmetrize(stabilizer, columns)
    assert (p.ae, p.lab_offsets, p.env_offsets) == want
    assert p.ext_assign == tuple(columns)


def assert_parents_match_row_products(g):
    """Every production call: each subgroup's columns and, for e = 1, each
    ``extend_e1`` column."""
    stabilizer = stabilizer_matrix(g)
    parents = [
        extend_for_subgroup(g, sub, stabilizer)
        for sub in enumerate_max_isotropic(reduce_gamma(g.gamma()))
    ]
    if mixed_rank(g)[0] == 1:
        parents += extend_e1(g)
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
    p = symmetrize(stabilizer_matrix(parse_graph(PATH_MIXED)), mask_columns(["ZXI"]))
    assert graph_form_letters(p) == SEC2_AE_ROWS
    assert p.lab_offsets == frozenset() and p.env_offsets == frozenset()


def test_symmetrize_alt_extension():
    p = symmetrize(stabilizer_matrix(parse_graph(PATH_MIXED)), mask_columns(["XZI"]))
    assert graph_form_letters(p) == SEC2_AE_ROWS_ALT


def test_symmetrize_identity_on_graph_form():
    g = parse_graph("nodes 3\nedge 0 -- 1\nedge 1 -- 2\n")
    rows = stabilizer_matrix(g)
    p = symmetrize(rows, ())
    assert [r.letters() for r in p.rows()] == ["XZI", "ZXZ", "IZX"]
    assert p.lab_offsets == frozenset()


def test_symmetrize_rejects_noncommuting():
    # the triangle's lab rows do not commute, so the graph form symmetrize
    # writes is asymmetric: the CLI's extension-commutes check rejects it
    g = parse_graph(TRIANGLE)
    assert not symmetrize(stabilizer_matrix(g), ()).ae.is_symmetric()


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
        for p in extend_e1(g):
            total = p.total
            base = _extended_rows(stabilizer_matrix(g), [p.ext_assign[0]])

            def sympl(rows_):
                return [w.x | (w.z << total) for w in rows_]

            got, _ = rref(sympl(p.rows()), 2 * total)
            want, _ = rref(sympl(base), 2 * total)
            assert got == want


def test_indicator_triangle():
    g = parse_graph(TRIANGLE)
    p = extend_e1(g)[0]  # (X, Z, Y)
    l_sets, gmat, h = indicator(p)
    assert l_sets == [(1, 2)]
    assert h.rows == (mask_of([1, 2]),)
    assert span(indicator(p)[1].rows, p.n) == sorted([0b000, 0b001, 0b110, 0b111])
    # members as bitstrings j0j1j2: 000, 100, 011, 111
    members = {format(v, "03b")[::-1] for v in span(indicator(p)[1].rows, p.n)}
    assert members == {"000", "100", "011", "111"}


def test_indicator_e0_full_group():
    g = parse_graph("nodes 3\nedge 0 -- 1\n")
    p = symmetrize(stabilizer_matrix(g), ())
    l_sets, gmat, h = indicator(p)
    assert l_sets == [] and h.nrows == 0
    assert span(indicator(p)[1].rows, p.n) == list(range(8))


def test_fivenode_worked_extension():
    g = parse_graph(FIVENODE)
    sub = subgroup_for_generators(g, FIVENODE_SUBGROUP_GENS)
    h = parity_basis(sub)
    assert h.row_strings() == ["01001", "00101"]  # conditions {1,4}, {2,4}
    p = extend_for_subgroup(g, sub, stabilizer_matrix(g))
    assert p is not None
    assert p.ext_assign == mask_columns(FIVENODE_EXT_COLUMNS)
    assert verify_full_commutation(p.rows())
    assert set(span(indicator(p)[1].rows, p.n)) == set(sub.span_lifted())


def test_clique6_worked_extension():
    g = parse_graph(CLIQUE6)
    sub = subgroup_for_generators(g, CLIQUE6_SUBGROUP_GENS)
    p = extend_for_subgroup(g, sub, stabilizer_matrix(g))
    assert p is not None
    assert p.ext_assign == mask_columns(CLIQUE6_EXT_COLUMNS)
    assert verify_full_commutation(p.rows())
    assert set(span(indicator(p)[1].rows, p.n)) == set(sub.span_lifted())


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
    sub = enumerate_max_isotropic(reduce_gamma(other.gamma()))[0]
    with pytest.raises(ExtensionError):
        extend_for_subgroup(g, sub, stabilizer_matrix(g))


def test_extend_for_subgroup_e0():
    g = parse_graph("nodes 2\nedge 0 -- 1\n")
    sub = enumerate_max_isotropic(reduce_gamma(g.gamma()))[0]
    p = extend_for_subgroup(g, sub, stabilizer_matrix(g))
    assert p is not None and p.e == 0
    assert [r.letters() for r in p.rows()] == ["XZ", "ZX"]


def test_extend_for_subgroup_all_subgroups_random(rng):
    failures = 0
    for _ in range(40):
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        for sub in subs:
            p = extend_for_subgroup(g, sub, stabilizer_matrix(g))
            if p is None:
                failures += 1
                continue
            assert verify_full_commutation(p.rows())
            assert set(span(indicator(p)[1].rows, p.n)) == set(sub.span_lifted())
            _, _, h = indicator(p)
            assert h.nrows == p.e
    assert failures == 0


def test_extend_minimum_e_only(rng):
    made = 0
    while made < 20:
        g = random_mixed_graph(rng, rng.randrange(2, 6))
        e, _ = mixed_rank(g)
        subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
        made += 1
        p = extend_for_subgroup(g, subs[0], stabilizer_matrix(g))
        assert p.e == e


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
    gamma = g.gamma()
    for sub in enumerate_max_isotropic(reduce_gamma(gamma)):
        h = parity_basis(sub)
        want = _greedy_columns_per_qubit(gamma, h)
        assert _greedy_columns(gamma, h) == want
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
    for sub in enumerate_max_isotropic(reduce_gamma(gamma)):
        h = parity_basis(sub)
        xcols = _closed_form_columns(gamma, h)
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
    # greedy falls back to the closed form on 6 of the 15 subgroups
    fallbacks = []

    def counted(gamma, h):
        fallbacks.append(h)
        return _closed_form_columns(gamma, h)

    monkeypatch.setattr(mgstate.extension, "_closed_form_columns", counted)
    g = parse_graph(SPARSE128)
    rows = stabilizer_matrix(g)
    subs = enumerate_max_isotropic(reduce_gamma(g.gamma()))
    assert mixed_rank(g)[0] == 2 and len(subs) == chi(2) == 15
    for sub in subs:
        p = extend_for_subgroup(g, sub, rows)
        assert indicator(p)[1].rows == sub.lifted_basis
        assert meets_extension_condition(g.gamma(), p.ext_assign)
    assert len(fallbacks) == 6


def test_extension_condition_worked_columns():
    for text, displayed in ((FIVENODE, FIVENODE_EXT_COLUMNS), (CLIQUE6, CLIQUE6_EXT_COLUMNS)):
        gamma = parse_graph(text).gamma()
        columns = mask_columns(displayed)
        assert meets_extension_condition(gamma, columns)
        # I instead of the displayed X at node 0 of column 0
        assert displayed[0][0] == "X"
        flipped = ((columns[0][0] ^ 1, columns[0][1]),) + columns[1:]
        assert not meets_extension_condition(gamma, flipped)
