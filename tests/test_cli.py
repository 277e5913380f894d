from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import mgstate.cli
import mgstate.extension
import mgstate.f2
import mgstate.graphs
import mgstate.states
import mgstate.subgroups
from mgstate.cli import _emit, main
from mgstate.extension import extend_for_subgroup
from mgstate.f2 import bits_of, bitstring, mask_of
from mgstate.pauli import GaussianMatrix, PauliWord, ordered_product
from mgstate.states import ChildResult, DensityMatrix, child_from_partial_trace
from mgstate.subgroups import IsotropicSubspace
from paper_data import RHO0_NUM, RHO1_NUM, RHO2_NUM, TRIANGLE
from test_extension import SPARSE128

FIXTURES = Path(__file__).parent.parent / "src" / "mgstate" / "fixtures"
SCHEMA = json.loads((FIXTURES / "report.schema.json").read_text())

GRAPH_FIXTURES = sorted(FIXTURES.glob("*.graph"))
JSON_FIXTURES = sorted(FIXTURES.glob("*.fixture.json"))


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_graph(tmp_path, text, name="g.graph"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def directed_clique(n):
    return f"nodes {n}\n" + "".join(
        f"edge {j} -> {k}\n" for j in range(n) for k in range(j + 1, n)
    )


def test_analyze_triangle(tmp_path):
    path = write_graph(tmp_path, TRIANGLE)
    code, out, _ = run_cli("analyze", path)
    assert code == 0
    assert "e = 1, t = 1" in out


def test_analyze_edgeless(tmp_path):
    path = write_graph(tmp_path, "nodes 2\n")
    code, out, _ = run_cli("analyze", path)
    assert code == 0
    assert "e = 0, t = 2 (pure graph state)" in out


def test_analyze_fournode():
    code, out, _ = run_cli("analyze", str(FIXTURES / "fournode.graph"))
    assert code == 0
    assert "e = 2, t = 0" in out


def test_parse_error_exit_2(tmp_path):
    path = write_graph(tmp_path, "nodes 2\nedge 0 -> 5\n")
    code, out, err = run_cli("analyze", path)
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_2(tmp_path):
    code, _, err = run_cli("analyze", str(tmp_path / "missing.graph"))
    assert code == 2


def test_bound_exceeded_exit_3(tmp_path, monkeypatch):
    monkeypatch.setenv("MGSTATE_MAX_QUBITS", "3")
    path = write_graph(tmp_path, TRIANGLE)  # n + e = 4 > 3
    code, _, err = run_cli("children", path)
    assert code == 3
    assert "bound" in err


def test_bound_flag_only_on_enumerating_commands(capsys):
    graph = str(FIXTURES / "triangle.graph")
    for command in ("analyze", "signfree"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--bound", "3", graph])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --bound" in capsys.readouterr().err
    for command in ("subgroups", "children", "verify"):
        code, _, _ = run_cli(command, "--bound", "3", graph)
        assert code == 0
    code, _, err = run_cli("subgroups", "--bound", "1", graph)  # 2e = 2 > 1
    assert code == 3 and "2e = 2 > 1" in err


def test_subgroups_counts(tmp_path):
    code, out, _ = run_cli("subgroups", str(FIXTURES / "fournode.graph"))
    assert code == 0
    assert "15 (chi = 15)" in out
    code, out, _ = run_cli("subgroups", str(FIXTURES / "triangle.graph"))
    assert "3 (chi = 3)" in out


def test_subgroups_e0_single(tmp_path):
    path = write_graph(tmp_path, "nodes 2\nedge 0 -- 1\n")
    code, out, _ = run_cli("subgroups", path)
    assert code == 0
    assert "1 (chi = 1)" in out


def test_children_family_includes_paper_matrices():
    code, out, _ = run_cli("children", str(FIXTURES / "triangle.graph"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["mode"] == "family"
    children = report["result"]["children"]
    assert len(children) == 6
    assert len(report["result"]["classes"]) == 3
    mats = []
    for c in children:
        rho = c["rho"]
        m = np.zeros((8, 8), dtype=complex)
        for r in range(8):
            for col in range(8):
                re, im = rho["entries"][r][col]
                m[r, col] = (re + 1j * im) / 2 ** rho["denom_log2"]
        mats.append(m)
    for num in (RHO0_NUM, RHO1_NUM, RHO2_NUM):
        target = np.array(num, dtype=complex) / 8
        assert any(np.array_equal(m, target) for m in mats)
    for c in children:
        assert c["oracle_verified"] is True


def test_each_child_built_once(monkeypatch):
    # triangle: n = 3, e = 1, so every child sums |J| = 4 dual products
    calls = []

    def counted(rows, indices):
        calls.append(indices)
        return ordered_product(rows, indices)

    for module in (mgstate.states, mgstate.cli):
        monkeypatch.setattr(module, "ordered_product", counted)
    code, _, _ = run_cli("children", str(FIXTURES / "triangle.graph"))
    assert code == 0
    assert len(calls) == 6 * 4  # the six family children
    calls.clear()
    code, _, _ = run_cli("verify", str(FIXTURES / "triangle.graph"))
    assert code == 0
    assert len(calls) == (3 + 6) * 4  # one child per subgroup, then the family


# ``children`` runs the same checks as ``verify`` on every child it prints
BATTERY_COMMANDS = [["verify"], ["children", "--all", "--json"]]


def test_child_mixed_rejects_maximally_mixed_child(monkeypatch):
    # I/2^n agrees on both routes, is fixed by every stabilizer row, has
    # trace one and is not pure, but its purity is 2^-n, not 2^-e
    def maximally_mixed(p):
        ident = np.eye(1 << p.n, dtype=np.int64)
        return DensityMatrix(p.n, GaussianMatrix(ident, 0 * ident, p.n))

    def pauli_sum_route(p, duals, ind):
        return ChildResult(p, ind, maximally_mixed(p), {})

    monkeypatch.setattr(mgstate.cli, "child_from_pauli_sum", pauli_sum_route)
    monkeypatch.setattr(mgstate.cli, "child_from_partial_trace", maximally_mixed)
    for argv in BATTERY_COMMANDS:
        code, out, _ = run_cli(*argv, str(FIXTURES / "triangle.graph"))
        assert (code, out) == (1, "FAIL child-mixed: purity 1/8 != 1/2\n"), argv


def test_graph_values_computed_once_per_graph(monkeypatch):
    # clique6 has chi(3) = 135 subgroups, each extended to a parent
    calls = {"mixed_rank": 0, "stabilizer_matrix": 0}
    for name in calls:
        original = getattr(mgstate.graphs, name)

        def counted(g, _name=name, _original=original):
            calls[_name] += 1
            return _original(g)

        for module in (mgstate.graphs, mgstate.subgroups, mgstate.extension, mgstate.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli("verify", str(FIXTURES / "clique6.graph"))
    assert code == 0
    # e and t come from the one Gamma reduction; stabilizer: rows and dual rows
    assert calls == {"mixed_rank": 0, "stabilizer_matrix": 2}


def test_verify_builds_gamma_once(monkeypatch):
    # each of clique6's 135 parents checks its subgroup's Gamma against the
    # graph's directed edges instead of building Gamma again
    calls = []
    original = mgstate.graphs.MixedGraph.gamma

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(mgstate.graphs.MixedGraph, "gamma", counted)
    code, _, _ = run_cli("verify", str(FIXTURES / "clique6.graph"))
    assert code == 0
    assert len(calls) == 1


def test_span_listed_once_per_child(monkeypatch):
    # one listing of J per child (135) and the enumerator's coset
    # representatives (1 + 3 + 15); no check re-lists J or a subgroup
    calls = []
    original = mgstate.f2.span

    def counted(rows, cols):
        calls.append(cols)
        return original(rows, cols)

    for module in (mgstate.f2, mgstate.subgroups, mgstate.extension, mgstate.states, mgstate.cli):
        if hasattr(module, "span"):
            monkeypatch.setattr(module, "span", counted)
    code, _, _ = run_cli("verify", str(FIXTURES / "clique6.graph"))
    assert code == 0
    assert len(calls) == 154


@pytest.mark.parametrize("fixture", GRAPH_FIXTURES, ids=lambda p: p.stem)
def test_analyze_eliminates_gamma_once(fixture, monkeypatch):
    # one RREF of Gamma gives rank, e, t and the kernel basis; the other two
    # reduce that basis and check that gamma_tilde has full rank
    calls = []
    original = mgstate.f2.rref

    def counted(rows, cols):
        calls.append(cols)
        return original(rows, cols)

    for module in (mgstate.f2, mgstate.graphs, mgstate.subgroups, mgstate.cli):
        if hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref", counted)
    code, _, _ = run_cli("analyze", "--json", str(fixture))
    assert code == 0
    assert len(calls) == 3


def test_verify_checks_parents_beyond_dense_bound(tmp_path):
    # n + e = 13 exceeds the dense bound, so no child is built, but each of
    # the chi(1) = 3 parents is still built and checked
    path = write_graph(tmp_path, "nodes 12\nedge 0 -> 1\nedge 2 -- 3\nedge 4 -- 5\n")
    code, out, _ = run_cli("verify", path)
    assert code == 0
    assert out.startswith("ok (18 checks)\n")
    code, out, _ = run_cli("verify", "--json", path)
    assert code == 0
    checked = json.loads(out)["result"]["checked"]
    assert {"extension-found", "extension-commutes", "indicator-matches-subgroup"} <= set(checked)
    assert not any(name.startswith(("child-", "family-")) for name in checked)


def test_extension_commutes_by_symmetry(monkeypatch):
    # clique6: 135 parents, each checked on its child's 3 generators (3
    # pairs), plus the 6 x 6 dual-against-stabilizer check and the 6 x 6
    # signfree table; no parent's rows are checked pairwise, since they
    # commute iff the adjacency symmetrize writes down is symmetric
    calls = []
    original = PauliWord.commutes

    def counted(self, other):
        calls.append(self.n)
        return original(self, other)

    monkeypatch.setattr(PauliWord, "commutes", counted)
    code, _, _ = run_cli("verify", str(FIXTURES / "clique6.graph"))
    assert code == 0
    assert len(calls) == 135 * 3 + 36 + 36


def test_extension_found_rejects_flipped_letter(monkeypatch):
    # one X bit flipped at node 0 of the first extension column: the
    # reported columns no longer satisfy X H + (X H)^T = Gamma
    x_flip = {"I": "X", "X": "I", "Z": "Y", "Y": "Z"}

    def flipped(g, sub, rows):
        p = extend_for_subgroup(g, sub, rows)
        first = p.ext_assign[0]
        column = (x_flip[first[0]],) + first[1:]
        return dataclasses.replace(p, ext_assign=(column,) + p.ext_assign[1:])

    monkeypatch.setattr(mgstate.cli, "extend_for_subgroup", flipped)
    for argv in BATTERY_COMMANDS:
        code, out, _ = run_cli(*argv, str(FIXTURES / "fournode.graph"))
        assert (code, out) == (1, "FAIL extension-found: subgroup 0\n"), argv


@pytest.mark.parametrize("argv", BATTERY_COMMANDS, ids=lambda a: a[0])
def test_parent_eliminations_on_clique6(monkeypatch, argv):
    # per parent: 5 RREFs (1 for its H, 1 for its indicator, 3 for its
    # child) and 2 symmetry tests (ParentExtension and extension-commutes);
    # reducing Gamma and enumerating take 177 RREFs and 2 symmetry tests:
    # one RREF per subgroup, since t = 0 makes each reduced basis its own lift
    calls = {"rref": 0, "is_symmetric": 0}
    original_rref = mgstate.f2.rref
    original_symmetric = mgstate.f2.BinMatrix.is_symmetric

    def rref(rows, cols):
        calls["rref"] += 1
        return original_rref(rows, cols)

    def is_symmetric(m):
        calls["is_symmetric"] += 1
        return original_symmetric(m)

    for module in (mgstate.f2, mgstate.graphs, mgstate.subgroups, mgstate.cli):
        if hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref", rref)
    monkeypatch.setattr(mgstate.f2.BinMatrix, "is_symmetric", is_symmetric)
    code, _, _ = run_cli(*argv, str(FIXTURES / "clique6.graph"))
    assert code == 0
    assert calls == {"rref": 135 * 5 + 177, "is_symmetric": 135 * 2 + 2}


def test_indicator_computed_once_per_parent(monkeypatch):
    # the child reuses the indicator that the J = subgroup check read
    calls = []
    original = mgstate.extension.indicator

    def counted(p):
        calls.append(p.n)
        return original(p)

    for module in (mgstate.extension, mgstate.states, mgstate.cli):
        monkeypatch.setattr(module, "indicator", counted)
    runs = [
        (["verify", "clique6.graph"], 135),
        (["children", "--all", "--json", "clique6.graph"], 135),
        (["children", "triangle.graph"], 6),  # the e = 1 family
        (["verify", "triangle.graph"], 3 + 6),  # one parent per subgroup, then the family
    ]
    for argv, parents in runs:
        calls.clear()
        code, _, _ = run_cli(*argv[:-1], str(FIXTURES / argv[-1]))
        assert code == 0
        assert len(calls) == parents, argv


def test_family_reads_mixed_rank_off_the_skeleton(monkeypatch):
    # extend_e1 needs e = 1, which a complete multipartite skeleton implies
    calls = []
    original = mgstate.graphs.mixed_rank

    def counted(g):
        calls.append(g)
        return original(g)

    for module in (mgstate.graphs, mgstate.subgroups, mgstate.extension, mgstate.cli):
        if hasattr(module, "mixed_rank"):
            monkeypatch.setattr(module, "mixed_rank", counted)
    code, _, _ = run_cli("verify", str(FIXTURES / "triangle.graph"))
    assert code == 0
    assert calls == []


def test_indicator_check_rejects_parent_of_another_subgroup(monkeypatch):
    # subgroup 0 is extended with subgroup 1's parity matrix: the columns
    # still solve the extension condition and commute, but the parent's
    # J = ker(H) is subgroup 1
    g = mgstate.graphs.parse_graph((FIXTURES / "fournode.graph").read_text())
    red = mgstate.subgroups.reduce_gamma(g.gamma())
    subs = mgstate.subgroups.enumerate_max_isotropic(red)
    original = mgstate.extension.parity_basis

    def swapped(m):
        return original(subs[1] if m.lifted_basis == subs[0].lifted_basis else m)

    monkeypatch.setattr(mgstate.extension, "parity_basis", swapped)
    for argv in BATTERY_COMMANDS:
        code, out, _ = run_cli(*argv, str(FIXTURES / "fournode.graph"))
        assert (code, out) == (1, "FAIL indicator-matches-subgroup: subgroup 0\n"), argv


def test_subgroups_count_check_name(monkeypatch):
    monkeypatch.setattr(mgstate.cli, "chi", lambda e: 4)
    code, out, _ = run_cli("subgroups", str(FIXTURES / "triangle.graph"))
    assert code == 1
    assert out == "FAIL subgroup-count-chi: 3 != chi(1)\n"


def test_subgroups_n128_size_without_listing(tmp_path, monkeypatch):
    # each subgroup has 2^126 members, so listing one must never start
    original = IsotropicSubspace.span_lifted

    def guarded(self):
        if len(self.lifted_basis) > 6:
            raise AssertionError(f"listing 2^{len(self.lifted_basis)} members")
        return original(self)

    monkeypatch.setattr(IsotropicSubspace, "span_lifted", guarded)
    code, out, _ = run_cli("subgroups", "--json", write_graph(tmp_path, SPARSE128))
    assert code == 0
    listing = json.loads(out)["result"]["subgroups"]
    assert len(listing) == 15
    assert all(s["size"] == 1 << 126 and s["elements"] is None for s in listing)


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_out_of_memory_exit_3(monkeypatch, tmp_path, command):
    # a huge node count fails in the graph's first n-row matrix
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(mgstate.graphs.MixedGraph, "adjacency", exhausted)
    code, out, err = run_cli(command, write_graph(tmp_path, "nodes 99999999999\n"))
    assert (code, out, err) == (3, "", "bound exceeded: out of memory\n")


@pytest.mark.parametrize("argv", [["children", "--all"], ["verify"]])
def test_extension_error_exit_4(monkeypatch, argv):
    def failing(stabilizer, columns):
        raise mgstate.extension.ExtensionError("rows do not pairwise commute")

    monkeypatch.setattr(mgstate.extension, "symmetrize", failing)
    code, out, err = run_cli(argv[0], str(FIXTURES / "fournode.graph"), *argv[1:])
    assert code == 4
    assert err == "search failure: rows do not pairwise commute\n"
    assert "Traceback" not in out + err


def _doubled_trace(p):
    rho = child_from_partial_trace(p)
    return DensityMatrix(rho.n, GaussianMatrix(2 * rho.mat.re, 2 * rho.mat.im, rho.mat.denom_log2))


def test_children_invariant_failure_mid_stream(monkeypatch):
    # only subgroup 3's partial trace is wrong: children 0-2 are already
    # written, and the FAIL line ends stdout on a line of its own
    argv = ["children", "--all", "--json", str(FIXTURES / "fournode.graph")]
    _, full, _ = run_cli(*argv)
    traced = []

    def wrong_fourth(p):
        traced.append(p)
        return _doubled_trace(p) if len(traced) == 4 else child_from_partial_trace(p)

    monkeypatch.setattr(mgstate.cli, "child_from_partial_trace", wrong_fourth)
    code, out, err = run_cli(*argv)
    assert code == 1 and err == ""
    written, fail = out[:-1].rsplit("\n", 1)
    assert out.endswith("\n") and out.count("FAIL") == 1
    assert fail.startswith("FAIL pauli-sum-vs-partial-trace: parent [")
    assert full.startswith(written) and written.count('"subgroup_index":') == 3


def test_children_extension_error_mid_stream(monkeypatch):
    # only subgroup 3's symmetrize raises: exit 4 with its message, and
    # stdout holds children 0-2 with their last line ended
    argv = ["children", "--all", "--json", str(FIXTURES / "fournode.graph")]
    _, full, _ = run_cli(*argv)
    original = mgstate.extension.symmetrize
    calls = []

    def failing_fourth(stabilizer, columns):
        calls.append(columns)
        if len(calls) == 4:
            raise mgstate.extension.ExtensionError("rows do not pairwise commute")
        return original(stabilizer, columns)

    monkeypatch.setattr(mgstate.extension, "symmetrize", failing_fourth)
    code, out, err = run_cli(*argv)
    assert code == 4
    assert err == "search failure: rows do not pairwise commute\n"
    assert "Traceback" not in out + err
    assert out.endswith("\n") and full.startswith(out[:-1])
    assert out.count('"subgroup_index":') == 3


def test_children_written_entry_by_entry(monkeypatch):
    # child k is on stdout before the parent of child k + 1 is built
    stdout = io.StringIO()
    written = []

    def recorded(g, sub, rows):
        written.append(stdout.getvalue().count('"subgroup_index":'))
        return extend_for_subgroup(g, sub, rows)

    monkeypatch.setattr(mgstate.cli, "extend_for_subgroup", recorded)
    with contextlib.redirect_stdout(stdout):
        code = main(["children", "--all", "--json", str(FIXTURES / "fournode.graph")])
    assert code == 0
    assert written == list(range(15))


def test_subgroups_written_entry_by_entry(monkeypatch):
    # subgroup k is on stdout before the members of subgroup k + 1 are listed
    stdout = io.StringIO()
    written = []
    original = IsotropicSubspace.span_lifted

    def recorded(self):
        written.append(stdout.getvalue().count('"index":'))
        return original(self)

    monkeypatch.setattr(IsotropicSubspace, "span_lifted", recorded)
    with contextlib.redirect_stdout(stdout):
        code = main(["subgroups", "--json", str(FIXTURES / "appendix_a.graph")])
    assert code == 0
    listing = json.loads(stdout.getvalue())["result"]["subgroups"]
    assert written == [s["index"] for s in listing]
    assert len(listing) > 1


def test_subgroups_one_product_per_listed_index_set(monkeypatch, tmp_path):
    # clique8: 36,720 listed members, but only 2^8 distinct index sets
    built = []

    def counted(rows, indices):
        built.append(mask_of(indices))
        return ordered_product(rows, indices)

    monkeypatch.setattr(mgstate.cli, "ordered_product", counted)
    code, out, _ = run_cli("subgroups", "--json", write_graph(tmp_path, directed_clique(8)))
    assert code == 0
    listed = [el["index_set"] for s in json.loads(out)["result"]["subgroups"]
              for el in s["elements"]]
    assert len(listed) == 36720
    assert len(built) == len(set(built)) == len(set(listed)) == 256


SUBGROUP_GRAPHS = [(p.name, p.read_text()) for p in GRAPH_FIXTURES] + [
    (f"clique{n}.graph", directed_clique(n)) for n in range(2, 9)
] + [
    # e = 1 and n - e = 7: 128 members per subgroup, so "elements" is null
    ("path8_directed.graph",
     "nodes 8\nedge 0 -> 1\n" + "".join(f"edge {j} -- {j + 1}\n" for j in range(1, 7))),
    # e = 0: one subgroup, whose reduced basis "b_reduced" is empty
    ("nodes1.graph", "nodes 1\n"),
    ("triangle_undirected.graph", "nodes 3\nedge 0 -- 1\nedge 1 -- 2\nedge 0 -- 2\n"),
]


@pytest.mark.parametrize("name,text", SUBGROUP_GRAPHS, ids=[n for n, _ in SUBGROUP_GRAPHS])
def test_listed_elements_match_fresh_products(name, text, tmp_path):
    # each listed word is the ordered product over its index set, the index
    # sets are the span of the lifted generators, and the bytes are stdlib's
    code, out, _ = run_cli("subgroups", "--json", write_graph(tmp_path, text, name))
    assert code == 0
    stdlib = out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert stdlib, "report differs from json.dumps"  # a diff of megabytes would take minutes
    g = mgstate.graphs.parse_graph(text)
    duals = mgstate.graphs.dual_stabilizer(g)
    words = {}
    for s in json.loads(out)["result"]["subgroups"]:
        if s["elements"] is None:  # too many members to list
            assert s["size"] > 64
            continue
        index_sets = [el["index_set"] for el in s["elements"]]
        generators = [mask_of(j for j, c in enumerate(b) if c == "1")
                      for b in s["lifted_generators"]]
        members = {0}
        for b in generators:
            members |= {v ^ b for v in members}
        assert index_sets == [bitstring(v, g.n) for v in sorted(members)]
        for el in s["elements"]:
            v = mask_of(j for j, c in enumerate(el["index_set"]) if c == "1")
            if v not in words:
                words[v] = str(ordered_product(duals, bits_of(v)))
            assert el["word"] == words[v]


# sha256 of ``subgroups`` text reports before each member was built once per
# index set; the last three before each entry was encoded as one chunk
SUBGROUPS_TEXT_SHA256 = {
    "appendix_a.graph": "7937ac4e33c87b8845ae21e455ecadf2c687e1a422c65852d7c2471c8ef999ad",
    "clique6.graph": "885b4dd95b6e0d7646444070f6271a35f0cdedef24f7415e15896472518793bf",
    "fivenode.graph": "53c982a6878e02485ebcd6d63ffed676243ce773feb12ca0f6ad5289d9fcd7b1",
    "fournode.graph": "ac17ea9973ba8dbc3c7c39a81d28c343f765b2a048e6ccacc9669c0ed63e7caa",
    "path_mixed.graph": "21bdb36bd2fb66e3cd6a081d3447d3b0109b85d5c3c4b064d6f800e4c381f9c2",
    "triangle.graph": "7c91fe2b54480328ee1c62d1620f02ac753fd57ba3a95b032c4f248e297477fc",
    "clique7.graph": "58952ff78913ff6444de526d38cc97406e150879dddb447f087b0211911e2ce8",
    "path8_directed.graph": "471e183f3c71bc9521181185d0f2119e9aecd55bc35e0d86fb7a20e4368ad4a2",
    "nodes1.graph": "89aee0b3dd2df971f018430f768f11fa9d57eb13c7f96b8f17081d494c993687",
    "triangle_undirected.graph": "dd6cda7fbc57d5c1c0718eb83deba748f6647fdd39635ff05f9cc70f8a521356",
}


def test_subgroups_text_mode_encodes_no_json(monkeypatch, tmp_path):
    # text mode reads each entry's fields; their JSON text is never built
    def unused(value):
        raise AssertionError("JSON text built for a text report")

    monkeypatch.setattr(mgstate.cli, "_entry_text", unused)
    monkeypatch.setattr(mgstate.cli, "_element_text", unused)
    code, out, _ = run_cli("subgroups", write_graph(tmp_path, directed_clique(7), "clique7.graph"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUBGROUPS_TEXT_SHA256["clique7.graph"]


def test_subgroup_graphs_cover_listing_edge_cases(tmp_path):
    # a null "elements" list and an empty "b_reduced" list are both written
    reports = {}
    for name in ("path8_directed.graph", "nodes1.graph", "triangle_undirected.graph"):
        code, out, _ = run_cli("subgroups", "--json",
                               write_graph(tmp_path, dict(SUBGROUP_GRAPHS)[name], name))
        assert code == 0
        reports[name] = json.loads(out)["result"]["subgroups"]
    assert [s["elements"] for s in reports["path8_directed.graph"]] == [None] * 3
    for name in ("nodes1.graph", "triangle_undirected.graph"):
        assert [s["b_reduced"] for s in reports[name]] == [[]]


@pytest.mark.parametrize("name", sorted(SUBGROUPS_TEXT_SHA256))
def test_subgroups_text_report_pinned(name, tmp_path):
    code, out, _ = run_cli("subgroups", write_graph(tmp_path, dict(SUBGROUP_GRAPHS)[name], name))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUBGROUPS_TEXT_SHA256[name]


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        super().__init__()
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["children", "--all", "--json", str(FIXTURES / "appendix_a.graph")],
        # a 4.25 MB report: peak/size reads about 0.19 as a process's first
        # call and 0.12-0.15 after others; the 7-node clique's 0.24 MB report
        # read 0.5-1.3, so it passed or failed by test order
        ["subgroups", "--json", "clique8.graph"],
    ],
)
def test_streamed_report_peak_memory_below_half_its_size(argv, tmp_path):
    # the whole report would take more than its size to hold
    argv = [write_graph(tmp_path, directed_clique(8), a) if a == "clique8.graph" else a
            for a in argv]
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < sink.size / 2


def test_subgroups_enumeration_bound_exit_3_at_once(tmp_path, monkeypatch):
    # a 12-node directed clique has e = 6 and chi(6) = 4,922,775 subgroups
    def started(*args):
        raise AssertionError("enumeration started past the bound")

    monkeypatch.setattr(mgstate.subgroups, "symplectic_basis", started)
    code, out, err = run_cli("subgroups", write_graph(tmp_path, directed_clique(12)))
    assert code == 3
    assert out == ""
    assert "2e = 12 > 10" in err and "chi(6) = 4922775" in err


@pytest.mark.parametrize("command", ["children", "verify"])
def test_child_check_reproducer_names_parent(monkeypatch, command):
    monkeypatch.setattr(mgstate.cli, "child_from_partial_trace", _doubled_trace)
    code, out, _ = run_cli(command, str(FIXTURES / "triangle.graph"))
    assert code == 1
    assert out.startswith("FAIL pauli-sum-vs-partial-trace: parent [")
    assert " offsets [" in out


def test_children_subgroup_index(tmp_path):
    code, out, _ = run_cli(
        "children", str(FIXTURES / "fournode.graph"), "--subgroup", "0", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["mode"] == "subgroups"
    assert len(report["result"]["children"]) == 1
    assert report["result"]["children"][0]["subgroup_index"] == 0


def test_children_subgroup_out_of_range():
    code, _, err = run_cli(
        "children", str(FIXTURES / "triangle.graph"), "--subgroup", "7"
    )
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize(
    "flags",
    [["--all", "--subgroup", "1"], ["--subgroup", "1", "--all"]],
    ids=["all-first", "subgroup-first"],
)
def test_children_all_and_subgroup_exclusive(flags, capsys):
    # one child, or one per subgroup: asking for both is a usage error
    with pytest.raises(SystemExit) as stopped:
        main(["children", *flags, str(FIXTURES / "fournode.graph")])
    assert stopped.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err and "not allowed with argument" in captured.err
    assert "Traceback" not in captured.err


def test_children_all_subgroups_fournode():
    code, out, _ = run_cli(
        "children", str(FIXTURES / "fournode.graph"), "--all", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["result"]["children"]) == 15
    assert all(c["oracle_verified"] for c in report["result"]["children"])


def test_signfree_appendix():
    code, out, _ = run_cli("signfree", str(FIXTURES / "appendix_a.graph"))
    assert code == 0
    assert "|E(V)| = 24, ambiguous = 40" in out


def test_signfree_undirected(tmp_path):
    path = write_graph(tmp_path, "nodes 3\nedge 0 -- 1\nedge 1 -- 2\n")
    code, out, _ = run_cli("signfree", path)
    assert code == 0
    assert "ambiguous = 0" in out


def test_signfree_triangle():
    code, out, _ = run_cli("signfree", str(FIXTURES / "triangle.graph"))
    assert "|E(V)| = 4, ambiguous = 4" in out


@pytest.mark.parametrize("fixture", [str(p) for p in JSON_FIXTURES])
def test_verify_fixtures_pass(fixture):
    code, out, _ = run_cli("verify", fixture)
    assert code == 0, out
    assert out.startswith("ok")


@pytest.mark.parametrize("fixture", [str(p) for p in GRAPH_FIXTURES])
def test_verify_plain_graphs_pass(fixture):
    code, out, _ = run_cli("verify", fixture)
    assert code == 0, out


def _corruptions():
    """Ten deliberate fixture corruptions across files and fields."""
    def set_field(doc, key, value):
        doc["expect"][key] = value

    def corrupt_entry(doc):
        doc["expect"]["children_e1"]["rho_json"][0]["entries"][0][1] = [5, 5]

    def corrupt_subgroup(doc):
        doc["expect"]["subgroups"][0][0] = "111"

    def corrupt_classes(doc):
        doc["expect"]["children_e1"]["classes"] = 2

    return [
        ("triangle", lambda d: set_field(d, "e", 2)),
        ("triangle", lambda d: set_field(d, "t", 0)),
        ("triangle", lambda d: set_field(d, "chi", 15)),
        ("triangle", corrupt_entry),
        ("triangle", corrupt_subgroup),
        ("triangle", corrupt_classes),
        ("fournode", lambda d: set_field(d, "subgroup_count", 14)),
        ("fournode", lambda d: set_field(d, "gamma_rank", 2)),
        ("appendix_a", lambda d: d["expect"]["signfree"].update(ev_count=23)),
        ("fivenode", lambda d: set_field(d, "stabilizer", ["+XXXXX"] * 5)),
    ]


@pytest.mark.parametrize("idx", range(10))
def test_verify_corrupted_fixture_fails(idx, tmp_path):
    name, mutate = _corruptions()[idx]
    doc = json.loads((FIXTURES / f"{name}.fixture.json").read_text())
    mutate(doc)
    path = tmp_path / "corrupt.fixture.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("verify", str(path))
    assert code == 1
    assert out.startswith("FAIL")
    assert ":" in out  # names the invariant and a reproducer


def test_verify_children_e1_expectation_on_e2_graph_fails(tmp_path):
    # fournode has e = 2, so it has no e = 1 family to count
    doc = {
        "schema": "mgstate-fixture-v1",
        "graph": (FIXTURES / "fournode.graph").read_text(),
        "expect": {"children_e1": {"count": 6, "classes": 3}},
    }
    path = tmp_path / "fournode.fixture.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(path))
    assert code == 1, err
    assert out == "FAIL expect-children-count: 0 children\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": "mgstate-fixture-v1", "expect": {}},
        {"schema": "mgstate-fixture-v1", "graph": 3},
        ["not", "an", "object"],
        {"schema": "mgstate-fixture-v1", "graph": TRIANGLE, "expect": []},
    ],
    ids=["no-graph", "graph-not-text", "not-an-object", "expect-not-an-object"],
)
def test_malformed_fixture_document_exit_2(doc, tmp_path):
    path = tmp_path / "bad.fixture.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(path))
    assert code == 2
    assert err.startswith("input error:")


def _json_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as err:
        return str(err)


@pytest.mark.parametrize(
    "text,argv,message",
    [
        (None, ["analyze"], "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
        ("{not json", ["verify"], f"bad fixture JSON: {_json_error('{not json')}"),
        ('{"graph": "nodes 1"}', ["verify"], "fixture is missing the expected schema tag"),
        ('{"schema": "mgstate-fixture-v1"}', ["verify"], "fixture has no graph text under 'graph'"),
        ('{"schema": "mgstate-fixture-v1", "graph": "nodes 1", "expect": 3}', ["verify"],
         "fixture 'expect' is not a JSON object"),
        ('{"schema": "mgstate-fixture-v1", "graph": "nodes 1", "expect": {"e": "0"}}',
         ["verify"], "fixture expect entry 'e' is malformed"),
        (TRIANGLE, ["children", "--subgroup", "3"], "subgroup index 3 out of range (0..2)"),
    ],
    ids=["unreadable", "fixture-json", "fixture-schema", "fixture-graph", "fixture-expect",
         "fixture-expect-entry", "subgroup-range"],
)
def test_input_error_without_line_has_no_line_prefix(text, argv, message, tmp_path):
    # an error tied to no line of the graph text names none
    path = tmp_path / "input.fixture.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(*argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {message.format(path=path)}\n"


@pytest.mark.parametrize(
    "key,value",
    [
        ("subgroups", 5),
        ("subgroups", ["110"]),
        ("chi", "x"),
        ("e", True),
        ("subgroup_count", 1.5),
        ("stabilizer", "+XZ"),
        ("signfree", {"ev_count": 8}),
        ("children_e1", {"count": 6, "classes": "3"}),
        ("children_e1", {"count": 6, "classes": 3, "rho_json": 0}),
    ],
)
def test_malformed_expect_entry_exit_2(key, value, tmp_path):
    doc = json.loads((FIXTURES / "triangle.fixture.json").read_text())
    doc["expect"][key] = value
    path = tmp_path / "bad.fixture.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(path))
    assert code == 2
    assert repr(key) in err
    assert not out.startswith("FAIL")


def test_json_outputs_validate_against_schema(tmp_path):
    validator = jsonschema.Draft202012Validator(SCHEMA)
    path = str(FIXTURES / "triangle.graph")
    for argv in (
        ["analyze", path, "--json"],
        ["subgroups", path, "--json"],
        ["children", path, "--json"],
        ["children", path, "--all", "--json"],
        ["signfree", path, "--json"],
        ["verify", path, "--json"],
    ):
        code, out, _ = run_cli(*argv)
        assert code == 0
        validator.validate(json.loads(out))


def test_json_and_text_carry_identical_data():
    path = str(FIXTURES / "triangle.graph")
    code, out_json, _ = run_cli("analyze", path, "--json")
    code2, out_text, _ = run_cli("analyze", path)
    data = json.loads(out_json)["result"]
    assert f"e = {data['e']}, t = {data['t']}" in out_text
    for row in data["stabilizer"]:
        assert row in out_text


def test_outputs_deterministic():
    for argv in (
        ["analyze", str(FIXTURES / "clique6.graph"), "--json"],
        ["subgroups", str(FIXTURES / "fivenode.graph"), "--json"],
        ["children", str(FIXTURES / "triangle.graph"), "--json"],
        ["signfree", str(FIXTURES / "appendix_a.graph")],
    ):
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["children", "fivenode.graph", "--all", "--json"],
        ["verify", "triangle.fixture.json", "--json"],
        ["subgroups", "appendix_a.graph", "--json"],
    ],
)
def test_json_report_matches_stdlib_encoding(argv):
    argv = [str(FIXTURES / a) if a.endswith((".graph", ".json")) else a for a in argv]
    _, out, _ = run_cli(*argv)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        [[]],
        [[1, -2], [3, 4]],
        [[1, True], [3, 4]],
        [[1], [2, 3]],
        [(1, 2), (3, 4)],
        [[0.5, 1]],
        {"b": [1, {"a": None}], "a": "é\n\"x", "c": (1, 2), "d": {}},
        {1: "x", 2.5: "y"},
        {True: "z"},
        {None: "w"},
        [float("nan"), float("inf"), -0.0, 10**30, False],
        [[[0, 1], [2, -3]], [[4, 5], [6, 7]]],
        # makers of values holding iterators, which are streamed as lists
        pytest.param(lambda: iter(()), id="empty-generator"),
        pytest.param(lambda: ({"b": k, "a": [k, -k]} for k in range(3)), id="generator-of-dicts"),
        pytest.param(
            lambda: {"a": 1, "m": ([k] * k for k in range(3)), "z": None},
            id="generator-between-sorted-keys",
        ),
        pytest.param(
            lambda: ((j * k for k in range(j)) for j in range(3)), id="generator-of-generators"
        ),
    ],
)
def test_emit_matches_stdlib_encoding(value, capsys):
    make = value if callable(value) else lambda: value
    _emit(make(), [], as_json=True)
    want = json.dumps(_listed(make()), indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == want


def _listed(o):
    """``o`` with each iterator in it materialised as a list, and each array
    as the lists its ``tolist`` gives."""
    if isinstance(o, dict):
        return {key: _listed(value) for key, value in o.items()}
    if isinstance(o, (list, Iterator)):
        return [_listed(value) for value in o]
    if isinstance(o, np.ndarray):
        return o.tolist()
    return o


@pytest.mark.parametrize(
    "shape", [(1, 1), (3, 2), (4, 4, 2), (2, 3, 4), (3, 1, 1, 2), (2, 0), (0, 3), (2, 0, 3)]
)
def test_emit_int_array_matches_stdlib_encoding_of_its_lists(shape, capsys):
    gen = np.random.default_rng(len(shape) * 10 + sum(shape))
    size = int(np.prod(shape))
    near = gen.integers(-3, 4, size=shape)
    arrays = [
        gen.integers(-3, 4, size=shape) * 10 ** gen.integers(0, 18, size=shape),
        np.arange(size).reshape(shape) * 7 - 3 * size,  # every entry distinct
        (1 << 62) + near,  # near 2^62, in a range of 7 values
        np.where(gen.integers(0, 2, size=shape) == 1, 1 << 62, -(1 << 62)) + near,  # and -2^62
        np.full(shape, np.iinfo(np.int64).min),
    ]
    for a in arrays:
        value = {"b": [a, {"a": a}], "a": a}
        _emit(value, [], as_json=True)
        assert capsys.readouterr().out == json.dumps(_listed(value), indent=2, sort_keys=True) + "\n"


def test_emit_entries_array_makes_calls_independent_of_its_size(monkeypatch, capsys):
    # a child's (2^n, 2^n, 2) entries with its five values 0, +-1, +-i: the
    # encoder calls itself and formats each distinct value a fixed number
    # of times, however many entries the array has
    calls = []
    for name in ("_json_chunks", "_json_scalar"):
        def counted(*args, _real=getattr(mgstate.cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mgstate.cli, name, counted)
    values = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
    counts = []
    for n in range(2, 7):
        dim = 1 << n
        entries = values[np.random.default_rng(n).integers(0, 5, size=(dim, dim))]
        entries.reshape(-1, 2)[:5] = values
        calls.clear()
        _emit({"entries": entries}, [], as_json=True)
        want = json.dumps({"entries": entries.tolist()}, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == want
        counts.append(len(calls))
    assert counts == [counts[0]] * len(counts), counts


def test_emit_mid_stream_type_error_matches_stdlib(capsys):
    entries = [{"a": 1}, [2], object()]
    with pytest.raises(TypeError) as stdlib:
        json.dumps({"k": entries}, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as streamed:
        _emit({"k": iter(entries)}, [], as_json=True)
    assert str(streamed.value) == str(stdlib.value)
    # the two entries before it are already written
    written = '{\n  "k": [\n    {\n      "a": 1\n    },\n    [\n      2\n    ]'
    assert capsys.readouterr().out == written


def test_emit_rejects_what_stdlib_rejects():
    for value in ({"x": {1}}, {(1, 2): 3}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _emit(value, [], as_json=True)


def test_children_fivenode_worked_subgroup():
    # the worked two-column extension appears for the right subgroup index
    code, out, _ = run_cli(
        "children", str(FIXTURES / "fivenode.graph"), "--all", "--json"
    )
    assert code == 0
    report = json.loads(out)
    cols = [
        tuple("".join(col) for col in c["ext_columns"])
        for c in report["result"]["children"]
    ]
    assert ("XZXIY", "IIZXZ") in cols


def module_argv(*argv):
    """``python -m mgstate`` in a fresh interpreter on this checkout's source,
    and the environment that finds it."""
    src = str(Path(mgstate.cli.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return [sys.executable, "-m", "mgstate", *argv], env


def test_python_m_mgstate_runs_the_cli():
    path = str(FIXTURES / "triangle.graph")
    cmd, env = module_argv("analyze", "--json", path)
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == run_cli("analyze", "--json", path)[1]


def test_closed_pipe_exit_5(tmp_path):
    # the report is ~240 kB, far beyond a pipe's buffer, so a write fails
    # once the reader has closed its end after 100 bytes
    path = write_graph(tmp_path, directed_clique(7))
    cmd, env = module_argv("subgroups", "--json", path)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 5
    assert head.startswith(b'{\n  "command": "subgroups"')
    assert err == "output error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [["analyze"], ["verify"]], ids=lambda a: a[0])
def test_full_device_exit_5(tmp_path, argv):
    # analyze fails at the final flush; verify's FAIL line (a fixture that
    # expects a wrong n) fails the same way, with exit 5 instead of 1
    doc = json.loads((FIXTURES / "triangle.fixture.json").read_text())
    doc["expect"]["n"] = 4
    path = tmp_path / "wrong.fixture.json"
    path.write_text(json.dumps(doc))
    cmd, env = module_argv(*argv, str(path))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            cmd, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120
        )
    assert done.returncode == 5
    assert done.stderr == "output error: [Errno 28] No space left on device\n"
