from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
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
from conftest import (
    batch_of,
    layout_check_children,
    parents_of,
    same_children,
    span_of_basis,
    subgroup_batch_of,
)
from mgstate.cli import _emit, main
from mgstate.extension import extend_e1, extend_for_subgroup
from mgstate.f2 import bits_of, bitstring, mask_of
from mgstate.pauli import GaussianMatrix, PauliWord, ordered_product
from mgstate.states import ChildResult, DensityMatrix, child_from_partial_trace
from mgstate.subgroups import chi
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


def test_bound_exceeded_exit_3(tmp_path):
    # each printed rho of 13 qubits renders to 16 4^13 bytes = 1 GiB, past the
    # 384 MiB cap: refused before the first byte, whatever the mode
    path = write_graph(tmp_path, "nodes 13\nedge 0 -> 1\n")
    for argv in ([], ["--json"], ["--all"], ["--subgroup", "0"]):
        code, out, err = run_cli("children", *argv, path)
        assert (code, out) == (3, "")
        assert err == (
            "bound exceeded: a dense rendering of 13 qubits takes 1073741824 bytes,"
            " over the cap of 402653184 bytes\n"
        )


def test_children_subgroup_of_clique9_renders_within_cap(tmp_path):
    # n + e = 13 was past the old qubit bound; its rho renders to 4 MiB
    path = write_graph(tmp_path, directed_clique(9))
    code, out, _ = run_cli("children", "--subgroup", "0", path)
    assert code == 0
    assert out.startswith("e = 4, t = 1\nmode: subgroups\n--- child 0 ---\n")
    assert out.endswith("oracle verified: True\n")


def test_verify_checks_children_whose_member_lists_fit_the_cap(monkeypatch):
    # (n, e): whether the bytes of every member list verify builds, (chi(e) +
    # 6 [e = 1]) 24 2^(n - e), fit the 384 MiB cap
    table = {
        (12, 0): True,  # 96 KiB
        (12, 1): True,  # 432 KiB
        (10, 5): True,  # 55 MiB: the 10-node directed clique's 75,735 children
        (12, 5): True,  # 222 MiB
        (13, 5): False,  # 444 MiB
        (12, 6): False,  # 7.0 GiB
        (24, 1): False,  # 1.7 GiB
    }
    assert {ne: mgstate.cli._children_fit(*ne) for ne in table} == table
    # every (n, e) that the layout rule admitted, and the old qubit bound n + e
    # <= 12 before it, still fits
    old = [(n, e) for n in range(1, 13) for e in range(n // 2 + 1)
           if n + e <= 12 or (chi(e) + 6 * (e == 1)) * (8 << 2 * n - e) <= 3 << 27]
    assert all(mgstate.cli._children_fit(n, e) for n, e in old)
    # verify follows the rule: told the triangle's children do not fit, it builds none
    monkeypatch.setattr(mgstate.cli, "_children_fit", lambda n, e: False)
    code, out, _ = run_cli("verify", "--json", str(FIXTURES / "triangle.graph"))
    assert code == 0
    checked = json.loads(out)["result"]["checked"]
    assert "indicator-matches-subgroup" in checked
    assert not any(name.startswith(("child-", "family-")) for name in checked)


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
    # triangle: n = 3, e = 1, so every child sums |J| = 4 dual products,
    # whose x, z and phase the Pauli sum reads off the dual rows' quadratic
    # form for all members at once, with no ordered product
    products, members = [], []
    original_terms = mgstate.states._pauli_terms

    def counted(rows, indices):
        products.append(indices)
        return ordered_product(rows, indices)

    def terms(parents, duals, bases):  # members per child of the chunk
        out = original_terms(parents, duals, bases)
        members.extend([out[0].shape[1]] * len(parents))
        return out

    monkeypatch.setattr(mgstate.cli, "ordered_product", counted)
    monkeypatch.setattr(mgstate.pauli, "ordered_product", counted)
    monkeypatch.setattr(mgstate.states, "_pauli_terms", terms)
    code, _, _ = run_cli("children", str(FIXTURES / "triangle.graph"))
    assert code == 0
    assert (products, members) == ([], [4] * 6)  # the six family children
    members.clear()
    code, _, _ = run_cli("verify", str(FIXTURES / "triangle.graph"))
    assert code == 0
    assert (products, members) == ([], [4] * (3 + 6))  # one child per subgroup, then the family


# ``children`` runs the same checks as ``verify`` on every child it prints
BATTERY_COMMANDS = [["verify"], ["children", "--all", "--json"]]


def test_child_mixed_rejects_maximally_mixed_child(monkeypatch):
    # I/2^n agrees on both routes, is fixed by every stabilizer row, has
    # trace one and is not pure, but its purity is 2^-n, not 2^-e
    def maximally_mixed(parents):  # one I/2^n per parent of the chunk: D = {0}
        zeros = np.zeros((len(parents), 1), dtype=np.int64)
        return DensityMatrix(parents.n, zeros, zeros, zeros)

    def pauli_sum_route(parents, duals, gens):
        rho = maximally_mixed(parents)
        return ChildResult(parents, gens, rho, np.zeros(rho.offsets.shape, int))

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
    # e and t come from the one Gamma reduction; the stabilizer rows are
    # built once, and the dual rows are read off A^T
    assert calls == {"mixed_rank": 0, "stabilizer_matrix": 1}


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
    # one listing of J per child (135), all in one batched span since the
    # 135 children are one chunk; the enumerator lists its coset
    # representatives itself, and no check re-lists J or a subgroup
    calls = []
    original = mgstate.f2.span_batch

    def counted(basis):
        calls.append(len(basis))
        return original(basis)

    for module in (mgstate.f2, mgstate.subgroups, mgstate.extension, mgstate.states, mgstate.cli):
        if hasattr(module, "span_batch"):
            monkeypatch.setattr(module, "span_batch", counted)
    code, _, _ = run_cli("verify", str(FIXTURES / "clique6.graph"))
    assert code == 0
    assert calls == [135]


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


def test_verify_checks_parents_beyond_dense_bound(tmp_path, monkeypatch):
    # n = 12, e = 1: the 3 + 6 member lists take 9 * 24 * 2^11 bytes = 432
    # KiB, so every child is checked (their layouts, 576 MiB, were past the
    # dense cap); under a cap of 256 KiB no child is built, but each of the
    # chi(1) = 3 parents is still built and checked
    path = write_graph(tmp_path, "nodes 12\nedge 0 -> 1\nedge 2 -- 3\nedge 4 -- 5\n")
    code, out, _ = run_cli("verify", path)
    assert code == 0
    assert out.startswith("ok (65 checks)\n")
    monkeypatch.setattr(mgstate.pauli, "DENSE_BYTES", 1 << 18)
    code, out, _ = run_cli("verify", path)
    assert code == 0
    assert out.startswith("ok (18 checks)\n")
    code, out, _ = run_cli("verify", "--json", path)
    assert code == 0
    checked = json.loads(out)["result"]["checked"]
    assert {"extension-found", "extension-commutes", "indicator-matches-subgroup"} <= set(checked)
    assert not any(name.startswith(("child-", "family-")) for name in checked)


def test_extension_commutes_by_symmetry(monkeypatch):
    # clique6: the 6 x 6 dual-against-stabilizer check and the 6 x 6
    # signfree table; the children's generators are checked in one array
    # product per chunk, and no parent's rows are checked pairwise, since
    # they commute iff the adjacency symmetrize writes down is symmetric
    calls = []
    original = PauliWord.commutes

    def counted(self, other):
        calls.append(self.n)
        return original(self, other)

    monkeypatch.setattr(PauliWord, "commutes", counted)
    code, _, _ = run_cli("verify", str(FIXTURES / "clique6.graph"))
    assert code == 0
    assert len(calls) == 36 + 36


def test_extension_found_rejects_flipped_letter(monkeypatch):
    # one X bit flipped at node 0 of each parent's first extension column:
    # the reported columns no longer satisfy X H + (X H)^T = Gamma
    def flipped(g, subs, rows):
        parents = extend_for_subgroup(g, subs, rows)
        xcols = parents.xcols.copy()
        xcols[:, 0] ^= 1
        return dataclasses.replace(parents, xcols=xcols)

    monkeypatch.setattr(mgstate.cli, "extend_for_subgroup", flipped)
    for argv in BATTERY_COMMANDS:
        code, out, _ = run_cli(*argv, str(FIXTURES / "fournode.graph"))
        assert (code, out) == (1, "FAIL extension-found: subgroup 0\n"), argv


@pytest.mark.parametrize("fixture", JSON_FIXTURES, ids=lambda p: p.name.split(".")[0])
def test_dense_matrix_built_only_to_render(monkeypatch, fixture):
    # verify checks every child on its XOR-offset layout and renders none,
    # not even the e = 1 children a fixture pins as JSON, which it reads at
    # the layout's offsets; children --all --json renders each child it
    # prints once
    shapes = []
    original = GaussianMatrix.__init__

    def counted(self, re, im, denom_log2=0):
        original(self, re, im, denom_log2)
        shapes.append(self.re.shape)

    monkeypatch.setattr(GaussianMatrix, "__init__", counted)
    code, _, _ = run_cli("verify", str(fixture))
    expect = json.loads(fixture.read_text())["expect"]
    assert code == 0
    assert shapes == []
    shapes.clear()
    graph = fixture.with_suffix("").with_suffix(".graph")
    code, out, _ = run_cli("children", "--all", "--json", str(graph))
    children = json.loads(out)["result"]["children"]
    assert code == 0 and len(children) == expect["chi"]
    assert shapes == [(1 << expect["n"],) * 2] * len(children)


def test_extension_commutes_rejects_asymmetric_adjacency(monkeypatch):
    # one bit of each parent's adjacency mirrored away: its columns still
    # meet the extension condition, but its graph-form rows X_j Z^{A_j} no
    # longer commute, and nothing before the check rejects the parent
    def asymmetric(g, subs, rows):
        parents = extend_for_subgroup(g, subs, rows)
        ae = parents.ae.copy()
        for i, p in enumerate(parents_of(parents)):
            j, k = next((j, k) for j, r in enumerate(p.ae.rows) for k in bits_of(r) if k != j)
            ae[i, j] ^= 1 << k
        return dataclasses.replace(parents, ae=ae)

    monkeypatch.setattr(mgstate.cli, "extend_for_subgroup", asymmetric)
    for argv in BATTERY_COMMANDS:
        code, out, _ = run_cli(*argv, str(FIXTURES / "fournode.graph"))
        assert (code, out) == (1, "FAIL extension-commutes: subgroup 0\n"), argv


def test_extension_commutes_rejects_asymmetric_e1_parent(monkeypatch):
    # the e = 1 family's parents pass the same check, without adding to the
    # report's check count
    def asymmetric(g):
        parents = extend_e1(g)[:1]
        ae = parents.ae.copy()
        ae[0, 0] ^= 2
        return dataclasses.replace(parents, ae=ae)

    monkeypatch.setattr(mgstate.cli, "extend_e1", asymmetric)
    for argv in (["verify"], ["children"]):
        code, out, _ = run_cli(*argv, str(FIXTURES / "triangle.graph"))
        assert (code, out) == (1, "FAIL extension-commutes: e = 1 parent 0\n"), argv


@pytest.mark.parametrize("argv", BATTERY_COMMANDS, ids=lambda a: a[0])
def test_parent_eliminations_on_clique6(monkeypatch, argv):
    # the parents take no F2 elimination of their own and no symmetry test:
    # H, the indicators and the extension-commutes check are array passes
    # over each batch of parents;
    # reducing Gamma and the symplectic basis take 4 RREFs and 2 symmetry
    # tests; the enumerator reduces all its subgroups in one batched
    # elimination, and t = 0 makes each reduced basis its own lift
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
    assert calls == {"rref": 4, "is_symmetric": 2}


def test_indicator_computed_once_per_parent(monkeypatch):
    # each parent's indicator is computed once, in one call per batch of
    # parents
    calls = []
    original = mgstate.extension.indicator

    def counted(parents):
        calls.append(len(parents))
        return original(parents)

    for module in (mgstate.extension, mgstate.states, mgstate.cli):
        monkeypatch.setattr(module, "indicator", counted)
    runs = [
        (["verify", "clique6.graph"], [135]),
        (["children", "--all", "--json", "clique6.graph"], [135]),
        (["children", "triangle.graph"], [6]),  # the e = 1 family
        (["verify", "triangle.graph"], [3, 6]),  # one parent per subgroup, then the family
    ]
    for argv, parents in runs:
        calls.clear()
        code, _, _ = run_cli(*argv[:-1], str(FIXTURES / argv[-1]))
        assert code == 0
        assert calls == parents, argv


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

    def swapped(g, batch, rows):
        swapped = [subs[1] if m.lifted_basis == subs[0].lifted_basis else m for m in batch]
        return extend_for_subgroup(g, subgroup_batch_of(swapped), rows)

    monkeypatch.setattr(mgstate.cli, "extend_for_subgroup", swapped)
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
    original = mgstate.cli.span_batch

    def guarded(basis):
        if basis.shape[1] > 6:
            raise AssertionError(f"listing 2^{basis.shape[1]} members")
        return original(basis)

    monkeypatch.setattr(mgstate.cli, "span_batch", guarded)
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


def _negated_trace(parents):
    rho = child_from_partial_trace(parents)
    return dataclasses.replace(rho, kappa=rho.kappa + 2)


def test_children_invariant_failure_mid_stream(monkeypatch):
    # only subgroup 3's child is wrong, inside fournode's one chunk of 15:
    # children 0-2 are already written, and the FAIL line ends stdout on a
    # line of its own
    argv = ["children", "--all", "--json", str(FIXTURES / "fournode.graph")]
    _, full, _ = run_cli(*argv)
    _mutate_child(monkeypatch, 3, _flip_sign)
    code, out, err = run_cli(*argv)
    assert code == 1 and err == ""
    written, fail = out[:-1].rsplit("\n", 1)
    assert out.endswith("\n") and out.count("FAIL") == 1
    assert fail.startswith("FAIL pauli-sum-vs-partial-trace: parent [")
    assert full.startswith(written) and written.count('"subgroup_index":') == 3


def test_children_extension_error_mid_stream(monkeypatch):
    # in batches of one parent, only subgroup 3's symmetrize raises: exit 4
    # with its message, and stdout holds children 0-2 with their last line
    # ended
    argv = ["children", "--all", "--json", str(FIXTURES / "fournode.graph")]
    _, full, _ = run_cli(*argv)
    monkeypatch.setattr(mgstate.cli, "PARENT_BATCH", 1)
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
    # child k is on stdout before the batch of parents after it is built:
    # in batches of one, before the parent of child k + 1
    written = []

    def recorded(g, subs, rows):
        written.append(stdout.getvalue().count('"subgroup_index":'))
        return extend_for_subgroup(g, subs, rows)

    monkeypatch.setattr(mgstate.cli, "extend_for_subgroup", recorded)
    for batch in (1, 4, mgstate.extension.PARENT_BATCH):
        monkeypatch.setattr(mgstate.cli, "PARENT_BATCH", batch)
        stdout = io.StringIO()
        written.clear()
        with contextlib.redirect_stdout(stdout):
            code = main(["children", "--all", "--json", str(FIXTURES / "fournode.graph")])
        assert code == 0
        assert written == list(range(0, 15, batch)), batch


def test_subgroups_written_entry_by_entry(monkeypatch):
    # a batch of subgroups is on stdout before the members of the next
    # batch are listed; appendix_a has 15 subgroups
    written = []
    original = mgstate.cli.span_batch

    def recorded(basis):
        written.append(stdout.getvalue().count('"index":'))
        return original(basis)

    monkeypatch.setattr(mgstate.cli, "span_batch", recorded)
    for batch in (1, 4, mgstate.cli.LISTING_BATCH):
        monkeypatch.setattr(mgstate.cli, "LISTING_BATCH", batch)
        stdout = io.StringIO()
        written.clear()
        with contextlib.redirect_stdout(stdout):
            code = main(["subgroups", "--json", str(FIXTURES / "appendix_a.graph")])
        assert code == 0
        listing = json.loads(stdout.getvalue())["result"]["subgroups"]
        assert len(listing) == 15
        assert written == list(range(0, 15, batch)), batch


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


def test_subgroups_past_int64_pair_coordinates_exit_3(tmp_path):
    # 32 disjoint arrows give e = 32: 2e = 64 pair-coordinate bits fit no
    # int64 mask, whatever --bound allows
    text = "nodes 64\n" + "".join(f"edge {2 * j} -> {2 * j + 1}\n" for j in range(32))
    code, out, err = run_cli("subgroups", "--bound", "100", write_graph(tmp_path, text))
    assert (code, out) == (3, "")
    assert err.startswith("bound exceeded: enumeration bound exceeded: 2e = 64 > 62 (chi(32) = ")


def test_payload_splits_lab_and_environment_offsets():
    # a hand-built parent of one chunk with lab offset 0 and environment
    # offset 3, which symmetrize never writes: the report reads both off
    # the batch's offsets row, each under its own key and both in the phase
    # function, and the environment offset leaves the child as it is
    g = mgstate.graphs.parse_graph(TRIANGLE)
    duals, rows = mgstate.graphs.dual_stabilizer(g), mgstate.graphs.stabilizer_matrix(g)
    (p,) = parents_of(extend_e1(g)[:1])
    assert (p.lab_offsets, p.env_offsets) == ({2}, set())
    signed = dataclasses.replace(p, lab_offsets=frozenset({0}), env_offsets=frozenset({3}))
    unsigned = dataclasses.replace(signed, env_offsets=frozenset())
    chunks = [mgstate.states.child_from_pauli_sum(batch, duals, mgstate.extension.indicator(batch))
              for batch in (batch_of([signed]), batch_of([unsigned]))]
    assert chunks[0].parents.offsets.tolist() == [0b1001]
    mgstate.cli._check_children(chunks[0], rows)
    assert same_children(chunks[0].rho, chunks[1].rho)
    payload, plain = (mgstate.cli._payload(chunk, 0) for chunk in chunks)
    assert (payload["lab_offsets"], payload["env_offsets"]) == ([0], [3])
    assert (plain["lab_offsets"], plain["env_offsets"]) == ([0], [])
    terms = payload["phase_function"].split(" + ")
    assert "2*x0" in terms and "2*x3" in terms and "2*x2" not in terms
    assert payload["phase_function"] == plain["phase_function"].replace("2*x0", "2*x0 + 2*x3")
    same = payload.keys() - {"env_offsets", "phase_function", "rho"}  # rho holds arrays
    assert {k: payload[k] for k in same} == {k: plain[k] for k in same}


@pytest.mark.parametrize("command", ["children", "verify"])
def test_child_check_reproducer_names_parent(monkeypatch, command):
    monkeypatch.setattr(mgstate.cli, "child_from_partial_trace", _negated_trace)
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


def sparse_graph_text(n, seed):
    """2n undirected edges, 3 directed ones and about n/4 red nodes, seeded."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < 2 * n + 3:
        j, k = sorted(rng.sample(range(n), 2))
        pairs.add((j, k))
    kinds = ["->"] * 3 + ["--"] * 2 * n
    lines = [f"nodes {n}"] + [f"color {j} red" for j in range(n) if rng.random() < 0.25]
    return "\n".join(lines + [f"edge {j} {kind} {k}" for (j, k), kind in zip(sorted(pairs), kinds)])


@pytest.mark.parametrize("text", [sparse_graph_text(256, 3), "nodes 4\nedge 0 -> 1\nedge 2 -> 3\n"],
                         ids=["n256", "t0"])
def test_analyze_report_matches_stdlib_encoding(text, tmp_path):
    # row lists of text are written as one join each; an empty kernel basis as []
    code, out, _ = run_cli("analyze", "--json", write_graph(tmp_path, text))
    result = json.loads(out)["result"]
    assert code == 0 and len(result["kernel_basis"]) == result["t"] == result["n"] - 2 * result["e"]
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        [[]],
        ["a", "\u00e9\n"],
        ["a", 1, "b"],
        {"s": ["x", None], "t": [["y"], "z", ["", 2]], "u": ("v", "")},
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
        value = {"b": [a, {"a": a}], "a": a, "0": a}  # a key with a digit in it
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


# ---- verify builds and checks the children a chunk at a time ----


def _chunk_entries(n, e, children):
    """A ``CHUNK_ENTRIES`` that puts ``children`` children of (n, e) in a chunk, or all of them."""
    return 1 << 62 if children == "all" else children * ((3 << n - e) + (1 << n))


@pytest.mark.parametrize("children", [1, 3, "all"])
@pytest.mark.parametrize("fixture", GRAPH_FIXTURES, ids=lambda p: p.stem)
def test_verify_report_independent_of_chunk_size(monkeypatch, fixture, children):
    # chunk boundaries anywhere give the same report, whose count includes
    # every check each child passed
    want = run_cli("verify", str(fixture))
    g = mgstate.graphs.parse_graph(fixture.read_text())
    e = mgstate.subgroups.reduce_gamma(g.gamma()).e
    monkeypatch.setattr(mgstate.states, "CHUNK_ENTRIES", _chunk_entries(g.n, e, children))
    assert run_cli("verify", str(fixture)) == want
    assert run_cli("verify", "--json", str(fixture))[0] == 0


@pytest.mark.parametrize("children", [1, 3, "all"])
@pytest.mark.parametrize("fixture", GRAPH_FIXTURES, ids=lambda p: p.stem)
def test_children_report_independent_of_chunk_size(monkeypatch, fixture, children):
    # chunk boundaries anywhere give the same reports, and a fault in
    # clique6's child 40, inside its chunk, fails after children 0-39 are
    # written
    argvs = [["children", "--all", str(fixture)], ["children", "--all", "--json", str(fixture)]]
    want = [run_cli(*argv) for argv in argvs]
    g = mgstate.graphs.parse_graph(fixture.read_text())
    e = mgstate.subgroups.reduce_gamma(g.gamma()).e
    monkeypatch.setattr(mgstate.states, "CHUNK_ENTRIES", _chunk_entries(g.n, e, children))
    assert [run_cli(*argv) for argv in argvs] == want
    if fixture.stem != "clique6":
        return
    for argv, (_, full, _) in zip(argvs, want):
        _mutate_child(monkeypatch, 40, _flip_sign)
        code, out, err = run_cli(*argv)
        head, fail = out[:-1].rsplit("\n", 1)
        assert (code, err, fail + "\n") == (1, "", _route_fail_line("clique6", 40)), argv
        marker = "subgroup index: " if "--json" not in argv else '"subgroup_index":'
        assert full.startswith(head) and head.count(marker) == 40, argv


CHILDREN_TEXT_SHA256 = {
    "clique6": "bd492cbff3368cafc3812bf2e4411b84b9f079570fdae7798403b0dd96a7a99c",
    "appendix_a": "338a0a010c080d71e3524d90c0b85bd4e2ea070bfc1963b3b8fdf9e723bb77eb",
    "fivenode": "382169ad8321cb9cc1bda9daf5763d7d2e37a9373285e5c091e82f859ad7b719",
    "fournode": "b5a151f3409ab7f8b15470eda6c70b09062034ae4c9a816b9c00c820a888226c",
}


@pytest.mark.parametrize("name", sorted(CHILDREN_TEXT_SHA256))
def test_children_text_report_pinned(name):
    # the e >= 2 fixtures' text reports, each child's rho as its text grid
    code, out, _ = run_cli("children", "--all", str(FIXTURES / f"{name}.graph"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHILDREN_TEXT_SHA256[name]


def test_verify_clique6_counts_repeated_checks():
    code, out, _ = run_cli("verify", str(FIXTURES / "clique6.graph"))
    assert code == 0
    assert out.splitlines()[0] == "ok (1221 checks)"


def test_verify_chunks_by_member_words(monkeypatch):
    # chunks of about 2^14 words, 3 |D| + 2^n per child: 186 children of (6,
    # 3), so clique6's 135 children come in one chunk, while a chunk holds
    # 93 children of (7, 3) and one of (12, 0)
    sizes = []
    original = mgstate.states.child_from_partial_trace

    def traced(parents):
        sizes.append(len(parents))
        return original(parents)

    monkeypatch.setattr(mgstate.cli, "child_from_partial_trace", traced)
    assert run_cli("verify", str(FIXTURES / "clique6.graph"))[0] == 0
    assert sizes == [135]
    assert mgstate.states.chunk_len(6, 3) == 186 and mgstate.states.chunk_len(7, 3) == 93
    assert mgstate.states.chunk_len(10, 5) == 14 and mgstate.states.chunk_len(12, 0) == 1


def _subgroup_parent(fixture, idx):
    g = mgstate.graphs.parse_graph((FIXTURES / f"{fixture}.graph").read_text())
    red = mgstate.subgroups.reduce_gamma(g.gamma())
    subs = mgstate.subgroups.enumerate_max_isotropic(red)[idx:idx + 1]
    return parents_of(extend_for_subgroup(g, subs, mgstate.graphs.stabilizer_matrix(g)))[0]


def _route_fail_line(fixture, idx):
    p = _subgroup_parent(fixture, idx)
    return (f"FAIL pauli-sum-vs-partial-trace: parent {p.ae.row_strings()}"
            f" offsets {sorted(p.lab_offsets)}\n")


def _mutate_child(monkeypatch, target, mutate):
    """Route 1 with ``mutate(children, z, kappa, i)`` applied to copies of
    the chunk's z masks and phases at its child i when it is the
    ``target``-th child built, counting from 0."""
    original = mgstate.states.child_from_pauli_sum
    seen = []

    def mutated(parents, duals, gens):
        children = original(parents, duals, gens)
        i = target - len(seen)
        seen.extend(range(len(parents)))
        if 0 <= i < len(parents):
            z, kappa = children.rho.z.copy(), children.rho.kappa.copy()
            mutate(children, z, kappa, i)
            rho = dataclasses.replace(children.rho, z=z, kappa=kappa)
            children = dataclasses.replace(children, rho=rho)
        return children

    monkeypatch.setattr(mgstate.cli, "child_from_pauli_sum", mutated)


def _flip_sign(children, z, kappa, i):
    kappa[i] += 2


def _drop_generator(children, z, kappa, i):
    # the sum over J with the last generator's Z part dropped: each member
    # outside the span of the other generators loses that Z mask
    *others, last = children.gens[i].tolist()
    members = children.rho.offsets[i]
    z[i, ~np.isin(members, span_of_basis(others))] ^= z[i, members == last]


@pytest.mark.parametrize("mutate", [_flip_sign, _drop_generator], ids=["sign", "generator"])
@pytest.mark.parametrize("fixture,target", [("fournode", 6), ("clique6", 40), ("clique6", 0)])
def test_mutated_child_inside_a_chunk_fails(monkeypatch, mutate, fixture, target):
    # fournode's 15 children are one chunk and clique6's come 32 at a time:
    # the one mutated child fails, and verify names it, not its chunk
    for argv in BATTERY_COMMANDS:
        _mutate_child(monkeypatch, target, mutate)
        code, out, _ = run_cli(*argv, str(FIXTURES / f"{fixture}.graph"))
        assert code == 1, argv
        assert out.splitlines(keepends=True)[-1] == _route_fail_line(fixture, target), argv


def test_first_failure_in_subgroup_order(monkeypatch):
    # a child fault at subgroup 3 and a parent fault at subgroup 5 of one
    # chunk: verify builds parents 0-5 before it checks children 0-4, yet
    # names subgroup 3's child, as checking one subgroup at a time does
    original_extend = mgstate.extension.extend_for_subgroup
    extended = []

    def flipped_sixth(g, subs, rows):  # one X bit outside the column's Z/Y support
        parents = original_extend(g, subs, rows)
        i = 5 - len(extended)
        extended.extend(subs)
        if not 0 <= i < len(parents):
            return parents
        xcols = parents.xcols.copy()
        z = int(parents.ae[i, parents.n])
        xcols[i, 0] ^= ~z & (z + 1)
        return dataclasses.replace(parents, xcols=xcols)

    monkeypatch.setattr(mgstate.cli, "extend_for_subgroup", flipped_sixth)
    code, out, _ = run_cli("verify", str(FIXTURES / "fournode.graph"))
    assert (code, out) == (1, "FAIL extension-found: subgroup 5\n")  # the parent fault alone
    extended.clear()
    _mutate_child(monkeypatch, 3, _flip_sign)
    code, out, _ = run_cli("verify", str(FIXTURES / "fournode.graph"))
    assert (code, out) == (1, _route_fail_line("fournode", 3))
    extended.clear()
    _mutate_child(monkeypatch, 7, _flip_sign)  # a child fault after the parent fault
    code, out, _ = run_cli("verify", str(FIXTURES / "fournode.graph"))
    assert (code, out) == (1, "FAIL extension-found: subgroup 5\n")


def test_child_fault_before_extension_error(monkeypatch):
    # in batches of one parent, symmetrize raising at subgroup 5 is exit 4,
    # but a failing child at subgroup 3 comes first
    monkeypatch.setattr(mgstate.cli, "PARENT_BATCH", 1)
    original = mgstate.extension.symmetrize
    calls = []

    def failing_sixth(stabilizer, columns):
        calls.append(columns)
        if len(calls) == 6:
            raise mgstate.extension.ExtensionError("rows do not pairwise commute")
        return original(stabilizer, columns)

    monkeypatch.setattr(mgstate.extension, "symmetrize", failing_sixth)
    code, _, err = run_cli("verify", str(FIXTURES / "fournode.graph"))
    assert (code, err) == (4, "search failure: rows do not pairwise commute\n")
    calls.clear()
    _mutate_child(monkeypatch, 3, _drop_generator)
    code, out, err = run_cli("verify", str(FIXTURES / "fournode.graph"))
    assert (code, out, err) == (1, _route_fail_line("fournode", 3), "")


def _flip_parent(monkeypatch, target):
    """Parents built with one X bit outside the first column's Z/Y support
    at subgroup ``target``, counting every subgroup built from 0."""
    original = mgstate.extension.extend_for_subgroup
    seen = []

    def flipped(g, subs, rows):
        parents = original(g, subs, rows)
        i = target - len(seen)
        seen.extend(subs)
        if not 0 <= i < len(parents):
            return parents
        xcols = parents.xcols.copy()
        z = int(parents.ae[i, parents.n])
        xcols[i, 0] ^= ~z & (z + 1)
        return dataclasses.replace(parents, xcols=xcols)

    monkeypatch.setattr(mgstate.cli, "extend_for_subgroup", flipped)


def _corrupted(rho, i, edit):
    """The chunk of member lists ``rho`` with child i edited: its last
    member's phase off by 1 ("kappa"), member 0's phase off by 2 ("sign"),
    its last member's z bit 0 flipped ("z"), or, in a chunk of one, its last
    member dropped ("member")."""
    d, z, kappa = rho.offsets, rho.z.copy(), rho.kappa.copy()
    if edit == "member":
        assert len(rho) == 1
        d, z, kappa = d[:, :-1], z[:, :-1], kappa[:, :-1]
    else:
        kappa[i, -1] += edit == "kappa"
        kappa[i, 0] += 2 * (edit == "sign")
        z[i, -1] ^= edit == "z"
    return DensityMatrix(rho.n, d, z, kappa)


def _corrupt_routes(monkeypatch, target, edit, routes):
    """Route 1, and route 2 too when ``routes`` is "both", with child
    ``target`` edited by ``_corrupted``, counting children from 0."""
    for name in ("child_from_pauli_sum", "child_from_partial_trace")[:1 + (routes == "both")]:
        original, seen = getattr(mgstate.states, name), []

        def corrupted(parents, *rest, _original=original, _seen=seen):
            out, i = _original(parents, *rest), target - len(_seen)
            _seen.extend(range(len(parents)))
            if not 0 <= i < len(parents):
                return out
            if isinstance(out, ChildResult):
                return dataclasses.replace(out, rho=_corrupted(out.rho, i, edit))
            return _corrupted(out, i, edit)

        monkeypatch.setattr(mgstate.cli, name, corrupted)


@pytest.mark.parametrize("edit,routes,name", [
    ("kappa", "one", "pauli-sum-vs-partial-trace"),
    ("z", "one", "pauli-sum-vs-partial-trace"),
    ("member", "one", "pauli-sum-vs-partial-trace"),
    ("kappa", "both", "child-hermitian"),
    ("sign", "both", "child-trace-one"),
    ("z", "both", "child-stabilized"),
    ("member", "both", "child-mixed"),
])
def test_corrupted_member_list_fails_as_the_layout_oracle(monkeypatch, edit, routes, name):
    # one child of fournode edited on route 1 alone or on both routes: the
    # identities on the member lists and the layout checks on their
    # renderings give the same report and the same first FAIL line, from
    # verify and from children --all --json; a dropped member needs a chunk
    # of one, as children streams them
    graph = str(FIXTURES / "fournode.graph")
    for argv in BATTERY_COMMANDS:
        runs = []
        for check_children in (mgstate.cli._check_children, layout_check_children):
            monkeypatch.setattr(mgstate.cli, "_check_children", check_children)
            if edit == "member":
                monkeypatch.setattr(mgstate.states, "CHUNK_ENTRIES", 1)
            _corrupt_routes(monkeypatch, 6, edit, routes)
            runs.append(run_cli(*argv, graph))
            monkeypatch.undo()
        assert runs[0] == runs[1], argv
        code, out, err = runs[0]
        assert (code, err) == (1, "") and out.splitlines()[-1].startswith(f"FAIL {name}: "), argv
        if argv[0] == "children":
            assert out.count('"subgroup_index":') == 6


def test_sign_flip_on_both_routes_passes_as_in_the_layout_oracle(monkeypatch):
    # a sign flip of a non-identity member on both routes keeps every check
    # on either form: the routes share their sign source (extension.phases)
    graph = str(FIXTURES / "fournode.graph")
    runs = []
    for check_children in (mgstate.cli._check_children, layout_check_children):
        monkeypatch.setattr(mgstate.cli, "_check_children", check_children)
        for name in ("child_from_pauli_sum", "child_from_partial_trace"):
            original = getattr(mgstate.states, name)

            def flipped(parents, *rest, _original=original):
                out = _original(parents, *rest)
                rho = out.rho if isinstance(out, ChildResult) else out
                kappa = rho.kappa.copy()
                kappa[:, -1] += 2
                rho = dataclasses.replace(rho, kappa=kappa)
                return dataclasses.replace(out, rho=rho) if isinstance(out, ChildResult) else rho

            monkeypatch.setattr(mgstate.cli, name, flipped)
        runs.append(run_cli("verify", graph))
        monkeypatch.undo()
    assert runs[0] == runs[1] == run_cli("verify", graph)
    assert runs[0][0] == 0


@pytest.mark.parametrize("batch", [1, 3, 10**9], ids=["one", "three", "all"])
def test_failure_order_across_parent_batches(monkeypatch, batch):
    # a child fault at subgroup 3 and a parent fault at subgroup 5, in
    # batches of 1, 3 and all 15 parents: verify and children --all --json
    # name the child fault, and children writes children 0-2 first; with
    # the parent fault alone, children 0-4 come before its FAIL line
    graph = str(FIXTURES / "fournode.graph")
    _, full, _ = run_cli("children", "--all", "--json", graph)
    monkeypatch.setattr(mgstate.cli, "PARENT_BATCH", batch)
    for child_fault, fail, written in ((True, _route_fail_line("fournode", 3), 3),
                                       (False, "FAIL extension-found: subgroup 5\n", 5)):
        for argv in BATTERY_COMMANDS:
            _flip_parent(monkeypatch, 5)
            if child_fault:
                _mutate_child(monkeypatch, 3, _flip_sign)
            code, out, err = run_cli(*argv, graph)
            lines = out.splitlines(keepends=True)
            assert (code, err, lines[-1]) == (1, "", fail), argv
            head = "".join(lines[:-1])[:-1]  # the partial report, its last line ended
            assert full.startswith(head) and head.count('"subgroup_index":') == (
                written if argv[0] == "children" else 0), argv
            monkeypatch.undo()
            monkeypatch.setattr(mgstate.cli, "PARENT_BATCH", batch)


def test_parent_batches_give_the_same_reports(monkeypatch):
    # every report of verify and children is the same in batches of 1, 3
    # and all parents: a batch changes how the parents are built, not what
    runs = [["verify", "--json", str(p)] for p in JSON_FIXTURES]
    for path in GRAPH_FIXTURES:
        for argv in (["verify"], ["children", "--all", "--json"], ["children", "--subgroup", "2"]):
            runs.append(argv + [str(path)])
    want = [run_cli(*argv) for argv in runs]
    assert all(code == 0 for code, _, _ in want)
    for batch in (1, 3, 10**9):
        monkeypatch.setattr(mgstate.cli, "PARENT_BATCH", batch)
        assert [run_cli(*argv) for argv in runs] == want, batch


def test_children_builds_two_density_matrices_per_child(monkeypatch):
    # clique6's 135 children are one chunk: route 1 and route 2 build one
    # DensityMatrix each for the whole chunk, and the checks and the
    # renderings read them without slicing
    calls = []
    original = DensityMatrix.__post_init__

    def counted(self):
        calls.append(len(self))
        original(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    code, _, _ = run_cli("children", "--all", "--json", str(FIXTURES / "clique6.graph"))
    assert code == 0
    assert calls == [135, 135]


def test_verify_checks_gamma_once(monkeypatch):
    # every subgroup of one enumeration shares its reduction, so the graph's
    # Gamma is tested against it once, not once per subgroup
    calls = []
    original = mgstate.graphs.MixedGraph.has_gamma

    def counted(g, gamma):
        calls.append(gamma)
        return original(g, gamma)

    monkeypatch.setattr(mgstate.graphs.MixedGraph, "has_gamma", counted)
    assert run_cli("verify", str(FIXTURES / "clique6.graph"))[0] == 0
    assert len(calls) == 1


def _stored_rho_variants():
    """Edits of the triangle fixture's first stored child: each one must
    fail ``expect-children-rho`` without breaking ``verify``."""
    def on_layout(rho):  # flip the sign of one nonzero entry
        rho["entries"][0][0] = [-1, 0]

    def off_layout(rho):  # a nonzero entry where the child is zero
        assert rho["entries"][0][1] == [0, 0]
        rho["entries"][0][1] = [0, 1]

    def ragged(rho):
        rho["entries"][0] = rho["entries"][0][:-1]

    def text(rho):
        rho["entries"][0][0] = ["1", "0"]

    def wrong_shape(rho):
        rho["entries"] = rho["entries"][:4]

    def extra_key(rho):
        rho["trace"] = 1

    def missing_key(rho):
        del rho["dim"]

    def denominator(rho):
        rho["denom_log2"] = 2

    return [on_layout, off_layout, ragged, text, wrong_shape, extra_key, missing_key, denominator]


@pytest.mark.parametrize("edit", _stored_rho_variants(), ids=lambda f: f.__name__)
def test_expect_children_rho_reads_the_layout(edit, tmp_path, monkeypatch):
    doc = json.loads((FIXTURES / "triangle.fixture.json").read_text())
    edit(doc["expect"]["children_e1"]["rho_json"][0])
    path = tmp_path / "edited.fixture.json"
    path.write_text(json.dumps(doc))
    built = []
    original = GaussianMatrix.__init__

    def counted(self, re, im, denom_log2=0):
        original(self, re, im, denom_log2)
        built.append(self.re.shape)

    monkeypatch.setattr(GaussianMatrix, "__init__", counted)
    code, out, err = run_cli("verify", str(path))
    assert (code, err) == (1, "")
    assert out == "FAIL expect-children-rho: a child density matrix differs from the stored fixture\n"
    assert built == []


def test_expect_children_rho_takes_equal_json_numbers(tmp_path):
    # the stored entries compare as the JSON values they are: 1.0 equals 1
    doc = json.loads((FIXTURES / "triangle.fixture.json").read_text())
    entries = doc["expect"]["children_e1"]["rho_json"][0]["entries"]
    entries[0][0] = [1.0, 0.0]
    path = tmp_path / "floats.fixture.json"
    path.write_text(json.dumps(doc))
    assert run_cli("verify", str(path))[0] == 0
