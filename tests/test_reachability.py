"""Every function in the package source is reached by a CLI call, or is
listed in ``KEPT_UNREACHED`` with the reason it stays.

The test runs each subcommand on two fixtures, plus one malformed graph and
one fixture with a wrong expectation, under ``sys.setprofile``.  It then
compares the module-level functions and methods of ``src/mgstate/*.py``
that no call reached with the list, so a new unused function fails it and
so does a stale entry.  Nested functions are reached only through the
function that defines them, and dataclass-generated methods have no source,
so neither is listed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import mgstate
from mgstate.cli import build_parser, main

SRC = Path(mgstate.__file__).resolve().parent
FIXTURES = SRC / "fixtures"

KEPT_UNREACHED = {
    # paper propositions, library API checked by tier-1 tests; the package
    # docstring says why none of them is a ``verify`` check
    "subgroups.gamma_order",
    "subgroups.gram_factor_search",
    "subgroups.subgroup_isomorphism",
    "subgroups._flat_basis",
    "subgroups.apply_row_map",
    "subgroups.membership_count",
    "subgroups.commutes_via_gamma",
    "states.convex_combine",
    "pauli.RationalMatrix.conjugated_by",
    "pauli.RationalMatrix.__eq__",
    "pauli.RationalMatrix.trace",
    "pauli.RationalMatrix.trace_is_one",
    # helpers that only those propositions reach; the CLI reads e off its
    # one Gamma reduction, and ``extend_e1`` off the skeleton's parts
    "graphs.mixed_rank",
    "subgroups.IsotropicSubspace.contains",
    "f2.in_rowspan",
    "f2.BinMatrix.identity",
    "f2.BinMatrix.matmul",
    "pauli.dense_conjugation",
    # package API and the per-parent oracle's kernel in the tests: the
    # parents take their kernels in batches (``f2.kernel_batch``)
    "f2.kernel",
    # wrapped by the benchmark's span tracer, ``perfbench/spans.py``; the
    # children test their generators' commutation in one array product, and
    # the enumeration and the member lists take their spans in batches
    # (``f2.span_batch``)
    "extension.verify_full_commutation",
    "f2.span",
    "pauli.PauliWord.to_dense",
    "states.DensityMatrix.is_pure",
    # the F4 form whose addition matches row products; the report writes
    # its text, ``f4_row_strings``, from the stabilizer words directly
    "graphs.f4_matrix",
    # constructors of formats the package writes, and the inverse the tests
    # read matrices back with
    "pauli.PauliWord.from_letters",
    "f2.BinMatrix.from_lists",
    "f2.BinMatrix.to_lists",
}


def defined_functions():
    """(source file, first line) -> "module.Class.name" for each function
    and method at the top of a class or module.  The first line is that of
    the first decorator, as in the function's code object."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node, "")]
            elif isinstance(node, ast.ClassDef):
                defs = [(m, node.name + ".") for m in node.body if isinstance(m, ast.FunctionDef)]
            else:
                defs = []
            for fn, prefix in defs:
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                out[(str(path), first)] = f"{path.stem}.{prefix}{fn.name}"
    return out


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def test_every_function_is_reached_or_kept(tmp_path):
    malformed = tmp_path / "malformed.graph"
    malformed.write_text("nodes 2\nedge 0 -> 5\n")
    doc = json.loads((FIXTURES / "triangle.fixture.json").read_text())
    doc["expect"]["e"] += 1
    wrong_expect = tmp_path / "wrong.fixture.json"
    wrong_expect.write_text(json.dumps(doc))

    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    codes = []
    build_parser.cache_clear()  # built once per process: this run builds it afresh
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name in ("triangle", "fournode"):
            graph = str(FIXTURES / f"{name}.graph")
            for argv in (
                ["analyze"],
                ["subgroups"],
                ["children"],
                ["children", "--all"],
                ["children", "--subgroup", "0"],
                ["signfree"],
            ):
                codes.append(run_cli(*argv, graph, "--json"))
            codes.append(run_cli("verify", str(FIXTURES / f"{name}.fixture.json"), "--json"))
        codes.append(run_cli("analyze", str(malformed), "--json"))
        codes.append(run_cli("verify", str(wrong_expect), "--json"))
    finally:
        sys.setprofile(previous)
    assert codes == [0] * 14 + [2, 1]

    defined = defined_functions()
    hit = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in reached}
    unreached = {name for key, name in defined.items() if key not in hit}
    assert unreached == KEPT_UNREACHED
