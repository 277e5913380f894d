"""Command line front end.

Subcommands read a graph file and emit deterministic reports, as text or as
JSON (``--json``).  Exit codes: 0 success, 1 invariant violation, 2 input
error, 3 a bound exceeded: dense bytes past ``pauli.DENSE_BYTES``, a size
bound, or memory (``bound exceeded: out of memory``), 4 an ``ExtensionError``
from the parent construction, as ``search failure: <message>`` on stderr, 5
stdout could not be written (a closed pipe or a full device), as one ``output
error: <message>`` line on stderr.  The column step cannot fail (see
``mgstate.extension``), so exit 4 means a precondition of the construction
broke; a parent whose J is not its subgroup fails an exit 1 check.

Each builder runs the checks that vouch for its output, and ``verify`` calls
every builder, so ``children`` runs ``verify``'s checks on each child it
prints: its ``oracle_verified: true`` means that they passed.

``verify``, ``children --all`` and ``children --subgroup k`` share one
child pipeline, ``_children``.  It builds the parents with one batched
builder, ``extension.extend_for_subgroup``, in batches of the module
constant ``extension.PARENT_BATCH`` = 2^12 subgroups (one for ``--subgroup
k``), each batch one row of masks per subgroup (see ``mgstate.extension``)
with one verdict per subgroup for each parent check.  The children draw
from the batch a chunk at a time.  A chunk of k children shares n and |D| =
2^(n-e) and holds each child as a signed member list, members, z masks and
phases (k, |D|) each (see ``mgstate.states``); ``states.chunk_len`` sizes
it to the module constant ``states.CHUNK_ENTRIES`` = 2^14 words, 3 |D| per
child plus route 2's 2^n syndromes, 93 children at (n, e) = (7, 3) and 186
at (6, 3).  Each route and each check is one array pass over a chunk, and
``check`` then reads the verdicts child by child, so the first failure is
still reported in (subgroup, check) order: a parent's failed verdict is
raised in its subgroup's place, after the children of the subgroups before
it are checked (and, for ``children``, written), and only those parents get
children.  An ``ExtensionError`` from building a batch, whose causes (a
foreign Gamma, a subgroup of the wrong dimension, a lab row not in graph
form) hold for a whole batch, counts as a failure of its first subgroup:
every batch before it is checked by then.

``subgroups`` and ``children`` stream their entries, so on a non-zero exit
stdout is not a complete report: the entries written so far, their last line
ended, then exit 1's ``FAIL <name>: <reproducer>`` line.  Bound and input
errors come before the first byte.  ``children`` writes one child at a time,
rendered from its chunk; ``subgroups`` writes a batch of ``LISTING_BATCH`` =
64 entries at a time, built together from one enumeration that holds every
subgroup as a row of masks (see ``mgstate.subgroups``), their members listed
by one batched span.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .extension import (
    PARENT_BATCH,
    ExtensionError,
    ParentBatch,
    extend_e1,
    extend_for_subgroup,
    indicator,
    meets_extension_condition,
)
from .f2 import BinMatrix, bits_of, bitstring, span_batch
from .graphs import (
    GraphParseError,
    MixedGraph,
    complete_multipartite_parts,
    dual_stabilizer,
    f4_row_strings,
    maximal_independent_sets,
    parse_graph,
    stabilizer_matrix,
)
from .pauli import (
    BoundExceeded,
    PauliWord,
    check_dense,
    distinct_entries,
    ordered_product,
    state_index,
)
from .signfree import (
    canonical_family,
    commuting_subsets_oracle,
    e_direct,
    e_recursive,
    family_to_lists,
)
from .states import (
    ChildResult,
    DensityMatrix,
    child_from_partial_trace,
    child_from_pauli_sum,
    children_family_e1,
    chunk_len,
    stabilized_by,
)
from .subgroups import (
    DEFAULT_ENUM_BOUND,
    GammaReduction,
    SubgroupBatch,
    chi,
    enumerate_max_isotropic,
    reduce_gamma,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_SEARCH = 4
EXIT_OUTPUT = 5

FIXTURE_SCHEMA = "mgstate-fixture-v1"


class InvariantViolation(RuntimeError):
    """A named invariant failed, with a minimal reproducer string."""

    def __init__(self, name: str, reproducer: str):
        super().__init__(f"invariant failed: {name} ({reproducer})")
        self.name = name
        self.reproducer = reproducer


def _require(name: str, ok: bool, reproducer: str) -> None:
    if not ok:
        raise InvariantViolation(name, reproducer)


Check = Callable[[str, bool, str], None]


def _check_children(children: ChildResult, rows: Sequence[PauliWord], check: Check = _require) -> None:
    """The children's cross-checks: each Pauli sum equals the partial trace
    of its parent, the mixed graph's stabilizer rows fix it, and it is a
    density matrix of purity 2^-e.  Each is an identity on the children's
    signed member lists (D, z, kappa), one array pass over a chunk of
    ``chunk_len`` children: equal (D, z, kappa) on both routes, z_w.d +
    x_w.z_d = 0 for every row w and member d, D[0] = z_0 = kappa_0 = 0,
    kappa_d = d.z_d mod 2, and |D| = 2^(n-e).  ``check`` then reads the
    verdicts in (child, check) order, so the first failure named is the one
    that checking one child at a time meets first."""
    n, e = children.rho.n, children.parents.e
    size = chunk_len(n, e)
    for start in range(0, len(children), size):
        chunk = children[start:start + size] if len(children) > size else children
        rho, parents = chunk.rho, chunk.parents

        def where(i: int) -> str:
            rows = [bitstring(r, n + e) for r in parents.ae[i].tolist()]
            return f"parent {rows} offsets {bits_of(int(parents.offsets[i]) & (1 << n) - 1)}"

        verdicts: List[Tuple[str, Sequence, Callable[[int], str]]] = [
            ("pauli-sum-vs-partial-trace", rho.agrees_with(child_from_partial_trace(parents)), where),
            ("child-stabilized", stabilized_by(rho, rows), where),
            ("child-trace-one", rho.trace_is_one(), lambda i: "trace != 1"),
            ("child-hermitian", rho.is_hermitian(), lambda i: "rho not Hermitian"),
        ]
        if e >= 1:
            purity, want = rho.purity(), Fraction(1, 1 << e)
            mixed = [value == want for value in purity]
            verdicts.append(("child-mixed", mixed, lambda i: f"purity {purity[i]} != {want}"))
        read = [(name, np.asarray(ok).tolist(), reproducer) for name, ok, reproducer in verdicts]
        for i in range(len(chunk)):
            for name, ok, reproducer in read:
                check(name, ok[i], "" if ok[i] else reproducer(i))


def _subgroups(red: GammaReduction, bound: int, check: Check = _require) -> SubgroupBatch:
    """The chi(e) maximal commutative subgroups, each of 2^(n-e) members:
    the count, then one size verdict per subgroup, read in subgroup order."""
    subs, e = enumerate_max_isotropic(red, bound=bound), red.e
    check("subgroup-count-chi", len(subs) == chi(e), f"{len(subs)} != chi({e})")
    dims = subs.dims()  # an RREF basis has independent rows
    for i, ok in enumerate((dims == red.n - e).tolist()):
        check("subgroup-size", ok, "" if ok else f"size {1 << int(dims[i])} != 2^(n-e)")
    return subs


Verdicts = List[Tuple[str, np.ndarray]]


def _parents(
    g: MixedGraph, subs: SubgroupBatch, rows: Sequence[PauliWord]
) -> Tuple[ParentBatch, Verdicts, int]:
    """The parents of a batch of subgroups, their checks, one verdict per
    subgroup (the extension condition, commutation and J = subgroup), and
    how many parents come before the first that fails a check: only those
    have children."""
    batch = extend_for_subgroup(g, subs, rows)
    verdicts = [
        ("extension-found", meets_extension_condition(subs.reduction.gamma, batch)),
        # graph-form rows X_i Z^{A_i} commute iff A is symmetric
        ("extension-commutes", batch.is_symmetric()),
        ("indicator-matches-subgroup", batch.has_kernel(subs.lifted)),
    ]
    passed = np.logical_and.reduce([ok for _, ok in verdicts])
    return batch, verdicts, len(subs) if passed.all() else int(passed.argmin())


def _check_parent(verdicts: Verdicts, i: int, idx: int, check: Check = _require) -> None:
    """Parent i of a batch's checks, in order, as those of subgroup ``idx``."""
    for name, ok in verdicts:
        check(name, bool(ok[i]), f"subgroup {idx}")


def _family(
    g: MixedGraph, duals: Sequence[PauliWord], check: Check = _require
) -> Tuple[ChildResult, List[List[int]]]:
    """The e = 1 children, one per ``extend_e1`` parent, as one chunk, and their classes."""
    parents = extend_e1(g)
    # _require: the report's check count predates this test
    for k, ok in enumerate(parents.is_symmetric()):
        _require("extension-commutes", bool(ok), f"e = 1 parent {k}")
    children, classes = children_family_e1(duals, parents)
    check("family-size", len(children) <= 6, f"{len(children)} children")
    check("family-classes", len(classes) <= 3, f"{len(classes)} classes")
    return children, classes


def _coeff_str(exp: int) -> str:
    return {0: "+1", 1: "+i", 2: "-1", 3: "-i"}[exp % 4]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list_of(x, kind: type) -> bool:
    return isinstance(x, list) and all(isinstance(item, kind) for item in x)


def _has_int_fields(x, *keys: str) -> bool:
    return isinstance(x, dict) and all(_is_int(x.get(k)) for k in keys)


# The shape each fixture expectation must have for ``_verify_graph`` to read it.
_EXPECT_TYPES = {
    **{key: _is_int for key in ("n", "e", "t", "gamma_rank", "chi", "subgroup_count")},
    "subgroups": lambda x: _is_list_of(x, list) and all(_is_list_of(s, str) for s in x),
    "signfree": lambda x: _has_int_fields(x, "ev_count", "ambiguous"),
    "children_e1": lambda x: _has_int_fields(x, "count", "classes")
    and _is_list_of(x.get("rho_json", []), dict),
    "stabilizer": lambda x: _is_list_of(x, str),
}


def _read_graph(path: str) -> tuple[MixedGraph, str, Optional[Dict]]:
    """Returns (graph, digest, fixture-expectations or None)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise GraphParseError(None, f"cannot read {path}: {err}") from err
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise GraphParseError(None, f"bad fixture JSON: {err}") from err
        if doc.get("schema") != FIXTURE_SCHEMA:
            raise GraphParseError(None, "fixture is missing the expected schema tag")
        if not isinstance(doc.get("graph"), str):
            raise GraphParseError(None, "fixture has no graph text under 'graph'")
        expect = doc.get("expect", {})
        if not isinstance(expect, dict):
            raise GraphParseError(None, "fixture 'expect' is not a JSON object")
        for key, well_typed in _EXPECT_TYPES.items():
            if key in expect and not well_typed(expect[key]):
                raise GraphParseError(None, f"fixture expect entry {key!r} is malformed")
        return parse_graph(doc["graph"]), digest, expect
    return parse_graph(text), digest, None


@dataclass(frozen=True)
class _Run:
    """Consecutive entries of a streamed list, built together: ``values()``
    gives their report values, which a text report reads, and ``texts()``
    the text that ``_json_chunks`` writes for each, one chunk apiece at the
    entries' fixed nesting level.  Neither is built before it is asked for,
    so a text report never builds JSON."""

    values: Callable[[], List[Dict]]
    texts: Callable[[], List[str]]


def _json_scalar(o) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or isinstance(o, (bool, float)):
        return json.dumps(o)
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _list_text(items: Iterable[str], level: int) -> str:
    """An indented JSON list at nesting ``level`` of already encoded items."""
    inner = "\n" + "  " * (level + 1)
    body = f",{inner}".join(items)  # an encoded item is never empty text
    return "[" + inner + body + "\n" + "  " * level + "]" if body else "[]"


def _json_chunks(o, level: int, out: List[str], prefix: str = "") -> None:
    """Append the text of ``json.dumps(o, indent=2, sort_keys=True)`` at nesting
    ``level`` to ``out``, led by ``prefix``.  A non-empty int array of two or
    more dimensions is the list that its ``tolist`` gives: each distinct list
    along its last axis is encoded once (``distinct_entries``), one lookup
    of those texts by code gives every entry's, and each row of last-axis
    lists is one chunk, one join, led by the text of the lists around it:
    no call per entry, and no chunk so large that the allocator returns its
    memory and faults fresh pages in for the next report; the chunks go to
    ``writelines`` unjoined for the same reason.
    A list of only str and int is one chunk.  An iterator is a list whose
    entries are written to stdout, with all text before them, as soon as
    each is encoded; an item that is a ``_Run`` is a run of entries, one
    chunk each, unjoined, written by one ``writelines``: ``subgroups``
    entries, each whole, with its listed elements in it.  ``out`` then
    keeps one empty chunk, the mark of a report already begun."""
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(o, dict):
        if not o:
            out.append(prefix + "{}")
            return
        sep = prefix + "{"
        for key, value in sorted(o.items()):
            key = encode_basestring_ascii(key if isinstance(key, str) else _json_scalar(key))
            _json_chunks(value, level + 1, out, f"{sep}{inner}{key}: ")
            sep = ","
        out.append(close + "}")
    elif isinstance(o, np.ndarray) and o.ndim >= 2 and o.size:
        entries, codes = distinct_entries(o.reshape(-1, o.shape[-1]).T)
        depth = level + o.ndim - 1  # the nesting level of a last-axis list
        texts = np.array(["\n" + "  " * depth + _list_text(map(_json_scalar, e), depth)
                          for e in entries], dtype=object)
        rows = texts[codes.reshape(-1, o.shape[-2])].tolist()
        skeleton = "0"  # the text of the lists around the rows, a 0 in each row's place
        for axis in reversed(range(o.ndim - 2)):
            skeleton = _list_text([skeleton] * o.shape[axis], level + axis)
        *leads, tail = skeleton.split("0")
        leads[0] = prefix + leads[0]
        close = "\n" + "  " * (depth - 1) + "]"
        out += [f"{lead}[{','.join(row)}{close}" for lead, row in zip(leads, rows)]
        out[-1] += tail
    elif isinstance(o, (list, tuple)) and set(map(type, o)) <= {str, int}:
        out.append(prefix + _list_text(map(_json_scalar, o), level))
    elif isinstance(o, (list, tuple, Iterator, np.ndarray)):
        streamed = isinstance(o, Iterator)
        sep = prefix + "["
        for value in o:
            if isinstance(value, _Run):
                first, *rest = value.texts()
                out += [sep + inner + first] + [f",{inner}{text}" for text in rest]
            else:
                _json_chunks(value, level + 1, out, sep + inner)
            sep = ","
            if streamed:
                sys.stdout.writelines(out)
                out[:] = [""]
        out.append(close + "]" if sep == "," else prefix + "[]")
    else:
        out.append(prefix + _json_scalar(o))


def _emit(report: Dict, text_lines: Iterable[str], as_json: bool) -> None:
    """Write the report or its text lines as they are built.  An exit 1 or 4
    failure after JSON was written ends its line, so a ``FAIL`` line starts its own."""
    if not as_json:
        sys.stdout.writelines(line + "\n" for line in text_lines)
        return
    out: List[str] = []
    try:
        _json_chunks(report, 0, out)
    except (InvariantViolation, ExtensionError):
        if out[:1] == [""]:
            sys.stdout.write("\n")
        raise
    out.append("\n")
    sys.stdout.writelines(out)


# ---------------------------------------------------------------- analyze


def _analysis(g: MixedGraph) -> Dict:
    a = g.adjacency()
    gamma = g.gamma()
    red = reduce_gamma(gamma)
    rows = stabilizer_matrix(g)
    return {
        "n": g.n,
        "red_nodes": sorted(g.red),
        "edges": [[j, k, kind] for j, k, kind in g.canonical_edges()],
        "adjacency": a.row_strings(),
        "gamma": gamma.row_strings(),
        "gamma_rank": len(red.kept),
        "e": red.e,
        "t": red.t,
        "kernel_basis": [bitstring(v, g.n) for v in red.kernel_basis],
        "stabilizer": [str(r) for r in rows],
        "dual_stabilizer": [str(r) for r in dual_stabilizer(g)],
        "f4_matrix": f4_row_strings(rows),
    }


def cmd_analyze(args) -> int:
    g, digest, _ = _read_graph(args.path)
    data = _analysis(g)
    report = {"command": "analyze", "input_sha256": digest, "result": data}
    lines = [
        f"nodes: {data['n']}",
        f"red nodes: {data['red_nodes']}",
        "edges: " + "; ".join(f"{j} {kind} {k}" for j, k, kind in data["edges"]),
        "A:      " + " / ".join(data["adjacency"]),
        "Gamma:  " + " / ".join(data["gamma"]),
        f"rank(Gamma) = {data['gamma_rank']}",
        f"e = {data['e']}, t = {data['t']}"
        + (" (pure graph state)" if data["e"] == 0 else ""),
        "kernel basis: " + (", ".join(data["kernel_basis"]) or "(empty)"),
        "stabilizer rows:      " + "  ".join(data["stabilizer"]),
        "dual stabilizer rows: " + "  ".join(data["dual_stabilizer"]),
        "F4 matrix: " + " / ".join(data["f4_matrix"]),
    ]
    _emit(report, lines, args.json)
    return EXIT_OK


# --------------------------------------------------------------- subgroups


LISTING_BATCH = 64  # subgroups per run of ``subgroups`` entries
_ENTRY_LEVEL = 3  # report > result > subgroups > entry
_ELEMENT_LEVEL = 5  # entry > elements > element


def _element_text(element: Dict) -> str:
    """The text that ``_json_chunks`` writes for a listed element."""
    out: List[str] = []
    _json_chunks(element, _ELEMENT_LEVEL, out)
    return "".join(out)


_ENTRY_FORMAT = (
    "{%(inner)s\"b_reduced\": %%s,%(inner)s\"elements\": %%s,%(inner)s\"index\": %%d,"
    "%(inner)s\"lifted_generators\": %%s,%(inner)s\"size\": %%d\n%(close)s}"
) % {"inner": "\n" + "  " * (_ENTRY_LEVEL + 1), "close": "  " * _ENTRY_LEVEL}


def _entry_text(
    b_reduced: List[str], elements: Optional[List[str]], index: int, lifted: List[str], size: int
) -> str:
    """The text that ``_json_chunks`` would write for a ``subgroups`` entry,
    in one pass over its fixed shape: five keys in sorted order, and
    ``elements`` the join of its members' texts."""
    level = _ENTRY_LEVEL + 1
    return _ENTRY_FORMAT % (
        _list_text(map(encode_basestring_ascii, b_reduced), level),
        "null" if elements is None else _list_text(elements, level),
        index,
        _list_text(map(encode_basestring_ascii, lifted), level),
        size,
    )


def _subgroup_listing(g: MixedGraph, bound: int) -> Dict:
    """The ``subgroups`` result.  Its entries come ``LISTING_BATCH``
    subgroups at a time, each batch a ``_Run`` built as ``_json_chunks``
    reaches it, and written before the next is built.  A subgroup of at
    most 64 members lists them, so n - e <= 6: the members of a run come
    from one ``span_batch`` of its lifted rows, ascending.  Each member is a
    pure function of its index set v, so ``listed`` builds it once per
    command, keyed by v, or ``encoded`` its text, and every subgroup holding
    v reuses it: at most 2^n <= 2^12 entries."""
    red = reduce_gamma(g.gamma())
    e, t = red.e, red.t
    subs = _subgroups(red, bound)
    size = 1 << (g.n - e)  # every subgroup's, checked
    duals = dual_stabilizer(g)
    listed = np.full(1 << g.n if size <= 64 else 0, None, dtype=object)
    encoded = listed.copy()
    # generator rows recur across subgroups: each row's text is made once
    reduced_bits = cache(partial(bitstring, n=red.n - red.t))
    lifted_bits = cache(partial(bitstring, n=g.n))

    def element(v: int) -> Dict:
        return {"index_set": bitstring(v, g.n), "word": str(ordered_product(duals, bits_of(v)))}

    def run(start: int) -> _Run:
        part = subs[start:start + LISTING_BATCH]
        members = span_batch(part.lifted) if size <= 64 else None
        rows = [(start + i, list(map(reduced_bits, basis)), list(map(lifted_bits, lifted)))
                for i, (basis, lifted) in enumerate(zip(part.basis.tolist(), part.lifted.tolist()))]

        def elements(table: np.ndarray, build: Callable) -> List[Optional[List]]:
            """Each entry's members read from ``table``, each built on first use."""
            if members is None:
                return [None] * len(rows)
            fresh = sorted(set(members[np.equal(table[members], None)].tolist()))
            table[fresh] = [build(v) for v in fresh]
            return table[members].tolist()

        def values() -> List[Dict]:
            return [{"index": idx, "b_reduced": b, "lifted_generators": lifted, "size": size,
                     "elements": els}
                    for (idx, b, lifted), els in zip(rows, elements(listed, element))]

        def texts() -> List[str]:
            return [_entry_text(b, els, idx, lifted, size) for (idx, b, lifted), els
                    in zip(rows, elements(encoded, lambda v: _element_text(element(v))))]

        return _Run(values, texts)

    return {
        "e": e,
        "t": t,
        "chi": chi(e),
        "count": len(subs),
        # runs of entries, built as the report is written
        "subgroups": map(run, range(0, len(subs), LISTING_BATCH)),
    }


def cmd_subgroups(args) -> int:
    g, digest, _ = _read_graph(args.path)
    data = _subgroup_listing(g, args.bound)
    report = {"command": "subgroups", "input_sha256": digest, "result": data}

    def entry_lines(s: Dict) -> List[str]:
        lines = [
            f"[{s['index']}] B = {', '.join(s['b_reduced']) or '(empty)'}"
            f" ; lifted = {', '.join(s['lifted_generators']) or '(empty)'}"
            f" ; size = {s['size']}"
        ]
        if s["elements"] is not None:
            lines.append("     elements: " + "  ".join(el["word"] for el in s["elements"]))
        return lines

    header = [
        f"e = {data['e']}, t = {data['t']}",
        f"maximal commutative subgroups: {data['count']} (chi = {data['chi']})",
    ]
    entries = chain.from_iterable(run.values() for run in data["subgroups"])
    lines = chain(header, chain.from_iterable(map(entry_lines, entries)))
    _emit(report, lines, args.json)
    return EXIT_OK


# ---------------------------------------------------------------- children


def _phase_text(parents: ParentBatch, i: int) -> str:
    """Parent i's p(x) = x A x^T + 2 o.x as text: 2*(edges) + 2*(offsets) + red nodes."""
    rows = parents.ae[i].tolist()
    edges = [f"x{j}*x{k}" for j, row in enumerate(rows) for k in bits_of(row) if k > j]
    terms = [f"2*({' + '.join(edges)})"] if edges else []
    terms += [f"2*x{j}" for j in bits_of(int(parents.offsets[i]))]
    terms += [f"x{j}" for j, row in enumerate(rows) if row >> j & 1]
    return " + ".join(terms) or "0"


def _payload(children: ChildResult, i: int) -> Dict:
    """The report of child i of a chunk whose checks it passed, read off row
    i of the chunk's arrays: offsets below n are lab rows, the others
    environment rows."""
    parents = children.parents
    n, rows = parents.n, parents.ae[i].tolist()
    signed, h = bits_of(int(parents.offsets[i])), parents.parity_rows()[i].tolist()
    mat = children.rho.dense(i)
    columns = zip(parents.xcols[i].tolist(), rows[n:])
    return {
        "parent_rows": [PauliWord(len(rows), 1 << j, row, 0).letters() for j, row in enumerate(rows)],
        "ext_columns": [list(PauliWord(n, x, z, 0).letters()) for x, z in columns] or None,
        "lab_offsets": [j for j in signed if j < n],
        "env_offsets": [j for j in signed if j >= n],
        "phase_function": _phase_text(parents, i),
        "l_sets": [bits_of(row) for row in h],
        "parity_h": [bitstring(row, n) for row in h],
        "generators_g": [bitstring(row, n) for row in children.gens[i].tolist()],
        "coefficients": {
            bitstring(j, n): _coeff_str(k) for j, k in children.terms(i).items()
        },
        "rho": {"n": children.rho.n, **mat.to_json_dict()},
        "rho_text": mat.to_text_grid(),
        "oracle_verified": True,
    }


def _checked(children: ChildResult, rows: Sequence[PauliWord], check: Check = _require) -> Iterator[int]:
    """Each child's index once its checks pass: one ``_check_children`` pass
    over the chunk, whose verdicts ``check`` reads child by child, so a
    failing child raises after the children before it are yielded."""
    verdicts: List[Tuple[str, bool, str]] = []
    _check_children(children, rows, lambda *verdict: verdicts.append(verdict))
    per = len(verdicts) // len(children)  # every child gets the same checks
    for i in range(len(children)):
        for verdict in verdicts[i * per:(i + 1) * per]:
            check(*verdict)
        yield i


def _children(
    g: MixedGraph, subs: SubgroupBatch, rows: Sequence[PauliWord], duals: Sequence[PauliWord],
    first: int = 0, check: Check = _require, fit: bool = True,
) -> Iterator[Tuple[ChildResult, int]]:
    """Each child of subgroups ``first``, ``first`` + 1, ... (``subs``) once
    its checks pass, as (chunk, i): parents ``PARENT_BATCH`` at a time,
    children ``chunk_len`` at a time, those of the parents before a batch's
    first failed one, which raises once they are yielded.  Without ``fit``
    only the parents are checked."""
    size = chunk_len(g.n, subs.reduction.e)
    for start in range(0, len(subs), PARENT_BATCH):
        batch, verdicts, passed = _parents(g, subs[start:start + PARENT_BATCH], rows)
        gens = indicator(batch[:passed]) if fit else None
        for lo in range(0, len(batch), size):
            hi = min(lo + size, len(batch))
            stop = min(hi, passed)
            for i in range(lo, stop):
                _check_parent(verdicts, i, first + start + i, check)
            if fit and stop > lo:
                chunk = child_from_pauli_sum(batch[lo:stop], duals, gens[lo:stop])
                yield from ((chunk, i) for i in _checked(chunk, rows, check))
            if stop < hi:  # parent ``stop`` fails a check
                _check_parent(verdicts, stop, first + start + stop, check)


def cmd_children(args) -> int:
    g, digest, _ = _read_graph(args.path)
    red = reduce_gamma(g.gamma())
    e, t = red.e, red.t
    check_dense(16 << 2 * g.n, f"a dense rendering of {g.n} qubits")  # each printed rho
    duals = dual_stabilizer(g)
    rows = stabilizer_matrix(g)
    result: Dict = {"e": e, "t": t}
    if args.subgroup is None and not args.all and e == 1:
        children, classes = _family(g, duals)
        reports: Iterable[Dict] = [_payload(children, i) for i in _checked(children, rows)]
        result["mode"] = "family"
        result["classes"] = classes
    else:
        subs, first = _subgroups(red, args.bound), 0
        if args.subgroup is not None:
            if not 0 <= args.subgroup < len(subs):
                raise GraphParseError(
                    None, f"subgroup index {args.subgroup} out of range (0..{len(subs) - 1})"
                )
            first = args.subgroup
            subs = subs[first:first + 1]
        result["mode"] = "subgroups"
        reports = ({**_payload(chunk, i), "subgroup_index": idx}
                   for idx, (chunk, i) in enumerate(_children(g, subs, rows, duals, first), first))
    result["children"] = reports  # an iterator builds each child as the report is written
    report = {"command": "children", "input_sha256": digest, "result": result}

    def child_lines(i: int, c: Dict) -> List[str]:
        lines = [f"--- child {i} ---"]
        if c.get("subgroup_index") is not None:
            lines.append(f"subgroup index: {c['subgroup_index']}")
        if c["ext_columns"]:
            lines.append(
                "extension columns: " + " | ".join("".join(col) for col in c["ext_columns"])
            )
        lines.append("parent rows: " + " / ".join(c["parent_rows"]))
        lines.append(f"phase function: {c['phase_function']}")
        lines.append(f"L sets: {c['l_sets']}  H: {c['parity_h']}  G: {c['generators_g']}")
        lines.append(
            "coefficients: "
            + "  ".join(f"{k}:{v}" for k, v in sorted(c["coefficients"].items()))
        )
        lines.append("rho = " + c["rho_text"].replace("\n", "\n      "))
        lines.append(f"oracle verified: {c['oracle_verified']}")
        return lines

    lines = chain(
        [f"e = {result['e']}, t = {result['t']}", f"mode: {result['mode']}"],
        chain.from_iterable(starmap(child_lines, enumerate(reports))),
        [f"equivalence classes under lab Z-conjugation: {result['classes']}"]
        if "classes" in result
        else [],
    )
    _emit(report, lines, args.json)
    return EXIT_OK


# ---------------------------------------------------------------- signfree


def _signfree_data(gamma: BinMatrix, duals: Sequence[PauliWord], check: Check = _require) -> Dict:
    v = canonical_family(maximal_independent_sets(gamma))
    direct = e_direct(v)
    agree = direct == e_recursive(v) == commuting_subsets_oracle(duals)
    check("signfree-three-way", agree, "set families disagree")
    return {
        "v": family_to_lists(v),
        "ev_count": len(direct),
        "ambiguous": (1 << gamma.cols) - len(direct),
        "family": family_to_lists(direct),
        "three_way_agreement": True,
    }


def cmd_signfree(args) -> int:
    g, digest, _ = _read_graph(args.path)
    data = _signfree_data(g.gamma(), dual_stabilizer(g))
    report = {"command": "signfree", "input_sha256": digest, "result": data}
    lines = [
        "maximal independent sets: " + "; ".join(str(m) for m in data["v"]),
        f"|E(V)| = {data['ev_count']}, ambiguous = {data['ambiguous']}",
        f"three-way agreement (direct / recursive / oracle): {data['three_way_agreement']}",
    ]
    _emit(report, lines, args.json)
    return EXIT_OK


# ------------------------------------------------------------------ verify


def _verify_graph(g: MixedGraph, expect: Optional[Dict], bound: int) -> List[str]:
    """Full invariant battery; raises InvariantViolation on the first failure
    in (subgroup, check) order.  Returns every check passed, repeats included."""
    checked: List[str] = []

    def check(name: str, ok: bool, reproducer: str) -> None:
        _require(name, ok, reproducer)
        checked.append(name)

    gamma = g.gamma()
    red = reduce_gamma(gamma)
    gamma_rank, e, t = len(red.kept), red.e, red.t
    check("gamma-rank-even", gamma_rank % 2 == 0, f"rank = {gamma_rank}")

    rows = stabilizer_matrix(g)
    duals = dual_stabilizer(g)
    check(
        "dual-commutes-with-stabilizer",
        all(a.commutes(b) for a in rows for b in duals),
        "a dual row fails to commute with a stabilizer row",
    )
    check(
        "rows-hermitian",
        all(r.is_hermitian() for r in rows + duals),
        "a stabilizer row is not Hermitian",
    )
    parts = complete_multipartite_parts(gamma)
    check(
        "tripartite-iff-e1",
        (parts is not None) == (e == 1),
        f"e = {e}, parts present = {parts is not None}",
    )

    subs = _subgroups(red, bound, check)
    signfree = _signfree_data(gamma, duals, check)

    # a work guard in bytes: parent checks need no child; past the cap on all
    # the member lists this run builds, the children go unchecked, not refused
    fit = _children_fit(g.n, e)
    for _ in _children(g, subs, rows, duals, check=check, fit=fit):
        pass
    family = _family(g, duals, check) if fit and e == 1 else None
    if family:
        _check_children(family[0], rows, check)

    if expect:
        found = {"n": g.n, "e": e, "t": t, "gamma_rank": gamma_rank}
        for key, value in found.items():
            if key in expect:
                check(f"expect-{key}", value == expect[key], f"{value} != {expect[key]}")
        if "chi" in expect:
            check("expect-chi", chi(e) == expect["chi"], f"chi({e}) != {expect['chi']}")
        if "subgroup_count" in expect:
            check(
                "expect-subgroup-count",
                len(subs) == expect["subgroup_count"],
                f"{len(subs)} != {expect['subgroup_count']}",
            )
        if "subgroups" in expect:
            got = [[bitstring(b, g.n) for b in s.lifted_basis] for s in subs]
            check("expect-subgroups", got == expect["subgroups"], "lifted generators differ")
        if "signfree" in expect:
            check(
                "expect-signfree",
                signfree["ev_count"] == expect["signfree"]["ev_count"]
                and signfree["ambiguous"] == expect["signfree"]["ambiguous"],
                f"|E(V)| = {signfree['ev_count']}",
            )
        if "children_e1" in expect:
            # a graph with e != 1 has no e = 1 family: it counts 0 children
            children, classes = family or (_family(g, duals, check) if e == 1 else ((), []))
            check(
                "expect-children-count",
                len(children) == expect["children_e1"]["count"],
                f"{len(children)} children",
            )
            check(
                "expect-children-classes",
                len(classes) == expect["children_e1"]["classes"],
                f"{len(classes)} classes",
            )
            if "rho_json" in expect["children_e1"]:
                stored = expect["children_e1"]["rho_json"]
                check(
                    "expect-children-rho",
                    len(stored) == len(children)
                    and all(_is_stored_rho(c.rho, rho) for c, rho in zip(children, stored)),
                    "a child density matrix differs from the stored fixture",
                )
        if "stabilizer" in expect:
            check(
                "expect-stabilizer",
                [str(r) for r in rows] == expect["stabilizer"],
                "stabilizer rows differ",
            )
    return checked


def _is_stored_rho(rho: DensityMatrix, stored: Dict) -> bool:
    """Whether ``stored``, a fixture's ``rho_json`` entry, is the JSON report
    of ``rho``, a chunk of one, without rendering it dense: the same n, dim
    and denominator, ``entries[a, b]`` = (re, im) at each (c ^ d, c) of the
    rows V that ``rho.num`` writes from the member list, read at the masks'
    state indices, and zero everywhere else.
    Malformed entries compare unequal."""
    if stored.keys() != {"n", "dim", "denom_log2", "entries"}:
        return False
    if [stored["n"], stored["dim"], stored["denom_log2"]] != [rho.n, rho.dim, rho.denom_log2]:
        return False
    try:
        entries = np.array(stored["entries"])
    except ValueError:  # ragged lists
        return False
    if entries.dtype.kind not in "biuf" or entries.shape != (rho.dim, rho.dim, 2):
        return False
    index = state_index(rho.n)
    at = entries[index[rho.offsets[0][:, None] ^ np.arange(rho.dim)], index]
    return np.array_equal(np.moveaxis(at, -1, 0), rho.num[0]) and np.count_nonzero(
        entries) == np.count_nonzero(at)


def _children_fit(n: int, e: int) -> bool:
    """Whether the total bytes of the member lists one ``verify`` run builds,
    3 words for each of the 2^(n-e) members of chi(e) children plus the e =
    1 family's 6, fit the cap.  It is a work guard counted in bytes, not a
    bound on memory: ``verify`` holds one chunk of ``chunk_len`` children at
    a time, or the family's six."""
    try:
        check_dense((chi(e) + 6 * (e == 1)) * (24 << n - e), "verify's children")
    except BoundExceeded:
        return False
    return True


def cmd_verify(args) -> int:
    g, digest, expect = _read_graph(args.path)
    checked = _verify_graph(g, expect, args.bound)
    report = {
        "command": "verify",
        "input_sha256": digest,
        "result": {"ok": True, "checked": sorted(set(checked))},
    }
    lines = [f"ok ({len(checked)} checks)"] + [
        f"  {name}" for name in sorted(set(checked))
    ]
    _emit(report, lines, args.json)
    return EXIT_OK


# -------------------------------------------------------------------- main


@cache  # one parser per process: each ``main`` call only parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgstate",
        description="Exact mixed graph state analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("path", help="graph file (or fixture JSON for verify)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def add_bound(p):  # only the commands that enumerate subgroups read it
        p.add_argument(
            "--bound",
            type=int,
            default=DEFAULT_ENUM_BOUND,
            help="reduced-dimension bound for subgroup enumeration",
        )

    p = sub.add_parser("analyze", help="matrices, rank, mixed rank, stabilizers")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("subgroups", help="maximal commutative subgroups of the dual")
    add_common(p)
    add_bound(p)
    p.set_defaults(func=cmd_subgroups)

    p = sub.add_parser("children", help="parent extensions and child density matrices")
    add_common(p)
    add_bound(p)
    chosen = p.add_mutually_exclusive_group()
    chosen.add_argument("--subgroup", type=int, default=None, help="subgroup index")
    chosen.add_argument("--all", action="store_true", help="one child per subgroup")
    p.set_defaults(func=cmd_children)

    p = sub.add_parser("signfree", help="order-independent row subsets of the dual")
    add_common(p)
    p.set_defaults(func=cmd_signfree)

    p = sub.add_parser("verify", help="run the invariant suite on a graph or fixture")
    add_common(p)
    add_bound(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except GraphParseError as err:
            sys.stderr.write(f"input error: {err}\n")
            return EXIT_INPUT
        except BoundExceeded as err:
            sys.stderr.write(f"bound exceeded: {err}\n")
            return EXIT_BOUND
        except MemoryError:
            sys.stderr.write("bound exceeded: out of memory\n")
            return EXIT_BOUND
        except ExtensionError as err:
            sys.stderr.write(f"search failure: {err}\n")
            return EXIT_SEARCH
        except InvariantViolation as err:
            sys.stdout.write(f"FAIL {err.name}: {err.reproducer}\n")
            return EXIT_INVARIANT
        except ValueError as err:
            sys.stderr.write(f"input error: {err}\n")
            return EXIT_INPUT
        finally:
            sys.stdout.flush()  # an unwritable stdout fails here at the latest
    except OSError as err:  # _read_graph makes an unreadable input exit 2: this is stdout
        sys.stderr.write(f"output error: {err}\n")
        # what stdout still buffers goes to os.devnull at exit, not to a traceback
        with contextlib.suppress(OSError, ValueError):  # no descriptor: nothing to flush
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
