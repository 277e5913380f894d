"""Command line front end.

Subcommands read a graph file and emit deterministic reports, as text or as
JSON (``--json``).  Exit codes: 0 success, 1 invariant violation, 2 input
error, 3 qubit or enumeration bound exceeded, or memory exhausted (``bound
exceeded: out of memory``), 4 an ``ExtensionError`` from the parent
construction, as ``search failure: <message>`` on stderr, 5 stdout could not
be written (a closed pipe or a full device), as one ``output error:
<message>`` line on stderr.  The column step cannot fail (see
``mgstate.extension``), so exit 4 means a precondition of the construction
broke; a parent whose J is not its subgroup fails an exit 1 check.

Each builder runs the checks that vouch for its output, and ``verify`` calls
every builder, so ``children`` runs ``verify``'s checks on each child it
prints: its ``oracle_verified: true`` means that they passed.

``subgroups`` and ``children`` stream their entries, so on a non-zero exit
stdout is not a complete report: the entries written so far, their last line
ended, then exit 1's ``FAIL <name>: <reproducer>`` line.  Bound and input
errors come before the first byte.
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
from functools import cache, cached_property, partial
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .extension import (
    ExtensionError,
    Indicator,
    ParentExtension,
    extend_e1,
    extend_for_subgroup,
    indicator,
    meets_extension_condition,
)
from .f2 import BinMatrix, bits_of, bitstring
from .graphs import (
    GraphParseError,
    MixedGraph,
    complete_multipartite_parts,
    dual_stabilizer,
    f4_matrix,
    f4_row_strings,
    maximal_independent_sets,
    parse_graph,
    stabilizer_matrix,
)
from .pauli import BoundExceeded, PauliWord, dense_bound, distinct_entries, ordered_product
from .signfree import (
    canonical_family,
    commuting_subsets_oracle,
    e_direct,
    e_recursive,
    family_to_lists,
)
from .states import (
    ChildResult,
    child_from_partial_trace,
    child_from_pauli_sum,
    children_family_e1,
    stabilized_by,
)
from .subgroups import (
    DEFAULT_ENUM_BOUND,
    GammaReduction,
    IsotropicSubspace,
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


def _check_child(child: ChildResult, rows: Sequence[PauliWord], check: Check = _require) -> None:
    """The child's cross-checks: the Pauli sum equals the partial trace of
    the parent, the mixed graph's stabilizer rows fix it, and it is a
    density matrix of purity 2^-e."""
    p = child.parent
    reproducer = f"parent {p.ae.row_strings()} offsets {sorted(p.lab_offsets)}"
    check("pauli-sum-vs-partial-trace", child.rho == child_from_partial_trace(p), reproducer)
    check("child-stabilized", stabilized_by(child.rho, rows), reproducer)
    check("child-trace-one", child.rho.trace_is_one(), "trace != 1")
    check("child-hermitian", child.rho.is_hermitian(), "rho not Hermitian")
    if p.e >= 1:
        purity, want = child.rho.purity(), Fraction(1, 1 << p.e)
        check("child-mixed", purity == want, f"purity {purity} != {want}")


def _subgroups(red: GammaReduction, bound: int, check: Check = _require) -> List[IsotropicSubspace]:
    """The chi(e) maximal commutative subgroups, each of 2^(n-e) members."""
    subs, e = enumerate_max_isotropic(red, bound=bound), red.e
    check("subgroup-count-chi", len(subs) == chi(e), f"{len(subs)} != chi({e})")
    for s in subs:
        size = 1 << len(s.lifted_basis)  # an RREF basis has independent rows
        check("subgroup-size", size == 1 << (red.n - e), f"size {size} != 2^(n-e)")
    return subs


def _parent(
    g: MixedGraph, idx: int, sub: IsotropicSubspace, rows: Sequence[PauliWord],
    check: Check = _require,
) -> Tuple[ParentExtension, Indicator]:
    """The parent of subgroup ``idx`` and its indicator (L sets, G, H), with
    the extension condition, commutation and J = subgroup checked."""
    p = extend_for_subgroup(g, sub, rows)
    where = f"subgroup {idx}"
    check("extension-found", meets_extension_condition(sub.reduction.gamma, p.ext_assign), where)
    # graph-form rows X_i Z^{A_i} commute iff A is symmetric
    check("extension-commutes", p.ae.is_symmetric(), where)
    ind = indicator(p)
    check("indicator-matches-subgroup", ind[1].rows == sub.lifted_basis, where)  # both RREF
    return p, ind


def _family(
    g: MixedGraph, duals: Sequence[PauliWord], check: Check = _require
) -> Tuple[List[ChildResult], List[List[int]]]:
    """The e = 1 children, one per ``extend_e1`` parent, and their classes."""
    children, classes = children_family_e1(duals, extend_e1(g))
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
class _Encoded:
    """A report value and the text that ``_json_chunks`` writes for it, as
    one chunk at the value's fixed nesting level.  ``encode(value)`` builds
    that text on first use, so a text report, which reads ``value`` only,
    never builds it; later reads of ``text`` are a plain attribute lookup."""

    value: object
    encode: Callable[[object], str]

    @cached_property
    def text(self) -> str:
        return self.encode(self.value)


def _json_scalar(o) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or isinstance(o, (bool, float)):
        return json.dumps(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, _Encoded):  # tested last: no other value pays for it
        return o.text
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
    along its last axis is encoded once (``distinct_entries``), and each 2-D
    slice is one chunk, one join of those texts looked up by code: no call
    per entry, and no chunk so large that the allocator returns its memory
    and faults fresh pages in for the next report; the chunks go to
    ``writelines`` unjoined for the same reason.
    An ``_Encoded`` value is its text, one chunk: a ``subgroups`` entry,
    whole, with its listed elements in it.
    An iterator is a list whose entries are written to stdout, with all
    text before them, as soon as each is encoded; ``out`` then keeps one
    empty chunk, the mark of a report already begun."""
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

        def nest(sub: np.ndarray, lev: int, lead: str) -> None:  # one chunk per 2-D slice
            close = "\n" + "  " * lev + "]"
            if lev + 1 == depth:
                out.append(lead + "[" + ",".join(texts[sub].tolist()) + close)
                return
            for i, part in enumerate(sub):
                nest(part, lev + 1, (lead + "[" if i == 0 else ",") + "\n" + "  " * (lev + 1))
            out.append(close)

        nest(codes.reshape(o.shape[:-1]), level, prefix)
    elif isinstance(o, (list, tuple, Iterator, np.ndarray)):
        streamed = isinstance(o, Iterator)
        sep = prefix + "["
        for value in o:
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
        "stabilizer": [str(r) for r in stabilizer_matrix(g)],
        "dual_stabilizer": [str(r) for r in dual_stabilizer(g)],
        "f4_matrix": f4_row_strings(f4_matrix(g)),
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


_ENTRY_LEVEL = 3  # report > result > subgroups > entry
_ELEMENT_LEVEL = 5  # entry > elements > element


def _element_text(element: Dict) -> str:
    """The text that ``_json_chunks`` writes for a listed element."""
    out: List[str] = []
    _json_chunks(element, _ELEMENT_LEVEL, out)
    return "".join(out)


def _entry_text(s: Dict) -> str:
    """The text that ``_json_chunks`` would write for a ``subgroups`` entry,
    in one pass over its fixed shape: five keys in sorted order, and
    ``elements`` the join of its members' cached texts."""
    level = _ENTRY_LEVEL + 1
    inner = "\n" + "  " * level
    elements = s["elements"]
    return "".join((
        "{", inner, '"b_reduced": ',
        _list_text(map(encode_basestring_ascii, s["b_reduced"]), level),
        ",", inner, '"elements": ',
        "null" if elements is None else _list_text([el.text for el in elements], level),
        ",", inner, '"index": ', int.__repr__(s["index"]),
        ",", inner, '"lifted_generators": ',
        _list_text(map(encode_basestring_ascii, s["lifted_generators"]), level),
        ",", inner, '"size": ', int.__repr__(s["size"]),
        "\n", "  " * _ENTRY_LEVEL, "}",
    ))


def _subgroup_listing(g: MixedGraph, bound: int) -> Dict:
    """The ``subgroups`` result.  Each entry is a pure function of its
    subgroup: an ``_Encoded`` of its fields, whose text ``_entry_text``
    builds as ``_json_chunks`` reaches it, so entry k is written before
    entry k + 1 is built.  A subgroup of at most 64 members lists them, so
    n - e <= 6; each member is a pure function of its index set v, so
    ``listed`` builds it once per command, keyed by v, and every subgroup
    holding v reuses it and its text: at most 2^n <= 2^12 entries."""
    red = reduce_gamma(g.gamma())
    e, t = red.e, red.t
    subs = _subgroups(red, bound)
    duals = dual_stabilizer(g)
    listed: Dict[int, _Encoded] = {}
    # generator rows recur across subgroups: each row's text is made once
    reduced_bits = cache(partial(bitstring, n=red.n - red.t))
    lifted_bits = cache(partial(bitstring, n=g.n))

    def element(v: int) -> _Encoded:
        word = str(ordered_product(duals, bits_of(v)))
        return _Encoded({"index_set": bitstring(v, g.n), "word": word}, _element_text)

    def entry(idx: int, s: IsotropicSubspace) -> _Encoded:
        size = 1 << len(s.lifted_basis)  # an RREF basis has independent rows
        elements = None
        if size <= 64:
            members = s.span_lifted()
            for v in members:
                if v not in listed:
                    listed[v] = element(v)
            elements = list(map(listed.__getitem__, members))
        fields = {
            "index": idx,
            "b_reduced": list(map(reduced_bits, s.basis)),
            "lifted_generators": list(map(lifted_bits, s.lifted_basis)),
            "size": size,
            "elements": elements,
        }
        return _Encoded(fields, _entry_text)

    return {
        "e": e,
        "t": t,
        "chi": chi(e),
        "count": len(subs),
        "subgroups": starmap(entry, enumerate(subs)),  # built as the report is written
    }


def cmd_subgroups(args) -> int:
    g, digest, _ = _read_graph(args.path)
    data = _subgroup_listing(g, args.bound)
    report = {"command": "subgroups", "input_sha256": digest, "result": data}

    def entry_lines(entry: _Encoded) -> List[str]:
        s = entry.value
        lines = [
            f"[{s['index']}] B = {', '.join(s['b_reduced']) or '(empty)'}"
            f" ; lifted = {', '.join(s['lifted_generators']) or '(empty)'}"
            f" ; size = {s['size']}"
        ]
        if s["elements"] is not None:
            lines.append("     elements: " + "  ".join(el.value["word"] for el in s["elements"]))
        return lines

    header = [
        f"e = {data['e']}, t = {data['t']}",
        f"maximal commutative subgroups: {data['count']} (chi = {data['chi']})",
    ]
    lines = chain(header, chain.from_iterable(map(entry_lines, data["subgroups"])))
    _emit(report, lines, args.json)
    return EXIT_OK


# ---------------------------------------------------------------- children


def _phase_text(p: ParentExtension) -> str:
    """p(x) = x A x^T + 2 o.x as text: 2*(edges) + 2*(offsets) + red nodes."""
    edges = [f"x{j}*x{k}" for j in range(p.total) for k in bits_of(p.ae.rows[j]) if k > j]
    terms = [f"2*({' + '.join(edges)})"] if edges else []
    terms += [f"2*x{j}" for j in sorted(p.lab_offsets | p.env_offsets)]
    terms += [f"x{j}" for j in range(p.total) if p.ae.get(j, j)]
    return " + ".join(terms) or "0"


def _parent_payload(rows: Sequence[PauliWord], child: ChildResult) -> Dict:
    _check_child(child, rows)
    p = child.parent
    l_sets, gmat, h = child.indicator
    return {
        "parent_rows": [r.letters() for r in p.rows()],
        "ext_columns": [list(c) for c in p.ext_assign] if p.ext_assign else None,
        "lab_offsets": sorted(p.lab_offsets),
        "env_offsets": sorted(p.env_offsets),
        "phase_function": _phase_text(p),
        "l_sets": [list(L) for L in l_sets],
        "parity_h": h.row_strings(),
        "generators_g": gmat.row_strings(),
        "coefficients": {
            bitstring(j, p.n): _coeff_str(k) for j, k in sorted(child.terms.items())
        },
        "rho": child.rho.to_json_dict(),
        "rho_text": child.rho.mat.to_text_grid(),
        "oracle_verified": True,
    }


def cmd_children(args) -> int:
    g, digest, _ = _read_graph(args.path)
    red = reduce_gamma(g.gamma())
    e, t = red.e, red.t
    if g.n + e > dense_bound():
        raise BoundExceeded(f"n + e = {g.n + e} exceeds the dense bound {dense_bound()}")
    duals = dual_stabilizer(g)
    rows = stabilizer_matrix(g)
    result: Dict = {"e": e, "t": t}
    if args.subgroup is None and not args.all and e == 1:
        children, classes = _family(g, duals)
        reports: Iterable[Dict] = [_parent_payload(rows, c) for c in children]
        result["mode"] = "family"
        result["classes"] = classes
    else:
        subs = _subgroups(red, args.bound)
        chosen: Iterable = enumerate(subs)
        if args.subgroup is not None:
            if not 0 <= args.subgroup < len(subs):
                raise GraphParseError(
                    None, f"subgroup index {args.subgroup} out of range (0..{len(subs) - 1})"
                )
            chosen = [(args.subgroup, subs[args.subgroup])]
        result["mode"] = "subgroups"

        def payload(idx: int, sub: IsotropicSubspace) -> Dict:
            p, ind = _parent(g, idx, sub, rows)
            child = child_from_pauli_sum(p, duals, ind)
            return {**_parent_payload(rows, child), "subgroup_index": idx}

        reports = starmap(payload, chosen)
    result["children"] = reports  # a starmap builds each child as the report is written
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
    """Full invariant battery; raises InvariantViolation on the first failure."""
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

    # parent checks need no dense matrix; one dense child alive at a time
    dense = g.n + e <= dense_bound()
    for idx, sub in enumerate(subs):
        p, ind = _parent(g, idx, sub, rows, check)
        if dense:
            _check_child(child_from_pauli_sum(p, duals, ind), rows, check)
    family = _family(g, duals, check) if dense and e == 1 else None
    for child in family[0] if family else ():
        _check_child(child, rows, check)

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
            children, classes = family or (_family(g, duals, check) if e == 1 else ([], []))
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
                got_rhos = [c.rho.to_json_dict() for c in children]
                for rho in got_rhos:  # the lists that the report's JSON holds
                    rho["entries"] = rho["entries"].tolist()
                check(
                    "expect-children-rho",
                    got_rhos == expect["children_e1"]["rho_json"],
                    "a child density matrix differs from the stored fixture",
                )
        if "stabilizer" in expect:
            check(
                "expect-stabilizer",
                [str(r) for r in rows] == expect["stabilizer"],
                "stabilizer rows differ",
            )
    return checked


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
