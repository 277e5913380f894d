"""Span tracing of ``mgstate`` from outside the package.

``install`` rebinds each traced public function in every ``mgstate`` module
that imported it (methods are patched on their class), so the program's own
source is untouched.  Spans live in flat arrays while a pass runs: name id,
parent index, start, end and one optional counter.  Self time is a span's
duration minus that of its direct children.

Per-bit helpers (``parity``, ``popcount``, ``bits_of``, ``PauliWord.mul`` and
``commutes``) are deliberately not traced: at 86k+ calls per operation the
wrapper would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (metric prefix, module, attribute path, counter on the result or None).
# Several functions may share one prefix; their self times add up.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("f2.rref", "f2", "rref", None),
    ("f2.kernel", "f2", "kernel", None),
    ("f2.solve", "f2", "solve", None),
    ("f2.span", "f2", "span", len),
    ("graphs.parse_graph", "graphs", "parse_graph", None),
    ("graphs.stabilizer_matrix", "graphs", "stabilizer_matrix", None),
    ("graphs.mixed_rank", "graphs", "mixed_rank", None),
    ("graphs.maximal_independent_sets", "graphs", "maximal_independent_sets", None),
    ("subgroups.reduce_gamma", "subgroups", "reduce_gamma", None),
    ("subgroups.enumerate", "subgroups", "enumerate_max_isotropic", len),
    ("pauli.ordered_product", "pauli", "ordered_product", None),
    # A dense render holds two int64 arrays of dim^2 = 4^n entries: 16 * 4^n bytes.
    ("pauli.to_dense", "pauli", "PauliWord.to_dense", lambda m: 16 * m.dim * m.dim),
    ("pauli.render", "pauli", "GaussianMatrix.to_json_dict", None),
    ("pauli.render", "pauli", "GaussianMatrix.to_text_grid", None),
    ("extension.extend_for_subgroup", "extension", "extend_for_subgroup", None),
    ("extension.extend_e1", "extension", "extend_e1", None),
    ("extension.symmetrize", "extension", "symmetrize", None),
    ("extension.indicator", "extension", "indicator", None),
    ("extension.verify_full_commutation", "extension", "verify_full_commutation", None),
    ("states.child_from_pauli_sum", "states", "child_from_pauli_sum", None),
    ("states.child_from_partial_trace", "states", "child_from_partial_trace", None),
    ("states.stabilized_by", "states", "stabilized_by", None),
    ("states.children_family_e1", "states", "children_family_e1", None),
    ("states.density_checks", "states", "DensityMatrix.is_pure", None),
    ("states.density_checks", "states", "DensityMatrix.trace_is_one", None),
    ("states.density_checks", "states", "DensityMatrix.is_hermitian", None),
    ("signfree.e_direct", "signfree", "e_direct", None),
    ("signfree.e_recursive", "signfree", "e_recursive", None),
    ("signfree.oracle", "signfree", "commuting_subsets_oracle", None),
    ("cli.emit", "cli", "_emit", None),
)
OP = "op"  # root span of one CLI call; its self time is the untraced share


class Tracer:
    """Collects spans in memory for one process."""

    def __init__(self) -> None:
        self.names: List[str] = [OP]
        self._ids: Dict[str, int] = {OP: 0}
        self.name_id = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counter = array("d")
        self._stack: List[int] = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.counter.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.counter[i] = count(result)
                return result
            finally:
                self.close(i)

        return traced

    def install(self) -> None:
        """Rebind every target in each loaded ``mgstate`` module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "mgstate" or key.startswith("mgstate.")]
        for name, module, attr, count in TARGETS:
            owner = sys.modules[f"mgstate.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), count))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "counter": np.frombuffer(self.counter, dtype=np.float64).copy(),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and the counter total."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        self_by = np.bincount(a["name_id"], weights=self_s, minlength=k)
        count_by = np.bincount(a["name_id"], weights=a["counter"], minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_by[i]),
                       "counter": float(count_by[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
