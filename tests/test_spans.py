"""Every function the benchmark's span tracer wraps still exists.

``perfbench/spans.py`` patches ``mgstate`` functions by name, so a rename
there would otherwise surface only in a traced bench pass.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for _, module, attr, _ in spans.TARGETS:
        owner = importlib.import_module(f"mgstate.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"mgstate.{module}.{attr}"
