"""One benchmark pass in a fresh interpreter.

Usage: worker.py PLAN T0 [--trace SPANS_FILE] [--setup-only]

``T0`` is the parent's ``time.monotonic()`` just before it started this
process.  With ``--setup-only`` the worker prints only ``setup_s``: interpreter
start, importing ``mgstate.cli`` and loading the plan.  Each operation is one ``mgstate.cli.main`` call with
its standard output written to a file, as a user redirecting a report
would.  The pass prints one JSON line: per-operation latency and check result, peak RSS and, when traced, the span summary.
"""

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from inputs import f2_rank


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check(op: dict, code, out: Path, sha256: str, expected: dict) -> str:
    """Empty string when the operation's output is correct, else the reason."""
    spec = op["check"]
    if "recorded" in spec:
        want = expected.get(spec["recorded"])
        if want is None:
            return "no recorded output"
        if code != want["exit"]:
            return f"exit {code}, recorded {want['exit']}"
        if sha256 != want["sha256"]:
            return "report differs from the recorded one"
        return ""
    if code != spec["exit"]:
        return f"exit {code}, expected {spec['exit']}"
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return f"report is not JSON: {err}"
    result = report.get("result", {})
    if "verify_checks" in spec and (result.get("ok") is not True
                                    or result.get("checked") != spec["verify_checks"]):
        return "verify did not report ok with the expected checks"
    if "analyze" in spec:
        return check_analysis(result, **spec["analyze"])
    return ""


def bits(s: str) -> int:
    """A report's bit string (character j is bit j) as a bit mask."""
    return sum(1 << j for j, c in enumerate(s) if c == "1")


def check_analysis(result: dict, n: int, e: int, gamma: list) -> str:
    """Compare an ``analyze`` result with the generator's n, e and Gamma rows."""
    if [result.get(k) for k in ("n", "e", "t", "gamma_rank")] != [n, e, n - 2 * e, 2 * e]:
        return "analyze result has the wrong n, e, t or gamma_rank"
    if [bits(r) for r in result.get("gamma", [])] != gamma:
        return "analyze result has the wrong Gamma"
    kernel = [bits(v) for v in result.get("kernel_basis", [])]
    if len(kernel) != n - 2 * e:
        return "kernel basis has the wrong size"
    if any(bin(row & v).count("1") % 2 for row in gamma for v in kernel):
        return "a kernel vector is not annihilated by Gamma"
    if f2_rank(kernel) != len(kernel):
        return "kernel basis is linearly dependent"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("t0", type=float)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from mgstate.cli import main as cli_main

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    out = Path(plan["out"])
    ops = []
    for op in plan["ops"]:
        with out.open("w", encoding="utf-8") as f, contextlib.redirect_stdout(f), \
                contextlib.redirect_stderr(f):
            span = tracer.open(0) if tracer else None
            t = time.perf_counter()
            try:
                code = cli_main(op["argv"])
            except SystemExit as err:
                code = err.code
            except Exception as err:  # a crash is a failed operation, not a crashed pass
                code = f"{type(err).__name__}: {err}"
            seconds = time.perf_counter() - t
            if tracer:
                tracer.close(span)
        sha256 = digest(out)
        ops.append({"name": op["name"], "seconds": seconds, "bytes": out.stat().st_size,
                    "largest": op.get("largest", False), "code": code, "sha256": sha256,
                    "error": check(op, code, out, sha256, plan["expected"])})
    result = {"ops": ops,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result["trace"] = tracer.summary()
        tracer.save(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
