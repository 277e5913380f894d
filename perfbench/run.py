"""Benchmark runner for the ``mgstate`` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's seeded inputs under ``perfbench/.work``, then runs
passes, one fresh single-threaded interpreter each (see ``worker.py``),
until the next pass would end after ``S`` seconds.  Every pass runs every
operation of the workload once and checks every output.  The last line of
standard output is the result object; the line before it holds metadata.
See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import build_ops  # noqa: E402
from spans import TARGETS  # noqa: E402

WORKLOADS = ("verify_mixed", "enum_ladder", "children_report", "sparse_analyze")
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"
SETUP_PROBES = 16
FIRST_PROBES = 4
RUN_LIMIT_S = 150
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Runner:
    """Starts worker processes one at a time and collects their results.

    Every worker is killed once the run has used ``RUN_LIMIT_S`` seconds, so
    that a run still ends, with a result, inside three minutes.
    """

    def __init__(self, plan_path: Path, ops: List[Dict]):
        self.plan_path = plan_path
        self.ops = ops
        self.limit = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, **PINNED_ENV)
        self.env.pop("MGSTATE_MAX_QUBITS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def _run(self, t0: float, *extra: str) -> Dict:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(self.plan_path), repr(t0), *extra],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.limit - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker timed out") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise RuntimeError(f"worker printed no result: {proc.stderr[-2000:]}") from None

    def setup(self) -> float:
        """One set-up-only process; its whole life if it fails."""
        t0 = time.monotonic()
        try:
            return self._run(t0, "--setup-only")["setup_s"]
        except RuntimeError:
            return time.monotonic() - t0

    def run_pass(self, *extra: str) -> Dict:
        """One pass.  A worker that crashes or times out fails every operation
        of its pass, which is charged an even share of the pass's time."""
        t0 = time.monotonic()
        try:
            return self._run(t0, *extra)
        except RuntimeError as err:
            share = (time.monotonic() - t0) / len(self.ops)
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            return {"ops": [{"name": op["name"], "seconds": share, "bytes": 0,
                             "largest": op.get("largest", False), "code": None, "sha256": "",
                             "error": f"pass failed: {err}"} for op in self.ops],
                    "rss_mb": rss, "trace": {}}


def wall(p: Dict) -> float:
    return sum(op["seconds"] for op in p["ops"])


def end_to_end(passes: List[Dict], setups: List[float]) -> Dict[str, tuple]:
    ops = [op for p in passes for op in p["ops"]]
    ok = sum(1 for op in ops if not op["error"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(wall(p) for p in passes), "s"),
        "largest_s": (statistics.median(op["seconds"] for op in ops if op["largest"]), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "ok_ratio": (ok / len(ops), "ratio"),
    }


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, tuple]:
    prefixes = list(dict.fromkeys(name for name, *_ in TARGETS))

    def med(fn) -> float:
        return statistics.median(fn(p) for p in traced)

    def layer(p: Dict, name: str) -> Dict:
        return p["trace"].get(name, {"calls": 0, "self_s": 0.0, "counter": 0.0})

    out: Dict[str, tuple] = {}
    for name in prefixes:
        out[f"{name}.s"] = (med(lambda p: layer(p, name)["self_s"]), "s")
    for name in ("f2.rref", "pauli.ordered_product", "pauli.to_dense",
                 "extension.extend_for_subgroup"):
        out[f"{name}.calls"] = (med(lambda p: layer(p, name)["calls"]), "count")
    out["f2.span.vectors"] = (med(lambda p: layer(p, "f2.span")["counter"]), "count")
    out["pauli.dense_bytes"] = (med(lambda p: layer(p, "pauli.to_dense")["counter"]), "bytes")
    enum = [layer(p, "subgroups.enumerate") for p in traced]
    out["subgroups.enumerate.count"] = (statistics.median(x["counter"] for x in enum), "count")
    out["subgroups.enumerate.us_per_subgroup"] = (statistics.median(
        1e6 * x["self_s"] / x["counter"] if x["counter"] else 0.0 for x in enum), "us")
    out["cli.report_bytes"] = (med(lambda p: sum(op["bytes"] for op in p["ops"])), "bytes")
    out["cli.untraced.s"] = (med(lambda p: layer(p, "op")["self_s"]), "s")
    out["trace.overhead_ratio"] = (
        statistics.median(map(wall, traced)) / statistics.median(map(wall, untraced)), "ratio")
    return out


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(runner: Runner, seconds: float, traced: bool, work: Path):
    """Run passes until the next one would end after ``seconds``.

    ``SETUP_PROBES`` set-up-only processes are spread over the run in
    proportion to the time gone, a few before each pass, because the host's
    speed drifts over seconds.
    """
    runner.setup()  # untimed: compiles bytecode in a fresh checkout
    setups: List[float] = []
    plain: List[Dict] = []
    spans: List[Dict] = []
    start = time.monotonic()
    deadline = start + seconds
    while True:
        share = math.ceil(SETUP_PROBES * (time.monotonic() - start) / seconds)
        while len(setups) < min(SETUP_PROBES, max(FIRST_PROBES, share)):
            setups.append(runner.setup())
        started = time.monotonic()
        plain.append(runner.run_pass())
        if traced:
            spans.append(runner.run_pass("--trace", str(work / "spans.npz")))
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(runner.setup())
    return setups, plain, spans


def load_expected() -> Dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}


def record(ops: List[Dict], passes: List[Dict]) -> None:
    """Store exit code and report digest of every seed-independent operation."""
    expected = load_expected()
    for op, res in zip(ops, passes[0]["ops"]):
        if "recorded" in op["check"] and res["code"] is not None:
            expected[op["check"]["recorded"]] = {"exit": res["code"], "sha256": res["sha256"]}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the outputs of seed-independent operations as expected")
    args = parser.parse_args()

    if not (ROOT / "src" / "mgstate" / "cli.py").is_file():
        sys.stderr.write(f"no mgstate sources under {ROOT / 'src'}\n")
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops = build_ops(args.workload, args.seed, ROOT, work / "inputs")
        plan = work / "plan.json"
        plan.write_text(json.dumps({"ops": ops, "expected": load_expected(),
                                    "out": str(work / "report.out")}), encoding="utf-8")
        setups, plain, traced = measure(Runner(plan, ops), args.seconds, bool(args.trace), work)
        if args.trace and (work / "spans.npz").exists():
            WORK.mkdir(exist_ok=True)
            shutil.copyfile(work / "spans.npz", WORK / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record:
        record(ops, plain)

    all_ops = [op for p in plain + traced for op in p["ops"]]
    failed = sum(1 for op in all_ops if op["error"])
    metrics = per_layer(traced, plain) if args.trace else end_to_end(plain, setups)
    print(json.dumps({"meta": {
        "workload": args.workload, "seed": args.seed, "passes": len(plain),
        "traced_passes": len(traced), "op_samples": sum(len(p["ops"]) for p in plain),
        "op_p50_ms": 1000 * statistics.median(o["seconds"] for p in plain for o in p["ops"]),
        "setup_samples": len(setups), "git_sha": git_sha(),
        "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
        "src_lines": source_lines(),
        "pass_wall_s": [wall(p) for p in plain],
        "op_median_s": {op["name"]: statistics.median(
            o["seconds"] for p in plain for o in p["ops"] if o["name"] == op["name"])
            for op in plain[0]["ops"]},
        "errors": sorted({f"{op['name']}: {op['error']}" for op in all_ops if op["error"]}),
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
