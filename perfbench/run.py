#!/usr/bin/env python3
"""Benchmark of mftn: four closed-loop workloads of real CLI calls.

Run from the repository root:

    python3 perfbench/run.py --workload chain-dense --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): chain-dense, chain-enum, peps-patch, clifford.
Each item calls ``mftn.cli.dispatch`` in this process with argv generated
from ``--seed``, so argument parsing, basis construction, the checks and the
JSON report are all paid for; every report is then checked against
references the benchmark holds itself.  The package is imported from the
``src`` directory next to this one; nothing is installed.

Load shape: one process, closed loop, one client.  Items run back to back in
whole cycles until ``--seconds`` have passed.  BLAS runs on one thread: on a
2-vCPU Xeon VM, two OpenBLAS threads turn a 64 x 64 complex product from
0.1 ms into 15 ms of thread hand-off.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload's first cycle alternately untraced and traced (spans.py) until
``--seconds`` have passed, prints the per-layer metrics, and checks that the
traced reports equal the untraced ones and that the counts repeat exactly.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run record (machine, versions, seed,
load shape, tail percentile, failure fraction).  Exit status: 0 when every
item passed, 1 when some item failed, 2 when the benchmark could not run.

Self-tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOAD_SHAPE = "single process, closed loop, one client"
SETUP_SAMPLES = 5  # this process plus four fresh ones
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 30

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run; nothing was measured."""


@dataclass
class Outcome:
    kind: str
    seconds: float
    report: dict | None
    problems: list


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up once and print it (used for setup_s samples)")
    return parser.parse_args(argv)


def setup(workload: str, seed: int) -> tuple:
    """Imports, input generation and one warm-up item.

    Returns (seconds, library tolerance, warm-up outcome).
    """
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mftn.cli
    import mftn.tensors

    if Path(mftn.__file__).resolve().parent != SRC / "mftn":
        raise BenchError(f"imported mftn from {mftn.__file__}, not from {SRC}")
    tolerance = mftn.tensors.DEFAULT_TOL
    workloads.cycle(workload, seed, 0)
    warm = run_item(workloads.warmup(workload, seed), tolerance)
    return time.perf_counter() - start, tolerance, warm


def run_item(item, tolerance: float) -> Outcome:
    """One dispatch call, timed, with its report checked."""
    from mftn import cli, tensors

    out = io.StringIO()
    code, problems = None, []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.dispatch(list(item.argv))
    except Exception:  # an item that raises is a failed item; the run goes on
        problems.append("dispatch raised: " + traceback.format_exc(limit=3))
    elapsed = time.perf_counter() - start
    if tensors.DEFAULT_TOL != tolerance:
        problems.append(f"DEFAULT_TOL left at {tensors.DEFAULT_TOL!r}")
        tensors.DEFAULT_TOL = tolerance
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        report = None
    if code is not None:
        problems += workloads.verify(item, code, report, tolerance)
    return Outcome(item.kind, elapsed, report, problems)


def run_items(items, tolerance: float) -> list:
    return [run_item(item, tolerance) for item in items]


def measure(workload: str, seed: int, seconds: float, tolerance: float) -> tuple:
    """Whole cycles, back to back, until ``seconds`` have passed."""
    outcomes, cycles = [], 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        outcomes += run_items(workloads.cycle(workload, seed, cycles), tolerance)
        cycles += 1
    return outcomes, time.perf_counter() - start, cycles


def latency_summary(outcomes, elapsed: float) -> dict:
    """Throughput, median and tail latency over the items that passed.

    The tail is the highest percentile with at least ``TAIL_BEYOND`` items
    beyond it, i.e. the (TAIL_BEYOND + 1)-th slowest item.
    """
    passed = sorted(o.seconds for o in outcomes if not o.problems)
    if not passed:
        return {"items_per_s": 0.0, "item_p50_ms": 0.0, "item_tail_ms": 0.0,
                "tail_percentile": None, "tail_items_beyond": 0}
    at = max(len(passed) - TAIL_BEYOND - 1, 0)
    return {
        "items_per_s": len(passed) / elapsed,
        "item_p50_ms": statistics.median(passed) * 1000,
        "item_tail_ms": passed[at] * 1000,
        "tail_percentile": 100 * (at + 1) / len(passed),
        "tail_items_beyond": len(passed) - at - 1,
    }


def setup_in_child(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _comparable(report):
    return None if report is None else {k: v for k, v in report.items() if k != "elapsed_ms"}


def traced_run(workload: str, seed: int, seconds: float, tolerance: float) -> tuple:
    """Alternate untraced and traced passes over the first cycle.

    Returns (outcomes, per-layer metrics, run-level problems, record fields).
    """
    items = workloads.cycle(workload, seed, 0)
    outcomes, passes, untraced_s, traced_s = [], [], [], []
    reference = None
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        plain = run_items(items, tolerance)
        with spans.Tracer() as tracer:
            traced = run_items(items, tolerance)
        passes.append(tracer.stats)
        untraced_s.append(sum(o.seconds for o in plain))
        traced_s.append(sum(o.seconds for o in traced))
        if reference is None:
            reference = [_comparable(o.report) for o in plain]
        for outcome, ref in zip(plain + traced, reference + reference):
            if _comparable(outcome.report) != ref:
                outcome.problems.append("report differs from the first untraced pass")
        outcomes += plain + traced
    problems = [
        f"{target} counts {passes[0][target].counts()} then {stats.counts()}"
        for later in passes[1:] for target, stats in later.items()
        if stats.counts() != passes[0][target].counts()
    ]
    record = {"passes": len(passes), "items_per_pass": len(items),
              "push_table_calls": passes[0]["protocol.PepsPatch.push_table"].calls}
    return outcomes, spans.layer_metrics(passes, untraced_s, traced_s), problems, record


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in (SRC / "mftn").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if "MFTN_TOL" in os.environ:
        raise BenchError("MFTN_TOL is set; the benchmark runs at the library's default tolerance")
    if not (SRC / "mftn" / "__init__.py").is_file():
        raise BenchError(f"no mftn sources under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    setup_s, tolerance, warm = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "load_shape": LOAD_SHAPE, "seconds_requested": args.seconds}
    problems = [f"warm-up {warm.kind}: {warm.problems}"] if warm.problems else []
    if args.trace:
        outcomes, metrics, trace_problems, extra = traced_run(
            args.workload, args.seed, args.seconds, tolerance)
        problems += trace_problems
        record.update(extra)
    else:
        samples = [setup_s] + [setup_in_child(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        outcomes, elapsed, cycles = measure(args.workload, args.seed, args.seconds, tolerance)
        summary = latency_summary(outcomes, elapsed)
        values = {"setup_s": statistics.median(samples),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  **summary}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        record.update(seconds_measured=elapsed, cycles=cycles, setup_samples_s=samples,
                      tail_percentile=summary["tail_percentile"],
                      tail_items_beyond=summary["tail_items_beyond"])

    failed = [o for o in outcomes if o.problems]
    for outcome in failed[:10]:
        print(f"failed {outcome.kind}: {outcome.problems}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    by_kind = {}
    for outcome in outcomes:
        by_kind.setdefault(outcome.kind, []).append(outcome.seconds * 1000)
    record.update(
        items={kind: len(ms) for kind, ms in sorted(by_kind.items())},
        kind_p50_ms={kind: statistics.median(ms) for kind, ms in sorted(by_kind.items())},
        fail_frac=len(failed) / len(outcomes),
        problems=problems[:10] + [f"{o.kind}: {o.problems}" for o in failed[:10]],
        machine=machine_record(),
    )
    correct = not failed and not problems
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
