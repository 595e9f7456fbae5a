"""pilotsim host-cost benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --scaling [--seed N]

Run from the root of a pilotsim checkout. Each operation (one
repetition, see op.py) runs in its own fresh process, one at a time, so
its peak RSS is its own. Operations repeat until the next one would end
past --seconds (at least one runs) or one fails; each metric is the
median over the operations of the run. Every time is host wall-clock time
(time.perf_counter); simulated times are outputs that are checked and
recorded, never metrics.

--trace 0 reports the end-to-end metrics. --trace 1 runs one untraced
operation, then traced ones, and reports the per-layer metrics of the
traced ones plus the tracing overhead. --scaling runs the scaling curve
(recorded, not gated) and is not a benchmark workload.

The last line of standard output is the result JSON. The full record
(per-operation samples, identity record, environment) goes to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SCALING, WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
OP_TIMEOUT_S = 170  # the whole run must end within 180 s
UNITS = {"peak_rss_mb": "MB", "core.events_per_s": "1/s", "scheduler.place_ratio": "ratio",
         "profiler.log_bytes": "B", "trace.overhead_pct": "%"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def _run_op(root: str, args: list[str], timeout: float) -> dict:
    """Run op.py in a fresh process; a crash or timeout is a failed operation."""
    # no BLAS worker threads; a fixed hash seed keeps set and dict layouts
    # the same from one operation to the next
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "op.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"errors": [f"operation timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"op.py exited {proc.returncode}: {' | '.join(tail)}"]}
    return json.loads(lines[-1])


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without leaving it; else unknown."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"seed": seed, "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "git_commit": _git_commit(root), "timer": "wall"}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.monotonic()
    deadline = t_start + seconds
    work = os.path.join(root, OUT_DIR, "work", f"{name}-{seed}")
    spans = os.path.join(root, OUT_DIR, f"{name}-seed{seed}-spans.csv.gz")
    base = ["--workload", name, "--seed", str(seed), "--workdir", work]
    ops: list[dict] = []
    longest = 0.0
    while True:
        traced = trace and bool(ops)
        args = base + (["--setups", "0", "--spans", spans] if traced else
                       ["--setups", "0" if trace else "3"])
        t0 = time.monotonic()
        rec = _run_op(root, args, OP_TIMEOUT_S - (t0 - t_start))
        rec["traced"] = traced
        ops.append(rec)
        longest = max(longest, time.monotonic() - t0)
        done = time.monotonic() + longest > deadline
        if rec["errors"] or (done and (traced or not trace)):
            break

    # repeated runs of one seed must log the same bytes
    digests = {op["identity"]["profile_sha256"] for op in ops if "identity" in op}
    if len(digests) > 1:
        for op in ops:
            op["errors"].append(f"profile.log digests differ across seed {seed}: "
                                f"{sorted(digests)}")
    failed = [op for op in ops if op["errors"]]
    for op in failed:
        print(f"perfbench: operation failed: {'; '.join(op['errors'])}", file=sys.stderr)

    untraced = [op for op in ops if not op["traced"] and "run_s" in op]
    metrics: dict[str, float] = {}
    if trace:
        layered = [op for op in ops if "layers" in op]
        for key in layered[0]["layers"] if layered else ():
            metrics[key] = _median([op["layers"][key] for op in layered])
        traced_run = _median([op["run_s"] for op in layered])
        metrics["trace.overhead_pct"] = 100.0 * (traced_run / _median(
            [op["run_s"] for op in untraced]) - 1.0)
    else:
        for key in ("run_s", "sim_s", "peak_rss_mb"):
            metrics[key] = _median([op[key] for op in untraced])
        for key in ("analyze_s", "setup_s"):  # several samples per operation
            metrics[key] = _median([s for op in untraced for s in op[key]])

    # a metric no operation measured is left out, so the result stays JSON
    missing = [k for k, v in metrics.items() if math.isnan(v)]
    metrics = {k: v for k, v in metrics.items() if k not in missing}
    identity = next((op["identity"] for op in ops if "identity" in op), None)
    deviation = max((op.get("max_deviation_s", 0.0) for op in ops), default=0.0)
    return {
        "workload": name, "trace": int(trace), "environment": environment(root, seed),
        "identity": identity, "max_deviation_s": deviation,
        "result": {
            "correct": not failed and not missing,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        },
        "operations": ops,
    }


def run_scaling(root: str, seed: int) -> dict:
    points = []
    for name, sizes in SCALING.items():
        for n in sizes:
            work = os.path.join(root, OUT_DIR, "work", f"scaling-{name}-{n}")
            rec = _run_op(root, ["--workload", name, "--seed", str(seed), "--workdir",
                                 work, "--sim-only", str(n)], OP_TIMEOUT_S)
            rec["shape"] = name
            points.append(rec)
            if "sim_s" in rec:
                print(f"{name:>14}  n_tasks={n:>6}  sim_s={rec['sim_s']:8.3f}  "
                      f"sim_us_per_task={1e6 * rec['sim_s'] / n:9.1f}")
            else:
                print(f"{name:>14}  n_tasks={n:>6}  FAILED {rec['errors']}")
    return {"environment": environment(root, seed), "scaling": points}


def _write(root: str, filename: str, record: dict) -> None:
    path = os.path.join(root, OUT_DIR, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"perfbench: full record in {os.path.relpath(path, root)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="pilotsim host-cost benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scaling", action="store_true",
                    help="run the scaling curve instead of a workload")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pilotsim", "__init__.py")):
        print("perfbench: run from the root of a pilotsim checkout "
              "(src/pilotsim not found)", file=sys.stderr)
        return 2
    if not args.scaling and not args.workload:
        ap.error("--workload is required unless --scaling is given")
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    if args.scaling:
        _write(root, f"scaling-seed{args.seed}.json", run_scaling(root, args.seed))
        return 0
    record = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    _write(root, f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print("identity: " + json.dumps(record["identity"]))
    print("environment: " + json.dumps(record["environment"]))
    print(f"max run-vs-reload summary deviation: {record['max_deviation_s']:.3g} s")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
