"""One benchmark operation, run in a fresh process by run.py.

    python3 perfbench/op.py --workload W --seed N --workdir DIR
                            [--setups K] [--spans PATH] [--sim-only N_TASKS]

An operation is one repetition done the way `pilotsim run` does it
(parse the config, build the run, simulate and write profile.log and
meta.txt, analyze the in-memory events into the four CSVs), followed by
what `pilotsim analyze` does (reload the log, analyze it again; repeated
while the re-analyses total under ANALYZE_MIN_S). Before it, the set-up
alone (config parse and validate plus PilotRun construction) is repeated
K times with imports warm.

Prints one JSON line: wall and CPU seconds of each phase, peak RSS, the
output-check errors and the identity record. With --spans it traces the
layers (trace_layers.py), adds the per-layer figures and writes the
spans to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from pilotsim import cli  # noqa: E402
from pilotsim.config import parse_config_file  # noqa: E402
from pilotsim.pilot import PilotRun  # noqa: E402

ANALYZE_MIN_S = 2.0


class _Stopwatch:
    """Wall and process-CPU seconds of a block."""

    def __enter__(self):
        self._w, self._c = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._w
        self.cpu = time.process_time() - self._c
        return False


class _Capture:
    """Wraps a method or function once, keeping its last result and timing.

    One call per operation, so the cost is nothing next to the work."""

    def __init__(self, owner, name):
        orig = getattr(owner, name)
        self.result = None
        self.wall = self.cpu = 0.0

        def wrapper(*args, **kwargs):
            with _Stopwatch() as sw:
                self.result = orig(*args, **kwargs)
            self.wall, self.cpu = sw.wall, sw.cpu
            return self.result

        setattr(owner, name, wrapper)


def _setup_once(cfg_path: str, run_dir: str, seed: int) -> _Stopwatch:
    with _Stopwatch() as sw:
        cfg = parse_config_file(cfg_path)
        cfg.seed = seed
        run = PilotRun(cfg, run_dir=run_dir, seed=seed)
    run.sink.close()
    return sw


def _sim_only(wl, seed: int, workdir: str, n_tasks: int) -> dict:
    """Scaling-curve point: PilotRun.run alone at a given task count."""
    cfg_path = os.path.join(workdir, f"{wl.name}.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(wl.config_text(os.getcwd(), n_tasks=n_tasks))
    cfg = parse_config_file(cfg_path)
    run = PilotRun(cfg, run_dir=os.path.join(workdir, "rep"), seed=seed)
    with _Stopwatch() as sw:
        result = run.run()
    return {"n_tasks": n_tasks, "sim_s": sw.wall, "sim_cpu_s": sw.cpu,
            "events": len(result.events), "n_done": result.n_done}


def run_op(wl, seed: int, workdir: str, setups: int, spans_path: str = "") -> dict:
    cfg_path = os.path.join(workdir, f"{wl.name}.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(wl.config_text(os.getcwd()))

    setup = []
    for i in range(setups):
        sw = _setup_once(cfg_path, os.path.join(workdir, f"setup{i}"), seed)
        setup.append((sw.wall, sw.cpu))

    sim = _Capture(PilotRun, "run")
    rep = _Capture(cli, "analyze_rep")
    out_dir = os.path.join(workdir, "runs")
    tracer = None
    if spans_path:
        from trace_layers import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), _Stopwatch() as run_sw:
        rc = cli.main(["run", cfg_path, "--seed", str(seed), "--out", out_dir,
                       "--reps", "1"])
    result, ran = sim.result, rep.result
    rep_dir = os.path.join(out_dir, wl.name, "rep_000")
    errors = [] if rc == 0 else [f"pilotsim run exited {rc}"]

    # A short re-analysis repeats until ANALYZE_MIN_S have passed, so it
    # gets as many samples per operation as the host's noise needs; the
    # traced run analyzes once so that per-call figures stay per call.
    analyze, reloaded = [], None
    while not analyze or (tracer is None and sum(a[0] for a in analyze) < ANALYZE_MIN_S):
        rep.result = None
        with contextlib.redirect_stdout(out), _Stopwatch() as an_sw:
            rc = cli.main(["analyze", os.path.join(out_dir, wl.name)])
        analyze.append((an_sw.wall, an_sw.cpu))
        if rc != 0:
            errors.append(f"pilotsim analyze exited {rc}")
            break
        reloaded = reloaded or rep.result
    if tracer is not None:
        tracer.uninstall()

    rec = {
        "setup_s": [s[0] for s in setup], "setup_cpu_s": [s[1] for s in setup],
        "run_s": run_sw.wall, "run_cpu_s": run_sw.cpu,
        "sim_s": sim.wall, "sim_cpu_s": sim.cpu,
        "analyze_s": [a[0] for a in analyze], "analyze_cpu_s": [a[1] for a in analyze],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
    }
    if errors or result is None or ran is None or reloaded is None:
        errors.append("operation did not complete")
        return rec

    log_path = os.path.join(rep_dir, "profile.log")
    errors += checks.check_counts(wl, result.n_done, result.n_failed, result.failures)
    errors += checks.check_log_end(log_path)
    window_s = result.events[-1].t_s
    rec["max_deviation_s"], dev_errors = checks.summary_deviation(ran, reloaded, window_s)
    errors += dev_errors
    rec["identity"] = {
        "profile_sha256": checks.sha256_file(log_path),
        "log_bytes": os.path.getsize(log_path),
        "events": len(result.events),
        "ttx_s": ran["ttx_s"],
        "n_done": result.n_done,
        "failures": result.failures,
        **{k: v for k, v in ran.items() if k.startswith("ru_")},
    }
    if tracer is not None:
        rec["layers"] = tracer.layer_metrics(log_bytes=rec["identity"]["log_bytes"])
        tracer.write_spans(spans_path)
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setups", type=int, default=3)
    ap.add_argument("--spans", default="", metavar="PATH")
    ap.add_argument("--sim-only", type=int, default=0, metavar="N_TASKS")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    if args.sim_only:
        rec = _sim_only(wl, args.seed, args.workdir, args.sim_only)
    else:
        rec = run_op(wl, args.seed, args.workdir, args.setups, args.spans)
    # the run directories hold up to tens of MB of logs and CSVs
    for name in os.listdir(args.workdir):
        path = os.path.join(args.workdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
