"""Experiment harness: run configs with repetitions, analyze, report.

Verbs:

    pilotsim run <config> [--seed S] [--out DIR] [--reps N]
    pilotsim analyze <run_dir>
    pilotsim report <run_dir>

Each repetition gets its own directory with the profile log, a metadata
echo that replays the exact run, and the analysis CSVs. Exit codes:
0 success, 2 config error, 3 run aborted.
"""

from __future__ import annotations

import argparse
import copy
import csv
import os
import sys
import traceback
from typing import Optional

import numpy as np

from . import analysis
from .config import (
    ConfigError,
    ExperimentConfig,
    parse_config_file,
    parse_config_text,
    to_flat,
)
from .pilot import PilotRun, build_pool, build_spec
from .profiler import Event, load_profile  # noqa: F401  perfbench's tracer wraps cli.load_profile
from .scheduler import ResourcePool


class NoCompleteRuns(ValueError):
    """A report was requested over a directory without complete repetitions."""


class RunAborted(RuntimeError):
    """A repetition aborted (filesystem or internal error)."""


def _rep_metrics(cfg: ExperimentConfig, table: analysis.TaskTable,
                 pool: ResourcePool, ub: analysis.UtilizationBreakdown) -> dict[str, float]:
    metrics: dict[str, float] = {
        "ttx_s": analysis.compute_ttx(table),
        "ideal_ttx_s": analysis.ideal_ttx(cfg.workload.n_tasks, build_spec(cfg), pool),
        "n_done": float(table.n_done),
        "n_failed": float(table.n_failed),
    }
    for cat in analysis.CATEGORIES:
        metrics[f"ru_{cat}_pct"] = ub.percents[cat]
    return metrics


def analyze_rep(rep_dir: str, cfg: ExperimentConfig,
                events: Optional[list[Event]] = None,
                timeline_buckets: int = 120) -> dict[str, float]:
    """Write the per-repetition report CSVs; returns the summary metrics."""
    if events is None:
        table = analysis.TaskTable.from_log(os.path.join(rep_dir, "profile.log"))
    else:
        table = analysis.TaskTable.from_events(events)
    pool = build_pool(cfg)
    report = analysis.component_overheads(table)
    ub = analysis.utilization(table, pool, gpu_weight=cfg.agent.gpu_weight)
    metrics = _rep_metrics(cfg, table, pool, ub)
    analysis.write_overheads_csv(report, os.path.join(rep_dir, "report_overheads.csv"))
    analysis.write_utilization_csv(ub, os.path.join(rep_dir, "report_utilization.csv"))
    analysis.write_summary_csv(
        {k: f"{v:.6f}" for k, v in metrics.items()},
        os.path.join(rep_dir, "report_summary.csv"),
    )
    analysis.write_timeline_csv(
        table, pool, os.path.join(rep_dir, "report_timeline.csv"),
        buckets=timeline_buckets, gpu_weight=cfg.agent.gpu_weight,
    )
    return metrics


def _write_meta(rep_dir: str, cfg: ExperimentConfig, seed: int, rep: int) -> None:
    flat = to_flat(cfg)
    flat["seed"] = str(seed)
    flat["repetitions"] = "1"
    path = os.path.join(rep_dir, "meta.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# run metadata echo, repetition {rep}\n")
        for k, v in flat.items():
            fh.write(f"{k}={v}\n")


def _read_meta(rep_dir: str) -> ExperimentConfig:
    """The configuration a repetition ran with, from its `meta.txt` echo."""
    path = os.path.join(rep_dir, "meta.txt")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def run_experiment(cfg: ExperimentConfig) -> str:
    """Execute all repetitions (expanding a sweep into one sub-run per
    scale point); returns the run directory."""
    cfg.validate()
    points = cfg.sweep_points()
    if points:
        parent = os.path.join(cfg.output_dir, cfg.name)
        subs = []
        for n in points:
            sub = copy.deepcopy(cfg)
            sub.sweep.n_tasks = ""
            sub.workload.n_tasks = n
            sub.output_dir = parent
            sub.name = f"n{n:06d}"
            sub.validate()  # every point, before any of them runs
            subs.append(sub)
        os.makedirs(parent, exist_ok=True)
        for sub in subs:
            run_experiment(sub)
        return parent
    run_dir = os.path.join(cfg.output_dir, cfg.name)
    os.makedirs(run_dir, exist_ok=True)
    for rep in range(cfg.repetitions):
        rep_dir = os.path.join(run_dir, f"rep_{rep:03d}")
        os.makedirs(rep_dir, exist_ok=True)
        seed = cfg.seed + rep
        try:
            result = PilotRun(cfg, run_dir=rep_dir, seed=seed).run()
            _write_meta(rep_dir, cfg, seed, rep)
            analyze_rep(rep_dir, cfg, events=result.events)
        except (OSError, analysis.IncompleteRun) as exc:
            raise RunAborted(f"repetition {rep} aborted: {exc}") from exc
    return run_dir


def _rep_dirs(run_dir: str) -> list[str]:
    out = []
    for name in sorted(os.listdir(run_dir)):
        path = os.path.join(run_dir, name)
        if name.startswith("rep_") and os.path.isdir(path):
            out.append(path)
    return out


def analyze(run_dir: str) -> list[dict[str, float]]:
    """Recompute reports for every repetition from its log and metadata;
    a truncated or unparseable log aborts, naming its repetition."""
    results = []
    for rep_dir in _rep_dirs(run_dir):
        cfg = _read_meta(rep_dir)
        try:
            results.append(analyze_rep(rep_dir, cfg))
        except ValueError as exc:
            raise RunAborted(f"cannot analyze {rep_dir}: {exc}") from exc
    if not results:
        raise NoCompleteRuns(f"no repetitions found under {run_dir}")
    return results


def emit_report(run_dir: str) -> str:
    """Consolidate repetitions into mean/stddev per metric.

    Repetitions whose log is truncated (no pilot_stop) are flagged and
    excluded. Returns the consolidated CSV path.
    """
    per_rep: list[dict[str, float]] = []
    flagged: list[str] = []
    for rep_dir in _rep_dirs(run_dir):
        try:
            cfg = _read_meta(rep_dir)
            table = analysis.TaskTable.from_log(os.path.join(rep_dir, "profile.log"))
            pool = build_pool(cfg)
            ub = analysis.utilization(table, pool, gpu_weight=cfg.agent.gpu_weight)
            per_rep.append(_rep_metrics(cfg, table, pool, ub))
        except (OSError, ValueError) as exc:
            flagged.append(f"{os.path.basename(rep_dir)}: {exc}")
    if not per_rep:
        raise NoCompleteRuns(f"no complete repetitions under {run_dir}")

    names = list(per_rep[0].keys())
    rows = []
    for name in names:
        vals = np.array([m[name] for m in per_rep])
        rows.append((name, float(vals.mean()), float(vals.std())))

    out_path = os.path.join(run_dir, "report_consolidated.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "mean", "stddev", "n_reps"])
        for name, mean, std in rows:
            w.writerow([name, f"{mean:.6f}", f"{std:.6f}", len(per_rep)])

    width = max(len(n) for n in names)
    print(f"{run_dir}: {len(per_rep)} complete repetition(s)")
    if flagged:
        for msg in flagged:
            print(f"  FLAGGED {msg}")
    print(f"  {'metric'.ljust(width)}  {'mean':>14}  {'stddev':>14}")
    for name, mean, std in rows:
        print(f"  {name.ljust(width)}  {mean:14.4f}  {std:14.4f}")
    return out_path


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pilotsim",
        description="many-task pilot runtime simulator and profiler",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.add_argument("--reps", type=int, default=None, help="override repetitions")

    p_an = sub.add_parser("analyze", help="recompute reports for a run directory")
    p_an.add_argument("run_dir")

    p_rep = sub.add_parser("report", help="consolidate repetitions into one report")
    p_rep.add_argument("run_dir")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            cfg = parse_config_file(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            if args.out is not None:
                cfg.output_dir = args.out
            if args.reps is not None:
                cfg.repetitions = args.reps
            run_dir = run_experiment(cfg)
            print(run_dir)
        elif args.verb == "analyze":
            analyze(args.run_dir)
            print(args.run_dir)
        else:
            emit_report(args.run_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RunAborted, NoCompleteRuns, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
