"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py      (from the checkout root)

Makes a small real run, confirms that its outputs pass every check, then
feeds the checks a truncated log, a wrong count and a drifted summary
and confirms that each one fails. Exits 0 when all cases behave.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
from workloads import Workload  # noqa: E402

from pilotsim import cli  # noqa: E402
from pilotsim.config import parse_config_text  # noqa: E402
from pilotsim.pilot import PilotRun  # noqa: E402

WL = Workload("selftest", "configs/exp4_optimized.cfg", {"workload.n_tasks": "64"},
              n_tasks=64, n_done=64)


def main() -> int:
    work = os.path.join(os.getcwd(), ".perfbench_out", "work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    cfg = parse_config_text(WL.config_text(os.getcwd()))
    cfg.output_dir = work
    rep_dir = os.path.join(work, WL.name, "rep_000")
    result = PilotRun(cfg, run_dir=rep_dir, seed=cfg.seed).run()
    ran = cli.analyze_rep(rep_dir, cfg, events=result.events)
    reloaded = cli.analyze_rep(rep_dir, cfg)
    log = os.path.join(rep_dir, "profile.log")
    window = result.events[-1].t_s

    with open(log, "rb") as fh:
        data = fh.read()
    cut_line = os.path.join(work, "cut_line.log")  # pilot_stop line dropped
    with open(cut_line, "wb") as fh:
        fh.write(data[: data.rstrip(b"\n").rfind(b"\n") + 1])
    cut_mid = os.path.join(work, "cut_mid.log")  # crash mid-write
    with open(cut_mid, "wb") as fh:
        fh.write(data[: len(data) - 7])
    drifted = dict(reloaded, ttx_s=reloaded["ttx_s"] + 1e-3)

    cases = [
        ("intact outputs pass", True,
         checks.check_counts(WL, result.n_done, result.n_failed, result.failures)
         + checks.check_log_end(log)
         + checks.summary_deviation(ran, reloaded, window)[1]),
        ("log without pilot_stop fails", False, checks.check_log_end(cut_line)),
        ("log cut mid-line fails", False, checks.check_log_end(cut_mid)),
        ("wrong done count fails", False,
         checks.check_counts(WL, result.n_done - 1, result.n_failed + 1,
                             {"FdExhausted": 1})),
        ("lost task fails", False,
         checks.check_counts(WL, result.n_done - 1, result.n_failed, result.failures)),
        ("summary drift of 1 ms fails", False,
         checks.summary_deviation(ran, drifted, window)[1]),
    ]
    ok = True
    for label, should_pass, errors in cases:
        good = (not errors) == should_pass
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {label}: {errors or 'no errors'}")
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
