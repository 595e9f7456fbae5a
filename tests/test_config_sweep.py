"""Every valid config runs clean: property-based invariants over the
config space of the simulated backends.

Each example draws every validated key of a `sim_dvm` or `sim_jsm`
config, with edge values on purpose (zero startup, termination and
delays, a DVM capacity of 1, a small descriptor limit, several
partitions, GPUs) and at most 100 tasks. `validate` accepts the config
or raises `ConfigError`; an accepted config runs through `pilotsim run`
twice and must give the same bytes, a complete log of lines that
re-encode to themselves, consistent counts and utilization, and reports
that `pilotsim analyze` reproduces exactly. `local_exec` is left out: it
spawns processes.
"""

import csv
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import ConfigError, ExperimentConfig, TaskTable, parse_config_text
from pilotsim.cli import main
from pilotsim.config import to_flat
from pilotsim.profiler import Event

REPORTS = ("report_overheads.csv", "report_utilization.csv",
           "report_summary.csv", "report_timeline.csv")


def _pick(*values):
    return st.sampled_from([str(v) for v in values])


# flat key -> strategy for its text; `name` and `output_dir` are set per
# run. Some keys have one value `validate` rejects, and some values are
# rejected in combination (too few workers or executors for the partitions,
# a task larger than a partition): about a quarter of the configs are accepted.
KEY_VALUES = {
    "repetitions": _pick(1, 1, 1, 2),
    "seed": st.integers(0, 2**32 - 1).map(str),
    "workload.n_tasks": st.integers(1, 100).map(str),
    "workload.cores_per_task": _pick(1, 1, 2, 3, 8),
    "workload.gpus_per_task": _pick(0, 0, 1, 2),
    "workload.duration_s": _pick(900.0, 30.0, 1.0, 0.001, 900.0, 30.0, 0.0),
    "pool.nodes": _pick(2, 3, 5, 8, 1),
    "pool.cores_per_node": _pick(42, 8, 3, 1, 42, 8, 0),
    "pool.gpus_per_node": _pick(6, 2, 0),
    "pool.agent_nodes": _pick(1, 1, 1, 2),
    "pool.autosize": _pick(0, 1),
    "backend.kind": _pick("sim_dvm", "sim_jsm"),
    "backend.submit_delay_s": _pick(0.1, 0.01, 0.0),
    "backend.submit_cost_s": _pick(0.04, 0.0),
    "backend.max_rate_hz": _pick("none", 10.0, 100.0, 0.5),
    "backend.fail_prob_over_rate": _pick(0.05, 0.0, 0.5, 1.0),
    # the JSM limit is fixed at 4096: a sim_jsm config keeps only the 8
    "backend.fd_limit": _pick(4096, 65536, 64, 8),
    # drawn as a share of the limit, below
    "backend.fd_reserved": _pick(0, 0, 0.3, 0.99, 1.0),
    "subagents.n_sub_agents": _pick(1, 2, 4, 4),
    "dvm.capacity_tasks": _pick(20000, 20000, 5, 1),
    "dvm.setup_mean_s": _pick(0.2, 0.0),
    "dvm.setup_std_s": _pick(0.0, 0.1),
    "dvm.launch_mean_s": _pick(0.034, 0.0, 1.0),
    "dvm.launch_std_s": _pick(0.047, 0.0, 5.0),
    "dvm.notify_mean_s": _pick(0.1, 0.0),
    "dvm.notify_std_s": _pick(0.0, 0.05),
    "agent.startup_s": _pick(75.0, 0.0, 1.0),
    "agent.termination_s": _pick(10.0, 0.0),
    "agent.schedule_cost_s": _pick(0.0, 0.012, 0.5),
    "agent.partitions": _pick(1, 1, 2, 4),
    "agent.gpu_weight": _pick(1.0, 0.5, 0.0),
    "sweep.n_tasks": _pick("", "", "", "", "1,7"),
}


def _fd_budget(flat):
    if flat["backend.kind"] == "sim_jsm" and flat["backend.fd_limit"] != "8":
        flat["backend.fd_limit"] = "4096"
    limit = int(flat["backend.fd_limit"])
    flat["backend.fd_reserved"] = str(int(limit * float(flat["backend.fd_reserved"])))
    return flat


configs = st.fixed_dictionaries(KEY_VALUES).map(_fd_budget)


def test_the_sweep_draws_every_key():
    assert set(KEY_VALUES) | {"name", "output_dir"} == set(to_flat(ExperimentConfig()))


def _rep_dirs(root):
    return sorted(os.path.join(d, name) for d, subdirs, _ in os.walk(root)
                  for name in subdirs if name.startswith("rep_"))


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def _check_rep(rep_dir):
    """The invariants of one finished repetition."""
    meta = parse_config_text(_read(os.path.join(rep_dir, "meta.txt")))
    n_tasks = meta.workload.n_tasks
    lines = _read(os.path.join(rep_dir, "profile.log")).splitlines()
    events = [Event.decode(line) for line in lines]
    assert [e.encode() for e in events] == lines
    stop = events[-1]
    assert stop.name == "pilot_stop"
    assert [e.name for e in events].count("pilot_stop") == 1
    assert int(stop.attrs["n_done"]) + int(stop.attrs["n_failed"]) == n_tasks

    with open(os.path.join(rep_dir, "report_summary.csv"), newline="") as fh:
        summary = {k: float(v) for k, v in list(csv.reader(fh))[1:]}
    assert (summary["n_done"], summary["n_failed"]) == (
        float(stop.attrs["n_done"]), float(stop.attrs["n_failed"]))
    ru = [v for k, v in summary.items() if k.startswith("ru_")]
    assert min(ru) >= 0
    if stop.t_s > events[0].t_s:
        assert math.isclose(sum(ru), 100.0, abs_tol=1e-4)
    else:  # the pilot stopped at t=0: a 0 s utilization window
        assert set(ru) == {0.0}

    table = TaskTable.from_log(os.path.join(rep_dir, "profile.log"))
    chain = (table.t_sched, table.t_submit, table.t_run, table.t_done)
    for early, late in zip(chain, chain[1:]):
        assert not np.any(early > late)  # NaN, a missing event, compares False


def _accepted(text):
    """Whether the config parses, which `validate`s it and each of its sweep
    points as `pilotsim run` does; any error but `ConfigError` escapes."""
    try:
        parse_config_text(text)
    except ConfigError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(flat=configs)
def test_every_accepted_config_runs_clean(flat):
    text = "".join(f"{k}={v}\n" for k, v in flat.items())
    accepted = _accepted(text)
    with tempfile.TemporaryDirectory() as tmp:
        roots = []
        for side in ("a", "b"):
            cfg_path = os.path.join(tmp, f"{side}.cfg")
            with open(cfg_path, "w") as fh:
                fh.write(f"{text}name=sweep\noutput_dir={os.path.join(tmp, side)}\n")
            assert main(["run", cfg_path]) == (0 if accepted else 2)
            roots.append(os.path.join(tmp, side, "sweep"))
            if not accepted:  # a rejected config runs nothing
                assert not os.path.exists(roots[-1])
                return
        reps = _rep_dirs(roots[0])
        assert reps and [os.path.relpath(r, roots[0]) for r in reps] == [
            os.path.relpath(r, roots[1]) for r in _rep_dirs(roots[1])]
        for rep_dir in reps:
            twin = os.path.join(roots[1], os.path.relpath(rep_dir, roots[0]))
            for fname in ("profile.log", *REPORTS):
                assert _read(os.path.join(rep_dir, fname), "rb") == _read(
                    os.path.join(twin, fname), "rb"), fname
            _check_rep(rep_dir)

        # `pilotsim analyze` from the meta.txt echo writes the same reports
        reports = {r: [_read(os.path.join(r, f), "rb") for f in REPORTS] for r in reps}
        for point in sorted({os.path.dirname(r) for r in reps}):
            assert main(["analyze", point]) == 0
        for rep_dir, before in reports.items():
            assert [_read(os.path.join(rep_dir, f), "rb") for f in REPORTS] == before
