"""`TaskTable.from_log` reads a saved profile log into the same table as
`TaskTable.from_events(load_profile(path))`, field for field, and fails
on a damaged log with exactly the reference path's error."""

import os
import re
import tracemalloc

import numpy as np
import pytest

from pilotsim import Event, ProfileParseError, Slot, TaskTable, load_profile, run_pilot
from pilotsim.cli import main, run_experiment

from conftest import assert_same_table, zero_overhead


def outcome(build):
    """The table `build` returns, or the type, message and line of its error."""
    try:
        return build()
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "line_no", None))


def assert_same_outcome(path: str) -> None:
    got = outcome(lambda: TaskTable.from_log(path))
    want = outcome(lambda: TaskTable.from_events(load_profile(path)))
    if isinstance(want, TaskTable):
        assert isinstance(got, TaskTable), got
        assert_same_table(got, want)
    else:
        assert got == want


@pytest.fixture(scope="module")
def plain_log(tmp_path_factory):
    """Lines of a small run's log: 2-core tasks with a GPU each on 3-core
    nodes, so slots spill across nodes."""
    from pilotsim import ExperimentConfig

    cfg = zero_overhead(ExperimentConfig())
    cfg.workload.n_tasks = 12
    cfg.workload.duration_s = 5.0
    cfg.workload.cores_per_task = 2
    cfg.workload.gpus_per_task = 1
    cfg.pool.nodes = 5
    cfg.pool.cores_per_node = 3
    cfg.backend.max_rate_hz = None
    cfg.backend.submit_delay_s = 0.01
    cfg.agent.startup_s = 10.0
    cfg.agent.termination_s = 2.0
    rep = str(tmp_path_factory.mktemp("plain") / "rep")
    run_pilot(cfg, run_dir=rep, seed=4)
    with open(os.path.join(rep, "profile.log"), encoding="utf-8") as fh:
        return fh.read().splitlines(keepends=True)


def write(tmp_path, text: str, newline: str = "") -> str:
    path = str(tmp_path / "profile.log")
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    return path


def with_time(line: str, t: str) -> str:
    return t + line[line.index(","):]


def shuffled_equal_times(lines):
    # the readers sort stably by time; reversing the file reverses the
    # order of every run of equal times (rows, and which duplicate wins)
    return lines[:1] + lines[1:][::-1]


def duplicated(lines):
    # a task's done event and the agent_ready mark twice more each: later
    # in the file at an earlier time, and at a later time; plus exact
    # copies of a few lines
    out = lines + lines[3:9]
    for name in (",done,", ",agent_ready,"):
        line = next(line for line in lines if name in line)
        t = float(line.split(",")[0])
        out += [with_time(line, f"{t - 1:.6f}"), with_time(line, f"{t + 1:.6f}")]
    return out


def escaped_ids(lines):
    return [line.replace("task.000003", "task%2C000003") for line in lines]


def non_finite(t):
    return lambda lines: lines[:5] + [with_time(lines[5], t)] + lines[6:]


EDITS = {
    "plain": lambda lines: lines,
    "no_final_newline": lambda lines: lines[:-1] + [lines[-1].rstrip("\n")],
    "blank_lines": lambda lines: ["\n"] + lines[:4] + ["\n", "\n"] + lines[4:] + ["\n"],
    "equal_times_reversed": shuffled_equal_times,
    "duplicates": duplicated,
    "percent_escaped_ids": escaped_ids,
    "nan_time": non_finite("nan"),
    "inf_time": non_finite("inf"),
    "empty": lambda lines: [],
    "only_blank_lines": lambda lines: ["\n", "\n"],
}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_same_table_as_reference(plain_log, tmp_path, edit, newline):
    path = write(tmp_path, "".join(EDITS[edit](plain_log)), newline=newline)
    assert_same_outcome(path)


def test_spilled_gpu_slots_are_read(plain_log, tmp_path):
    # a slot over several nodes, with a GPU on one of them
    assert any(re.search(r"slot=n\d+c[\d.]+g\d+_n", line) for line in plain_log)
    table = TaskTable.from_log(write(tmp_path, "".join(plain_log)))
    assert np.count_nonzero(table.unit_gpu) == 12
    assert len(table.unit_task) == 12 * 3


def cut_in_first_slot(lines):
    i = next(i for i, line in enumerate(lines) if "slot=n1c" in line)
    return lines[:i] + [lines[i][:lines[i].index("slot=n1c") + 8] + "\n"]


DAMAGE = {
    "no_pilot_stop": lambda lines: lines[:-1],
    "cut_last_line": lambda lines: lines[:-1] + [lines[-1][:5]],
    "garbage_line": lambda lines: lines[:3] + ["not an event\n"] + lines[3:],
    "cut_in_slot": cut_in_first_slot,
    "bare_attr": lambda lines: lines[:4] + [lines[4].rstrip("\n") + ";bare\n"] + lines[5:],
    "empty_attr_piece": lambda lines: lines[:2] + [lines[2].rstrip("\n") + ";\n"] + lines[3:],
    "bad_time": non_finite("12:00"),
    "bad_wait": lambda lines: [line.replace("wait=", "wait=x", 1) for line in lines],
    "bad_slot_node": lambda lines: [line.replace("slot=n", "slot=m", 1) for line in lines],
    "seven_fields": lambda lines: lines[:6] + [lines[6].rstrip("\n") + ",x\n"] + lines[7:],
    "five_fields_then_seven": lambda lines: (
        lines[:6] + [lines[6].replace(",", "", 1), lines[7].rstrip("\n") + ",x\n"] + lines[8:]),
    # four fields, then eight that start with two valid attribute fields
    "four_fields_then_eight": lambda lines: (
        lines[:6] + [lines[6].rsplit(",", 2)[0] + "\n", "a=b,a=b," + lines[7]] + lines[8:]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_log_raises_the_reference_error(plain_log, tmp_path, damage):
    path = write(tmp_path, "".join(DAMAGE[damage](plain_log)))
    assert_same_outcome(path)
    if damage != "no_pilot_stop":
        with pytest.raises(ValueError):
            TaskTable.from_log(path)


def test_bare_attr_names_its_line(plain_log, tmp_path):
    path = write(tmp_path, "".join(DAMAGE["bare_attr"](plain_log)))
    with pytest.raises(ProfileParseError) as err:
        TaskTable.from_log(path)
    assert err.value.line_no == 5
    assert err.value.reason == "bad attr 'bare'"


def count_calls(monkeypatch, cls, name):
    calls = []
    decode = getattr(cls, name).__func__

    def counting(klass, text):
        calls.append(text)
        return decode(klass, text)

    monkeypatch.setattr(cls, name, classmethod(counting))
    return calls


def test_plain_analyze_builds_no_event_or_slot(quick_cfg, tmp_path, monkeypatch, capsys):
    cfg = quick_cfg(workload__cores_per_task=2)
    cfg.output_dir = str(tmp_path)
    cfg.name = "plain"
    run_dir = run_experiment(cfg)
    events = count_calls(monkeypatch, Event, "decode")
    slots = count_calls(monkeypatch, Slot, "decode")
    assert main(["analyze", run_dir]) == 0
    assert main(["report", run_dir]) == 0
    assert events == [] and slots == []
    # the counter sees the reference path: an escaped id sends the log there
    log = os.path.join(run_dir, "rep_000", "profile.log")
    with open(log, encoding="utf-8") as fh:
        text = fh.read()
    with open(log, "w", encoding="utf-8") as fh:
        fh.write(text.replace("task.000003", "task%2C000003"))
    assert main(["analyze", run_dir]) == 0
    assert len(events) == text.count("\n") and slots == []


def traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_memory_is_a_fraction_of_the_events(quick_cfg, tmp_path):
    cfg = quick_cfg(workload__n_tasks=4096, pool__autosize=1)
    rep = str(tmp_path / "rep")
    run_pilot(cfg, run_dir=rep, seed=1)
    path = os.path.join(rep, "profile.log")
    lean = traced_peak(lambda: TaskTable.from_log(path))
    full = traced_peak(lambda: TaskTable.from_events(load_profile(path)))
    assert lean < full / 2
