"""`TaskTable.from_log` reads a saved profile log into the same table as
the per-`Event` oracle `reference_log_table(path)`, field for field, and
fails on a damaged log with exactly the oracle's error, which is
`load_profile`'s for a line it rejects; `TaskTable.from_events` reads a
run's events through the same reader."""

import os
import re
import tracemalloc

import numpy as np
import pytest

from pilotsim import ProfileParseError, TaskTable, compute_ttx, load_profile, run_pilot
from pilotsim.profiler import Event, LogEvents
from pilotsim.cli import main, run_experiment

from conftest import assert_same_table, reference_log_table, reference_table, zero_overhead


def outcome(build):
    """The table `build` returns, or the type, message and line of its error."""
    try:
        return build()
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "line_no", None))


def assert_same_outcome(path: str) -> None:
    got = outcome(lambda: TaskTable.from_log(path))
    want = outcome(lambda: reference_log_table(path))
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


def first_changed(lines, edited) -> int:
    """The number of the first line of `edited` that differs from `lines`."""
    return next(i for i, (a, b) in enumerate(zip(lines, edited)) if a != b) + 1


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


def moved_ahead(lines):
    # a task's later line first in the file: rows still follow each
    # task's first event in time order, not its first line in the file
    i = next(i for i, line in enumerate(lines) if "task.000001,Executor,submit" in line)
    return lines[:1] + [lines[i]] + lines[1:i] + lines[i + 1:]


# a "%" is off the log alphabet: each of these is an error naming the
# first line it changes
def escaped_ids(lines):
    return [line.replace("task.000003", "task%2C000003") for line in lines]


def escaped_attrs(lines):
    # escapes in the keys and values that the table reads
    return [line.replace("slot=n", "%73lot=%6E").replace("wait=0.", "w%61it=0%2E")
            for line in lines]


def escaped_values(lines):
    # escapes in the values alone: the keys read as they are
    return [line.replace("slot=n", "slot=%6E").replace("wait=0.", "wait=0%2E")
            for line in lines]


def non_finite(t):
    return lambda lines: lines[:5] + [with_time(lines[5], t)] + lines[6:]


def replaced(lines, i, line):
    return lines[:i] + [line] + lines[i + 1:]


def edit_first(marker, edit):
    """(lines, start=0) -> lines with `edit` applied to the first line at
    or past index `start` that holds `marker`."""
    def apply(lines, start=0):
        i = next(i for i in range(start, len(lines)) if marker in lines[i])
        return replaced(lines, i, edit(lines[i]))
    return apply


# attributes that the one-pass reader leaves to the per-line reader
ATTR_EDITS = {
    "attrs_reordered": edit_first(",schedule_ok,", lambda line: re.sub(
        r"(slot=[^;\n]*);(cores=[^;\n]*)", r"\2;\1", line)),
    "wait_repeated": edit_first(",submit,", lambda line: line.replace("wait=", "wait=9.5;wait=")),
    "wait_missing": edit_first(",submit,", lambda line: re.sub(r"wait=[^;\n]*;?", "", line)),
    "slot_missing": edit_first(",schedule_ok,", lambda line: re.sub(r"slot=[^;\n]*;?", "", line)),
    # the key still once per line, but not at the line's start
    "wait_key_prefixed": edit_first(",submit,", lambda line: line.replace("wait=", "xwait=")),
}

# a slot off the scheduler's grammar, that only conftest's `Slot.decode`
# reads: both readers raise the same error naming its schedule_ok line
slot_only_decode_reads = edit_first(",schedule_ok,", lambda line: line.replace(
    "slot=n", "slot=n+"))

# EDITS that both readers reject, naming the first line the edit changes
ERROR_EDITS = {"percent_escaped_ids", "percent_escaped_attrs", "percent_escaped_values",
               "slot_only_decode_reads"}


EDITS = {
    "plain": lambda lines: lines,
    "no_final_newline": lambda lines: lines[:-1] + [lines[-1].rstrip("\n")],
    "blank_lines": lambda lines: ["\n"] + lines[:4] + ["\n", "\n"] + lines[4:] + ["\n"],
    "equal_times_reversed": shuffled_equal_times,
    "duplicates": duplicated,
    "line_moved_ahead": moved_ahead,
    "percent_escaped_ids": escaped_ids,
    "percent_escaped_attrs": escaped_attrs,
    "percent_escaped_values": escaped_values,
    # a piece with two "=": its value holds the second one
    "attr_value_holds_eq": edit_first(",schedule_ok,", lambda line: line.replace(
        "cores=", "cores=1=")),
    **ATTR_EDITS,
    "slot_only_decode_reads": slot_only_decode_reads,
    # errors now (see DAMAGE); kept here so every line ending is compared too
    "nan_time": non_finite("nan"),
    "inf_time": non_finite("inf"),
    "empty": lambda lines: [],
    "only_blank_lines": lambda lines: ["\n", "\n"],
}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_same_table_as_reference(plain_log, tmp_path, edit, newline):
    lines = EDITS[edit](plain_log)
    path = write(tmp_path, "".join(lines), newline=newline)
    assert_same_outcome(path)
    if edit in ERROR_EDITS:
        with pytest.raises(ProfileParseError) as err:
            TaskTable.from_log(path)
        assert err.value.line_no == first_changed(plain_log, lines)


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
    # as many "=" as pieces, but one piece holds two and one none
    "bare_attr_beside_two_eq": lambda lines: (
        lines[:4] + [lines[4].rstrip("\n") + ";bare;x=1=2\n"] + lines[5:]),
    "bad_time": non_finite("12:00"),
    "nan_time": non_finite("nan"),
    "inf_time": non_finite("inf"),
    "bad_wait": lambda lines: [line.replace("wait=", "wait=x", 1) for line in lines],
    "nan_wait": lambda lines: [re.sub("wait=[^;\n]*", "wait=nan", line) for line in lines],
    "inf_wait": lambda lines: [re.sub("wait=[^;\n]*", "wait=inf", line) for line in lines],
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


def test_bad_slot_names_its_schedule_ok_line(plain_log, tmp_path):
    # slots are read in time order, but the error names the first bad
    # slot in the file: here the earlier line holds the later time
    sched = [i for i, line in enumerate(plain_log) if ",schedule_ok," in line]
    i, j = sched[0], sched[-1]
    t_j = float(plain_log[j].split(",")[0])
    lines = replaced(plain_log, i, with_time(plain_log[i], f"{t_j + 1:.6f}"))
    lines = [line.replace("slot=n", "slot=m", 1) if k in (i, j) else line
             for k, line in enumerate(lines)]
    path = write(tmp_path, "".join(lines))
    assert_same_outcome(path)
    with pytest.raises(ProfileParseError) as err:
        TaskTable.from_log(path)
    assert err.value.line_no == i + 1
    slot = re.search(r"slot=([^;\n]*)", lines[i])[1]
    assert err.value.reason == f"bad slot encoding: {slot!r}"
    # a damaged log whose every slot is off the grammar: the first schedule_ok
    path = write(tmp_path, "".join(DAMAGE["bad_slot_node"](plain_log)))
    with pytest.raises(ProfileParseError) as err:
        TaskTable.from_log(path)
    assert err.value.line_no == i + 1


@pytest.mark.parametrize("damage,reason", [
    ("bad_wait", "could not convert string to float: 'x0.010000'"),
    ("nan_wait", "wait 'nan' is not finite"),
    ("inf_wait", "wait 'inf' is not finite"),
])
def test_bad_wait_names_the_first_submit_line(plain_log, tmp_path, damage, reason):
    path = write(tmp_path, "".join(DAMAGE[damage](plain_log)))
    load_profile(path)  # every line decodes; only the table reads the wait
    first = next(i for i, line in enumerate(plain_log) if ",submit," in line)
    with pytest.raises(ProfileParseError) as err:
        TaskTable.from_log(path)
    assert (err.value.line_no, err.value.reason) == (first + 1, reason)


def test_bare_attr_names_its_line(plain_log, tmp_path):
    path = write(tmp_path, "".join(DAMAGE["bare_attr"](plain_log)))
    with pytest.raises(ProfileParseError) as err:
        TaskTable.from_log(path)
    assert err.value.line_no == 5
    assert err.value.reason == "bad attr 'bare'"


BLOCK = 1 << 16  # characters `from_log` reads at a time, before ending the line


@pytest.fixture(scope="module")
def big_log(tmp_path_factory):
    """Lines of a 1024-task run's log: over four reading blocks."""
    from pilotsim import ExperimentConfig

    cfg = zero_overhead(ExperimentConfig())
    cfg.workload.n_tasks = 1024
    cfg.workload.duration_s = 5.0
    cfg.pool.autosize = 1
    cfg.backend.max_rate_hz = None
    cfg.backend.fd_limit = 65536
    cfg.backend.fd_reserved = 0
    rep = str(tmp_path_factory.mktemp("big") / "rep")
    run_pilot(cfg, run_dir=rep, seed=5)
    with open(os.path.join(rep, "profile.log"), encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    assert sum(map(len, lines)) > 4 * BLOCK
    return lines


def in_block_3(lines) -> int:
    """Index of a line that starts past the second block boundary: a block
    ends within one line of a multiple of BLOCK, and lines are far shorter."""
    return int(np.searchsorted(np.cumsum([len(line) for line in lines]), 2.5 * BLOCK))


# (lines, index in block 3) -> lines edited at that index
CROSS_BLOCK = {
    "escaped_ids": lambda lines, i: (
        lines[:i] + [line.replace("task.", "task%2C") for line in lines[i:]]),
    "garbage_line": lambda lines, i: lines[:i] + ["not an event\n"] + lines[i:],
    "bare_attr": lambda lines, i: replaced(lines, i, lines[i].rstrip("\n") + ";bare\n"),
    "nan_time": lambda lines, i: replaced(lines, i, with_time(lines[i], "nan")),
    "bad_time": lambda lines, i: replaced(lines, i, with_time(lines[i], "12:00")),
    "seven_fields": lambda lines, i: replaced(lines, i, lines[i].rstrip("\n") + ",x\n"),
    # an escape in block 1 and a garbage line in block 3: the escape is the error
    "escape_then_garbage": lambda lines, i: (
        escaped_ids(lines[:i]) + ["not an event\n"] + lines[i:]),
    "slot_only_decode_reads": slot_only_decode_reads,
    **ATTR_EDITS,  # read, not raised as a ProfileParseError
}


@pytest.mark.parametrize("edit", sorted(CROSS_BLOCK))
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_edit_past_the_second_block(big_log, tmp_path, edit, newline):
    i = in_block_3(big_log)
    lines = CROSS_BLOCK[edit](big_log, i)
    path = write(tmp_path, "".join(lines), newline=newline)
    assert_same_outcome(path)
    if edit not in ATTR_EDITS:
        with pytest.raises(ProfileParseError) as err:
            TaskTable.from_log(path)
        # counted across the blocks: line i + 1, or past it, but for the
        # escape in block 1
        assert err.value.line_no == first_changed(big_log, lines)
        assert (err.value.line_no > i) == (edit != "escape_then_garbage")


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
    assert main(["analyze", run_dir]) == 0
    assert main(["report", run_dir]) == 0
    assert events == []
    # a "%" is off the log alphabet: `analyze` exits 3 naming its first
    # line, and both readers raise that error
    log = os.path.join(run_dir, "rep_000", "profile.log")
    with open(log, encoding="utf-8") as fh:
        text = fh.read()
    with open(log, "w", encoding="utf-8") as fh:
        fh.write(text.replace("task.000003", "task%2C000003"))
    line_no = text[:text.index("task.000003")].count("\n") + 1
    capsys.readouterr()
    assert main(["analyze", run_dir]) == 3
    assert f"{log}:{line_no}: '%' is off the log alphabet" in capsys.readouterr().err
    for read in (TaskTable.from_log, load_profile):
        with pytest.raises(ProfileParseError) as err:
            read(log)
        assert (err.value.line_no, err.value.reason) == (line_no, "'%' is off the log alphabet")


def test_run_events_are_read_as_lines(quick_cfg, tmp_path, monkeypatch):
    cfg = quick_cfg(workload__n_tasks=24, workload__cores_per_task=2)
    res = run_pilot(cfg, seed=6)  # in memory: the events are the sink's text
    run_pilot(cfg, run_dir=str(tmp_path / "rep"), seed=6)
    events = count_calls(monkeypatch, Event, "decode")
    table = TaskTable.from_events(res.events)
    ttx = compute_ttx(res.events)
    assert events == []
    saved = TaskTable.from_log(str(tmp_path / "rep" / "profile.log"))
    assert_same_table(table, saved)
    assert ttx == compute_ttx(saved)


def test_run_events_are_read_in_blocks(quick_cfg, tmp_path, monkeypatch):
    # a run's text is read in blocks, as `from_log` reads it: no line list
    # is built, and none is left on the events afterwards
    cfg = quick_cfg(workload__n_tasks=4096, pool__autosize=1)
    rep = str(tmp_path / "rep")
    in_memory, saved = run_pilot(cfg, seed=1), run_pilot(cfg, run_dir=rep, seed=1)
    for name in ("__iter__", "__len__", "__getitem__"):  # only `blocks()` is read
        monkeypatch.setattr(LogEvents, name,
                            lambda self, *a, name=name: pytest.fail(f"{name} called"))
    assert compute_ttx(in_memory.events) == compute_ttx(saved.events)
    tracemalloc.start()
    try:
        compute_ttx(saved.events)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < os.path.getsize(os.path.join(rep, "profile.log")) / 20


def test_reader_heap_peak_is_bounded_by_the_log(quick_cfg, tmp_path):
    # of each line the reader keeps its time, code and id, and of a Task
    # submit or schedule_ok line its attributes; each whole-log list is
    # dropped once it is concatenated or read
    cfg = quick_cfg(workload__n_tasks=4096, pool__autosize=1)
    rep = str(tmp_path / "rep")
    run_pilot(cfg, run_dir=rep, seed=1)
    path = os.path.join(rep, "profile.log")
    ratio = traced_peak(lambda: TaskTable.from_log(path)) / os.path.getsize(path)
    assert ratio <= 1.3, ratio


def test_patterns_compile_on_python_3_10():
    # pyproject.toml allows Python 3.10, whose `re` has no possessive
    # quantifiers and no atomic groups: a module using them fails to import
    import importlib
    import pkgutil

    import pilotsim

    newer = re.compile(r"(?<!\\)[*+?}]\+|\(\?>")
    for info in pkgutil.iter_modules(pilotsim.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"pilotsim.{info.name}")
            for name, value in vars(module).items():
                if isinstance(value, re.Pattern):
                    assert not newer.search(value.pattern), f"{info.name}.{name}"


def test_len_and_last_event_keep_no_lines(quick_cfg, tmp_path):
    # what the benchmark reads of every run: the line count and the last
    # event; neither leaves the log's lines behind
    cfg = quick_cfg(workload__n_tasks=4096, pool__autosize=1)
    rep = str(tmp_path / "rep")
    res = run_pilot(cfg, run_dir=rep, seed=1)
    path = os.path.join(rep, "profile.log")
    tracemalloc.start()
    try:
        n, last = len(res.events), res.events[-1]
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < os.path.getsize(path) / 20
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert n == len(lines) and last.name == "pilot_stop"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_log_events_split_lines_as_load_profile(plain_log, tmp_path, newline):
    # a blank line, and a form feed in an attribute value: `str.splitlines`
    # would split the line there, but a profile's only line break is a newline
    lines = edit_first(",schedule_ok,", lambda line: line.replace("cores=", "cores=\x0c"))(
        plain_log[:3] + ["\n"] + plain_log[3:], 4)
    path = write(tmp_path, "".join(lines), newline=newline)
    events, want = LogEvents(path), load_profile(path)
    assert any("\x0c" in e.attrs.get("cores", "") for e in want)
    assert list(events) == want and len(events) == len(want) == len(plain_log)
    assert [events[i] for i in range(-len(want), len(want))] == want + want


@pytest.mark.parametrize("saved", [False, True], ids=["in memory", "saved"])
def test_log_events_index_and_iterate_like_a_list(quick_cfg, tmp_path, saved):
    rep = str(tmp_path / "rep") if saved else None
    res = run_pilot(quick_cfg(workload__n_tasks=24), run_dir=rep, seed=3)
    events = res.events
    if saved:
        with open(os.path.join(rep, "profile.log"), encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = "".join(events.blocks())
    want = [Event.decode(line) for line in text.splitlines()]
    assert list(events) == want and len(events) == len(want)
    for i in (0, 1, 17, len(want) - 1, -1, -len(want)):
        assert events[i] == want[i]
    assert events[3:9] == want[3:9] and events[::-5] == want[::-5]
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            events[i]


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
    full = traced_peak(lambda: reference_table(load_profile(path)))
    assert lean < full / 2
