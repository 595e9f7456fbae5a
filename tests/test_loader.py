"""`TaskTable.from_log` reads a saved profile log into the same table as
the per-`Event` oracle `reference_log_table(path)`, field for field, and
fails on a damaged log with exactly the oracle's error, which is
`load_profile`'s for a line it rejects; `TaskTable.from_events` reads a
run's events through the same reader."""

import io
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotsim import ProfileParseError, TaskTable, compute_ttx, load_profile, run_pilot
from pilotsim.profiler import BLOCK_CHARS, Event, LogEvents
from pilotsim.cli import main, run_experiment

from conftest import (assert_same_table, quick_config, reference_log_table, reference_table,
                      zero_overhead)


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
    # a lone surrogate in `text` is written as the byte it escapes
    path = str(tmp_path / "profile.log")
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
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


def not_utf8(line: str) -> str:
    # a 0xff byte, which UTF-8 never holds, in the line's id
    return line[:15] + "\udcff" + line[15:]


def edit_first(marker, edit):
    """(lines, start=0) -> lines with `edit` applied to the first line at
    or past index `start` that holds `marker`."""
    def apply(lines, start=0):
        i = next(i for i in range(start, len(lines)) if marker in lines[i])
        return replaced(lines, i, edit(lines[i]))
    return apply


# a wait or slot key that does not lead its Task line's attributes once:
# off the table's grammar, an error naming the line
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
               "slot_only_decode_reads", "attr_value_holds_eq", *ATTR_EDITS}


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
    # a piece with two "=": off the log's grammar
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


# edits of a line's attribute pieces: each reorders, repeats, drops or
# prefixes a wait or slot key, or adds a piece with no "=" or two
PIECE_EDITS = {
    "rotated": lambda p: p[1:] + p[:1],
    "wait_first": lambda p: ["wait=1.5"] + p,
    "wait_last": lambda p: p + ["wait=1.5"],
    "slot_first": lambda p: ["slot=n0c0"] + p,
    "slot_last": lambda p: p + ["slot=n0c0"],
    "keys_dropped": lambda p: [x for x in p if x.partition("=")[0] not in ("wait", "slot")],
    "first_key_prefixed": lambda p: ["x" + x for x in p[:1]] + p[1:],
    "bare_piece": lambda p: p + ["bare"],
    "two_eq_piece": lambda p: p[:1] + ["x=1=2"] + p[1:],
}


def edit_pieces(line: str, edit: str) -> str:
    head, attrs = line.rstrip("\n").rsplit(",", 1)
    pieces = PIECE_EDITS[edit](attrs.split(";") if attrs else [])
    return f"{head},{';'.join(pieces)}\n"


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(
    st.sampled_from([",Task,", ",submit,", ",schedule_ok,", ""]),
    st.integers(0, 1000), st.sampled_from(sorted(PIECE_EDITS))), min_size=1, max_size=3))
def test_attribute_edits_give_the_reference_outcome(plain_log, tmp_path_factory, edits):
    # Task submit and schedule_ok lines, other Task lines and any line
    lines = list(plain_log)
    for marker, k, edit in edits:
        hits = [i for i, line in enumerate(lines) if marker in line]
        i = hits[k % len(hits)]
        lines[i] = edit_pieces(lines[i], edit)
    assert_same_outcome(write(tmp_path_factory.mktemp("edits"), "".join(lines)))


def test_the_first_of_two_kinds_of_damage_is_named(plain_log, tmp_path):
    # a bad wait, then a "%" on a later line: the wait's line is named,
    # though the "%" fails its block first
    i = next(i for i, line in enumerate(plain_log) if ",submit," in line)
    lines = replaced(plain_log, i, plain_log[i].replace("wait=", "wait=x", 1))
    j = len(lines) - 2
    lines = replaced(lines, j, lines[j].replace(",", "%,", 1))
    path = write(tmp_path, "".join(lines))
    assert_same_outcome(path)
    with pytest.raises(ProfileParseError) as err:
        TaskTable.from_log(path)
    assert err.value.line_no == i + 1 < j + 1
    assert err.value.reason.startswith("could not convert string to float")


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
    "not_utf8": lambda lines: replaced(lines, 6, not_utf8(lines[6])),
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


def first_schedule_ok(lines) -> int:
    return next(i for i, line in enumerate(lines) if ",schedule_ok," in line)


def with_examples(**texts):
    """Hypothesis examples of the argument named by each keyword, one per text."""
    def apply(test):
        for name, values in texts.items():
            for value in values:
                test = example(**{name: value})(test)
        return test
    return apply


# texts of numbers, as times and waits are read: integer parts of 1, 8, 9
# and 16 digits, and texts that `float` reads in other forms or rejects
NUMBER_TEXTS = st.one_of(
    st.from_regex(r"[+-]?[0-9]{0,17}(\.[0-9]{0,8})?([eE][+-]?[0-9]{1,2})?", fullmatch=True),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
number_examples = with_examples(text=[
    "7.250000", "12345678.000001", "123456789.000001", "1234567890123456.000000",
    "-0.000000", "+1.000000", "1e2", " 75.000000", "1_0.5", ".5", "", "nan", "inf",
    "75:012000"])


@settings(max_examples=150, deadline=None)
@given(text=NUMBER_TEXTS)
@number_examples
def test_time_text_gives_the_reference_outcome(plain_log, tmp_path_factory, text):
    # the time of a task's first line: a table column and the task's row
    i = first_schedule_ok(plain_log)
    lines = replaced(plain_log, i, with_time(plain_log[i], text))
    assert_same_outcome(write(tmp_path_factory.mktemp("time"), "".join(lines)))


@settings(max_examples=150, deadline=None)
@given(text=NUMBER_TEXTS)
@number_examples
def test_wait_text_gives_the_reference_outcome(plain_log, tmp_path_factory, text):
    # the wait of the first submit line, read as the times are
    i = next(i for i, line in enumerate(plain_log) if ",submit," in line)
    line = re.sub(r"wait=[^;\n]*", lambda m: f"wait={text}", plain_log[i], count=1)
    assert_same_outcome(write(tmp_path_factory.mktemp("wait"), "".join(
        replaced(plain_log, i, line))))


@settings(max_examples=100, deadline=None)
@given(t=st.floats(0, 1e8, exclude_max=True))
def test_fixed_point_time_reads_as_float(plain_log, tmp_path_factory, t):
    i = first_schedule_ok(plain_log)
    text = f"{t:.6f}"
    path = write(tmp_path_factory.mktemp("exact"), "".join(
        replaced(plain_log, i, with_time(plain_log[i], text))))
    table = TaskTable.from_log(path)
    assert table.t_sched[table.uids.index(plain_log[i].split(",")[2])] == float(text)


def renamed(name):
    """lines -> lines with the id of task i named `name(i)`."""
    return lambda lines: [re.sub(r"task\.(\d+)", lambda m: name(int(m[1])), line)
                          for line in lines]


def done_attrs(text):
    """lines -> lines with the attributes of the first done line `text`."""
    return edit_first(",done,", lambda line: f"{line.rsplit(',', 1)[0]},{text}\n")


def only_lead(lines):
    """lines -> lines whose Task submit and schedule_ok attributes are only
    their wait or slot, so that the value ends at the newline."""
    return [re.sub(r",((?:wait|slot)=[^;\n]*);[^\n]*", r",\1", line) for line in lines]


# ids of each length and of mixed lengths, of several UTF-8 widths, equal
# in their first 8, 16, 32 or 64 bytes or but for trailing NULs, or holding
# the attribute marks; kinds and names near those the table reads; and
# attribute texts on and off the grammar
SHAPES = {
    **{f"ids_of_{k}_bytes": renamed(lambda i, k=k: (f"{i:x}" * k)[:k]) for k in range(1, 73)},
    "ids_non_ascii": renamed(lambda i: f"tâche·{i}·\U0001f642"),
    "ids_differ_past_byte_8": renamed(lambda i: f"abcdefgh{i:x}"),
    "ids_differ_past_byte_16": renamed(lambda i: f"abcdefghijklmnop{i:x}"),
    "ids_differ_past_byte_32": renamed(lambda i: f"{'abcdefgh' * 4}{i:x}"),
    "ids_differ_past_byte_64": renamed(lambda i: f"{'abcdefgh' * 8}{i:x}"),
    "ids_differ_by_trailing_nuls": renamed(lambda i: "a" + "\0" * i),
    "ids_of_mixed_lengths": renamed(lambda i: f"{i:x}" * (1 + 7 * i)),
    # an 80-byte id among short ones, and last a Task line whose id and
    # component are short: each id's words are read inside the id
    "long_id_then_short_last_line": lambda lines: renamed(
        lambda i: "x" * 80 if i == 0 else f"t{i}")(lines) + [
        f"{lines[-1].split(',', 1)[0]},Task,t1,,done,\n"],
    "ids_hold_eq": renamed(lambda i: f"task={i}"),
    "ids_hold_semicolon": renamed(lambda i: f"task;{i}"),
    # kinds and names one byte off those the table reads, in their first,
    # second or third word, or one byte shorter
    **{f"field_{old}_{new}": lambda lines, old=old, new=new: [
        line.replace(f",{old},", f",{new},") for line in lines] for old, new in (
            ("Task", "Tasj"), ("Task", "Task\0"), ("DvmJob", "DvmJoc"), ("done", "Done"),
            ("done", "done\0"), ("schedule_ok", "schedule_oj"),
            ("sending_launch_msg", "sending_launch_msh"), ("sending_launch_msg", "sending_launch_ms"),
            ("workload_received", "workload_receivee"))},
    **{f"attrs_{name}": done_attrs(text) for name, text in {
        "trailing_semicolon": "a=b;", "leading_semicolon": ";a=b", "two_eq": "a=b=c",
        "no_eq": "ab", "empty_values": "a=;b=", "lone_eq": "="}.items()},
    "waits_and_slots_alone": only_lead,
    "waits_and_slots_alone_and_empty": lambda lines: [
        re.sub(r"(wait|slot)=[^\n]*", r"\1=", line) for line in only_lead(lines)],
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_id_and_attribute_shapes_give_the_reference_outcome(plain_log, tmp_path, shape):
    assert_same_outcome(write(tmp_path, "".join(SHAPES[shape](plain_log))))


def colliding_ids() -> tuple[str, str]:
    """Two ids of 16 printable bytes that the reader's id hash gives one
    value. The hash of an id of n bytes, read as little-endian 8-byte words
    w1..wk (zero past the id), is (..((n m ^ w1) m ^ w2) m .. ^ wk) m modulo
    2**64; of 16 bytes (f, s) it is ((16m ^ f) m ^ s) m, so (f, s) and
    (g, s ^ (16m ^ f) m ^ (16m ^ g) m) collide: search pairs of first words
    for a second word that is printable."""
    from pilotsim.analysis import _MIX

    m, full = int(_MIX), (1 << 64) - 1

    def hashed(text: bytes) -> int:
        h = len(text) * m & full
        for j in range(0, len(text), 8):
            h = (h ^ int.from_bytes(text[j:j + 8], "little")) * m & full
        return h

    alphabet = bytes(c for c in range(0x20, 0x7f) if chr(c) not in ",;=%")
    rng = np.random.default_rng(0)
    firsts = [bytes(rng.choice(np.frombuffer(alphabet, np.uint8), 8)) for _ in range(200)]
    mixed = [((16 * m & full) ^ int.from_bytes(f, "little")) * m & full for f in firsts]
    second = int.from_bytes(b"abcdefgh", "little")
    pair = next((f + b"abcdefgh", g + other)
                for f, x in zip(firsts, mixed) for g, y in zip(firsts, mixed)
                for other in [(second ^ x ^ y).to_bytes(8, "little")]
                if f != g and all(c in alphabet for c in other))
    assert hashed(pair[0]) == hashed(pair[1]) and pair[0] != pair[1]
    return pair[0].decode(), pair[1].decode()


def test_ids_of_one_hash_are_told_apart(plain_log, tmp_path):
    # two tasks whose ids share the hash that groups a block's ids: each
    # keeps its own row
    ids = colliding_ids()
    lines = renamed(lambda i: ids[i] if i < 2 else f"task.{i:06d}")(plain_log)
    assert_same_outcome(write(tmp_path, "".join(lines)))
    assert set(ids) <= set(TaskTable.from_log(str(tmp_path / "profile.log")).uids)


def test_run_events_error_names_the_saved_log(quick_cfg, tmp_path):
    rep = str(tmp_path / "rep")
    res = run_pilot(quick_cfg(), run_dir=rep, seed=1)
    path = os.path.join(rep, "profile.log")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    i = next(i for i, line in enumerate(lines) if ",submit," in line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(replaced(lines, i, lines[i].replace("wait=", "wait=x", 1)))
    with pytest.raises(ProfileParseError) as err:
        TaskTable.from_events(res.events)
    assert (err.value.path, err.value.line_no) == (path, i + 1)
    assert err.value.reason.startswith("could not convert string to float")


@pytest.fixture(scope="module")
def big_log(tmp_path_factory):
    """Lines of a 2048-task run's log: over four reading blocks. The tasks
    run in waves on 13 nodes, so schedule_ok and submit lines lie past the
    second block too."""
    from pilotsim import ExperimentConfig

    cfg = zero_overhead(ExperimentConfig())
    cfg.workload.n_tasks = 2048
    cfg.workload.duration_s = 5.0
    cfg.pool.nodes = 13
    cfg.backend.max_rate_hz = None
    cfg.backend.fd_limit = 65536
    cfg.backend.fd_reserved = 0
    rep = str(tmp_path_factory.mktemp("big") / "rep")
    run_pilot(cfg, run_dir=rep, seed=5)
    with open(os.path.join(rep, "profile.log"), encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    assert sum(map(len, lines)) > 4 * BLOCK_CHARS
    return lines


def in_block_3(lines) -> int:
    """Index of a line that starts past the second block boundary: a block
    ends within one line of a multiple of BLOCK_CHARS, and lines are far
    shorter."""
    return int(np.searchsorted(np.cumsum([len(line) for line in lines]), 2.5 * BLOCK_CHARS))


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
    "not_utf8": lambda lines, i: replaced(lines, i, not_utf8(lines[i])),
    # a garbage line before a line that is not UTF-8, in the same block: the
    # garbage is the error
    "garbage_then_not_utf8": lambda lines, i: (
        lines[:i] + ["not an event\n"] + replaced(lines, i + 5, not_utf8(lines[i + 5]))[i:]),
    **ATTR_EDITS,
}


@pytest.mark.parametrize("edit", sorted(CROSS_BLOCK))
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_edit_past_the_second_block(big_log, tmp_path, edit, newline):
    i = in_block_3(big_log)
    lines = CROSS_BLOCK[edit](big_log, i)
    path = write(tmp_path, "".join(lines), newline=newline)
    assert_same_outcome(path)
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
    ttx = compute_ttx(table)
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
    assert compute_ttx(TaskTable.from_events(in_memory.events)) == compute_ttx(
        TaskTable.from_events(saved.events))
    tracemalloc.start()
    try:
        compute_ttx(TaskTable.from_events(saved.events))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < os.path.getsize(os.path.join(rep, "profile.log")) / 20


@pytest.fixture(scope="module")
def guard_log(tmp_path_factory) -> str:
    """The path of a 4096-task run's log, which the reader's guards read."""
    rep = str(tmp_path_factory.mktemp("guard") / "rep")
    run_pilot(quick_config(workload__n_tasks=4096, pool__autosize=1), run_dir=rep, seed=1)
    return os.path.join(rep, "profile.log")


def test_reader_heap_peak_is_bounded_by_the_log(guard_log):
    # of each line the reader keeps its time, code and id, of a Task submit
    # line its wait and of a schedule_ok line its slot text; each whole-log
    # list is dropped once it is concatenated or read
    ratio = traced_peak(lambda: TaskTable.from_log(guard_log)) / os.path.getsize(guard_log)
    assert ratio <= 1.3, ratio


def test_reader_makes_no_python_call_per_line(guard_log):
    # the reader's passes run in numpy: Python-level calls (numpy's own
    # wrappers among them) come per block and per column, not per line
    with open(guard_log, encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
    calls = 0

    def count_call(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count_call)
    try:
        TaskTable.from_log(guard_log)
    finally:
        sys.setprofile(None)
    assert calls < n_lines / 10, (calls, n_lines)


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


LINE_DAMAGE = {
    "not_utf8": not_utf8,
    "percent": lambda line: line.replace(",", "%,", 1),
    "garbage": lambda line: "not an event\n",
    "bare_attr": lambda line: line.rstrip("\n") + ";bare\n",
    "two_eq_attr": lambda line: line.rstrip("\n") + ";x=1=2\n",
    "nan_time": lambda line: with_time(line, "nan"),
}


@pytest.mark.parametrize("damage", sorted(LINE_DAMAGE))
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_log_events_errors_name_their_line(plain_log, tmp_path, damage, newline):
    # a blank line before the damaged line: it is counted, not yielded
    k = 6  # the damaged line's index among the lines that are not blank
    lines = plain_log[:3] + ["\n"] + replaced(plain_log, k, LINE_DAMAGE[damage](
        plain_log[k]))[3:]
    path = write(tmp_path, "".join(lines), newline=newline)
    with pytest.raises(ProfileParseError) as err:
        load_profile(path)
    want = (err.value.line_no, err.value.reason)
    assert want[0] == k + 2
    reads = [(lambda: list(LogEvents(path)), path), (lambda: LogEvents(path)[k], path),
             (lambda: TaskTable.from_log(path), path)]
    if damage == "not_utf8":
        # `len` decodes no line but reads every byte; a run's in-memory
        # events are text, so there is no such damage to them
        reads.append((lambda: len(LogEvents(path)), path))
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        reads.append((lambda: list(LogEvents(io.StringIO(text, newline=None))), "<events>"))
    for read, name in reads:
        with pytest.raises(ProfileParseError) as err:
            read()
        assert (err.value.path, err.value.line_no, err.value.reason) == (name, *want)


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


def test_reader_memory_is_a_fraction_of_the_events(guard_log):
    lean = traced_peak(lambda: TaskTable.from_log(guard_log))
    full = traced_peak(lambda: reference_table(load_profile(guard_log)))
    assert lean < full / 2
