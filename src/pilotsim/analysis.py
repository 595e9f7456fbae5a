"""Offline metrics over profile logs: TTX, overheads, resource utilization.

Individual overheads are the time single runtime operations add to one
task; aggregated overheads combine all instances of an operation across
the workload, accounting for concurrency overlap. Two aggregation
semantics are reported side by side: the measure of the interval union,
and the span from first start to last end (the two differ as soon as
operations leave gaps).

Resource utilization partitions every resource unit's share of the
pilot's lifetime [pilot_start, pilot_stop] into eleven categories, from
agent-node reservation through startup, scheduling warmup, submission
wait, runtime slivers, payload execution, draining and teardown, down
to units that idle through the whole run (unused GPUs, spare cores).

Every metric derives from one table, and one reader builds it from
profile text: `TaskTable.from_log` feeds it a saved log in blocks of
whole lines of about `profiler.BLOCK_CHARS` characters, and
`TaskTable.from_events` feeds it the recorded lines of a run's events.
Beyond the rules of `Event.decode`, a Task submit's attributes start
with their one `wait=` and a Task schedule_ok's with their one `slot=`.
The reader makes one scan of each block's UTF-8 bytes, in numpy passes
that make no Python object per line: the scan finds the commas, newlines
and attribute marks that check the fields and end each wait and slot; a
time or wait of up to 8 integer digits and 6 decimals is parsed eight
digits at a time as exact integer microseconds; the kind and name are
coded by comparing 8-byte words and lengths; and the ids of a block are
sorted by a hash of their words and numbered once per run of equal
words. The slots are decoded column by column. A log that breaks a rule
is read again line by line to name its first bad line. The table holds
numpy columns with one row per task: the timestamp of each lifecycle
event, NaN where the event is missing. It also holds the run marks, and
one row per (task, resource unit) pair that expands each task's slot.
TTX and the overhead intervals are column arithmetic; an interval union
is a sort plus a running maximum. Utilization builds one set of weighted
category segments and keeps them on its breakdown, and the timeline
reads them from there: a task's segments count once per unit it held,
the warmup and draining gaps come from each unit's visits in schedule
order, and units that no task used are counted in bulk, so the cost
grows with the number of tasks and not with the pool. The timeline
integrates each category's coverage at the bucket edges. Every metric
takes the table, and the timeline takes the utilization breakdown.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass, field
from itertools import count
from typing import Optional

import numpy as np

from .core import TaskSpec
from .profiler import (
    DVM_JOB,
    EV_AGENT_READY,
    EV_DONE,
    EV_INIT_COMPLETE,
    EV_PILOT_STOP,
    EV_RUNNING,
    EV_SCHEDULE_OK,
    EV_SENDING_LAUNCH_MSG,
    EV_SUBMIT,
    EV_TASK_FAIL,
    EV_UNSCHEDULE,
    EV_WORKLOAD_RECEIVED,
    TASK,
    Event,
    LogEvents,
    ProfileParseError,
)
from .scheduler import ResourcePool, slot_units

# utilization categories, in reporting order
CAT_AGENT_NODES = "agent_nodes"
CAT_PILOT_STARTUP = "pilot_startup"
CAT_WARMUP = "warmup"
CAT_PREPARE_EXECUTION = "prepare_execution"
CAT_EXEC_RP = "exec_rp"
CAT_EXEC_DVM = "exec_dvm"
CAT_EXEC_CMD = "exec_cmd"
CAT_UNSCHEDULE = "unschedule"
CAT_DRAINING = "draining"
CAT_PILOT_TERMINATION = "pilot_termination"
CAT_IDLE = "idle"

CATEGORIES = [
    CAT_AGENT_NODES,
    CAT_PILOT_STARTUP,
    CAT_WARMUP,
    CAT_PREPARE_EXECUTION,
    CAT_EXEC_RP,
    CAT_EXEC_DVM,
    CAT_EXEC_CMD,
    CAT_UNSCHEDULE,
    CAT_DRAINING,
    CAT_PILOT_TERMINATION,
    CAT_IDLE,
]


class IncompleteRun(ValueError):
    """The profile log does not describe a completed run."""


def _union_span(start: np.ndarray, end: np.ndarray) -> tuple[float, float]:
    """(union_s, span_s) of intervals given as start and end arrays."""
    if not len(start):
        return (0.0, 0.0)
    order = np.argsort(start, kind="stable")
    start, end = start[order], end[order]
    reach = np.maximum.accumulate(end)
    # a block of overlapping (or touching) intervals ends where the next
    # start lies beyond everything reached so far
    new_block = np.empty(len(start), dtype=bool)
    new_block[0] = True
    np.greater(start[1:], reach[:-1], out=new_block[1:])
    firsts = np.flatnonzero(new_block)
    lasts = np.append(firsts[1:] - 1, len(start) - 1)
    union = float(np.sum(reach[lasts] - start[firsts]))
    return (union, float(reach[-1] - start[0]))


@dataclass
class OverheadStats:
    union_s: float = 0.0
    span_s: float = 0.0
    mean_s: float = 0.0
    stddev_s: float = 0.0
    min_s: float = 0.0
    max_s: float = 0.0
    n: int = 0

    @classmethod
    def from_arrays(cls, start: np.ndarray, end: np.ndarray) -> "OverheadStats":
        if not len(start):
            return cls()
        union, span = _union_span(start, end)
        lengths = end - start
        return cls(
            union_s=union,
            span_s=span,
            mean_s=float(lengths.mean()),
            stddev_s=float(lengths.std()),
            min_s=float(lengths.min()),
            max_s=float(lengths.max()),
            n=len(lengths),
        )


@dataclass
class OverheadReport:
    components: dict[str, OverheadStats]
    joint_union_s: float = 0.0


@dataclass
class UtilizationBreakdown:
    resource_seconds: dict[str, float]
    percents: dict[str, float]
    window_s: float
    # per category, the (start, end, weight) arrays of its non-empty segments
    segments: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        compare=False, repr=False)


# -- the task table -----------------------------------------------------------

# (entity kind, event name) -> task column holding the event's timestamp
_COLUMNS = {
    TASK: {
        EV_SCHEDULE_OK: "t_sched",
        EV_SUBMIT: "t_submit",
        EV_RUNNING: "t_run",
        EV_DONE: "t_done",
        EV_TASK_FAIL: "t_fail",
        EV_UNSCHEDULE: "t_unschedule",
    },
    DVM_JOB: {
        EV_INIT_COMPLETE: "t_init",
        EV_SENDING_LAUNCH_MSG: "t_sending",
        EV_RUNNING: "t_dvm_run",
    },
}
_MARKS = {
    EV_AGENT_READY: "t_ready",
    EV_WORKLOAD_RECEIVED: "t_received",
    EV_PILOT_STOP: "t_stop",
}

# `_read` codes a line as kind * _N_NAMES + name: kind 0 for Task, 1 for
# DvmJob, 2 for any other; name 0 for any name the table does not read
_KIND_CODE = {TASK: 0, DVM_JOB: 1}
_NAME_CODE = {name: i for i, name in enumerate(
    dict.fromkeys([*_COLUMNS[TASK], *_COLUMNS[DVM_JOB], *_MARKS]), start=1)}
_N_NAMES = len(_NAME_CODE) + 1
_CODE_FIELD = {_KIND_CODE[kind] * _N_NAMES + _NAME_CODE[name]: col
               for kind, cols in _COLUMNS.items() for name, col in cols.items()}
_CODE_FIELD.update({2 * _N_NAMES + _NAME_CODE[name]: m for name, m in _MARKS.items()})
_SCHED, _SUBMIT = _NAME_CODE[EV_SCHEDULE_OK], _NAME_CODE[EV_SUBMIT]  # of Task lines
_LEAD = {EV_SUBMIT: "wait", EV_SCHEDULE_OK: "slot"}  # the key leading a Task line's attributes

# `_read_block` reads a block's UTF-8 bytes as little-endian 8-byte words
# (numpy 1.x promotes uint64 with a Python int to float64, so every operand
# of a word is a uint64)
_U = np.uint64
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=_U)  # a word's first k bytes
_ZEROS = _U(0x3030303030303030)  # eight ASCII "0"
_PAD = 32  # bytes around a block: a word read at a field's start stays in the buffer
_FRONT, _BACK = "\n" * _PAD, "\0" * _PAD
_MIX = _U(0x9E3779B97F4A7C15)  # an odd multiplier that spreads an id's words over its hash


def _word(text: str, at: int = 0) -> np.uint64:
    """The word of bytes at..at+7 of `text`, zero past its end."""
    return np.frombuffer(text.encode()[at:at + 8].ljust(8, b"\0"), "<u8")[0]


# the names `_NAME_CODE` reads, in order of their first words, which differ
_NAMES = sorted(_NAME_CODE, key=_word)
_NAME_WORDS = np.array([[_word(name, 8 * j) for name in _NAMES] for j in range(3)], dtype=_U)
_NAME_SIZE = np.array(list(map(len, _NAMES)))
_NAME_CODES = np.array([_NAME_CODE[name] for name in _NAMES], dtype=np.int8)


def _eight_digits(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each word holds eight ASCII digits, and their value with
    its first byte as the leading digit: the SWAR parse of Langdale and
    Lemire (Parsing Gigabytes of JSON per Second, VLDB J. 2019)."""
    high = _U(0xF0F0F0F0F0F0F0F0)
    ok = ((w & high) == _ZEROS) & (((w + _U(0x0606060606060606)) & high) == _ZEROS)
    w = w - _ZEROS
    w = w * _U(10) + (w >> _U(8))  # two-digit values in bytes 0, 2, 4 and 6
    pairs = _U(0x000000FF000000FF)
    w = ((w & pairs) * _U(100 + (1000000 << 32))
         + ((w >> _U(16)) & pairs) * _U(1 + (10000 << 32))) >> _U(32)
    return ok, w


def _gather(a: np.ndarray, start: np.ndarray, stop: np.ndarray) -> bytes:
    """The bytes of `a` in [start, stop) of each range, none of them empty,
    joined in order."""
    at = np.ones(int((stop - start).sum()), dtype=np.intp)
    at[np.cumsum(stop[:-1] - start[:-1])] = start[1:] - stop[:-1] + 1  # the jump to a range
    at[:1] = start[:1]
    return a[np.cumsum(at, out=at)].tobytes()


def _id_numbers(index: defaultdict, a: np.ndarray, words: np.ndarray, start: np.ndarray,
                size: np.ndarray) -> np.ndarray:
    """The number `index` gives the id in each range of `a`, which `words`
    views and a comma, which an id never holds, follows. The rows are
    sorted by a hash of each id's length and words, and each run of rows
    whose ids have the same length and words is looked up once: ids of one
    hash whose rows interleave make more runs, so the numbers are exact.
    An id's words are read and kept only within it."""
    hashed, cols = size.astype(_U) * _MIX, []  # cols: word j of the ids reaching it, their rows
    for j in range(-(-int(size.max(initial=0)) // 8)):
        rows = np.flatnonzero(size > 8 * j)
        col = words[start[rows] + 8 * j] & _LOW[np.minimum(size[rows] - 8 * j, 8)]
        hashed[rows] = (hashed[rows] ^ col) * _MIX
        cols.append((rows, col))
    order = np.argsort(hashed)
    first = np.diff(size[order], prepend=-1) != 0  # where a run of equal ids starts
    for rows, col in cols:  # word j of each id in sorted order, zero past the id
        full = np.zeros(len(order), _U)
        full[rows] = col
        first[1:] |= (full := full[order])[1:] != full[:-1]
    start, size = start[order][first], size[order][first]
    ids = _gather(a, start, start + size + 1).decode().split(",")[:-1]
    number = np.empty_like(order)
    number[order] = np.fromiter(map(index.__getitem__, ids), np.intp)[np.cumsum(first) - 1]
    return number


def _padded(block: str) -> bytes:
    """The UTF-8 bytes of `block` and a newline, after `_PAD` newlines and
    before `_PAD` NUL bytes; UnicodeEncodeError, a ValueError, when `block`
    holds a byte that is not UTF-8, read as a lone surrogate."""
    return f"{_FRONT}{block}\n{_BACK}".encode()


def _lines(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The start, the five commas and the newline of each line that is not
    blank of the `_padded` bytes `a`, and where each "=" or ";" lies;
    ValueError unless each such line holds six fields. One scan of the
    text, and the newline before it, finds the commas and newlines and the
    "=" and ";" that attributes hold."""
    text = a[_PAD - 1:len(a) - _PAD]
    hit = text == ord(",")
    for c in b"\n=;":
        hit |= text == c
    mark = np.flatnonzero(hit) + (_PAD - 1)
    del hit
    byte = a[mark]
    sep = (byte == ord(",")) | (byte == ord("\n"))
    eq, mark, nl = mark[~sep], mark[sep], byte[sep] == ord("\n")
    del byte, sep
    # a newline right after a newline ends a blank line; each line that is
    # not blank holds five commas, then its newline
    kept = np.flatnonzero(~nl | (a[mark - 1] != ord("\n")))
    n, nl = len(kept) // 6, nl[kept]
    if len(kept) != 6 * n or np.count_nonzero(nl) != n or not nl[5::6].all():
        raise ValueError
    return mark[kept[0::6] - 1] + 1, mark[kept].reshape(n, 6).T, eq


def _times(buf: bytes, words: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The number in each range [start, stop) of `buf`: a text of 1 to 8
    digits, ".", 6 digits is read as exact integer microseconds, which
    rounds as `float` does; `float` reads any other. ValueError for a text
    `float` rejects, or a number that is not finite."""
    int_size = stop - 7 - start
    low = _LOW[np.clip(8 - int_size, 0, 8)]  # bytes before the number read as "0"
    fixed, whole = _eight_digits(words[stop - 15] & ~low | _ZEROS & low)
    ok_frac, frac = _eight_digits(words[stop - 8] & ~_LOW[2] | _ZEROS & _LOW[2])
    fixed &= ok_frac & ((words[stop - 7] & _LOW[1]) == _U(ord(".")))
    fixed &= (int_size >= 1) & (int_size <= 8)
    t = (whole * _U(10 ** 6) + frac).astype(float) / 1e6
    for i in np.flatnonzero(~fixed).tolist():
        t[i] = float(buf[start[i]:stop[i]].decode())
        if not math.isfinite(t[i]):
            raise ValueError
    return t


def _check_attributes(a: np.ndarray, eq: np.ndarray, c4: np.ndarray, end: np.ndarray) -> None:
    """ValueError unless each attribute piece holds one "=": in each line's
    attributes "=" and ";" alternate from an "=" to an "=", and attributes
    that are not empty hold one. `eq` is where each "=" or ";" lies."""
    line = np.searchsorted(end, eq)
    inside = eq > c4[line]
    line, eq = line[inside], a[eq[inside]] == ord("=")
    edge = np.ones(len(line) + 1, dtype=bool)  # before a line's first mark, after its last
    np.not_equal(line[1:], line[:-1], out=edge[1:-1])
    if (not (eq[edge[:-1]].all() and eq[edge[1:]].all())
            or (eq[1:] == eq[:-1])[~edge[1:-1]].any()
            or np.count_nonzero(edge[:-1]) != np.count_nonzero(end - c4 > 1)):
        raise ValueError


def _codes(words: np.ndarray, c0: np.ndarray, c1: np.ndarray, c3: np.ndarray,
           c4: np.ndarray) -> np.ndarray:
    """The (kind, name) code of each line, by the words and lengths of its
    kind and name fields."""
    size = c1 - c0 - 1
    word = words[c0 + 1] & _LOW[np.minimum(size, 8)]
    kind = np.full(len(c0), 2, dtype=np.int8)
    for name, k in _KIND_CODE.items():
        kind[(size == len(name)) & (word == _word(name))] = k
    size = c4 - c3 - 1
    name = [words[c3 + 1 + 8 * j] & _LOW[np.clip(size - 8 * j, 0, 8)] for j in range(3)]
    at = np.minimum(_NAME_WORDS[0].searchsorted(name[0]), len(_NAMES) - 1)
    found = _NAME_SIZE[at] == size
    for j, word in enumerate(name):
        found &= _NAME_WORDS[j][at] == word
    return kind * _N_NAMES + np.where(found, _NAME_CODES[at], 0).astype(np.int8)


def _lead(a: np.ndarray, words: np.ndarray, eq: np.ndarray, c4: np.ndarray, end: np.ndarray,
          key: str) -> tuple[np.ndarray, np.ndarray]:
    """Where the value of `key` starts and ends in the attributes of each
    line, which lie between its last comma `c4` and its newline `end`:
    ValueError unless they start with their one `key=`. A value ends at the
    first ";" past its "=", or at the newline; `eq` is where each "=" or
    ";" lies, and `_check_attributes` has checked that they alternate."""
    lead = f"{key}="
    if (((words[c4 + 1] & _LOW[len(lead)]) != _word(lead)).any()
            or f";{lead}".encode() in _gather(a, c4 + 1, end + 1)):
        raise ValueError
    start = c4 + 1 + len(lead)
    return start, np.minimum(np.append(eq, len(a))[np.searchsorted(eq, start)], end)


def _read_block(buf: bytes, index: defaultdict) -> tuple:
    """Of each line that is not blank of a `_padded` block: its time and
    (kind, name) code, and the number `index` gives the id of a Task or
    DvmJob line; with the wait of each Task submit line, and the slots of
    the Task schedule_ok lines as one text, each slot ending in a newline.
    ValueError when a line breaks a rule that `_raise_first_error` names,
    but for a slot off the grammar."""
    if b"%" in buf:
        raise ValueError
    a = np.frombuffer(buf, np.uint8)
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))  # word i: bytes i..i+7
    start, (c0, c1, c2, c3, c4, end), eq = _lines(a)
    _check_attributes(a, eq, c4, end)
    code = _codes(words, c0, c1, c3, c4)
    entity = np.flatnonzero(code < 2 * _N_NAMES)
    number = _id_numbers(index, a, words, c1[entity] + 1, c2[entity] - c1[entity] - 1)
    hit = code == _SUBMIT
    w_start, w_stop = _lead(a, words, eq, c4[hit], end[hit], _LEAD[EV_SUBMIT])
    t = _times(buf, words, np.concatenate((start, w_start)), np.concatenate((c0, w_stop)))
    t, waits = t[:len(c0)], t[len(c0):]
    hit = code == _SCHED
    start, stop = _lead(a, words, eq, c4[hit], end[hit], _LEAD[EV_SCHEDULE_OK])
    slots = _gather(a, start, stop + 1).replace(b";", b"\n").decode()
    return t, code, number, waits, slots


def _raise_first_error(log: LogEvents) -> None:
    """Read `log` again to raise the error of its first line that breaks a
    rule: a byte not UTF-8, `Event.decode`'s, a wait or slot key that does
    not lead its Task line's attributes once, a wait not a finite float, or
    a bad slot."""
    for no, line in log.numbered():
        try:
            ev = Event.decode(line)
            if ev.entity_kind != TASK or (key := _LEAD.get(ev.name)) is None:
                continue
            text = line.rsplit(",", 1)[1]
            if not text.startswith(f"{key}=") or f";{key}=" in text:
                raise ValueError(f"{ev.name} attributes do not start with their one {key}=")
            if key == "slot":
                slot_units([ev.attrs[key]])
            elif not math.isfinite(float(wait := ev.attrs[key])):
                raise ValueError(f"wait {wait!r} is not finite")
        except ValueError as exc:
            raise ProfileParseError(log.name, no, str(exc)) from exc
    raise AssertionError(f"{log.name}: the log failed a check that no line fails")


@dataclass
class TaskTable:
    """Per-task columns of one run, read in one pass over its profile
    text: a saved log (`from_log`) or its events (`from_events`), which
    give equal tables for the same run.

    Task rows are in order of each task's first event. Time columns hold
    NaN where the event is missing; `wait_s` is the enforced submission
    wait (0 without a submit). The unit rows expand every slot: the task
    row holding the unit, a key identifying (node, resource, index), and
    whether the unit is a GPU.
    """

    uids: list[str]
    t_sched: np.ndarray
    t_submit: np.ndarray
    wait_s: np.ndarray
    t_init: np.ndarray
    t_sending: np.ndarray
    t_dvm_run: np.ndarray
    t_run: np.ndarray
    t_done: np.ndarray
    t_fail: np.ndarray
    t_unschedule: np.ndarray
    unit_task: np.ndarray
    unit_key: np.ndarray
    unit_gpu: np.ndarray
    t_ready: Optional[float] = None
    t_received: Optional[float] = None
    t_stop: Optional[float] = None

    @classmethod
    def from_events(cls, events: LogEvents) -> "TaskTable":
        """The table of a run's events, whose recorded text is read as
        `from_log` reads a saved log; an error names the events' log."""
        return cls._read(events)

    @classmethod
    def from_log(cls, path: str) -> "TaskTable":
        """The table of a saved profile log, read as UTF-8 bytes in blocks
        of about `profiler.BLOCK_CHARS` characters; the first damaged line
        raises a `ProfileParseError` naming it."""
        return cls._read(LogEvents(path))

    @classmethod
    def _read(cls, log: LogEvents) -> "TaskTable":
        """The table of profile text, read in one scan of blocks of whole
        lines, each as its UTF-8 bytes in numpy passes that make no object
        per line. Of each line only its time and (kind, name) code are
        kept, and the number of the id of a Task or DvmJob line, the wait
        of a Task submit line, parsed as the times are, and the slot text
        of a Task schedule_ok line. When a line breaks a rule (see
        `_raise_first_error`), the log is read again line by line to raise
        its first bad line's error, naming the log."""
        index: defaultdict[str, int] = defaultdict(count().__next__)  # id -> its number
        # per block: times, codes, id numbers, waits and slot texts
        blocks = [(np.empty(0), np.empty(0, np.int8), np.empty(0, np.intp), np.empty(0), "")]
        try:  # a line off the grammar fails its block, a slot off it `_build`
            with closing(log.blocks()) as texts:  # closes a file on a raise
                for buf in map(_padded, texts):  # each text block freed once encoded
                    blocks.append(_read_block(buf, index))
            *columns, slots = zip(*blocks)
            t, code, uid, waits = map(np.concatenate, columns)
            slots, keys = "".join(slots), list(index)
            del blocks, columns, index

            # rows in order of each id's first event in time order: its least
            # time, and of its lines at that time the one read first
            entity = np.flatnonzero(code < 2 * _N_NAMES)
            t_first = np.full(len(keys), np.inf)
            np.minimum.at(t_first, uid, t[entity])
            at_first = t[entity] == t_first[uid]
            line_first = np.full(len(keys), len(t))
            np.minimum.at(line_first, uid[at_first], entity[at_first])
            by_first = np.lexsort((line_first, t_first))
            row = np.full(len(t), -1, dtype=np.intp)
            row[entity] = np.argsort(by_first)[uid]
            del entity, uid, at_first

            # each column's lines, stably sorted by time
            lines = {field: np.flatnonzero(code == c) for c, field in _CODE_FIELD.items()}
            lines = {field: hit[np.argsort(t[hit], kind="stable")] for field, hit in lines.items()}
            marks = {m: float(t[hit[-1]]) for m in _MARKS.values() if len(hit := lines.pop(m))}
            # the Task submit and schedule_ok lines in time order, as `lines`
            # holds them, index their waits and slots, which are in file order
            hit = lines[_CODE_FIELD[_SUBMIT]]
            waits = (row[hit], waits[np.searchsorted(np.flatnonzero(code == _SUBMIT), hit)])
            hit = lines[_CODE_FIELD[_SCHED]]
            order = np.searchsorted(np.flatnonzero(code == _SCHED), hit).tolist()
            slots = (row[hit], list(map(slots.split("\n").__getitem__, order)))
            del code, order
            hits = {}
            for col in list(lines):  # each column's lines are freed as its hit is taken
                hit = lines.pop(col)
                hits[col] = (row[hit], t[hit])
            uids = list(map(keys.__getitem__, by_first.tolist()))
            del t, row, hit, keys  # before the table's columns are built
            return cls._build(uids, hits, waits, slots, marks)
        except ValueError:
            _raise_first_error(log)

    @classmethod
    def _build(cls, uids: list[str], hits: dict[str, tuple], waits: tuple,
               slots: tuple, marks: dict[str, float]) -> "TaskTable":
        """The table from each column's (rows, values) in time order (the
        last value of a row wins), the Task slots as (rows, texts) and the
        run marks."""
        n = len(uids)

        def column(hit: tuple, fill: float) -> np.ndarray:
            out = np.full(n, fill)
            out[np.asarray(hit[0], dtype=np.intp)] = hit[1]
            return out

        pos, node, gpu, idx = slot_units(slots[1]).T
        return cls(
            uids=uids,
            **{col: column(hit, np.nan) for col, hit in hits.items()},
            wait_s=column(waits, 0.0),
            unit_task=np.asarray(slots[0], dtype=np.int64)[pos],
            unit_key=(node * 2 + gpu) * (idx.max(initial=0) + 1) + idx,
            unit_gpu=gpu.astype(bool),
            **marks,
        )

    @property
    def t_terminal(self) -> np.ndarray:
        return np.where(np.isnan(self.t_done), self.t_fail, self.t_done)

    @property
    def n_done(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.t_done)))

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.t_fail)))

    def require_complete(self) -> None:
        if self.t_stop is None:
            raise IncompleteRun("profile log has no pilot_stop sentinel")
        if self.t_ready is None:
            raise IncompleteRun("profile log has no agent_ready event")


# -- headline metrics ---------------------------------------------------------


def compute_ttx(table: TaskTable) -> float:
    """Total execution time: last task completion minus workload arrival."""
    table.require_complete()
    if table.t_received is None:
        raise IncompleteRun("profile log has no workload_received event")
    for ends in (table.t_done, table.t_fail):
        if not np.all(np.isnan(ends)):
            return float(np.nanmax(ends)) - table.t_received
    raise IncompleteRun("no task reached a terminal state")


def ideal_ttx(n_tasks: int, spec: TaskSpec, pool: ResourcePool) -> float:
    """Zero-overhead TTX of `n_tasks` tasks of shape `spec`: waves of
    fully concurrent tasks."""
    capacity = pool.total_worker_cores // spec.cores
    if spec.gpus > 0:
        capacity = min(capacity, pool.total_worker_gpus // spec.gpus)
    if capacity < 1:
        raise ValueError(
            f"tasks of {spec.cores} cores and {spec.gpus} GPUs do not fit the pool"
        )
    return math.ceil(n_tasks / capacity) * spec.duration_s


def component_overheads(t: TaskTable) -> OverheadReport:
    """Per-component overhead intervals and their statistics.

    rp: per-task scheduling-to-submission; prrte_wait: the enforced
    inter-submission waits (a sub-component of rp); launcher: submission
    to payload start; dvm_launch_msg: the daemon launch-message leg.
    Overlapping rp/launcher work projects onto TTX as a single overhead,
    so their joint union is reported too, without claiming a TTX
    decomposition.
    """
    t.require_complete()
    submitted = ~np.isnan(t.t_submit)
    rp = submitted & ~np.isnan(t.t_sched)
    wait = rp & (t.wait_s > 0)
    launcher = submitted & ~np.isnan(t.t_run)
    launch_msg = ~np.isnan(t.t_sending) & ~np.isnan(t.t_dvm_run)
    joint, _ = _union_span(
        np.concatenate([t.t_sched[rp], t.t_submit[launcher]]),
        np.concatenate([t.t_submit[rp], t.t_run[launcher]]),
    )
    return OverheadReport(
        components={
            "rp": OverheadStats.from_arrays(t.t_sched[rp], t.t_submit[rp]),
            "prrte_wait": OverheadStats.from_arrays(
                t.t_submit[wait] - t.wait_s[wait], t.t_submit[wait]),
            "launcher": OverheadStats.from_arrays(t.t_submit[launcher], t.t_run[launcher]),
            "dvm_launch_msg": OverheadStats.from_arrays(
                t.t_sending[launch_msg], t.t_dvm_run[launch_msg]),
        },
        joint_union_s=joint,
    )


# -- resource utilization -----------------------------------------------------


def _or(a: np.ndarray, b) -> np.ndarray:
    """`a` where present, else `b`."""
    return np.where(np.isnan(a), b, a)


def _segments(
    table: TaskTable, pool: ResourcePool, gpu_weight: float
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per category, the (start, end, weight) arrays of its non-empty segments."""
    table.require_complete()
    t_ready, t_stop = table.t_ready, table.t_stop
    if t_stop < 0:
        raise IncompleteRun("negative utilization window")
    t_term = table.t_terminal
    ended = ~np.isnan(t_term)
    t_workload_end = float(t_term[ended].max()) if ended.any() else t_ready
    t_freed = _or(table.t_unschedule, t_term)
    parts: dict[str, list[tuple]] = {cat: [] for cat in CATEGORIES}

    def add(cat, a, b, w) -> None:
        parts[cat].append(np.broadcast_arrays(*(np.atleast_1d(x) for x in (a, b, w))))

    node_w = pool.cores_per_node + pool.gpus_per_node * gpu_weight
    add(CAT_AGENT_NODES, 0.0, t_stop, pool.agent_nodes * node_w)
    add(CAT_PILOT_STARTUP, 0.0, t_ready, len(pool.workers) * node_w)

    # visits: unit rows ordered by unit, then schedule time, then task order
    unit_w = np.where(table.unit_gpu, gpu_weight, 1.0)
    order = np.lexsort((table.unit_task, table.t_sched[table.unit_task], table.unit_key))
    key, task, w = table.unit_key[order], table.unit_task[order], unit_w[order]
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    last = np.ones(len(key), dtype=bool)
    last[:-1] = first[1:]

    # units no task used idle from agent_ready to the workload's end
    used_gpus = int(np.count_nonzero(table.unit_gpu[order][first]))
    used_cores = int(np.count_nonzero(first)) - used_gpus
    unused_w = ((pool.total_worker_cores - used_cores)
                + (pool.total_worker_gpus - used_gpus) * gpu_weight)
    idle_end = max(t_ready, t_workload_end)
    add(CAT_IDLE, t_ready, idle_end, unused_w)
    add(CAT_PILOT_TERMINATION, idle_end, t_stop, unused_w)

    cursor = t_freed[task]
    prev = np.empty(len(cursor))
    prev[1:] = cursor[:-1]
    prev[first] = t_ready
    add(CAT_WARMUP, prev, table.t_sched[task], w)
    drain_end = np.maximum(cursor[last], t_workload_end)
    add(CAT_DRAINING, cursor[last], drain_end, w[last])
    add(CAT_PILOT_TERMINATION, drain_end, t_stop, w[last])

    # a task's own segments count once per unit it held (only a task with
    # a slot, hence a schedule time, holds any)
    task_w = np.bincount(table.unit_task, weights=unit_w, minlength=len(table.uids))
    has = ended & (task_w > 0)
    t_sched, t_submit, t_init = table.t_sched[has], table.t_submit[has], table.t_init[has]
    t_run, term, tw = table.t_run[has], t_term[has], task_w[has]
    submitted = ~np.isnan(t_submit)
    run_or_term = _or(t_run, term)
    add(CAT_PREPARE_EXECUTION, t_sched, _or(t_submit, term), tw)
    add(CAT_EXEC_RP, t_submit, _or(t_init, run_or_term), tw)
    add(CAT_EXEC_DVM, np.where(submitted, t_init, np.nan), run_or_term, tw)
    add(CAT_EXEC_CMD, np.where(submitted, t_run, np.nan), term, tw)
    add(CAT_UNSCHEDULE, term, t_freed[has], tw)

    segments = {}
    for cat, items in parts.items():
        a, b, w = (np.concatenate(col) for col in zip(*items))
        keep = b > a  # drops empty segments and those with a missing end
        segments[cat] = (a[keep], b[keep], w[keep])
    return segments


def utilization(
    table: TaskTable, pool: ResourcePool, gpu_weight: float = 1.0
) -> UtilizationBreakdown:
    """Partition every unit's share of [pilot_start, pilot_stop].

    Each worker core and each GPU is one unit (GPU weight configurable);
    agent-node units count as AgentNodes for the whole window. Every
    resource-second is assigned to exactly one category, so percentages
    sum to 100 by construction, except for a run that stops at t=0: its
    window holds no resource-second, and every percentage reads 0. The
    breakdown keeps the segments it sums, for the timeline.
    """
    segments = _segments(table, pool, gpu_weight)
    rs = {cat: float(np.dot(b - a, w)) for cat, (a, b, w) in segments.items()}
    total = sum(rs.values())
    percents = {cat: 100.0 * v / total if total else 0.0 for cat, v in rs.items()}
    return UtilizationBreakdown(
        resource_seconds=rs,
        percents=percents,
        window_s=table.t_stop,
        segments=segments,
    )


def _covered(x: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """For each x, the weighted measure of the segments [a, b] within [0, x]."""

    def weighted_min(p: np.ndarray) -> np.ndarray:
        # sum of w * min(x, p) = sum over p <= x of w * p + x * rest of w
        order = np.argsort(p)
        p, wp = p[order], w[order]
        below_w = np.concatenate([[0.0], np.cumsum(wp)])
        below_wp = np.concatenate([[0.0], np.cumsum(wp * p)])
        k = np.searchsorted(p, x, side="right")
        return below_wp[k] + x * (below_w[-1] - below_w[k])

    return weighted_min(b) - weighted_min(a)


def timeline(
    ub: UtilizationBreakdown, buckets: int = 120
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Bucket midpoints and, per category, the average units in each
    bucket; a run that stops at t=0 has every bucket at 0, holding none."""
    width = ub.window_s / buckets
    edges = np.arange(buckets + 1) * width
    grid = {}
    for cat, (a, b, w) in ub.segments.items():
        # coverage only grows with x; rounding must not print -0.0000
        grid[cat] = np.maximum(np.diff(_covered(edges, a, b, w)) / (width or 1.0), 0.0)
    return (np.arange(buckets) + 0.5) * width, grid


# -- report files -------------------------------------------------------------


def write_overheads_csv(report: OverheadReport, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["component", "union_s", "span_s", "mean_s", "stddev_s",
                    "min_s", "max_s", "n"])
        for name, st in report.components.items():
            w.writerow([name, f"{st.union_s:.6f}", f"{st.span_s:.6f}",
                        f"{st.mean_s:.6f}", f"{st.stddev_s:.6f}",
                        f"{st.min_s:.6f}", f"{st.max_s:.6f}", st.n])
        w.writerow(["joint_rp_launcher", f"{report.joint_union_s:.6f}", "", "",
                    "", "", "", ""])


def write_utilization_csv(ub: UtilizationBreakdown, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["category", "resource_seconds", "percent"])
        for cat in CATEGORIES:
            w.writerow([cat, f"{ub.resource_seconds[cat]:.6f}",
                        f"{ub.percents[cat]:.4f}"])


def write_summary_csv(metrics: dict[str, object], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value"])
        for k, v in metrics.items():
            w.writerow([k, v])


def write_timeline_csv(ub: UtilizationBreakdown, path: str, buckets: int = 120) -> None:
    """Plot-ready long format: average units per category per time bucket."""
    t_mid, grid = timeline(ub, buckets=buckets)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "category", "units"])
        for i, t in enumerate(t_mid):
            for cat in CATEGORIES:
                w.writerow([f"{t:.6f}", cat, f"{grid[cat][i]:.4f}"])
