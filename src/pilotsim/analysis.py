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
lines, and `TaskTable.from_events` feeds it the recorded lines of a
run's events (or the encoded lines of any other events). The reader
splits each block into numpy columns without making an `Event` per line.
It reads the submission waits in one regex pass over all their texts
and decodes the slots column by column, so on a plain log no Python
code runs once per task. The table holds numpy columns with one row per
task: the timestamp of each lifecycle event, NaN where the event is
missing. It also holds the run marks, and one row per (task, resource
unit) pair that expands each task's slot. TTX and the overhead
intervals are column arithmetic; an interval union is a sort plus a
running maximum. Utilization and the timeline share one set of weighted
category segments, which the table keeps for the last pool asked: a
task's segments count once per unit it held, the warmup and draining
gaps come from each unit's visits in schedule order, and units that no
task used are counted in bulk, so the cost grows with the number of
tasks and not with the pool. The timeline integrates each category's
coverage at the bucket edges. Every public function accepts either the
events or a prebuilt table.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import Iterable, Optional, Union

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
_PAIR = re.compile(r"([^;=]*)=([^;]*)")  # in attributes whose pieces all hold "="
_TWO_EQ = re.compile(r"=[^;]*=")  # a piece with two "="


def _raise_first_error(log: LogEvents, source: str, attrs: bool = False) -> None:
    """Read `log` again to raise the error of its first line that
    `Event.decode` rejects or, with `attrs`, whose Task submit wait is not
    a finite float or whose Task schedule_ok slot `slot_units` rejects."""
    line_no = 1  # of the next block's first line
    with closing(log.blocks()) as blocks:
        for block in blocks:
            for no, line in enumerate(block.split("\n"), start=line_no):
                if line:
                    try:
                        ev = Event.decode(line)
                        if not attrs or ev.entity_kind != TASK:
                            continue
                        if ev.name == EV_SUBMIT and not math.isfinite(
                                float(wait := ev.attrs.get("wait", "0"))):
                            raise ValueError(f"wait {wait!r} is not finite")
                        if ev.name == EV_SCHEDULE_OK and "slot" in ev.attrs:
                            slot_units([ev.attrs["slot"]])
                    except ValueError as exc:
                        raise ProfileParseError(source, no, str(exc)) from exc
            line_no += block.count("\n")
    raise AssertionError(f"{source}: the log failed a check that no line fails")


def _all_pairs(text: str) -> bool:
    """Whether every piece of the `;`-joined attributes `text` holds "=".
    One "=" a piece and no piece with two settles most texts by counting."""
    return (text.count("=") == text.count(";") + 1 and not _TWO_EQ.search(text)
            or all(map(str.__contains__, text.split(";"), repeat("="))))


def _attr_values(text: str, order: list[int], key: str, default: Optional[str] = None) -> list:
    """The value of `key` in each newline-ended attribute text of `text`,
    taken in `order`: `default` where it is missing, and as `Event.decode`
    reads it, the last piece with the key. One regex pass reads them when
    every text starts with the key and holds it once; if one text does
    not, every text is read on its own."""
    head = f"{key}="
    # n texts with n heads, each at a text's start: one head per text
    if text.count(head) == len(order) == text.startswith(head) + text.count("\n" + head):
        return list(map(re.findall(f"{head}([^;\n]*)", text).__getitem__, order))
    return [dict(_PAIR.findall(line)).get(key, default)
            for line in map(text.split("\n").__getitem__, order)]


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
    def from_events(cls, events: Iterable[Event]) -> "TaskTable":
        """The table of the log text of `events`: a run's events hand over
        their text, read as `from_log` reads it; any other event is encoded,
        so hand-built events are taken in time order at microsecond resolution."""
        if not isinstance(events, LogEvents):
            events = LogEvents(io.StringIO("".join(e.encode() + "\n" for e in events)))
        return cls._read(events, "<events>")

    @classmethod
    def from_log(cls, path: str) -> "TaskTable":
        """The table of a saved profile log, read in blocks of about 64 KiB;
        the first damaged line raises a `ProfileParseError` naming it."""
        return cls._read(LogEvents(path), path)

    @classmethod
    def _read(cls, log: LogEvents, source: str) -> "TaskTable":
        """The table of profile text, read in blocks of whole lines.

        Of each line only its time and a (kind, name) code are kept, plus
        the id of Task and DvmJob lines and, joined per block, the
        attributes of Task submit and schedule_ok lines. When a block fails
        a check (a `%` among them), a wait is not a finite float or a slot
        is off the grammar, the log is read again line by line to raise its
        first bad line's error. The waits and the slots are each read in one
        regex pass over all their texts; if one text of a kind has its key
        missing, repeated or not first, every text of that kind is read line
        by line in time order, which is slower."""
        times, codes, ids = [], [], []
        index: defaultdict[str, int] = defaultdict(count().__next__)  # id -> its number
        # per block, the attributes of its Task submit and schedule_ok lines,
        # each ending in a newline
        texts: dict[int, list[str]] = {_SUBMIT: [], _SCHED: []}
        with closing(log.blocks()) as blocks:  # closes a file on a raise
            for block in blocks:
                rows = list(filter(None, block.split("\n")))
                if not (n := len(rows)):
                    continue
                # with a "\n" field between lines, lines of six fields put
                # every "\n" at a position 6 mod 7
                fields = ",\n,".join(rows).split(",")
                attrs = fields[5::7]
                pairs = ";".join(filter(None, attrs))
                try:
                    if ("%" in block or len(fields) != 7 * n - 1
                            or fields[6::7].count("\n") != n - 1
                            or pairs and not _all_pairs(pairs)):
                        raise ValueError
                    t = np.fromiter(map(float, fields[0::7]), float, n)
                    if not np.isfinite(t).all():
                        raise ValueError
                except ValueError:
                    _raise_first_error(log, source)
                kind = np.fromiter(map(_KIND_CODE.get, fields[1::7], repeat(2)), np.int8, n)
                code = kind * _N_NAMES + np.fromiter(
                    map(_NAME_CODE.get, fields[4::7], repeat(0)), np.int8, n)
                entity = compress(fields[2::7], (kind < 2).tolist())
                ids.append(np.fromiter(map(index.__getitem__, entity), np.intp))
                for c, kept in texts.items():
                    kept.append("\n".join([*compress(attrs, (code == c).tolist()), ""]))
                times.append(t)
                codes.append(code)
        t = np.concatenate(times or [np.empty(0)])
        code = np.concatenate(codes or [np.empty(0, np.int8)])
        uid = np.concatenate(ids or [np.empty(0, np.intp)])
        keys = list(index)
        del times, codes, ids, index

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
        marks = {}
        for mark in _MARKS.values():
            if len(hit := lines.pop(mark)):
                marks[mark] = float(t[hit[-1]])

        def values(c: int, key: str, default: Optional[str] = None) -> tuple:
            # the rows and `key` values of the Task lines coded `c`, in time
            # order as `lines` holds them
            hit = lines[_CODE_FIELD[c]]
            order = np.searchsorted(np.flatnonzero(code == c), hit).tolist()
            return row[hit], _attr_values("".join(texts.pop(c)), order, key, default)

        task_rows, waits = values(_SUBMIT, "wait", "0")
        try:
            waits = (task_rows, np.fromiter(map(float, waits), float, len(task_rows)))
            if not np.isfinite(waits[1]).all():
                raise ValueError
        except ValueError:  # a wait that is not a finite float
            _raise_first_error(log, source, attrs=True)
        task_rows, slots = values(_SCHED, "slot")
        if None in slots:  # a schedule_ok without a slot holds no units
            held = [s is not None for s in slots]
            task_rows, slots = task_rows[held], list(compress(slots, held))
        del code
        hits = {}
        for col in list(lines):  # each column's lines are freed as its hit is taken
            hit = lines.pop(col)
            hits[col] = (row[hit], t[hit])
        uids = list(map(keys.__getitem__, by_first.tolist()))
        del t, row, hit, keys  # before the table's columns are built
        try:
            return cls._build(uids, hits, waits, (task_rows, slots), marks)
        except ValueError:  # a slot off the grammar
            _raise_first_error(log, source, attrs=True)

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


EventsOrTable = Union[TaskTable, Iterable[Event]]


def _as_table(data: EventsOrTable) -> TaskTable:
    return data if isinstance(data, TaskTable) else TaskTable.from_events(data)


# -- headline metrics ---------------------------------------------------------


def compute_ttx(events: EventsOrTable) -> float:
    """Total execution time: last task completion minus workload arrival."""
    table = _as_table(events)
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


def component_overheads(events: EventsOrTable) -> OverheadReport:
    """Per-component overhead intervals and their statistics.

    rp: per-task scheduling-to-submission; prrte_wait: the enforced
    inter-submission waits (a sub-component of rp); launcher: submission
    to payload start; dvm_launch_msg: the daemon launch-message leg.
    Overlapping rp/launcher work projects onto TTX as a single overhead,
    so their joint union is reported too, without claiming a TTX
    decomposition.
    """
    t = _as_table(events)
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
    """Per category, the (start, end, weight) arrays of its non-empty
    segments. The table keeps those of the last pool and weight asked, so
    utilization and the timeline of one analysis build them once."""
    kept = table.__dict__.get("_segments")
    if kept and kept[0] is pool and kept[1] == gpu_weight:
        return kept[2]
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
    table._segments = (pool, gpu_weight, segments)
    return segments


def utilization(
    events: EventsOrTable, pool: ResourcePool, gpu_weight: float = 1.0
) -> UtilizationBreakdown:
    """Partition every unit's share of [pilot_start, pilot_stop].

    Each worker core and each GPU is one unit (GPU weight configurable);
    agent-node units count as AgentNodes for the whole window. Every
    resource-second is assigned to exactly one category, so percentages
    sum to 100 by construction, except for a run that stops at t=0: its
    window holds no resource-second, and every percentage reads 0.
    """
    table = _as_table(events)
    segments = _segments(table, pool, gpu_weight)
    rs = {cat: float(np.dot(b - a, w)) for cat, (a, b, w) in segments.items()}
    total = sum(rs.values())
    percents = {cat: 100.0 * v / total if total else 0.0 for cat, v in rs.items()}
    return UtilizationBreakdown(
        resource_seconds=rs,
        percents=percents,
        window_s=table.t_stop,
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
    events: EventsOrTable, pool: ResourcePool, buckets: int = 120,
    gpu_weight: float = 1.0,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Bucket midpoints and, per category, the average units in each
    bucket; a run that stops at t=0 has every bucket at 0, holding none."""
    table = _as_table(events)
    segments = _segments(table, pool, gpu_weight)
    width = table.t_stop / buckets
    edges = np.arange(buckets + 1) * width
    grid = {}
    for cat, (a, b, w) in segments.items():
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


def write_timeline_csv(
    events: EventsOrTable, pool: ResourcePool, path: str,
    buckets: int = 120, gpu_weight: float = 1.0,
) -> None:
    """Plot-ready long format: average units per category per time bucket."""
    t_mid, grid = timeline(events, pool, buckets=buckets, gpu_weight=gpu_weight)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "category", "units"])
        for i, t in enumerate(t_mid):
            for cat in CATEGORIES:
                w.writerow([f"{t:.6f}", cat, f"{grid[cat][i]:.4f}"])
