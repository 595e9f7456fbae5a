import dataclasses
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import pytest
from hypothesis import settings

from pilotsim import ExperimentConfig, ProfileParseError, TaskTable, load_profile
from pilotsim.analysis import _COLUMNS, _MARKS
from pilotsim.profiler import EV_SCHEDULE_OK, EV_SUBMIT, TASK, Event
from pilotsim.scheduler import slot_units

# the same examples on every run; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# the slot-text codec that the scheduler's texts and `slot_units` are checked
# against; its `decode` also reads some texts that the scheduler never writes
@dataclass(frozen=True)
class SlotAssignment:
    node_uid: int
    core_indices: tuple[int, ...] = ()
    gpu_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class Slot:
    """A slot text decoded: which cores/GPUs on which nodes a task holds."""

    assignments: tuple[SlotAssignment, ...]

    def encode(self) -> str:
        """Compact textual form used in profile event attributes."""
        parts = []
        for a in self.assignments:
            cores = ".".join(map(str, a.core_indices))
            gpus = ".".join(map(str, a.gpu_indices))
            part = f"n{a.node_uid}"
            if cores:
                part += f"c{cores}"
            if gpus:
                part += f"g{gpus}"
            parts.append(part)
        return "_".join(parts)

    @classmethod
    def decode(cls, text: str) -> "Slot":
        assignments = []
        for part in text.split("_"):
            if not part.startswith("n"):
                raise ValueError(f"bad slot encoding: {text!r}")
            body = part[1:]
            gpus: tuple[int, ...] = ()
            cores: tuple[int, ...] = ()
            if "g" in body:
                body, gtext = body.split("g", 1)
                gpus = tuple(int(i) for i in gtext.split("."))
            if "c" in body:
                body, ctext = body.split("c", 1)
                cores = tuple(int(i) for i in ctext.split("."))
            assignments.append(
                SlotAssignment(node_uid=int(body), core_indices=cores, gpu_indices=gpus)
            )
        return cls(assignments=tuple(assignments))


@pytest.fixture
def quick_cfg():
    """Small virtual config with inert failure injection and big FD budget."""

    def _make(**over) -> ExperimentConfig:
        cfg = ExperimentConfig()
        cfg.workload.n_tasks = 16
        cfg.workload.duration_s = 5.0
        cfg.pool.nodes = 2
        cfg.backend.fd_limit = 65536
        cfg.backend.fd_reserved = 0
        cfg.backend.max_rate_hz = None
        cfg.agent.startup_s = 10.0
        cfg.agent.termination_s = 2.0
        for key, val in over.items():
            obj = cfg
            parts = key.split("__")
            for part in parts[:-1]:
                obj = getattr(obj, part)
            setattr(obj, parts[-1], val)
        return cfg

    return _make


def zero_overhead(cfg: ExperimentConfig) -> ExperimentConfig:
    """Strip every modeled cost so only payload durations remain."""
    cfg.backend.submit_delay_s = 0.0
    cfg.backend.submit_cost_s = 0.0
    cfg.agent.schedule_cost_s = 0.0
    cfg.dvm.setup_mean_s = 0.0
    cfg.dvm.setup_std_s = 0.0
    cfg.dvm.launch_mean_s = 0.0
    cfg.dvm.launch_std_s = 0.0
    cfg.dvm.notify_mean_s = 0.0
    cfg.dvm.notify_std_s = 0.0
    return cfg


def task_events(events):
    """Each task's history from a run's profile events: {uid: {name: Event}}.

    A task records each event name at most once (schedule_ok, submit,
    running, done or task_fail, unschedule), so the name is a key.
    """
    out = {}
    for e in events:
        if e.entity_kind == "Task":
            out.setdefault(e.entity_id, {})[e.name] = e
    return out


def assert_same_table(got: TaskTable, want: TaskTable) -> None:
    """Every field equal: uids, column dtypes and shapes, NaN positions."""
    for f in dataclasses.fields(TaskTable):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), f.name
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b, equal_nan=b.dtype.kind == "f"), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def reference_table(events) -> TaskTable:
    """The table of `events` built one `Event` at a time, in the order
    given: the oracle the log reader is compared against, through
    `reference_table(load_profile(path))`."""
    rows: dict[str, int] = {}
    hits = {col: ([], []) for cols in _COLUMNS.values() for col in cols.values()}
    by_kind = {kind: {name: hits[col] for name, col in cols.items()}
               for kind, cols in _COLUMNS.items()}
    marks: dict[str, float] = {}
    waits: tuple[list[int], list[float]] = ([], [])
    slots: tuple[list[int], list[str]] = ([], [])
    for ev in events:
        by_name = by_kind.get(ev.entity_kind)
        if by_name is None:
            mark = _MARKS.get(ev.name)
            if mark is not None:
                marks[mark] = ev.t_s
            continue
        row = rows.get(ev.entity_id)
        if row is None:
            row = rows[ev.entity_id] = len(rows)
        hit = by_name.get(ev.name)
        if hit is None:
            continue
        hit[0].append(row)
        hit[1].append(ev.t_s)
        if ev.entity_kind == TASK:
            if ev.name == EV_SCHEDULE_OK and "slot" in ev.attrs:
                slots[0].append(row)
                slots[1].append(ev.attrs["slot"])
            elif ev.name == EV_SUBMIT:
                waits[0].append(row)
                waits[1].append(float(ev.attrs.get("wait", "0")))
    return TaskTable._build(list(rows), hits, waits, slots, marks)


def reference_log_table(path: str) -> TaskTable:
    """`reference_table(load_profile(path))`, but a Task submit wait that is
    not a finite float, or a Task schedule_ok slot off the grammar, raises
    a `ProfileParseError` naming the first line of the file that holds
    either: the oracle `TaskTable.from_log` is compared against."""
    events = load_profile(path)
    with open(path, encoding="utf-8") as fh:
        for no, line in enumerate(map(str.rstrip, fh, repeat("\n")), start=1):
            ev = Event.decode(line) if line else None
            if not ev or ev.entity_kind != TASK:
                continue
            try:
                if ev.name == EV_SUBMIT:
                    wait = ev.attrs.get("wait", "0")
                    if not math.isfinite(float(wait)):
                        raise ValueError(f"wait {wait!r} is not finite")
                elif ev.name == EV_SCHEDULE_OK and "slot" in ev.attrs:
                    slot_units([ev.attrs["slot"]])
            except ValueError as exc:
                raise ProfileParseError(path, no, str(exc)) from exc
    return reference_table(events)
