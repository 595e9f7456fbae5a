"""Domain types and the time base for the many-task pilot runtime.

A workload is one task shape (a `TaskSpec`) x `n_tasks`. Each task
walks a fixed lifecycle (New -> Scheduled -> Submitted -> Running ->
Done, with Failed as the terminal side exit). A task record holds only the live state and
the time of its last transition, in seconds since pilot start; the
profile events are the task's history.

Time comes from a Clock: a VirtualClock driven purely by scheduled
events (deterministic, runs paper-scale workloads in desk wall-time) or
a RealClock backed by the monotonic OS clock for real process execution.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional


class TaskState(Enum):
    NEW = "New"
    SCHEDULED = "Scheduled"
    SUBMITTED = "Submitted"
    RUNNING = "Running"
    DONE = "Done"
    FAILED = "Failed"


# forward chain; Failed is reachable from any non-terminal state
_CHAIN = [
    TaskState.NEW,
    TaskState.SCHEDULED,
    TaskState.SUBMITTED,
    TaskState.RUNNING,
    TaskState.DONE,
]
_CHAIN_INDEX = {s: i for i, s in enumerate(_CHAIN)}
TERMINAL_STATES = frozenset({TaskState.DONE, TaskState.FAILED})


class FailureReason(Enum):
    FD_EXHAUSTED = "FdExhausted"
    RATE_REJECTED = "RateRejected"
    DVM_CRASHED = "DvmCrashed"
    NONZERO_EXIT = "NonzeroExit"


class IllegalTransition(ValueError):
    """Raised when a task is moved to a state the lifecycle does not allow."""


class TimeRegression(ValueError):
    """Raised when a transition would precede the task's last one."""


@dataclass(frozen=True)
class TaskSpec:
    """The one task shape of a run: its resource request and the duration
    of its simulated payload (a real backend runs `sleep <duration>`)."""

    cores: int = 1
    gpus: int = 0
    duration_s: float = 900.0

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError(f"task cores must be >= 1, got {self.cores}")
        if self.gpus < 0:
            raise ValueError(f"task gpus must be >= 0, got {self.gpus}")
        if not self.duration_s > 0:
            raise ValueError(f"task duration_s must be > 0, got {self.duration_s}")


@dataclass(slots=True)
class TaskRecord:
    """One task's live state: lifecycle state, the time of the last
    transition, placement and held descriptors. Every record of a run
    shares the run's spec. The run's profile events, not the record,
    carry the task's history."""

    uid: str
    spec: TaskSpec
    state: TaskState = TaskState.NEW
    t_last: float = 0.0
    slot: Optional["Slot"] = None  # bound placement, see scheduler module
    partition: int = 0  # index of the agent partition that places the task
    fds_held: int = 0  # file descriptors charged at submission, until release


def advance_state(rec: TaskRecord, new_state: TaskState, t: float) -> TaskRecord:
    """Move `rec` to `new_state` at time `t`.

    Legal moves are one step along New<Scheduled<Submitted<Running<Done,
    or a jump to Failed from any non-terminal state. `t` must not precede
    `rec.t_last`, the time of the previous transition.
    """
    if rec.state in TERMINAL_STATES:
        raise IllegalTransition(
            f"task {rec.uid}: no transitions out of terminal state {rec.state.value}"
        )
    if (new_state is not TaskState.FAILED
            and _CHAIN_INDEX[new_state] != _CHAIN_INDEX[rec.state] + 1):
        raise IllegalTransition(
            f"task {rec.uid}: illegal transition "
            f"{rec.state.value} -> {new_state.value}"
        )
    if t < rec.t_last:
        raise TimeRegression(
            f"task {rec.uid}: time {t} precedes last transition at {rec.t_last}"
        )
    rec.state = new_state
    rec.t_last = t
    return rec


class Clock:
    """Event-driven time base shared by all runtime components.

    Callbacks are dispatched in timestamp order; ties break by insertion
    order, which makes virtual runs fully deterministic.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._now = 0.0

    @property
    def now_s(self) -> float:
        return self._now

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        if t < self._now:
            t = self._now
        heapq.heappush(self._heap, (t, next(self._seq), fn))

    def schedule_in(self, dt: float, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now_s + dt, fn)

    def pending(self) -> int:
        return len(self._heap)

    def run(self) -> None:
        raise NotImplementedError


class VirtualClock(Clock):
    """Min-heap virtual time: advances only through scheduled events."""

    def run(self) -> None:
        while self._heap:
            t, _, fn = heapq.heappop(self._heap)
            self._now = t
            fn()


class RealClock(Clock):
    """Wall-clock time (monotonic), sleeping between scheduled events."""

    def __init__(self):
        super().__init__()
        self._t0 = time.monotonic()

    @property
    def now_s(self) -> float:
        return time.monotonic() - self._t0

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), fn))

    def run(self) -> None:
        while self._heap:
            t, _, fn = heapq.heappop(self._heap)
            delay = t - self.now_s
            if delay > 0:
                time.sleep(delay)
            fn()
