"""Domain types and the time base for the many-task pilot runtime.

A workload is one task shape (a `TaskSpec`) x `n_tasks`. Each task
walks a fixed lifecycle (New -> Scheduled -> Submitted -> Running ->
Done, with Failed as the terminal side exit). A task record holds only the live state and
the time of its last transition, in seconds since pilot start; the
profile events are the task's history.

Time comes from a Clock: a VirtualClock driven purely by scheduled
events (deterministic, runs paper-scale workloads in desk wall-time) or
a RealClock backed by the monotonic OS clock for real process execution.
The virtual clock keeps two queues: a FIFO of entries appended in time
order (every payload end of a run's one task shape lands there) and a
heap for the rest, so the heap stays small while thousands of tasks run.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import time
from collections import deque
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


# Each state carries its one forward step (`successor`) and whether it is
# terminal, so a transition is checked with `is`, without hashing a member.
# Failed is reachable from any non-terminal state. The members above are
# declared in chain order, with Failed last.
for _state, _next in zip(TaskState, [*TaskState][1:5] + [None, None]):
    _state.successor, _state.terminal = _next, _next is None


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
    slot: Optional[tuple] = None  # (slot text, held masks), see scheduler module
    partition: int = 0  # index of the agent partition that places the task
    fds_held: int = 0  # file descriptors charged at submission, until release


def advance_state(rec: TaskRecord, new_state: TaskState, t: float) -> TaskRecord:
    """Move `rec` to `new_state` at time `t`.

    Legal moves are one step along New<Scheduled<Submitted<Running<Done,
    or a jump to Failed from any non-terminal state. `t` must not precede
    `rec.t_last`, the time of the previous transition.
    """
    state = rec.state
    if state.terminal:
        raise IllegalTransition(
            f"task {rec.uid}: no transitions out of terminal state {state.value}"
        )
    if new_state is not state.successor and new_state is not TaskState.FAILED:
        raise IllegalTransition(
            f"task {rec.uid}: illegal transition {state.value} -> {new_state.value}"
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
    order, which makes virtual runs fully deterministic. `schedule_at` is
    the one entry point: every callback is queued there, at an absolute
    time (a delay is `now_s + dt`), as a `(t, seq, fn)` entry; `fn` takes
    no arguments (a bound method or a `functools.partial` of one). An
    entry at or after the FIFO's last time is appended to the FIFO, so the
    FIFO stays sorted; any other entry goes on the heap. `now_s` is the
    current time in seconds: a plain attribute on the virtual clock, read
    from the OS on the real one.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._fifo: deque[tuple[float, int, Callable[[], None]]] = deque()
        self._seq = itertools.count()

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        if t < self.now_s:
            t = self.now_s
        fifo = self._fifo
        if not fifo or t >= fifo[-1][0]:
            fifo.append((t, next(self._seq), fn))
        else:
            heapq.heappush(self._heap, (t, next(self._seq), fn))

    def pending(self) -> int:
        return len(self._heap) + len(self._fifo)

    def run(self) -> None:
        raise NotImplementedError


class VirtualClock(Clock):
    """Virtual time: advances only through scheduled events. Each step
    runs the smaller `(t, seq)` of the two queue heads; seqs are unique,
    so the order is that of one heap holding every entry.

    The cyclic collector is off during the loop and back in its prior
    state after it: the loop makes no reference cycles, so a collection
    would only walk the run's live objects and free nothing."""

    now_s = 0.0  # until the loop sets the time of the event it runs

    def run(self) -> None:
        heap, fifo, pop, popleft = self._heap, self._fifo, heapq.heappop, self._fifo.popleft
        enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                if fifo:
                    t, _, fn = pop(heap) if heap and heap[0] < fifo[0] else popleft()
                elif heap:
                    t, _, fn = pop(heap)
                else:
                    break
                self.now_s = t
                fn()
        finally:
            if enabled:
                gc.enable()


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
