"""Executor-side launch pipeline: rate gating, FD accounting, backends.

Each executor is a sequential worker with two serialized lanes:

* a submit lane - waits the configured inter-submission delay, charges
  file descriptors, applies over-rate failure injection, then hands the
  task to the launch backend (the submission handshake itself costs
  `submit_cost_s` of lane time);
* a drain lane - collects finished payloads one at a time under the same
  pacing, so the drain rate mirrors the submit rate.

Executors read pacing, failure injection and FD costs straight from the
`backend` section of the experiment config (`config.BackendConfig`),
which `ExperimentConfig.validate` has already checked.

Backends are pluggable: the simulated DVM (dvm module), a simulated JSM
backend, and a real local-process backend that spawns OS processes with
stdio redirected to files (three real descriptors per task); a task whose
files cannot be opened or whose process cannot be spawned fails alone.
A backend has one call, `submit_job(rec, executor, now)`, which returns
nothing: it reports running and failed through the host, and a finished
payload through `executor.enqueue_completion(rec, exit_status, t_end)`.
Nothing here knows the nodes: `ResourcePool.split` cuts the partitions.
"""

from __future__ import annotations

import os
import subprocess
from collections import deque
from functools import partial
from typing import Optional

import numpy as np

from .config import BackendConfig
from .core import Clock, FailureReason, TaskRecord


class FdAccountant:
    """Shared counter of file descriptors consumed by launched tasks.

    `reserved` descriptors model the runtime's own files and are never
    handed to tasks; reserved <= in_use + reserved <= limit always holds.
    """

    def __init__(self, limit: int, reserved: int = 0):
        if not 0 <= reserved < limit:
            raise ValueError("reserved must be >= 0 and < limit")
        self.limit = limit
        self.reserved = reserved
        self.in_use = 0

    def acquire(self, n: int) -> bool:
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.in_use + self.reserved + n > self.limit:
            return False
        self.in_use += n
        return True

    def release(self, n: int) -> None:
        if n > self.in_use:
            raise ValueError(f"releasing {n} descriptors but only {self.in_use} in use")
        self.in_use -= n


class Executor:
    """One sequential launch worker: paced submit lane plus drain lane.

    A task arrives as its record, which already carries the slot the
    scheduler placed it on (`rec.slot`); the lanes and backends pass the
    record on. The host object wires the executor into the agent: it owns
    task state transitions, event recording, slot release, and the
    release of the descriptors the executor charged to `rec.fds_held`.
    """

    def __init__(
        self,
        uid: str,
        config: BackendConfig,
        clock: Clock,
        fd: FdAccountant,
        backend,
        host,
        rng: np.random.Generator,
    ):
        self.uid = uid
        self.config = config
        self.clock = clock
        self.fd = fd
        self.backend = backend
        self.host = host
        self.rng = rng
        # end time of each lane's last operation, None before its first
        self._submit_end: Optional[float] = None
        self._drain_end: Optional[float] = None
        self._submit_q: deque[TaskRecord] = deque()
        self._drain_q: deque[tuple[TaskRecord, int, float]] = deque()  # (rec, exit_status, t_end)
        self._submit_busy = False
        self._drain_busy = False
        self._last_submit_t: Optional[float] = None

    def _gate(self, lane_end: Optional[float]) -> float:
        """Wait before a lane's next operation: `submit_delay_s` after the
        end of its last one (before its first), modelling an artificial
        sleep, so recorded submissions are never closer than the delay."""
        delay = self.config.submit_delay_s
        return delay if lane_end is None else max(0.0, lane_end + delay - self.clock.now_s)

    # -- submit lane ---------------------------------------------------------

    def enqueue(self, rec: TaskRecord) -> None:
        self._submit_q.append(rec)
        self._kick_submit()

    def _kick_submit(self) -> None:
        if self._submit_busy or not self._submit_q:
            return
        self._submit_busy = True
        wait = self._gate(self._submit_end)
        self.clock.schedule_at(self.clock.now_s + wait, partial(self._do_submit, wait))

    def _do_submit(self, waited: float) -> None:
        rec = self._submit_q.popleft()
        now = self.clock.now_s
        if not self.fd.acquire(self.config.fd_per_task):
            self.host.task_failed(rec, FailureReason.FD_EXHAUSTED, now)
            self._end_submit_op(now)
            return
        rec.fds_held = self.config.fd_per_task
        if self._over_rate(now) and self.rng.random() < self.config.fail_prob_over_rate:
            self.host.task_failed(rec, FailureReason.RATE_REJECTED, now)
            self._end_submit_op(now)
            return
        self._last_submit_t = now
        self.host.task_submitted(rec, self, waited, now)
        self.clock.schedule_at(now + self.config.submit_cost_s, partial(self._dispatch, rec))

    def _over_rate(self, now: float) -> bool:
        if self.config.max_rate_hz is None or self._last_submit_t is None:
            return False
        gap = now - self._last_submit_t
        return gap * self.config.max_rate_hz < 1.0

    def _dispatch(self, rec: TaskRecord) -> None:
        now = self.clock.now_s
        self.backend.submit_job(rec, self, now)
        self._end_submit_op(now)

    def _end_submit_op(self, now: float) -> None:
        self._submit_end = now
        self._submit_busy = False
        self._kick_submit()

    # -- drain lane ----------------------------------------------------------

    def enqueue_completion(self, rec: TaskRecord, exit_status: int, t_end: float) -> None:
        self._drain_q.append((rec, exit_status, t_end))
        self._kick_drain()

    def _kick_drain(self) -> None:
        if self._drain_busy or not self._drain_q:
            return
        self._drain_busy = True
        wait = self._gate(self._drain_end)
        self.clock.schedule_at(self.clock.now_s + wait, self._do_collect)

    def _do_collect(self) -> None:
        rec, exit_status, t_end = self._drain_q.popleft()
        now = self.clock.now_s
        self.host.task_collected(rec, exit_status, t_end, now)
        self.clock.schedule_at(now + self.config.submit_cost_s, self._end_drain_op)

    def _end_drain_op(self) -> None:
        self._drain_end = self.clock.now_s
        self._drain_busy = False
        self._kick_drain()


class LocalExecBackend:
    """Spawns real OS processes with stdio redirected to files.

    Each payload is enacted with `sleep <duration>`, its stdio at
    `<stdio_dir>/<uid>.{in,out,err}`. The three stdio descriptors per
    task are real open files here.
    """

    def __init__(self, clock: Clock, host, stdio_dir: str, poll_interval_s: float = 0.02):
        self.clock = clock
        self.host = host
        self.stdio_dir = stdio_dir
        self.poll_interval_s = poll_interval_s
        self._procs: dict[str, tuple[TaskRecord, subprocess.Popen, list, object]] = {}
        self._poller_on = False
        os.makedirs(stdio_dir, exist_ok=True)

    def submit_job(self, rec: TaskRecord, executor, now: float) -> None:
        base = os.path.join(self.stdio_dir, rec.uid)
        files = []
        try:
            for suffix, mode in ((".in", "w+b"), (".out", "wb"), (".err", "wb")):
                files.append(open(base + suffix, mode))
            proc = subprocess.Popen(
                ["sleep", str(rec.spec.duration_s)],
                stdin=files[0], stdout=files[1], stderr=files[2],
            )
        except OSError:
            for fh in files:
                fh.close()
            self.host.task_failed(rec, FailureReason.NONZERO_EXIT, self.clock.now_s)
            return
        self._procs[rec.uid] = (rec, proc, files, executor)
        self.host.task_running(rec, self.clock.now_s)
        self._ensure_poller()

    def _ensure_poller(self) -> None:
        if not self._poller_on:
            self._poller_on = True
            self.clock.schedule_at(self.clock.now_s + self.poll_interval_s, self._poll)

    def _poll(self) -> None:
        now = self.clock.now_s
        finished = [e for e in self._procs.values() if e[1].poll() is not None]
        for rec, proc, files, executor in finished:
            del self._procs[rec.uid]
            for fh in files:
                fh.close()
            executor.enqueue_completion(rec, proc.returncode, now)
        if self._procs:
            self.clock.schedule_at(now + self.poll_interval_s, self._poll)
        else:
            self._poller_on = False


class SimJsmBackend:
    """JSM modeled as a launch latency and a stability limit, not a protocol.

    Same pipeline as the DVM backend but without a persistent overlay:
    one launch-latency sample, then the payload runs. JSM destabilizes
    under concurrent executors: the moment a second executor submits, the
    backend fails every live job, then that submission and every later one.
    """

    def __init__(self, clock: Clock, host, latency, rng: np.random.Generator):
        self.clock = clock
        self.host = host
        self.latency = latency  # duck-typed: .sample(rng) -> seconds
        self.rng = rng
        self.unstable = False
        self._first_executor: Optional[str] = None  # uid of the first to submit
        self._live: dict[str, tuple[TaskRecord, object]] = {}

    def submit_job(self, rec: TaskRecord, executor, now: float) -> None:
        self._first_executor = self._first_executor or executor.uid
        if not self.unstable and executor.uid != self._first_executor:
            self.unstable = True
            live, self._live = self._live, {}
            for failed, _ in live.values():
                self.host.task_failed(failed, FailureReason.DVM_CRASHED, now)
        if self.unstable:
            self.host.task_failed(rec, FailureReason.DVM_CRASHED, now)
            return
        self._live[rec.uid] = (rec, executor)
        delay = self.latency.sample(self.rng)
        self.clock.schedule_at(now + delay, partial(self._to_running, rec.uid))

    def _to_running(self, uid: str) -> None:
        if uid not in self._live:
            return
        rec, _ = self._live[uid]
        now = self.clock.now_s
        self.host.task_running(rec, now)
        self.clock.schedule_at(now + rec.spec.duration_s, partial(self._payload_end, uid))

    def _payload_end(self, uid: str) -> None:
        if uid not in self._live:
            return
        rec, executor = self._live.pop(uid)
        executor.enqueue_completion(rec, 0, self.clock.now_s)
