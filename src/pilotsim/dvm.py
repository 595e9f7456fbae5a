"""Discrete-event model of a PRRTE-style Distributed Virtual Machine.

A DVM is a persistent overlay of launch daemons (one per worker node)
that accepts task-launch requests without per-task bootstrap. Each
accepted request becomes a job that walks a fixed stage machine:

    init_complete -> pending_app_launch -> sending_launch_msg
        -> running -> notify_complete

Stage transitions take sampled latencies, and each stage is recorded
as a `DvmJob` profile event; those events are the only per-job record.
The handle keeps just the live jobs and enforces a ceiling on how many
there are: exceeding it crashes the whole DVM and fails every live job,
mirroring the observed flat-topology collapse at scale. Like every launch
backend (launcher module), the handle reports each outcome itself; it
records the DVM's start event when it is built.

The handle reads its capacity and the three stage latencies straight
from the `dvm` section of the experiment config (`config.DvmSimConfig`).
Only the flat overlay is modelled; a different overlay is a different
capacity and launch latency in a config file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import DvmSimConfig
from .core import Clock, FailureReason, TaskRecord
from .profiler import (
    COMP_DVM,
    DVM_JOB,
    EV_DVM_CRASH,
    EV_DVM_START,
    EV_INIT_COMPLETE,
    EV_NOTIFY_COMPLETE,
    EV_PENDING_APP_LAUNCH,
    EV_RUNNING,
    EV_SENDING_LAUNCH_MSG,
    PILOT,
    EventSink,
)
from .scheduler import ResourcePool


@dataclass
class LatencySpec:
    """Normal stage latency, truncated to [0, 2*mean].

    The symmetric truncation window keeps the configured mean exact,
    which is what the measured per-stage averages anchor to. std_s == 0
    degenerates to the constant mean. Both moments are >= 0; the config
    validation guarantees it for every spec built from a config.
    """

    mean_s: float
    std_s: float = 0.0

    def sample(self, rng: np.random.Generator) -> float:
        if self.std_s == 0.0 or self.mean_s == 0.0:
            return self.mean_s
        hi = 2.0 * self.mean_s
        for _ in range(10000):
            # the same draws as rng.normal(mean, std), at lower call cost
            x = self.mean_s + self.std_s * rng.standard_normal()
            if 0.0 <= x <= hi:
                return x
        return self.mean_s  # pragma: no cover - acceptance probability ~0.5


class DvmHandle:
    """One running DVM: daemons, live jobs, capacity and crash state."""

    def __init__(
        self,
        config: DvmSimConfig,
        pool: ResourcePool,
        clock: Clock,
        rng: np.random.Generator,
        sink: EventSink,
        host,
        uid: str = "dvm.0",
    ):
        self.uid = uid
        self.config = config
        self._setup = LatencySpec(config.setup_mean_s, config.setup_std_s)
        self._launch_msg = LatencySpec(config.launch_mean_s, config.launch_std_s)
        self._notify = LatencySpec(config.notify_mean_s, config.notify_std_s)
        self.clock = clock
        self.rng = rng
        self.sink = sink
        self.host = host
        self.n_daemons = len(pool.workers)
        self._live: dict[str, tuple[TaskRecord, object]] = {}  # uid: (rec, executor)
        self.crashed = False
        # the log format keeps the topology attribute; only a flat overlay is modelled
        sink.record(clock.now_s, PILOT, uid, COMP_DVM, EV_DVM_START,
                    f"daemons={self.n_daemons};topology=flat")

    @property
    def n_live(self) -> int:
        return len(self._live)

    def submit_job(self, rec: TaskRecord, executor, now: float) -> None:
        """Accept a launch request; a crashed DVM fails it at once.

        Accepting the request that pushes live jobs past capacity crashes
        the handle: every live job (including this one) fails.
        """
        if self.crashed:
            self.host.task_failed(rec, FailureReason.DVM_CRASHED, now)
            return
        self._live[rec.uid] = (rec, executor)
        self.sink.record(now, DVM_JOB, rec.uid, COMP_DVM, EV_INIT_COMPLETE)
        if len(self._live) > self.config.capacity_tasks:
            self._crash(now)
            return
        setup = self._setup.sample(self.rng)
        self.clock.schedule_at(now + setup, partial(self._to_pending, rec.uid))

    # -- stage walk: a job missing from the live set has failed ---------------

    def _to_pending(self, uid: str) -> None:
        if uid not in self._live:
            return
        now = self.clock.now_s
        self.sink.record(now, DVM_JOB, uid, COMP_DVM, EV_PENDING_APP_LAUNCH)
        self.sink.record(now, DVM_JOB, uid, COMP_DVM, EV_SENDING_LAUNCH_MSG)
        launch = self._launch_msg.sample(self.rng)
        self.clock.schedule_at(now + launch, partial(self._to_running, uid))

    def _to_running(self, uid: str) -> None:
        entry = self._live.get(uid)
        if entry is None:
            return
        rec = entry[0]
        now = self.clock.now_s
        self.sink.record(now, DVM_JOB, uid, COMP_DVM, EV_RUNNING)
        self.host.task_running(rec, now)
        self.clock.schedule_at(now + rec.spec.duration_s, partial(self._payload_end, uid))

    def _payload_end(self, uid: str) -> None:
        if uid not in self._live:
            return
        now = self.clock.now_s
        notify = self._notify.sample(self.rng)
        self.clock.schedule_at(now + notify, partial(self._to_notify, uid, now))

    def _to_notify(self, uid: str, t_payload_end: float) -> None:
        entry = self._live.pop(uid, None)
        if entry is None:
            return
        rec, executor = entry
        self.sink.record(self.clock.now_s, DVM_JOB, uid, COMP_DVM, EV_NOTIFY_COMPLETE)
        executor.enqueue_completion(rec, 0, t_payload_end)

    def _crash(self, now: float) -> None:
        self.crashed = True
        self.sink.record(now, PILOT, self.uid, COMP_DVM, EV_DVM_CRASH,
                         f"live={len(self._live)}")
        entries = list(self._live.values())
        self._live.clear()
        for rec, _ in entries:
            self.host.task_failed(rec, FailureReason.DVM_CRASHED, now)
