"""Discrete-event model of a PRRTE-style Distributed Virtual Machine.

A DVM is a persistent overlay of launch daemons (one per worker node)
that accepts task-launch requests without per-task bootstrap. Each
accepted request becomes a job that walks a fixed stage machine:

    init_complete -> pending_app_launch -> sending_launch_msg
        -> running -> notify_complete

Stage transitions take sampled latencies. The handle enforces a ceiling
on concurrently live jobs: exceeding it crashes the whole DVM and fails
every live job, mirroring the observed flat-topology collapse at scale.

The handle reads its capacity and the three stage latencies straight
from the `dvm` section of the experiment config (`config.DvmSimConfig`).
Only the flat overlay is modelled; a different overlay is a different
capacity and launch latency in a config file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .config import DvmSimConfig
from .core import Clock, FailureReason, TaskRecord
from .launcher import Completion
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
    Event,
    EventSink,
)
from .scheduler import ResourcePool, Slot


class JobStage(Enum):
    INIT_COMPLETE = "InitComplete"
    PENDING_APP_LAUNCH = "PendingAppLaunch"
    SENDING_LAUNCH_MSG = "SendingLaunchMsg"
    RUNNING = "Running"
    NOTIFY_COMPLETE = "NotifyComplete"
    FAILED = "Failed"


_STAGE_EVENT = {
    JobStage.INIT_COMPLETE: EV_INIT_COMPLETE,
    JobStage.PENDING_APP_LAUNCH: EV_PENDING_APP_LAUNCH,
    JobStage.SENDING_LAUNCH_MSG: EV_SENDING_LAUNCH_MSG,
    JobStage.RUNNING: EV_RUNNING,
    JobStage.NOTIFY_COMPLETE: EV_NOTIFY_COMPLETE,
}


class IncompleteJob(ValueError):
    """Raised when stage durations are requested before notify_complete."""


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
            x = rng.normal(self.mean_s, self.std_s)
            if 0.0 <= x <= hi:
                return float(x)
        return self.mean_s  # pragma: no cover - acceptance probability ~0.5


@dataclass
class DvmJob:
    task_uid: str
    stage: JobStage
    stage_t: dict[JobStage, float] = field(default_factory=dict)

    def t_of(self, stage: JobStage) -> Optional[float]:
        return self.stage_t.get(stage)


@dataclass
class _LiveEntry:
    job: DvmJob
    rec: TaskRecord
    slot: Slot
    executor: object  # duck-typed: needs enqueue_completion()
    t_payload_end: Optional[float] = None


class DvmHandle:
    """One running DVM: daemons, job table, capacity and crash state."""

    def __init__(
        self,
        config: DvmSimConfig,
        pool: ResourcePool,
        clock: Clock,
        rng: np.random.Generator,
        sink: Optional[EventSink] = None,
        host=None,
        uid: str = "dvm.0",
    ):
        if not pool.worker_nodes:
            raise ValueError("DVM needs at least one worker node")
        self.uid = uid
        self.config = config
        self._setup = LatencySpec(config.setup_mean_s, config.setup_std_s)
        self._launch_msg = LatencySpec(config.launch_mean_s, config.launch_std_s)
        self._notify = LatencySpec(config.notify_mean_s, config.notify_std_s)
        self.clock = clock
        self.rng = rng
        self.sink = sink
        self.host = host
        self.n_daemons = len(pool.worker_nodes)
        self.jobs: dict[str, DvmJob] = {}
        self._live: dict[str, _LiveEntry] = {}
        self.crashed = False
        self.terminated = False

    @property
    def n_live(self) -> int:
        return len(self._live)

    def submit_job(self, rec: TaskRecord, slot: Slot, executor, now: float) -> bool:
        """Accept a launch request; False when the DVM is crashed/terminated.

        Accepting the request that pushes live jobs past capacity crashes
        the handle: every live job (including this one) fails.
        """
        if self.crashed or self.terminated:
            return False
        job = DvmJob(task_uid=rec.uid, stage=JobStage.INIT_COMPLETE)
        job.stage_t[JobStage.INIT_COMPLETE] = now
        self.jobs[rec.uid] = job
        self._live[rec.uid] = _LiveEntry(job=job, rec=rec, slot=slot, executor=executor)
        self._stage_event(job, JobStage.INIT_COMPLETE, now)
        if len(self._live) > self.config.capacity_tasks:
            self._crash(now)
            return True
        setup = self._setup.sample(self.rng)
        self.clock.schedule_in(setup, lambda: self._to_pending(rec.uid))
        return True

    def terminate(self) -> None:
        self.terminated = True
        self._live.clear()

    # -- stage walk ---------------------------------------------------------

    def _entry(self, uid: str) -> Optional[_LiveEntry]:
        if self.crashed:
            return None
        entry = self._live.get(uid)
        if entry is None or entry.job.stage is JobStage.FAILED:
            return None
        return entry

    def _to_pending(self, uid: str) -> None:
        entry = self._entry(uid)
        if entry is None:
            return
        now = self.clock.now_s
        job = entry.job
        job.stage = JobStage.SENDING_LAUNCH_MSG
        job.stage_t[JobStage.PENDING_APP_LAUNCH] = now
        job.stage_t[JobStage.SENDING_LAUNCH_MSG] = now
        self._stage_event(job, JobStage.PENDING_APP_LAUNCH, now)
        self._stage_event(job, JobStage.SENDING_LAUNCH_MSG, now)
        launch = self._launch_msg.sample(self.rng)
        self.clock.schedule_in(launch, lambda: self._to_running(uid))

    def _to_running(self, uid: str) -> None:
        entry = self._entry(uid)
        if entry is None:
            return
        now = self.clock.now_s
        job = entry.job
        job.stage = JobStage.RUNNING
        job.stage_t[JobStage.RUNNING] = now
        self._stage_event(job, JobStage.RUNNING, now)
        if self.host is not None:
            self.host.task_running(entry.rec, now)
        duration = entry.rec.spec.duration_s or 0.0
        self.clock.schedule_in(duration, lambda: self._payload_end(uid))

    def _payload_end(self, uid: str) -> None:
        entry = self._entry(uid)
        if entry is None:
            return
        entry.t_payload_end = self.clock.now_s
        notify = self._notify.sample(self.rng)
        self.clock.schedule_in(notify, lambda: self._to_notify(uid))

    def _to_notify(self, uid: str) -> None:
        entry = self._entry(uid)
        if entry is None:
            return
        now = self.clock.now_s
        job = entry.job
        job.stage = JobStage.NOTIFY_COMPLETE
        job.stage_t[JobStage.NOTIFY_COMPLETE] = now
        self._stage_event(job, JobStage.NOTIFY_COMPLETE, now)
        del self._live[uid]
        entry.executor.enqueue_completion(
            Completion(task_uid=uid, exit_status=0, t_end=entry.t_payload_end))

    def _crash(self, now: float) -> None:
        self.crashed = True
        if self.sink is not None:
            self.sink.record(
                Event(now, PILOT, self.uid, COMP_DVM, EV_DVM_CRASH,
                      {"live": str(len(self._live))})
            )
        entries = list(self._live.values())
        self._live.clear()
        for entry in entries:
            entry.job.stage = JobStage.FAILED
            entry.job.stage_t[JobStage.FAILED] = now
            if self.host is not None:
                self.host.task_failed(entry.rec, FailureReason.DVM_CRASHED, now)

    def _stage_event(self, job: DvmJob, stage: JobStage, t: float) -> None:
        if self.sink is not None:
            self.sink.record(
                Event(t, DVM_JOB, job.task_uid, COMP_DVM, _STAGE_EVENT[stage])
            )


def dvm_start(
    config: DvmSimConfig,
    pool: ResourcePool,
    clock: Clock,
    rng: np.random.Generator,
    sink: Optional[EventSink] = None,
    host=None,
    uid: str = "dvm.0",
) -> DvmHandle:
    """Boot a DVM over `pool`: one simulated daemon per worker node."""
    handle = DvmHandle(config, pool, clock, rng, sink=sink, host=host, uid=uid)
    if sink is not None:
        sink.record(
            Event(clock.now_s, PILOT, uid, COMP_DVM, EV_DVM_START,
                  {"daemons": str(handle.n_daemons),
                   # the log format keeps this attribute; only a flat overlay is modelled
                   "topology": "flat"})
        )
    return handle


def dvm_job_durations(job: DvmJob) -> tuple[float, float, float]:
    """The three stage-pair durations (setup, launch, run+notify).

    Their sum equals notify_complete - init_complete.
    """
    if job.stage is not JobStage.NOTIFY_COMPLETE:
        raise IncompleteJob(
            f"job {job.task_uid} is in stage {job.stage.value}, not NotifyComplete"
        )
    t = job.stage_t
    setup = t[JobStage.PENDING_APP_LAUNCH] - t[JobStage.INIT_COMPLETE]
    launch = t[JobStage.RUNNING] - t[JobStage.SENDING_LAUNCH_MSG]
    run_notify = t[JobStage.NOTIFY_COMPLETE] - t[JobStage.RUNNING]
    return (setup, launch, run_notify)
