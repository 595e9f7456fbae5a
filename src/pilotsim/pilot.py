"""The agent: one pilot run wiring scheduler, executors and backends.

The run is a single logical control loop driven by the clock's event
queue: the wall clock for `local_exec`, which runs real processes, and
the virtual clock for the simulated backends. t=0 is pilot start; the
agent becomes ready after its startup cost, pulls the workload (one
task shape x `n_tasks`) in bundles of `BUNDLE_SIZE` into one
arrival-ordered queue per partition, and places queue heads that fit
serially onto the pool (first-fit); a task that does not fit waits for
a release. Placed tasks go round-robin to the executors, one per
sub-agent, which pace submissions and drains against the backend. When
every task is terminal the agent tears down and records the pilot_stop
sentinel.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .config import ExperimentConfig, check_seed
from .core import (
    Clock,
    FailureReason,
    RealClock,
    TaskRecord,
    TaskSpec,
    TaskState,
    VirtualClock,
    advance_state,
)
from .dvm import DvmHandle, LatencySpec
from .launcher import (
    Executor,
    FdAccountant,
    LocalExecBackend,
    SimJsmBackend,
)
from .profiler import (
    COMP_AGENT,
    COMP_CLIENT,
    COMP_EXECUTOR,
    COMP_PAYLOAD,
    COMP_SCHEDULER,
    EV_AGENT_READY,
    EV_BUNDLE_RECEIVED,
    EV_DONE,
    EV_PILOT_START,
    EV_PILOT_STOP,
    EV_RUNNING,
    EV_SCHEDULE_OK,
    EV_SUBMIT,
    EV_TASK_FAIL,
    EV_UNSCHEDULE,
    EV_WORKLOAD_RECEIVED,
    PILOT,
    TASK,
    EventSink,
    LogEvents,
)
from .scheduler import ResourcePool

BUNDLE_SIZE = 1024  # tasks per bundle_received line; no reader uses these lines


def build_pool(cfg: ExperimentConfig) -> ResourcePool:
    """The node pool a configuration describes."""
    return ResourcePool(
        cfg.effective_nodes(),
        cores_per_node=cfg.pool.cores_per_node,
        gpus_per_node=cfg.pool.gpus_per_node,
        agent_nodes=cfg.pool.agent_nodes,
    )


def build_spec(cfg: ExperimentConfig) -> TaskSpec:
    """The one task shape a configuration describes."""
    wl = cfg.workload
    return TaskSpec(cores=wl.cores_per_task, gpus=wl.gpus_per_task,
                    duration_s=wl.duration_s)


@dataclass
class _Partition:
    pool: ResourcePool
    next: int  # arrival index of the queue head; partition p of k gets p, p+k, ...
    backend: object = None
    executors: list[Executor] = field(default_factory=list)
    rr: int = 0


@dataclass
class RunResult:
    """What a finished run hands back; each task's history is in `events`,
    read back from the profile text (`profiler.LogEvents`)."""

    events: LogEvents
    pool: ResourcePool
    n_done: int
    n_failed: int
    failures: dict[str, int]


class PilotRun:
    """Executes one repetition of an experiment configuration."""

    def __init__(
        self,
        cfg: ExperimentConfig,
        run_dir: Optional[str] = None,
        seed: Optional[int] = None,
    ):
        cfg.validate()
        self.seed = cfg.seed if seed is None else seed
        check_seed(self.seed)  # an override bypasses cfg.validate
        self.cfg = cfg
        self.run_dir = run_dir
        self.rng = np.random.default_rng(self.seed)
        self.clock: Clock = (RealClock() if cfg.backend.kind == "local_exec"
                             else VirtualClock())
        log_path = os.path.join(run_dir, "profile.log") if run_dir else None
        if run_dir:
            os.makedirs(run_dir, exist_ok=True)
        self.sink = EventSink(log_path)

        self.pool = build_pool(cfg)
        self.fd = FdAccountant(cfg.backend.fd_limit, cfg.backend.fd_reserved)
        self.spec = build_spec(cfg)
        self.groups = [_Partition(pool=p, next=i) for i, p in
                       enumerate(self.pool.split(cfg.agent.partitions))]
        self._t_arrival = 0.0  # every task arrives at agent_ready

        self._sched_busy = False
        self.n_done = 0
        self.n_failed = 0
        self.failures: dict[str, int] = {}
        self._tmp_stdio: Optional[str] = None  # made and removed by this run

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> RunResult:
        self.clock.schedule_at(0.0, self._pilot_start)
        try:
            self.clock.run()
        finally:  # an aborted run too leaves the lines recorded so far on disk
            if self._tmp_stdio:
                shutil.rmtree(self._tmp_stdio, ignore_errors=True)
            self.sink.close()
        return RunResult(
            events=self.sink.events,
            pool=self.pool,
            n_done=self.n_done,
            n_failed=self.n_failed,
            failures=dict(self.failures),
        )

    def _pilot_start(self) -> None:
        cfg = self.cfg
        clock = "real" if isinstance(self.clock, RealClock) else "virtual"
        self.sink.record(0.0, PILOT, "pilot", COMP_AGENT, EV_PILOT_START,
                         f"nodes={self.pool.n_nodes};agent_nodes={cfg.pool.agent_nodes};"
                         f"clock={clock};seed={self.seed}")
        self._build_backends()
        self._build_executors()
        self.clock.schedule_at(self.clock.now_s + cfg.agent.startup_s, self._agent_ready)

    def _build_backends(self) -> None:
        cfg = self.cfg
        kind = cfg.backend.kind
        if kind == "local_exec" and not self.run_dir:
            self._tmp_stdio = tempfile.mkdtemp(prefix="pilotsim-stdio-")
        for i, group in enumerate(self.groups):
            if kind == "sim_dvm":
                group.backend = DvmHandle(
                    cfg.dvm, group.pool, self.clock, self.rng,
                    self.sink, self, uid=f"dvm.{i}",
                )
            elif kind == "sim_jsm":
                group.backend = SimJsmBackend(
                    self.clock, self,
                    LatencySpec(cfg.dvm.launch_mean_s, cfg.dvm.launch_std_s),
                    self.rng,
                )
            else:
                stdio_dir = (os.path.join(self.run_dir, "tasks") if self.run_dir
                             else self._tmp_stdio)
                group.backend = LocalExecBackend(self.clock, self, stdio_dir)

    def _build_executors(self) -> None:
        for j in range(self.cfg.subagents.n_sub_agents):
            group = self.groups[j % len(self.groups)]
            ex = Executor(
                uid=f"exec.{j:03d}",
                config=self.cfg.backend,
                clock=self.clock,
                fd=self.fd,
                backend=group.backend,
                host=self,
                rng=self.rng,
            )
            group.executors.append(ex)

    def _agent_ready(self) -> None:
        now = self.clock.now_s
        self.sink.record(now, PILOT, "pilot", COMP_AGENT, EV_AGENT_READY)
        n, size = self.cfg.workload.n_tasks, BUNDLE_SIZE
        self.sink.record(now, PILOT, "pilot", COMP_CLIENT, EV_WORKLOAD_RECEIVED,
                         f"n_tasks={n}")
        for b, lo in enumerate(range(0, n, size)):
            self.sink.record(now, PILOT, f"bundle.{b:04d}", COMP_CLIENT,
                             EV_BUNDLE_RECEIVED, f"size={min(size, n - lo)}")
        self._t_arrival = now
        self._kick_sched()

    # -- scheduling lane -----------------------------------------------------

    def _kick_sched(self) -> None:
        """Place the earliest-arrived queue head that fits its partition;
        only this lane takes capacity, so the placement succeeds. The
        task's record is made here."""
        if self._sched_busy:
            return
        n, k, spec = self.cfg.workload.n_tasks, len(self.groups), self.spec
        group = None
        for g in self.groups:  # queue heads' arrival indices are distinct
            if g.next < n and (group is None or g.next < group.next) and g.pool.fits(spec):
                group = g
        if group is None:
            return
        idx, group.next = group.next, group.next + k
        rec = TaskRecord(f"task.{idx:06d}", spec, t_last=self._t_arrival,
                         partition=idx % k)
        self._sched_busy = True
        self.clock.schedule_at(self.clock.now_s + self.cfg.agent.schedule_cost_s,
                               partial(self._sched_complete, rec))

    def _sched_complete(self, rec: TaskRecord) -> None:
        self._sched_busy = False
        group = self.groups[rec.partition]
        rec.slot = group.pool.try_schedule(self.spec)
        now = self.clock.now_s
        advance_state(rec, TaskState.SCHEDULED, now)
        self.sink.record(now, TASK, rec.uid, COMP_SCHEDULER, EV_SCHEDULE_OK,
                         f"slot={rec.slot[0]};cores={self.spec.cores}")
        ex = group.executors[group.rr % len(group.executors)]
        group.rr += 1
        ex.enqueue(rec)
        self._kick_sched()

    # -- executor host hooks ---------------------------------------------------

    def task_submitted(self, rec: TaskRecord, executor: Executor,
                       waited: float, now: float) -> None:
        advance_state(rec, TaskState.SUBMITTED, now)
        self.sink.record(now, TASK, rec.uid, COMP_EXECUTOR, EV_SUBMIT,
                         f"wait={waited:.6f};executor={executor.uid}")

    def task_running(self, rec: TaskRecord, t: float) -> None:
        advance_state(rec, TaskState.RUNNING, t)
        self.sink.record(t, TASK, rec.uid, COMP_PAYLOAD, EV_RUNNING)

    def task_collected(self, rec: TaskRecord, exit_status: int, t_end: float,
                       now: float) -> None:
        if rec.state.terminal:
            return
        if exit_status == 0:
            advance_state(rec, TaskState.DONE, t_end)
            self.sink.record(t_end, TASK, rec.uid, COMP_PAYLOAD, EV_DONE, "exit=0")
            self.n_done += 1
        else:
            advance_state(rec, TaskState.FAILED, t_end)
            self._count_failure(FailureReason.NONZERO_EXIT)
            self.sink.record(t_end, TASK, rec.uid, COMP_PAYLOAD, EV_TASK_FAIL,
                             f"reason={FailureReason.NONZERO_EXIT.value};exit={exit_status}")
        self._release(rec, now)

    def task_failed(self, rec: TaskRecord, reason: FailureReason, now: float) -> None:
        if rec.state.terminal:
            return
        advance_state(rec, TaskState.FAILED, now)
        self._count_failure(reason)
        self.sink.record(now, TASK, rec.uid, COMP_EXECUTOR, EV_TASK_FAIL,
                         f"reason={reason.value}")
        self._release(rec, now)

    # -- internals -------------------------------------------------------------

    def _count_failure(self, reason: FailureReason) -> None:
        self.n_failed += 1
        self.failures[reason.value] = self.failures.get(reason.value, 0) + 1

    def _release(self, rec: TaskRecord, now: float) -> None:
        """Return a task's descriptors and slot; runs once per task, when
        it turns terminal (the host hooks return early after that). After
        the last task the agent tears down."""
        if rec.fds_held:
            self.fd.release(rec.fds_held)
            rec.fds_held = 0
        self.groups[rec.partition].pool.unschedule(rec.slot)
        self.sink.record(now, TASK, rec.uid, COMP_SCHEDULER, EV_UNSCHEDULE)
        self._kick_sched()
        if self.n_done + self.n_failed == self.cfg.workload.n_tasks:
            self.clock.schedule_at(now + self.cfg.agent.termination_s, self._pilot_stop)

    def _pilot_stop(self) -> None:
        now = self.clock.now_s
        self.sink.record(now, PILOT, "pilot", COMP_AGENT, EV_PILOT_STOP,
                         f"n_done={self.n_done};n_failed={self.n_failed}")
        self.sink.flush()


def run_pilot(cfg: ExperimentConfig, run_dir: Optional[str] = None,
              seed: Optional[int] = None) -> RunResult:
    return PilotRun(cfg, run_dir=run_dir, seed=seed).run()
