import numpy as np
import pytest

from pilotsim import ConfigError, TaskSpec, parse_config_text
from pilotsim.analysis import OverheadStats
from pilotsim.config import DvmSimConfig
from pilotsim.core import FailureReason, TaskRecord, VirtualClock
from pilotsim.dvm import DvmHandle
from pilotsim.profiler import EventSink
from pilotsim.scheduler import ResourcePool

STAGES = ["init_complete", "pending_app_launch", "sending_launch_msg",
          "running", "notify_complete"]


class StubHost:
    def __init__(self):
        self.running = []
        self.failed = []

    def task_running(self, rec, t):
        self.running.append((rec.uid, t))

    def task_failed(self, rec, reason, t):
        self.failed.append((rec.uid, reason, t))


class StubExecutor:
    uid = "exec.stub"

    def __init__(self):
        self.completions = []

    def enqueue_completion(self, rec, exit_status, t_end):
        self.completions.append((rec, exit_status, t_end))


def rec_of(uid, duration=900.0):
    return TaskRecord(uid, TaskSpec(cores=1, duration_s=duration))


def zero_latency_config(**kw):
    kw.setdefault("launch_mean_s", 0.0)
    kw.setdefault("launch_std_s", 0.0)
    kw.setdefault("setup_mean_s", 0.0)
    kw.setdefault("notify_mean_s", 0.0)
    return DvmSimConfig(**kw)


def stage_times(sink):
    """Per-uid stage times, {uid: {stage: t}}, from the DvmJob events."""
    times = {}
    for e in sink.events:
        if e.entity_kind == "DvmJob":
            times.setdefault(e.entity_id, {})[e.name] = e.t_s
    return times


def durations(t):
    """(setup, launch, run+notify) of one finished job's stage times."""
    return (t["pending_app_launch"] - t["init_complete"],
            t["running"] - t["sending_launch_msg"],
            t["notify_complete"] - t["running"])


def launch_latencies(sink):
    return [t["running"] - t["sending_launch_msg"] for t in stage_times(sink).values()]


def boot(config, n_nodes=2, seed=0):
    clock = VirtualClock()
    pool = ResourcePool(n_nodes, agent_nodes=1)
    host = StubHost()
    ex = StubExecutor()
    handle = DvmHandle(config, pool, clock, np.random.default_rng(seed), EventSink(), host)
    return clock, handle, host, ex


class TestDvmStart:
    def test_one_daemon_per_worker_node(self):
        _, handle, _, _ = boot(zero_latency_config(), n_nodes=2)
        assert handle.n_daemons == 1

    def test_paper_node_count(self):
        _, handle, _, _ = boot(zero_latency_config(), n_nodes=411)
        assert handle.n_daemons == 410

    def test_restart_fresh_job_table(self):
        clock, handle, host, ex = boot(zero_latency_config())
        handle.submit_job(rec_of("t0", 1.0), ex, clock.now_s)
        clock.run()
        assert "notify_complete" in stage_times(handle.sink)["t0"]
        pool = ResourcePool(2, agent_nodes=1)
        fresh = DvmHandle(handle.config, pool, clock, np.random.default_rng(0),
                          EventSink(), host)
        assert fresh.n_live == 0
        assert not fresh.crashed


class TestDvmSubmit:
    def test_zero_latency_stage_walk(self):
        clock, handle, host, ex = boot(zero_latency_config())
        handle.submit_job(rec_of("t0", 900.0), ex, clock.now_s)
        assert host.failed == []
        clock.run()
        t = stage_times(handle.sink)["t0"]
        assert t["running"] - t["sending_launch_msg"] == 0.0
        assert t["notify_complete"] - t["init_complete"] == 900.0
        _, exit_status, _ = ex.completions[0]
        assert exit_status == 0

    def test_seeded_launch_latency_moments(self):
        config = zero_latency_config(launch_mean_s=0.034, launch_std_s=0.047)
        clock, handle, host, ex = boot(config, seed=2026)
        for i in range(16384):
            handle.submit_job(rec_of(f"t{i}", 900.0), ex, clock.now_s)
        clock.run()
        lat = np.array(launch_latencies(handle.sink))
        assert len(lat) == 16384
        assert abs(lat.mean() - 0.034) <= 0.1 * 0.034
        assert 500.0 <= lat.sum() <= 650.0

    def test_capacity_crash_bracket(self):
        config = zero_latency_config(capacity_tasks=20000)
        clock, handle, host, ex = boot(config)
        for i in range(20001):
            handle.submit_job(rec_of(f"t{i}"), ex, 0.0)
            if handle.crashed:
                break
        assert handle.crashed
        assert len(host.failed) == 20001

    def test_under_capacity_no_crash(self):
        config = zero_latency_config(capacity_tasks=20000)
        clock, handle, host, ex = boot(config)
        for i in range(16384):
            handle.submit_job(rec_of(f"t{i}", 1.0), ex, 0.0)
        clock.run()
        assert not handle.crashed
        assert len(ex.completions) == 16384

    def test_crash_atomicity(self):
        config = zero_latency_config(capacity_tasks=10)
        clock, handle, host, ex = boot(config)
        for i in range(11):
            handle.submit_job(rec_of(f"t{i}", 5.0), ex, 0.0)
        clock.run()
        assert handle.crashed
        assert ex.completions == []
        assert not any("notify_complete" in t for t in stage_times(handle.sink).values())
        # subsequent submissions are refused outright
        handle.submit_job(rec_of("late"), ex, clock.now_s)
        assert host.failed[-1] == ("late", FailureReason.DVM_CRASHED, clock.now_s)


class TestJobDurations:
    def _finished_job(self, setup, launch, notify, payload):
        config = zero_latency_config(
            setup_mean_s=setup, launch_mean_s=launch, notify_mean_s=notify,
        )
        clock, handle, host, ex = boot(config)
        handle.submit_job(rec_of("t0", payload), ex, clock.now_s)
        clock.run()
        return stage_times(handle.sink)["t0"]

    def test_zero_latency_durations(self):
        t = self._finished_job(0.0, 0.0, 0.0, 900.0)
        assert durations(t) == (0.0, 0.0, 900.0)

    def test_addition_oracle(self):
        t = self._finished_job(0.2, 0.034, 0.1, 5.0)
        setup, launch, run_notify = durations(t)
        assert setup == pytest.approx(0.2)
        assert launch == pytest.approx(0.034)
        assert run_notify == pytest.approx(5.1)
        total = t["notify_complete"] - t["init_complete"]
        assert setup + launch + run_notify == pytest.approx(5.334)
        assert setup + launch + run_notify == pytest.approx(total)


class TestDvmProperties:
    def test_stage_monotonicity_and_conservation(self):
        config = DvmSimConfig(
            setup_mean_s=0.1, setup_std_s=0.05,
            launch_mean_s=0.034, launch_std_s=0.047,
            notify_mean_s=0.05, notify_std_s=0.02,
        )
        clock, handle, host, ex = boot(config, seed=9)
        for i in range(200):
            handle.submit_job(rec_of(f"t{i}", 3.0), ex, clock.now_s)
        clock.run()
        times = stage_times(handle.sink)
        assert len(times) == 200
        for t in times.values():
            ts = [t[s] for s in STAGES]
            assert all(a <= b for a, b in zip(ts, ts[1:]))
            assert sum(durations(t)) == pytest.approx(ts[-1] - ts[0])

    def test_non_overlapping_latencies_sum(self):
        # submission gap larger than the launch latency: the aggregated
        # launch overhead is the plain sum of individual latencies
        config = zero_latency_config(launch_mean_s=0.034, launch_std_s=0.047)
        clock = VirtualClock()
        pool = ResourcePool(2, agent_nodes=1)
        handle = DvmHandle(config, pool, clock, np.random.default_rng(4),
                           EventSink(), StubHost())
        ex = StubExecutor()
        for i in range(100):
            clock.schedule_at(
                i * 1.0,
                lambda i=i: handle.submit_job(rec_of(f"t{i}", 0.5), ex, clock.now_s),
            )
        clock.run()
        times = stage_times(handle.sink).values()
        union = OverheadStats.from_arrays(
            np.array([t["sending_launch_msg"] for t in times]),
            np.array([t["running"] for t in times])).union_s
        assert union == pytest.approx(sum(launch_latencies(handle.sink)))

    def test_topology_key_rejected(self):
        # a tree overlay is a different capacity and launch latency
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("dvm.topology=tree\n")
