import numpy as np
import pytest

from pilotsim import (
    ConfigError,
    DvmSimConfig,
    IncompleteJob,
    Interval,
    JobStage,
    ResourcePool,
    TaskRecord,
    TaskSpec,
    VirtualClock,
    aggregate_overhead,
    dvm_job_durations,
    dvm_start,
    parse_config_text,
)


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

    def enqueue_completion(self, comp):
        self.completions.append(comp)


def rec_of(uid, duration=900.0):
    return TaskRecord.new(TaskSpec(uid=uid, cores=1, duration_s=duration))


def zero_latency_config(**kw):
    kw.setdefault("launch_mean_s", 0.0)
    kw.setdefault("launch_std_s", 0.0)
    kw.setdefault("setup_mean_s", 0.0)
    kw.setdefault("notify_mean_s", 0.0)
    return DvmSimConfig(**kw)


def launch_latencies(handle):
    return [j.stage_t[JobStage.RUNNING] - j.stage_t[JobStage.SENDING_LAUNCH_MSG]
            for j in handle.jobs.values()]


def boot(config, n_nodes=2, seed=0):
    clock = VirtualClock()
    pool = ResourcePool.uniform(n_nodes, agent_nodes=1)
    host = StubHost()
    ex = StubExecutor()
    handle = dvm_start(config, pool, clock, np.random.default_rng(seed), host=host)
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
        handle.submit_job(rec_of("t0", 1.0), None, ex, clock.now_s)
        clock.run()
        assert handle.jobs
        handle.terminate()
        assert not handle.submit_job(rec_of("t1", 1.0), None, ex, clock.now_s)
        pool = ResourcePool.uniform(2, agent_nodes=1)
        fresh = dvm_start(handle.config, pool, clock, np.random.default_rng(0))
        assert fresh.jobs == {}
        assert not fresh.crashed


class TestDvmSubmit:
    def test_zero_latency_stage_walk(self):
        clock, handle, host, ex = boot(zero_latency_config())
        assert handle.submit_job(rec_of("t0", 900.0), None, ex, clock.now_s)
        clock.run()
        job = handle.jobs["t0"]
        t = job.stage_t
        assert t[JobStage.RUNNING] - t[JobStage.SENDING_LAUNCH_MSG] == 0.0
        assert t[JobStage.NOTIFY_COMPLETE] - t[JobStage.INIT_COMPLETE] == 900.0
        assert ex.completions[0].exit_status == 0

    def test_seeded_launch_latency_moments(self):
        config = zero_latency_config(launch_mean_s=0.034, launch_std_s=0.047)
        clock, handle, host, ex = boot(config, seed=2026)
        for i in range(16384):
            handle.submit_job(rec_of(f"t{i}", 900.0), None, ex, clock.now_s)
        clock.run()
        lat = np.array(launch_latencies(handle))
        assert len(lat) == 16384
        assert abs(lat.mean() - 0.034) <= 0.1 * 0.034
        assert 500.0 <= lat.sum() <= 650.0

    def test_capacity_crash_bracket(self):
        config = zero_latency_config(capacity_tasks=20000)
        clock, handle, host, ex = boot(config)
        for i in range(20001):
            assert handle.submit_job(rec_of(f"t{i}"), None, ex, 0.0)
            if handle.crashed:
                break
        assert handle.crashed
        assert len(host.failed) == 20001

    def test_under_capacity_no_crash(self):
        config = zero_latency_config(capacity_tasks=20000)
        clock, handle, host, ex = boot(config)
        for i in range(16384):
            handle.submit_job(rec_of(f"t{i}", 1.0), None, ex, 0.0)
        clock.run()
        assert not handle.crashed
        assert len(ex.completions) == 16384

    def test_crash_atomicity(self):
        config = zero_latency_config(capacity_tasks=10)
        clock, handle, host, ex = boot(config)
        for i in range(11):
            handle.submit_job(rec_of(f"t{i}", 5.0), None, ex, 0.0)
        clock.run()
        assert handle.crashed
        assert ex.completions == []
        assert all(j.stage is not JobStage.NOTIFY_COMPLETE for j in handle.jobs.values())
        # subsequent submissions are refused outright
        assert not handle.submit_job(rec_of("late"), None, ex, clock.now_s)


class TestJobDurations:
    def _finished_job(self, setup, launch, notify, payload):
        config = zero_latency_config(
            setup_mean_s=setup, launch_mean_s=launch, notify_mean_s=notify,
        )
        clock, handle, host, ex = boot(config)
        handle.submit_job(rec_of("t0", payload), None, ex, clock.now_s)
        clock.run()
        return handle.jobs["t0"]

    def test_zero_latency_durations(self):
        job = self._finished_job(0.0, 0.0, 0.0, 900.0)
        assert dvm_job_durations(job) == (0.0, 0.0, 900.0)

    def test_addition_oracle(self):
        job = self._finished_job(0.2, 0.034, 0.1, 5.0)
        setup, launch, run_notify = dvm_job_durations(job)
        assert setup == pytest.approx(0.2)
        assert launch == pytest.approx(0.034)
        assert run_notify == pytest.approx(5.1)
        total = job.stage_t[JobStage.NOTIFY_COMPLETE] - job.stage_t[JobStage.INIT_COMPLETE]
        assert setup + launch + run_notify == pytest.approx(5.334)
        assert setup + launch + run_notify == pytest.approx(total)

    def test_incomplete_job_rejected(self):
        config = zero_latency_config()
        clock, handle, host, ex = boot(config)
        handle.submit_job(rec_of("t0", 900.0), None, ex, 0.0)
        # do not run the clock: job is still at init_complete
        with pytest.raises(IncompleteJob):
            dvm_job_durations(handle.jobs["t0"])


class TestDvmProperties:
    def test_stage_monotonicity_and_conservation(self):
        config = DvmSimConfig(
            setup_mean_s=0.1, setup_std_s=0.05,
            launch_mean_s=0.034, launch_std_s=0.047,
            notify_mean_s=0.05, notify_std_s=0.02,
        )
        clock, handle, host, ex = boot(config, seed=9)
        for i in range(200):
            handle.submit_job(rec_of(f"t{i}", 3.0), None, ex, clock.now_s)
        clock.run()
        order = [JobStage.INIT_COMPLETE, JobStage.PENDING_APP_LAUNCH,
                 JobStage.SENDING_LAUNCH_MSG, JobStage.RUNNING,
                 JobStage.NOTIFY_COMPLETE]
        for job in handle.jobs.values():
            ts = [job.stage_t[s] for s in order]
            assert all(a <= b for a, b in zip(ts, ts[1:]))
            assert sum(dvm_job_durations(job)) == pytest.approx(ts[-1] - ts[0])

    def test_non_overlapping_latencies_sum(self):
        # submission gap larger than the launch latency: the aggregated
        # launch overhead is the plain sum of individual latencies
        config = zero_latency_config(launch_mean_s=0.034, launch_std_s=0.047)
        clock = VirtualClock()
        pool = ResourcePool.uniform(2, agent_nodes=1)
        handle = dvm_start(config, pool, clock, np.random.default_rng(4))
        ex = StubExecutor()
        for i in range(100):
            clock.schedule_at(
                i * 1.0,
                lambda i=i: handle.submit_job(rec_of(f"t{i}", 0.5), None, ex, clock.now_s),
            )
        clock.run()
        intervals = [
            Interval(j.stage_t[JobStage.SENDING_LAUNCH_MSG], j.stage_t[JobStage.RUNNING])
            for j in handle.jobs.values()
        ]
        union, _ = aggregate_overhead(intervals)
        assert union == pytest.approx(sum(launch_latencies(handle)))

    def test_topology_key_rejected(self):
        # a tree overlay is a different capacity and launch latency
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("dvm.topology=tree\n")
