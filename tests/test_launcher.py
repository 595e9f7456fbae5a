import numpy as np
import pytest

from pilotsim import ConfigError, parse_config_text, run_pilot
from pilotsim.core import FailureReason, TaskRecord, TaskSpec, VirtualClock
from pilotsim.dvm import LatencySpec
from pilotsim.launcher import FdAccountant, SimJsmBackend
from pilotsim.scheduler import ResourcePool

from conftest import task_events, zero_overhead


def submit_times(res):
    """Submission times of every task of a run without failures, in order."""
    return sorted(h["submit"].t_s for h in task_events(res.events).values())


def lanes(res):
    """Each executor's submissions, [(time, enforced wait)], in time order."""
    out = {}
    for e in res.events:
        if e.name == "submit":
            out.setdefault(e.attrs["executor"], []).append((e.t_s, float(e.attrs["wait"])))
    return out


class TestRateGate:
    def test_serial_total_wait(self, quick_cfg):
        # one executor: each submission waits the delay after the lane's last one
        cfg = quick_cfg(workload__n_tasks=64, pool__nodes=3, agent__schedule_cost_s=0.0,
                        backend__submit_delay_s=0.1)
        (lane,) = lanes(run_pilot(cfg, seed=2)).values()
        t, wait = zip(*lane)
        assert len(t) == 64
        assert sum(wait) >= 63 * 0.1 - 1e-6
        assert all(b - a >= 0.1 - 1e-9 for a, b in zip(t, t[1:]))

    def test_zero_delay_no_wait(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=32, backend__submit_delay_s=0.0)
        (lane,) = lanes(run_pilot(cfg, seed=2)).values()
        assert [w for _, w in lane] == [0.0] * 32

    def test_per_executor_span_with_four_sub_agents(self, quick_cfg):
        # 64 tasks round-robin over 4 executors, 0.01s delay each
        cfg = quick_cfg(workload__n_tasks=64, pool__nodes=3, agent__schedule_cost_s=0.0,
                        backend__submit_delay_s=0.01, subagents__n_sub_agents=4)
        by_executor = lanes(run_pilot(cfg, seed=2))
        assert len(by_executor) == 4
        for lane in by_executor.values():
            t, wait = zip(*lane)
            assert len(t) == 16
            assert sum(wait) >= 16 * 0.01 - 1e-9
            assert t[-1] - t[0] >= 15 * 0.01 - 1e-9

    def test_gap_enforced_after_idle(self, quick_cfg):
        # 8 one-core tasks on 4 worker cores: the lane idles through the
        # first wave's 5 s payloads, far longer than the delay
        cfg = quick_cfg(workload__n_tasks=8, pool__cores_per_node=4,
                        backend__submit_delay_s=0.1)
        (lane,) = lanes(run_pilot(cfg, seed=2)).values()
        t, wait = zip(*lane)
        assert wait[:4] == (0.1,) * 4
        assert t[4] - t[3] > 5.0 and wait[4] == 0.0
        assert all(b - a >= 0.1 - 1e-9 for a, b in zip(t, t[1:]))


class TestFdAccountant:
    def test_paper_ceiling_967(self):
        acct = FdAccountant(limit=4096, reserved=1195)
        held = 0
        while acct.acquire(3):
            held += 1
        assert held == 967

    def test_minimal_budget_one_task(self):
        acct = FdAccountant(limit=3, reserved=0)
        assert acct.acquire(3)
        assert not acct.acquire(3)

    def test_random_trace_counter_oracle(self):
        rng = np.random.default_rng(5)
        acct = FdAccountant(limit=64, reserved=10)
        counter = 0
        held = []
        for _ in range(500):
            if held and rng.random() < 0.5:
                n = held.pop()
                acct.release(n)
                counter -= n
            else:
                n = int(rng.integers(1, 5))
                if acct.acquire(n):
                    counter += n
                    held.append(n)
                else:
                    assert counter + 10 + n > 64
            assert acct.in_use == counter
            assert acct.in_use <= 64 - 10

    def test_reserved_must_be_below_limit(self):
        # a negative reservation would let in_use pass the limit
        for reserved in (10, -5):
            with pytest.raises(ValueError):
                FdAccountant(limit=10, reserved=reserved)


class TestProfileValidation:
    def test_jsm_fd_limit_is_fixed(self):
        with pytest.raises(ConfigError):
            parse_config_text("backend.kind=sim_jsm\nbackend.fd_limit=65536\n")

    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            parse_config_text("backend.fail_prob_over_rate=1.5\n")

    def test_sub_agent_set(self, quick_cfg):
        cfg = quick_cfg(subagents__n_sub_agents=8)
        events = run_pilot(cfg, seed=1).events
        # 16 tasks round-robin: each of the 8 executors submits two
        assert len({e.attrs["executor"] for e in events if e.name == "submit"}) == 8
        with pytest.raises(ConfigError):
            parse_config_text("subagents.n_sub_agents=0\n")


class TestSubmitPipeline:
    def test_stable_rate_no_rejections(self, quick_cfg):
        # delay 0.1 keeps the per-executor rate under 10/s
        cfg = quick_cfg(workload__n_tasks=1024, workload__duration_s=900.0,
                        pool__nodes=26)
        cfg.backend.max_rate_hz = 10.0
        res = run_pilot(cfg, seed=1)
        assert res.n_failed == 0
        assert res.failures.get("RateRejected") is None

    def test_seeded_over_rate_failure_fraction(self, quick_cfg):
        # no artificial delay: every submission is over-rate, 5% fail odds
        cfg = quick_cfg(workload__n_tasks=10000, workload__duration_s=50.0,
                        pool__nodes=240)
        cfg.backend.submit_delay_s = 0.0
        cfg.backend.submit_cost_s = 0.001
        cfg.backend.max_rate_hz = 10.0
        cfg.backend.fail_prob_over_rate = 0.05
        cfg.agent.schedule_cost_s = 0.0
        res = run_pilot(cfg, seed=42)
        fraction = res.failures.get("RateRejected", 0) / 10000
        assert 0.03 <= fraction <= 0.10

    def test_fd_exhaustion_marks_tasks(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=12, workload__duration_s=50.0)
        cfg.backend.fd_limit = 30  # 10 concurrent at 3 each
        cfg.backend.fd_reserved = 0
        cfg.backend.submit_delay_s = 0.0
        res = run_pilot(cfg, seed=1)
        assert res.failures.get("FdExhausted") == 2
        failed = [h["task_fail"] for h in task_events(res.events).values()
                  if "task_fail" in h]
        assert all(e.attrs["reason"] == FailureReason.FD_EXHAUSTED.value for e in failed)


class TestCollect:
    def test_end_time_order(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=10))
        cfg.backend.submit_cost_s = 0.01  # stagger starts
        res = run_pilot(cfg, seed=1)
        ends = [h["done"].t_s for h in task_events(res.events).values()]
        collected = [e.t_s for e in res.events if e.name == "done"]
        assert len(collected) == 10
        assert collected == sorted(ends)

    def test_end_stagger_mirrors_start_stagger(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=8))
        cfg.backend.submit_delay_s = 0.1
        res = run_pilot(cfg, seed=1)
        tasks = sorted(task_events(res.events).values(), key=lambda h: h["running"].t_s)
        starts = [h["running"].t_s for h in tasks]
        ends = [h["done"].t_s for h in tasks]
        start_gaps = np.diff(starts)
        end_gaps = np.diff(ends)
        assert np.allclose(start_gaps, end_gaps)


class TestMakePartitions:
    def test_identity(self):
        pool = ResourcePool(5, agent_nodes=1)
        assert pool.split(1) == [pool]

    def test_even_split(self):
        pool = ResourcePool(9, agent_nodes=1)  # 8 workers
        parts = pool.split(4)
        assert [len(p.workers) for p in parts] == [2, 2, 2, 2]
        uids = [uid for p in parts for uid in p.workers]
        assert uids == sorted(set(uids))  # disjoint, contiguous

    def test_round_robin_counting_oracle(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=64, pool__nodes=9))
        cfg.agent.partitions = 4
        cfg.subagents.n_sub_agents = 4
        pr_run = run_pilot(cfg, seed=1)
        assert pr_run.n_done == 64
        # counting oracle: i % k for 16384 tasks over 4 partitions
        counts = [0, 0, 0, 0]
        for i in range(16384):
            counts[i % 4] += 1
        assert counts == [4096] * 4

    def test_invalid_k(self):
        pool = ResourcePool(3, agent_nodes=1)
        with pytest.raises(ValueError):
            pool.split(0)
        with pytest.raises(ValueError):
            pool.split(5)


class TestExecutorInvariants:
    @pytest.mark.parametrize("delay", [0.0, 0.01, 0.1])
    def test_submission_gaps_at_least_delay(self, quick_cfg, delay):
        cfg = quick_cfg(workload__n_tasks=32)
        cfg.backend.submit_delay_s = delay
        res = run_pilot(cfg, seed=3)
        ts = submit_times(res)
        assert len(ts) == 32
        assert all(b - a >= delay - 1e-9 for a, b in zip(ts, ts[1:]))

    def test_fd_drained_to_zero(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=20)
        pr = run_pilot(cfg, seed=2)
        assert pr.n_done == 20

    def test_makespan_bounds_with_sub_agents(self, quick_cfg):
        def makespan(n_subagents):
            cfg = zero_overhead(quick_cfg(workload__n_tasks=64, pool__nodes=4))
            cfg.backend.submit_delay_s = 0.1
            cfg.subagents.n_sub_agents = n_subagents
            res = run_pilot(cfg, seed=1)
            ts = submit_times(res)
            return max(ts) - min(ts)

        serial = makespan(1)
        quad = makespan(4)
        assert quad <= serial + 1e-9
        assert quad >= serial / 4 - 0.2


class TestSimJsm:
    def test_single_executor_runs_clean(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=8))
        cfg.backend.kind = "sim_jsm"
        cfg.backend.fd_limit = 4096
        cfg.backend.fd_reserved = 1195
        res = run_pilot(cfg, seed=1)
        assert res.n_done == 8

    def test_concurrent_executors_destabilize(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=8))
        cfg.backend.kind = "sim_jsm"
        cfg.backend.fd_limit = 4096
        cfg.backend.fd_reserved = 1195
        cfg.subagents.n_sub_agents = 2
        res = run_pilot(cfg, seed=1)
        assert res.n_failed > 0
        assert res.failures.get("DvmCrashed", 0) > 0

    def test_a_second_executor_fails_every_job_through_the_host(self):
        # the backend reports each refusal itself: executor A's live job
        # first, then B's submission, then every later one
        class Host:
            def __init__(self):
                self.failed = []

            def task_failed(self, rec, reason, t):
                self.failed.append((rec.uid, reason.value, t))

        class Executor:
            def __init__(self, uid):
                self.uid = uid

        clock, host = VirtualClock(), Host()
        jsm = SimJsmBackend(clock, host, LatencySpec(0.5), np.random.default_rng(0))
        a, b = Executor("exec.a"), Executor("exec.b")

        def submit(uid, executor, t):
            jsm.submit_job(TaskRecord(uid, TaskSpec(cores=1, duration_s=5.0)), executor, t)

        submit("t0", a, 0.0)
        assert host.failed == []
        submit("t1", b, 0.1)
        assert host.failed == [("t0", "DvmCrashed", 0.1), ("t1", "DvmCrashed", 0.1)]
        submit("t2", a, 0.2)
        assert host.failed[2:] == [("t2", "DvmCrashed", 0.2)]
        clock.run()  # t0's launch finds it gone: nothing runs
        assert jsm.unstable and len(host.failed) == 3
