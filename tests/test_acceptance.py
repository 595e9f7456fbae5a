"""Acceptance gate: one test per criterion, each printing a PASS line.

Paper-scale results are validated in virtual time through the simulated
DVM backend; the real-execution smoke criterion runs actual processes.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import os
import time

import numpy as np
import pytest

from pilotsim import ExperimentConfig, TaskSpec, compute_ttx, run_pilot, utilization
from pilotsim.analysis import OverheadStats
from pilotsim.config import DvmSimConfig
from pilotsim.core import TaskRecord, VirtualClock
from pilotsim.dvm import DvmHandle
from pilotsim.profiler import EventSink
from pilotsim.scheduler import ResourcePool

from conftest import task_events


def _passline(num, detail, budget_s, took_s):
    print(f"[criterion {num:2d}] PASS {detail} (took {took_s:.1f}s of {budget_s:.0f}s)")


def exp3_config(**over) -> ExperimentConfig:
    """16384 one-core 900s tasks, 391 worker nodes, raised FD limit."""
    cfg = ExperimentConfig()
    cfg.workload.n_tasks = 16384
    cfg.workload.duration_s = 900.0
    cfg.pool.nodes = 392  # 391 workers + 1 agent node
    cfg.backend.submit_delay_s = 0.1
    cfg.backend.fd_limit = 65536
    cfg.backend.fd_reserved = 1195
    cfg.subagents.n_sub_agents = 1
    for key, val in over.items():
        parts = key.split("__")
        obj = cfg
        for part in parts[:-1]:
            obj = getattr(obj, part)
        setattr(obj, parts[-1], val)
    return cfg


@pytest.fixture(scope="module")
def exp3_run():
    """Criterion 5's run, shared with criterion 6 for the TTX comparison."""
    t0 = time.monotonic()
    res = run_pilot(exp3_config(), seed=2026)
    return res, time.monotonic() - t0


class TestCriterion1FdCeiling:
    BUDGET = 5.0

    def test_exactly_967_tasks_complete(self):
        t0 = time.monotonic()
        cfg = ExperimentConfig()
        cfg.workload.n_tasks = 1200
        cfg.workload.duration_s = 900.0
        cfg.pool.nodes = 30  # 29 workers x 42 cores hold all 1200 concurrently
        cfg.backend.submit_delay_s = 0.0
        cfg.backend.submit_cost_s = 0.0
        cfg.backend.max_rate_hz = None
        cfg.backend.fd_limit = 4096
        cfg.backend.fd_reserved = 1195
        cfg.agent.schedule_cost_s = 0.0
        res = run_pilot(cfg, seed=1)
        took = time.monotonic() - t0
        assert res.n_done == 967
        assert res.n_failed == 233
        assert res.failures == {"FdExhausted": 233}
        assert took < self.BUDGET
        _passline(1, f"done=967 failed=233 all FdExhausted", self.BUDGET, took)


class TestCriterion2RaisedLimitScale:
    BUDGET = 30.0

    def test_16384_concurrent_without_exhaustion(self):
        t0 = time.monotonic()
        cfg = exp3_config(backend__submit_delay_s=0.0, backend__submit_cost_s=0.0,
                          backend__max_rate_hz=None, agent__schedule_cost_s=0.0)
        res = run_pilot(cfg, seed=1)
        took = time.monotonic() - t0
        assert res.failures.get("FdExhausted") is None
        assert res.n_done == 16384
        assert took < self.BUDGET
        _passline(2, "16384 concurrent tasks, zero FdExhausted", self.BUDGET, took)


class _StubHost:
    def __init__(self):
        self.failed = []

    def task_running(self, rec, t):
        pass

    def task_failed(self, rec, reason, t):
        self.failed.append(reason)


class _StubExecutor:
    uid = "exec.stub"

    def __init__(self):
        self.completions = []

    def enqueue_completion(self, rec, exit_status, t_end):
        self.completions.append((rec, exit_status, t_end))


def _dvm_fixture(capacity, seed=0, launch=(0.0, 0.0)):
    clock = VirtualClock()
    pool = ResourcePool(816, agent_nodes=1)
    config = DvmSimConfig(capacity_tasks=capacity, setup_mean_s=0.0,
                          launch_mean_s=launch[0], launch_std_s=launch[1],
                          notify_mean_s=0.0)
    host = _StubHost()
    handle = DvmHandle(config, pool, clock, np.random.default_rng(seed), EventSink(), host)
    return clock, handle, host


def _job(uid, duration=900.0):
    return TaskRecord(uid, TaskSpec(cores=1, duration_s=duration))


class TestCriterion3DvmCrashBracket:
    BUDGET = 60.0

    def test_crash_bracket(self):
        t0 = time.monotonic()
        ex = _StubExecutor()
        clock, handle, host = _dvm_fixture(capacity=20000)
        for i in range(16384):
            handle.submit_job(_job(f"t{i}", 1.0), ex, 0.0)
        assert host.failed == []
        clock.run()
        assert not handle.crashed
        assert len(ex.completions) == 16384

        ex2 = _StubExecutor()
        clock2, handle2, host2 = _dvm_fixture(capacity=20000)
        crashed_at = None
        for i in range(32768):
            handle2.submit_job(_job(f"u{i}", 900.0), ex2, 0.0)
            if handle2.crashed and crashed_at is None:
                crashed_at = i + 1
        clock2.run()
        took = time.monotonic() - t0
        assert handle2.crashed
        assert crashed_at == 20001
        assert ex2.completions == []
        assert took < self.BUDGET
        _passline(3, "16384 jobs ok; 32768 concurrent crash at job 20001",
                  self.BUDGET, took)


class TestCriterion4LaunchLatency:
    BUDGET = 30.0

    def test_seeded_latency_moments(self):
        t0 = time.monotonic()
        ex = _StubExecutor()
        clock, handle, _ = _dvm_fixture(
            capacity=20000, seed=2026, launch=(0.034, 0.047)
        )
        for i in range(16384):
            handle.submit_job(_job(f"t{i}", 900.0), ex, 0.0)
        clock.run()
        took = time.monotonic() - t0
        times = {}
        for e in handle.sink.events:
            if e.entity_kind == "DvmJob":
                times.setdefault(e.entity_id, {})[e.name] = e.t_s
        lat = np.array([t["running"] - t["sending_launch_msg"] for t in times.values()])
        assert len(lat) == 16384
        mean = float(lat.mean())
        total = float(lat.sum())
        assert abs(mean - 0.034) <= 0.1 * 0.034
        assert 500.0 <= total <= 650.0
        assert took < self.BUDGET
        _passline(4, f"launch mean={mean:.4f}s sum={total:.0f}s", self.BUDGET, took)


class TestCriterion5Experiment3Analog:
    BUDGET = 60.0

    def test_utilization_breakdown(self, exp3_run):
        res, sim_took = exp3_run
        t0 = time.monotonic()
        assert res.n_done == 16384
        # serialized submission floor: payload plus 16384 enforced 0.1s waits
        assert compute_ttx(res.events) >= 900.0 + 1638.4
        ub = utilization(res.events, res.pool)
        took = sim_took + (time.monotonic() - t0)
        exec_cmd = ub.percents["exec_cmd"]
        prep = ub.percents["prepare_execution"]
        drain = ub.percents["draining"]
        assert 20.0 <= exec_cmd <= 30.0
        assert 20.0 <= prep <= 35.0
        assert 20.0 <= drain <= 35.0
        assert abs(prep - drain) / max(prep, drain) <= 0.25
        assert took < self.BUDGET
        _passline(5, f"exec_cmd={exec_cmd:.2f}% prep={prep:.2f}% "
                     f"drain={drain:.2f}%", self.BUDGET, took)


class TestCriterion6Experiment4Analog:
    BUDGET = 60.0

    def test_optimized_run(self, exp3_run):
        baseline, _ = exp3_run
        t0 = time.monotonic()
        cfg = exp3_config(backend__submit_delay_s=0.01, backend__max_rate_hz=None,
                          subagents__n_sub_agents=4)
        res = run_pilot(cfg, seed=2026)
        assert res.n_done == 16384
        ub = utilization(res.events, res.pool)
        took = time.monotonic() - t0
        exec_cmd = ub.percents["exec_cmd"]
        ttx_base = compute_ttx(baseline.events)
        ttx_opt = compute_ttx(res.events)
        assert 55.0 <= exec_cmd <= 70.0
        assert ttx_base / ttx_opt >= 2.0
        assert took < self.BUDGET
        _passline(6, f"exec_cmd={exec_cmd:.2f}% ttx {ttx_base:.0f}s -> "
                     f"{ttx_opt:.0f}s ({ttx_base / ttx_opt:.1f}x)", self.BUDGET, took)


class TestCriterion7AggregationOracle:
    BUDGET = 10.0
    RES = 0.001

    def _sweep(self, starts, ends):
        lo, hi = min(starts), max(ends)
        n = int(math.ceil((hi - lo) / self.RES)) + 1
        grid = np.zeros(n, dtype=bool)
        for start, end in zip(starts, ends):
            a = int(round((start - lo) / self.RES))
            b = int(round((end - lo) / self.RES))
            grid[a:b] = True
        return float(grid.sum()) * self.RES

    def test_500_random_sets_match_sweep(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 65))
            starts, ends = np.empty(n), np.empty(n)
            for i in range(n):
                a = round(float(rng.uniform(0, 50)), 3)
                length = round(float(rng.uniform(0, 8)), 3)
                starts[i], ends[i] = a, a + length
            union = OverheadStats.from_arrays(starts, ends).union_s
            assert abs(union - self._sweep(starts, ends)) <= self.RES + 1e-9
        single = OverheadStats.from_arrays(np.array([3.25]), np.array([9.5]))
        assert single.union_s == 9.5 - 3.25 == single.span_s
        took = time.monotonic() - t0
        assert took < self.BUDGET
        _passline(7, "500 interval sets match 1 ms sweep oracle", self.BUDGET, took)


class TestCriterion8UtilizationConservation:
    BUDGET = 60.0

    def test_fuzzed_conservation(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(2026)
        for trial in range(100):
            cfg = ExperimentConfig()
            cfg.workload.n_tasks = int(rng.integers(1, 28))
            cfg.workload.cores_per_task = int(rng.integers(1, 3))
            cfg.workload.duration_s = round(float(rng.uniform(0.5, 20.0)), 3)
            cfg.pool.nodes = int(rng.integers(2, 5))
            cfg.pool.cores_per_node = int(rng.integers(4, 12))
            cfg.pool.gpus_per_node = int(rng.integers(0, 3))
            cfg.backend.submit_delay_s = round(float(rng.uniform(0.0, 0.1)), 3)
            cfg.backend.submit_cost_s = round(float(rng.uniform(0.0, 0.05)), 3)
            cfg.backend.max_rate_hz = None
            cfg.backend.fd_limit = 65536
            cfg.backend.fd_reserved = int(rng.integers(0, 100))
            cfg.agent.startup_s = round(float(rng.uniform(1.0, 40.0)), 3)
            cfg.agent.termination_s = round(float(rng.uniform(0.5, 10.0)), 3)
            cfg.agent.schedule_cost_s = round(float(rng.uniform(0.0, 0.02)), 3)
            cfg.dvm.setup_mean_s = round(float(rng.uniform(0.0, 0.3)), 3)
            cfg.dvm.launch_std_s = round(float(rng.uniform(0.0, 0.05)), 3)
            if cfg.workload.cores_per_task > cfg.pool.cores_per_node:
                cfg.workload.cores_per_task = cfg.pool.cores_per_node
            res = run_pilot(cfg, seed=int(rng.integers(1 << 30)))
            assert res.n_done == cfg.workload.n_tasks, f"trial {trial}"
            ub = utilization(res.events, res.pool)
            assert abs(sum(ub.percents.values()) - 100.0) <= 0.01
            expected_us = cfg.workload.n_tasks * cfg.workload.cores_per_task * round(
                cfg.workload.duration_s * 1e6
            )
            got_us = sum(
                round((h["done"].t_s - h["running"].t_s) * 1e6)
                * cfg.workload.cores_per_task
                for h in task_events(res.events).values()
            )
            assert got_us == expected_us, f"trial {trial}"
            assert ub.resource_seconds["exec_cmd"] == pytest.approx(
                expected_us / 1e6, abs=1e-6
            )
        took = time.monotonic() - t0
        assert took < self.BUDGET
        _passline(8, "100 fuzzed configs: sums 100+-0.01, exec_cmd exact",
                  self.BUDGET, took)


class TestCriterion9RateContract:
    BUDGET = 10.0

    def test_gaps_and_total_wait(self):
        t0 = time.monotonic()
        for delay in (0.0, 0.01, 0.1):
            cfg = ExperimentConfig()
            cfg.workload.n_tasks = 64
            cfg.workload.duration_s = 30.0
            cfg.pool.nodes = 3
            cfg.backend.submit_delay_s = delay
            cfg.backend.max_rate_hz = None
            cfg.backend.fd_limit = 65536
            cfg.backend.fd_reserved = 0
            res = run_pilot(cfg, seed=3)
            ts = sorted(h["submit"].t_s for h in task_events(res.events).values())
            assert len(ts) == 64
            assert all(b - a >= delay - 1e-9 for a, b in zip(ts, ts[1:])), delay

        cfg = ExperimentConfig()
        cfg.workload.n_tasks = 1024
        cfg.workload.duration_s = 900.0
        cfg.pool.nodes = 26
        cfg.backend.submit_delay_s = 0.1
        cfg.backend.max_rate_hz = None
        cfg.backend.fd_limit = 65536
        cfg.backend.fd_reserved = 0
        res = run_pilot(cfg, seed=3)
        total_wait = sum(float(e.attrs["wait"]) for e in res.events
                         if e.name == "submit")
        assert total_wait >= 102.3
        took = time.monotonic() - t0
        assert took < self.BUDGET
        _passline(9, f"gaps >= delay for 0/0.01/0.1; serial wait {total_wait:.1f}s",
                  self.BUDGET, took)


class TestCriterion10RealExecutionSmoke:
    BUDGET = 60.0

    def test_64_real_sleeps_on_8_cores(self, tmp_path):
        t0 = time.monotonic()
        cfg = ExperimentConfig()
        cfg.backend.kind = "local_exec"
        cfg.backend.submit_delay_s = 0.0
        cfg.backend.submit_cost_s = 0.0
        cfg.backend.max_rate_hz = None
        cfg.backend.fd_limit = 4096
        cfg.backend.fd_reserved = 0
        cfg.workload.n_tasks = 64
        cfg.workload.duration_s = 2.0
        cfg.pool.nodes = 2
        cfg.pool.cores_per_node = 8
        cfg.pool.gpus_per_node = 0
        cfg.agent.startup_s = 0.0
        cfg.agent.termination_s = 0.0
        cfg.agent.schedule_cost_s = 0.0
        run_dir = str(tmp_path / "real")
        res = run_pilot(cfg, run_dir=run_dir, seed=1)
        took = time.monotonic() - t0
        assert res.n_done == 64
        ttx = compute_ttx(res.events)
        ideal = math.ceil(64 / 8) * 2.0
        assert ideal <= ttx <= ideal + 5.0
        for i in range(64):
            base = os.path.join(run_dir, "tasks", f"task.{i:06d}")
            for suffix in (".in", ".out", ".err"):
                assert os.path.exists(base + suffix), base + suffix
        assert took < self.BUDGET
        _passline(10, f"64 real 2s processes, ttx={ttx:.1f}s in [16, 21], "
                      f"192 stdio files", self.BUDGET, took)
