import math

import numpy as np
import pytest

from pilotsim import (
    IncompleteRun,
    TaskSpec,
    TaskTable,
    component_overheads,
    compute_ttx,
    ideal_ttx,
    run_pilot,
    utilization,
)
from pilotsim.analysis import CATEGORIES, OverheadStats, _segments, timeline
from pilotsim.cli import analyze_rep
from pilotsim.profiler import Event
from pilotsim.scheduler import ResourcePool

from conftest import zero_overhead

RES_MS = 0.001


def sweep_oracle(starts, ends, resolution=RES_MS):
    """Brute-force union measure: mark covered cells on a 1 ms grid."""
    if not len(starts):
        return 0.0
    lo, hi = min(starts), max(ends)
    n = int(math.ceil((hi - lo) / resolution)) + 1
    grid = np.zeros(n, dtype=bool)
    for start, end in zip(starts, ends):
        a = int(round((start - lo) / resolution))
        b = int(round((end - lo) / resolution))
        grid[a:b] = True
    return float(grid.sum()) * resolution


def aggregate(starts, ends) -> OverheadStats:
    return OverheadStats.from_arrays(np.array(starts, dtype=float), np.array(ends, dtype=float))


class TestAggregateOverhead:
    def test_staggered_chain(self):
        starts = list(range(10))
        ends = [a + 5 for a in starts]
        st = aggregate(starts, ends)
        assert st.union_s == pytest.approx(14.0)
        assert st.span_s == pytest.approx(14.0)
        assert st.union_s == pytest.approx(sweep_oracle(starts, ends), abs=RES_MS)

    def test_single_interval(self):
        st = aggregate([0], [5])
        assert (st.union_s, st.span_s) == (5.0, 5.0)

    def test_disjoint(self):
        st = aggregate([0, 10], [1, 11])
        assert st.union_s == pytest.approx(2.0)
        assert st.span_s == pytest.approx(11.0)

    def test_empty(self):
        st = aggregate([], [])
        assert (st.union_s, st.span_s) == (0.0, 0.0)

    def test_union_never_exceeds_span_or_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            starts, ends = [], []
            for _ in range(int(rng.integers(1, 40))):
                a = round(float(rng.uniform(0, 30)), 3)
                starts.append(a)
                ends.append(a + round(float(rng.uniform(0, 5)), 3))
            st = aggregate(starts, ends)
            assert st.union_s <= st.span_s + 1e-9
            assert st.union_s <= sum(ends) - sum(starts) + 1e-9
            assert st.union_s == pytest.approx(sweep_oracle(starts, ends), abs=RES_MS + 1e-9)


class TestComputeTtx:
    def test_single_task_zero_overheads(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=1, workload__duration_s=900.0))
        res = run_pilot(cfg, seed=1)
        assert compute_ttx(res.events) == pytest.approx(900.0, abs=1e-9)

    def test_two_sequential_tasks_one_core(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=2, workload__duration_s=5.0))
        cfg.pool.cores_per_node = 1
        cfg.pool.gpus_per_node = 0
        res = run_pilot(cfg, seed=1)
        assert res.n_done == 2
        assert compute_ttx(res.events) == pytest.approx(10.0, abs=1e-9)

    def test_incomplete_run_rejected(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=1))
        res = run_pilot(cfg, seed=1)
        truncated = [e for e in res.events if e.name != "pilot_stop"]
        with pytest.raises(IncompleteRun):
            compute_ttx(truncated)


class TestIdealTtx:
    def _pool(self, worker_cores):
        return ResourcePool.uniform(2, cores_per_node=worker_cores,
                                    gpus_per_node=0, agent_nodes=1)

    def test_full_concurrency(self):
        pool = ResourcePool.uniform(392, cores_per_node=42, agent_nodes=1)
        assert ideal_ttx(16384, TaskSpec(1, 0, 900.0), pool) == pytest.approx(900.0)

    def test_waves(self):
        assert ideal_ttx(10, TaskSpec(1, 0, 900.0), self._pool(4)) == pytest.approx(2700.0)

    def test_capacity_plus_one(self):
        assert ideal_ttx(9, TaskSpec(1, 0, 42.0), self._pool(8)) == pytest.approx(84.0)

    def test_gpus_bind(self, quick_cfg):
        # 10 tasks of 6 GPUs on 2 worker nodes of 6 GPUs: 5 waves, not 1
        cfg = zero_overhead(quick_cfg(workload__n_tasks=10, workload__duration_s=100.0,
                                      workload__gpus_per_task=6, pool__nodes=3))
        spec = TaskSpec(cores=1, gpus=6, duration_s=100.0)
        res = run_pilot(cfg, seed=1)
        assert ideal_ttx(10, spec, res.pool) == pytest.approx(500.0)
        assert ideal_ttx(10, spec, res.pool) <= compute_ttx(res.events)

    def test_shape_larger_than_pool_rejected(self):
        with pytest.raises(ValueError, match="do not fit the pool"):
            ideal_ttx(1, TaskSpec(cores=5, duration_s=5.0), self._pool(4))


class TestComponentOverheads:
    def test_wait_dominates_rp_overhead(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=1024, workload__duration_s=900.0,
                        pool__nodes=26)
        cfg.backend.submit_delay_s = 0.1
        res = run_pilot(cfg, seed=1)
        report = component_overheads(res.events)
        wait = report.components["prrte_wait"]
        rp = report.components["rp"]
        assert wait.n == 1024
        assert wait.union_s >= 102.3
        assert wait.union_s <= rp.union_s + 1e-6
        assert rp.union_s <= rp.span_s

    def test_zero_latency_single_task_all_zero(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=1))
        res = run_pilot(cfg, seed=1)
        report = component_overheads(res.events)
        for stats in report.components.values():
            assert stats.union_s == pytest.approx(0.0, abs=1e-9)

    def test_single_task_aggregated_equals_individual(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=1)
        res = run_pilot(cfg, seed=1)
        report = component_overheads(res.events)
        for stats in report.components.values():
            if stats.n:
                assert stats.union_s == pytest.approx(stats.mean_s)
                assert stats.union_s == pytest.approx(stats.span_s)

    def test_launch_msg_individual_mean(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=2000, workload__duration_s=900.0,
                        pool__nodes=49)
        res = run_pilot(cfg, seed=2026)
        report = component_overheads(res.events)
        launch = report.components["dvm_launch_msg"]
        assert launch.n == 2000
        assert abs(launch.mean_s - 0.034) <= 0.1 * 0.034


def synthetic_events(t_ready=5.0, t_stop=20.0):
    return [
        Event(0.0, "Pilot", "pilot", "Agent", "pilot_start"),
        Event(t_ready, "Pilot", "pilot", "Agent", "agent_ready"),
        Event(t_ready, "Pilot", "pilot", "Client", "workload_received"),
        Event(t_stop, "Pilot", "pilot", "Agent", "pilot_stop"),
    ]


class TestUtilization:
    def test_degenerate_run_without_tasks(self):
        pool = ResourcePool.uniform(2, cores_per_node=4, gpus_per_node=1,
                                    agent_nodes=1)
        ub = utilization(synthetic_events(), pool)
        four = (ub.percents["agent_nodes"] + ub.percents["pilot_startup"]
                + ub.percents["pilot_termination"] + ub.percents["idle"])
        assert four == pytest.approx(100.0, abs=1e-9)
        assert sum(ub.percents.values()) == pytest.approx(100.0, abs=0.01)

    def test_percents_sum_to_100(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=40, pool__nodes=3)
        res = run_pilot(cfg, seed=5)
        ub = utilization(res.events, res.pool)
        assert sum(ub.percents.values()) == pytest.approx(100.0, abs=0.01)
        assert set(ub.percents) == set(CATEGORIES)

    def test_exec_cmd_exact_in_virtual_mode(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=25, workload__duration_s=7.5,
                        pool__nodes=2)
        res = run_pilot(cfg, seed=6)
        ub = utilization(res.events, res.pool)
        expected = 25 * 7.5 * 1  # n x duration x cores
        assert ub.resource_seconds["exec_cmd"] == pytest.approx(expected, abs=1e-6)

    def test_delay_monotonicity(self, quick_cfg):
        def run_with(delay):
            cfg = quick_cfg(workload__n_tasks=24)
            cfg.backend.submit_delay_s = delay
            res = run_pilot(cfg, seed=7)
            ub = utilization(res.events, res.pool)
            return compute_ttx(res.events), ub.resource_seconds["prepare_execution"]

        ttx_fast, prep_fast = run_with(0.02)
        ttx_slow, prep_slow = run_with(0.1)
        assert ttx_slow >= ttx_fast - 1e-9
        assert prep_slow >= prep_fast - 1e-9

    def test_gpu_weight_scales_idle(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=8)
        res = run_pilot(cfg, seed=8)
        full = utilization(res.events, res.pool, gpu_weight=1.0)
        none = utilization(res.events, res.pool, gpu_weight=0.0)
        assert none.resource_seconds["idle"] < full.resource_seconds["idle"]
        assert sum(none.percents.values()) == pytest.approx(100.0, abs=0.01)

    def test_incomplete_run_rejected(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=4)
        res = run_pilot(cfg, seed=9)
        truncated = [e for e in res.events if e.name != "pilot_stop"]
        with pytest.raises(IncompleteRun):
            utilization(truncated, res.pool)


class TestTaskTable:
    def test_prebuilt_table_gives_same_metrics(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=30, pool__nodes=3)
        res = run_pilot(cfg, seed=10)
        table = TaskTable.from_events(res.events)
        assert table.n_done == res.n_done == 30
        assert table.n_failed == 0
        assert compute_ttx(table) == compute_ttx(res.events)
        assert component_overheads(table) == component_overheads(res.events)
        assert utilization(table, res.pool) == utilization(res.events, res.pool)


class TestTimeline:
    def test_buckets_conserve_resource_seconds(self, quick_cfg):
        rng = np.random.default_rng(11)
        for trial in range(8):
            cfg = quick_cfg(
                workload__n_tasks=int(rng.integers(1, 60)),
                workload__cores_per_task=int(rng.integers(1, 4)),
                workload__gpus_per_task=int(rng.integers(0, 2)),
                workload__duration_s=round(float(rng.uniform(0.5, 20.0)), 3),
                pool__nodes=int(rng.integers(2, 5)),
                pool__cores_per_node=int(rng.integers(3, 9)),
                backend__submit_delay_s=round(float(rng.uniform(0.0, 0.1)), 3),
                agent__schedule_cost_s=round(float(rng.uniform(0.0, 0.02)), 3),
            )
            gpu_weight = float(rng.choice([0.0, 0.5, 1.0]))
            buckets = int(rng.integers(1, 200))
            res = run_pilot(cfg, seed=int(rng.integers(1 << 30)))
            ub = utilization(res.events, res.pool, gpu_weight=gpu_weight)
            t_mid, grid = timeline(res.events, res.pool, buckets=buckets,
                                   gpu_weight=gpu_weight)
            width = ub.window_s / buckets
            assert t_mid == pytest.approx((np.arange(buckets) + 0.5) * width)
            for cat in CATEGORIES:
                assert grid[cat].min() >= 0.0
                assert float(grid[cat].sum()) * width == pytest.approx(
                    ub.resource_seconds[cat], rel=1e-6, abs=1e-9), (trial, cat)

    def test_segments_are_kept_on_the_table(self, quick_cfg):
        res = run_pilot(quick_cfg(workload__n_tasks=24), seed=2)
        table = TaskTable.from_events(res.events)
        segments = _segments(table, res.pool, 1.0)
        utilization(table, res.pool)
        timeline(table, res.pool)
        assert _segments(table, res.pool, 1.0) is segments
        assert _segments(table, res.pool, 0.5) is not segments  # another weight: built anew

    def test_one_analysis_builds_the_segments_once(self, quick_cfg, tmp_path, monkeypatch):
        # utilization and the timeline share one build; each build reads
        # `t_terminal` once, and nothing else in an analysis reads it
        cfg = quick_cfg(workload__n_tasks=24)
        run_pilot(cfg, run_dir=str(tmp_path), seed=2)
        builds = []
        terminal = TaskTable.t_terminal.fget
        monkeypatch.setattr(TaskTable, "t_terminal",
                            property(lambda table: builds.append(1) or terminal(table)))
        analyze_rep(str(tmp_path), cfg)
        assert len(builds) == 1
