import gc
import os
import sys
import tempfile
import tracemalloc
import weakref

import pytest

from pilotsim import (ConfigError, TaskTable, load_profile, parse_config_file, pilot, run_pilot,
                      scheduler)
from pilotsim.core import TaskRecord
from pilotsim.pilot import PilotRun

from conftest import task_events, zero_overhead


class TestDeterminism:
    def test_identical_seed_identical_log_bytes(self, quick_cfg, tmp_path):
        def run(tag):
            cfg = quick_cfg(workload__n_tasks=50, pool__nodes=3)
            cfg.backend.max_rate_hz = 10.0  # exercise the seeded failure path
            cfg.backend.submit_delay_s = 0.0
            run_pilot(cfg, run_dir=str(tmp_path / tag), seed=99)
            return (tmp_path / tag / "profile.log").read_bytes()

        assert run("a") == run("b")

    def test_different_seed_differs(self, quick_cfg, tmp_path):
        def run(tag, seed):
            cfg = quick_cfg(workload__n_tasks=50, pool__nodes=3)
            run_pilot(cfg, run_dir=str(tmp_path / tag), seed=seed)
            return (tmp_path / tag / "profile.log").read_bytes()

        assert run("a", 1) != run("b", 2)  # sampled latencies differ


class TestMultiWave:
    def test_waitpool_reschedules_on_release(self, quick_cfg):
        # 30 one-core tasks on 8 worker cores: four waves
        cfg = zero_overhead(quick_cfg(workload__n_tasks=30, workload__duration_s=2.0))
        cfg.pool.cores_per_node = 8
        res = run_pilot(cfg, seed=1)
        assert res.n_done == 30
        starts = sorted(h["running"].t_s for h in task_events(res.events).values())
        waves = sorted({round(s, 6) for s in starts})
        assert len(waves) == 4  # ceil(30/8)

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_waiting_tasks_placed_in_arrival_order(self, quick_cfg, partitions):
        # 48 one-core tasks on 16 worker cores, with a scheduling cost, so
        # releases come while tasks wait; task i arrives i-th and goes to
        # partition i % k, and each partition places its tasks in that order
        cfg = quick_cfg(workload__n_tasks=48, workload__duration_s=20.0, pool__nodes=3)
        cfg.pool.cores_per_node = 8
        cfg.backend.submit_delay_s = 0.01
        cfg.agent.schedule_cost_s = 0.002
        cfg.agent.partitions = partitions
        cfg.subagents.n_sub_agents = partitions
        res = run_pilot(cfg, seed=7)
        assert res.n_done == 48
        placed = [int(e.entity_id.rsplit(".", 1)[1])
                  for e in res.events if e.name == "schedule_ok"]
        assert sorted(placed) == list(range(48))
        for p in range(partitions):
            mine = [i for i in placed if i % partitions == p]
            assert mine == sorted(mine)

    def test_multicore_tasks_spill(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=5))
        cfg.workload.cores_per_task = 30  # spills across 42-core nodes? no: fits
        cfg.pool.nodes = 3
        res = run_pilot(cfg, seed=1)
        assert res.n_done == 5


class TestDvmCrashEndToEnd:
    def test_crash_recorded_not_raised(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=12, workload__duration_s=50.0))
        cfg.dvm.capacity_tasks = 5
        res = run_pilot(cfg, seed=1)
        # run completed; all tasks terminal; crash recorded in the log
        assert res.n_done + res.n_failed == 12
        assert res.failures.get("DvmCrashed", 0) >= 7
        assert any(e.name == "dvm_crash" for e in res.events)
        assert any(e.name == "pilot_stop" for e in res.events)


class TestRecordsReleased:
    @pytest.mark.parametrize("kind,capacity", [
        ("sim_dvm", 4096), ("sim_jsm", 4096), ("sim_dvm", 8),  # the last one crashes
    ])
    def test_terminal_records_are_freed(self, quick_cfg, monkeypatch, kind, capacity):
        # the profile events are the task history: once a task is terminal
        # nothing in the finished run may still hold its record
        refs = []

        class Tracked(TaskRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(pilot, "TaskRecord", Tracked)
        cfg = quick_cfg(workload__n_tasks=64, workload__duration_s=50.0)
        cfg.backend.kind = kind
        cfg.backend.fd_limit = 4096
        cfg.dvm.capacity_tasks = capacity
        run = PilotRun(cfg, seed=1)
        res = run.run()
        assert res.n_done + res.n_failed == len(refs) == 64
        assert ("DvmCrashed" in res.failures) == (capacity < 64)
        gc.collect()
        assert sum(r() is not None for r in refs) == 0
        assert run.n_done == res.n_done  # the run itself is still alive


class TestPartitionsIntegration:
    def test_partitioned_run_completes(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=40, pool__nodes=5))
        cfg.agent.partitions = 4
        cfg.subagents.n_sub_agents = 4
        res = run_pilot(cfg, seed=1)
        assert res.n_done == 40
        # one DVM per partition
        assert len(res.events and [e for e in res.events if e.name == "dvm_start"]) == 4

    def test_executor_shortage_rejected(self, quick_cfg):
        cfg = quick_cfg(pool__nodes=5)
        cfg.agent.partitions = 2
        cfg.subagents.n_sub_agents = 1
        with pytest.raises(Exception):
            run_pilot(cfg, seed=1)


class TestAbortedRun:
    def test_log_is_closed_and_keeps_recorded_lines(self, quick_cfg, tmp_path, monkeypatch):
        def fail(pool, placement):
            raise RuntimeError("forced")

        monkeypatch.setattr(scheduler.ResourcePool, "unschedule", fail)
        run = PilotRun(quick_cfg(), run_dir=str(tmp_path), seed=1)
        with pytest.raises(RuntimeError, match="forced"):
            run.run()
        assert run.sink._fh.closed
        log = run.sink.events  # the file's lines, in record order
        # the first release fails right after its task's done event
        assert log[0].name == "pilot_start" and log[-1].name == "done"
        assert [e for e in log if e.name == "pilot_stop"] == []


class TestRealClockSmoke:
    def test_local_exec_single_sleep(self, quick_cfg, tmp_path):
        cfg = quick_cfg(workload__n_tasks=1, workload__duration_s=1.0)
        cfg.clock = "real"
        cfg.backend.kind = "local_exec"
        cfg.backend.submit_delay_s = 0.0
        cfg.backend.submit_cost_s = 0.0
        cfg.agent.startup_s = 0.0
        cfg.agent.termination_s = 0.0
        cfg.agent.schedule_cost_s = 0.0
        res = run_pilot(cfg, run_dir=str(tmp_path / "real"), seed=1)
        assert res.n_done == 1
        (h,) = task_events(res.events).values()
        span = h["done"].t_s - h["running"].t_s
        assert 1.0 <= span <= 1.6  # payload plus poll jitter
        log = load_profile(str(tmp_path / "real" / "profile.log"))
        assert any(e.name == "pilot_stop" for e in log)


class TestSetup:
    @staticmethod
    def _traced_init_bytes(cfg):
        tracemalloc.start()
        try:
            run = PilotRun(cfg, seed=1)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del run
        return size

    def test_setup_memory_does_not_grow_with_n_tasks(self, quick_cfg):
        # the run holds one task shape; nothing per task exists before agent_ready
        def cfg(n):
            return quick_cfg(workload__n_tasks=n, pool__autosize=0, pool__nodes=3)

        self._traced_init_bytes(cfg(1024))  # warm caches
        small = self._traced_init_bytes(cfg(1024))
        large = self._traced_init_bytes(cfg(16384))
        assert abs(large - small) < 64 * 1024

    def test_agent_ready_memory_does_not_grow_with_n_tasks(self, quick_cfg):
        # a task's record is made when it is placed, from its arrival index
        def ready_bytes(n):
            run = PilotRun(quick_cfg(workload__n_tasks=n, pool__autosize=0,
                                     pool__nodes=3), seed=1)
            run._pilot_start()
            tracemalloc.start()
            try:
                run._agent_ready()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        ready_bytes(1024)  # warm caches
        assert abs(ready_bytes(16384) - ready_bytes(1024)) < 64 * 1024

    def test_negative_seed_override_is_config_error(self, quick_cfg, tmp_path):
        run_dir = tmp_path / "never"
        with pytest.raises(ConfigError, match="seed"):
            PilotRun(quick_cfg(), run_dir=str(run_dir), seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            run_pilot(quick_cfg(), run_dir=str(run_dir), seed=-1)
        assert not run_dir.exists()

    def test_local_exec_stdio_file_that_cannot_be_opened_fails_its_task(
            self, quick_cfg, tmp_path):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=3, workload__duration_s=0.05))
        cfg.clock = "real"
        cfg.backend.kind = "local_exec"
        cfg.agent.startup_s = 0.0
        cfg.agent.termination_s = 0.0
        (tmp_path / "tasks" / "task.000001.out").mkdir(parents=True)
        res = run_pilot(cfg, run_dir=str(tmp_path), seed=1)
        assert res.failures == {"NonzeroExit": 1}
        assert res.n_done == 2
        history = task_events(res.events)
        assert "task_fail" in history["task.000001"]
        assert all("done" in history[uid] for uid in ("task.000000", "task.000002"))
        assert load_profile(str(tmp_path / "profile.log"))[-1].name == "pilot_stop"

    def test_local_exec_without_run_dir_removes_its_stdio_dir(
            self, quick_cfg, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cfg = zero_overhead(quick_cfg(workload__n_tasks=2, workload__duration_s=0.05))
        cfg.clock = "real"
        cfg.backend.kind = "local_exec"
        cfg.agent.startup_s = 0.0
        cfg.agent.termination_s = 0.0
        res = run_pilot(cfg, seed=1)
        assert res.n_done == 2
        assert list(tmp_path.glob("pilotsim-stdio-*")) == []


class TestPilotStart:
    def test_node_count_is_the_pool_size(self, quick_cfg):
        cfg = quick_cfg(workload__n_tasks=100, pool__autosize=1)
        res = run_pilot(cfg, seed=1)
        start = res.events[0]
        assert start.name == "pilot_start"
        assert res.pool.n_nodes == 4  # 3 worker nodes + 1 agent node
        assert start.attrs["nodes"] == str(res.pool.n_nodes)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


class TestHotLoop:
    def test_python_calls_per_task(self):
        # counted, not timed: every Python-level call the event loop makes
        # for the paper's optimized config, divided by the tasks
        cfg = parse_config_file(os.path.join(CONFIGS, "exp4_optimized.cfg"))
        cfg.workload.n_tasks = 1024
        run = PilotRun(cfg, seed=1)
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            res = run.run()
        finally:
            sys.setprofile(previous)
        assert res.n_done == 1024
        assert calls / 1024 <= 66, calls / 1024

    def test_setup_calls_do_not_grow_with_the_pool(self, tmp_path):
        # counted, not timed: a pool is one node shape, so setting up a run
        # on ten times the nodes makes the same Python-level calls
        def setup_calls(n_nodes):
            cfg = parse_config_file(os.path.join(CONFIGS, "exp4_optimized.cfg"))
            cfg.pool.autosize = 0
            cfg.pool.nodes = n_nodes
            run_dir = str(tmp_path / f"n{n_nodes}")
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                PilotRun(cfg, run_dir=run_dir, seed=1)
            finally:
                sys.setprofile(previous)
            return calls

        setup_calls(391)  # warm caches
        assert setup_calls(392) == setup_calls(3920)

    def test_log_reader_calls_per_task(self, tmp_path):
        # counted, not timed: every Python-level and C-level call made while
        # the paper's optimized run is read back from its log, per task;
        # calls inside a C function (each `float` a `map` makes) count none
        cfg = parse_config_file(os.path.join(CONFIGS, "exp4_optimized.cfg"))
        cfg.workload.n_tasks = 4096
        run_pilot(cfg, run_dir=str(tmp_path), seed=1)
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call" or event == "c_call"

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            table = TaskTable.from_log(str(tmp_path / "profile.log"))
        finally:
            sys.setprofile(previous)
        assert len(table.uids) == 4096
        assert calls / 4096 <= 1, calls / 4096
