"""The benchmark's tracer patches runtime methods by name from outside
(perfbench/trace_layers.py). A refactor that renames or moves one of
them fails here, not in the benchmark."""

import heapq
import importlib.util
import os
from types import SimpleNamespace

import pytest

from pilotsim import core, parse_config_file, parse_config_text, run_pilot
from pilotsim.pilot import PilotRun

from conftest import zero_overhead

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_LAYERS = os.path.join(ROOT, "perfbench", "trace_layers.py")


def load_trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_hooks_install_trace_and_uninstall(quick_cfg):
    trace_layers = load_trace_layers()
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _ in trace_layers.SPANS}
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        res = run_pilot(quick_cfg(workload__n_tasks=8), seed=1)
    finally:
        tracer.uninstall()
    assert res.n_done == 8
    m = tracer.layer_metrics(log_bytes=0)
    assert m["scheduler.placements"] == 8
    assert m["launcher.submits"] == 8
    assert m["launcher.completions"] == 8
    assert m["launcher.fd_peak"] > 0
    assert m["dvm.jobs"] == 8
    # the stage events are the only job record: the bench counts what the log holds
    assert m["dvm.jobs"] == sum(e.name == "init_complete" for e in res.events)
    assert m["dvm.live_peak"] > 0
    assert m["profiler.events"] == len(res.events)
    assert m["core.events_dispatched"] > 0
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} not restored"


def traced(cfg):
    """Run `cfg` under the tracer; returns (result, layer metrics)."""
    tracer = load_trace_layers().Tracer()
    tracer.install()
    try:
        res = run_pilot(cfg, seed=1)
    finally:
        tracer.uninstall()
    return res, tracer.layer_metrics(log_bytes=0)


@pytest.mark.parametrize("over", [
    {},
    {"backend__kind": "sim_jsm", "backend__fd_limit": 4096},  # one executor
    {"agent__partitions": 2, "subagents__n_sub_agents": 2, "pool__nodes": 3},
], ids=["sim_dvm", "sim_jsm", "partitions=2"])
def test_every_event_is_counted(quick_cfg, over):
    # every callback is queued through Clock.schedule_at, the method the
    # tracer counts: each entry takes one sequence number
    tracer = load_trace_layers().Tracer()
    run = PilotRun(quick_cfg(workload__n_tasks=40, **over), seed=1)
    tracer.install()
    try:
        res = run.run()
    finally:
        tracer.uninstall()
    assert res.n_done == 40
    assert tracer.layer_metrics(log_bytes=0)["core.events_dispatched"] == next(run.clock._seq)


@pytest.mark.parametrize("n_tasks", [1024, 4096])
def test_payload_timers_skip_the_heap(monkeypatch, n_tasks):
    # counted, not timed: the optimized run appends every payload end to
    # the clock's FIFO, so its heap holds only the short stage timers while
    # pending() still counts every queued entry
    cfg = parse_config_file(os.path.join(ROOT, "configs", "exp4_optimized.cfg"))
    cfg.workload.n_tasks = n_tasks
    heap_peak = queued = 0

    def heappush(heap, entry):
        nonlocal heap_peak
        heapq.heappush(heap, entry)
        heap_peak = max(heap_peak, len(heap))

    schedule_at = core.Clock.schedule_at

    def counted_schedule_at(clock, t, fn):
        def dispatch():
            nonlocal queued
            queued -= 1
            assert clock.pending() == queued
            fn()

        nonlocal queued
        schedule_at(clock, t, dispatch)
        queued += 1
        assert clock.pending() == queued

    monkeypatch.setattr(core, "heapq", SimpleNamespace(heappush=heappush,
                                                       heappop=heapq.heappop))
    monkeypatch.setattr(core.Clock, "schedule_at", counted_schedule_at)
    run = PilotRun(cfg, seed=1)
    tracer = load_trace_layers().Tracer()
    tracer.install()
    try:
        res = run.run()
    finally:
        tracer.uninstall()
    assert res.n_done == n_tasks
    assert heap_peak <= 64, heap_peak
    assert queued == run.clock.pending() == 0
    m = tracer.layer_metrics(log_bytes=0)
    assert m["core.events_dispatched"] == next(run.clock._seq)
    assert m["core.heap_peak"] >= n_tasks  # every running task's timer is pending


def test_multiwave_every_attempt_places(quick_cfg):
    # 30 one-core tasks on 8 worker cores: four waves, 22 tasks wait
    cfg = zero_overhead(quick_cfg(workload__n_tasks=30, workload__duration_s=2.0))
    cfg.pool.cores_per_node = 8
    cfg.agent.schedule_cost_s = 0.002
    res, m = traced(cfg)
    assert res.n_done == 30
    assert m["scheduler.placements"] == 30
    assert m["scheduler.attempts"] == m["scheduler.placements"]


def test_multiwave_event_count_is_linear():
    """Event counts, not wall time: 4x the tasks on the same 504 worker
    cores (12 nodes of 42) may dispatch at most 4.5x the events."""
    with open(os.path.join(ROOT, "configs", "exp4_optimized.cfg"), encoding="utf-8") as fh:
        base = fh.read() + ("pool.autosize=0\npool.nodes=13\nworkload.duration_s=60.0\n"
                            "agent.schedule_cost_s=0\n")

    def events(n):
        cfg = parse_config_text(base + f"workload.n_tasks={n}\n", source="multiwave")
        res, m = traced(cfg)
        assert res.n_done == n
        return m["core.events_dispatched"]

    assert events(2048) <= 4.5 * events(512)


@pytest.mark.parametrize("over", [
    {"dvm__capacity_tasks": 10},
    {"backend__kind": "sim_jsm", "backend__fd_limit": 4096, "subagents__n_sub_agents": 2},
], ids=["dvm_crash", "jsm_unstable"])
def test_refused_launches_are_counted(quick_cfg, over):
    # a backend that refuses launches reports every failure itself, under
    # the tracer's counted_submit_job as without it
    tracer = load_trace_layers().Tracer()
    run = PilotRun(quick_cfg(workload__n_tasks=40, **over), seed=1)
    tracer.install()
    try:
        res = run.run()
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(log_bytes=0)
    assert m["core.events_dispatched"] == next(run.clock._seq)
    fails = [e.attrs["reason"] for e in res.events if e.name == "task_fail"]
    assert res.n_failed == len(fails) == 40
    assert fails == ["DvmCrashed"] * 40
    if "dvm__capacity_tasks" in over:
        assert m["dvm.jobs"] == sum(e.name == "submit" for e in res.events) == 40
        assert m["dvm.live_peak"] == 10
