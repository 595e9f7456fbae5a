import gc
import heapq
import itertools
import os
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotsim import ConfigError, TaskSpec, parse_config_file, run_pilot
from pilotsim.core import (
    IllegalTransition,
    TaskRecord,
    TaskState,
    TimeRegression,
    VirtualClock,
    advance_state,
)
from pilotsim.pilot import PilotRun

from conftest import Slot, zero_overhead


class TestMakeWorkload:
    """A run makes its workload from the config: one task shape, shared by
    `n_tasks` records with uids task.000000, task.000001, ..., pulled in
    bundles of `BUNDLE_SIZE` (1024)."""

    @staticmethod
    def _events(quick_cfg, n, **over):
        res = run_pilot(zero_overhead(quick_cfg(workload__n_tasks=n, **over)), seed=1)
        assert res.n_done == n
        return res.events

    def test_paper_scale(self, quick_cfg):
        run = PilotRun(quick_cfg(workload__n_tasks=16384, workload__duration_s=900.0,
                                 pool__autosize=1))
        assert run.spec == TaskSpec(cores=1, gpus=0, duration_s=900.0)

    def test_single_task(self, quick_cfg):
        events = self._events(quick_cfg, 1)
        assert [e.attrs["size"] for e in events if e.name == "bundle_received"] == ["1"]
        assert {e.entity_id for e in events if e.entity_kind == "Task"} == {"task.000000"}

    def test_total_core_demand(self, quick_cfg):
        events = self._events(quick_cfg, 10, workload__cores_per_task=2)
        # fold oracle over the placements
        total = 0
        for e in events:
            if e.name == "schedule_ok":
                assert e.attrs["cores"] == "2"
                slot = Slot.decode(e.attrs["slot"])
                total += sum(len(a.core_indices) for a in slot.assignments)
        assert total == 20

    @pytest.mark.parametrize("n,cores,dur", [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0),
                                             (-3, 1, 1.0), (1, 1, -5.0)])
    def test_invalid_arguments(self, quick_cfg, n, cores, dur):
        cfg = quick_cfg(workload__n_tasks=n, workload__cores_per_task=cores,
                        workload__duration_s=dur)
        with pytest.raises(ConfigError):
            PilotRun(cfg)
        if n >= 1:
            with pytest.raises(ValueError):
                TaskSpec(cores=cores, duration_s=dur)

    def test_ids_pairwise_distinct(self, quick_cfg):
        events = self._events(quick_cfg, 10)
        uids = {e.entity_id for e in events if e.entity_kind == "Task"}
        assert len(uids) == 10
        assert all(re.fullmatch(r"task\.\d{6}", uid) for uid in uids)

    def test_bundles_cover_workload(self, quick_cfg):
        events = self._events(quick_cfg, 2100, pool__autosize=1)
        sizes = [e.attrs["size"] for e in events if e.name == "bundle_received"]
        assert sizes == ["1024", "1024", "52"]


class TestAdvanceState:
    def _rec(self):
        return TaskRecord("t0", TaskSpec(cores=1, duration_s=900.0))

    def test_first_transition(self):
        rec = self._rec()
        assert (rec.state, rec.t_last) == (TaskState.NEW, 0.0)
        advance_state(rec, TaskState.SCHEDULED, 0.3)
        assert (rec.state, rec.t_last) == (TaskState.SCHEDULED, 0.3)

    def test_execution_span(self):
        rec = self._rec()
        advance_state(rec, TaskState.SCHEDULED, 0.1)
        advance_state(rec, TaskState.SUBMITTED, 0.2)
        advance_state(rec, TaskState.RUNNING, 0.3)
        t_running = rec.t_last
        advance_state(rec, TaskState.DONE, 900.3)
        assert rec.state is TaskState.DONE
        assert rec.t_last - t_running == pytest.approx(900.0)

    def test_skip_is_illegal(self):
        rec = advance_state(self._rec(), TaskState.SCHEDULED, 0.1)
        with pytest.raises(IllegalTransition):
            advance_state(rec, TaskState.RUNNING, 0.2)

    def test_time_regression(self):
        rec = advance_state(self._rec(), TaskState.SCHEDULED, 5.0)
        with pytest.raises(TimeRegression):
            advance_state(rec, TaskState.SUBMITTED, 4.0)

    def test_time_regression_against_arrival(self):
        rec = TaskRecord("t0", TaskSpec(cores=1, duration_s=900.0), t_last=5.0)
        with pytest.raises(TimeRegression):
            advance_state(rec, TaskState.SCHEDULED, 4.0)
        assert (rec.state, rec.t_last) == (TaskState.NEW, 5.0)

    def test_fail_from_any_nonterminal(self):
        rec = advance_state(self._rec(), TaskState.SCHEDULED, 1.0)
        advance_state(rec, TaskState.FAILED, 2.0)
        assert rec.state is TaskState.FAILED
        with pytest.raises(IllegalTransition):
            advance_state(rec, TaskState.SUBMITTED, 3.0)

    # the lifecycle rule, spelled out: one step along the chain, or to
    # Failed from any state that is not Done or Failed
    CHAIN = [TaskState.NEW, TaskState.SCHEDULED, TaskState.SUBMITTED,
             TaskState.RUNNING, TaskState.DONE]
    TERMINAL = {TaskState.DONE, TaskState.FAILED}

    @classmethod
    def legal(cls, src, dst):
        if src in cls.TERMINAL:
            return False
        return dst is TaskState.FAILED or cls.CHAIN.index(dst) == cls.CHAIN.index(src) + 1

    @pytest.mark.parametrize("src,dst", itertools.product(TaskState, TaskState),
                             ids=lambda s: s.value)
    def test_every_pair_follows_the_rule(self, src, dst):
        rec = TaskRecord("t0", TaskSpec(cores=1, duration_s=900.0), state=src, t_last=1.0)
        if self.legal(src, dst):
            advance_state(rec, dst, 2.0)
            assert (rec.state, rec.t_last) == (dst, 2.0)
        else:
            msg = (f"no transitions out of terminal state {src.value}"
                   if src in self.TERMINAL else
                   f"illegal transition {src.value} -> {dst.value}")
            with pytest.raises(IllegalTransition, match=re.escape(f"task t0: {msg}")):
                advance_state(rec, dst, 2.0)
            assert (rec.state, rec.t_last) == (src, 1.0)

    def test_members_carry_the_rule(self):
        for src in TaskState:
            assert src.terminal is (src in self.TERMINAL)
            forward = [dst for dst in self.CHAIN if self.legal(src, dst)]
            assert [src.successor] == (forward or [None])

    @given(ts=st.lists(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_monotonic_after_any_legal_interleaving(self, ts):
        ts = sorted(ts)
        rec = self._rec()
        stamps = [rec.t_last]
        for state, t in zip(
            [TaskState.SCHEDULED, TaskState.SUBMITTED, TaskState.RUNNING, TaskState.DONE],
            ts,
        ):
            advance_state(rec, state, t)
            stamps.append(rec.t_last)
        assert rec.state is TaskState.DONE
        assert all(a <= b for a, b in zip(stamps, stamps[1:]))


class TestVirtualClock:
    def test_order_and_ties(self):
        clock = VirtualClock()
        seen = []
        clock.schedule_at(2.0, lambda: seen.append("b"))
        clock.schedule_at(1.0, lambda: seen.append("a"))
        clock.schedule_at(2.0, lambda: seen.append("c"))  # tie: insertion order
        clock.run()
        assert seen == ["a", "b", "c"]
        assert clock.now_s == 2.0

    def test_nested_scheduling(self):
        clock = VirtualClock()
        seen = []

        def outer():
            seen.append(clock.now_s)
            clock.schedule_at(clock.now_s + 3.0, lambda: seen.append(clock.now_s))

        clock.schedule_at(1.0, outer)
        clock.run()
        assert seen == [1.0, 4.0]

    def test_now_never_decreases(self):
        clock = VirtualClock()
        seen = []
        clock.schedule_at(5.0, lambda: clock.schedule_at(1.0, lambda: seen.append(clock.now_s)))
        clock.run()
        assert seen == [5.0]  # past events clamp to now

    def test_pending_counts_both_queues(self):
        # a long constant delay goes to the FIFO, the short ones after it
        # to the heap; pending() counts every entry not yet dispatched
        clock = VirtualClock()
        counts = []
        for t in (900.0, 1.0, 2.0, 900.0, 0.5):
            clock.schedule_at(t, lambda: counts.append(clock.pending()))
        assert clock.pending() == 5
        assert len(clock._fifo) == 2 and len(clock._heap) == 3
        clock.run()
        assert counts == [4, 3, 2, 1, 0]


class HeapClock:
    """The reference clock: one heap holding every `(t, seq, fn)` entry."""

    def __init__(self):
        self.now_s = 0.0
        self._heap = []
        self._seq = itertools.count()

    def schedule_at(self, t, fn):
        heapq.heappush(self._heap, (max(t, self.now_s), next(self._seq), fn))

    def run(self):
        while self._heap:
            self.now_s, _, fn = heapq.heappop(self._heap)
            fn()


LONG = 900.0  # the constant payload delay of a run's one task shape

# a delay from the callback that schedules it: past (clamped to now), an
# exact tie, short, or the long constant one
delays = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 1.0, LONG]),
                   st.floats(-2.0, 2 * LONG, allow_nan=False))
# a schedule program: each entry is (time, the entries its callback schedules)
nested = st.recursive(st.just([]), lambda kids: st.lists(st.tuples(delays, kids), max_size=4),
                      max_leaves=60)
programs = st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 1.0, LONG]) | delays, nested),
                    max_size=8)


def dispatch_order(clock, program):
    """Run `program` on `clock`; returns the (now_s, label) of each callback
    as it runs, its label being its path in the program."""
    seen = []

    def fire(kids, label):
        seen.append((clock.now_s, label))
        for i, (dt, sub) in enumerate(kids):
            clock.schedule_at(clock.now_s + dt, lambda sub=sub, i=i: fire(sub, label + (i,)))

    for i, (t, kids) in enumerate(program):
        clock.schedule_at(t, lambda kids=kids, i=i: fire(kids, (i,)))
    clock.run()
    return seen


class TestDispatchOrder:
    @given(program=programs)
    # each callback schedules a long timer and short ones, some tied
    @example(program=[(0.0, [(LONG, []), (0.25, [(LONG, []), (0.0, [])]), (1.0, [])])] * 20)
    @settings(max_examples=200, deadline=None)
    def test_two_queues_dispatch_as_one_heap(self, program):
        assert dispatch_order(VirtualClock(), program) == dispatch_order(HeapClock(), program)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def shipped(name, **keys):
    cfg = parse_config_file(os.path.join(CONFIGS, name))
    for key, val in keys.items():
        section, attr = key.split("__")
        setattr(getattr(cfg, section), attr, val)
    return cfg


class TestCollector:
    """The virtual loop runs with the cyclic collector off: it makes no
    reference cycles, and it leaves the collector as it found it."""

    @pytest.mark.parametrize("make", [
        lambda q: q(workload__n_tasks=40),
        lambda q: shipped("exp3_virtual.cfg", workload__n_tasks=1200, backend__kind="sim_jsm",
                          backend__fd_limit=4096, backend__max_rate_hz=None),
        lambda q: q(workload__n_tasks=40, backend__kind="sim_jsm", backend__fd_limit=4096,
                    subagents__n_sub_agents=2),
        lambda q: q(workload__n_tasks=40, dvm__capacity_tasks=10),
        lambda q: shipped("exp3_virtual.cfg", workload__n_tasks=1024),
        lambda q: q(workload__n_tasks=40, agent__partitions=4, subagents__n_sub_agents=4,
                    pool__nodes=5),
        lambda q: shipped("exp4_optimized.cfg", workload__n_tasks=512, dvm__capacity_tasks=511),
    ], ids=["sim_dvm", "sim_jsm_fd_ceiling", "jsm_two_subagents", "dvm_crash", "exp3",
            "partitions=4", "capacity_below_n_tasks"])
    def test_a_run_leaves_no_cyclic_garbage(self, quick_cfg, make):
        # with the collector off around the whole run, a collection after
        # it finds every cycle the run made: there are none
        run = PilotRun(make(quick_cfg), seed=1)
        gc.collect()
        gc.disable()
        try:
            res = run.run()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert res.n_done + res.n_failed == run.cfg.workload.n_tasks

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, enabled):
        clock = VirtualClock()
        inside = []
        clock.schedule_at(1.0, lambda: inside.append(gc.isenabled()))
        (gc.enable if enabled else gc.disable)()
        try:
            clock.run()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert inside == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored_when_a_callback_raises(self, enabled):
        clock = VirtualClock()
        error = RuntimeError("callback failed")

        def fail():
            raise error

        clock.schedule_at(1.0, fail)
        clock.schedule_at(2.0, lambda: None)
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError) as raised:
                clock.run()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert raised.value is error
        assert clock.pending() == 1

    def test_no_collection_inside_the_loop(self):
        # counted, not timed: every collection that starts while a frame
        # of the virtual loop is on the stack
        run = PilotRun(shipped("exp4_optimized.cfg", workload__n_tasks=1024), seed=1)
        loop, inside = VirtualClock.run.__code__, []

        def count(phase, info):
            frame = sys._getframe(1)
            while phase == "start" and frame is not None:
                if frame.f_code is loop:
                    inside.append(info["generation"])
                    break
                frame = frame.f_back

        gc.callbacks.append(count)
        try:
            res = run.run()
        finally:
            gc.callbacks.remove(count)
        assert res.n_done == 1024
        assert inside == []
