import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import ConfigError, TaskSpec, run_pilot
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
