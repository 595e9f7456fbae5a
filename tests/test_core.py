import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import (
    IllegalTransition,
    TaskRecord,
    TaskSpec,
    TaskState,
    TimeRegression,
    VirtualClock,
    advance_state,
    make_workload,
)


class TestMakeWorkload:
    def test_paper_scale(self):
        wl = make_workload(16384, 1, 900.0)
        assert len(wl) == 16384
        assert all(t.cores == 1 and t.duration_s == 900.0 for t in wl.tasks)

    def test_single_task(self):
        wl = make_workload(1, 1, 5.0)
        assert len(wl) == 1

    def test_total_core_demand(self):
        wl = make_workload(10, 2, 30.0)
        # fold oracle over the specs
        total = 0
        for spec in wl.tasks:
            total += spec.cores
        assert total == 20

    @pytest.mark.parametrize("n,cores,dur", [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0),
                                             (-3, 1, 1.0), (1, 1, -5.0)])
    def test_invalid_arguments(self, n, cores, dur):
        with pytest.raises(ValueError):
            make_workload(n, cores, dur)

    @given(n=st.integers(min_value=1, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_ids_pairwise_distinct(self, n):
        wl = make_workload(n, 1, 1.0)
        assert len({t.uid for t in wl.tasks}) == n

    def test_bundles_cover_workload(self):
        wl = make_workload(10, 1, 1.0, bundle_size=3)
        bundles = wl.bundles()
        assert [len(b) for b in bundles] == [3, 3, 3, 1]


class TestAdvanceState:
    def _rec(self):
        return TaskRecord(TaskSpec(uid="t0", cores=1, duration_s=900.0))

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
        rec = TaskRecord(TaskSpec(uid="t0", cores=1, duration_s=900.0), t_last=5.0)
        with pytest.raises(TimeRegression):
            advance_state(rec, TaskState.SCHEDULED, 4.0)
        assert (rec.state, rec.t_last) == (TaskState.NEW, 5.0)

    def test_fail_from_any_nonterminal(self):
        rec = advance_state(self._rec(), TaskState.SCHEDULED, 1.0)
        advance_state(rec, TaskState.FAILED, 2.0)
        assert rec.state is TaskState.FAILED
        with pytest.raises(IllegalTransition):
            advance_state(rec, TaskState.SUBMITTED, 3.0)

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
            clock.schedule_in(3.0, lambda: seen.append(clock.now_s))

        clock.schedule_at(1.0, outer)
        clock.run()
        assert seen == [1.0, 4.0]

    def test_now_never_decreases(self):
        clock = VirtualClock()
        seen = []
        clock.schedule_at(5.0, lambda: clock.schedule_at(1.0, lambda: seen.append(clock.now_s)))
        clock.run()
        assert seen == [5.0]  # past events clamp to now
