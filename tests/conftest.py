import dataclasses

import numpy as np
import pytest

from pilotsim import ExperimentConfig, TaskTable


@pytest.fixture
def quick_cfg():
    """Small virtual config with inert failure injection and big FD budget."""

    def _make(**over) -> ExperimentConfig:
        cfg = ExperimentConfig()
        cfg.workload.n_tasks = 16
        cfg.workload.duration_s = 5.0
        cfg.pool.nodes = 2
        cfg.backend.fd_limit = 65536
        cfg.backend.fd_reserved = 0
        cfg.backend.max_rate_hz = None
        cfg.agent.startup_s = 10.0
        cfg.agent.termination_s = 2.0
        for key, val in over.items():
            obj = cfg
            parts = key.split("__")
            for part in parts[:-1]:
                obj = getattr(obj, part)
            setattr(obj, parts[-1], val)
        return cfg

    return _make


def zero_overhead(cfg: ExperimentConfig) -> ExperimentConfig:
    """Strip every modeled cost so only payload durations remain."""
    cfg.backend.submit_delay_s = 0.0
    cfg.backend.submit_cost_s = 0.0
    cfg.agent.schedule_cost_s = 0.0
    cfg.dvm.setup_mean_s = 0.0
    cfg.dvm.setup_std_s = 0.0
    cfg.dvm.launch_mean_s = 0.0
    cfg.dvm.launch_std_s = 0.0
    cfg.dvm.notify_mean_s = 0.0
    cfg.dvm.notify_std_s = 0.0
    return cfg


def task_events(events):
    """Each task's history from a run's profile events: {uid: {name: Event}}.

    A task records each event name at most once (schedule_ok, submit,
    running, done or task_fail, unschedule), so the name is a key.
    """
    out = {}
    for e in events:
        if e.entity_kind == "Task":
            out.setdefault(e.entity_id, {})[e.name] = e
    return out


def assert_same_table(got: TaskTable, want: TaskTable) -> None:
    """Every field equal: uids, column dtypes and shapes, NaN positions."""
    for f in dataclasses.fields(TaskTable):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), f.name
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b, equal_nan=b.dtype.kind == "f"), f.name
        else:
            assert type(a) is type(b) and a == b, f.name
