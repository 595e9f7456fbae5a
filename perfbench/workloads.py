"""Benchmark workloads: a shipped config plus key=value overrides, and
the simulated outcome every operation must reproduce.

Each workload stresses a different layer; perfbench/README.md gives the
reasons. Expected counts do not depend on the seed: the seed moves
sampled latencies, never how many tasks finish or why they fail.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # shipped config, relative to the checkout root
    overrides: dict[str, str]
    n_tasks: int
    n_done: int
    failures: dict[str, int] = field(default_factory=dict)

    def config_text(self, root: str, n_tasks: int | None = None) -> str:
        """The base config with the overrides appended (later keys win)."""
        with open(os.path.join(root, self.base), encoding="utf-8") as fh:
            text = fh.read()
        keys = dict(self.overrides, name=self.name, repetitions="1")
        if n_tasks is not None:
            keys["workload.n_tasks"] = str(n_tasks)
        return text + "\n" + "".join(f"{k}={v}\n" for k, v in keys.items())


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's optimized run as shipped: one wave of 16384 tasks.
        Workload("exp4_16k", "configs/exp4_optimized.cfg", {},
                 n_tasks=16384, n_done=16384),
        # 2048 tasks on 504 cores: four waves, every release re-queues
        # the whole waitpool, so the scheduler and event loop dominate.
        Workload("multiwave_2k", "configs/exp4_optimized.cfg", {
            "pool.autosize": "0",
            "pool.nodes": "13",
            "workload.n_tasks": "2048",
            "workload.duration_s": "60.0",
            "agent.schedule_cost_s": "0",
        }, n_tasks=2048, n_done=2048),
        # JSM under its fixed 4096 open-files limit: the FD ceiling lets
        # 967 tasks run and fails the rest, over a mostly idle pool.
        Workload("jsm_fd_16k", "configs/exp3_virtual.cfg", {
            "sweep.n_tasks": "",
            "workload.n_tasks": "16384",
            "backend.kind": "sim_jsm",
            "backend.fd_limit": "4096",
            "backend.submit_delay_s": "0",
            "backend.max_rate_hz": "none",
            "agent.schedule_cost_s": "0",
        }, n_tasks=16384, n_done=967, failures={"FdExhausted": 15417}),
    )
}

# Scaling curve (recorded, not gated): task counts per workload shape.
SCALING = {
    "exp4_16k": (1024, 4096, 16384),
    "multiwave_2k": (512, 1024, 2048),
}
