"""Experiment configuration: nested dataclasses with a flat key=value form.

Config files are plain text, one dotted key per line::

    name=exp3_16k
    workload.n_tasks=16384
    backend.submit_delay_s=0.1

The dataclasses below are the schema, slotted so that a config object
holds only its keys. Each flat key is a top-level field or
`section.field`, typed by its declared default, and `to_flat`,
`from_flat` and `validate` all read that one key table. Every number
must be finite and >= 0; `validate` spells out only the other bounds and
the rules across fields. The same representation is echoed into each
run directory as metadata, so any run can be replayed from its own echo.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

DEFAULT_CORES_PER_NODE = 42
DEFAULT_GPUS_PER_NODE = 6


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def check_seed(seed: int) -> None:
    """A seed that overrides a config's own (which `validate` checks) is
    a non-negative integer too."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass(slots=True)
class WorkloadConfig:
    n_tasks: int = 64
    cores_per_task: int = 1
    gpus_per_task: int = 0
    duration_s: float = 900.0


@dataclass(slots=True)
class PoolConfig:
    nodes: int = 2
    cores_per_node: int = DEFAULT_CORES_PER_NODE
    gpus_per_node: int = DEFAULT_GPUS_PER_NODE
    agent_nodes: int = 1
    autosize: int = 0  # 1: size worker nodes as ceil(task cores / node cores)


@dataclass(slots=True)
class BackendConfig:
    kind: str = "sim_dvm"  # sim_dvm | sim_jsm | local_exec
    submit_delay_s: float = 0.1
    submit_cost_s: float = 0.04
    max_rate_hz: float | None = 10.0
    fail_prob_over_rate: float = 0.05
    fd_limit: int = 4096
    fd_reserved: int = 1195


@dataclass(slots=True)
class SubAgentConfig:
    n_sub_agents: int = 1  # one executor each


@dataclass(slots=True)
class DvmSimConfig:
    capacity_tasks: int = 20000
    setup_mean_s: float = 0.2
    setup_std_s: float = 0.0
    launch_mean_s: float = 0.034
    launch_std_s: float = 0.047
    notify_mean_s: float = 0.1
    notify_std_s: float = 0.0


@dataclass(slots=True)
class AgentConfig:
    startup_s: float = 75.0
    termination_s: float = 10.0
    schedule_cost_s: float = 0.0  # charged once per task, for its placement
    partitions: int = 1
    gpu_weight: float = 1.0


@dataclass(slots=True)
class SweepConfig:
    n_tasks: str = ""  # comma-separated scale points; empty means no sweep


@dataclass(slots=True)
class ExperimentConfig:
    name: str = "run"
    repetitions: int = 1
    seed: int = 1
    output_dir: str = "runs"
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    subagents: SubAgentConfig = field(default_factory=SubAgentConfig)
    dvm: DvmSimConfig = field(default_factory=DvmSimConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def sweep_points(self) -> list[int]:
        text = self.sweep.n_tasks.strip()
        if not text:
            return []
        try:
            points = [int(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"sweep.n_tasks: expected integers, got {text!r}")
        if not points or any(p < 1 for p in points):
            raise ConfigError("sweep.n_tasks values must be >= 1")
        return points

    def effective_nodes(self) -> int:
        """Pool size, auto-derived from the workload when autosize is set:
        enough worker nodes to run every task at once, plus the agent's."""
        if self.pool.autosize:
            cores = self.workload.n_tasks * self.workload.cores_per_task
            return math.ceil(cores / self.pool.cores_per_node) + self.pool.agent_nodes
        return self.pool.nodes

    def validate(self) -> None:
        """The one place a configuration is checked; the runtime reads
        the validated sections as they are."""
        wl, pl, be, sa, dv, ag = (self.workload, self.pool, self.backend,
                                  self.subagents, self.dvm, self.agent)
        # NaN fails every comparison, so `0 <= val < inf` also rejects it
        for key, (section, name, kind) in _KEYS.items():
            if kind is not str:
                val = getattr(getattr(self, section) if section else self, name)
                if val is not None and not 0 <= val < math.inf:
                    raise ConfigError(f"{key} must be finite and >= 0, got {val}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if wl.n_tasks < 1 or wl.cores_per_task < 1 or wl.duration_s <= 0:
            raise ConfigError("workload needs n_tasks>=1, cores>=1, duration>0")
        self.sweep_points()
        if pl.cores_per_node < 1 or pl.autosize not in (0, 1):
            raise ConfigError("pool needs cores_per_node >= 1 and autosize 0 or 1")
        nodes = self.effective_nodes()
        if nodes < 2 or pl.agent_nodes < 1 or pl.agent_nodes >= nodes:
            raise ConfigError("pool needs >=1 agent node and >=1 worker node")
        if be.kind not in ("sim_dvm", "sim_jsm", "local_exec"):
            raise ConfigError(f"unknown backend kind {be.kind!r}")
        if be.kind == "sim_jsm" and be.fd_limit != 4096:
            raise ConfigError("the JSM open-files limit is fixed at 4096")
        if be.fd_reserved >= be.fd_limit:
            raise ConfigError("fd_reserved must be < fd_limit")
        if be.max_rate_hz == 0:
            raise ConfigError("max_rate_hz must be > 0 (none turns the rate check off)")
        if be.fail_prob_over_rate > 1.0:
            raise ConfigError("fail_prob_over_rate must be in [0, 1]")
        if sa.n_sub_agents < 1:
            raise ConfigError("n_sub_agents must be >= 1")
        if dv.capacity_tasks < 1:
            raise ConfigError("dvm capacity_tasks must be >= 1")
        if ag.partitions < 1:
            raise ConfigError("partitions must be >= 1")
        if ag.partitions > sa.n_sub_agents:
            raise ConfigError("need at least one executor per partition")
        workers = nodes - pl.agent_nodes
        if ag.partitions > workers:
            raise ConfigError("partitions exceed worker node count")
        # every task must fit one partition, or the run would stall
        part_cores = (workers // ag.partitions) * pl.cores_per_node
        if wl.cores_per_task > part_cores:
            raise ConfigError(
                f"cores_per_task ({wl.cores_per_task}) exceeds partition "
                f"capacity ({part_cores} cores)"
            )
        if wl.gpus_per_task > (workers // ag.partitions) * pl.gpus_per_node:
            raise ConfigError("gpus_per_task exceeds partition capacity")


def _key_table() -> dict[str, tuple[str, str, type]]:
    """Flat key -> (section, attribute, type of the declared default), in
    declaration order; a top-level key has the section "". The dataclasses
    above are the schema, and this is the only walk over them."""
    keys = {}
    for f in fields(ExperimentConfig):
        if f.default_factory is MISSING:
            keys[f.name] = ("", f.name, type(f.default))
        else:
            for g in fields(f.default_factory):
                keys[f"{f.name}.{g.name}"] = (f.name, g.name, type(g.default))
    return keys


_KEYS = _key_table()


def to_flat(cfg: ExperimentConfig) -> dict[str, str]:
    flat: dict[str, str] = {}
    for key, (section, name, _) in _KEYS.items():
        val = getattr(getattr(cfg, section) if section else cfg, name)
        flat[key] = "none" if val is None else str(val)
    return flat


def from_flat(flat: dict[str, str]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, raw in flat.items():
        try:
            section, name, kind = _KEYS[key]
        except KeyError:
            raise ConfigError(f"unknown config key {key!r}") from None
        value = raw.strip()
        # the one nullable key: "none" turns the rate check off
        if key == "backend.max_rate_hz" and value.lower() in ("none", ""):
            value = None
        elif kind is not str:
            try:
                value = kind(value)
            except ValueError:
                raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None
        setattr(getattr(cfg, section) if section else cfg, name, value)
    cfg.validate()
    return cfg


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    flat: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        flat[key.strip()] = value.strip()
    return from_flat(flat)


def parse_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config_text(text, source=path)
