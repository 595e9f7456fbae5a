"""Experiment configuration: nested dataclasses with a flat key=value form.

Config files are plain text, one dotted key per line::

    name=exp3_16k
    clock=virtual
    workload.n_tasks=16384
    backend.submit_delay_s=0.1

The same representation is echoed into each run directory as metadata,
so any run can be replayed from its own echo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

DEFAULT_CORES_PER_NODE = 42
DEFAULT_GPUS_PER_NODE = 6


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def check_seed(seed: int) -> None:
    """A seed is a non-negative integer, whether it comes from a config
    or overrides one."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def worker_nodes_for(n_tasks: int, cores_per_task: int = 1,
                     cores_per_node: int = DEFAULT_CORES_PER_NODE) -> int:
    """Worker nodes needed to run `n_tasks` fully concurrently."""
    return math.ceil(n_tasks * cores_per_task / cores_per_node)


@dataclass
class WorkloadConfig:
    n_tasks: int = 64
    cores_per_task: int = 1
    gpus_per_task: int = 0
    duration_s: float = 900.0
    bundle_size: int = 1024


@dataclass
class PoolConfig:
    nodes: int = 2
    cores_per_node: int = DEFAULT_CORES_PER_NODE
    gpus_per_node: int = DEFAULT_GPUS_PER_NODE
    agent_nodes: int = 1
    autosize: int = 0  # 1: size worker nodes as ceil(task cores / node cores)


@dataclass
class BackendConfig:
    kind: str = "sim_dvm"  # sim_dvm | sim_jsm | local_exec
    submit_delay_s: float = 0.1
    submit_cost_s: float = 0.04
    max_rate_hz: float | None = 10.0
    fail_prob_over_rate: float = 0.05
    fd_limit: int = 4096
    fd_reserved: int = 1195
    fd_per_task: int = 3


@dataclass
class SubAgentConfig:
    n_sub_agents: int = 1
    executors_per_sub_agent: int = 1


@dataclass
class DvmSimConfig:
    capacity_tasks: int = 20000
    setup_mean_s: float = 0.2
    setup_std_s: float = 0.0
    launch_mean_s: float = 0.034
    launch_std_s: float = 0.047
    notify_mean_s: float = 0.1
    notify_std_s: float = 0.0


@dataclass
class AgentConfig:
    startup_s: float = 75.0
    termination_s: float = 10.0
    schedule_cost_s: float = 0.0  # charged once per task, for its placement
    partitions: int = 1
    poll_interval_s: float = 0.02
    gpu_weight: float = 1.0


@dataclass
class SweepConfig:
    n_tasks: str = ""  # comma-separated scale points; empty means no sweep


@dataclass
class ExperimentConfig:
    name: str = "run"
    clock: str = "virtual"  # virtual | real
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
        """Pool size, auto-derived from the workload when autosize is set."""
        if self.pool.autosize:
            workers = worker_nodes_for(
                self.workload.n_tasks,
                self.workload.cores_per_task,
                self.pool.cores_per_node,
            )
            return workers + self.pool.agent_nodes
        return self.pool.nodes

    def validate(self) -> None:
        """The one place a configuration is checked; the runtime reads
        the validated sections as they are."""
        wl, pl, be, sa, dv, ag = (self.workload, self.pool, self.backend,
                                  self.subagents, self.dvm, self.agent)
        if self.clock not in ("virtual", "real"):
            raise ConfigError(f"clock must be virtual|real, got {self.clock!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        check_seed(self.seed)
        # NaN fails every range check below, so non-finite floats go first
        for section in _SECTIONS:
            obj = getattr(self, section)
            for f in fields(obj):
                val = getattr(obj, f.name)
                if isinstance(val, float) and not math.isfinite(val):
                    raise ConfigError(f"{section}.{f.name} must be finite, got {val}")
        if wl.n_tasks < 1 or wl.cores_per_task < 1 or wl.duration_s <= 0:
            raise ConfigError("workload needs n_tasks>=1, cores>=1, duration>0")
        if wl.gpus_per_task < 0:
            raise ConfigError("gpus_per_task must be >= 0")
        if wl.bundle_size < 1:
            raise ConfigError("bundle_size must be >= 1")
        self.sweep_points()
        nodes = self.effective_nodes()
        if nodes < 2 or pl.agent_nodes < 1 or pl.agent_nodes >= nodes:
            raise ConfigError("pool needs >=1 agent node and >=1 worker node")
        if be.kind not in ("sim_dvm", "sim_jsm", "local_exec"):
            raise ConfigError(f"unknown backend kind {be.kind!r}")
        if be.kind == "local_exec" and self.clock != "real":
            raise ConfigError("local_exec backend requires the real clock")
        if be.kind == "sim_jsm" and be.fd_limit != 4096:
            raise ConfigError("the JSM open-files limit is fixed at 4096")
        if be.submit_delay_s < 0 or be.submit_cost_s < 0:
            raise ConfigError("submit_delay_s and submit_cost_s must be >= 0")
        if be.fd_per_task < 1:
            raise ConfigError("fd_per_task must be >= 1")
        if be.fd_reserved >= be.fd_limit:
            raise ConfigError("fd_reserved must be < fd_limit")
        if be.max_rate_hz is not None and be.max_rate_hz <= 0:
            raise ConfigError("max_rate_hz must be > 0 (none turns the rate check off)")
        if not 0.0 <= be.fail_prob_over_rate <= 1.0:
            raise ConfigError("fail_prob_over_rate must be in [0, 1]")
        if sa.n_sub_agents < 1 or sa.executors_per_sub_agent < 1:
            raise ConfigError("sub-agent counts must be >= 1")
        if dv.capacity_tasks < 1:
            raise ConfigError("dvm capacity_tasks must be >= 1")
        if min(dv.setup_mean_s, dv.setup_std_s, dv.launch_mean_s,
               dv.launch_std_s, dv.notify_mean_s, dv.notify_std_s) < 0:
            raise ConfigError("dvm latency means and stddevs must be >= 0")
        if min(ag.startup_s, ag.termination_s, ag.schedule_cost_s, ag.gpu_weight) < 0:
            raise ConfigError(
                "agent startup_s, termination_s, schedule_cost_s and gpu_weight must be >= 0")
        if ag.poll_interval_s <= 0:
            raise ConfigError("agent.poll_interval_s must be > 0")
        if ag.partitions < 1:
            raise ConfigError("partitions must be >= 1")
        if ag.partitions > sa.n_sub_agents * sa.executors_per_sub_agent:
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


_SECTIONS = {
    "workload": WorkloadConfig,
    "pool": PoolConfig,
    "backend": BackendConfig,
    "subagents": SubAgentConfig,
    "dvm": DvmSimConfig,
    "agent": AgentConfig,
    "sweep": SweepConfig,
}

_TOP_FIELDS = {"name": str, "clock": str, "repetitions": int, "seed": int,
               "output_dir": str}


def _convert(name: str, kind, raw: str):
    raw = raw.strip()
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected integer, got {raw!r}")
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected number, got {raw!r}")
    return raw


def _field_kind(f) -> type:
    # dataclass field types arrive as strings under deferred annotations
    t = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", "str")
    t = str(t)
    if t.startswith("int"):
        return int
    if t.startswith("float"):
        return float
    return str


def to_flat(cfg: ExperimentConfig) -> dict[str, str]:
    flat: dict[str, str] = {}
    for key in _TOP_FIELDS:
        flat[key] = str(getattr(cfg, key))
    for section, cls in _SECTIONS.items():
        obj = getattr(cfg, section)
        for f in fields(cls):
            val = getattr(obj, f.name)
            flat[f"{section}.{f.name}"] = "none" if val is None else str(val)
    return flat


def from_flat(flat: dict[str, str]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    section_fields = {
        section: {f.name: f for f in fields(cls)} for section, cls in _SECTIONS.items()
    }
    for key, raw in flat.items():
        if key in _TOP_FIELDS:
            setattr(cfg, key, _convert(key, _TOP_FIELDS[key], raw))
            continue
        if "." not in key:
            raise ConfigError(f"unknown config key {key!r}")
        section, _, name = key.partition(".")
        if section not in section_fields or name not in section_fields[section]:
            raise ConfigError(f"unknown config key {key!r}")
        obj = getattr(cfg, section)
        if key == "backend.max_rate_hz" and raw.strip().lower() in ("none", ""):
            obj.max_rate_hz = None
            continue
        f = section_fields[section][name]
        setattr(obj, name, _convert(key, _field_kind(f), raw))
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
