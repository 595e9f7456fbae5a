"""pilotsim: a pilot-style many-task runtime and discrete-event simulator.

Schedules, places, launches and profiles thousands of single/multi-core
tasks through pluggable launch backends (simulated DVM or JSM, or a
real local-process backend), then computes overhead and
resource-utilization metrics from the recorded profile logs.
"""

from .core import (
    Clock,
    FailureReason,
    IllegalTransition,
    RealClock,
    TaskRecord,
    TaskSpec,
    TaskState,
    TimeRegression,
    VirtualClock,
    advance_state,
)
from .scheduler import (
    DoubleFree,
    Node,
    ResourcePool,
    Slot,
    SlotAssignment,
)
from .launcher import (
    Completion,
    Executor,
    FdAccountant,
    LocalExecBackend,
    SimJsmBackend,
    make_partitions,
)
from .dvm import DvmHandle, LatencySpec, dvm_start
from .profiler import (
    Event,
    EventSink,
    ProfileParseError,
    SinkClosed,
    load_profile,
)
from .analysis import (
    CATEGORIES,
    IncompleteRun,
    OverheadReport,
    OverheadStats,
    TaskTable,
    UtilizationBreakdown,
    component_overheads,
    compute_ttx,
    ideal_ttx,
    utilization,
)
from .config import (
    BackendConfig,
    ConfigError,
    DvmSimConfig,
    ExperimentConfig,
    parse_config_file,
    parse_config_text,
    to_flat,
    worker_nodes_for,
)
from .pilot import PilotRun, RunResult, run_pilot
from .cli import analyze, emit_report, run_experiment

__version__ = "0.1.0"
