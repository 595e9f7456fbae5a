"""pilotsim: a pilot-style many-task runtime and discrete-event simulator.

Schedules, places, launches and profiles thousands of single/multi-core
tasks through pluggable launch backends (simulated DVM/JSM profiles or a
real local-process backend), then computes overhead and
resource-utilization metrics from the recorded profile logs.
"""

from .core import (
    Clock,
    ClockMode,
    FailureReason,
    IllegalTransition,
    RealClock,
    TaskRecord,
    TaskSpec,
    TaskState,
    TimeRegression,
    VirtualClock,
    Workload,
    advance_state,
    make_workload,
)
from .scheduler import (
    DoubleFree,
    Node,
    ResourcePool,
    Slot,
    SlotAssignment,
    try_schedule,
    unschedule,
)
from .launcher import (
    BackendKind,
    Completion,
    Executor,
    FdAccountant,
    LaunchBackendProfile,
    LocalExecBackend,
    RateLimiter,
    SimJsmBackend,
    SubAgentSet,
    collect_completion,
    fd_acquire,
    make_partitions,
    rate_gate,
    submit,
)
from .dvm import (
    DvmConfig,
    DvmHandle,
    DvmJob,
    DvmTopology,
    IncompleteJob,
    JobStage,
    LatencySpec,
    dvm_job_durations,
    dvm_start,
    dvm_submit,
)
from .profiler import (
    Event,
    EventSink,
    ProfileParseError,
    SinkClosed,
    load_profile,
)
from .analysis import (
    CATEGORIES,
    HeterogeneousWorkload,
    IncompleteRun,
    Interval,
    OverheadReport,
    OverheadStats,
    TaskTable,
    UtilizationBreakdown,
    aggregate_overhead,
    component_overheads,
    compute_ttx,
    ideal_ttx,
    utilization,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    parse_config_file,
    parse_config_text,
    to_flat,
    worker_nodes_for,
)
from .pilot import PilotRun, RunResult, run_pilot
from .cli import analyze, emit_report, run_experiment

__version__ = "0.1.0"
