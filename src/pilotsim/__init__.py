"""pilotsim: a pilot-style many-task runtime and discrete-event simulator.

Schedules, places, launches and profiles thousands of single/multi-core
tasks through pluggable launch backends (simulated DVM or JSM, or a
real local-process backend), then computes overhead and
resource-utilization metrics from the recorded profile logs.

The names below are the library surface the README shows; everything
else is imported from its module (`pilotsim.scheduler`, ...).
"""

from .core import TaskSpec
from .profiler import ProfileParseError, load_profile
from .analysis import (
    IncompleteRun,
    TaskTable,
    component_overheads,
    compute_ttx,
    ideal_ttx,
    utilization,
)
from .config import ConfigError, ExperimentConfig, parse_config_file, parse_config_text
from .pilot import run_pilot
from .cli import NoCompleteRuns, RunAborted, analyze, emit_report, run_experiment

__version__ = "0.1.0"
