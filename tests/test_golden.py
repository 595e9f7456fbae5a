"""Golden outputs: fixed-seed runs must keep their profile log and reports.

Each run below is a small `pilotsim run` of one code path. Its
`profile.log` is pinned by sha256, and its four report CSVs are compared
with the copies under `tests/data/golden/<run>/`: same rows, same
columns, every number within one unit of its last printed digit
(summation order may move that digit). The copies are the reports that
`pilotsim analyze` wrote from the saved log, which is the input
`pilotsim run` analyzes too. A changed hash is a behaviour change and
needs its own justification.

Regenerate the data with `PYTHONPATH=src python tests/test_golden.py`;
it prints the hashes for `LOG_SHA256`.
"""

import csv
import hashlib
import os
import sys

import pytest

from pilotsim import (TaskTable, analyze, load_profile, parse_config_text, run_experiment,
                      run_pilot)
from pilotsim.profiler import Event

from conftest import assert_same_table, reference_table

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
REPORTS = ("report_overheads.csv", "report_utilization.csv",
           "report_summary.csv", "report_timeline.csv")

_BASE = """
repetitions=1
seed=7
workload.n_tasks=48
workload.duration_s=20.0
pool.nodes=3
pool.cores_per_node=16
pool.gpus_per_node=2
backend.kind=sim_dvm
backend.submit_delay_s=0.01
backend.max_rate_hz=none
backend.fd_reserved=0
agent.startup_s=10.0
agent.termination_s=2.0
agent.schedule_cost_s=0.002
"""

# run name -> overrides of _BASE (later keys win)
RUNS = {
    "sim_dvm": "",
    "sim_jsm": "backend.kind=sim_jsm\n",
    # 36 free descriptors at 3 per task: 12 tasks run, the rest fail
    "fd_exhaustion": "backend.kind=sim_jsm\nbackend.fd_reserved=4060\n",
    "over_rate": "backend.max_rate_hz=10.0\nbackend.fail_prob_over_rate=0.2\n",
    "dvm_crash": "dvm.capacity_tasks=5\n",
    # 16 worker cores for 48 tasks: three waves of tasks waiting in arrival order
    "multiwave": "pool.cores_per_node=8\n",
    # 2-core tasks on 3-core nodes spill across nodes; GPUs carry weight
    "spill_gpu": (
        "pool.nodes=5\npool.cores_per_node=3\nworkload.n_tasks=12\n"
        "workload.cores_per_task=2\nworkload.gpus_per_task=1\n"
        "agent.gpu_weight=0.5\n"
    ),
}

LOG_SHA256 = {
    "sim_dvm": "f0da238161ff40b00910b3ee5c2b5ffb85ac99f9aab3fc3aece8caf3c5c0ace3",
    "sim_jsm": "66041dbe6e2b07cb10f44272e128d7a9cc9f118ff2dd211dabcea5304bc3fac8",
    "fd_exhaustion": "6b80570f8a370bf890569f26222db508ebcd7717b0b0459c4343a1ff97b624bc",
    "over_rate": "b0614476e08bf112295e66423280d381077041db90d6ed02823e59b20c492612",
    "dvm_crash": "12a265c167f2dc33cc4e49f932a02cb2420942da5cfa6c21c3fc177eaf2ec8ed",
    "multiwave": "b9ef9f8fa0cf85304a3513c83f5e64a55d94c629553bfb83d37fbb349ffb57e9",
    "spill_gpu": "36b7c99c7c13ab37b05e0f828b07ac2e3bbd1645f96cd74bb717e8322ab4f46c",
}


def run_golden(name: str, out_dir: str) -> str:
    """Run one golden config under `out_dir`; returns its rep directory."""
    cfg = parse_config_text(_BASE + RUNS[name], source=name)
    cfg.name = name
    cfg.output_dir = out_dir
    return os.path.join(run_experiment(cfg), "rep_000")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    if "." not in want:
        return False  # labels and counts match exactly
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    unit = 10.0 ** -len(want.split(".", 1)[1])
    return abs(g - w) <= unit * (1 + 1e-9)


def assert_reports_match(rep_dir: str, golden_dir: str) -> None:
    for fname in REPORTS:
        got = _read_csv(os.path.join(rep_dir, fname))
        want = _read_csv(os.path.join(golden_dir, fname))
        assert len(got) == len(want), fname
        for row, (g, w) in enumerate(zip(got, want)):
            assert len(g) == len(w), f"{fname} row {row}"
            for col, (a, b) in enumerate(zip(g, w)):
                assert _cells_match(a, b), f"{fname} row {row} col {col}: {a} vs {b}"


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("golden"))
    return {name: run_golden(name, out) for name in RUNS}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_profile_log_hash(golden_runs, name):
    log = os.path.join(golden_runs[name], "profile.log")
    assert sha256_file(log) == LOG_SHA256[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reports_match_golden(golden_runs, name):
    assert_reports_match(golden_runs[name], os.path.join(GOLDEN_DIR, name))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_log_reader_matches_reference(golden_runs, name):
    log = os.path.join(golden_runs[name], "profile.log")
    assert_same_table(TaskTable.from_log(log), reference_table(load_profile(log)))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_line_re_encodes_to_itself(golden_runs, name):
    # the sink writes fields unchecked; `Event.encode` rejects any field
    # off the log's alphabet, so a writer that emits one fails here
    with open(os.path.join(golden_runs[name], "profile.log"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines and [Event.decode(line).encode() for line in lines] == lines


CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# The shipped configs the benchmark reads, as it reads them, at seed 2026:
# config file -> (appended overrides, sha256 of the profile log). A changed
# byte in a shipped config or in the run it describes fails here.
SHIPPED_SHA256 = {
    "exp4_optimized.cfg": (
        "", "fe3c94de75c13b4e4c7e4e64d6e48bbea3d329276ffe2e6d05cd6b0fca387fe2"),
    "exp3_virtual.cfg": (
        "sweep.n_tasks=\nworkload.n_tasks=1024\n",
        "2c42d2bc847937e4b1d0b134dfbb60eb4b7a358456e5ed7d0ed2f4732d5dbee6"),
}


@pytest.mark.parametrize("fname", sorted(SHIPPED_SHA256))
def test_shipped_config_log_hash(tmp_path, fname):
    overrides, want = SHIPPED_SHA256[fname]
    with open(os.path.join(CONFIG_DIR, fname), encoding="utf-8") as fh:
        cfg = parse_config_text(fh.read() + "\n" + overrides, source=fname)
    run_pilot(cfg, run_dir=str(tmp_path), seed=2026)
    assert sha256_file(str(tmp_path / "profile.log")) == want


def _regenerate(out_dir: str) -> None:
    import shutil

    for name in RUNS:
        rep_dir = run_golden(name, out_dir)
        analyze(os.path.dirname(rep_dir))
        dest = os.path.join(GOLDEN_DIR, name)
        os.makedirs(dest, exist_ok=True)
        for fname in REPORTS:
            shutil.copy(os.path.join(rep_dir, fname), dest)
        print(f'    "{name}": "{sha256_file(os.path.join(rep_dir, "profile.log"))}",')


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(tmp)
    sys.exit(0)
