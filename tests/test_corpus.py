"""Byte identity over the config space: a pinned corpus of runs.

Each entry of `tests/data/corpus.txt` is one run of an accepted
`sim_dvm` or `sim_jsm` config, held in memory: the sha256 of its
`profile.log`, one sha256 of its four report CSVs, its seed, and the
config keys that differ from the defaults. The entries are about 300
configs drawn with `random.Random(1)` from the value lists of
`test_config_sweep.KEY_VALUES`, with 1-400 tasks and no sweep, plus the
shipped exp3 and exp4 shapes at 256 tasks. The config text is stored, not
a generator seed, so a change to the sweep's strategies does not move the
corpus. Two sensitivity guards check that the corpus sees a one-line
change of the runtime: each mutant below must change at least one log.

Regenerate the corpus with
`PYTHONPATH=src python tests/test_corpus.py > tests/data/corpus.txt`.
A changed entry is a behaviour change and needs its own justification.
"""

import hashlib
import os
import random
import sys
import tempfile
from functools import partial

import pytest

from pilotsim import ConfigError, ExperimentConfig, parse_config_text, run_pilot
from pilotsim.cli import analyze_rep
from pilotsim.config import to_flat
from pilotsim.core import FailureReason
from pilotsim.launcher import Executor, SimJsmBackend

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "data", "corpus.txt")
CONFIG_DIR = os.path.join(os.path.dirname(HERE), "configs")
REPORTS = ("report_overheads.csv", "report_utilization.csv",
           "report_summary.csv", "report_timeline.csv")
# keys an entry does not hold: each entry is one repetition at its own seed
UNSET = {"name", "output_dir", "seed", "repetitions", "sweep.n_tasks"}


def entry_config(keys: list[str]) -> ExperimentConfig:
    return parse_config_text("".join(f"{key}\n" for key in keys), source="<corpus>")


def read_corpus() -> list[tuple[str, str, int, list[str]]]:
    """(log sha256, reports sha256, seed, config keys) of each entry."""
    with open(CORPUS, encoding="utf-8") as fh:
        rows = [line.split() for line in fh if not line.startswith("#")]
    return [(log, reports, int(seed), keys) for log, reports, seed, *keys in rows]


def log_hash(cfg: ExperimentConfig, seed: int):
    """The sha256 of the run's log, and the run."""
    res = run_pilot(cfg, seed=seed)
    digest = hashlib.sha256()
    for block in res.events.blocks():
        digest.update(block.encode())
    return digest.hexdigest(), res


def entry_hashes(keys: list[str], seed: int, rep_dir: str) -> tuple[str, str]:
    """The log and reports sha256 of one entry, its reports written to
    `rep_dir` from the run's events."""
    cfg = entry_config(keys)
    log, res = log_hash(cfg, seed)
    analyze_rep(rep_dir, cfg, events=res.events)
    digest = hashlib.sha256()
    for fname in REPORTS:
        with open(os.path.join(rep_dir, fname), "rb") as fh:
            digest.update(fh.read())
    return log, digest.hexdigest()


@pytest.fixture(scope="module")
def entries():
    return read_corpus()


def test_every_entry_keeps_its_bytes(entries, tmp_path):
    changed = [n for n, (log, reports, seed, keys) in enumerate(entries, start=1)
               if entry_hashes(keys, seed, str(tmp_path)) != (log, reports)]
    assert not changed, f"{len(changed)} of {len(entries)} entries changed: {changed[:10]}"


def test_the_corpus_holds_the_shipped_shapes_and_both_backends(entries):
    assert len(entries) >= 300
    kinds = [dict(key.split("=", 1) for key in keys).get("backend.kind", "sim_dvm")
             for _, _, _, keys in entries]
    assert kinds.count("sim_jsm") >= 50 and kinds.count("sim_dvm") >= 50
    for fname in ("exp3_virtual.cfg", "exp4_optimized.cfg"):
        assert shipped_entry(fname) in [(seed, keys) for _, _, seed, keys in entries]


# -- sensitivity guards: a one-line change of the runtime moves a log --------

def over_rate_inclusive(self, now):
    # `_over_rate` with `<=`: a submission exactly one period after the
    # last one counts as over the rate
    if self.config.max_rate_hz is None or self._last_submit_t is None:
        return False
    return (now - self._last_submit_t) * self.config.max_rate_hz <= 1.0


def jsm_fails_the_new_submission_first(self, rec, executor, now):
    # `SimJsmBackend.submit_job` failing the second executor's submission
    # before the live jobs
    self._first_executor = self._first_executor or executor.uid
    if not self.unstable and executor.uid != self._first_executor:
        self.unstable = True
        self.host.task_failed(rec, FailureReason.DVM_CRASHED, now)
        live, self._live = self._live, {}
        for failed, _ in live.values():
            self.host.task_failed(failed, FailureReason.DVM_CRASHED, now)
        return
    if self.unstable:
        self.host.task_failed(rec, FailureReason.DVM_CRASHED, now)
        return
    self._live[rec.uid] = (rec, executor)
    delay = self.latency.sample(self.rng)
    self.clock.schedule_at(now + delay, partial(self._to_running, rec.uid))


MUTANTS = {
    "over_rate_inclusive": (Executor, "_over_rate", over_rate_inclusive),
    "jsm_fails_the_new_submission_first": (
        SimJsmBackend, "submit_job", jsm_fails_the_new_submission_first),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_mutant_changes_a_log(entries, monkeypatch, mutant):
    monkeypatch.setattr(*MUTANTS[mutant])
    assert any(log_hash(entry_config(keys), seed)[0] != log
               for log, _, seed, keys in entries)


# -- generating the corpus ------------------------------------------------------

def shipped_entry(fname: str) -> tuple[int, list[str]]:
    """(seed, keys) of a shipped config at 256 tasks without its sweep."""
    with open(os.path.join(CONFIG_DIR, fname), encoding="utf-8") as fh:
        cfg = parse_config_text(fh.read() + "\nsweep.n_tasks=\nworkload.n_tasks=256\n")
    return cfg.seed, changed_keys(to_flat(cfg))


def changed_keys(flat: dict[str, str]) -> list[str]:
    defaults = to_flat(ExperimentConfig())
    return [f"{k}={v}" for k, v in flat.items() if k not in UNSET and v != defaults[k]]


def drawn_entries(n: int) -> list[tuple[int, list[str]]]:
    """(seed, keys) of the first `n` accepted configs drawn from the sweep's
    value lists, with 1-400 tasks."""
    from test_config_sweep import KEY_VALUES, _fd_budget

    rng = random.Random(1)
    lists = {k: s.elements for k, s in KEY_VALUES.items()
             if k not in UNSET and k != "workload.n_tasks"}
    out = []
    while len(out) < n:
        flat = {k: rng.choice(values) for k, values in lists.items()}
        flat["workload.n_tasks"] = str(rng.randint(1, 400))
        seed = rng.randrange(2**32)
        keys = changed_keys(_fd_budget(flat))
        try:
            entry_config(keys)
        except ConfigError:
            continue
        out.append((seed, keys))
    return out


def _regenerate() -> None:
    print("# log sha256, reports sha256, seed, config keys that differ from the defaults")
    entries = drawn_entries(300) + [shipped_entry(f) for f in (
        "exp3_virtual.cfg", "exp4_optimized.cfg")]
    with tempfile.TemporaryDirectory() as tmp:
        for seed, keys in entries:
            print(*entry_hashes(keys, seed, tmp), seed, *keys)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    _regenerate()
    sys.exit(0)
