import csv
import dataclasses
import os
import subprocess
import sys

import pytest

from pilotsim import ConfigError, ExperimentConfig, parse_config_text, run_pilot
from pilotsim.config import to_flat
from pilotsim.cli import analyze_rep, emit_report, main, run_experiment

from conftest import zero_overhead


def small_cfg(tmp_path, **kw) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.name = kw.pop("name", "t")
    cfg.output_dir = str(tmp_path)
    cfg.workload.n_tasks = 8
    cfg.workload.duration_s = 4.0
    cfg.pool.nodes = 2
    cfg.backend.max_rate_hz = None
    cfg.agent.startup_s = 5.0
    cfg.agent.termination_s = 1.0
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def write_cfg(path, cfg):
    with open(path, "w") as fh:
        for k, v in to_flat(cfg).items():
            fh.write(f"{k}={v}\n")


# the meta.txt echo order; the key table must never reorder it
FLAT_KEYS = [
    "name", "repetitions", "seed", "output_dir",
    "workload.n_tasks", "workload.cores_per_task", "workload.gpus_per_task",
    "workload.duration_s",
    "pool.nodes", "pool.cores_per_node", "pool.gpus_per_node", "pool.agent_nodes",
    "pool.autosize",
    "backend.kind", "backend.submit_delay_s", "backend.submit_cost_s",
    "backend.max_rate_hz", "backend.fail_prob_over_rate", "backend.fd_limit",
    "backend.fd_reserved",
    "subagents.n_sub_agents",
    "dvm.capacity_tasks", "dvm.setup_mean_s", "dvm.setup_std_s", "dvm.launch_mean_s",
    "dvm.launch_std_s", "dvm.notify_mean_s", "dvm.notify_std_s",
    "agent.startup_s", "agent.termination_s", "agent.schedule_cost_s",
    "agent.partitions", "agent.gpu_weight",
    "sweep.n_tasks",
]
NUMERIC_KEYS = [k for k in FLAT_KEYS if k not in (
    "name", "output_dir", "backend.kind", "sweep.n_tasks")]
# keys of older runs that no longer exist, each with the one value it held:
# the clock follows backend.kind, there is one executor per sub-agent, and
# the bundle size, poll interval and descriptors per task are constants
REMOVED_KEYS = {
    "clock": "virtual",
    "subagents.executors_per_sub_agent": "1",
    "workload.bundle_size": "1024",
    "agent.poll_interval_s": "0.02",
    "backend.fd_per_task": "3",
}


class TestConfigParsing:
    def test_flat_round_trip(self, tmp_path):
        cfg = small_cfg(tmp_path)
        cfg.backend.submit_delay_s = 0.07
        parsed = parse_config_text(
            "\n".join(f"{k}={v}" for k, v in to_flat(cfg).items())
        )
        assert to_flat(parsed) == to_flat(cfg)

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# comment\n\nworkload.n_tasks=3\n")
        assert cfg.workload.n_tasks == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("backend.bogus=1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("workload.n_tasks=many\n")

    def test_flat_keys_keep_their_order(self):
        assert list(to_flat(ExperimentConfig())) == FLAT_KEYS
        assert len(NUMERIC_KEYS) == 30

    @pytest.mark.parametrize("value", ["-1", "nan"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_every_number_is_finite_and_non_negative(self, key, value):
        with pytest.raises(ConfigError):
            parse_config_text(f"{key}={value}\n")

    def test_a_config_object_holds_only_its_keys(self):
        cfg = ExperimentConfig()
        sections = [getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                    if dataclasses.is_dataclass(getattr(cfg, f.name))]
        assert len(sections) == 7
        for obj in (cfg, *sections):
            with pytest.raises(AttributeError):
                obj.bogus = 1
        for key in REMOVED_KEYS:
            section, _, name = key.rpartition(".")
            with pytest.raises(AttributeError):
                setattr(getattr(cfg, section) if section else cfg, name, 1)

    @pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
    def test_removed_key_is_2_naming_it(self, tmp_path, capsys, key):
        line = f"{key}={REMOVED_KEYS[key]}"
        cfg_path = tmp_path / "old.cfg"
        write_cfg(cfg_path, small_cfg(tmp_path / "out"))
        with open(cfg_path, "a") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        assert main(["run", str(cfg_path)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # a repetition echoed by an older run that still carries the key
        run_dir = run_experiment(small_cfg(tmp_path, repetitions=2))
        with open(os.path.join(run_dir, "rep_001", "meta.txt"), "a") as fh:
            fh.write(line + "\n")
        assert main(["analyze", run_dir]) == 2
        capsys.readouterr()
        emit_report(run_dir)
        out = capsys.readouterr().out
        assert "FLAGGED rep_001: " in out and f"unknown config key {key!r}" in out
        assert "1 complete repetition(s)" in out

    def test_max_rate_none(self):
        cfg = parse_config_text("backend.max_rate_hz=none\n")
        assert cfg.backend.max_rate_hz is None


class TestRunExperiment:
    def test_outputs_per_repetition(self, tmp_path):
        cfg = small_cfg(tmp_path, repetitions=2)
        run_dir = run_experiment(cfg)
        for rep in ("rep_000", "rep_001"):
            rep_dir = os.path.join(run_dir, rep)
            for fname in ("profile.log", "meta.txt", "report_overheads.csv",
                          "report_utilization.csv", "report_summary.csv",
                          "report_timeline.csv"):
                assert os.path.exists(os.path.join(rep_dir, fname)), fname

    def test_logs_never_mix_repetitions(self, tmp_path):
        cfg = small_cfg(tmp_path, repetitions=2)
        run_dir = run_experiment(cfg)
        n0 = len(open(os.path.join(run_dir, "rep_000", "profile.log")).readlines())
        n1 = len(open(os.path.join(run_dir, "rep_001", "profile.log")).readlines())
        assert n0 == n1  # same workload shape, separate files

    def test_replay_from_meta_reproduces_log(self, tmp_path):
        cfg = small_cfg(tmp_path, name="orig")
        run_dir = run_experiment(cfg)
        meta_path = os.path.join(run_dir, "rep_000", "meta.txt")
        replay_cfg = parse_config_text(open(meta_path).read())
        replay_cfg.name = "replay"
        replay_dir = run_experiment(replay_cfg)
        orig = open(os.path.join(run_dir, "rep_000", "profile.log")).read()
        replay = open(os.path.join(replay_dir, "rep_000", "profile.log")).read()
        assert orig == replay

    def test_run_and_reload_give_identical_metrics(self, tmp_path):
        # timestamps are quantized to the log's microseconds when recorded,
        # so the in-memory events and the reloaded log are the same input
        cfg = small_cfg(tmp_path, name="quant")
        cfg.workload.n_tasks = 24
        assert cfg.dvm.launch_std_s > 0 and cfg.backend.submit_cost_s > 0
        rep_dir = str(tmp_path / "rep")
        res = run_pilot(cfg, run_dir=rep_dir, seed=3)
        assert analyze_rep(rep_dir, cfg, events=res.events) == analyze_rep(rep_dir, cfg)

    def test_dvm_crash_is_recorded_outcome(self, tmp_path):
        cfg = small_cfg(tmp_path, name="crash")
        cfg = zero_overhead(cfg)
        cfg.workload.duration_s = 30.0
        cfg.dvm.capacity_tasks = 3
        run_dir = run_experiment(cfg)  # must not raise
        summary = os.path.join(run_dir, "rep_000", "report_summary.csv")
        rows = dict((r[0], r[1]) for r in csv.reader(open(summary)))
        assert float(rows["n_failed"]) > 0

    def test_run_that_stops_at_t0_reports_a_zero_window(self, tmp_path):
        # the DVM crashes at t=0, every task fails there, and with no
        # startup or termination the pilot stops there too: a complete run
        # whose utilization window is 0 s long
        cfg = ExperimentConfig()
        cfg.name, cfg.output_dir = "t0", str(tmp_path)
        cfg.workload.n_tasks = 3
        cfg.pool.nodes, cfg.pool.cores_per_node = 5, 1
        cfg.dvm.capacity_tasks = 1
        cfg.agent.startup_s = cfg.agent.termination_s = 0.0
        cfg.backend.submit_delay_s = cfg.backend.submit_cost_s = 0.0
        cfg_path = tmp_path / "t0.cfg"
        write_cfg(cfg_path, cfg)
        assert main(["run", str(cfg_path)]) == 0
        rep_dir = os.path.join(str(tmp_path), "t0", "rep_000")
        reports = {}
        for fname in ("report_summary.csv", "report_timeline.csv"):
            with open(os.path.join(rep_dir, fname)) as fh:
                reports[fname] = list(csv.reader(fh))
        rows = dict(reports["report_summary.csv"])
        assert (rows["n_failed"], rows["ttx_s"]) == ("3.000000", "0.000000")
        assert {v for k, v in rows.items() if k.startswith("ru_")} == {"0.000000"}
        assert {(t, units) for t, _, units in reports["report_timeline.csv"][1:]} == {
            ("0.000000", "0.0000")}
        assert main(["analyze", os.path.join(str(tmp_path), "t0")]) == 0
        with open(os.path.join(rep_dir, "report_summary.csv")) as fh:
            assert dict(csv.reader(fh)) == rows


class TestEmitReport:
    def test_single_repetition_zero_stddev(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        run_dir = run_experiment(cfg)
        out_path = emit_report(run_dir)
        rows = {r[0]: r for r in csv.reader(open(out_path))}
        assert float(rows["ttx_s"][2]) == 0.0

    def test_identical_seeded_reps_zero_stddev(self, tmp_path):
        # four repetitions of the exact same seed are fully deterministic
        import shutil

        cfg = small_cfg(tmp_path)
        run_dir = run_experiment(cfg)
        src = os.path.join(run_dir, "rep_000")
        for rep in range(1, 4):
            shutil.copytree(src, os.path.join(run_dir, f"rep_{rep:03d}"))
        out_path = emit_report(run_dir)
        for row in list(csv.reader(open(out_path)))[1:]:
            assert float(row[2]) == 0.0, row[0]

    def test_distinct_seeds_mean_within_envelope(self, tmp_path):
        cfg = small_cfg(tmp_path, repetitions=4)
        run_dir = run_experiment(cfg)
        from pilotsim import compute_ttx, load_profile

        ttxs = []
        for rep in range(4):
            events = load_profile(os.path.join(run_dir, f"rep_{rep:03d}", "profile.log"))
            ttxs.append(compute_ttx(events))
        out_path = emit_report(run_dir)
        rows = {r[0]: r for r in csv.reader(open(out_path))}
        mean = float(rows["ttx_s"][1])
        assert min(ttxs) <= mean <= max(ttxs)

    def test_flagged_truncated_rep(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path, repetitions=2)
        run_dir = run_experiment(cfg)
        log1 = os.path.join(run_dir, "rep_001", "profile.log")
        lines = open(log1).readlines()
        open(log1, "w").writelines(lines[:-1])  # drop pilot_stop
        emit_report(run_dir)
        out = capsys.readouterr().out
        assert "FLAGGED rep_001" in out
        assert "1 complete repetition(s)" in out

    def test_no_complete_runs(self, tmp_path):
        os.makedirs(tmp_path / "empty" / "rep_000")
        from pilotsim.cli import NoCompleteRuns

        with pytest.raises(NoCompleteRuns):
            emit_report(str(tmp_path / "empty"))


class TestSweep:
    def test_sweep_expands_scale_points(self, tmp_path):
        cfg = small_cfg(tmp_path, name="exp1")
        cfg.workload.duration_s = 5.0
        cfg.backend.submit_delay_s = 0.1
        cfg.pool.autosize = 1
        cfg.sweep.n_tasks = "4,8,16"
        run_dir = run_experiment(cfg)
        points = sorted(os.listdir(run_dir))
        assert points == ["n000004", "n000008", "n000016"]
        # aggregated scheduling/submission overhead grows with scale
        from pilotsim import component_overheads, load_profile

        unions = []
        for p in points:
            events = load_profile(os.path.join(run_dir, p, "rep_000", "profile.log"))
            unions.append(component_overheads(events).components["rp"].union_s)
        assert unions[0] < unions[1] < unions[2]

    def test_autosize_tracks_workload(self, tmp_path):
        cfg = small_cfg(tmp_path)
        cfg.pool.autosize = 1
        cfg.pool.cores_per_node = 42
        cfg.workload.n_tasks = 16384
        assert cfg.effective_nodes() == 391 + 1

    def test_bad_sweep_rejected(self, tmp_path):
        cfg = small_cfg(tmp_path)
        cfg.sweep.n_tasks = "4,zero"
        with pytest.raises(ConfigError):
            cfg.validate()


class TestShippedConfigs:
    @pytest.mark.parametrize("fname", ["exp1_local.cfg", "exp3_virtual.cfg",
                                       "exp4_optimized.cfg"])
    def test_parse_and_validate(self, fname):
        from pilotsim import parse_config_file

        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = parse_config_file(os.path.join(here, "configs", fname))
        cfg.validate()

    def test_exp_partition_variant_runs(self, tmp_path):
        # partitioned variant of the optimized setup at reduced scale
        cfg = small_cfg(tmp_path, name="partitioned")
        cfg = zero_overhead(cfg)
        cfg.workload.n_tasks = 32
        cfg.pool.nodes = 5
        cfg.agent.partitions = 4
        cfg.subagents.n_sub_agents = 4
        run_dir = run_experiment(cfg)
        assert os.path.exists(os.path.join(run_dir, "rep_000", "report_summary.csv"))


def cut_in_first_slot(lines):
    """A log that ends inside a slot attribute: the line still has six
    fields, and the slot decoder fails on the core list."""
    i = next(i for i, line in enumerate(lines) if "slot=n1c" in line)
    return lines[:i] + [lines[i][:lines[i].index("slot=n1c") + 8] + "\n"]


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        cfg_path = tmp_path / "exp.cfg"
        write_cfg(cfg_path, cfg)
        assert main(["run", str(cfg_path)]) == 0
        assert main(["analyze", str(tmp_path / "t")]) == 0
        assert main(["report", str(tmp_path / "t")]) == 0

    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("workload.n_tasks=0\n")
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("bad", [
        "backend.submit_delay_s=-1",
        "backend.submit_cost_s=-0.5",
        "dvm.setup_mean_s=-1",
        "dvm.launch_std_s=-1",
        "workload.gpus_per_task=-1",
        "pool.nodes=3\nagent.partitions=2",  # one executor, two partitions
        # valid at 84 tasks (two worker nodes), but the sweep's second
        # point autosizes to one worker node, too few for two partitions
        "pool.autosize=1\nworkload.n_tasks=84\nagent.partitions=2\n"
        "subagents.n_sub_agents=2\nsweep.n_tasks=84,1",
        # NaN passes every range check, so non-finite floats need their own
        "workload.duration_s=nan",
        "workload.duration_s=inf",
        "dvm.launch_mean_s=nan",
        "backend.submit_delay_s=nan",
        "backend.max_rate_hz=0",
        "backend.max_rate_hz=-1",
        "agent.startup_s=-50",
        "agent.termination_s=-1",
        "agent.schedule_cost_s=-0.1",
        "agent.gpu_weight=-1",
        "seed=-1",  # numpy's generator refuses it, after rep_000 exists
        "backend.fd_reserved=-5",  # tasks could hold more than fd_limit
        "pool.autosize=-7",
        "pool.autosize=2",
        "pool.autosize=1\npool.cores_per_node=0",  # would divide by zero
    ])
    def test_invalid_config_is_2_and_runs_nothing(self, tmp_path, bad):
        cfg_path = tmp_path / "bad.cfg"
        write_cfg(cfg_path, small_cfg(tmp_path / "out"))
        with open(cfg_path, "a") as fh:
            fh.write(bad + "\n")
        assert main(["run", str(cfg_path)]) == 2
        assert list(tmp_path.glob("out/**/rep_*")) == []

    def test_negative_seed_option_is_2_and_runs_nothing(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        write_cfg(cfg_path, small_cfg(tmp_path / "out"))
        assert main(["run", str(cfg_path), "--seed", "-1"]) == 2
        assert list(tmp_path.glob("out/**/rep_*")) == []

    def test_missing_config_is_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_overrides(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        cfg_path = tmp_path / "exp.cfg"
        write_cfg(cfg_path, cfg)
        out2 = tmp_path / "other"
        assert main(["run", str(cfg_path), "--seed", "5", "--out", str(out2),
                     "--reps", "2"]) == 0
        assert os.path.isdir(out2 / "t" / "rep_001")

    @pytest.mark.parametrize("damage", [
        lambda lines: lines[:-1],
        lambda lines: lines[:-1] + [lines[-1][:5]],
        lambda lines: lines[:3] + ["not an event\n"] + lines[3:],
        cut_in_first_slot,
        lambda lines: lines[:5] + ["nan" + lines[5][lines[5].index(","):]] + lines[6:],
    ], ids=["no_pilot_stop", "cut_last_line", "garbage_line", "cut_in_slot", "nan_time"])
    def test_analyze_damaged_log_is_3_naming_the_rep(self, tmp_path, capsys, damage):
        run_dir = run_experiment(small_cfg(tmp_path, repetitions=2))
        log = os.path.join(run_dir, "rep_001", "profile.log")
        lines = open(log).readlines()
        open(log, "w").writelines(damage(lines))
        capsys.readouterr()
        assert main(["analyze", run_dir]) == 3
        err = capsys.readouterr().err
        assert "rep_001" in err
        assert "Traceback" not in err

    def test_analyze_slot_off_the_grammar_is_3(self, tmp_path, capsys):
        # a negative core index would alias a unit of another node
        run_dir = run_experiment(small_cfg(tmp_path))
        log = os.path.join(run_dir, "rep_000", "profile.log")
        with open(log) as fh:
            text = fh.read()
        assert "slot=n1c0;" in text
        with open(log, "w") as fh:
            fh.write(text.replace("slot=n1c0;", "slot=n1c-1;", 1))
        line_no = text[:text.index("slot=n1c0;")].count("\n") + 1
        capsys.readouterr()
        assert main(["analyze", run_dir]) == 3
        err = capsys.readouterr().err
        assert f"{log}:{line_no}: bad slot encoding: 'n1c-1'" in err and "rep_000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("wait,reason", [
        ("x0.100000", "could not convert string to float: 'x0.100000'"),
        ("nan", "wait 'nan' is not finite"),
        ("inf", "wait 'inf' is not finite"),
    ])
    def test_analyze_bad_wait_is_3_naming_its_line(self, tmp_path, capsys, wait, reason):
        run_dir = run_experiment(small_cfg(tmp_path))
        log = os.path.join(run_dir, "rep_000", "profile.log")
        with open(log) as fh:
            text = fh.read()
        with open(log, "w") as fh:
            fh.write(text.replace("wait=0.100000;", f"wait={wait};", 1))
        line_no = text[:text.index("wait=0.100000;")].count("\n") + 1
        capsys.readouterr()
        assert main(["analyze", run_dir]) == 3
        err = capsys.readouterr().err
        assert f"{log}:{line_no}: {reason}" in err and "Traceback" not in err

    def test_report_on_missing_dir_is_3(self, tmp_path):
        assert main(["report", str(tmp_path / "missing")]) == 3


def test_python_m_pilotsim_help():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "pilotsim", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "usage: pilotsim" in proc.stdout
