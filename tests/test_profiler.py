from urllib.parse import quote

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotsim import profiler
from pilotsim import (
    Event,
    EventSink,
    ProfileParseError,
    SinkClosed,
    load_profile,
    parse_config_text,
    run_pilot,
    to_flat,
)
from pilotsim.cli import main

from conftest import task_events, zero_overhead

printable = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    min_size=0, max_size=40,
)

# arbitrary text, weighted towards the characters the log reserves
reserved_text = st.text(
    st.one_of(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
              st.sampled_from(",;=%\té☃"),
              st.characters(blacklist_categories=("Cs",))),
    max_size=20,
)


def quote_every_field(ev):
    """Reference encoding: every field percent-encoded."""
    def q(text):
        return quote(text, safe=profiler._FIELD_SAFE)
    pairs = ";".join(f"{q(k)}={q(v)}" for k, v in ev.attrs.items())
    return (f"{ev.t_s:.6f},{q(ev.entity_kind)},{q(ev.entity_id)},"
            f"{q(ev.component)},{q(ev.name)},{pairs}")


def random_event(rng):
    kinds = ["Pilot", "Task", "DvmJob", "Executor"]
    comps = ["Client", "Agent", "Scheduler", "Executor", "Dvm", "Payload"]
    attrs = {f"k{i}": str(rng.integers(1000)) for i in range(int(rng.integers(0, 3)))}
    return Event(
        t_s=round(float(rng.uniform(0, 1e4)), 6),
        entity_kind=kinds[rng.integers(len(kinds))],
        entity_id=f"task.{int(rng.integers(10000)):06d}",
        component=comps[rng.integers(len(comps))],
        name="submit",
        attrs=attrs,
    )


class TestRecord:
    def test_first_line_is_pilot_start(self, tmp_path):
        path = str(tmp_path / "p.log")
        sink = EventSink(path)
        sink.record(Event(0.0, "Pilot", "pilot", "Agent", "pilot_start"))
        sink.close()
        with open(path) as fh:
            first = fh.readline()
        assert first.startswith("0.000000,Pilot,pilot,Agent,pilot_start")

    def test_call_order_preserved(self, tmp_path):
        path = str(tmp_path / "p.log")
        sink = EventSink(path)
        for i in range(5):
            sink.record(Event(1.0, "Task", f"t{i}", "Executor", "submit"))
        sink.close()
        loaded = load_profile(path)
        assert [e.entity_id for e in loaded] == [f"t{i}" for i in range(5)]

    def test_closed_sink_rejects(self, tmp_path):
        sink = EventSink(str(tmp_path / "p.log"))
        sink.close()
        with pytest.raises(SinkClosed):
            sink.record(Event(0.0, "Pilot", "p", "Agent", "x"))

    def test_per_producer_order_after_global_sort(self, tmp_path):
        # 10k events from 4 interleaved producers: after the stable sort by
        # timestamp, each producer's own sequence is intact
        rng = np.random.default_rng(0)
        path = str(tmp_path / "p.log")
        sink = EventSink(path)
        seq = {p: 0 for p in range(4)}
        t = {p: 0.0 for p in range(4)}
        for _ in range(10000):
            p = int(rng.integers(4))
            t[p] += float(rng.uniform(0, 0.01))
            sink.record(Event(t[p], "Executor", f"exec.{p}", "Executor", "op",
                              {"seq": str(seq[p])}))
            seq[p] += 1
        sink.close()
        loaded = load_profile(path)
        per_producer = {}
        for ev in loaded:
            per_producer.setdefault(ev.entity_id, []).append(int(ev.attrs["seq"]))
        for seqs in per_producer.values():
            assert seqs == sorted(seqs)


class TestEncode:
    @given(text=reserved_text)
    @example(text="")
    @example(text="%")
    @example(text="a=b;c")
    @example(text="é")
    @example(text="\t")
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_quoting_every_field(self, text):
        for i in range(6):
            fields = ["Task", "task.000001", "Executor", "submit", "k", "v"]
            fields[i] = text
            for ev in (Event(3.0, *fields[:4], {fields[4]: fields[5]}),
                       Event(3.0, *fields[:4])):
                assert ev.encode() == quote_every_field(ev)

    def test_plain_run_never_quotes(self, quick_cfg, tmp_path, monkeypatch):
        calls = []

        def counting_quote(*args, **kwargs):
            calls.append(args[0])
            return quote(*args, **kwargs)

        monkeypatch.setattr(profiler, "quote", counting_quote)
        res = run_pilot(quick_cfg(), run_dir=str(tmp_path / "rep"), seed=1)
        assert res.n_done == 16
        assert calls == []
        sink = EventSink(str(tmp_path / "p.log"))
        sink.record(Event(0.0, "Task", "task,1", "Executor", "submit"))
        sink.close()
        assert "task,1" in calls


class TestLoadProfile:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_text("")
        assert load_profile(str(path)) == []

    def test_round_trip_1000_random_events(self, tmp_path):
        rng = np.random.default_rng(1)
        events = sorted((random_event(rng) for _ in range(1000)), key=lambda e: e.t_s)
        path = str(tmp_path / "p.log")
        sink = EventSink(path)
        for ev in events:
            sink.record(ev)
        sink.close()
        assert load_profile(path) == events

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("0.000000,Pilot,p,Agent,pilot_start,\nnot a line\n")
        with pytest.raises(ProfileParseError) as err:
            load_profile(str(path))
        assert err.value.line_no == 2

    @given(entity_id=printable, name=printable, key=printable, val=printable)
    @settings(max_examples=80, deadline=None)
    def test_round_trip_arbitrary_printable_fields(self, entity_id, name, key, val):
        ev = Event(1.25, "Task", entity_id, "Executor", name, {key: val})
        assert Event.decode(ev.encode()) == ev


class TestRunEventChains:
    def test_done_tasks_have_full_chain(self, quick_cfg):
        cfg = zero_overhead(quick_cfg(workload__n_tasks=6))
        res = run_pilot(cfg, seed=1)
        assert res.n_done == 6
        needed = {"schedule_ok", "submit", "running", "done", "unschedule"}
        tasks = task_events(res.events)
        assert len(tasks) == 6
        for history in tasks.values():
            assert "task_fail" not in history
            assert needed <= history.keys()

    def test_run_log_round_trips(self, quick_cfg, tmp_path):
        # timestamps are microsecond fixed-point on disk
        cfg = quick_cfg(workload__n_tasks=6)
        res = run_pilot(cfg, run_dir=str(tmp_path / "rep"), seed=1)
        loaded = load_profile(str(tmp_path / "rep" / "profile.log"))
        assert len(loaded) == len(res.events)

        def key(ev):
            return (round(ev.t_s, 6), ev.entity_kind, ev.entity_id,
                    ev.component, ev.name, tuple(sorted(ev.attrs.items())))

        assert sorted(map(key, res.events)) == sorted(map(key, loaded))


class TestMetadata:
    def test_round_trip(self, tmp_path):
        # `pilotsim run` echoes the config into meta.txt, which parses back
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "seed=42\nclock=virtual\npool.nodes=392\nworkload.n_tasks=4\n"
            f"workload.duration_s=1.0\nname=meta\noutput_dir={tmp_path}\n"
        )
        assert main(["run", str(cfg_path)]) == 0
        meta_path = tmp_path / "meta" / "rep_000" / "meta.txt"
        flat = to_flat(parse_config_text(meta_path.read_text(), source=str(meta_path)))
        meta = {"seed": "42", "clock": "virtual", "pool.nodes": "392"}
        assert {k: flat[k] for k in meta} == meta
