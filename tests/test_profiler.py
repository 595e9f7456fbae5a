import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotsim import ProfileParseError, load_profile, parse_config_text, run_pilot
from pilotsim.config import to_flat
from pilotsim.pilot import PilotRun
from pilotsim.cli import main
from pilotsim.profiler import NO_ATTRS, Event, EventSink, SinkClosed

from conftest import task_events, zero_overhead

# text of the log's alphabet: printable ASCII without , ; = %
printable = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters=",;=%"),
    min_size=0, max_size=40,
)

# one character off that alphabet: a reserved one, a control character or
# any other non-ASCII one
off_alphabet = st.one_of(
    st.sampled_from(",;=%\t\n\r\x7fé☃"),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x7F, blacklist_categories=("Cs",)),
)


def near_tie(k, side):
    """The half microsecond after k microseconds, or the float next to it
    below (side -1) or above (side 1): where rounding the time first could
    differ from formatting it."""
    t = (k + 0.5) / 1e6
    return math.nextafter(t, side * math.inf) if side else t


times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(near_tie, st.integers(-10**13, 10**13), st.sampled_from([-1, 0, 1])),
)


def recorded(t, kind, uid, comp, name, attrs=NO_ATTRS):
    """The text `EventSink.record` writes for one event."""
    sink = EventSink()
    sink.record(t, kind, uid, comp, name, attrs)
    return sink._fh.getvalue()


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
        sink.record(0.0, "Pilot", "pilot", "Agent", "pilot_start")
        sink.close()
        with open(path) as fh:
            first = fh.readline()
        assert first.startswith("0.000000,Pilot,pilot,Agent,pilot_start")

    def test_call_order_preserved(self, tmp_path):
        path = str(tmp_path / "p.log")
        sink = EventSink(path)
        for i in range(5):
            sink.record(1.0, "Task", f"t{i}", "Executor", "submit")
        sink.close()
        loaded = load_profile(path)
        assert [e.entity_id for e in loaded] == [f"t{i}" for i in range(5)]

    def test_closed_sink_rejects(self, tmp_path):
        sink = EventSink(str(tmp_path / "p.log"))
        sink.close()
        with pytest.raises(SinkClosed):
            sink.record(0.0, "Pilot", "p", "Agent", "x")

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
            sink.record(t[p], "Executor", f"exec.{p}", "Executor", "op",
                        {"seq": str(seq[p])})
            seq[p] += 1
        sink.close()
        loaded = load_profile(path)
        per_producer = {}
        for ev in loaded:
            per_producer.setdefault(ev.entity_id, []).append(int(ev.attrs["seq"]))
        for seqs in per_producer.values():
            assert seqs == sorted(seqs)


class TestEncode:
    FIELDS = ["Task", "task.000001", "Executor", "submit", "k", "v"]
    # what `encode` calls each field of FIELDS when it is off the alphabet
    NAMES = ["entity_kind", "entity_id", "component", "name", "attribute key", "attribute 'k'"]

    @given(fields=st.lists(printable, min_size=6, max_size=6), t=times)
    @example(fields=[""] * 6, t=3.0)
    @example(fields=FIELDS, t=0.0000005)
    @example(fields=FIELDS, t=1e300)
    @example(fields=[" !\"#$&'()*+-./:<>?@[\\]^_`{|}~"] * 6, t=-2.5)
    @settings(max_examples=300, deadline=None)
    def test_record_writes_what_encode_writes(self, fields, t):
        # the sink formats from the fields what the reference encodes after
        # rounding the time to the log's microseconds, and the line decodes
        # back to the event
        for attrs in ({fields[4]: fields[5]}, NO_ATTRS):
            ev = Event(round(t, 6), *fields[:4], attrs)
            assert recorded(t, *fields[:4], attrs) == ev.encode() + "\n"
            assert Event.decode(ev.encode()) == ev

    @given(text=printable, bad=off_alphabet, at=st.integers(0, 40), where=st.integers(0, 5))
    @example(text="task.1", bad=",", at=4, where=1)
    @example(text="", bad="%", at=0, where=0)
    @example(text="a", bad="=", at=1, where=4)
    @example(text="b", bad=";", at=0, where=5)
    @settings(max_examples=300, deadline=None)
    def test_encode_rejects_a_field_off_the_alphabet(self, text, bad, at, where):
        fields = list(self.FIELDS)
        fields[where] = text = text[:at] + bad + text[at:]
        ev = Event(1.0, *fields[:4], {fields[4]: fields[5]})
        with pytest.raises(ValueError) as err:
            ev.encode()
        assert str(err.value) == f"{self.NAMES[where]} {text!r} is off the log alphabet"

    def test_near_tie_times_match_rounding_first(self):
        ts = [near_tie(k, side) for k in range(0, 10**10, 333_331) for side in (-1, 0, 1)]
        sink = EventSink()
        for t in ts:
            sink.record(t, "Task", "t", "Executor", "submit")
        want = [f"{round(t, 6):.6f},Task,t,Executor,submit," for t in ts]
        assert sink._fh.getvalue().splitlines() == want

    def test_plain_run_makes_no_regex_call_in_record(self, quick_cfg, tmp_path):
        # the sink writes every field verbatim: no pattern scans them
        record, calls, regex = EventSink.record.__code__, [], []

        def profile(frame, event, arg):
            if frame.f_code is record:
                calls.append(event)
                if event == "c_call" and isinstance(getattr(arg, "__self__", None), re.Pattern):
                    regex.append(arg.__name__)

        run = PilotRun(quick_cfg(), run_dir=str(tmp_path / "rep"), seed=1)
        sys.setprofile(profile)
        try:
            res = run.run()
        finally:
            sys.setprofile(None)
        assert res.n_done == 16
        assert calls.count("call") >= 16 * 5
        assert regex == []


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
            sink.record(ev.t_s, ev.entity_kind, ev.entity_id, ev.component, ev.name,
                        ev.attrs)
        sink.close()
        assert load_profile(path) == events
        assert list(sink.events) == events  # record order, here time order

    @pytest.mark.parametrize("t", ["nan", "inf", "-Infinity"])
    def test_non_finite_time_names_line_number(self, tmp_path, t):
        path = tmp_path / "bad.log"
        path.write_text(f"0.000000,Pilot,p,Agent,pilot_start,\n{t},Task,t,Executor,submit,\n")
        with pytest.raises(ProfileParseError) as err:
            load_profile(str(path))
        assert err.value.line_no == 2

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


def count_calls(monkeypatch, calls, name, wrap=lambda f: f):
    """Make Event.<name> append its name to `calls` on every call."""
    orig = getattr(Event, name)
    fn = getattr(orig, "__func__", orig)

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(Event, name, wrap(counting))


class TestLeanPath:
    """The profile text is the only copy of the events: a run builds no
    `Event`, and reading them back decodes only the lines read."""

    @pytest.mark.parametrize("to_file", [True, False])
    def test_plain_run_builds_no_event(self, quick_cfg, tmp_path, monkeypatch, to_file):
        run = PilotRun(quick_cfg(), run_dir=str(tmp_path / "rep") if to_file else None,
                       seed=1)
        calls = []
        count_calls(monkeypatch, calls, "__init__")
        count_calls(monkeypatch, calls, "encode")
        count_calls(monkeypatch, calls, "decode", classmethod)
        res = run.run()
        assert res.n_done == 16
        assert calls == []

    @pytest.mark.parametrize("to_file", [True, False])
    def test_len_and_last_decode_one_line(self, quick_cfg, tmp_path, monkeypatch, to_file):
        res = run_pilot(quick_cfg(), run_dir=str(tmp_path / "rep") if to_file else None,
                        seed=1)
        calls = []
        count_calls(monkeypatch, calls, "decode", classmethod)
        assert len(res.events) > 16 * 5
        assert res.events[-1].name == "pilot_stop"
        assert calls == ["decode"]

    def test_file_sink_memory_does_not_grow(self, tmp_path):
        sink = EventSink(str(tmp_path / "p.log"))
        attrs = {"slot": "n000001c7", "cores": "1"}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(100_000):
                sink.record(i * 1e-3, "Task", f"task.{i:06d}", "Scheduler",
                            "schedule_ok", attrs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sink.close()
        assert peak - base < 256 * 1024
        assert len(sink.events) == 100_000


class TestMetadata:
    def test_round_trip(self, tmp_path):
        # `pilotsim run` echoes the config into meta.txt, which parses back
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "seed=42\npool.nodes=392\nworkload.n_tasks=4\n"
            f"workload.duration_s=1.0\nname=meta\noutput_dir={tmp_path}\n"
        )
        assert main(["run", str(cfg_path)]) == 0
        meta_path = tmp_path / "meta" / "rep_000" / "meta.txt"
        flat = to_flat(parse_config_text(meta_path.read_text(), source=str(meta_path)))
        meta = {"seed": "42", "pool.nodes": "392"}
        assert {k: flat[k] for k in meta} == meta
