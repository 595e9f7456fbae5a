"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the entry points of each pilotsim module (the
layers) in place; `uninstall()` puts the originals back. Every call to a
wrapped function is a span: name, parent span, start and end. Spans are
kept in memory in flat arrays and written out at the end. A span's self
time is its duration minus the time its child spans cover, tracked with
a span stack as calls return.

Counters sit at the same boundaries: placements per scheduling attempt,
FD rejects and peak use, peak event-heap length and live DVM jobs.
"""

from __future__ import annotations

import gzip
import time
from array import array

from pilotsim import analysis, cli, config, core, dvm, launcher, pilot, profiler, scheduler

# (owner, attribute, span name); the span name's prefix is the layer.
SPANS = [
    (config, "parse_config_text", "config.parse"),
    (config.ExperimentConfig, "validate", "config.validate"),
    (pilot.PilotRun, "__init__", "pilot.init"),
    (core.VirtualClock, "run", "core.loop"),
    (scheduler.ResourcePool, "try_schedule", "scheduler.try_schedule"),
    (scheduler.ResourcePool, "unschedule", "scheduler.unschedule"),
    *((launcher.Executor, m, f"launcher.{m.lstrip('_')}") for m in (
        "enqueue", "_kick_submit", "_do_submit", "_dispatch", "_end_submit_op",
        "enqueue_completion", "_kick_drain", "_do_collect", "_end_drain_op")),
    *((launcher.SimJsmBackend, m, f"launcher.jsm_{m.lstrip('_')}") for m in (
        "submit_job", "_to_running", "_payload_end")),
    *((dvm.DvmHandle, m, f"dvm.{m.lstrip('_')}") for m in (
        "submit_job", "_to_pending", "_to_running", "_payload_end", "_to_notify",
        "_crash")),
    (profiler.EventSink, "record", "profiler.record"),
    (profiler.Event, "encode", "profiler.encode"),
    (profiler, "load_profile", "profiler.load"),
    (cli, "load_profile", "profiler.load"),
    *((analysis, f, f"analysis.{f}") for f in (
        "compute_ttx", "ideal_ttx", "component_overheads", "utilization",
        "write_timeline_csv")),
    *((cli, f, f"cli.{f.lstrip('_')}") for f in (
        "run_experiment", "analyze", "analyze_rep", "_rep_metrics", "_write_meta")),
]

ANALYSIS_PASSES = ("analysis.compute_ttx", "analysis.component_overheads",
                   "analysis.utilization", "analysis.write_timeline_csv")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.counts = {"events": 0, "heap_peak": 0, "placements": 0,
                       "fd_rejects": 0, "fd_peak": 0, "dvm_live_peak": 0}
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._id(name)
        stack, self_s, total_s, calls = self._stack, self.self_s, self.total_s, self.calls
        sname, sparent = self.span_name, self.span_parent
        sstart, send = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(sname)
            sname.append(nid)
            sparent.append(stack[-1][0] if stack else -1)
            sstart.append(0.0)
            send.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                sstart[idx] = t0
                send[idx] = t1
                d = t1 - t0
                self_s[nid] += d - frame[1]
                total_s[nid] += d
                calls[nid] += 1
                if stack:
                    stack[-1][1] += d

        return wrapper

    def _counters(self) -> list[tuple[object, str, object]]:
        counts = self.counts
        schedule_at = core.Clock.schedule_at
        try_schedule = scheduler.ResourcePool.try_schedule
        acquire = launcher.FdAccountant.acquire
        submit_job = dvm.DvmHandle.submit_job

        def counted_schedule_at(clock, t, fn):
            schedule_at(clock, t, fn)
            counts["events"] += 1
            n = clock.pending()
            if n > counts["heap_peak"]:
                counts["heap_peak"] = n

        def counted_try_schedule(pool, spec):
            slot = try_schedule(pool, spec)
            if slot is not None:
                counts["placements"] += 1
            return slot

        def counted_acquire(fd, n):
            ok = acquire(fd, n)
            if not ok:
                counts["fd_rejects"] += 1
            elif fd.in_use > counts["fd_peak"]:
                counts["fd_peak"] = fd.in_use
            return ok

        def counted_submit_job(handle, *args):
            accepted = submit_job(handle, *args)
            if handle.n_live > counts["dvm_live_peak"]:
                counts["dvm_live_peak"] = handle.n_live
            return accepted

        return [
            (core.Clock, "schedule_at", counted_schedule_at),
            (scheduler.ResourcePool, "try_schedule", counted_try_schedule),
            (launcher.FdAccountant, "acquire", counted_acquire),
            (dvm.DvmHandle, "submit_job", counted_submit_job),
        ]

    def install(self) -> None:
        for owner, attr, fn in self._counters():
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, fn)
        for owner, attr, name in SPANS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._span(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def _calls(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def _total(self, name: str) -> float:
        return self.total_s[self._ids[name]] if name in self._ids else 0.0

    def _self(self, prefix: str) -> float:
        """Self time summed over the spans whose name starts with `prefix`."""
        return sum(v for n, v in zip(self.names, self.self_s) if n.startswith(prefix))

    def _per_call(self, name: str) -> float:
        return self._total(name) / max(1, self._calls(name))

    def layer_metrics(self, log_bytes: int) -> dict[str, float]:
        """Per-layer figures of one traced operation (times in seconds)."""
        c = self.counts
        n_reps = max(1, self._calls("cli.analyze_rep"))
        attempts = self._calls("scheduler.try_schedule")
        loop_s = self._total("core.loop")
        return {
            "core.events_dispatched": c["events"],
            "core.heap_peak": c["heap_peak"],
            "core.events_per_s": c["events"] / loop_s if loop_s else 0.0,
            "core.loop_self_s": self._self("core.loop"),
            "scheduler.attempts": attempts,
            "scheduler.placements": c["placements"],
            "scheduler.place_ratio": c["placements"] / attempts if attempts else 0.0,
            "scheduler.try_schedule_s": self._self("scheduler.try_schedule"),
            "scheduler.unschedule_s": self._self("scheduler.unschedule"),
            "launcher.submits": self._calls("launcher.do_submit"),
            "launcher.completions": self._calls("launcher.do_collect"),
            "launcher.lane_s": self._self("launcher."),
            "launcher.fd_peak": c["fd_peak"],
            "launcher.fd_rejects": c["fd_rejects"],
            "dvm.jobs": self._calls("dvm.submit_job"),
            "dvm.live_peak": c["dvm_live_peak"],
            "dvm.stage_s": self._self("dvm."),
            "profiler.events": self._calls("profiler.record"),
            "profiler.log_bytes": log_bytes,
            "profiler.encode_s": self._self("profiler.encode"),
            "profiler.record_s": self._self("profiler.record"),
            "profiler.load_s": self._per_call("profiler.load"),
            "analysis.passes": sum(map(self._calls, ANALYSIS_PASSES)) / n_reps,
            "analysis.ttx_s": self._total("analysis.compute_ttx") / n_reps,
            "analysis.overheads_s": self._total("analysis.component_overheads") / n_reps,
            "analysis.utilization_s": self._total("analysis.utilization") / n_reps,
            "analysis.timeline_s": self._total("analysis.write_timeline_csv") / n_reps,
            "config.parse_s": self._per_call("config.parse"),
            "pilot.init_s": self._per_call("pilot.init"),
            "cli.analyze_rep_s": self._total("cli.analyze_rep") / n_reps,
            "cli.self_s": self._self("cli."),
        }

    def write_spans(self, path: str) -> None:
        """One CSV row per span: index, parent index, name, start, end (s)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i, (nid, parent, a, b) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                fh.write(f"{i},{parent},{names[nid]},{a - t0:.7f},{b - t0:.7f}\n")
