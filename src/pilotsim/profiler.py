"""Append-only profile log: timestamped lifecycle events from all components.

One event per line, UTF-8, comma separated:

    t_s,entity_kind,entity_id,component,name,attrs

`t_s` is fixed-point with microsecond precision; `attrs` is a
semicolon-separated list of key=value pairs. Reserved characters inside
fields (`,` `;` `=` `%`, anything outside printable ASCII) are percent-encoded
so arbitrary text round-trips. Fields without them are written verbatim: the
bytes are the same as percent-encoding every field.
Producers append in call order; readers sort by timestamp (stable, so
per-producer order survives for equal timestamps).
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional
from urllib.parse import quote, unquote

# entity kinds
PILOT = "Pilot"
TASK = "Task"
DVM_JOB = "DvmJob"

# components
COMP_CLIENT = "Client"
COMP_AGENT = "Agent"
COMP_SCHEDULER = "Scheduler"
COMP_EXECUTOR = "Executor"
COMP_DVM = "Dvm"
COMP_PAYLOAD = "Payload"

# event names used by the runtime
EV_PILOT_START = "pilot_start"
EV_AGENT_READY = "agent_ready"
EV_WORKLOAD_RECEIVED = "workload_received"
EV_BUNDLE_RECEIVED = "bundle_received"
EV_SCHEDULE_OK = "schedule_ok"
EV_SUBMIT = "submit"
EV_RUNNING = "running"
EV_DONE = "done"
EV_TASK_FAIL = "task_fail"
EV_UNSCHEDULE = "unschedule"
EV_DVM_START = "dvm_start"
EV_DVM_CRASH = "dvm_crash"
EV_PILOT_STOP = "pilot_stop"

# PRRTE-style job stage events (entity kind DvmJob)
EV_INIT_COMPLETE = "init_complete"
EV_PENDING_APP_LAUNCH = "pending_app_launch"
EV_SENDING_LAUNCH_MSG = "sending_launch_msg"
EV_NOTIFY_COMPLETE = "notify_complete"

_FIELD_SAFE = " !\"#$&'()*+-./:<>?@[\\]^_`{|}~"  # excludes , ; = % and newlines
# exactly the characters that `_enc` changes: all but printable ASCII, and , ; = %
_RESERVED = re.compile(r"[^\x20-\x24\x26-\x2b\x2d-\x3a\x3c\x3e-\x7e]")
NO_ATTRS: Mapping[str, str] = MappingProxyType({})


def _enc(text: str) -> str:
    return quote(text, safe=_FIELD_SAFE)


class SinkClosed(RuntimeError):
    """Raised when an event is recorded on a closed sink."""


class ProfileParseError(ValueError):
    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


@dataclass(slots=True)
class Event:
    """One profile line; attribute-less events share the read-only `NO_ATTRS`."""
    t_s: float
    entity_kind: str
    entity_id: str
    component: str
    name: str
    # a mapping proxy is unhashable, so dataclass takes it only from a factory
    attrs: Mapping[str, str] = field(default_factory=lambda: NO_ATTRS)

    def encode(self) -> str:
        attrs = self.attrs
        raw = "".join((self.entity_kind, self.entity_id, self.component, self.name,
                       *attrs, *attrs.values()))
        if _RESERVED.search(raw) is None:
            pairs = ";".join([f"{k}={v}" for k, v in attrs.items()])
            return (f"{self.t_s:.6f},{self.entity_kind},{self.entity_id},"
                    f"{self.component},{self.name},{pairs}")
        pairs = ";".join(f"{_enc(k)}={_enc(v)}" for k, v in attrs.items())
        return (
            f"{self.t_s:.6f},{_enc(self.entity_kind)},{_enc(self.entity_id)},"
            f"{_enc(self.component)},{_enc(self.name)},{pairs}"
        )

    @classmethod
    def decode(cls, line: str) -> "Event":
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}")
        t_s = float(parts[0])
        # only a line with a percent sign holds escaped text
        escaped = "%" in line
        attrs: dict[str, str] = {}
        if parts[5]:
            for pair in parts[5].split(";"):
                k, eq, v = pair.partition("=")
                if not eq:
                    raise ValueError(f"bad attr {pair!r}")
                if escaped:
                    k, v = unquote(k), unquote(v)
                attrs[k] = v
        if escaped:
            parts = [unquote(p) for p in parts]
        return cls(t_s, parts[1], parts[2], parts[3], parts[4], attrs or NO_ATTRS)


class EventSink:
    """Buffered event writer that also keeps every event in memory.

    Writes are flushed explicitly at pilot termination. A crash-truncated
    log is detectable by the missing pilot_stop sentinel.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._fh: Optional[io.TextIOWrapper] = None
        if path is not None:
            self._fh = open(path, "w", encoding="utf-8")
        self.events: list[Event] = []
        self._closed = False

    def record(self, event: Event) -> None:
        if self._closed:
            raise SinkClosed("event sink is closed")
        # the log keeps microseconds; rounding here keeps the in-memory
        # events equal to the reloaded ones (the written bytes are the same)
        event.t_s = round(event.t_s, 6)
        if self._fh is not None:
            self._fh.write(event.encode() + "\n")
        self.events.append(event)

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._closed:
            return
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
        self._closed = True


def load_profile(path: str) -> list[Event]:
    """Parse a profile log; returns events sorted by timestamp (stable)."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                events.append(Event.decode(line))
            except ValueError as exc:
                raise ProfileParseError(path, line_no, str(exc)) from exc
    events.sort(key=lambda e: e.t_s)
    return events
