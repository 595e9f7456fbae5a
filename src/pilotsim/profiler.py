"""Append-only profile log: timestamped lifecycle events from all components.

One event per line, UTF-8, comma separated:

    t_s,entity_kind,entity_id,component,name,attrs

`t_s` is fixed-point with microsecond precision; `attrs` is a
semicolon-separated list of key=value pieces with one `=` each. Every
field is written verbatim, so the log has one alphabet: printable ASCII
without `,` `;` `=` `%`. The runtime passes only such text (module
constants, ids formatted from ints, formatted numbers, enum values, slot
texts), and `Event.encode` rejects any other. There is no escape: a line
holding a `%` is an error. Producers append in call order; readers sort by
timestamp (stable, so per-producer order survives for equal timestamps).

The text is the only copy of a run's events: the sink formats each event
from its fields, and `EventSink.events` decodes a line only when it is read.
"""

from __future__ import annotations

import io
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, count, islice, starmap
from operator import attrgetter
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Union

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

# a character off the log's alphabet: all but printable ASCII, and , ; = %
_RESERVED = re.compile(r"[^\x20-\x24\x26-\x2b\x2d-\x3a\x3c\x3e-\x7e]")
# a lone surrogate: how `LogEvents.blocks` reads a byte that is not UTF-8
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
NO_ATTRS: Mapping[str, str] = MappingProxyType({})
# characters of log text a reader takes at a time before ending the line
BLOCK_CHARS = 1 << 18


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
    """One profile line, decoded; attribute-less events share the read-only
    `NO_ATTRS`. `encode` is the reference encoding, and `EventSink.record`
    writes the same bytes."""
    t_s: float
    entity_kind: str
    entity_id: str
    component: str
    name: str
    # a mapping proxy is unhashable, so dataclass takes it only from a factory
    attrs: Mapping[str, str] = field(default_factory=lambda: NO_ATTRS)

    def encode(self) -> str:
        """The event's line, every field verbatim; a field off the log's
        alphabet raises ValueError naming it."""
        for what, text in (("entity_kind", self.entity_kind), ("entity_id", self.entity_id),
                           ("component", self.component), ("name", self.name),
                           *(("attribute key", k) for k in self.attrs),
                           *((f"attribute {k!r}", v) for k, v in self.attrs.items())):
            if _RESERVED.search(text):
                raise ValueError(f"{what} {text!r} is off the log alphabet")
        pairs = ";".join(map("=".join, self.attrs.items()))
        return (f"{self.t_s:.6f},{self.entity_kind},{self.entity_id},"
                f"{self.component},{self.name},{pairs}")

    @classmethod
    def decode(cls, line: str) -> "Event":
        if "%" in line:
            raise ValueError("'%' is off the log alphabet")
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}")
        t_s = float(parts[0])
        if not math.isfinite(t_s):
            raise ValueError(f"time {parts[0]!r} is not finite")
        attrs: dict[str, str] = {}
        if parts[5]:
            for pair in parts[5].split(";"):
                k, eq, v = pair.partition("=")
                if not eq or "=" in v:  # a piece holds exactly one "="
                    raise ValueError(f"bad attr {pair!r}")
                attrs[k] = v
        return cls(t_s, parts[1], parts[2], parts[3], parts[4], attrs or NO_ATTRS)


class LogEvents(Sequence):
    """A profile log's events in record order, read afresh from the text
    on every use: no line is kept, and a line is decoded only when it is
    read, so `len()` decodes none and `[-1]` decodes one. The log's
    alphabet holds no line break, so a newline is the only one. A bad line
    raises a `ProfileParseError` naming it and the log: its path, or
    "<events>" for a sink's in-memory text."""

    def __init__(self, source: Union[str, io.StringIO]):
        self._source = source  # a log path, or a sink's in-memory text
        self.name = source if isinstance(source, str) else "<events>"  # what errors name

    def blocks(self) -> Iterator[str]:
        """The log text in blocks of whole lines, of about `BLOCK_CHARS`
        characters each, read afresh: no line is cached or decoded. A byte
        that is not UTF-8 is read as the lone surrogate that escapes it."""
        if isinstance(self._source, str):
            with open(self._source, "r", encoding="utf-8", errors="surrogateescape") as fh:
                yield from iter(lambda: fh.read(BLOCK_CHARS) + fh.readline(), "")
            return
        text, start = self._source.getvalue(), 0
        while start < len(text):
            end = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
            yield text[start:end]
            start = end

    def numbered(self) -> Iterator[tuple[int, str]]:
        """(line number, line) of each line that is not blank, split at a
        newline alone and counted from 1 with the blank lines; none is
        cached or decoded. A line that is not UTF-8 raises a
        `ProfileParseError` naming it, after the lines before it."""
        start = 1
        for block in self.blocks():
            lines = block.split("\n")
            if not block.isascii() and (bad := _NOT_UTF8.search(block)):
                k = block.count("\n", 0, bad.start())  # the bad line's index in the block
                yield from compress(zip(count(start), lines[:k]), lines[:k])
                try:
                    lines[k].encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ProfileParseError(self.name, start + k, str(exc)) from exc
            yield from compress(zip(count(start), lines), lines)
            start += len(lines) - 1

    def _decode(self, line_no: int, line: str) -> Event:
        try:
            return Event.decode(line)
        except ValueError as exc:
            raise ProfileParseError(self.name, line_no, str(exc)) from exc

    def __iter__(self) -> Iterator[Event]:
        return starmap(self._decode, self.numbered())

    def __len__(self) -> int:
        return sum(1 for _ in self.numbered())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(len(self))[i]  # from the front; IndexError when out of range
        return self._decode(*next(islice(self.numbered(), i, None)))


class EventSink:
    """Buffered profile-log writer; the written text is the only copy of
    the events. Without a path the lines go to an in-memory buffer.

    The run closes the sink when its loop ends, normally or by an error, so
    an aborted run's log holds every line recorded, without pilot_stop.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._fh = io.StringIO() if path is None else open(path, "w", encoding="utf-8")
        self._closed = False

    def record(self, t: float, kind: str, uid: str, comp: str, name: str,
               pairs: str = "") -> None:
        """Append one event as a line, every field verbatim: `pairs` is the
        attribute text already joined as `k=v;k=v` ("" for none), and the
        caller passes only text of the log's alphabet, which nothing here
        checks. The log keeps microseconds, and `f"{t:.6f}"` writes the
        same text as rounding `t` to them first."""
        if self._closed:
            raise SinkClosed("event sink is closed")
        self._fh.write(f"{t:.6f},{kind},{uid},{comp},{name},{pairs}\n")

    @property
    def events(self) -> LogEvents:
        """The recorded events, read back from the text when first used."""
        self.flush()
        return LogEvents(self.path if self.path is not None else self._fh)

    def flush(self) -> None:
        if not self._closed:
            self._fh.flush()

    def close(self) -> None:
        if self._closed:
            return
        if self.path is not None:  # the in-memory text stays readable
            self._fh.close()
        self._closed = True


def load_profile(path: str) -> list[Event]:
    """A saved profile log's events sorted by timestamp (stable); its first
    bad line raises a `ProfileParseError` naming it."""
    return sorted(LogEvents(path), key=attrgetter("t_s"))
