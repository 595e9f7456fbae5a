"""Output checks for one benchmark operation.

Each check returns a list of error strings; an empty list means it
passed. They read only the run's own outputs, so they can be fed a
damaged log or wrong counts (see selftest.py).
"""

from __future__ import annotations

import hashlib

# The profile log stores timestamps with microsecond resolution, so a
# summary recomputed from the saved log may differ from the in-memory
# one by up to one resolution step per timestamp it depends on.
TS_RESOLUTION_S = 1e-6
PCT_STEPS = 4


def check_counts(wl, n_done: int, n_failed: int, failures: dict[str, int]) -> list[str]:
    errors = []
    if n_done + n_failed != wl.n_tasks:
        errors.append(f"n_done {n_done} + n_failed {n_failed} != n_tasks {wl.n_tasks}")
    if n_done != wl.n_done:
        errors.append(f"n_done {n_done}, expected {wl.n_done}")
    if failures != wl.failures:
        errors.append(f"failures {failures}, expected {wl.failures}")
    return errors


def check_log_end(log_path: str) -> list[str]:
    """The last line of the log must be the pilot_stop sentinel."""
    with open(log_path, "rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 4096))
        tail = fh.read().decode("utf-8", errors="replace")
    if not tail.endswith("\n"):
        return ["profile.log does not end with a complete line"]
    last = tail.rstrip("\n").rsplit("\n", 1)[-1]
    fields = last.split(",")
    if len(fields) != 6 or fields[4] != "pilot_stop":
        return [f"profile.log ends with {last[:80]!r}, not pilot_stop"]
    return []


def summary_deviation(ran: dict[str, float], reloaded: dict[str, float],
                      window_s: float) -> tuple[float, list[str]]:
    """Largest run-vs-reload difference of the summary metrics, in seconds.

    Counts must match exactly. A time metric is a difference of two logged
    timestamps, each rounded by at most half a resolution step, so it may
    move by one step. A percentage is turned into seconds of one resource
    unit (pct / 100 * window_s); a unit's category time adds up to a few
    segment boundaries, so it may move by `PCT_STEPS` steps.
    """
    errors = []
    if ran.keys() != reloaded.keys():
        return float("inf"), [f"summary keys differ: {sorted(ran)} vs {sorted(reloaded)}"]
    worst = 0.0
    for key, a in ran.items():
        b = reloaded[key]
        if key.startswith("n_"):
            if a != b:
                errors.append(f"{key}: run {a} != reload {b}")
            continue
        pct = key.endswith("_pct")
        dev = abs(a - b) * (window_s / 100.0 if pct else 1.0)
        worst = max(worst, dev)
        if dev > (PCT_STEPS if pct else 1) * TS_RESOLUTION_S:
            errors.append(f"{key}: run {a!r} vs reload {b!r} differ by {dev:.3g} s")
    return worst, errors


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
