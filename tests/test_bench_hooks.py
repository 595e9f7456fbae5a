"""The benchmark's tracer patches runtime methods by name from outside
(perfbench/trace_layers.py). A refactor that renames or moves one of
them fails here, not in the benchmark."""

import importlib.util
import os

from pilotsim import run_pilot

TRACE_LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "trace_layers.py")


def load_trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_hooks_install_trace_and_uninstall(quick_cfg):
    trace_layers = load_trace_layers()
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _ in trace_layers.SPANS}
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        res = run_pilot(quick_cfg(workload__n_tasks=8), seed=1)
    finally:
        tracer.uninstall()
    assert res.n_done == 8
    m = tracer.layer_metrics(log_bytes=0)
    assert m["scheduler.placements"] == 8
    assert m["launcher.submits"] == 8
    assert m["launcher.completions"] == 8
    assert m["launcher.fd_peak"] > 0
    assert m["dvm.jobs"] == 8
    # the stage events are the only job record: the bench counts what the log holds
    assert m["dvm.jobs"] == sum(e.name == "init_complete" for e in res.events)
    assert m["dvm.live_peak"] > 0
    assert m["profiler.events"] == len(res.events)
    assert m["core.events_dispatched"] > 0
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} not restored"
