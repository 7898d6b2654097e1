"""The benchmark's tracer contract: every name that qbench/tracer.py hooks
still exists and is called, so a traced run reports every per-layer metric,
and each workload's operations pass their correctness gates under the
tracer.  Reads qbench/ and changes nothing there."""

import importlib.util
import sys
from pathlib import Path

QBENCH = Path(__file__).resolve().parent.parent / "qbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"qbench_{name}", QBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_workloads_report_every_metric():
    tracer_mod, workloads = _load("tracer"), _load("workloads")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for cls in (workloads.Glv128, workloads.Info128, workloads.OracleSweep):
            w = cls(7)
            w.setup()
            for i in range(w.block):
                _, ok = w.op(i)
                assert ok, (w.name, i)
    finally:
        tracer.uninstall()
    assert tracer.absent_metrics() == set()
