"""The benchmark's contracts: every name that qbench/tracer.py hooks still
exists and is called, so a traced run reports every per-layer metric, each
workload's operations pass their correctness gates under the tracer, and a
short run of qbench/run.py ends with its JSON result.  Reads qbench/ and
changes nothing there."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QBENCH = ROOT / "qbench"


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


def _strict_json(line):
    """The JSON value of line, with NaN and Infinity rejected: json.loads
    takes them by default, but they are not JSON and no metric."""

    def reject(token):
        raise ValueError(f"non-standard number {token} in the result line")

    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["glv-128", "info-128", "oracle-sweep"])
def test_run_ends_with_its_result(workload, trace):
    """The last line of standard output is the result, in strict JSON, so
    nothing the library prints may follow or replace it.  An untraced run
    reports every end-to-end metric, a traced one every per-layer metric,
    each a finite number."""
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, str(QBENCH / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = _strict_json(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]), name
    assert not any(line.startswith("absent") for line in lines), proc.stdout
