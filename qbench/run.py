#!/usr/bin/env python3
"""The qcurve benchmark: one workload per run, untraced or traced.

Run from the repository root:

    python3 qbench/run.py --workload glv-128 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the calls
into each qcurve module and reports per-layer metrics instead.  Metric names
and units come from BENCHMARK.json.  Human-readable lines come first; the
last line of standard output is the JSON result.  See qbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_INTERVAL_S = 1.0  # untraced runs set up again at most this often
SETUP_SLOT_S = 0.01  # each set-up slot repeats set-up for at least this long
REFERENCE_SHARE = 0.1  # reference kernel time after each operation, as a share of it
MAX_REPORTED_FAILURES = 5

perf = time.perf_counter

# Per-layer span times: metric -> (span name, inclusive or self time).
SPAN_METRICS = {
    "weierstrass.mul.s": ("weierstrass.mul", "incl"),
    "weierstrass.oracle.s": ("weierstrass.oracle", "incl"),
    "weierstrass.random_point.s": ("weierstrass.random_point", "incl"),
    "isogeny.eval.s": ("isogeny.eval", "incl"),
    "isogeny.velu.s": ("isogeny.velu", "incl"),
    "families.build.s": ("families.build", "incl"),
    "families.psi.s": ("families.psi", "self"),
    "families.determine_r.s": ("families.determine_r", "self"),
    "glv.decompose.s": ("glv.decompose", "incl"),
    "glv.multiexp2.s": ("glv.multiexp2", "incl"),
    "glv.basis.s": ("glv.basis", "incl"),
    "cli.factor_string.s": ("cli.factor_string", "incl"),
    "cli.self.s": ("cli.main", "self"),
    "cmtables.detect_cm.s": ("cmtables.detect_cm", "incl"),
}
COUNT_METRICS = (
    "fields.fp2_mul.count",
    "fields.fp2_sqr.count",
    "fields.fp2_mul_int.count",
    "fields.fp2_inv.count",
    "fields.fp2_sqrt.count",
    "weierstrass.dbl.count",
    "weierstrass.add.count",
    "isogeny.eval.count",
    "families.determine_r.points",
    "glv.multiexp2.bits",
)
# Layers that do work during set-up; reported for one traced set-up pass.
SETUP_METRICS = (
    "families.build.s",
    "families.determine_r.s",
    "isogeny.velu.s",
    "glv.basis.s",
    "weierstrass.mul.s",
    "weierstrass.random_point.s",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": nproc,
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(ROOT / ".git"),
    }


def git_commit(git: Path) -> str:
    """The checked-out commit, read from the .git directory if there is one."""
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs checked operations and keeps the attempted/failed tally."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, w, i):
        """Operation i of workload w; its timings, or None if it failed."""
        self.attempted += 1
        try:
            times, ok = w.op(i)
        except Exception:  # a failing operation is a result to count, not a crash
            self._fail(w, i, traceback.format_exc())
            return None
        if not ok:
            self._fail(w, i, "output failed the correctness check\n")
            return None
        return times

    def _fail(self, w, i, detail):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            sys.stderr.write(f"{w.name}: operation {i} failed: {detail}")


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it (nearest rank); the maximum if there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_untraced(w, seconds, runner, emit):
    """Run operations 0, 1, 2, ... until the time is up.  After each one,
    time the reference kernel; at least every SETUP_INTERVAL_S, set up
    again."""
    setup_times = []
    samples = defaultdict(list)  # series -> operation times
    refs = []  # reference kernel ms after each successful operation
    last_setup = -SETUP_INTERVAL_S
    i = 0
    deadline = perf() + seconds
    while i == 0 or perf() < deadline:
        if perf() - last_setup >= SETUP_INTERVAL_S:
            slot_end = perf() + SETUP_SLOT_S
            while True:
                t0 = perf()
                w.setup()
                setup_times.append(perf() - t0)
                if perf() >= slot_end:
                    break
            last_setup = perf()
        t0 = perf()
        times = runner.op(w, i)
        ref_ms = reference_ms(REFERENCE_SHARE * (perf() - t0))
        i += 1
        if times is not None:
            refs.append(ref_ms)
            for key, value in times.items():
                samples[key].append(value)
    if w.primary not in samples:
        return {}
    costs = {}
    for key, values in samples.items():
        name, unit = key.rsplit("_", 1)
        to_ms = 1e-3 if unit == "us" else 1.0
        costs[key] = [v * to_ms / r for v, r in zip(values, refs)]
        for label, series, u in ((key, values, unit), (f"{name}.cost", costs[key], "ref")):
            value, pct = tail(series)
            emit(f"{label}.p50", statistics.median(series), u, f"n={len(series)}")
            emit(f"{label}.tail", value, u, f"p{pct:.1f} of n={len(series)}")
    primary = samples[w.primary]
    emit(w.rate, 1e3 * len(primary) / sum(primary), "1/s", "operations per second of operation time")
    emit("reference_kernel_ms.p50", statistics.median(refs), "ms", f"n={len(refs)}")
    setup_s = statistics.median(setup_times)
    emit("setup_s", setup_s, "s", f"median of {len(setup_times)} set-ups")
    emit("fail_ratio", runner.failed / runner.attempted, "ratio",
         f"{runner.failed} of {runner.attempted}")
    return {
        "op_cost.p50": statistics.median(costs[w.primary]),
        "op_cost.mean": sum(primary) / sum(refs),
        "setup_s": setup_s,
    }


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 1009

    def mul(self, other):
        return _Cell(self.v * other.v)


def reference_kernel():
    """Fixed pure-Python work, independent of qcurve, in three parts like
    the library's three kinds of hot loop: 127-bit modular multiplication,
    a big integer divided by small ones, and small-object churn.  Changing
    it changes every op_cost figure."""
    p = 2**127 - 1
    x, y = 3, 5
    for i in range(150):
        x = (x * y + i) % p
        y = (y * y + x) % p
    hits = 0
    for q in range(3, 1500, 2):
        if x % q == 0:
            hits += 1
    c, d = _Cell(7), _Cell(11)
    for _ in range(150):
        c = c.mul(d)
        d = d.mul(c)
    return hits + c.v + d.v


def reference_ms(min_seconds: float) -> float:
    """Mean milliseconds per reference kernel, over at least one run and at
    least min_seconds."""
    n = 0
    t0 = perf()
    while True:
        reference_kernel()
        n += 1
        elapsed = perf() - t0
        if elapsed >= min_seconds:
            return elapsed * 1e3 / n


def fp2_unit_ns(p: int) -> tuple[float, float]:
    """Best-of-5 nanoseconds per Fp2 mul and per Fp2 inverse on random
    operands in F_p(sqrt(-1)), loop step included."""
    from qcurve import fields

    ctx = fields.FieldCtx(p, -1)
    rng = random.Random(p)
    xs = [fields.Fp2(ctx, rng.randrange(1, p), rng.randrange(p)) for _ in range(65)]
    pairs = list(zip(xs, xs[1:]))
    best_mul = best_inv = float("inf")
    for _ in range(5):
        t0 = perf()
        for _ in range(100):
            for x, y in pairs:
                x * y
        best_mul = min(best_mul, (perf() - t0) / (100 * len(pairs)))
        t0 = perf()
        for _ in range(10):
            for x in xs:
                x.inverse()
        best_inv = min(best_inv, (perf() - t0) / (10 * len(xs)))
    return best_mul * 1e9, best_inv * 1e9


def span_values(tracer, names, per):
    out = {}
    for metric in names:
        span, kind = SPAN_METRICS[metric]
        table = tracer.incl if kind == "incl" else tracer.self_time
        out[metric] = table.get(span, 0.0) / per
    return out


def run_traced(w, seconds, runner, emit):
    from tracer import Tracer
    from workloads import Glv128

    tracer = Tracer()
    tracer.install()
    try:
        w.setup()
    finally:
        tracer.uninstall()
    metrics = {f"setup.{k}": v for k, v in span_values(tracer, SETUP_METRICS, 1).items()}
    tracer.reset()

    units = [fp2_unit_ns(p) for p in w.field_primes]
    metrics["fields.fp2_mul.ns"] = statistics.median(u[0] for u in units)
    metrics["fields.fp2_inv.ns"] = statistics.median(u[1] for u in units)

    # Alternate an untraced and a traced pass over the same fixed block of
    # operations: counts per operation do not depend on how many blocks fit.
    block = range(w.block)
    plain_s = traced_s = 0.0
    blocks = 0
    deadline = perf() + seconds
    while blocks == 0 or perf() < deadline:
        t0 = perf()
        for i in block:
            runner.op(w, i)
        t1 = perf()
        tracer.install()
        try:
            for i in block:
                runner.op(w, i)
        finally:
            tracer.uninstall()
        traced_s += perf() - t1
        plain_s += t1 - t0
        blocks += 1
    n_ops = blocks * w.block
    metrics.update(span_values(tracer, SPAN_METRICS, n_ops))
    for metric in COUNT_METRICS:
        metrics[metric] = tracer.counts.get(metric, 0) / n_ops
    metrics["trace.overhead"] = traced_s / plain_s
    emit("traced blocks", blocks, "", f"{w.block} operations each")

    # The GLV/plain figures describe the glv layer on the 128-bit instances,
    # so every workload measures them on the same fixed glv-128 block.
    probe = w
    if not isinstance(w, Glv128):
        probe = Glv128(w.seed)
        probe.setup()
    plain, fast = [], []
    for i in range(probe.block):
        times = runner.op(probe, i)
        if times is not None:
            plain.append(times["plain_mul_ms"])
            fast.append(times["glv_mul_ms"])
    tracer.reset()
    tracer.install()
    try:
        for i in range(probe.block):
            runner.op(probe, i)
    finally:
        tracer.uninstall()
    if plain:
        metrics["glv.speedup.time"] = statistics.median(plain) / statistics.median(fast)
    plain_ops = tracer.counts.get("weierstrass.mul.groupops", 0)
    glv_ops = tracer.counts.get("glv.multiexp2.groupops", 0)
    if plain_ops and glv_ops:
        metrics["glv.speedup.groupops"] = plain_ops / glv_ops

    absent = tracer.absent_metrics()
    return {k: v for k, v in metrics.items() if k not in absent}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcurve" / "__init__.py").is_file():
        print(f"qbench: no qcurve sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcurve

    if Path(qcurve.__file__).resolve().parent != (SRC / "qcurve").resolve():
        print(f"qbench: imported qcurve from {qcurve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"qbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    def emit(name, value, unit, note=""):
        print(f"{name:32} {value:14.6g} {unit:8} {note}".rstrip(), flush=True)

    print(f"qbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    w = WORKLOADS[args.workload](args.seed)
    runner = Runner()
    run = run_traced if args.trace else run_untraced
    values = run(w, args.seconds, runner, emit)

    if args.trace:
        for name in units:
            if name in values:
                emit(name, values[name], units[name])
        absent = [name for name in units if name not in values]
        if absent:
            print("absent " + " ".join(absent))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
