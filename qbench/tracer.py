"""Per-layer tracing by wrapping the calls into each qcurve module.

Nothing under ``src/`` is changed: ``Tracer.install`` replaces functions and
methods with wrappers at run time and ``Tracer.uninstall`` puts the originals
back.  A module-level function is replaced under every name that any
``qcurve`` module binds it to, so ``from .families import determine_r`` in
the CLI sees the wrapper too.

Two kinds of wrapper are used:

* a *span* times a call; it records inclusive time (outermost call of that
  span name only, so recursion or nesting of one name is not counted twice)
  and self time (minus the time of the spans it directly encloses);
* a *counter* counts calls and takes no timestamps, for the field and group
  operations that run hundreds of thousands of times.

A hook whose target no longer exists leaves its metrics absent.  Hooks on
private names (``Curve._add``) also leave their metrics absent when the
target was never called during the whole traced run, because a later change
may keep the name while routing the work elsewhere.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

GROUP_OP_METRICS = ("weierstrass.dbl.count", "weierstrass.add.count")


class Tracer:
    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.called: set[str] = set()  # private hooks seen over the tracer's life
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self):
        """Zero the counters and timers; absent and called hooks persist."""
        self.counts.clear()
        self.incl.clear()
        self.self_time.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_call=None):
        depth, stack = self._depth, self._stack
        incl, self_time = self.incl, self.self_time
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            depth[name] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_time[name] += dt - stack.pop()
                depth[name] -= 1
                if not depth[name]:
                    incl[name] += dt
                if stack:
                    stack[-1] += dt

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fp2_mul(self, fn):
        counts = self.counts

        def wrapper(a, b):
            if b is a:
                counts["fields.fp2_sqr.count"] += 1
            elif type(b) is int:
                counts["fields.fp2_mul_int.count"] += 1
            else:
                counts["fields.fp2_mul.count"] += 1
            return fn(a, b)

        return wrapper

    def _group_op(self, fn):
        counts, depth, called = self.counts, self._depth, self.called

        def wrapper(curve, P, Q):
            counts["weierstrass.dbl.count" if P is Q else "weierstrass.add.count"] += 1
            # Attribute the group operation to the loop that issued it, for
            # the GLV/plain ratio in group operations.
            if depth["glv.multiexp2"]:
                counts["glv.multiexp2.groupops"] += 1
            elif depth["weierstrass.mul"]:
                counts["weierstrass.mul.groupops"] += 1
            called.add("weierstrass._add")
            return fn(curve, P, Q)

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, make, metrics):
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.update(metrics)
            return
        wrapper = make(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == "qcurve" or mod_name.startswith("qcurve."))
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for target, key in targets:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, wrapper)

    def install(self):
        from qcurve import cli, cmtables, families, fields, glv, isogeny, weierstrass

        if self._undo:
            raise RuntimeError("tracer is already installed")
        Fp2 = getattr(fields, "Fp2", None)
        Curve = getattr(weierstrass, "Curve", None)
        Isogeny = getattr(isogeny, "Isogeny", None)
        Endo = getattr(families, "Endo", None)
        field_counts = (
            "fields.fp2_mul.count",
            "fields.fp2_sqr.count",
            "fields.fp2_mul_int.count",
        )
        span = self._span
        patch = self._patch

        patch(Fp2, "__mul__", self._fp2_mul, field_counts)
        patch(Fp2, "__rmul__", self._fp2_mul, field_counts)
        patch(Fp2, "inverse", lambda f: self._counter("fields.fp2_inv.count", f), ["fields.fp2_inv.count"])
        patch(Fp2, "sqrt", lambda f: self._counter("fields.fp2_sqrt.count", f), ["fields.fp2_sqrt.count"])

        patch(Curve, "_add", self._group_op, GROUP_OP_METRICS)
        patch(Curve, "mul", lambda f: span("weierstrass.mul", f), ["weierstrass.mul.s"])
        for name in ("oracle_trace", "oracle_order", "curve_points"):
            patch(weierstrass, name, lambda f: span("weierstrass.oracle", f), ["weierstrass.oracle.s"])
        patch(weierstrass, "random_point", lambda f: span("weierstrass.random_point", f), ["weierstrass.random_point.s"])

        def count_eval(args):
            self.counts["isogeny.eval.count"] += 1

        patch(Isogeny, "raw_maps", lambda f: span("isogeny.eval", f, count_eval), ["isogeny.eval.s", "isogeny.eval.count"])
        patch(isogeny, "velu_quotient", lambda f: span("isogeny.velu", f), ["isogeny.velu.s"])

        def count_r_point(args):
            if self._depth["families.determine_r"]:
                self.counts["families.determine_r.points"] += 1

        patch(families, "build_family_curve", lambda f: span("families.build", f), ["families.build.s"])
        patch(Endo, "__call__", lambda f: span("families.psi", f, count_r_point), ["families.psi.s", "families.determine_r.points"])
        patch(families, "determine_r", lambda f: span("families.determine_r", f), ["families.determine_r.s"])

        def count_bits(args):
            a, b = args[0], args[1]
            self.counts["glv.multiexp2.bits"] += max(abs(a).bit_length(), abs(b).bit_length())

        patch(glv, "decompose", lambda f: span("glv.decompose", f), ["glv.decompose.s"])
        patch(glv, "multiexp2", lambda f: span("glv.multiexp2", f, count_bits), ["glv.multiexp2.s", "glv.multiexp2.bits"])
        for name in ("cofactor_basis", "reduced_lattice_basis"):
            patch(glv, name, lambda f: span("glv.basis", f), ["glv.basis.s"])

        patch(cli, "main", lambda f: span("cli.main", f), ["cli.self.s"])
        patch(cli, "factor_string", lambda f: span("cli.factor_string", f), ["cli.factor_string.s"])
        patch(cmtables, "detect_cm", lambda f: span("cmtables.detect_cm", f), ["cmtables.detect_cm.s"])

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def absent_metrics(self) -> set[str]:
        """Metrics to leave out: missing hook targets, and private hooks
        that were never called."""
        absent = set(self.absent)
        if "weierstrass._add" not in self.called:
            absent.update(GROUP_OP_METRICS)
        return absent
