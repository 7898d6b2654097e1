"""The three workloads, all closed-loop with one caller in one thread.

Each workload draws its inputs from the seed, builds its state in
``setup()`` (which may run several times), and runs operation ``i`` with
``op(i)``, which returns the operation's timings and whether its output
passed the workload's correctness gate.  Operation ``i`` has the same inputs
in every run with the same seed.  The library is called through module
attributes (``families.determine_r``) so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass

from qcurve import cli, families, fields, glv, weierstrass

perf = time.perf_counter

P127 = 2**127 - 1


@dataclass(frozen=True)
class Instance:
    """A curve from the paper at p = 2^127 - 1 over F_p(sqrt(-1))."""

    d: int
    s: int
    trace: int  # published trace of Frobenius over F_{p^2}
    cofactor: int
    variant: str  # basis variant the CLI reports for this group structure


INSTANCES = (
    Instance(2, 28106, -272082382382015736940757543628153813996, 2, "cofactor2_d2"),
    Instance(5, 7930, 160084314926568661653252069280514036151, 1, "prime_order"),
)


@dataclass
class Built:
    inst: Instance
    fam: object
    endo: object
    r: int
    n: int  # order of the cyclic subgroup the decomposition works in
    lam: int
    basis: object
    points: list


def _base_point(curve, cofactor, seed):
    """A point of the order-n subgroup: a hash-derived point, cofactor cleared."""
    while True:
        P = curve.mul(cofactor, weierstrass.random_point(curve, seed))
        if not P.is_infinity:
            return P
        seed += 1


def build_instance(inst: Instance, point_seeds=()) -> Built:
    """Curve, endomorphism, r, eigenvalue, basis and base points: the set-up a
    user pays once per curve before multiplying on it."""
    ctx = fields.FieldCtx(P127, -1)
    fam = families.build_family_curve(inst.d, ctx, inst.s)
    endo = families.Endo(fam)
    r = families.determine_r(endo, inst.trace)
    order, _ = families.group_orders(endo, r)
    n = order // inst.cofactor
    lam = families.eigenvalue(endo, r, n)
    basis = glv.cofactor_basis(inst.variant, P127, endo.eps, inst.d, r, n, lam)
    points = [_base_point(fam.curve, inst.cofactor, s) for s in point_seeds]
    return Built(inst, fam, endo, r, n, lam, basis, points)


class Glv128:
    """[m]P on both paper instances, by Curve.mul and by decompose + psi +
    multiexp2; the two results must be equal."""

    name = "glv-128"
    primary = "glv_mul_ms"
    rate = "glv_mul_per_s"
    block = 16  # inputs: 4 scalars on each of 2 base points per instance
    field_primes = (P127,)

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.point_seeds = [[rng.randrange(1 << 32) for _ in range(2)] for _ in INSTANCES]

    def setup(self):
        self.built = [build_instance(inst, seeds) for inst, seeds in zip(INSTANCES, self.point_seeds)]

    def op(self, i: int):
        b = self.built[i % 2]
        P = b.points[(i // 2) % len(b.points)]
        m = random.Random(f"{self.name}:{self.seed}:{i}").randrange(b.n)
        curve = b.fam.curve
        t0 = perf()
        dec = glv.decompose(m, b.basis)
        t1 = perf()
        Q = glv.multiexp2(dec.a, dec.b, P, b.endo(P), curve)
        t2 = perf()
        R = curve.mul(m, P)
        t3 = perf()
        times = {
            "glv_mul_ms": (t2 - t0) * 1e3,
            "plain_mul_ms": (t3 - t2) * 1e3,
            "decompose_us": (t1 - t0) * 1e6,
        }
        return times, Q == R


class Info128:
    """In-process ``qcurve info`` on both paper instances with their
    published traces; each record is checked field by field."""

    name = "info-128"
    primary = "info_ms"
    rate = "info_per_s"
    block = 2
    field_primes = (P127,)

    def __init__(self, seed: int):
        self.seed = seed
        self.argv = [
            ["info", "--d", str(x.d), "--p", str(P127), "--delta", "-1", "--s", str(x.s),
             "--trace", str(x.trace), "--json"]
            for x in INSTANCES
        ]

    def setup(self):
        # The library's own answers, for cross-checking the front end.
        self.built = [build_instance(inst) for inst in INSTANCES]

    def _instance(self, i: int) -> int:
        # Each pair of calls covers both instances; the seed sets the order.
        first = random.Random(f"{self.name}:{self.seed}:{i // 2}").randrange(2)
        return first ^ (i % 2)

    def op(self, i: int):
        k = self._instance(i)
        out = io.StringIO()
        t0 = perf()
        with contextlib.redirect_stdout(out):
            rc = cli.main(self.argv[k])
        t1 = perf()
        return {"info_ms": (t1 - t0) * 1e3}, rc == 0 and _info_ok(out.getvalue(), self.built[k])


def _info_ok(text: str, b: Built) -> bool:
    rec = json.loads(text.splitlines()[-1])
    inst, p, t = b.inst, P127, b.inst.trace
    eps, r, n, lam = rec["eps"], rec["r"], rec["subgroup_order"], rec["lambda"]
    return (
        rec["status"] == "ok"
        and r == b.r
        and inst.d * r * r == 2 * p + eps * t
        and rec["order"] == p * p + 1 - t
        and rec["twist_order"] == p * p + 1 + t
        and n == b.n
        and lam == b.lam
        and lam * lam % n == inst.d % n
        and lam * r % n == (p + eps) % n
        and rec["basis_variant"] == inst.variant
    )


SWEEP_PRIMES = (11, 19, 23)  # all 3 mod 4, so delta = -1 and d = 5 applies
SWEEP_DEGREES = (2, 3, 5, 7)


def excluded(d: int, p: int, s: int) -> bool:
    """Parameters the family definitions exclude (delta = -1): d = 5 needs
    s not in {0, 2/11}; d = 7 needs s^2 * delta != -27."""
    if d == 5:
        return s == 0 or (11 * s - 2) % p == 0
    if d == 7:
        return (27 - s * s) % p == 0
    return False


class OracleSweep:
    """The ``qcurve search`` pipeline on family members at small primes: build
    the curve, count points by brute force, fix r, derive the group orders."""

    name = "oracle-sweep"
    primary = "sweep_curve_ms"
    rate = "sweep_curves_per_s"
    block = 2 * len(SWEEP_PRIMES) * len(SWEEP_DEGREES)  # two members per cell
    field_primes = SWEEP_PRIMES

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        self.ctx = {p: fields.FieldCtx(p, -1) for p in SWEEP_PRIMES}
        self.cells = [(d, p) for p in SWEEP_PRIMES for d in SWEEP_DEGREES]
        rng.shuffle(self.cells)
        # Operations cycle through the cells; the k-th visit to a cell takes
        # the k-th member of a seeded permutation of its admissible s.
        self.members = {}
        for d, p in self.cells:
            ss = [s for s in range(p) if not excluded(d, p, s)]
            rng.shuffle(ss)
            self.members[d, p] = ss

    def op(self, i: int):
        d, p = self.cells[i % len(self.cells)]
        ss = self.members[d, p]
        s = ss[(i // len(self.cells)) % len(ss)]
        t0 = perf()
        fam = families.build_family_curve(d, self.ctx[p], s)
        endo = families.Endo(fam)
        trace = weierstrass.oracle_trace(fam.curve)
        r = families.determine_r(endo, trace)
        order, twist = families.group_orders(endo, r)
        t1 = perf()
        q = p * p + 1
        return {"sweep_curve_ms": (t1 - t0) * 1e3}, order == q - trace and order + twist == 2 * q


WORKLOADS = {w.name: w for w in (Glv128, Info128, OracleSweep)}
