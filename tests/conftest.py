import functools
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings

from qcurve import weierstrass
from qcurve.fields import FieldCtx, Fp2, legendre
from qcurve.isogeny import poly_eval
from qcurve.selftest import _ctx as ctx_for
from qcurve.weierstrass import INFINITY, Curve, Point, _madd

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

MERSENNE_127 = 2**127 - 1


# One member of each degree at the smallest prime where the family exists,
# and its quadratic twist; the p = 5 curves have 24 or 28 points, so every
# pair of points is affordable there.  The twist is the curve of psi'.
SMALL_MEMBERS = [(2, 5, 1), (3, 5, 2), (5, 7, 5), (7, 11, 1)]
SMALL_CURVES = [
    pytest.param(d, p, s, twisted, id=f"d{d}-p{p}{'-twist' if twisted else ''}")
    for d, p, s in SMALL_MEMBERS
    for twisted in (False, True)
]


def prime_factors(n: int) -> set[int]:
    """The distinct prime factors of n, by trial division."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# An independent schoolbook reference for the polynomial kernel of
# qcurve.isogeny: polynomials here are ascending tuples of Fp2 with no zero
# top coefficient, and every operation is plain Fp2 arithmetic.


def ref_trim(cs) -> tuple[Fp2, ...]:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    return ref_trim([c + d for c, d in zip(f, g)] + list(f[len(g):]))


def ref_sub(f, g):
    return ref_add(f, tuple(-c for c in g))


def ref_mul(f, g):
    """The schoolbook product: the x^k coefficient is the sum of f_i g_(k-i)."""
    if not f or not g:
        return ()
    return ref_trim(
        sum((f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)), f[0].ctx.zero())
        for k in range(len(f) + len(g) - 1)
    )


def ref_rem(f, m):
    """f modulo any nonzero m, by long division with m's leading coefficient
    inverted."""
    r = list(ref_trim(f))
    m = ref_trim(m)
    lead_inv = m[-1].inverse()
    while len(r) >= len(m):
        q = r[-1] * lead_inv
        shift = len(r) - len(m)
        r = list(ref_trim(r[i] - q * m[i - shift] if i >= shift else r[i] for i in range(len(r))))
    return tuple(r)


def to_kernel(f) -> tuple[list[int], list[int]]:
    """An ascending tuple of Fp2 as a kernel polynomial (re, im), trimmed."""
    f = ref_trim(f)
    return [c.a for c in f], [c.b for c in f]


def from_kernel(f, ctx: FieldCtx) -> tuple[Fp2, ...]:
    """A kernel polynomial (re, im) as an ascending tuple of Fp2."""
    return tuple(Fp2(ctx, a, b) for a, b in zip(*f))


# Square roots with a Legendre symbol taken before each root: the reference
# for the checked-exponentiation roots of qcurve.fields at p = 3 (mod 4).


def ref_sqrt_mod_prime(n: int, p: int) -> int | None:
    """n^((p+1)/4) mod p for a residue n, None for a nonresidue, decided
    first by Euler's criterion; p = 3 (mod 4) only."""
    assert p % 4 == 3
    n %= p
    if n == 0:
        return 0
    if legendre(n, p) != 1:
        return None
    return pow(n, (p + 1) // 4, p)


def ref_sqrt(x: Fp2) -> Fp2 | None:
    """The canonical square root of x (the smaller (a, b) pair of the two),
    or None, with the residuosity of the norm and of (a + m)/2 each tested
    by a Legendre symbol before its root is taken."""
    ctx, p = x.ctx, x.ctx.p
    if not x:
        return ctx.zero()
    if x.b == 0:
        u = ref_sqrt_mod_prime(x.a, p)
        if u is not None:
            root = Fp2(ctx, u, 0)
        else:
            root = Fp2(ctx, 0, ref_sqrt_mod_prime(x.a * pow(ctx.delta, -1, p), p))
    else:
        n = x.norm()
        if legendre(n, p) != 1:
            return None
        m = ref_sqrt_mod_prime(n, p)
        half = pow(2, -1, p)
        u2 = (x.a + m) * half % p
        if legendre(u2, p) != 1:
            u2 = (x.a - m) * half % p
        u = ref_sqrt_mod_prime(u2, p)
        root = Fp2(ctx, u, x.b * pow(2 * u, -1, p))
    neg = -root
    return root if (root.a, root.b) <= (neg.a, neg.b) else neg


# The scalar loop before it doubled in runs: one dbl-2007-bl step per
# column of the joint sparse form.  The reference for the run doubling
# of qcurve.weierstrass._dbl and the run loop of Curve._mul2.


def ref_dbl(P, p, d, A0, A1):
    """2P by dbl-2007-bl (EFD, short Weierstrass, any a = A) on the flat
    Jacobian int tuple of the scalar loop, None at infinity."""
    X0, X1, Y0, Y1, Z0, Z1 = P
    if not (Y0 or Y1):
        return None
    XX0 = (X0 * X0 + d * X1 * X1) % p
    XX1 = 2 * X0 * X1 % p
    YY0 = (Y0 * Y0 + d * Y1 * Y1) % p
    YY1 = 2 * Y0 * Y1 % p
    YYYY0 = (YY0 * YY0 + d * YY1 * YY1) % p
    YYYY1 = 2 * YY0 * YY1 % p
    ZZ0 = (Z0 * Z0 + d * Z1 * Z1) % p
    ZZ1 = 2 * Z0 * Z1 % p
    u0 = X0 + YY0
    u1 = X1 + YY1
    S0 = 2 * (u0 * u0 + d * u1 * u1 - XX0 - YYYY0) % p
    S1 = 2 * (2 * u0 * u1 - XX1 - YYYY1) % p
    W0 = (ZZ0 * ZZ0 + d * ZZ1 * ZZ1) % p
    W1 = 2 * ZZ0 * ZZ1 % p
    M0 = (3 * XX0 + A0 * W0 + d * A1 * W1) % p
    M1 = (3 * XX1 + A0 * W1 + A1 * W0) % p
    T0 = (M0 * M0 + d * M1 * M1 - 2 * S0) % p
    T1 = (2 * M0 * M1 - 2 * S1) % p
    V0 = S0 - T0
    V1 = S1 - T1
    w0 = Y0 + Z0
    w1 = Y1 + Z1
    return (
        T0,
        T1,
        (M0 * V0 + d * M1 * V1 - 8 * YYYY0) % p,
        (M0 * V1 + M1 * V0 - 8 * YYYY1) % p,
        (w0 * w0 + d * w1 * w1 - YY0 - ZZ0) % p,
        (2 * w0 * w1 - YY1 - ZZ1) % p,
    )


def ref_jsf(a, b):
    """The joint sparse form of (a, b) for a, b >= 0, one table index
    3*u0 + u1 + 4 per column, zero columns included, most significant
    first."""
    cols = []
    while a or b:
        u0 = u1 = 0
        if a & 1:
            u0 = 2 - (a & 3)
            if (a & 7) in (3, 5) and (b & 3) == 2:
                u0 = -u0
        if b & 1:
            u1 = 2 - (b & 3)
            if (b & 7) in (3, 5) and (a & 3) == 2:
                u1 = -u1
        cols.append(3 * u0 + u1 + 4)
        a = (a - u0) >> 1
        b = (b - u1) >> 1
    cols.reverse()
    return cols


def ref_mul2(curve, a, P, b, Q):
    """[a]P + [b]Q by the per-column loop: for each column of ref_jsf, one
    ref_dbl of the Jacobian accumulator, then the mixed addition of the
    column's entry of the table {O, +-P, +-Q, +-(P + Q), +-(P - Q)}.
    delta is passed unsigned, so at p = 3 (mod 4) _madd takes its generic
    body, not the F_p(i) one of Curve._mul2."""
    if a < 0:
        a, P = -a, curve.neg(P)
    if b < 0:
        b, Q = -b, curve.neg(Q)
    ctx = curve.ctx
    p, d, A0, A1 = ctx.p, ctx.delta, curve.A.a, curve.A.b
    upper = [
        None if T.is_infinity else (T.x.a, T.x.b, T.y.a, T.y.b)
        for T in (Q, curve._add(P, curve.neg(Q)), P, curve._add(P, Q))
    ]
    lower = [None if T is None else (T[0], T[1], -T[2] % p, -T[3] % p) for T in reversed(upper)]
    table = (*lower, None, *upper)
    acc = None
    for i in ref_jsf(a, b):
        if acc is not None:
            acc = ref_dbl(acc, p, d, A0, A1)
        T = table[i]
        if T is not None:
            acc = T + (1, 0) if acc is None else _madd(acc, T, p, d, A0, A1)
    if acc is None:
        return INFINITY
    zi = Fp2(ctx, acc[4], acc[5]).inverse()
    return Point(Fp2(ctx, acc[0], acc[1]) * zi * zi, Fp2(ctx, acc[2], acc[3]) * zi * zi * zi)


@functools.cache
def generic_127_curve() -> Curve:
    """A curve over F_{p^2} at p = 2^127 - 1 with delta = 3, a nonresidue
    there, so the scalar loop takes its generic body, not the F_p(i) one."""
    ctx = FieldCtx(MERSENNE_127, 3)
    return Curve(ctx.elem(5, 7), ctx.elem(11, 13))


# The per-point and per-curve formulas in plain Fp2 arithmetic: the
# references for Curve.is_on, lift_x, discriminant and Isogeny.raw_maps, and
# through them psi.  ref_raw_maps reads the polynomials through poly_eval,
# whose values test_isogeny checks against sums of Fp2 powers.


def ref_cubic(curve: Curve, x: Fp2) -> Fp2:
    return x * x * x + curve.A * x + curve.B


def ref_is_on(curve: Curve, P: Point) -> bool:
    return P.is_infinity or P.y * P.y == ref_cubic(curve, P.x)


def ref_lift_x(curve: Curve, x: Fp2) -> Point | None:
    y = ref_cubic(curve, x).sqrt()
    return None if y is None else Point(x, y)


def ref_discriminant(curve: Curve) -> Fp2:
    A, B = curve.A, curve.B
    return -16 * (4 * A * A * A + 27 * B * B)


def ref_raw_maps(iso, x: Fp2) -> tuple[Fp2, Fp2] | None:
    """(x-image, y-multiplier) of the isogeny at x, or None at a root of
    the denominator: N/D and (N' - (N/D) D')/D by the Fp2 boundary of
    poly_eval, the latter times the constant c."""
    dv, ddv = poly_eval(iso.den, x)
    if not dv:
        return None
    nv, dnv = poly_eval(iso.num, x)
    inv_dv = dv.inverse()
    u = nv * inv_dv
    du = (dnv - u * ddv) * inv_dv
    return u, iso.c * du


def ref_isogeny(iso, P: Point) -> Point:
    """The isogeny at P, None for a P off its domain."""
    if P.is_infinity:
        return INFINITY
    if not ref_is_on(iso.domain, P):
        return None
    maps = ref_raw_maps(iso, P.x)
    if maps is None:
        return INFINITY
    u, du = maps
    return Point(u, P.y * du)


def ref_psi(endo, P: Point) -> Point:
    """psi (or psi') at P: the conjugate of the endomorphism's isogeny at P,
    None for a P off its domain."""
    img = ref_isogeny(endo.isogeny, P)
    if img is None or img.is_infinity:
        return img
    return Point(img.x.conjugate(), img.y.conjugate())


# Int-level work of the scalar loop: the residues entering weierstrass._dbl
# and _madd become CountingInt, so every operation on them is tallied.


class CountingInt(int):
    """An int that tallies, into ``CountingInt.counts``, each product with
    another CountingInt ("mul"), each product with a plain int such as a
    small constant or delta ("mul_const"), each addition or subtraction
    ("add") and each reduction ("mod") it takes part in.  Every result is a
    CountingInt again."""

    counts = Counter()

    def __mul__(self, other):
        CountingInt.counts["mul" if isinstance(other, CountingInt) else "mul_const"] += 1
        return CountingInt(int.__mul__(self, other))

    __rmul__ = __mul__

    def __add__(self, other):
        CountingInt.counts["add"] += 1
        return CountingInt(int.__add__(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        CountingInt.counts["add"] += 1
        return CountingInt(int.__sub__(self, other))

    def __rsub__(self, other):
        CountingInt.counts["add"] += 1
        return CountingInt(int.__rsub__(self, other))

    def __mod__(self, other):
        CountingInt.counts["mod"] += 1
        return CountingInt(int.__mod__(self, other))


def count_loop_int_ops(monkeypatch) -> Counter:
    """From here on, count the int operations inside each call of
    weierstrass._dbl and _madd.  delta and the run length stay plain ints,
    so a product by delta is a "mul_const"; the calls return plain ints, so
    the rest of the scalar multiplication goes uncounted."""
    counts = CountingInt.counts
    counts.clear()
    dbl, madd = weierstrass._dbl, weierstrass._madd

    def counting(P):
        return tuple(map(CountingInt, P))

    def plain(R):
        return None if R is None else tuple(map(int, R))

    def counted_dbl(P, k, p, d, A0, A1):
        return plain(dbl(counting(P), k, CountingInt(p), d, CountingInt(A0), CountingInt(A1)))

    def counted_madd(P, T, p, d, A0, A1):
        return plain(madd(counting(P), counting(T), CountingInt(p), d, CountingInt(A0), CountingInt(A1)))

    monkeypatch.setattr(weierstrass, "_dbl", counted_dbl)
    monkeypatch.setattr(weierstrass, "_madd", counted_madd)
    return counts


def count_calls(monkeypatch, owner, name) -> list:
    """Record the arguments of every call of owner.name from here on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture(scope="session")
def ctx11():
    return ctx_for(11)


@pytest.fixture(scope="session")
def ctx13():
    return ctx_for(13)


@pytest.fixture(scope="session")
def big_ctx():
    return FieldCtx(MERSENNE_127, -1)


# The CPU time of each test's setup, call and teardown, summed by test file
# on the session's config and printed in the terminal summary.
# time.process_time counts this process alone: neither other load on the
# host nor a test's subprocesses (qbench runs, the CLI entry point) count.
_CPU_BY_FILE = pytest.StashKey[Counter]()


def _timed_phase(item):
    start = time.process_time()
    yield
    cpu = item.config.stash.setdefault(_CPU_BY_FILE, Counter())
    cpu[item.location[0]] += time.process_time() - start


pytest_runtest_setup = pytest.hookimpl(hookwrapper=True)(_timed_phase)
pytest_runtest_call = pytest.hookimpl(hookwrapper=True)(_timed_phase)
pytest_runtest_teardown = pytest.hookimpl(hookwrapper=True)(_timed_phase)


def pytest_terminal_summary(terminalreporter, config):
    cpu = config.stash.get(_CPU_BY_FILE, None)
    if not cpu:
        return
    terminalreporter.section("CPU time per test file")
    for path, seconds in sorted(cpu.items(), key=lambda kv: -kv[1]):
        terminalreporter.write_line(f"{seconds:8.2f} s  {path}")
    terminalreporter.write_line(f"{sum(cpu.values()):8.2f} s  total")
