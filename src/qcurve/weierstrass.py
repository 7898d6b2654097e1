"""Short Weierstrass curves over F_{p^2}: group law, scalar multiplication,
quadratic twists, and an exhaustive point-count oracle for small primes.

Points are affine with an explicit point at infinity, and the affine
``Curve._add`` is the reference group law that everything else is checked
against.  Scalar multiplication (``Curve.mul``, and ``glv.multiexp2`` through
``Curve._mul2``) walks the joint sparse form of its scalars in Jacobian
coordinates on bare integer pairs, with the field operations inlined, and
returns to affine once at the end.  Its table holds +-P, +-Q and, only when
a column of the recoding adds them, +-(P + Q) and +-(P - Q), each of which
costs one affine ``Curve._add`` and its inversion: [2^127]Q - [|r|]psi(Q) of
``families.determine_r`` has no such column and pays neither.  The loop
doubles in runs: each run of doublings between two additions computes
A*Z^4 once and carries it from one doubling to the next (``_dbl``).  When
delta = -1, which is every field the benchmarks and the paper's examples
use (p = 3 mod 4, F_{p^2} = F_p(i)), the doublings and additions run bodies
with i^2 = -1 written in (``_dbl_i``, ``_madd_i``): no product by delta,
and the real part of a square as one product (a + b)(a - b).  They return
the same residues as the generic bodies, which any other delta takes.
``loop_ops`` reads the loop's doublings and additions off the same
recoding, without running it.

Curve membership (``Curve.is_on``), ``Curve.lift_x`` and the discriminant
run on the coordinates' int pairs too, not on Fp2 objects: one helper,
``Curve._cubic``, evaluates x^3 + Ax + B as x(x^2 + A) + B, which ``is_on``
compares with y^2 and ``lift_x`` hands to the one ``Fp2.sqrt``.

The point-count oracle (``oracle_order``, ``curve_points``) enumerates every
x of F_{p^2} at p <= ORACLE_MAX_P.  It too runs on bare integers.
``oracle_order`` reads the cubic and its quadratic character from tables
built once per field (``FieldCtx.oracle_tables``; the first count on a field
builds them, in about 0.2 ms at p = 23 and 1.3 ms at p = 61), so each
abscissa costs two additions and two lookups, and ``curve_points`` reads the
roots of each square from a table also built once per field
(``FieldCtx.square_roots``).  Each ``Curve`` object is counted once: the
count is kept on it, as the tables are kept with the field, so
``families.determine_r`` checks a supplied trace against the count its
caller has just made without enumerating F_{p^2} again.  The write is
idempotent, so a curve may still be shared between threads.
The oracle stays the single reference that group orders and the group law
are checked against.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from .errors import DegenerateParameterError, OffCurveError, OracleGuardError
from .fields import FieldCtx, Fp2

ORACLE_MAX_P = 64


class Point(NamedTuple):
    """An affine point (x, y), or infinity with x = y = None.  A named tuple,
    so it is immutable, compares by value and costs one tuple to build."""

    x: Fp2 | None
    y: Fp2 | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point(None, None)


class Curve:
    """y^2 = x^3 + A*x + B over F_{p^2}, with nonzero discriminant."""

    __slots__ = ("A", "B", "ctx", "_order")

    def __init__(self, A: Fp2, B: Fp2):
        ctx = A.ctx
        self.A = A
        self.B = ctx.coerce(B)
        self.ctx = ctx
        self._order = None  # oracle_order's count, kept once made
        if not self.discriminant():
            raise DegenerateParameterError("singular curve: discriminant is zero")

    def discriminant(self) -> Fp2:
        """-16(4A^3 + 27B^2), computed on the int pairs."""
        ctx = self.ctx
        p, d = ctx.p, ctx.signed_delta
        A0, A1, B0, B1 = self.A.a, self.A.b, self.B.a, self.B.b
        AA0, AA1 = (A0 * A0 + d * A1 * A1) % p, 2 * A0 * A1 % p
        return Fp2(
            ctx,
            -16 * (4 * (AA0 * A0 + d * AA1 * A1) + 27 * (B0 * B0 + d * B1 * B1)),
            -16 * (4 * (AA0 * A1 + AA1 * A0) + 54 * B0 * B1),
        )

    def __eq__(self, other):
        return isinstance(other, Curve) and self.A == other.A and self.B == other.B

    def __hash__(self):
        return hash((self.A, self.B))

    def __repr__(self):
        return f"Curve(y^2 = x^3 + ({self.A})*x + ({self.B}) over F_{self.ctx.p}^2)"

    def _cubic(self, x: Fp2) -> tuple[int, int]:
        """x^3 + Ax + B as a reduced int pair, computed as x(x^2 + A) + B on
        the ints; FieldMismatchError for an x of another field."""
        ctx = self.ctx
        if x.ctx is not ctx:
            ctx.coerce(x)
        p, d = ctx.p, ctx.signed_delta
        x0, x1 = x.a, x.b
        A, B = self.A, self.B
        t0 = (x0 * x0 + d * x1 * x1 + A.a) % p
        t1 = (2 * x0 * x1 + A.b) % p
        return (x0 * t0 + d * x1 * t1 + B.a) % p, (x0 * t1 + x1 * t0 + B.b) % p

    def is_on(self, P: Point) -> bool:
        """Whether P is infinity or y^2 = x^3 + Ax + B, compared on the int
        pairs; FieldMismatchError for coordinates of another field."""
        x, y = P
        if x is None:
            return True
        ctx = self.ctx
        if y.ctx is not ctx:
            ctx.coerce(y)
        c0, c1 = self._cubic(x)
        y0, y1 = y.a, y.b
        p = ctx.p
        return (y0 * y0 + ctx.signed_delta * y1 * y1 - c0) % p == 0 and (2 * y0 * y1 - c1) % p == 0

    def point(self, x: Fp2, y: Fp2) -> Point:
        P = Point(x, y)
        if not self.is_on(P):
            raise OffCurveError(f"({x}, {y}) does not satisfy the curve equation")
        return P

    def neg(self, P: Point) -> Point:
        if P.is_infinity:
            return INFINITY
        return Point(P.x, -P.y)

    def _add(self, P: Point, Q: Point) -> Point:
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if y1 != y2 or not y1:
                return INFINITY
            lam = (3 * x1 * x1 + self.A) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return Point(x3, lam * (x1 - x3) - y1)

    def add(self, P: Point, Q: Point) -> Point:
        if not self.is_on(P) or not self.is_on(Q):
            raise OffCurveError("group law operand is not on the curve")
        return self._add(P, Q)

    def mul(self, m: int, P: Point) -> Point:
        """[m]P; negative m negates the point."""
        if not self.is_on(P):
            raise OffCurveError("scalar multiplication operand is not on the curve")
        return self._mul2(m, P, 0, INFINITY)

    def _mul2(self, a: int, P: Point, b: int, Q: Point) -> Point:
        """[a]P + [b]Q for any integers a, b and P, Q on the curve.

        A negative scalar negates its point first.  Then one left-to-right
        double-and-add walks the joint sparse form of (a, b) (``_jsf``) with
        the affine table {O, +-P, +-Q, +-(P + Q), +-(P - Q)}, whose two
        sums are built only if a column reads them; with b = 0 that is the
        NAF of a.  The recoding comes as runs: each nonzero column adds its
        table entry, then the accumulator is doubled once per column down
        to the next nonzero one, in one call of ``_dbl``.
        The accumulator is a Jacobian point (X, Y, Z) of F_{p^2} elements
        held as bare int pairs, or None for infinity; it is converted to
        affine once, with one inversion.  That exit stays on the ints: through
        Fp2 it measured 6.5 against 3.5 us at p = 23 and 24.3 against 20.0 us
        at 2^127 - 1 (CPython 3.11), about 2% of an oracle-sweep operation.
        """
        if a < 0:
            a, P = -a, self.neg(P)
        if b < 0:
            b, Q = -b, self.neg(Q)
        ctx = self.ctx
        p = ctx.p
        d = ctx.signed_delta
        A0, A1 = self.A.a, self.A.b
        runs = _jsf(a, b)
        # Entries 5..8 are the columns (0, 1), (1, -1), (1, 0), (1, 1) of
        # _jsf; entry 8 - i is the negative of entry i, y -> -y.  P - Q and
        # P + Q are built only when a column adds them or their negatives.
        # Curve.mul (Q at infinity) still makes both calls: they return at
        # once, and qbench counts its group operations on Curve._add.
        cols = {i for i, _ in runs}
        lazy = not Q.is_infinity
        diff = INFINITY if lazy and cols.isdisjoint((2, 6)) else self._add(P, self.neg(Q))
        total = INFINITY if lazy and cols.isdisjoint((0, 8)) else self._add(P, Q)
        upper = [None if T.is_infinity else (T.x.a, T.x.b, T.y.a, T.y.b) for T in (Q, diff, P, total)]
        lower = [
            None if T is None else (T[0], T[1], -T[2] % p, -T[3] % p) for T in reversed(upper)
        ]
        table = (*lower, None, *upper)
        acc = None
        for i, run in runs:
            T = table[i]
            if T is not None:
                acc = T + (1, 0) if acc is None else _madd(acc, T, p, d, A0, A1)
            if run and acc is not None:
                acc = _dbl(acc, run, p, d, A0, A1)
        if acc is None:
            return INFINITY
        X0, X1, Y0, Y1, Z0, Z1 = acc
        zi = Fp2(ctx, Z0, Z1).inverse()
        i0, i1 = zi.a, zi.b
        s0 = (i0 * i0 + d * i1 * i1) % p
        s1 = 2 * i0 * i1 % p
        c0 = (s0 * i0 + d * s1 * i1) % p
        c1 = (s0 * i1 + s1 * i0) % p
        return Point(
            Fp2(ctx, X0 * s0 + d * X1 * s1, X0 * s1 + X1 * s0),
            Fp2(ctx, Y0 * c0 + d * Y1 * c1, Y0 * c1 + Y1 * c0),
        )

    def j_invariant(self) -> Fp2:
        A, B = self.A, self.B
        a3 = 4 * A * A * A
        return 1728 * a3 / (a3 + 27 * B * B)

    @classmethod
    def _nonsingular(cls, A: Fp2, B: Fp2) -> "Curve":
        """A conjugate or twist of a checked curve, whose discriminant is
        therefore nonzero: the conjugate or a unit times a nonzero one."""
        curve = cls.__new__(cls)
        curve.A, curve.B, curve.ctx, curve._order = A, B, A.ctx, None
        return curve

    def conjugate(self) -> "Curve":
        return Curve._nonsingular(self.A.conjugate(), self.B.conjugate())

    def quadratic_twist(self) -> tuple["Curve", Fp2]:
        """The twist by the square root of the canonical nonsquare mu;
        returns (twisted curve, mu)."""
        mu = self.ctx.nonsquare()
        mu2 = mu * mu
        return Curve._nonsingular(mu2 * self.A, mu2 * mu * self.B), mu

    def lift_x(self, x: Fp2) -> Point | None:
        """The point (x, y) with canonical y, or None if x is not on the curve."""
        y = Fp2(self.ctx, *self._cubic(x)).sqrt()
        if y is None:
            return None
        return Point(x, y)


def _jsf(a: int, b: int) -> list[tuple[int, int]]:
    """The joint sparse form of (a, b) for a, b >= 0 (Solinas 2001;
    Hankerson-Menezes-Vanstone, Guide to ECC, Alg. 3.50), read as runs:
    one pair (3*u0 + u1 + 4, doublings after it) per nonzero column
    (u0, u1) of digits in {-1, 0, 1}, most significant first.  The
    doublings after a column are its distance to the next nonzero column,
    and after the last one the number of trailing zero columns; with the
    columns at bit positions j, a = sum u0 2^j and b = sum u1 2^j.

    Of any three consecutive columns one is zero, and on average half of
    the columns are nonzero, against three quarters of the plain binary
    columns; with b = 0 this is the NAF of a.  There are at most
    max(bitlength) + 1 columns.  Each stretch of zero columns is skipped in
    one shift, so the loop runs once per nonzero column.
    """
    runs = []
    while a or b:
        low = a | b
        shift = (low & -low).bit_length() - 1
        a >>= shift
        b >>= shift
        a7, b7 = a & 7, b & 7
        u0 = u1 = 0
        if a7 & 1:
            u0 = 2 - (a7 & 3)
            if a7 in (3, 5) and b7 & 3 == 2:
                u0 = -u0
        if b7 & 1:
            u1 = 2 - (b7 & 3)
            if b7 in (3, 5) and a7 & 3 == 2:
                u1 = -u1
        runs.append((3 * u0 + u1 + 4, shift))
        a -= u0
        b -= u1
    runs.reverse()
    return runs


def loop_ops(a: int, b: int) -> tuple[int, int]:
    """(doublings, mixed additions) of the scalar loop of Curve._mul2 on the
    scalars a, b, read off the runs of ``_jsf(|a|, |b|)``: the sum of the
    runs, and one ``_madd`` per nonzero column after the first.  The loop
    does exactly these unless a table entry or a partial sum is at
    infinity."""
    runs = _jsf(abs(a), abs(b))
    return sum(run for _, run in runs), max(len(runs) - 1, 0)


# The Jacobian group law of Curve._mul2.  A point (X, Y, Z) stands for the
# affine (X/Z^2, Y/Z^3) and is a flat tuple (X0, X1, Y0, Y1, Z0, Z1) of
# residues, with X = X0 + X1*sqrt(delta) and so on; Z is never zero, and
# infinity is None.  Each F_{p^2} product is written out on the int pairs,
# (u0 + u1 s)(v0 + v1 s) = (u0 v0 + d u1 v1) + (u0 v1 + u1 v0) s with s^2 = d;
# each product is reduced once per coordinate, and the sums and small
# multiples that only feed a product are left unreduced.
#
# When d = -1, the field is F_p(i) with i^2 = -1 (every p = 3 mod 4, the
# paper's 2^127 - 1 among them), and _dbl and _madd hand over to _dbl_i and
# _madd_i: the same formulas with d = -1 written in, so a real part
# u0 v0 + d u1 v1 is u0 v0 - u1 v1 and the real part of a square
# u0^2 + d u1^2 is (u0 + u1)(u0 - u1).  That saves the products by d and
# one product per square; every coordinate is the same residue as the
# generic body's.  Any other d, p - 1 included, takes the generic body.


def _dbl(P, k, p, d, A0, A1):
    """[2^k]P for k >= 1 by k doublings in modified Jacobian coordinates
    (Cohen-Miyaji-Ono, ASIACRYPT 1998): W = A*Z^4 is computed once, in
    2S + 1M, and carried from one doubling to the next as 16*Y^4*W, so each
    doubling costs 3M + 5S where dbl-2007-bl costs 2M + 8S with the product
    by A.  A point with Y = 0 has order 2, and the run ends at infinity.
    With d = -1 the run is _dbl_i's."""
    if d == -1:
        return _dbl_i(P, k, p, A0, A1)
    X0, X1, Y0, Y1, Z0, Z1 = P
    ZZ0 = (Z0 * Z0 + d * Z1 * Z1) % p
    ZZ1 = 2 * Z0 * Z1 % p
    ZZZZ0 = (ZZ0 * ZZ0 + d * ZZ1 * ZZ1) % p
    ZZZZ1 = 2 * ZZ0 * ZZ1 % p
    W0 = (A0 * ZZZZ0 + d * A1 * ZZZZ1) % p
    W1 = (A0 * ZZZZ1 + A1 * ZZZZ0) % p
    while True:
        if not (Y0 or Y1):
            return None
        XX0 = (X0 * X0 + d * X1 * X1) % p
        XX1 = 2 * X0 * X1 % p
        YY0 = (Y0 * Y0 + d * Y1 * Y1) % p
        YY1 = 2 * Y0 * Y1 % p
        YYYY0 = (YY0 * YY0 + d * YY1 * YY1) % p
        YYYY1 = 2 * YY0 * YY1 % p
        u0 = X0 + YY0
        u1 = X1 + YY1
        S0 = 2 * (u0 * u0 + d * u1 * u1 - XX0 - YYYY0) % p
        S1 = 2 * (2 * u0 * u1 - XX1 - YYYY1) % p
        M0 = 3 * XX0 + W0
        M1 = 3 * XX1 + W1
        X0 = (M0 * M0 + d * M1 * M1 - 2 * S0) % p
        X1 = (2 * M0 * M1 - 2 * S1) % p
        V0 = S0 - X0
        V1 = S1 - X1
        Z0, Z1 = 2 * (Y0 * Z0 + d * Y1 * Z1) % p, 2 * (Y0 * Z1 + Y1 * Z0) % p
        Y0 = (M0 * V0 + d * M1 * V1 - 8 * YYYY0) % p
        Y1 = (M0 * V1 + M1 * V0 - 8 * YYYY1) % p
        k -= 1
        if not k:
            return (X0, X1, Y0, Y1, Z0, Z1)
        W0, W1 = 16 * (YYYY0 * W0 + d * YYYY1 * W1) % p, 16 * (YYYY0 * W1 + YYYY1 * W0) % p


def _madd(P, T, p, d, A0, A1):
    """P + T for Jacobian P and affine T = (x0, x1, y0, y1), by madd-2007-bl
    (EFD, Z2 = 1); T = P is handed to _dbl as a run of one and T = -P gives
    None.  With d = -1 the addition is _madd_i's."""
    if d == -1:
        return _madd_i(P, T, p, A0, A1)
    X0, X1, Y0, Y1, Z0, Z1 = P
    x0, x1, y0, y1 = T
    ZZ0 = (Z0 * Z0 + d * Z1 * Z1) % p
    ZZ1 = 2 * Z0 * Z1 % p
    H0 = (x0 * ZZ0 + d * x1 * ZZ1 - X0) % p
    H1 = (x0 * ZZ1 + x1 * ZZ0 - X1) % p
    ZZZ0 = (Z0 * ZZ0 + d * Z1 * ZZ1) % p
    ZZZ1 = (Z0 * ZZ1 + Z1 * ZZ0) % p
    R0 = (y0 * ZZZ0 + d * y1 * ZZZ1 - Y0) % p
    R1 = (y0 * ZZZ1 + y1 * ZZZ0 - Y1) % p
    if not (H0 or H1):
        return None if R0 or R1 else _dbl(P, 1, p, d, A0, A1)
    R0 *= 2
    R1 *= 2
    HH0 = (H0 * H0 + d * H1 * H1) % p
    HH1 = 2 * H0 * H1 % p
    I0 = 4 * HH0
    I1 = 4 * HH1
    J0 = (H0 * I0 + d * H1 * I1) % p
    J1 = (H0 * I1 + H1 * I0) % p
    V0 = (X0 * I0 + d * X1 * I1) % p
    V1 = (X0 * I1 + X1 * I0) % p
    X30 = (R0 * R0 + d * R1 * R1 - J0 - 2 * V0) % p
    X31 = (2 * R0 * R1 - J1 - 2 * V1) % p
    U0 = V0 - X30
    U1 = V1 - X31
    w0 = Z0 + H0
    w1 = Z1 + H1
    return (
        X30,
        X31,
        (R0 * U0 + d * R1 * U1 - 2 * (Y0 * J0 + d * Y1 * J1)) % p,
        (R0 * U1 + R1 * U0 - 2 * (Y0 * J1 + Y1 * J0)) % p,
        (w0 * w0 + d * w1 * w1 - ZZ0 - HH0) % p,
        (2 * w0 * w1 - ZZ1 - HH1) % p,
    )


def _dbl_i(P, k, p, A0, A1):
    """_dbl in F_p(i): the same doublings and the same coordinates."""
    X0, X1, Y0, Y1, Z0, Z1 = P
    ZZ0 = (Z0 + Z1) * (Z0 - Z1) % p
    ZZ1 = 2 * Z0 * Z1 % p
    ZZZZ0 = (ZZ0 + ZZ1) * (ZZ0 - ZZ1) % p
    ZZZZ1 = 2 * ZZ0 * ZZ1 % p
    W0 = (A0 * ZZZZ0 - A1 * ZZZZ1) % p
    W1 = (A0 * ZZZZ1 + A1 * ZZZZ0) % p
    while True:
        if not (Y0 or Y1):
            return None
        XX0 = (X0 + X1) * (X0 - X1) % p
        XX1 = 2 * X0 * X1 % p
        YY0 = (Y0 + Y1) * (Y0 - Y1) % p
        YY1 = 2 * Y0 * Y1 % p
        YYYY0 = (YY0 + YY1) * (YY0 - YY1) % p
        YYYY1 = 2 * YY0 * YY1 % p
        u0 = X0 + YY0
        u1 = X1 + YY1
        S0 = 2 * ((u0 + u1) * (u0 - u1) - XX0 - YYYY0) % p
        S1 = 2 * (2 * u0 * u1 - XX1 - YYYY1) % p
        M0 = 3 * XX0 + W0
        M1 = 3 * XX1 + W1
        X0 = ((M0 + M1) * (M0 - M1) - 2 * S0) % p
        X1 = (2 * M0 * M1 - 2 * S1) % p
        V0 = S0 - X0
        V1 = S1 - X1
        Z0, Z1 = 2 * (Y0 * Z0 - Y1 * Z1) % p, 2 * (Y0 * Z1 + Y1 * Z0) % p
        Y0 = (M0 * V0 - M1 * V1 - 8 * YYYY0) % p
        Y1 = (M0 * V1 + M1 * V0 - 8 * YYYY1) % p
        k -= 1
        if not k:
            return (X0, X1, Y0, Y1, Z0, Z1)
        W0, W1 = 16 * (YYYY0 * W0 - YYYY1 * W1) % p, 16 * (YYYY0 * W1 + YYYY1 * W0) % p


def _madd_i(P, T, p, A0, A1):
    """_madd in F_p(i): the same addition and the same coordinates; T = P
    goes through _dbl, so every doubling is a call of _dbl."""
    X0, X1, Y0, Y1, Z0, Z1 = P
    x0, x1, y0, y1 = T
    ZZ0 = (Z0 + Z1) * (Z0 - Z1) % p
    ZZ1 = 2 * Z0 * Z1 % p
    H0 = (x0 * ZZ0 - x1 * ZZ1 - X0) % p
    H1 = (x0 * ZZ1 + x1 * ZZ0 - X1) % p
    ZZZ0 = (Z0 * ZZ0 - Z1 * ZZ1) % p
    ZZZ1 = (Z0 * ZZ1 + Z1 * ZZ0) % p
    R0 = (y0 * ZZZ0 - y1 * ZZZ1 - Y0) % p
    R1 = (y0 * ZZZ1 + y1 * ZZZ0 - Y1) % p
    if not (H0 or H1):
        return None if R0 or R1 else _dbl(P, 1, p, -1, A0, A1)
    R0 *= 2
    R1 *= 2
    HH0 = (H0 + H1) * (H0 - H1) % p
    HH1 = 2 * H0 * H1 % p
    I0 = 4 * HH0
    I1 = 4 * HH1
    J0 = (H0 * I0 - H1 * I1) % p
    J1 = (H0 * I1 + H1 * I0) % p
    V0 = (X0 * I0 - X1 * I1) % p
    V1 = (X0 * I1 + X1 * I0) % p
    X30 = ((R0 + R1) * (R0 - R1) - J0 - 2 * V0) % p
    X31 = (2 * R0 * R1 - J1 - 2 * V1) % p
    U0 = V0 - X30
    U1 = V1 - X31
    w0 = Z0 + H0
    w1 = Z1 + H1
    return (
        X30,
        X31,
        (R0 * U0 - R1 * U1 - 2 * (Y0 * J0 - Y1 * J1)) % p,
        (R0 * U1 + R1 * U0 - 2 * (Y0 * J1 + Y1 * J0)) % p,
        ((w0 + w1) * (w0 - w1) - ZZ0 - HH0) % p,
        (2 * w0 * w1 - ZZ1 - HH1) % p,
    )


def _require_oracle_scale(ctx: FieldCtx):
    if ctx.p > ORACLE_MAX_P:
        raise OracleGuardError(
            f"exhaustive enumeration requires p <= {ORACLE_MAX_P}, got {ctx.p}"
        )


def oracle_order(curve: Curve) -> int:
    """#E(F_{p^2}) = p^2 + 1 + sum over x of chi(x^3 + Ax + B), with chi the
    quadratic character of F_{p^2} (0 at zero); small primes only.

    The sum runs on bare ints, one row of abscissas x = a + b*sqrt(delta)
    per b.  For a fixed b the cubic is
    (a^3 + al*a + be) + (3b*a^2 + A1*a + ep)*sqrt(delta), with
    al = A0 + 3*delta*b^2, be = B0 + delta*A1*b and
    ep = A0*b + B1 + delta*b^3.  The tables of ``FieldCtx.oracle_tables``
    (built once per field) hold a^3 + al*a and 3b*a^2 reduced, and chi
    widened to 2p rows and 3p columns, so the sums of residues that index it
    need no reduction; with A1*a reduced once per curve, each x costs two
    additions and two lookups.  This enumeration is the reference every
    order is checked against.

    The count is kept on the curve object, as the tables are kept with the
    field, so a second count of the same ``Curve`` (the trace check of
    ``families.determine_r`` after its caller's count) reads it back.  A
    curve built again from the same coefficients, and a conjugate or twist,
    starts uncounted.
    """
    count = curve._order
    if count is not None:
        return count
    ctx = curve.ctx
    _require_oracle_scale(ctx)
    chi, cubes, squares3 = ctx.oracle_tables()
    p, d = ctx.p, ctx.signed_delta
    A0, A1, B0, B1 = curve.A.a, curve.A.b, curve.B.a, curve.B.b
    lin = [A1 * a % p for a in range(p)]
    count = p * p + 1
    for b, sq in enumerate(squares3):
        al = (A0 + 3 * d * b * b) % p
        be = (B0 + d * A1 * b) % p
        ep = (A0 * b + B1 + d * b * b * b) % p
        rows = chi[be : be + p]
        count += sum([rows[c][s + g + ep] for c, s, g in zip(cubes[al], sq, lin)])
    curve._order = count
    return count


def curve_points(curve: Curve) -> list[Point]:
    """Every point of E(F_{p^2}), infinity first, then x in (a, b) order and
    each x's y values in (a, b) order; small primes only.

    The cubic is evaluated on bare int pairs and looked up in the table of
    ``FieldCtx.square_roots`` (each square, as an int pair, to its roots,
    built once per field), so an x is built as an Fp2 only when it has a
    point.  This enumeration is the reference the group law and
    determine_r are checked against.
    """
    ctx = curve.ctx
    _require_oracle_scale(ctx)
    roots = ctx.square_roots()
    p, d = ctx.p, ctx.delta
    A0, A1, B0, B1 = curve.A.a, curve.A.b, curve.B.a, curve.B.b
    dA1 = d * A1
    points = [INFINITY]
    for a in range(p):
        # x^3 + Ax + B at x = a + b*sqrt(delta), as the int pair
        # (c0 + b*(k0*b + delta*A1), b*(c1 + delta*b^2) + k1).
        c0, k0, c1, k1 = a * (a * a + A0) + B0, 3 * d * a, 3 * a * a + A0, A1 * a + B1
        for b in range(p):
            r0 = (c0 + b * (k0 * b + dA1)) % p
            r1 = (b * (c1 + d * b * b) + k1) % p
            ys = roots.get((r0, r1))
            if ys:
                x = Fp2(ctx, a, b)
                points.extend([Point(x, y) for y in ys])
    return points


def oracle_trace(curve: Curve) -> int:
    return curve.ctx.p**2 + 1 - oracle_order(curve)


def random_point(curve: Curve, seed: int) -> Point:
    """A deterministic pseudo-random point: hash-walk x until the cubic has a
    square value, then take the canonical root."""
    ctx = curve.ctx
    ctr = 0
    while True:
        xa = _hash_residue(ctx, seed, ctr, 0)
        xb = _hash_residue(ctx, seed, ctr, 1)
        x = Fp2(ctx, xa, xb)
        P = curve.lift_x(x)
        if P is not None:
            return P
        ctr += 1


def _hash_residue(ctx: FieldCtx, seed: int, ctr: int, part: int) -> int:
    data = f"point-walk:{ctx.p}:{ctx.delta}:{seed}:{ctr}:{part}".encode()
    return int.from_bytes(hashlib.sha256(data).digest(), "big") % ctx.p
