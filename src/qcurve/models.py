"""Montgomery, twisted Edwards, and Doche-Icart-Kohel models of the family
curves, the x-only ladder, and the endomorphism on the (X:Z)-line.

A model has its maps and its equation but no group law: a map that fixes O
is a homomorphism (Silverman, AEC III.4.8), so Curve's law serves them all.

A model that only exists on the quadratic twist is reported as None; callers
sweeping parameters use that as a filter rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateParameterError, MapPoleError, OffCurveError, UntabulatedError
from .families import FamilyCurve
from .fields import Fp2
from .weierstrass import Point

WPair = tuple[Fp2, Fp2]


@dataclass(frozen=True)
class MontgomeryCurve:
    """B*Y^2*Z = X*(X^2 + A*X*Z + Z^2) with B^2 = 2*C and A = 12/B."""

    A: Fp2
    B: Fp2
    family: FamilyCurve


@dataclass(frozen=True)
class XZPoint:
    """The (X : Z) line of a Montgomery curve; (1 : 0) is infinity."""

    X: Fp2
    Z: Fp2

    def __post_init__(self):
        if not self.X and not self.Z:
            raise OffCurveError("(0 : 0) is not a projective point")

    def __eq__(self, other):
        if not isinstance(other, XZPoint):
            return NotImplemented
        return self.X * other.Z == other.X * self.Z

    def __hash__(self):
        raise TypeError("XZPoint equality is projective; hash unsupported")


@dataclass(frozen=True)
class EdwardsCurve:
    """a*x1^2 + x2^2 = 1 + d*x1^2*x2^2 with a = 12 + 2*B, d = 12 - 2*B."""

    a: Fp2
    d: Fp2
    bm: Fp2
    family: FamilyCurve


@dataclass(frozen=True)
class DikCurve:
    """Doubling model v^2 = u*(u^2 + D*u + 16*D) for the degree-2 family, or
    tripling model v^2 = u^3 + 3*D*(u + 1)^2 for the degree-3 family; the
    family's degree says which."""

    coeff: Fp2
    alpha: Fp2
    alpha32: Fp2
    family: FamilyCurve


def to_montgomery(fam: FamilyCurve) -> MontgomeryCurve | None:
    """The Montgomery model, which exists iff 2*C is a square in F_{p^2};
    None signals that only the quadratic twist has one."""
    if fam.d != 2:
        raise UntabulatedError("Montgomery model applies to the degree-2 family")
    b = (2 * fam.constant).sqrt()
    if b is None:
        return None
    a = 12 / b
    if a * a == 4:
        raise DegenerateParameterError("singular Montgomery model")
    return MontgomeryCurve(a, b, fam)


def montgomery_point(m: MontgomeryCurve, P: Point) -> WPair:
    """(x, y) -> ((x - 4)/B, y/B^2) on the affine Montgomery chart."""
    if P.is_infinity:
        raise MapPoleError("affine Montgomery chart does not contain infinity")
    return (P.x - 4) / m.B, P.y / (m.B * m.B)


def montgomery_to_weierstrass(m: MontgomeryCurve, uv: WPair) -> Point:
    u, v = uv
    return Point(m.B * u + 4, m.B * m.B * v)


def montgomery_contains(m: MontgomeryCurve, uv: WPair) -> bool:
    u, v = uv
    return m.B * v * v == u * (u * u + m.A * u + 1)


def to_xz(m: MontgomeryCurve, P: Point) -> XZPoint:
    ctx = m.B.ctx
    if P.is_infinity:
        return XZPoint(ctx.one(), ctx.zero())
    return XZPoint(P.x - 4, m.B)


def ladder(k: int, x: XZPoint, m: MontgomeryCurve) -> XZPoint:
    """x([k]P) from x(P) by the standard differential ladder."""
    ctx = m.B.ctx
    one, zero = ctx.one(), ctx.zero()
    k = abs(k)
    if not x.Z or k == 0:
        return XZPoint(one, zero)
    if not x.X:
        # (0, 0) has order 2; the differential formulas degenerate there.
        return x if k & 1 else XZPoint(one, zero)
    a24 = (m.A + 2) / 4

    def dbl(q: XZPoint) -> XZPoint:
        t1 = (q.X + q.Z) ** 2
        t2 = (q.X - q.Z) ** 2
        t3 = t1 - t2
        return XZPoint(t1 * t2, t3 * (t2 + a24 * t3))

    def dadd(q1: XZPoint, q2: XZPoint, diff: XZPoint) -> XZPoint:
        t1 = (q1.X + q1.Z) * (q2.X - q2.Z)
        t2 = (q1.X - q1.Z) * (q2.X + q2.Z)
        return XZPoint(diff.Z * (t1 + t2) ** 2, diff.X * (t1 - t2) ** 2)

    r0, r1 = x, dbl(x)
    for i in range(k.bit_length() - 2, -1, -1):
        if (k >> i) & 1:
            r0, r1 = dadd(r0, r1, x), dbl(r1)
        else:
            r0, r1 = dbl(r0), dadd(r0, r1, x)
    return r0


def psi_montgomery(x: XZPoint, m: MontgomeryCurve) -> XZPoint:
    """The endomorphism on the (X:Z)-line:
    (X : Z) -> (X^2p + A^p X^p Z^p + Z^2p : -2 A^(p-1) X^p Z^p)."""
    xp = x.X.conjugate()
    zp = x.Z.conjugate()
    ap = m.A.conjugate()
    t = xp * zp
    return XZPoint(xp * xp + ap * t + zp * zp, -2 * (ap / m.A) * t)


def to_edwards(fam: FamilyCurve) -> EdwardsCurve | None:
    """The twisted Edwards model; exists under the same square condition as
    the Montgomery model."""
    m = to_montgomery(fam)
    if m is None:
        return None
    a = 12 + 2 * m.B
    d = 12 - 2 * m.B
    if a == d or not a or not d:
        raise DegenerateParameterError("degenerate Edwards coefficients")
    return EdwardsCurve(a, d, m.B, fam)


def edwards_point(e: EdwardsCurve, P: Point) -> WPair:
    """(x, y) -> ((x-4)/y, (x-4-B)/(x-4+B)); infinity maps to the Edwards
    identity (0, 1), the other exceptional points are rejected by name."""
    ctx = e.bm.ctx
    if P.is_infinity:
        return ctx.zero(), ctx.one()
    if not P.y:
        raise MapPoleError(f"Edwards map undefined at two-torsion point {P}")
    w = P.x - 4
    den = w + e.bm
    if not den:
        raise MapPoleError(f"Edwards map undefined at x = 4 - B point {P}")
    return w / P.y, (w - e.bm) / den


def edwards_contains(e: EdwardsCurve, q: WPair) -> bool:
    x1, x2 = q
    s1, s2 = x1 * x1, x2 * x2
    return e.a * s1 + s2 == 1 + e.d * s1 * s2


def to_dik(fam: FamilyCurve) -> DikCurve | None:
    """The Doche-Icart-Kohel model: the doubling model of a degree-2 family
    member, the tripling model of a degree-3 one.  None when the scaling
    factor alpha is a nonsquare, in which case the model is isomorphic to
    the quadratic twist."""
    if fam.d == 2:
        alpha = 96 / fam.constant
        coeff = 1152 / fam.constant
    elif fam.d == 3:
        cp = fam.constant.conjugate()
        alpha = 3 / cp
        coeff = 9 / cp
    else:
        raise UntabulatedError("Doche-Icart-Kohel models apply to the degree-2 and degree-3 families")
    root = alpha.sqrt()
    if root is None:
        return None
    return DikCurve(coeff, alpha, alpha * root, fam)


def _dik_shift(dk: DikCurve) -> int:
    return 4 if dk.family.d == 2 else 3


def dik_point(dk: DikCurve, P: Point) -> WPair:
    """(x, y) -> (alpha*(x - x0), alpha^(3/2)*y) with x0 the kernel abscissa."""
    if P.is_infinity:
        raise MapPoleError("affine model chart does not contain infinity")
    return dk.alpha * (P.x - _dik_shift(dk)), dk.alpha32 * P.y


def dik_to_weierstrass(dk: DikCurve, uv: WPair) -> Point:
    u, v = uv
    return Point(u / dk.alpha + _dik_shift(dk), v / dk.alpha32)


def dik_contains(dk: DikCurve, uv: WPair) -> bool:
    """v^2 = u^3 + c2 u^2 + c4 u + c6, with (c2, c4, c6) = (k, 16k, 0) on
    the doubling model and (3k, 6k, 3k) on the tripling model, k = coeff."""
    k = dk.coeff
    c2, c4, c6 = (k, 16 * k, 0) if dk.family.d == 2 else (3 * k, 6 * k, 3 * k)
    u, v = uv
    return v * v == ((u + c2) * u + c4) * u + c6
