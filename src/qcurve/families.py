"""The four one-parameter curve families over F_{p^2} carrying a fast
endomorphism.

Each family member E admits a degree-d isogeny phi onto its Galois-conjugate
curve (d in {2, 3, 5, 7}); composing phi with coordinate conjugation gives
an endomorphism psi of degree d*p whose square is [eps*d] times Frobenius.
The degenerate case d = 1 (a curve defined over F_p, phi the identity)
recovers the subfield-Frobenius endomorphism on the quadratic twist.

The builders are proven once, not member by member: qcurve.generic runs
them over Z[s, delta][sqrt(delta)] (Q[s][i] for d = 5) and shows there,
identically in s and delta, that each kernel polynomial is the kernel of
one cyclic subgroup of order d and that the twisted quotient is the
conjugate curve.  So a build expands the Velu maps without the kernel
checks that isogeny.velu_quotient runs for any other caller's kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    DegenerateParameterError,
    OracleGuardError,
    ResidueClassError,
    StructureError,
    SupersingularError,
    TraceError,
    UntabulatedError,
)
from .fields import FieldCtx, Fp2, legendre
from .isogeny import Isogeny, _velu_maps, identity_isogeny, post_twist, quadratic_twist
from .weierstrass import INFINITY, ORACLE_MAX_P, Curve, Point, oracle_trace, random_point

FAMILY_DEGREES = (2, 3, 5, 7)


@dataclass(frozen=True)
class FamilyCurve:
    """A family member: the curve, its parameter, the family constant, and
    the isogeny phi onto the conjugate curve."""

    d: int
    s: int | None
    curve: Curve
    constant: Fp2 | None
    phi: Isogeny

    @property
    def ctx(self) -> FieldCtx:
        return self.curve.ctx


def epsilon_p(d: int, p: int) -> int:
    """The sign eps with psi^2 = [eps*d] * Frobenius.

    For d in {2, 3, 7} this is -legendre(-d, p):
      d=2: +1 iff p = 5, 7 (mod 8); d=3: +1 iff p = 2 (mod 3);
      d=7: +1 iff p = 3, 5, 6 (mod 7).
    For d=5 the isogeny is rational over F_p(sqrt(-1)) itself, so the sign
    is +1 for every valid p (p = 3 mod 4).  d=1 is the subfield case, +1.
    """
    if d == 1:
        return 1
    if d not in FAMILY_DEGREES:
        raise UntabulatedError(f"no family of degree {d}")
    if d == 5:
        if p % 4 != 3:
            raise ResidueClassError("degree-5 family requires p = 3 (mod 4)")
        return 1
    return -legendre(-d % p, p)


# The builders are written once, over a ring R: they use only R.elem, R.one(),
# R.delta, +, -, *, int scalars and a division by an int.  build_family_curve
# runs them on a FieldCtx with s an int; qcurve.generic runs the same
# functions over Q[s, delta][sqrt(delta)], with s and delta indeterminates,
# and there feeds their kernels and curves to the kernel identities of
# qcurve.isogeny, the one copy of each that velu_quotient and _velu_maps run
# too, so it proves their kernels and codomains for every p.  A parameter the
# family excludes (s = 0 or 11s = 2 for d = 5, s^2 delta = -27 for d = 7)
# gives A = B = 0, which Curve refuses as singular.


def _build_d2(R, s):
    C = R.elem(9, 9 * s)
    A = 2 * (C - 24)
    B = -8 * (C - 16)
    F = (R.elem(-4), R.one())
    return A, B, C, F


def _build_d3(R, s):
    C = R.elem(2, 2 * s)
    A = -3 * (2 * C + 1)
    B = C * C + 10 * C - 2
    F = (R.elem(-3), R.one())
    return A, B, C, F


def _build_d5(R, s):
    u = 11 * s - 2
    A = R.elem(3 * (6 * s * s + 6 * s - 1), -20 * s * (s - 1)) * (-27 * s * u)
    B = R.elem(13 * s * s + 59 * s - 9, -2 * (s - 1) * (20 * s + 9)) * (54 * s * s * u * u)
    c = R.elem(2, -1) * (3 * s * u)
    tail = R.elem(1, s)
    # The kernel polynomial f0 x^2 - 2 f0 c x + f0 c^2 + 81 s u tail^2,
    # f0 = 1 + 2i, made monic: 1/f0 = (1 - 2i)/5 because i^2 = delta = -1,
    # which build_family_curve enforces for d = 5.
    F = (c * c + R.elem(1, -2) / 5 * (81 * s * u) * tail * tail, -2 * c, R.one())
    return A, B, None, F


def _build_d7(R, s):
    w = s * s * R.delta
    C = R.elem(7 * (27 + w))
    A = -3 * C * R.elem(85 + 15 * w, 96 * s)
    B = 14 * C * R.elem(9 * (3 * w * w + 130 * w + 171), 16 * (9 * w + 163) * s)
    g = R.elem(1, -s)
    h = R.elem(27, s)
    k = 16 * g * g * C
    F = (-(C * C * C) + 3 * k * C - 4 * k * g * h, 3 * C * C - 3 * k, -3 * C, R.one())
    return A, B, C, F


_BUILDERS = {2: _build_d2, 3: _build_d3, 5: _build_d5, 7: _build_d7}


def _twisting_square(R, d: int):
    """l^2 of the degree-d family over the ring R: -1/d, or (1 + 2i)^-2 for
    d = 5 (where delta = -1).  post_twist by l lands the Velu quotient on
    the conjugate curve (proven in qcurve.generic)."""
    if d == 5:
        w = R.elem(1, 2)
        return (w * w).inverse()
    return -(R.one() / d)


@functools.cache
def _twisting_factor(p: int, delta: int, d: int) -> tuple[int, int]:
    """l of the degree-d family, the root that post_twist composes with the
    Velu quotient, as an int pair, once per process, field and degree: the
    canonical square root of _twisting_square.  The root costs 25 us for
    d = 2 and 65 us for d = 5 at p = 2^127 - 1 (CPython 3.11), which a
    second build skips."""
    lam = _twisting_square(FieldCtx(p, delta), d).sqrt()
    return lam.a, lam.b


_MIN_P = {2: 3, 3: 3, 5: 5, 7: 7}


def build_family_curve(d: int, ctx: FieldCtx, s: int) -> FamilyCurve:
    """Construct the degree-d family member with parameter s, together with
    its isogeny onto the conjugate curve.

    The kernel polynomial is the builder's, proven a kernel for every p the
    residue rules allow (qcurve.generic), so its Velu maps are expanded
    without velu_quotient's kernel checks (isogeny._velu_maps).  The cheap
    checks stay: the member's and the codomain's discriminants (a singular
    member is a root of the proof's degeneracy polynomials), the expanded
    map's normalized degree, and phi's codomain against conj(E)."""
    if d not in FAMILY_DEGREES:
        raise UntabulatedError(f"no family of degree {d}")
    p = ctx.p
    if p <= _MIN_P[d]:
        raise ResidueClassError(f"degree-{d} family requires p > {_MIN_P[d]}")
    if d == 5:
        if p % 4 != 3:
            raise ResidueClassError("degree-5 family requires p = 3 (mod 4)")
        if ctx.delta != p - 1:
            raise ResidueClassError("degree-5 family requires delta = -1")
    s %= p
    A, B, C, F = _BUILDERS[d](ctx, s)
    try:
        curve = Curve(A, B)
    except DegenerateParameterError as exc:
        raise DegenerateParameterError(f"s={s} gives a singular curve") from exc
    lam = Fp2(ctx, *_twisting_factor(p, ctx.delta, d))
    phi = post_twist(_velu_maps(curve, d, F), lam)
    if phi.codomain != curve.conjugate():
        raise DegenerateParameterError(
            f"the twisting factor does not land the degree-{d} quotient on the conjugate curve"
        )
    return FamilyCurve(d, s, curve, C, phi)


def gls_endo(ctx: FieldCtx, a0: int, b0: int, twisted: bool = False) -> "Endo":
    """The degenerate d=1 construction: a curve with subfield coefficients,
    phi the identity, psi plain coordinate conjugation.

    psi fixes the F_p-rational points; the interesting endomorphism is the
    twisted psi', whose square is [-1] on the rational points of the twist.
    """
    curve = Curve(ctx.elem(a0), ctx.elem(b0))
    family = FamilyCurve(1, None, curve, None, identity_isogeny(curve))
    return Endo(family, twisted=twisted)


class Endo:
    """The endomorphism psi = (p-power map) o phi of a family curve, or its
    twisted counterpart psi' acting on the quadratic twist.

    Both are one isogeny onto the conjugate curve followed by conjugating
    the image.  For psi it is the family's own phi.  For psi' it is phi
    read through the twist by the canonical nonsquare mu, an isogeny from
    the twist E' to conj(E') with x-map conj(mu) * X(x/mu) and constant
    -c * mu^((p-1)/2) (isogeny.quadratic_twist).  ``__call__``, the one way
    to evaluate psi or psi', reads the isogeny's int-pair image of P, the
    one that ``Isogeny.__call__`` wraps, and conjugates it on the ints.

    ``target`` is p + eps (p - eps twisted): [r]psi(Q) = [target]Q on every
    rational point Q.
    """

    __slots__ = ("family", "twisted", "eps", "target", "curve", "isogeny")

    def __init__(self, family: FamilyCurve, twisted: bool = False):
        self.family = family
        self.twisted = twisted
        ctx = family.ctx
        self.eps = epsilon_p(family.d, ctx.p)
        self.isogeny = quadratic_twist(family.phi) if twisted else family.phi
        self.curve = self.isogeny.domain
        self.target = ctx.p - self.eps if twisted else ctx.p + self.eps

    @property
    def d(self) -> int:
        return self.family.d

    def __call__(self, P: Point) -> Point:
        image = self.isogeny._image(P)
        if image is None:
            return INFINITY
        ctx = self.curve.ctx
        x0, x1, y0, y1 = image
        return Point(Fp2(ctx, x0, -x1), Fp2(ctx, y0, -y1))

    def __repr__(self):
        kind = "psi'" if self.twisted else "psi"
        return f"Endo({kind}, d={self.d}, eps={self.eps})"


def determine_r(endo: Endo, trace: int | None = None) -> int:
    """The integer r with d*r^2 = 2p + eps*trace and [r]psi = [p] + eps*pi
    (minus eps*pi on the twist), i.e. [r]psi(Q) = [target]Q on rational
    points, target = endo.target.

    At p <= ORACLE_MAX_P the trace defaults to the oracle trace and a
    supplied one is checked against it: against the count kept on
    endo.family.curve, so a curve its caller has counted is not enumerated
    again. Above, it must be supplied (OracleGuardError otherwise). The
    trace fixes q = |r|, and one rule at every p fixes the sign on the same
    8 hash-derived points. Each of them must satisfy [q]psi(Q) =
    +-[target]Q. The first witness, a Q with [target]Q != -[target]Q,
    decides the sign: both signs holding would give [2*target]Q = O. With
    no witness among them the positive root is returned. With q = 0, psi
    is not evaluated: each point must have [target]Q = O.

    Each point costs one joint loop D = [target]Q - [q]psi(Q)
    (Curve._mul2): 127 doublings on the paper instances at p = 2^127 - 1,
    where [target]Q and [q]psi(Q) apart take 189-190. D = O is the sign +,
    and then, with g = gcd(q, target), Q is a witness exactly when
    [2g]psi(Q) != O. If both signs hold, [2q]psi(Q) = O and
    [2*target]psi(Q) = psi([2*target]Q) = O, so the order of psi(Q) divides
    2g; conversely [2g]psi(Q) = O gives [2*target]Q = [2q]psi(Q) = O. With
    g = 1 (both paper instances) the test reads psi(Q) != O and
    y(psi(Q)) != 0, with no multiplication. D != O rules the sign + out on
    Q, and the sign - holds exactly when D = -[2q]psi(Q), a second loop of
    about 65 doublings.
    """
    p = endo.family.ctx.p
    d, eps = endo.d, endo.eps
    if trace is None or p <= ORACLE_MAX_P:
        oracle_t = oracle_trace(endo.family.curve)
        if trace is not None and trace != oracle_t:
            raise TraceError(f"supplied trace {trace} contradicts the oracle trace {oracle_t}")
        trace = oracle_t
    if abs(trace) > 2 * p:
        raise TraceError("trace violates the Hasse bound")
    v = 2 * p + eps * trace
    if v % d:
        raise TraceError("trace inconsistent with family: 2p + eps*t not divisible by d")
    q = math.isqrt(v // d)
    if d * q * q != v:
        raise TraceError("trace inconsistent with family: (2p + eps*t)/d is not a square")
    target = endo.target
    curve = endo.curve
    g = math.gcd(q, target)
    for seed in range(8):
        Q = random_point(curve, seed)
        if not q:
            if curve.mul(target, Q).is_infinity:
                continue
        else:
            R = endo(Q)
            D = curve._mul2(target, Q, -q, R)
            if D.is_infinity:
                # A witness: [g]psi(Q) is neither O nor of order 2.
                if g > 1:
                    R = curve._mul2(g, R, 0, INFINITY)
                if not R.is_infinity and R.y:
                    return q
                continue
            if D == curve._mul2(-2 * q, R, 0, INFINITY):
                return -q
        raise TraceError("neither sign of r satisfies the endomorphism relation")
    return q


def group_orders(endo: Endo, r: int) -> tuple[int, int]:
    """(#E(F_{p^2}), #E'(F_{p^2})) from the eps/d/r data; the sum is always
    2(p^2 + 1)."""
    p = endo.family.ctx.p
    d, eps = endo.d, endo.eps
    base = (p + eps) ** 2 - eps * d * r * r
    twist = (p - eps) ** 2 + eps * d * r * r
    return base, twist


def eigenvalue(endo: Endo, r: int, order: int) -> int:
    """The eigenvalue of psi (or psi') on a stable cyclic subgroup of the
    given order: endo.target / r mod order."""
    if r == 0:
        raise SupersingularError("supersingular curve has no eigenvalue decomposition")
    if math.gcd(r, order) != 1:
        raise StructureError("gcd(r, N) != 1: eigenvalue undefined")
    return endo.target * pow(r, -1, order) % order


def subfield_order(ctx: FieldCtx, a0: int, b0: int) -> int:
    """#E(F_p) = p + 1 + sum over x of legendre(x^3 + a0*x + b0, p), for a
    curve with subfield coefficients; small primes only."""
    p = ctx.p
    if p > 512:
        raise OracleGuardError("subfield enumeration is for small primes only")
    return p + 1 + sum(legendre(x * x * x + a0 * x + b0, p) for x in range(p))
