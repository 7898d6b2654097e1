"""Quotient isogenies for kernels of order 2, 3, 5, and 7.

The rational maps are expanded once at construction: the x-image is
xs * N(x)/D(x) and the y-image is ys * y * (N/D)'(x), where N and D are
polynomials over F_{p^2} and xs, ys accumulate composed twisting
isomorphisms (x, y) -> (l^2 x, l^3 y).

Kernel polynomials are stored with the leading coefficient first and are
not normalised to monic; the coefficient formulas only use ratios f_i/f_0,
which are scale invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateParameterError, KernelError, NotSquareError, OffCurveError
from .fields import Fp2
from .weierstrass import INFINITY, Curve, Point

# Polynomials are tuples of Fp2 coefficients, ascending degree.


def _poly_trim(cs: list[Fp2]) -> tuple[Fp2, ...]:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_add(f, g):
    if not f and not g:
        return ()
    n = max(len(f), len(g))
    zero = (f or g)[0].ctx.zero()
    return _poly_trim(
        [(f[i] if i < len(f) else zero) + (g[i] if i < len(g) else zero) for i in range(n)]
    )


def poly_sub(f, g):
    return poly_add(f, tuple(-c for c in g))


def poly_mul(f, g):
    if not f or not g:
        return ()
    zero = f[0].ctx.zero()
    out = [zero] * (len(f) + len(g) - 1)
    for i, ci in enumerate(f):
        if not ci:
            continue
        for j, cj in enumerate(g):
            out[i + j] = out[i + j] + ci * cj
    return _poly_trim(out)


def poly_scale(f, c):
    return _poly_trim([ci * c for ci in f])


def poly_deriv(f):
    return _poly_trim([i * f[i] for i in range(1, len(f))])


def poly_eval(f, x: Fp2) -> tuple[Fp2, Fp2]:
    """(f(x), f'(x)) by one Horner pass from the leading coefficient.

    The derivative accumulator starts at the leading coefficient too, so
    f'(x) costs deg f - 1 products on top of the deg f of f(x)."""
    if len(f) < 2:
        zero = x.ctx.zero()
        return (f[0] if f else zero), zero
    acc, dacc = f[-1] * x + f[-2], f[-1]
    for c in reversed(f[:-2]):
        dacc = dacc * x + acc
        acc = acc * x + c
    return acc, dacc


def poly_rem(f, g):
    """Remainder of f modulo the monic polynomial g."""
    if not g or g[-1] != g[-1].ctx.one():
        raise ValueError("poly_rem needs a monic divisor")
    r = list(f)
    low = g[:-1]
    while len(r) >= len(g):
        q = r.pop()
        if q:
            shift = len(r) - len(low)
            for i, c in enumerate(low):
                r[shift + i] = r[shift + i] - q * c
    return _poly_trim(r)


@dataclass(frozen=True)
class TwoTorsionKernel:
    """The order-2 subgroup generated by (alpha, 0)."""

    alpha: Fp2

    @property
    def degree(self) -> int:
        return 2


@dataclass(frozen=True)
class OddKernel:
    """An odd-order subgroup given by its kernel polynomial.

    ``coeffs`` lists f_0 ... f_e with the leading coefficient first, so the
    polynomial is sum(f_i * x^(e - i)) of degree e = (d - 1)/2.
    """

    coeffs: tuple[Fp2, ...]

    @property
    def degree(self) -> int:
        return 2 * (len(self.coeffs) - 1) + 1


KernelSpec = TwoTorsionKernel | OddKernel


def division_polynomial(curve: Curve, d: int):
    """The univariate d-division polynomial for odd d in {3, 5, 7}.

    Roots are exactly the x-coordinates of the nonzero d-torsion points.
    """
    ctx = curve.ctx
    A, B = curve.A, curve.B
    e = ctx.elem
    psi3 = (-(A * A), 12 * B, 6 * A, e(0), e(3))
    if d == 3:
        return psi3
    rhs = (B, A, e(0), e(1))  # x^3 + Ax + B
    g4 = (
        -(8 * B * B + A * A * A),
        -4 * A * B,
        -5 * A * A,
        20 * B,
        5 * A,
        e(0),
        e(1),
    )
    rhs2 = poly_mul(rhs, rhs)
    psi3cube = poly_mul(poly_mul(psi3, psi3), psi3)
    psi5 = poly_sub(poly_scale(poly_mul(rhs2, g4), e(32)), psi3cube)
    if d == 5:
        return psi5
    if d == 7:
        g4cube = poly_mul(poly_mul(g4, g4), g4)
        return poly_sub(poly_mul(psi5, psi3cube), poly_scale(poly_mul(rhs2, g4cube), e(128)))
    raise KernelError(f"unsupported kernel degree {d}")


class Isogeny:
    """A separable isogeny between short Weierstrass curves, stored as an
    expanded rational x-map plus twisting scale factors."""

    __slots__ = ("domain", "codomain", "degree", "num", "den", "x_scale", "y_scale")

    def __init__(self, domain, codomain, degree, num, den, x_scale, y_scale):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self.num = num
        self.den = den
        self.x_scale = x_scale
        self.y_scale = y_scale

    def raw_maps(self, x: Fp2) -> tuple[Fp2, Fp2] | None:
        """(x-image, y-multiplier) at x, or None when x maps to infinity."""
        dv, ddv = poly_eval(self.den, x)
        if not dv:
            return None
        nv, dnv = poly_eval(self.num, x)
        inv_dv = dv.inverse()
        u = nv * inv_dv
        du = (dnv - u * ddv) * inv_dv
        return self.x_scale * u, self.y_scale * du

    def __call__(self, P: Point) -> Point:
        if P.is_infinity:
            return INFINITY
        if not self.domain.is_on(P):
            raise OffCurveError("isogeny argument is not on the domain curve")
        maps = self.raw_maps(P.x)
        if maps is None:
            return INFINITY
        u, du = maps
        return Point(u, P.y * du)

    def conjugate(self) -> "Isogeny":
        """The Galois-conjugate isogeny between the conjugate curves."""
        num, den = (tuple(c.conjugate() for c in f) for f in (self.num, self.den))
        return Isogeny(self.domain.conjugate(), self.codomain.conjugate(), self.degree, num, den,
                       self.x_scale.conjugate(), self.y_scale.conjugate())

    def rescaled(self, domain: Curve, codomain: Curve, c: Fp2, x_factor: Fp2, y_factor: Fp2) -> "Isogeny":
        """(x, y) -> (x_factor * X(x/c), y_factor * y * Y(x/c)) between the
        given curves, where (X(x), y * Y(x)) is this isogeny.  Reading a
        polynomial at x/c scales its x^i coefficient by c^-i, and the chain
        rule (f(x/c))' = f'(x/c)/c leaves a factor c for the y-scale."""
        ci = c.inverse()
        powers = [c.ctx.one()]
        for _ in self.num[1:]:  # num is the longer polynomial
            powers.append(powers[-1] * ci)
        num, den = (tuple(f * w for f, w in zip(poly, powers)) for poly in (self.num, self.den))
        return Isogeny(domain, codomain, self.degree, num, den, x_factor * self.x_scale, y_factor * c * self.y_scale)

    def __repr__(self):
        return f"Isogeny(degree {self.degree}, {self.domain!r} -> {self.codomain!r})"


def velu_quotient(curve: Curve, kernel: KernelSpec) -> Isogeny:
    """The normalized quotient isogeny E -> E/S for the given kernel.

    The kernel is checked exactly, at every p: alpha must be a root of
    x^3 + Ax + B; an odd kernel polynomial F of degree (d-1)/2 must divide
    the d-division polynomial, and its roots must be closed under the
    x-map of doubling, so that they are the abscissas of one cyclic
    subgroup of order d (Velu 1971; Kohel 1996).  KernelError otherwise."""
    ctx = curve.ctx
    A, B = curve.A, curve.B
    one = ctx.one()
    if isinstance(kernel, TwoTorsionKernel):
        alpha = ctx.coerce(kernel.alpha)
        if alpha * alpha * alpha + A * alpha + B:
            raise KernelError("alpha is not a two-torsion x-coordinate")
        t = 3 * alpha * alpha + A
        a_new = -4 * A - 15 * alpha * alpha
        b_new = B - 7 * alpha * t
        num = (t, -alpha, one)
        den = (-alpha, one)
        degree = 2
    else:
        coeffs = tuple(ctx.coerce(c) for c in kernel.coeffs)
        degree = kernel.degree
        if degree not in (3, 5, 7):
            raise KernelError(f"unsupported kernel degree {degree}")
        if not coeffs[0]:
            raise KernelError("kernel polynomial has zero leading coefficient")
        e = len(coeffs) - 1
        F = tuple(reversed(coeffs))
        monic = poly_scale(F, coeffs[0].inverse())  # same remainders as F
        if poly_rem(division_polynomial(curve, degree), monic):
            raise KernelError(
                f"kernel polynomial does not divide the {degree}-division polynomial"
            )
        # Doubling maps x to N(x)/D(x), and 2 generates (Z/d)^*/{+-1}, so the
        # (d-1)/2 roots of F are the abscissas of one cyclic subgroup exactly
        # when F divides the homogenised F(N, D) = sum of F_i N^i D^(e-i).
        N = poly_rem((A * A, -8 * B, -2 * A, ctx.zero(), one), monic)
        D = poly_rem((4 * B, 4 * A, ctx.zero(), ctx.elem(4)), monic)
        FND, Dk = (coeffs[0],), (one,)
        for c in coeffs[1:]:
            Dk = poly_mul(Dk, D)
            FND = poly_add(poly_mul(N, FND), poly_scale(Dk, c))
        if poly_rem(FND, monic):
            raise KernelError("kernel polynomial's roots are not one cyclic subgroup")
        r1, r2, r3 = (monic[::-1] + (ctx.zero(),) * 2)[1:4]  # f_i / f_0
        # Kohel: A' = A - 5t and B' = B - 7w, with t = 6(s1^2 - 2 s2) + 2An
        # and w = 10(s1^3 - 3 s1 s2 + 3 s3) + 6A s1 + 4Bn, n = e, and the
        # symmetric functions of F's roots s1 = -r1, s2 = r2, s3 = -r3.
        a_new = (1 - 10 * e) * A - 30 * r1 * r1 + 60 * r2
        b_new = (
            (1 - 28 * e) * B
            + 42 * A * r1
            + 70 * r1 * r1 * r1
            - 210 * r1 * r2
            + 210 * r3
        )
        Fd = poly_deriv(F)
        Fdd = poly_deriv(Fd)
        F2 = poly_mul(F, F)
        rhs = (B, A, ctx.zero(), one)  # x^3 + Ax + B
        lin = (2 * r1, ctx.elem(2 * e + 1))
        num = poly_sub(
            poly_mul(lin, F2),
            poly_scale(poly_mul(rhs, poly_sub(poly_mul(Fdd, F), poly_mul(Fd, Fd))), ctx.elem(4)),
        )
        num = poly_sub(num, poly_scale(poly_mul((A, ctx.zero(), ctx.elem(3)), poly_mul(Fd, F)), ctx.elem(2)))
        den = F2
    codomain = Curve(a_new, b_new)
    iso = Isogeny(curve, codomain, degree, num, den, one, one)
    if len(iso.num) - 1 != degree or iso.num[-1] != iso.den[-1]:
        raise KernelError("expanded map is not a normalized degree-d quotient")
    return iso


def post_twist(iso: Isogeny, lam2: Fp2) -> Isogeny:
    """Compose with the twisting isomorphism (x, y) -> (l^2 x, l^3 y) where
    l is the canonical square root of lam2; lam2 must be a square so the
    composite stays rational over F_{p^2}.  Only the scales change."""
    lam2 = iso.domain.ctx.coerce(lam2)
    if not lam2:
        raise DegenerateParameterError("twisting factor is zero")
    lam = lam2.sqrt()
    if lam is None:
        raise NotSquareError("twisting factor is not a square in F_{p^2}")
    l4 = lam2 * lam2
    # Its discriminant is l^12 times that of the checked Velu codomain, l != 0.
    codomain = Curve._nonsingular(l4 * iso.codomain.A, l4 * lam2 * iso.codomain.B)
    return Isogeny(iso.domain, codomain, iso.degree, iso.num, iso.den, iso.x_scale * lam2, iso.y_scale * lam * lam2)


def identity_isogeny(curve: Curve) -> Isogeny:
    one = curve.ctx.one()
    return Isogeny(curve, curve, 1, (curve.ctx.zero(), one), (one,), one, one)
