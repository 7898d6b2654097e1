"""Quotient isogenies for kernels of order 2, 3, 5, and 7.

The rational maps are expanded once at construction: the x-image is
xs * N(x)/D(x) and the y-image is ys * y * (N/D)'(x), where N and D are
polynomials over F_{p^2} and xs, ys accumulate composed twisting
isomorphisms (x, y) -> (l^2 x, l^3 y).

A kernel is its monic polynomial, in the ascending convention of the
polynomial toolkit below.  It is checked modulo itself: the division
polynomial and the doubling map are only ever formed modulo the kernel
polynomial, by products reduced at once (poly_mulmod).
"""

from __future__ import annotations

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


def poly_mulmod(f, g, m):
    """f * g modulo the monic polynomial m."""
    return poly_rem(poly_mul(f, g), m)


def division_polynomial(curve: Curve, l: int, F):
    """psi_l modulo the monic polynomial F, for odd l >= 3.

    psi_l is the univariate l-division polynomial, whose roots are exactly
    the x-coordinates of the nonzero l-torsion points.  It is never expanded:
    the standard recurrence (Washington, Elliptic Curves, 3.2) runs on f_n,
    which is psi_n for odd n and psi_n / y for even n, with y^2 replaced by
    R = x^3 + Ax + B and every product taken modulo F."""
    if l < 3 or l % 2 == 0:
        raise KernelError(f"division polynomials are for odd l >= 3, not {l}")
    ctx = curve.ctx
    A, B = curve.A, curve.B
    e = ctx.elem
    zero = ctx.zero()
    f = {
        1: (ctx.one(),),
        2: (e(2),),
        3: poly_rem((-(A * A), 12 * B, 6 * A, zero, e(3)), F),
    }
    if l > 3:
        # f_4 = 4(x^6 + 5Ax^4 + 20Bx^3 - 5A^2x^2 - 4ABx - 8B^2 - A^3)
        A4, B16 = 4 * A, 16 * B
        A20 = 5 * A4
        f[4] = poly_rem((-(B16 * (B + B) + A4 * A * A), -(A * B16), -(A * A20), 5 * B16, A20, zero, e(4)), F)
        R = poly_rem((B, A, zero, ctx.one()), F)
        R2 = poly_mulmod(R, R, F)
    half = (ctx.p + 1) // 2
    cubes = {}

    def cube(n):
        if n not in cubes:
            cubes[n] = poly_mulmod(poly_mulmod(fn(n), fn(n), F), fn(n), F)
        return cubes[n]

    def fn(n):
        if n not in f:
            m = n // 2
            if n % 2:
                # f_(2m+1) = f_(m+2) f_m^3 - f_(m-1) f_(m+1)^3, where R^2 = y^4
                # multiplies the term whose two factors have even index.
                lo = poly_mulmod(fn(m + 2), cube(m), F)
                hi = poly_mulmod(fn(m - 1), cube(m + 1), F)
                if m % 2:
                    hi = poly_mulmod(R2, hi, F)
                else:
                    lo = poly_mulmod(R2, lo, F)
                f[n] = poly_sub(lo, hi)
            else:
                # f_2m = f_m (f_(m+2) f_(m-1)^2 - f_(m-2) f_(m+1)^2) / 2.
                left = poly_mulmod(fn(m + 2), poly_mulmod(fn(m - 1), fn(m - 1), F), F)
                right = poly_mulmod(fn(m - 2), poly_mulmod(fn(m + 1), fn(m + 1), F), F)
                f[n] = poly_scale(poly_mulmod(fn(m), poly_sub(left, right), F), half)
        return f[n]

    return fn(l)


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


def velu_quotient(curve: Curve, d: int, F: tuple[Fp2, ...]) -> Isogeny:
    """The normalized quotient isogeny E -> E/S for the degree-d subgroup S
    whose monic kernel polynomial is F, an ascending tuple: x - alpha for
    d = 2, degree (d-1)/2 for d = 3, 5, 7, so len(F) == d // 2 + 1.

    The kernel is checked exactly, at every p: alpha must be a root of
    x^3 + Ax + B; an odd F must divide the d-division polynomial, and its
    roots must be closed under the x-map of doubling, so that they are the
    abscissas of one cyclic subgroup of order d (Velu 1971; Kohel 1996).
    Both checks work modulo F: psi_d mod F comes from the recurrence in
    division_polynomial, and F(N, D) is reduced product by product.
    KernelError otherwise."""
    ctx = curve.ctx
    A, B = curve.A, curve.B
    one = ctx.one()
    if d not in (2, 3, 5, 7):
        raise KernelError(f"unsupported kernel degree {d}")
    F = tuple(ctx.coerce(c) for c in F)
    if len(F) != d // 2 + 1:
        raise KernelError(f"a degree-{d} kernel polynomial has degree {d // 2}, not {len(F) - 1}")
    if F[-1] != 1:
        raise KernelError("kernel polynomial is not monic")
    if d == 2:
        alpha = -F[0]
        if alpha * alpha * alpha + A * alpha + B:
            raise KernelError("alpha is not a two-torsion x-coordinate")
        t = 3 * alpha * alpha + A
        a_new = -4 * A - 15 * alpha * alpha
        b_new = B - 7 * alpha * t
        num = (t, -alpha, one)
        den = F
    else:
        e = len(F) - 1
        if division_polynomial(curve, d, F):
            raise KernelError(f"kernel polynomial does not divide the {d}-division polynomial")
        # Doubling maps x to N(x)/D(x), and 2 generates (Z/d)^*/{+-1}, so the
        # (d-1)/2 roots of F are the abscissas of one cyclic subgroup exactly
        # when F divides the homogenised F(N, D) = sum of F_i N^i D^(e-i).
        N = poly_rem((A * A, -8 * B, -2 * A, ctx.zero(), one), F)
        D = poly_rem((4 * B, 4 * A, ctx.zero(), ctx.elem(4)), F)
        FND, Dk = (one,), (one,)
        for c in F[-2::-1]:
            Dk = poly_mulmod(Dk, D, F)
            FND = poly_add(poly_mulmod(N, FND, F), poly_scale(Dk, c))
        if FND:
            raise KernelError("kernel polynomial's roots are not one cyclic subgroup")
        r1, r2, r3 = ((ctx.zero(),) * 2 + F)[-2:-5:-1]  # F_(e-1), F_(e-2), F_(e-3)
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
    iso = Isogeny(curve, codomain, d, num, den, one, one)
    if len(iso.num) - 1 != d or iso.num[-1] != iso.den[-1]:
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
