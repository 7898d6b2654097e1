"""Quotient isogenies for kernels of order 2, 3, 5, and 7.

The rational maps are expanded once at construction, in the standard
form (x, y) -> (X(x), c * y * X'(x)) with X = N/D, where N and D are
polynomials over F_{p^2} and c is one constant: a composed twisting
isomorphism (x, y) -> (l^2 x, l^3 y) scales N by l^2 and c by l
(post_twist), and the quadratic twist by mu makes c' = -c * mu^((p-1)/2)
(quadratic_twist).  This module caches nothing: the family builders own l
(families._twisting_factor), and fields owns mu and its power
(fields._twist_constants).

A kernel is its monic polynomial, given as an ascending tuple of Fp2.
velu_quotient checks any caller's kernel modulo itself: the division
polynomial and the doubling map are only ever formed modulo the kernel
polynomial, by products reduced at once (poly_mulmod).  Then it expands the
maps (_velu_maps).  The family builders' kernels are proven once, for every
p, over Z[s, delta][sqrt(delta)] (qcurve.generic), so family builds call
_velu_maps alone.
"""

from __future__ import annotations

from .errors import DegenerateParameterError, KernelError, OffCurveError
from .fields import Fp2, _inverse_pair, _twist_constants
from .weierstrass import INFINITY, Curve, Point

# The polynomial kernel.  A polynomial over F_{p^2} = F_p(s), s^2 = delta, is
# a pair (re, im) of int lists, ascending, with the coefficient of x^i equal
# to re[i] + im[i]*s, 0 <= re[i], im[i] < p, and trimmed: the top coefficient
# is nonzero, and the zero polynomial is ([], []).  Every function returns
# that form, takes the field last and changes none of its arguments; it also
# accepts coefficients that are not reduced, as built here straight from a
# curve's coefficients.  A product of coefficients is written out on the
# ints, with delta as its least absolute residue d; sums of products are left
# unreduced and each output coefficient is reduced once.  A polynomial is
# evaluated by one Horner pass on int pairs (_horner), which Isogeny.raw_maps
# runs: an isogeny's maps at a point are computed on int pairs, the one
# inversion of the denominator's value too (fields._inverse_pair), so they
# build no Fp2.


def _reduced(re, im, p):
    """Reduce the new lists re and im in place, and trim them."""
    for k in range(len(re)):
        re[k] %= p
        im[k] %= p
    while re and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    return re, im


def poly_add(f, g, ctx):
    (fr, fi), (gr, gi) = f, g
    n = min(len(fr), len(gr))
    re = [a + b for a, b in zip(fr, gr)] + fr[n:] + gr[n:]
    im = [a + b for a, b in zip(fi, gi)] + fi[n:] + gi[n:]
    return _reduced(re, im, ctx.p)


def poly_sub(f, g, ctx):
    (fr, fi), (gr, gi) = f, g
    n = min(len(fr), len(gr))
    re = [a - b for a, b in zip(fr, gr)] + fr[n:] + [-b for b in gr[n:]]
    im = [a - b for a, b in zip(fi, gi)] + fi[n:] + [-b for b in gi[n:]]
    return _reduced(re, im, ctx.p)


def poly_scale(f, c, ctx):
    """f times the constant c, an int pair (c0, c1) for c0 + c1*s."""
    c0, c1 = c
    dc1 = ctx.signed_delta * c1
    fr, fi = f
    return _reduced([a * c0 + dc1 * b for a, b in zip(fr, fi)], [a * c1 + b * c0 for a, b in zip(fr, fi)], ctx.p)


def poly_deriv(f, ctx):
    fr, fi = f
    return _reduced([i * c for i, c in enumerate(fr)][1:], [i * c for i, c in enumerate(fi)][1:], ctx.p)


def _products(f, g, d):
    """The coefficients of f * g as int pairs, each a sum of unreduced products."""
    (fr, fi), (gr, gi) = f, g
    n = len(fr) + len(gr) - 1
    re, im = [0] * n, [0] * n
    row = list(zip(gr, gi))
    i = 0
    for a, b in zip(fr, fi):
        db = d * b
        k = i
        for c, e in row:
            re[k] += a * c + db * e
            im[k] += a * e + b * c
            k += 1
        i += 1
    return re, im


def _fold(re, im, m, p, d):
    """(re, im), with unreduced coefficients, modulo the monic m.  Each top
    coefficient is reduced once, to fold it into the ones below; the
    remainder is reduced once at the end.  Consumes re and im."""
    mr, mi = m
    e = len(mr) - 1
    low = list(zip(range(e), mr, mi))
    while len(re) > e:
        q0 = re.pop() % p
        q1 = im.pop() % p
        if q0 or q1:
            shift = len(re) - e
            dq1 = d * q1
            for k, c, s in low:
                k += shift
                re[k] -= q0 * c + dq1 * s
                im[k] -= q0 * s + q1 * c
    return _reduced(re, im, p)


def _require_monic(m):
    if not m[0] or m[0][-1] != 1 or m[1][-1]:
        raise ValueError("poly_rem needs a monic divisor")


def poly_mul(f, g, ctx):
    if not f[0] or not g[0]:
        return [], []
    return _reduced(*_products(f, g, ctx.signed_delta), ctx.p)


def poly_rem(f, m, ctx):
    """Remainder of f modulo the monic polynomial m."""
    _require_monic(m)
    return _fold(list(f[0]), list(f[1]), m, ctx.p, ctx.signed_delta)


def poly_mulmod(f, g, m, ctx):
    """f * g modulo the monic polynomial m, reduced once per coefficient."""
    _require_monic(m)
    if not f[0] or not g[0]:
        return [], []
    d = ctx.signed_delta
    return _fold(*_products(f, g, d), m, ctx.p, d)


def _horner(f, x0, x1, p, d):
    """(f(x), f'(x)) at x = x0 + x1*s as reduced int pairs (v0, v1, u0, u1),
    by one Horner pass from the leading coefficient.

    The derivative accumulator starts at the leading coefficient too, so
    f'(x) costs deg f - 1 products on top of the deg f of f(x)."""
    fr, fi = f
    if len(fr) < 2:
        return (fr[0], fi[0], 0, 0) if fr else (0, 0, 0, 0)
    dx1 = d * x1
    u0, u1 = fr[-1], fi[-1]
    v0 = (u0 * x0 + dx1 * u1 + fr[-2]) % p
    v1 = (u0 * x1 + u1 * x0 + fi[-2]) % p
    for c0, c1 in zip(fr[-3::-1], fi[-3::-1]):
        u0, u1 = (u0 * x0 + dx1 * u1 + v0) % p, (u0 * x1 + u1 * x0 + v1) % p
        v0, v1 = (v0 * x0 + dx1 * v1 + c0) % p, (v0 * x1 + v1 * x0 + c1) % p
    return v0, v1, u0, u1


def _kernel_poly(cs) -> tuple[list[int], list[int]]:
    """An ascending, trimmed sequence of Fp2 as an (re, im) pair of int lists."""
    return [c.a for c in cs], [c.b for c in cs]


def _cubic_mod(curve: Curve, F):
    """x^3 + Ax + B modulo the monic kernel polynomial F."""
    A, B = curve.A, curve.B
    return poly_rem(([B.a, A.a, 0, 1], [B.b, A.b, 0, 0]), F, curve.ctx)


def division_polynomial(curve: Curve, l: int, F):
    """psi_l modulo the monic kernel polynomial F, for odd l >= 3.

    psi_l is the univariate l-division polynomial, whose roots are exactly
    the x-coordinates of the nonzero l-torsion points.  It is never expanded:
    the standard recurrence (Washington, Elliptic Curves, 3.2) runs on f_n,
    which is psi_n for odd n and psi_n / y for even n, with y^2 replaced by
    R = x^3 + Ax + B and every product taken modulo F.  A product with a
    constant, such as f_1 = 1, f_2 = 2 or f_2^3 = 8, is a scaling."""
    if l < 3 or l % 2 == 0:
        raise KernelError(f"division polynomials are for odd l >= 3, not {l}")
    return _division_mod(curve, l, F, _cubic_mod(curve, F) if l > 3 else None)


def _division_mod(curve: Curve, l: int, F, R):
    """division_polynomial(curve, l, F) for odd l >= 3, given
    R = x^3 + Ax + B mod F (_cubic_mod), which l = 3 does not read:
    velu_quotient folds the cubic once for this and for its own D = 4R."""
    ctx = curve.ctx
    d = ctx.signed_delta
    A0, A1, B0, B1 = curve.A.a, curve.A.b, curve.B.a, curve.B.b
    AA0, AA1 = A0 * A0 + d * A1 * A1, 2 * A0 * A1
    # The base cases are folded from unreduced coefficients.
    f = {
        1: ([1], [0]),
        2: ([2], [0]),
        3: poly_rem(([-AA0, 12 * B0, 6 * A0, 0, 3], [-AA1, 12 * B1, 6 * A1, 0, 0]), F, ctx),
    }
    if l > 3:
        # f_4 = 4(x^6 + 5Ax^4 + 20Bx^3 - 5A^2x^2 - 4ABx - 8B^2 - A^3)
        AAA0, AAA1 = AA0 * A0 + d * AA1 * A1, AA0 * A1 + AA1 * A0
        AB0, AB1 = A0 * B0 + d * A1 * B1, A0 * B1 + A1 * B0
        BB0, BB1 = B0 * B0 + d * B1 * B1, 2 * B0 * B1
        f[4] = poly_rem(
            (
                [-32 * BB0 - 4 * AAA0, -16 * AB0, -20 * AA0, 80 * B0, 20 * A0, 0, 4],
                [-32 * BB1 - 4 * AAA1, -16 * AB1, -20 * AA1, 80 * B1, 20 * A1, 0, 0],
            ),
            F,
            ctx,
        )
        R2 = poly_mulmod(R, R, F, ctx)
    half = ((ctx.p + 1) // 2, 0)
    cubes = {}

    def times(g, h):
        if len(h[0]) == 1:
            g, h = h, g
        if len(g[0]) == 1:
            return poly_scale(h, (g[0][0], g[1][0]), ctx)
        return poly_mulmod(g, h, F, ctx)

    def cube(n):
        if n not in cubes:
            cubes[n] = times(times(fn(n), fn(n)), fn(n))
        return cubes[n]

    def fn(n):
        if n not in f:
            m = n // 2
            if n % 2:
                # f_(2m+1) = f_(m+2) f_m^3 - f_(m-1) f_(m+1)^3, where R^2 = y^4
                # multiplies the term whose two factors have even index.
                lo = times(fn(m + 2), cube(m))
                hi = times(fn(m - 1), cube(m + 1))
                if m % 2:
                    hi = times(R2, hi)
                else:
                    lo = times(R2, lo)
                f[n] = poly_sub(lo, hi, ctx)
            else:
                # f_2m = f_m (f_(m+2) f_(m-1)^2 - f_(m-2) f_(m+1)^2) / 2.
                left = times(fn(m + 2), times(fn(m - 1), fn(m - 1)))
                right = times(fn(m - 2), times(fn(m + 1), fn(m + 1)))
                f[n] = poly_scale(times(fn(m), poly_sub(left, right, ctx)), half, ctx)
        return f[n]

    return fn(l)


class Isogeny:
    """A separable isogeny between short Weierstrass curves in the standard
    form (x, y) -> (X(x), c * y * X'(x)), X = num/den as polynomials of the
    kernel above and c in Fp2.  psi evaluates phi and conjugates the image
    (families.Endo), so no conjugate isogeny is needed."""

    __slots__ = ("domain", "codomain", "degree", "num", "den", "c")

    def __init__(self, domain, codomain, degree, num, den, c):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self.num = num
        self.den = den
        self.c = c

    def raw_maps(self, x0: int, x1: int) -> tuple[int, int, int, int] | None:
        """(X(x), c * X'(x)) at x = x0 + x1*s, as the reduced int pairs
        (u0, u1, w0, w1), or None when x maps to infinity.  The quotients
        share the one inversion of the denominator's value."""
        ctx = self.domain.ctx
        p, d = ctx.p, ctx.signed_delta
        dv0, dv1, dd0, dd1 = _horner(self.den, x0, x1, p, d)
        if not (dv0 or dv1):
            return None
        nv0, nv1, dn0, dn1 = _horner(self.num, x0, x1, p, d)
        i0, i1 = _inverse_pair(dv0, dv1, p, d)
        # u = N/D and du = (N' - u D')/D, then c * du.
        u0 = (nv0 * i0 + d * nv1 * i1) % p
        u1 = (nv0 * i1 + nv1 * i0) % p
        t0 = (dn0 - u0 * dd0 - d * u1 * dd1) % p
        t1 = (dn1 - u0 * dd1 - u1 * dd0) % p
        w0 = (t0 * i0 + d * t1 * i1) % p
        w1 = (t0 * i1 + t1 * i0) % p
        c0, c1 = self.c.a, self.c.b
        return u0, u1, (c0 * w0 + d * c1 * w1) % p, (c0 * w1 + c1 * w0) % p

    def _image(self, P: Point) -> tuple[int, int, int, int] | None:
        """P's image as int pairs (x0, x1, y0, y1), y unreduced, or None for
        infinity: the one evaluation behind __call__ and families.Endo."""
        x, y = P
        if x is None:
            return None
        domain = self.domain
        if not domain.is_on(P):
            raise OffCurveError("isogeny argument is not on the domain curve")
        maps = self.raw_maps(x.a, x.b)
        if maps is None:
            return None
        u0, u1, w0, w1 = maps
        d = domain.ctx.signed_delta
        y0, y1 = y.a, y.b
        return u0, u1, y0 * w0 + d * y1 * w1, y0 * w1 + y1 * w0

    def __call__(self, P: Point) -> Point:
        image = self._image(P)
        if image is None:
            return INFINITY
        ctx = self.domain.ctx
        x0, x1, y0, y1 = image
        return Point(Fp2(ctx, x0, x1), Fp2(ctx, y0, y1))

    def __repr__(self):
        return f"Isogeny(degree {self.degree}, {self.domain!r} -> {self.codomain!r})"


def velu_quotient(curve: Curve, d: int, F: tuple[Fp2, ...]) -> Isogeny:
    """The normalized quotient isogeny E -> E/S for the degree-d subgroup S
    whose monic kernel polynomial is F, an ascending tuple: x - alpha for
    d = 2, degree (d-1)/2 for d = 3, 5, 7, so len(F) == d // 2 + 1.

    Any caller's kernel is checked exactly, at every p: alpha must be a
    root of x^3 + Ax + B; an odd F must divide the d-division polynomial,
    and its roots must be closed under the x-map of doubling, so that they
    are the abscissas of one cyclic subgroup of order d (Velu 1971; Kohel
    1996).  Both checks work modulo F: psi_d mod F comes from the
    recurrence in division_polynomial, and F(N, D) from Horner's rule,
    reduced product by product.  x^3 + Ax + B is folded modulo F once, for
    the recurrence's y^2 and for D = 4(x^3 + Ax + B).  KernelError
    otherwise.  The family builders' kernels are proven to pass both checks
    for every p (qcurve.generic), so families.build_family_curve expands
    the maps without them (_velu_maps)."""
    ctx = curve.ctx
    if d not in (2, 3, 5, 7):
        raise KernelError(f"unsupported kernel degree {d}")
    F = tuple(ctx.coerce(c) for c in F)
    if len(F) != d // 2 + 1:
        raise KernelError(f"a degree-{d} kernel polynomial has degree {d // 2}, not {len(F) - 1}")
    if F[-1] != 1:
        raise KernelError("kernel polynomial is not monic")
    if d == 2:
        if any(curve._cubic(-F[0])):
            raise KernelError("alpha is not a two-torsion x-coordinate")
        return _velu_maps(curve, d, F)
    Fk = _kernel_poly(F)
    R = _cubic_mod(curve, Fk)
    if _division_mod(curve, d, Fk, R)[0]:
        raise KernelError(f"kernel polynomial does not divide the {d}-division polynomial")
    # Doubling maps x to N(x)/D(x), and 2 generates (Z/d)^*/{+-1}, so the
    # (d-1)/2 roots of F are the abscissas of one cyclic subgroup exactly
    # when F divides the homogenised F(N, D) = sum of F_i N^i D^(e-i),
    # formed by Horner's rule from F_e = 1: its first step is N + F_(e-1) D.
    A, B = curve.A, curve.B
    AA = A * A
    N = poly_rem(([AA.a, -8 * B.a, -2 * A.a, 0, 1], [AA.b, -8 * B.b, -2 * A.b, 0, 0]), Fk, ctx)
    D = Dk = poly_scale(R, (4, 0), ctx)
    FND = poly_add(N, poly_scale(D, (F[-2].a, F[-2].b), ctx), ctx)
    for c in F[-3::-1]:
        Dk = poly_mulmod(Dk, D, Fk, ctx)
        FND = poly_add(poly_mulmod(N, FND, Fk, ctx), poly_scale(Dk, (c.a, c.b), ctx), ctx)
    if FND[0]:
        raise KernelError("kernel polynomial's roots are not one cyclic subgroup")
    return _velu_maps(curve, d, F)


def _velu_maps(curve: Curve, d: int, F: tuple[Fp2, ...]) -> Isogeny:
    """velu_quotient without its kernel checks: the codomain and the x-map of
    the quotient by a kernel F of the right length and monic, in the field
    of curve.  Only the normalized-degree check of the expanded map, and the
    codomain's discriminant check, remain."""
    ctx = curve.ctx
    A, B = curve.A, curve.B
    one = ctx.one()
    Fk = _kernel_poly(F)
    if d == 2:
        alpha = -F[0]
        t = 3 * alpha * alpha + A
        a_new = -4 * A - 15 * alpha * alpha
        b_new = B - 7 * alpha * t
        num = _kernel_poly((t, -alpha, one))
        den = Fk
    else:
        e = len(F) - 1
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
        # The x-map N/F^2 = (2e + 1)x + 2 r1 - 2(3x^2 + A) F'/F - 4(x^3 + Ax + B)(F'/F)'.
        # Its three products of d + 1 coefficients, and F''F - F'^2 in one, are
        # summed unreduced and reduced once.
        sd = ctx.signed_delta
        rhs4 = ([4 * B.a, 4 * A.a, 0, 4], [4 * B.b, 4 * A.b, 0, 0])  # 4(x^3 + Ax + B)
        Fd = poly_deriv(Fk, ctx)
        den = poly_mul(Fk, Fk, ctx)
        (gr, gi), (hr, hi) = _products(poly_deriv(Fd, ctx), Fk, sd), _products(Fd, Fd, sd)
        wronskian = [g - h for g, h in zip(gr, hr)], [g - h for g, h in zip(gi, hi)]
        lin = _products(([2 * r1.a, 2 * e + 1], [2 * r1.b, 0]), den, sd)
        quad = _products(([2 * A.a, 0, 6], [2 * A.b, 0, 0]), _products(Fd, Fk, sd), sd)
        (ar, ai), (br, bi), (cr, ci) = lin, _products(rhs4, wronskian, sd), quad
        num = _reduced([a - b - c for a, b, c in zip(ar, br, cr)], [a - b - c for a, b, c in zip(ai, bi, ci)], ctx.p)
    codomain = Curve(a_new, b_new)
    (nr, ni), (dr, di) = num, den
    if len(nr) - 1 != d or (nr[-1], ni[-1]) != (dr[-1], di[-1]):
        raise KernelError("expanded map is not a normalized degree-d quotient")
    return Isogeny(curve, codomain, d, num, den, one)


def post_twist(iso: Isogeny, lam: Fp2) -> Isogeny:
    """Compose with the twisting isomorphism (x, y) -> (l^2 x, l^3 y),
    l = lam, any nonzero element of F_{p^2}: it scales num by l^2 and c by
    l, onto the codomain (l^4 A, l^6 B).  lam and -lam give the same
    codomain and num, and opposite c."""
    ctx = iso.domain.ctx
    lam = ctx.coerce(lam)
    if not lam:
        raise DegenerateParameterError("twisting factor is zero")
    l2 = lam * lam
    l4 = l2 * l2
    # Its discriminant is l^12 times that of the checked Velu codomain, l != 0.
    codomain = Curve._nonsingular(l4 * iso.codomain.A, l4 * l2 * iso.codomain.B)
    num = poly_scale(iso.num, (l2.a, l2.b), ctx)
    return Isogeny(iso.domain, codomain, iso.degree, num, iso.den, iso.c * lam)


def quadratic_twist(iso: Isogeny) -> Isogeny:
    """iso: E -> conj(E) read through the twist E' of E by the canonical
    nonsquare mu: an isogeny E' -> conj(E'), which psi' conjugates as psi
    conjugates iso.  Its x-map is conj(mu) * X(x/mu): the x^i coefficients
    of num and den times mu^(n-i), n = deg num (den is then not monic), and
    num times conj(mu).  The twisting isomorphisms and the chain rule give
    the constant c * mu^(-(p-1)(3p+2)/2) = -c * mu^((p-1)/2), since
    mu^((p^2-1)/2) = -1; so Norm(c') = -Norm(c).  mu and mu^((p-1)/2) are
    taken once per field (fields._twist_constants)."""
    domain, mu = iso.domain.quadratic_twist()
    ctx = mu.ctx
    power = Fp2(ctx, *_twist_constants(ctx.p, ctx.delta)[1])
    powers = [ctx.one()]  # mu^n, ..., mu, 1
    for _ in iso.num[0][1:]:  # num is the longer polynomial
        powers.insert(0, powers[0] * mu)
    num, den = (
        _kernel_poly([Fp2(ctx, a, b) * w for a, b, w in zip(fr, fi, powers)]) for fr, fi in (iso.num, iso.den)
    )
    num = poly_scale(num, (mu.a, -mu.b), ctx)
    return Isogeny(domain, domain.conjugate(), iso.degree, num, den, -(iso.c * power))


def identity_isogeny(curve: Curve) -> Isogeny:
    return Isogeny(curve, curve, 1, ([0, 1], [0, 0]), ([1], [0]), curve.ctx.one())
