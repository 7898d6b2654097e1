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
This module owns each kernel identity once, written over any ring:
the remainder and product modulo a monic F (_rem, _mulmod), the
division-polynomial recurrence (_division_mod), the doubling closure
(_doubling_closure), the two-torsion root test (_two_torsion) and Velu's
and Kohel's codomain (_quotient_codomain).  velu_quotient runs them on Fp2
to check any caller's kernel, then expands the maps (_velu_maps), whose
codomain is _quotient_codomain's.  qcurve.generic runs the same functions
over Z[s, delta][sqrt(delta)] and so proves the family builders' kernels
for every p; family builds call _velu_maps alone.
"""

from __future__ import annotations

from .errors import DegenerateParameterError, KernelError, OffCurveError
from .fields import Fp2, _inverse_pair, _twist_constants
from .weierstrass import INFINITY, Curve, Point

# The polynomial kernel of the maps.  A polynomial over F_{p^2} = F_p(s),
# s^2 = delta, is a pair (re, im) of int lists, ascending, with the
# coefficient of x^i equal to re[i] + im[i]*s, 0 <= re[i], im[i] < p, and
# trimmed: the top coefficient is nonzero, and the zero polynomial is
# ([], []).  Every function returns that form, takes the field last and
# changes none of its arguments; it also accepts coefficients that are not
# reduced, as built here straight from a curve's coefficients.  A product of
# coefficients is written out on the ints, with delta as its least absolute
# residue d; sums of products are left unreduced and each output coefficient
# is reduced once.  A polynomial is evaluated by one Horner pass on int pairs
# (_horner), which Isogeny.raw_maps runs: an isogeny's maps at a point are
# computed on int pairs, the one inversion of the denominator's value too
# (fields._inverse_pair), so they build no Fp2.


def _reduced(re, im, p):
    """Reduce the new lists re and im in place, and trim them."""
    for k in range(len(re)):
        re[k] %= p
        im[k] %= p
    while re and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    return re, im


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


def poly_mul(f, g, ctx):
    if not f[0] or not g[0]:
        return [], []
    return _reduced(*_products(f, g, ctx.signed_delta), ctx.p)


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


# The kernel identities, each written once, over any ring whose elements have
# +, -, *, int scalars, a division by an int, bool and == 1: FieldCtx's Fp2, on
# which velu_quotient checks a caller's kernel and _velu_maps takes its
# codomain, and generic.Elem, on which generic.prove_families proves the
# family builders' kernels for every p.  A polynomial here is an ascending,
# trimmed list of ring elements.  A function that needs the ring's constants
# takes the ring itself as R (R.elem, R.zero(), R.one()), as the family
# builders do.


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _rem(f, F):
    """f modulo the monic F; KernelError if F is zero or not monic."""
    if not F or F[-1] != 1:
        raise KernelError("the modulus must be a monic polynomial")
    f = list(f)
    e = len(F) - 1
    while len(f) > e:
        q = f.pop()
        if q:
            base = len(f) - e
            for k in range(e):
                f[base + k] = f[base + k] - q * F[k]
    return _trim(f)


def _mulmod(f, g, F):
    """f * g modulo the monic F, by the schoolbook product."""
    if not (f and g):
        return _rem([], F)
    out = [a * g[0] for a in f] + [f[-1] * b for b in g[1:]]
    for i, a in enumerate(f[:-1]):
        for j in range(1, len(g)):
            out[i + j] = out[i + j] + a * g[j]
    return _rem(out, F)


def _add_scaled(f, c, g):
    """f + c * g, for a ring element or int c."""
    n = min(len(f), len(g))
    return _trim([a + c * b for a, b in zip(f, g)] + f[n:] + [c * b for b in g[n:]])


def _division_mod(R, A, B, l, F):
    """psi_l modulo the monic F for odd l >= 3, on y^2 = x^3 + Ax + B over R.

    psi_l is the univariate l-division polynomial, whose roots are exactly
    the x-coordinates of the nonzero l-torsion points.  It is never expanded:
    the standard recurrence (Washington, Elliptic Curves, 3.2) runs on f_n,
    which is psi_n for odd n and psi_n / y for even n, with y^2 replaced by
    x^3 + Ax + B and every product taken modulo F.  f_3 and f_4 are closed
    forms; f_5 = 8 y^4 f_4 - f_3^3 and f_7 = f_5 f_3^3 - 2 y^4 f_4^3 are the
    recurrence's first odd steps, and only l >= 9 halves an even one."""
    zero = R.zero()
    f = {
        1: [R.one()],
        2: [R.elem(2)],
        3: _rem([-(A * A), 12 * B, 6 * A, zero, R.elem(3)], F),
    }
    if l > 3:
        # f_4 = 4(x^6 + 5Ax^4 + 20Bx^3 - 5A^2x^2 - 4ABx - 8B^2 - A^3)
        f[4] = _rem([-32 * B * B - 4 * A * A * A, -16 * A * B, -20 * A * A, 80 * B, 20 * A, zero, R.elem(4)], F)
        y2 = _rem([B, A, zero, R.one()], F)
        y4 = _mulmod(y2, y2, F)
    cubes = {}

    def cube(n):
        if n not in cubes:
            cubes[n] = _mulmod(_mulmod(fn(n), fn(n), F), fn(n), F)
        return cubes[n]

    def fn(n):
        if n not in f:
            m = n // 2
            if n % 2:
                # f_(2m+1) = f_(m+2) f_m^3 - f_(m-1) f_(m+1)^3, where y^4
                # multiplies the term whose two factors have even index.
                lo = _mulmod(fn(m + 2), cube(m), F)
                hi = _mulmod(fn(m - 1), cube(m + 1), F)
                if m % 2:
                    hi = _mulmod(y4, hi, F)
                else:
                    lo = _mulmod(y4, lo, F)
                f[n] = _add_scaled(lo, -1, hi)
            else:
                # f_2m = f_m (f_(m+2) f_(m-1)^2 - f_(m-2) f_(m+1)^2) / 2.
                left = _mulmod(fn(m + 2), _mulmod(fn(m - 1), fn(m - 1), F), F)
                right = _mulmod(fn(m - 2), _mulmod(fn(m + 1), fn(m + 1), F), F)
                f[n] = [c / 2 for c in _mulmod(fn(m), _add_scaled(left, -1, right), F)]
        return f[n]

    return fn(l)


def _doubling_closure(R, A, B, F):
    """The homogenised F(N, D) = sum of F_i N^i D^(e-i) modulo the monic F of
    degree e >= 1, where N/D = (x^4 - 2Ax^2 - 8Bx + A^2) / (4(x^3 + Ax + B))
    is the x-map of doubling; by Horner's rule from F_e = 1, so its first
    step is N + F_(e-1) D.  It is zero exactly when F divides F(N, D)."""
    zero = R.zero()
    N = _rem([A * A, -8 * B, -2 * A, zero, R.one()], F)
    D = Dk = _rem([4 * B, 4 * A, zero, R.elem(4)], F)
    FND = _add_scaled(N, F[-2], D)
    for c in F[-3::-1]:
        Dk = _mulmod(Dk, D, F)
        FND = _add_scaled(_mulmod(N, FND, F), c, Dk)
    return FND


def _two_torsion(A, B, F):
    """Whether the root alpha of F = x - alpha is a root of x^3 + Ax + B."""
    alpha = -F[0]
    return not (alpha * alpha * alpha + A * alpha + B)


def _quotient_codomain(A, B, d, F):
    """(A', B') of the quotient of y^2 = x^3 + Ax + B by the kernel F: Velu's
    (A - 5t, B - 7 alpha t), t = 3 alpha^2 + A, for d = 2; for odd d Kohel's
    A' = A - 5t and B' = B - 7w, with t = 6(s1^2 - 2 s2) + 2An and
    w = 10(s1^3 - 3 s1 s2 + 3 s3) + 6A s1 + 4Bn, n = e = deg F, from the
    symmetric functions of F's roots s1 = -r1, s2 = r2, s3 = -r3, where
    r1, r2, r3 are F_(e-1), F_(e-2), F_(e-3)."""
    if d == 2:
        alpha = -F[0]
        t = 3 * alpha * alpha + A
        return A - 5 * t, B - 7 * alpha * t
    e = len(F) - 1
    r1, r2, r3 = ([0, 0] + list(F))[-2:-5:-1]  # the int 0 below F_0
    a_new = (1 - 10 * e) * A - 30 * r1 * r1 + 60 * r2
    b_new = (1 - 28 * e) * B + 42 * A * r1 + 70 * r1 * r1 * r1 - 210 * r1 * r2 + 210 * r3
    return a_new, b_new


def division_polynomial(curve: Curve, l: int, F) -> list[Fp2]:
    """psi_l modulo the monic kernel polynomial F, an ascending sequence of
    Fp2, for odd l >= 3, as an ascending, trimmed list of Fp2 (_division_mod).
    KernelError for any other l, or if F is zero or not monic."""
    if l < 3 or l % 2 == 0:
        raise KernelError(f"division polynomials are for odd l >= 3, not {l}")
    ctx = curve.ctx
    return _division_mod(ctx, curve.A, curve.B, l, [ctx.coerce(c) for c in F])

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

    Any caller's kernel is checked exactly, at every p, by the kernel
    identities above on Fp2: alpha must be a root of x^3 + Ax + B
    (_two_torsion); an odd F must divide the d-division polynomial
    (_division_mod), and F(N, D) must vanish modulo F (_doubling_closure).
    Doubling maps x to N(x)/D(x), and 2 generates (Z/d)^*/{+-1}, so the
    roots of F are then the abscissas of one cyclic subgroup of order d
    (Velu 1971; Kohel 1996).  KernelError otherwise.  The family builders'
    kernels pass the same functions for every p (qcurve.generic), so
    families.build_family_curve expands the maps without them (_velu_maps)."""
    ctx = curve.ctx
    if d not in (2, 3, 5, 7):
        raise KernelError(f"unsupported kernel degree {d}")
    F = tuple(ctx.coerce(c) for c in F)
    if len(F) != d // 2 + 1:
        raise KernelError(f"a degree-{d} kernel polynomial has degree {d // 2}, not {len(F) - 1}")
    if F[-1] != 1:
        raise KernelError("kernel polynomial is not monic")
    A, B = curve.A, curve.B
    if d == 2:
        if not _two_torsion(A, B, F):
            raise KernelError("alpha is not a two-torsion x-coordinate")
    elif _division_mod(ctx, A, B, d, F):
        raise KernelError(f"kernel polynomial does not divide the {d}-division polynomial")
    elif _doubling_closure(ctx, A, B, F):
        raise KernelError("kernel polynomial's roots are not one cyclic subgroup")
    return _velu_maps(curve, d, F)


def _velu_maps(curve: Curve, d: int, F: tuple[Fp2, ...]) -> Isogeny:
    """velu_quotient without its kernel checks: the codomain
    (_quotient_codomain) and the x-map of the quotient by a kernel F of the
    right length and monic, in the field of curve.  Only the
    normalized-degree check of the expanded map, and the codomain's
    discriminant check, remain."""
    ctx = curve.ctx
    A, B = curve.A, curve.B
    one = ctx.one()
    Fk = _kernel_poly(F)
    a_new, b_new = _quotient_codomain(A, B, d, F)
    if d == 2:
        # X = x + t/(x - alpha), t = 3 alpha^2 + A.
        alpha = -F[0]
        num = _kernel_poly((3 * alpha * alpha + A, -alpha, one))
        den = Fk
    else:
        e = len(F) - 1
        r1 = F[-2]
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
