import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurve.errors import DegenerateParameterError, DomainError, KernelError, OffCurveError
from qcurve.families import _BUILDERS, Endo, _twisting_factor, build_family_curve, epsilon_p, gls_endo
from qcurve.fields import FieldCtx, Fp2, legendre
from qcurve.isogeny import (
    _mulmod,
    _rem,
    division_polynomial,
    identity_isogeny,
    poly_deriv,
    poly_mul,
    post_twist,
    velu_quotient,
)
from qcurve.weierstrass import INFINITY, Curve, Point, curve_points, oracle_order, random_point

from conftest import (
    MERSENNE_127,
    ctx_for,
    from_kernel,
    poly_eval,
    ref_add,
    ref_mul,
    ref_rem,
    ref_sub,
    ref_trim,
    to_kernel,
)


def d2_family(p, s):
    """The degree-2 family curve and its order-2 quotient, untwisted."""
    fam = build_family_curve(2, ctx_for(p), s)
    quotient = velu_quotient(fam.curve, 2, (fam.ctx.elem(-4), fam.ctx.one()))
    return fam, quotient


def d3_family(p, s):
    fam = build_family_curve(3, ctx_for(p), s)
    ctx = fam.ctx
    quotient = velu_quotient(fam.curve, 3, (ctx.elem(-3), ctx.one()))
    return fam, quotient


def reference_division_polynomial(curve, d):
    """The univariate d-division polynomial for odd d in {3, 5, 7}, as an
    Fp2 tuple expanded in full from psi_3 and g_4 = psi_4 / (4y)."""
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
    rhs2 = ref_mul(rhs, rhs)
    psi3cube = ref_mul(ref_mul(psi3, psi3), psi3)
    psi5 = ref_sub(ref_mul((e(32),), ref_mul(rhs2, g4)), psi3cube)
    if d == 5:
        return psi5
    if d == 7:
        g4cube = ref_mul(ref_mul(g4, g4), g4)
        return ref_sub(ref_mul(psi5, psi3cube), ref_mul((e(128),), ref_mul(rhs2, g4cube)))
    raise KernelError(f"unsupported kernel degree {d}")


def vanishes(curve, l, x0):
    """Whether psi_l(x0) = 0, read as psi_l modulo x - x0."""
    return not division_polynomial(curve, l, (-x0, curve.ctx.one()))


def random_curve(ctx, rng):
    while True:
        try:
            return Curve(*(ctx.elem(rng.randrange(ctx.p), rng.randrange(ctx.p)) for _ in range(2)))
        except DegenerateParameterError:
            continue


class TestDivisionPolynomial:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_roots_are_torsion_abscissas(self, d):
        curve = Curve(ctx_for(7).elem(1), ctx_for(7).elem(4))
        ctx = curve.ctx
        torsion_x = {
            (P.x.a, P.x.b)
            for P in curve_points(curve)
            if not P.is_infinity and curve.mul(d, P).is_infinity
        }
        for a in range(7):
            for b in range(7):
                x = Fp2(ctx, a, b)
                if vanishes(curve, d, x):
                    P = curve.lift_x(x)
                    if P is not None:
                        assert (a, b) in torsion_x
        for key in torsion_x:
            assert vanishes(curve, d, Fp2(ctx, *key))

    @pytest.mark.parametrize(
        "ctx",
        [ctx_for(11), FieldCtx(13, 2), ctx_for(23), ctx_for(MERSENNE_127)],
        ids=["11", "13-delta2", "23", "2^127-1"],
    )
    @pytest.mark.parametrize("l", [3, 5, 7])
    def test_matches_reduced_expansion(self, ctx, l):
        # Random monic moduli of degree 1, 2, 3, 5 and one above deg psi_l,
        # where the reduction leaves the expansion whole.
        rng = random.Random(ctx.p + l)
        for _ in range(3):
            curve = random_curve(ctx, rng)
            full = reference_division_polynomial(curve, l)
            for degree in (1, 2, 3, 5, len(full)):
                F = tuple(ctx.elem(rng.randrange(ctx.p), rng.randrange(ctx.p)) for _ in range(degree)) + (ctx.one(),)
                assert division_polynomial(curve, l, F) == list(ref_rem(full, F))

    @pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23])
    def test_linear_moduli_find_torsion_abscissas(self, p):
        # psi_l mod (x - x0) is psi_l(x0): it vanishes at the abscissa of a
        # point exactly when that point is l-torsion.  Each l gets a curve
        # whose order l divides, so that both answers occur.
        ctx = ctx_for(p)
        rng = random.Random(p)
        for l in range(3, 14, 2):
            curve = next(c for c in (random_curve(ctx, rng) for _ in range(1000)) if oracle_order(c) % l == 0)
            points = curve_points(curve)[1:]
            torsion_x = {P.x for P in points if curve.mul(l, P).is_infinity}
            assert torsion_x
            for x0 in {P.x for P in points}:
                assert vanishes(curve, l, x0) == (x0 in torsion_x)

    @pytest.mark.parametrize("l", [-1, 0, 1, 2, 4, 6])
    def test_rejects_even_or_small_index(self, l):
        curve = Curve(ctx_for(7).elem(1), ctx_for(7).elem(4))
        with pytest.raises(KernelError, match="odd l >= 3"):
            division_polynomial(curve, l, (curve.ctx.one(),))


class TestVeluCodomain:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_degree2_quotient_is_twisted_conjugate(self, p):
        # E/<(4,0)> equals the conjugate curve twisted by sqrt(-2):
        # coefficients (4*conj(A), -8*conj(B)).
        for s in range(p):
            fam, quotient = d2_family(p, s)
            conj = fam.curve.conjugate()
            assert quotient.codomain == Curve(4 * conj.A, -8 * conj.B)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_degree3_quotient_is_twisted_conjugate(self, p):
        # E/S with S cut out by x - 3 equals the conjugate twisted by
        # sqrt(-3): coefficients (9*conj(A), -27*conj(B)).
        for s in range(p):
            fam, quotient = d3_family(p, s)
            conj = fam.curve.conjugate()
            assert quotient.codomain == Curve(9 * conj.A, -27 * conj.B)

    @pytest.mark.parametrize("p", [5, 11, 13])
    def test_post_twist_lands_on_conjugate(self, p):
        fam, quotient = d2_family(p, 1)
        phi = post_twist(quotient, (-(fam.ctx.one() / 2)).sqrt())
        assert phi.codomain == fam.curve.conjugate()

    def test_normalized_leading_behavior(self):
        """The Velu quotient is normalised: num and den share their leading
        coefficient.  phi = post_twist(quotient, l) scales num by l^2."""
        for d, p, s in ((2, 11, 1), (3, 11, 1), (5, 11, 2), (7, 11, 1)):
            ctx = ctx_for(p)
            fam = build_family_curve(d, ctx, s)
            _, _, _, F = _BUILDERS[d](ctx, fam.s)
            lam = ctx.elem(*_twisting_factor(p, ctx.delta, d))
            quotient = velu_quotient(fam.curve, d, F)
            for iso, lead in ((quotient, ctx.one()), (fam.phi, lam * lam)):
                num, den = (from_kernel(f, ctx) for f in (iso.num, iso.den))
                assert len(num) - 1 == d
                assert len(den) - 1 == d - 1
                assert num[-1] == lead * den[-1]


class TestEval:
    def test_infinity_and_kernel_map_to_infinity(self):
        fam, quotient = d2_family(11, 3)
        assert quotient(INFINITY).is_infinity
        kernel_point = fam.curve.point(fam.ctx.elem(4), fam.ctx.zero())
        assert quotient(kernel_point).is_infinity
        fam3, quotient3 = d3_family(11, 3)
        sigma_c = fam3.constant.conjugate()
        for y in (sigma_c, -sigma_c):
            P = fam3.curve.point(fam3.ctx.elem(3), y)
            assert quotient3(P).is_infinity

    def test_off_curve_rejected(self):
        fam, quotient = d2_family(11, 3)
        with pytest.raises(OffCurveError):
            quotient(Point(fam.ctx.elem(1), fam.ctx.elem(1)))

    @pytest.mark.parametrize("p", [5, 7])
    def test_homomorphism_exhaustive(self, p):
        fam, quotient = d2_family(p, 1)
        pts = curve_points(fam.curve)
        for P in pts:
            for Q in pts:
                lhs = quotient(fam.curve.add(P, Q))
                rhs = quotient.codomain.add(quotient(P), quotient(Q))
                assert lhs == rhs

    def test_degree_to_one_fibers(self):
        fam, quotient = d2_family(7, 1)
        fibers = {}
        for P in curve_points(fam.curve):
            img = quotient(P)
            key = "inf" if img.is_infinity else (img.x.a, img.x.b, img.y.a, img.y.b)
            fibers[key] = fibers.get(key, 0) + 1
        assert all(size == 2 for size in fibers.values())

    @pytest.mark.parametrize("dps", [(2, 13, 5), (3, 13, 4), (5, 11, 3), (7, 13, 2)])
    def test_conjugate_composition_is_multiplication_by_eps_d(self, dps):
        d, p, s = dps
        fam = build_family_curve(d, ctx_for(p), s)
        eps = epsilon_p(d, p)

        def conj(P):
            return INFINITY if P.is_infinity else Point(P.x.conjugate(), P.y.conjugate())

        # phi^sigma(Q) = conj(phi(conj(Q))): the conjugate isogeny is phi
        # between conjugated points.
        for P in curve_points(fam.curve):
            assert conj(fam.phi(conj(fam.phi(P)))) == fam.curve.mul(eps * d, P)


class TestKernelValidation:
    def test_rejects_non_torsion_alpha(self):
        fam, _ = d2_family(11, 3)
        ctx = fam.ctx
        alpha = ctx.elem(5)
        assert alpha * alpha * alpha + fam.curve.A * alpha + fam.curve.B
        with pytest.raises(KernelError):
            velu_quotient(fam.curve, 2, (-alpha, ctx.one()))

    def test_rejects_polynomial_outside_torsion(self):
        fam, _ = d3_family(11, 3)
        ctx = fam.ctx
        with pytest.raises(KernelError):
            velu_quotient(fam.curve, 3, (ctx.elem(-5), ctx.one()))

    def test_rejects_non_monic_polynomial(self):
        # 2x - 6 has the genuine kernel root 3; scaling is still rejected,
        # with velu_quotient's own message.
        fam, _ = d3_family(11, 3)
        ctx = fam.ctx
        with pytest.raises(KernelError, match="not monic"):
            velu_quotient(fam.curve, 3, (ctx.elem(-6), ctx.elem(2)))

    @pytest.mark.parametrize(
        "d,length,cause",
        [
            pytest.param(5, 2, "has degree 2, not 1", id="d5-linear"),
            pytest.param(2, 3, "has degree 1, not 2", id="d2-quadratic"),
            pytest.param(4, 3, "unsupported kernel degree 4", id="d4"),
            pytest.param(9, 5, "unsupported kernel degree 9", id="d9"),
        ],
    )
    def test_rejects_wrong_degree(self, d, length, cause):
        fam, _ = d3_family(11, 3)
        ctx = fam.ctx
        F = (ctx.elem(-3),) + (ctx.zero(),) * (length - 2) + (ctx.one(),)
        with pytest.raises(KernelError, match=cause):
            velu_quotient(fam.curve, d, F)

    @pytest.mark.parametrize("p,a0,b0", [(11, 2, 4), (71, 1, 10)])
    def test_rejects_mixed_subgroup_kernel(self, p, a0, b0):
        # Every 5-torsion abscissa of these curves lies in F_{p^2}.  Two of
        # them from different cyclic subgroups give a kernel polynomial that
        # divides psi_5 but is not closed under doubling; an abscissa and
        # that of its double give a genuine kernel.
        ctx = FieldCtx(p, -1)
        curve = Curve(ctx.elem(a0), ctx.elem(b0))
        A, B = curve.A, curve.B
        psi5 = reference_division_polynomial(curve, 5)
        roots = [x for a in range(p) for b in range(p) if not poly_eval(to_kernel(psi5), x := ctx.elem(a, b))[0]]
        assert len(roots) == 12
        x1 = roots[0]
        twice = (x1**4 - 2 * A * x1 * x1 - 8 * B * x1 + A * A) / (4 * (x1**3 + A * x1 + B))
        other = next(x for x in roots if x not in (x1, twice))

        def kernel(u, v):
            return (u * v, -(u + v), ctx.one())

        assert division_polynomial(curve, 5, kernel(x1, other)) == []
        with pytest.raises(KernelError, match="not one cyclic subgroup"):
            velu_quotient(curve, 5, kernel(x1, other))
        iso = velu_quotient(curve, 5, kernel(x1, twice))
        assert iso.degree == 5


def reference_velu(curve, d, F):
    """velu_quotient(curve, d, F) on the reference helpers, for a monic F of
    the right length: (codomain, num, den) as Fp2 tuples, or the same
    KernelError.  psi_d and F(N, D) are expanded in full and divided by F;
    the codomain is Velu's (A - 5t, B - 7w), from the power sums of F's roots
    by Newton's identities; the x-map is Kohel's
    N/F^2 = d x - 2 s1 - 2(3x^2 + A) F'/F - 4(x^3 + Ax + B)(F'/F)'."""
    ctx = curve.ctx
    A, B = curve.A, curve.B
    zero, one = ctx.zero(), ctx.one()
    if d == 2:
        alpha = -F[0]
        if alpha**3 + A * alpha + B:
            raise KernelError("alpha is not a two-torsion x-coordinate")
        t = 3 * alpha**2 + A
        return Curve(A - 5 * t, B - 7 * alpha * t), (t, -alpha, one), F
    e = len(F) - 1
    if ref_rem(reference_division_polynomial(curve, d), F):
        raise KernelError(f"kernel polynomial does not divide the {d}-division polynomial")
    N = (A * A, -8 * B, -2 * A, zero, one)
    D = (4 * B, 4 * A, zero, ctx.elem(4))
    FND = ()
    for i, c in enumerate(F):
        term = (c,)
        for factor in (N,) * i + (D,) * (e - i):
            term = ref_mul(term, factor)
        FND = ref_add(FND, term)
    if ref_rem(FND, F):
        raise KernelError("kernel polynomial's roots are not one cyclic subgroup")
    s1, s2, s3 = (F[e - k] * (-1) ** k if k <= e else zero for k in (1, 2, 3))
    p1 = s1
    p2 = s1 * p1 - 2 * s2
    p3 = s1 * p2 - s2 * p1 + 3 * s3
    t = 6 * p2 + 2 * A * e
    w = 10 * p3 + 6 * A * p1 + 4 * B * e

    def deriv(f):
        return ref_trim(i * c for i, c in enumerate(f) if i)

    Fd = deriv(F)
    F2 = ref_mul(F, F)
    num = ref_mul((-2 * p1, ctx.elem(d)), F2)
    num = ref_sub(num, ref_mul((2 * A, zero, ctx.elem(6)), ref_mul(Fd, F)))
    num = ref_sub(num, ref_mul((4 * B, 4 * A, zero, ctx.elem(4)), ref_sub(ref_mul(deriv(Fd), F), ref_mul(Fd, Fd))))
    if len(num) - 1 != d or num[-1] != F2[-1]:
        raise KernelError("expanded map is not a normalized degree-d quotient")
    return Curve(A - 5 * t, B - 7 * w), num, F2


def velu_outcome(curve, d, F):
    try:
        iso = velu_quotient(curve, d, F)
    except DomainError as exc:
        return type(exc), str(exc)
    return iso.codomain, from_kernel(iso.num, curve.ctx), from_kernel(iso.den, curve.ctx)


def reference_outcome(curve, d, F):
    try:
        return reference_velu(curve, d, F)
    except DomainError as exc:
        return type(exc), str(exc)


class TestVeluReference:
    """velu_quotient against reference_velu on every family kernel and on
    subgroup kernels of random curves, and on the same kernel with its
    constant term moved by 1, which the checks must reject with the same
    error."""

    @staticmethod
    def assert_matches(curve, d, F):
        for G in (F, (F[0] + 1,) + F[1:]):
            assert velu_outcome(curve, d, G) == reference_outcome(curve, d, G)

    # delta = -1 at p = 11 and 23; delta = 2 at p = 13 runs the generic
    # int-pair products (there the d=5 kernels are not kernels, and both
    # sides must reject them alike).
    @pytest.mark.parametrize("p", [11, 13, 23])
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_every_member(self, d, p):
        ctx = ctx_for(p)
        built = 0
        for s in range(p):
            try:
                A, B, _, F = _BUILDERS[d](ctx, s)
                curve = Curve(A, B)
            except DegenerateParameterError:
                continue
            self.assert_matches(curve, d, F)
            built += 1
        assert built >= p - 2

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_subgroup_kernels_off_the_subfield(self, d):
        # The kernels of order-d subgroups of random curves at p = 13 with
        # delta = 2.  Each is accepted, so the map is expanded, and their
        # F_(e-1) leaves F_p, as no family kernel's does there, so the closure
        # check's first Horner step and Kohel's products by delta act on both
        # halves of each int pair.
        ctx = ctx_for(13)
        rng = random.Random(d)
        kernels = []
        while len(kernels) < 4:
            curve = random_curve(ctx, rng)
            P = next((P for P in curve_points(curve)[1:] if curve.mul(d, P).is_infinity), None)
            if P is None:
                continue
            F, Q = (ctx.one(),), P
            for _ in range(d // 2):
                F = ref_mul(F, (-Q.x, ctx.one()))
                Q = curve.add(Q, P)
            assert isinstance(velu_outcome(curve, d, F)[0], Curve)
            self.assert_matches(curve, d, F)
            kernels.append(F)
        assert any(F[-2].b for F in kernels)

    # The paper instances, then the d=3 and d=7 members that
    # tests/test_families.py::BUILD_COUNTS counts, whose Kohel sums reach
    # about 2 (d=3) and 3 (d=7) times p's bit length before their one
    # reduction.
    @pytest.mark.parametrize("d,s", [(2, 28106), (5, 7930), (3, 10400), (7, 1)])
    def test_paper_instances(self, d, s):
        ctx = FieldCtx(MERSENNE_127, -1)
        A, B, _, F = _BUILDERS[d](ctx, s)
        self.assert_matches(Curve(A, B), d, F)


KERNEL_CTXS = [ctx_for(7), ctx_for(11), FieldCtx(13, 2), ctx_for(23), ctx_for(MERSENNE_127)]
KERNEL_CTX_IDS = ["7", "11", "13-delta2", "23", "2^127-1"]


@st.composite
def fp2_polys(draw, ctx, max_len=9, monic=False):
    """An ascending Fp2 tuple, trimmed, often with zero coefficients; monic
    ones are nonzero and end in 1."""
    p = ctx.p
    coefficient = st.tuples(st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1), st.integers(0, p - 1) | st.just(0))
    cs = [ctx.elem(*c) for c in draw(st.lists(coefficient, max_size=max_len - monic))]
    return tuple(cs) + (ctx.one(),) if monic else ref_trim(cs)


class TestPolynomials:
    @pytest.mark.parametrize("ctx", KERNEL_CTXS, ids=KERNEL_CTX_IDS)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_kernel_matches_reference(self, ctx, data):
        f = data.draw(fp2_polys(ctx))
        g = data.draw(fp2_polys(ctx))
        m = data.draw(fp2_polys(ctx, max_len=6, monic=True))
        x = data.draw(st.builds(ctx.elem, st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1)))
        fk = to_kernel(f)
        assert poly_mul(fk, to_kernel(g), ctx) == to_kernel(ref_mul(f, g))
        assert _rem(f, m) == list(ref_rem(f, m))
        assert _mulmod(f, g, m) == list(ref_rem(ref_mul(f, g), m))
        value, slope = poly_eval(fk, x)
        assert value == sum((c * x**i for i, c in enumerate(f)), ctx.zero())
        assert slope == sum((i * c * x ** (i - 1) for i, c in enumerate(f) if i), ctx.zero())

    @pytest.mark.parametrize("ctx", KERNEL_CTXS, ids=KERNEL_CTX_IDS)
    def test_kernel_edge_cases(self, ctx):
        e = ctx.elem
        zero, one = (), (ctx.one(),)
        const = (e(3, 1),)
        f = (e(2), e(0, 5), e(1, 1))
        linear, quadratic = (e(0, 5), ctx.one()), (e(2), e(0, 5), ctx.one())
        long_monic = (e(1), e(4, 2), e(0), e(5), ctx.one())
        cases = [(zero, f, one), (f, zero, quadratic), (const, f, long_monic), (f, const, one),
                 (const, const, linear), (f, f, long_monic), (long_monic, f, quadratic), (f, f, linear)]
        for a, b, m in cases:
            assert poly_mul(to_kernel(a), to_kernel(b), ctx) == to_kernel(ref_mul(a, b))
            assert _rem(a, m) == list(ref_rem(a, m))
            assert _mulmod(a, b, m) == list(ref_rem(ref_mul(a, b), m))
        # A divisor longer than the dividend leaves it whole.
        assert _rem(f, long_monic) == list(f)
        assert poly_eval(to_kernel(zero), e(3)) == (ctx.zero(), ctx.zero())
        assert poly_eval(to_kernel(const), e(3)) == (const[0], ctx.zero())

    @pytest.mark.parametrize("p", [11, MERSENNE_127])
    def test_eval_derivative_matches_poly_deriv(self, p):
        ctx = ctx_for(p)
        rng = random.Random(p)
        for length in range(9):
            for _ in range(4):
                f = tuple(ctx.elem(rng.randrange(p), rng.randrange(p)) for _ in range(length))
                x = ctx.elem(rng.randrange(p), rng.randrange(p))
                value, slope = poly_eval(to_kernel(f), x)
                assert value == sum((c * x**i for i, c in enumerate(f)), ctx.zero())
                assert slope == poly_eval(poly_deriv(to_kernel(f), ctx), x)[0]

    def test_rem_needs_monic_divisor(self):
        ctx = ctx_for(11)
        e = ctx.elem
        curve = Curve(e(1), e(4))
        f = (e(3), e(5), ctx.one())
        assert _rem(f, (e(2), ctx.one())) == [e(8)]  # f(-2)
        # Zero, 1 + 2x, 3s + sx, 5 + (1 + s)x and 3, s^2 = delta.
        for g in ((), (e(1), e(2)), (e(0, 3), e(0, 1)), (e(5), e(1, 1)), (e(3),)):
            with pytest.raises(KernelError, match="monic"):
                _rem(f, g)
            with pytest.raises(KernelError, match="monic"):
                _mulmod(f, f, g)
            with pytest.raises(KernelError, match="monic"):
                division_polynomial(curve, 5, g)


class TestPostTwist:
    def test_unit_twist_changes_nothing_up_to_sign(self):
        fam, quotient = d2_family(11, 2)
        same = post_twist(quotient, fam.ctx.one())
        assert same.codomain == quotient.codomain
        for seed in range(3):
            P = random_point(fam.curve, seed)
            img, img2 = quotient(P), same(P)
            assert img2 in (img, quotient.codomain.neg(img))

    def test_twist_then_untwist_is_plus_minus_identity(self):
        fam, quotient = d2_family(11, 2)
        lam = fam.ctx.elem(3, 1)
        twisted = post_twist(quotient, lam)
        back = post_twist(twisted, lam.inverse())
        assert back.codomain == quotient.codomain
        for seed in range(3):
            P = random_point(fam.curve, seed)
            img, img2 = quotient(P), back(P)
            assert img2 in (img, quotient.codomain.neg(img))

    def test_zero_twist_rejected(self):
        # l = 0 would send every point to (0, 0) on the singular curve
        # y^2 = x^3.
        fam, quotient = d2_family(11, 2)
        with pytest.raises(DegenerateParameterError):
            post_twist(quotient, fam.ctx.zero())

    @staticmethod
    def parts(iso):
        A, B = iso.codomain.A, iso.codomain.B
        return iso.num, iso.den, iso.c, (A.a, A.b, B.a, B.b)

    def test_opposite_roots_differ_only_in_c(self):
        # l and -l give one twisting isomorphism up to [-1]: the same l^2
        # and codomain, and opposite constants.
        for p in (11, 13, MERSENNE_127):
            fam, quotient = d2_family(p, 2)
            lam = fam.ctx.elem(3, 7)
            plus, minus = post_twist(quotient, lam), post_twist(quotient, -lam)
            assert self.parts(plus)[:2] == self.parts(minus)[:2]
            assert self.parts(plus)[3] == self.parts(minus)[3]
            assert minus.c == -plus.c != plus.c

    def test_composition_law_of_scales(self):
        for p in (11, 13, MERSENNE_127):
            fam, quotient = d2_family(p, 2)
            a, b = fam.ctx.elem(2, 5), fam.ctx.elem(7, 3)
            once = post_twist(post_twist(quotient, a), b)
            assert self.parts(once) == self.parts(post_twist(quotient, a * b))


class TestEveryIsogeny:
    """Every kind of isogeny the library builds, whether expanded, twisted
    or read through the quadratic twist, maps points onto its codomain and,
    at a small prime, respects the group law."""

    @staticmethod
    def isogenies(ctx):
        isos = [gls_endo(ctx, 3, 5, twisted).isogeny for twisted in (False, True)]
        for d in (2, 3, 5, 7):
            fam = build_family_curve(d, ctx, 2)
            quotient = velu_quotient(fam.curve, d, _BUILDERS[d](ctx, fam.s)[3])
            isos += [
                quotient, post_twist(quotient, ctx.elem(4)), fam.phi,
                identity_isogeny(fam.curve), Endo(fam, twisted=True).isogeny,
            ]
        return isos

    @pytest.mark.parametrize("p", [11, 19, MERSENNE_127])
    def test_images_lie_on_codomain(self, p):
        for iso in self.isogenies(ctx_for(p)):
            for seed in range(3):
                assert iso.codomain.is_on(iso(random_point(iso.domain, seed)))

    def test_homomorphism(self):
        for p in (11, MERSENNE_127):
            for iso in self.isogenies(ctx_for(p)):
                E, E2 = iso.domain, iso.codomain
                for seed in range(3):
                    P, Q = random_point(E, seed), random_point(E, seed + 3)
                    assert iso(E.add(P, Q)) == E2.add(iso(P), iso(Q))


def pinned_members():
    """Every family member at the primes up to 23, with delta = -1 and the
    least nonresidue at p = 3 (mod 4) and the least nonresidue otherwise,
    then one member of each degree at 2^127 - 1 (the paper instances of
    d = 2 and 5): 489 + 4 members."""
    for p in (5, 7, 11, 13, 17, 19, 23):
        least = next(x for x in range(2, p) if legendre(x, p) == -1)
        for delta in ((p - 1, least) if p % 4 == 3 else (least,)):
            ctx = FieldCtx(p, delta)
            for d in (2, 3, 5, 7):
                for s in range(p):
                    try:
                        yield build_family_curve(d, ctx, s)
                    except DomainError:
                        pass
    ctx = ctx_for(MERSENNE_127)
    for d, s in ((2, 28106), (3, 10400), (5, 7930), (7, 1)):
        yield build_family_curve(d, ctx, s)


# SHA-256 of (num, den, c, codomain A, B) of phi and of the isogeny of psi'
# over pinned_members: a change to how either is built that alters one
# coefficient anywhere changes it.
ISOGENY_DIGEST = "ecbc193811b2872f365f5d73fb68960ecc517bcb5ec48f5806df67eb524b8e6e"


def test_checked_path_meets_every_builder_kernel():
    """The public velu_quotient, with both kernel checks, accepts every
    builder kernel of pinned_members and, twisted by the family's l, gives
    phi exactly: the build path, which skips the checks, loses nothing."""
    for fam in pinned_members():
        ctx, d = fam.ctx, fam.d
        F = _BUILDERS[d](ctx, fam.s)[3]
        lam = Fp2(ctx, *_twisting_factor(ctx.p, ctx.delta, d))
        checked = post_twist(velu_quotient(fam.curve, d, F), lam)
        for field in ("domain", "codomain", "degree", "num", "den", "c"):
            assert getattr(checked, field) == getattr(fam.phi, field), (d, ctx.p, ctx.delta, fam.s, field)


def test_every_family_isogeny_pinned():
    digest = hashlib.sha256()
    count = 0
    for fam in pinned_members():
        for iso in (fam.phi, Endo(fam, twisted=True).isogeny):
            A, B = iso.codomain.A, iso.codomain.B
            row = (fam.d, fam.ctx.p, fam.ctx.delta, fam.s, iso.num, iso.den, iso.c.a, iso.c.b, A.a, A.b, B.a, B.b)
            digest.update(repr(row).encode())
        count += 1
    assert count == 493
    assert digest.hexdigest() == ISOGENY_DIGEST
