import functools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurve.errors import (
    DegenerateParameterError,
    DomainError,
    OffCurveError,
    OracleGuardError,
    ResidueClassError,
    StructureError,
    SupersingularError,
    TraceError,
    UntabulatedError,
)
from qcurve.families import (
    FAMILY_DEGREES,
    Endo,
    build_family_curve,
    determine_r,
    eigenvalue,
    epsilon_p,
    gls_endo,
    group_orders,
    subfield_order,
)
from qcurve.fields import FieldCtx, Fp2, factorize, legendre
from qcurve.glv import COFACTOR2_D2, cofactor_basis, decompose, multiexp2
import qcurve.families
from qcurve import fields, isogeny, weierstrass
from qcurve.selftest import EXAMPLE_D2, EXAMPLE_D5
from qcurve.weierstrass import INFINITY, Point, curve_points, oracle_order, oracle_trace, random_point

from conftest import (
    MERSENNE_127,
    SMALL_CURVES,
    count_calls,
    count_loop_int_ops,
    ctx_for,
    from_kernel,
    generic_127_curve,
    prime_factors,
    ref_isogeny,
    ref_psi,
    ref_raw_maps,
)


def family_sweep(d, p):
    ctx = ctx_for(p)
    for s in range(p):
        try:
            yield build_family_curve(d, ctx, s)
        except DegenerateParameterError:
            continue


def _members(d, ctx):
    """Every degree-d member over ctx; none where the family does not exist."""
    for s in range(ctx.p):
        try:
            yield build_family_curve(d, ctx, s)
        except DomainError:
            continue


class TestConstruction:
    def test_degree2_at_s_zero(self):
        ctx = ctx_for(11)
        fam = build_family_curve(2, ctx, 0)
        assert fam.curve.A == ctx.elem(-30)
        assert fam.curve.B == ctx.elem(56)
        assert fam.curve.j_invariant() == ctx.elem(8000)

    def test_constants(self):
        ctx = ctx_for(13)
        assert build_family_curve(2, ctx, 3).constant == ctx.elem(9, 27)
        assert build_family_curve(3, ctx, 3).constant == ctx.elem(2, 6)
        assert build_family_curve(7, ctx, 3).constant == ctx.elem(7 * (27 + 9 * ctx.delta))

    @pytest.mark.parametrize("d,p", [(2, 11), (3, 13), (5, 11), (7, 13)])
    def test_codomain_is_conjugate_curve(self, d, p):
        for fam in family_sweep(d, p):
            conj = fam.curve.conjugate()
            assert fam.phi.codomain == conj

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_conjugate_symmetry_in_s(self, d):
        ctx = ctx_for(13)
        for s in range(13):
            fam = build_family_curve(d, ctx, s)
            mirrored = build_family_curve(d, ctx, -s)
            assert mirrored.curve == fam.curve.conjugate()

    def test_degree5_residue_requirements(self):
        with pytest.raises(ResidueClassError):
            build_family_curve(5, ctx_for(13), 3)  # 13 = 1 (mod 4)
        ctx = FieldCtx(19, 2)  # valid p but delta != -1
        with pytest.raises(ResidueClassError):
            build_family_curve(5, ctx, 3)

    def test_degree5_degenerate_parameters(self):
        with pytest.raises(DegenerateParameterError):
            build_family_curve(5, ctx_for(11), 0)
        ctx23 = ctx_for(23)
        bad = 2 * pow(11, -1, 23) % 23  # the image of 2/11
        with pytest.raises(DegenerateParameterError):
            build_family_curve(5, ctx23, bad)

    def test_degree7_degenerate_parameter(self):
        ctx = ctx_for(11)  # -27/delta = 27 is a square mod 11, roots 4 and 7
        for s in (4, 7):
            with pytest.raises(DegenerateParameterError):
                build_family_curve(7, ctx, s)

    def test_small_prime_guards(self):
        with pytest.raises(ResidueClassError):
            build_family_curve(7, ctx_for(7), 1)
        with pytest.raises(DomainError):
            build_family_curve(4, ctx_for(11), 1)


class TestEpsilon:
    def test_cryptographic_scale_values(self):
        assert epsilon_p(2, MERSENNE_127) == 1
        assert epsilon_p(3, MERSENNE_127) == -1
        assert epsilon_p(2, 11) == -1
        assert epsilon_p(5, MERSENNE_127) == 1

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
    def test_case_lists(self, p):
        assert epsilon_p(2, p) == (1 if p % 8 in (5, 7) else -1)
        assert epsilon_p(3, p) == (1 if p % 3 == 2 else -1)
        assert epsilon_p(7, p) == (1 if p % 7 in (3, 5, 6) else -1)
        if p % 4 == 3:
            assert epsilon_p(5, p) == 1

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_legendre_rule_for_quadratic_fields(self, p):
        for d in (2, 3, 7):
            assert epsilon_p(d, p) == -legendre(-d, p)

    def test_degree5_wrong_class(self):
        with pytest.raises(ResidueClassError):
            epsilon_p(5, 13)

    def test_unknown_degree(self):
        with pytest.raises(UntabulatedError, match="no family of degree 4") as exc:
            epsilon_p(4, 11)
        assert exc.type is UntabulatedError


class TestPsi:
    @pytest.mark.parametrize("d,p", [(2, 11), (3, 11), (5, 11), (7, 11)])
    def test_identities_on_every_point(self, d, p):
        for fam in family_sweep(d, p):
            if fam.s > 3:
                continue
            endo = Endo(fam)
            eps = endo.eps
            t = oracle_trace(fam.curve)
            r = determine_r(endo, t)
            curve = fam.curve
            for P in curve_points(curve):
                pP = endo(P)
                assert curve.is_on(pP)
                assert endo(pP) == curve.mul(eps * d, P)
                assert curve.mul(r, pP) == curve.mul(p + eps, P)
                again = curve.add(
                    curve.add(endo(pP), curve.mul(-d * r, pP)), curve.mul(d * p, P)
                )
                assert again.is_infinity

    def test_homomorphism(self):
        fam = build_family_curve(2, ctx_for(7), 1)
        endo = Endo(fam)
        pts = curve_points(fam.curve)
        for P in pts:
            for Q in pts:
                assert endo(fam.curve.add(P, Q)) == fam.curve.add(endo(P), endo(Q))

    @pytest.mark.parametrize("d,p", [(2, 11), (3, 13), (5, 11), (7, 13)])
    def test_twisted_square_is_minus_eps_d(self, d, p):
        for fam in family_sweep(d, p):
            if fam.s not in (1, 2):
                continue
            twisted = Endo(fam, twisted=True)
            for P in curve_points(twisted.curve):
                img = twisted(P)
                assert twisted.curve.is_on(img)
                assert twisted(img) == twisted.curve.mul(-twisted.eps * d, P)


def reference_psi(fam, twisted):
    """psi and psi' by two separate formulas: phi followed by conjugating
    the image, and the twist formula phi read at x/mu, its image
    (u, y * du) conjugated and scaled to (mu * conj(u), nu^3 * conj(y * du)),
    nu = mu^((1-p)/2), mu the canonical nonsquare."""
    if not twisted:
        def psi(P):
            img = ref_isogeny(fam.phi, P)
            if img.is_infinity:
                return INFINITY
            return Point(img.x.conjugate(), img.y.conjugate())

        return psi
    ctx = fam.ctx
    mu = ctx.nonsquare()
    nu = mu.inverse() ** ((ctx.p - 1) // 2)

    def psi_twisted(P):
        if P.is_infinity:
            return INFINITY
        maps = ref_raw_maps(fam.phi, P.x / mu)
        if maps is None:
            return INFINITY
        u, du = maps
        return Point(mu * u.conjugate(), nu * nu * nu * (P.y * du).conjugate())

    return psi_twisted


class TestOneFormula:
    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_matches_reference_formulas(self, p):
        ctx = ctx_for(p)
        endos = [Endo(fam, twisted) for d in FAMILY_DEGREES for fam in _members(d, ctx)
                 for twisted in (False, True)]
        endos += [gls_endo(ctx, a0, b0, twisted) for a0 in (0, 1, 3) for b0 in range(p)
                  if (4 * a0**3 + 27 * b0**2) % p for twisted in (False, True)]
        for endo in endos:
            psi = reference_psi(endo.family, endo.twisted)
            for P in curve_points(endo.curve):
                assert endo(P) == psi(P)

    def test_matches_reference_formulas_at_127_bits(self):
        ctx = FieldCtx(MERSENNE_127, -1)
        for d, s in ((2, 28106), (5, 7930), (3, 10400), (7, 1)):
            fam = build_family_curve(d, ctx, s)
            for twisted in (False, True):
                endo = Endo(fam, twisted)
                psi = reference_psi(fam, twisted)
                for seed in range(6):
                    P = random_point(endo.curve, seed)
                    assert endo(P) == psi(P)
                    assert endo.curve.is_on(endo(P))

    def test_target(self):
        fam = build_family_curve(2, ctx_for(13), 1)
        assert Endo(fam).target == 13 + epsilon_p(2, 13)
        assert Endo(fam, twisted=True).target == 13 - epsilon_p(2, 13)

    @pytest.mark.parametrize("twisted", [False, True])
    def test_off_curve_argument_rejected(self, twisted):
        endo = Endo(build_family_curve(2, ctx_for(11), 1), twisted=twisted)
        P = random_point(endo.curve, 0)
        with pytest.raises(OffCurveError):
            endo(Point(P.x, P.y + 1))


def _least_nonresidue(p):
    return next(n for n in range(2, p) if legendre(n, p) == -1)


class TestStandardForm:
    """phi is (x, y) -> (X(x), c * y * X'(x)), which pulls the invariant
    differential dx/y back to dx/(c y), and its conjugate back to
    dx/(conj(c) y).  psi^2 = [k] * Frobenius holds because phi^sigma o phi
    = [k], with k = eps*d for psi and -eps*d for psi', and [k] pulls dx/y
    back to k dx/y; so k * Norm(c) = 1 (mod p).  That checks epsilon_p's
    Legendre formula against the construction, with no point sampled.
    psi' has the closed-form constant c' = -c * mu^((p-1)/2), mu the
    canonical nonsquare, so Norm(c') = -Norm(c) and k' = -k."""

    @staticmethod
    def _check(endo):
        k = -endo.eps * endo.d if endo.twisted else endo.eps * endo.d
        p = endo.family.ctx.p
        c = endo.isogeny.c
        assert k * c.norm() % p == 1
        if endo.twisted:
            phi_c = endo.family.phi.c
            mu = endo.family.ctx.nonsquare()
            assert c == -phi_c * mu ** ((p - 1) // 2)
            assert (c.norm() + phi_c.norm()) % p == 0

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])
    def test_every_member(self, p):
        """Every member and its twist, at delta = -1 where p = 3 (mod 4)
        and at the least nonresidue."""
        ctxs = {FieldCtx(p, _least_nonresidue(p)), ctx_for(p)}
        members = [fam for ctx in ctxs for d in FAMILY_DEGREES for fam in _members(d, ctx)]
        assert len(members) >= 2 * p
        for fam in members:
            for twisted in (False, True):
                self._check(Endo(fam, twisted))

    def test_at_127_bits(self):
        ctx = FieldCtx(MERSENNE_127, -1)
        for d, s in ((2, 28106), (5, 7930), (3, 10400), (7, 1)):
            fam = build_family_curve(d, ctx, s)
            for twisted in (False, True):
                self._check(Endo(fam, twisted))

    @pytest.mark.parametrize("p", [11, 23, MERSENNE_127])
    def test_gls(self, p):
        for twisted in (False, True):
            self._check(gls_endo(ctx_for(p), 3, 5, twisted))

    @pytest.mark.parametrize("p,s", [(23, 1), (MERSENNE_127, 28106)])
    def test_degree2_map(self, p, s):
        """The paper's phi_2 = (-x/2 - C/(x - 4), y/sqrt(-2) * (-1/2 + C/(x - 4)^2)):
        num/den = (-x^2/2 + 2x - C)/(x - 4) and c^2 = -1/2."""
        ctx = ctx_for(p)
        fam = build_family_curve(2, ctx, s)
        half = ctx.one() / 2
        assert from_kernel(fam.phi.num, ctx) == (-fam.constant, ctx.elem(2), -half)
        assert from_kernel(fam.phi.den, ctx) == (ctx.elem(-4), ctx.one())
        assert fam.phi.c * fam.phi.c == -half


def _int_maps(maps):
    """Fp2 raw maps (u, du) as the int tuple Isogeny.raw_maps returns."""
    return None if maps is None else (maps[0].a, maps[0].b, maps[1].a, maps[1].b)


class TestIntPairPsi:
    """psi and psi', whose isogeny runs on int pairs, against the Fp2
    formulas of conftest: ref_raw_maps (N/D and its derivative through the
    Fp2 boundary of poly_eval) and ref_psi."""

    @staticmethod
    def _check(endo, xs, points):
        iso = endo.isogeny
        infinite = 0
        for x in xs:
            maps = iso.raw_maps(x.a, x.b)
            assert maps == _int_maps(ref_raw_maps(iso, x))
            infinite += maps is None
        for P in points:
            assert endo(P) == ref_psi(endo, P)
            if P.is_infinity:
                continue
            # Off the curve unless y + 1 = -y.
            Q = Point(P.x, P.y + 1)
            expected = ref_psi(endo, Q)
            if expected is None:
                with pytest.raises(OffCurveError):
                    endo(Q)
            else:
                assert Q == endo.curve.neg(P) and endo(Q) == expected
        return infinite

    @pytest.mark.parametrize("d,p,s,twisted", SMALL_CURVES)
    def test_every_abscissa_on_small_curves(self, d, p, s, twisted):
        """raw_maps at every x of F_{p^2}, the kernel abscissas among them,
        and psi at every point P and at (x, y + 1), which is off the curve
        unless it is -P.  The d = 2 kernel is a rational two-torsion point,
        whose abscissa maps to infinity."""
        ctx = ctx_for(p)
        endo = Endo(build_family_curve(d, ctx, s), twisted)
        xs = [ctx.elem(a, b) for a in range(p) for b in range(p)]
        infinite = self._check(endo, xs, curve_points(endo.curve))
        if d == 2:
            assert infinite == 1

    def test_every_member_at_generic_delta(self):
        """delta = 2 at p = 13: every member of the families that exist
        there, psi and psi'."""
        ctx = FieldCtx(13, 2)
        xs = [ctx.elem(a, b) for a in range(13) for b in range(13)]
        infinite = 0
        for d in (2, 3, 7):
            for fam in _members(d, ctx):
                for twisted in (False, True):
                    endo = Endo(fam, twisted)
                    infinite += self._check(endo, xs, curve_points(endo.curve))
        assert infinite

    @pytest.mark.parametrize("delta", [-1, 3])
    def test_random_at_127_bits(self, delta):
        """2,000 random abscissas at p = 2^127 - 1, spread over psi and psi'
        of a member of each family that exists at this delta; psi at the
        point above each abscissa that lifts."""
        ctx = FieldCtx(MERSENNE_127, delta)
        members = ((2, 28106), (5, 7930), (3, 10400), (7, 1)) if delta == -1 else ((2, 5), (3, 5), (7, 5))
        endos = [Endo(build_family_curve(d, ctx, s), twisted) for d, s in members for twisted in (False, True)]
        rng = random.Random(32 + delta)
        for i in range(2000):
            endo = endos[i % len(endos)]
            x = ctx.elem(rng.randrange(ctx.p), rng.randrange(ctx.p))
            P = endo.curve.lift_x(x)
            self._check(endo, [x], [] if P is None else [P])


# The calls into the bare-int polynomial kernel of qcurve.isogeny, each
# counted under its own name, with its private helpers for the products
# (_products) and the reductions (_reduced), which velu_quotient also calls
# directly; a kernel function's own calls to them count too.
KERNEL_CALLS = (
    "poly_add",
    "poly_sub",
    "poly_scale",
    "poly_deriv",
    "poly_mul",
    "poly_rem",
    "poly_mulmod",
    "poly_eval",
    "_products",
    "_reduced",
)


def _count_ops(monkeypatch) -> Counter:
    """Count Fp2 products (squares, products, products by an int) and
    inversions, the Jacobian doublings and additions of the scalar
    multiplication loop, and the calls into the polynomial kernel, from
    here on.  A run _dbl(P, k, ...) counts as k doublings and one run."""
    counts = Counter()
    mul, inverse, dbl = Fp2.__mul__, Fp2.inverse, weierstrass._dbl

    def counted_mul(self, other):
        kind = "mul_int" if isinstance(other, int) else "sqr" if other is self else "mul"
        counts[kind] += 1
        return mul(self, other)

    def counted_inverse(self):
        counts["inv"] += 1
        return inverse(self)

    def counted(name, call):
        def wrapper(*args):
            counts[name] += 1
            return call(*args)

        return wrapper

    def counted_dbl(P, k, *args):
        counts["dbl"] += k
        counts["runs"] += 1
        return dbl(P, k, *args)

    monkeypatch.setattr(Fp2, "__mul__", counted_mul)
    monkeypatch.setattr(Fp2, "__rmul__", counted_mul)
    monkeypatch.setattr(Fp2, "inverse", counted_inverse)
    monkeypatch.setattr(weierstrass, "_dbl", counted_dbl)
    monkeypatch.setattr(weierstrass, "_madd", counted("madd", weierstrass._madd))
    for name in KERNEL_CALLS:
        monkeypatch.setattr(isogeny, name, counted(name, getattr(isogeny, name)))
    return counts


# (d, twisted, counts) for one psi / psi' evaluation on each paper instance:
# both are one isogeny evaluated at P, its image conjugated, so both pay the
# same work, all of it on int pairs but the one inversion of the
# denominator's value: the is_on check, one Horner pass each over the
# numerator and the denominator, the quotients, the constant c, y * du and
# the conjugation.
PSI_COUNTS = [
    (2, False, {"inv": 1}),
    (2, True, {"inv": 1}),
    (5, False, {"inv": 1}),
    (5, True, {"inv": 1}),
]
# Fp2 objects built by one psi / psi' evaluation, for d = 2 and 7 at p = 23
# and on each paper instance: the denominator's value and its inverse, and
# the two coordinates of the one Point returned.
PSI_FP2_BUILDS = 4
# Building one untwisted Endo: it holds the family's phi and curve, copying
# nothing, so it costs no field operation at all.
ENDO_COUNTS = [(2, {}), (5, {})]
# Building one twisted Endo (isogeny.quadratic_twist): nearly all of it is
# mu^((p-1)/2) for the new constant -c * mu^((p-1)/2), 125 squarings and 125
# products on the exponent 2^126 - 1, walked from its top bit.  The rest is
# the twist's coefficients (mu^2, mu^3, mu^2 A, mu^3 B), the powers mu, ...,
# mu^n, n = deg num, and
# one Fp2 product per coefficient of num and den, which reads phi at x/mu:
# 2 + 5 for d=2 and 5 + 11 for d=5; then c times the power, and conj(mu)
# scaling num on the kernel.  It makes no inversion.
TWISTED_ENDO_COUNTS = [
    (2, {"sqr": 126, "mul": 136, "poly_scale": 1, "_reduced": 1}),
    (5, {"sqr": 126, "mul": 145, "poly_scale": 1, "_reduced": 1}),
]
# build_family_curve on each paper instance, then on d=3, s=10400 and d=7,
# s=1.  Two curves pay a discriminant check, on int pairs: the member and the
# Velu codomain.  The twisted codomain's discriminant is l^12 times the Velu
# codomain's, the conjugate curve that phi must land on is not checked again,
# and no isogeny stores derivatives, so post_twist only scales: num by l^2
# on the kernel, and the constant c by l.  The Fp2 products left are the
# member's and the codomain's coefficients and c (d=2 checks its kernel
# abscissa on the curve's int-pair cubic); the polynomials run on the
# kernel.  An odd kernel pays psi_d modulo the kernel polynomial, by the
# division polynomial recurrence with each product of two nonconstant factors
# reduced at once, a constant factor (f_1, f_2, f_2^3) a scaling, and each
# cube formed once; the closure check under doubling, by Horner's rule from
# N + F_(e-1) D, also reduced product by product; and Kohel's expansion of
# the x-map, whose six products after F^2 are added up unreduced and reduced
# once.  Every remainder is taken modulo the monic kernel polynomial.  d=2
# expands nothing.
BUILD_COUNTS = [
    (2, {"mul_int": 6, "inv": 1, "mul": 8, "sqr": 1, "poly_scale": 1, "_reduced": 1}),
    (5, {"mul_int": 13, "sqr": 4, "mul": 11, "inv": 1, "poly_rem": 5, "_reduced": 25, "poly_mulmod": 6,
         "_products": 13, "poly_scale": 7, "poly_sub": 1, "poly_add": 2, "poly_deriv": 2, "poly_mul": 1}),
    (3, {"mul_int": 11, "sqr": 3, "inv": 1, "mul": 10, "poly_rem": 3, "_reduced": 10, "poly_scale": 2, "poly_add": 1,
         "poly_deriv": 2, "poly_mul": 1, "_products": 7}),
    (7, {"mul_int": 16, "mul": 19, "sqr": 3, "inv": 1, "poly_rem": 5, "_reduced": 35, "poly_mulmod": 12,
         "_products": 19, "poly_scale": 9, "poly_sub": 2, "poly_add": 3, "poly_deriv": 2, "poly_mul": 1}),
]
# One multiexp2 on a 127-bit scalar pair and one Curve.mul on a 253-bit
# scalar: the Jacobian doublings and mixed additions over the joint sparse
# form (the NAF for Curve.mul), the runs of doublings between nonzero
# columns (each one _dbl call, which computes A*Z^4 once), plus the Fp2 work
# outside the loop: the affine table entries P + psiP and P - psiP, and the
# one inversion back to affine; the is_on checks run on int pairs.  The
# multiexp2 pair ends in a nonzero column, so its last addition has no run
# after it.
MULTIEXP2_COUNTS = {"dbl": 123, "runs": 63, "madd": 63, "sqr": 2, "mul": 4, "inv": 3}
MUL_COUNTS = {"dbl": 253, "runs": 87, "madd": 86, "inv": 1}
# The int operations inside _dbl and _madd for the same two calls
# (conftest.CountingInt): products of two residues, products by a small
# constant or delta, additions and subtractions, and reductions.  On the
# paper instance delta = -1, so the loop runs its F_p(i) bodies; the same
# scalars on a curve at the same prime with delta = 3 run the generic ones.
# Writing in i^2 = -1 drops every product by delta and turns the real part
# of each square into one product of a sum by a difference.
LOOP_INT_COUNTS = {
    -1: {
        "multiexp2": {"mul": 5226, "mul_const": 2847, "add": 6462, "mod": 3480},
        "mul": {"mul": 9010, "mul_const": 5333, "add": 11378, "mod": 6116},
    },
    3: {
        "multiexp2": {"mul": 6219, "mul_const": 4650, "add": 5469, "mod": 3480},
        "mul": {"mul": 10793, "mul_const": 8477, "add": 9595, "mod": 6116},
    },
}
# determine_r on each paper instance with its published trace: one psi(Q)
# (its inversion is the one inversion here) and one joint loop
# [target]Q - [|r|]psi(Q) over the joint sparse form of (2^127, |r|), which
# lands on O, so the loop's exit makes no inversion.  No column mixes the
# two scalars, so the table builds neither P + Q nor P - Q: no Curve._add.
# gcd(|r|, target) = 1, so the witness test reads y(psi(Q)) without a
# multiplication.
DETERMINE_R_COUNTS = [
    (2, {"dbl": 127, "runs": 22, "madd": 22, "inv": 1}),
    (5, {"dbl": 127, "runs": 24, "madd": 24, "inv": 1}),
]
# pow calls in factorize on the two paper pairs (curve and twist, d=2
# and d=5): trial division makes none, and each remainder's Baillie-PSW
# verdict makes one, the base-2 round's; the Lucas half multiplies out its
# own powers.
FACTORIZE_POW_CALLS = 4
# math.gcd calls for the same four orders: one per order against the
# product of the first block, whose primes hold all of each order's small
# factors (2 for d=2, none for d=5); each cofactor then passes Baillie-PSW
# and ends the order.  An order walked through all 161 blocks would take
# one gcd per block.
FACTORIZE_GCD_CALLS = 4


class TestOpCounts:
    """Exact field-operation counts on the paper instances; a change to the
    arithmetic shows up here as a changed count."""

    def test_psi_counts(self, monkeypatch):
        cases = []
        for endo, _ in paper_endos():
            for twisted in (False, True):
                e = Endo(endo.family, twisted=twisted)
                cases.append((e, random_point(e.curve, 1)))
        counts = _count_ops(monkeypatch)
        seen = []
        for e, P in cases:
            counts.clear()
            e(P)
            seen.append((e.d, e.twisted, dict(counts)))
        assert seen == PSI_COUNTS

    def test_psi_fp2_builds(self, monkeypatch):
        ctx = ctx_for(23)
        families = [build_family_curve(d, ctx, 1) for d in (2, 7)]
        families += [endo.family for endo, _ in paper_endos()]
        cases = []
        for fam in families:
            for twisted in (False, True):
                e = Endo(fam, twisted=twisted)
                cases.append((e, random_point(e.curve, 1)))
        builds = Counter()
        init = Fp2.__init__

        def counted_init(self, *args):
            builds["Fp2"] += 1
            init(self, *args)

        monkeypatch.setattr(Fp2, "__init__", counted_init)
        seen = []
        for e, P in cases:
            builds.clear()
            assert not e(P).is_infinity
            seen.append(builds["Fp2"])
        assert seen == [PSI_FP2_BUILDS] * len(cases)

    def test_endo_counts(self, monkeypatch):
        families = [endo.family for endo, _ in paper_endos()]
        counts = _count_ops(monkeypatch)
        seen = []
        for fam in families:
            counts.clear()
            Endo(fam)
            seen.append((fam.d, dict(counts)))
        assert seen == ENDO_COUNTS

    def test_untwisted_endo_holds_phi(self):
        """psi is phi followed by conjugation: an untwisted Endo holds the
        family's own isogeny and curve, not a copy of either."""
        for endo, _ in paper_endos():
            fam = endo.family
            assert endo.isogeny is fam.phi
            assert endo.curve is fam.curve

    def test_twisted_endo_counts(self, monkeypatch):
        families = [endo.family for endo, _ in paper_endos()]
        counts = _count_ops(monkeypatch)
        seen = []
        for fam in families:
            counts.clear()
            Endo(fam, twisted=True)
            seen.append((fam.d, dict(counts)))
        assert seen == TWISTED_ENDO_COUNTS

    def test_build_counts(self, monkeypatch):
        ctx = FieldCtx(MERSENNE_127, -1)
        counts = _count_ops(monkeypatch)
        seen = []
        for d, s in ((2, 28106), (5, 7930), (3, 10400), (7, 1)):
            counts.clear()
            build_family_curve(d, ctx, s)
            seen.append((d, dict(counts)))
        assert seen == BUILD_COUNTS

    def test_determine_r_counts(self, monkeypatch):
        cases = list(paper_endos())
        counts = _count_ops(monkeypatch)
        adds = count_calls(monkeypatch, weierstrass.Curve, "_add")
        seen = []
        for endo, t in cases:
            counts.clear()
            determine_r(endo, t)
            seen.append((endo.d, dict(counts)))
        assert seen == DETERMINE_R_COUNTS
        assert adds == []

    @staticmethod
    @functools.cache
    def _paper_scalar():
        """(endo, P, m, decomposition of m) on the d=2 paper instance."""
        endo, trace = next(paper_endos())
        curve = endo.curve
        r = determine_r(endo, trace)
        n = group_orders(endo, r)[0] // 2
        basis = cofactor_basis(COFACTOR2_D2, MERSENNE_127, endo.eps, 2, r, n, eigenvalue(endo, r, n))
        P = curve.mul(2, random_point(curve, 3))
        m = random.Random(7).randrange(n)
        return endo, P, m, decompose(m, basis)

    def test_multiexp2_counts(self, monkeypatch):
        endo, P, m, dec = self._paper_scalar()
        psiP = endo(P)
        counts = _count_ops(monkeypatch)
        R = multiexp2(dec.a, dec.b, P, psiP, endo.curve)
        assert dict(counts) == MULTIEXP2_COUNTS
        monkeypatch.undo()
        assert R == endo.curve.mul(m, P)

    def test_mul_counts(self, monkeypatch):
        endo, P, m, _ = self._paper_scalar()
        assert m.bit_length() == 253
        counts = _count_ops(monkeypatch)
        endo.curve.mul(m, P)
        assert dict(counts) == MUL_COUNTS

    @pytest.mark.parametrize("delta", [-1, 3])
    def test_loop_int_counts(self, monkeypatch, delta):
        endo, P, m, dec = self._paper_scalar()
        if delta == -1:
            curve, Q = endo.curve, endo(P)
        else:
            curve = generic_127_curve()
            P, Q = random_point(curve, 1), random_point(curve, 2)
        counts = count_loop_int_ops(monkeypatch)
        seen = {}
        multiexp2(dec.a, dec.b, P, Q, curve)
        seen["multiexp2"] = dict(counts)
        counts.clear()
        curve.mul(m, P)
        seen["mul"] = dict(counts)
        assert seen == LOOP_INT_COUNTS[delta]

    def test_loop_ops_of_the_pinned_scalar(self):
        _, _, m, dec = self._paper_scalar()
        assert weierstrass.loop_ops(dec.a, dec.b) == (MULTIEXP2_COUNTS["dbl"], MULTIEXP2_COUNTS["madd"])
        assert weierstrass.loop_ops(m, 0) == (MUL_COUNTS["dbl"], MUL_COUNTS["madd"])

    @settings(max_examples=20)
    @given(
        m=st.integers(-(2**253), 2**253),
        a=st.integers(-(2**127), 2**127),
        b=st.integers(-(2**127), 2**127),
    )
    def test_loop_ops_match_the_loop(self, m, a, b):
        """weierstrass.loop_ops, read off the recoding, is what the loop
        does: the doublings and mixed additions counted as in the pins, for
        one scalar (Curve.mul) and for a pair (multiexp2)."""
        endo, P, _, _ = self._paper_scalar()
        psiP = endo(P)
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_ops(mp)
            endo.curve.mul(m, P)
            single = counts["dbl"], counts["madd"]
            counts.clear()
            multiexp2(a, b, P, psiP, endo.curve)
            pair = counts["dbl"], counts["madd"]
        assert single == weierstrass.loop_ops(m, 0)
        assert pair == weierstrass.loop_ops(a, b)

    def test_glv_group_op_ratio(self):
        """The decomposition saves close to half the group operations."""
        plain = MUL_COUNTS["dbl"] + MUL_COUNTS["madd"]
        glv = MULTIEXP2_COUNTS["dbl"] + MULTIEXP2_COUNTS["madd"]
        assert plain / glv >= 1.8

    @staticmethod
    def _paper_pairs():
        return [group_orders(endo, determine_r(endo, trace)) for endo, trace in paper_endos()]

    def test_factorize_pow_calls(self, monkeypatch):
        pairs = self._paper_pairs()
        calls = Counter()

        def counted_pow(*args):
            calls["pow"] += 1
            return pow(*args)

        monkeypatch.setattr(fields, "pow", counted_pow, raising=False)
        factorizations = [factorize(n) for pair in pairs for n in pair]
        assert calls["pow"] == FACTORIZE_POW_CALLS
        assert all(f.rest.bit_length() >= 253 and str(f).endswith("(probable_prime)") for f in factorizations)

    def test_factorize_gcd_calls(self, monkeypatch):
        pairs = self._paper_pairs()
        factorize(pairs[0][0])  # the prime blocks, built outside the count
        calls = Counter()
        gcd = math.gcd

        def counted_gcd(*args):
            calls["gcd"] += 1
            return gcd(*args)

        monkeypatch.setattr(fields.math, "gcd", counted_gcd)
        for pair in pairs:
            for n in pair:
                factorize(n)
        assert calls["gcd"] == FACTORIZE_GCD_CALLS

    def test_paper_orders_skip_the_full_sieve(self):
        """The four paper orders stop after the first block: the one sieve
        they build is the screen's, to 2^12, never the list up to 2^20."""
        pairs = self._paper_pairs()
        fields._trial_blocks.cache_clear()
        for pair in pairs:
            for n in pair:
                factorize(n)
        info = fields._trial_blocks.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert fields._trial_blocks(1 << 12)[0][1][-1] == 3671
        assert fields._trial_blocks.cache_info().misses == 1

    def test_refused_cofactor_keeps_its_verdict(self, monkeypatch):
        """A cofactor that Baillie-PSW refuses at the early exit, and that
        the walk to 2^20 leaves as the remainder, is not tested again: one
        base-2 pow in all."""
        n = 1048583 * 1048589  # no prime factor up to 2^20
        calls = Counter()

        def counted_pow(*args):
            calls["pow"] += 1
            return pow(*args)

        monkeypatch.setattr(fields, "pow", counted_pow, raising=False)
        assert str(factorize(n)) == f"{n}(composite)"
        assert calls["pow"] == 1


class TestTraceData:
    @pytest.mark.parametrize("d,p", [(2, 13), (3, 13), (5, 11), (7, 11)])
    def test_orders_match_oracle(self, d, p):
        for fam in family_sweep(d, p):
            endo = Endo(fam)
            r = determine_r(endo, oracle_trace(fam.curve))
            n_curve, n_twist = group_orders(endo, r)
            assert n_curve == oracle_order(fam.curve)
            twist, _ = fam.curve.quadratic_twist()
            assert n_twist == oracle_order(twist)
            assert n_curve + n_twist == 2 * (p * p + 1)

    @pytest.mark.parametrize("p", [11, 13, 19, 23])
    def test_character_sum_matches_enumeration(self, p):
        ctx = ctx_for(p)
        for d in FAMILY_DEGREES:
            for fam in _members(d, ctx):
                for curve in (fam.curve, fam.curve.quadratic_twist()[0]):
                    assert oracle_order(curve) == len(curve_points(curve))

    def test_r_sign_matters(self):
        fam = build_family_curve(2, ctx_for(13), 1)
        endo = Endo(fam)
        r = determine_r(endo, oracle_trace(fam.curve))
        assert r != 0
        P = random_point(fam.curve, 5)
        assert fam.curve.mul(r, endo(P)) == fam.curve.mul(13 + endo.eps, P)

    def test_inconsistent_trace_rejected(self):
        fam = build_family_curve(2, ctx_for(13), 1)
        endo = Endo(fam)
        good = oracle_trace(fam.curve)
        with pytest.raises(TraceError):
            determine_r(endo, good + 1)
        with pytest.raises(TraceError):
            determine_r(endo, 10**40)

    def test_supersingular_r_zero(self):
        # s = 1 in the degree-5 family reduces supersingularly at p = 11.
        fam = build_family_curve(5, ctx_for(11), 1)
        endo = Endo(fam)
        t = oracle_trace(fam.curve)
        assert t == -2 * 11
        assert determine_r(endo, t) == 0
        with pytest.raises(SupersingularError):
            eigenvalue(endo, 0, 7)

    def test_eigenvalue_squares_to_eps_d(self):
        for d, p in ((2, 13), (3, 13), (7, 13)):
            for fam in family_sweep(d, p):
                endo = Endo(fam)
                r = determine_r(endo, oracle_trace(fam.curve))
                if r == 0:
                    continue
                n_curve, _ = group_orders(endo, r)
                factor = max(prime_factors(n_curve))
                if math.gcd(r, factor) != 1 or n_curve % factor**2 == 0:
                    continue
                lam = eigenvalue(endo, r, factor)
                assert lam * lam % factor == (endo.eps * d) % factor
                P = fam.curve.mul(n_curve // factor, random_point(fam.curve, 1))
                if not P.is_infinity:
                    assert endo(P) == fam.curve.mul(lam, P)

    def test_eigenvalue_gcd_guard(self):
        fam = build_family_curve(2, ctx_for(13), 1)
        endo = Endo(fam)
        r = determine_r(endo, oracle_trace(fam.curve))
        with pytest.raises(StructureError, match="gcd"):
            eigenvalue(endo, r, abs(r) * 5)


def reference_r(endo, trace):
    """The exhaustive sign rule for a correct trace: |r| from the trace,
    then each sign tested on every point of the curve (small primes only)."""
    p = endo.family.ctx.p
    q = math.isqrt((2 * p + endo.eps * trace) // endo.d)
    target = p + endo.eps if not endo.twisted else p - endo.eps
    curve = endo.curve
    points = curve_points(curve)
    for r in (q, -q) if q else (0,):
        if all(curve.mul(r, endo(P)) == curve.mul(target, P) for P in points):
            return r
    raise TraceError("neither sign of r satisfies the endomorphism relation")


def small_endos(p):
    """(endo, trace) for every family member at p, untwisted and twisted."""
    ctx = ctx_for(p)
    for d in FAMILY_DEGREES:
        for fam in _members(d, ctx):
            t = oracle_trace(fam.curve)
            for twisted in (False, True):
                yield Endo(fam, twisted=twisted), t


def paper_endos():
    ctx = FieldCtx(MERSENNE_127, -1)
    for d, example in ((2, EXAMPLE_D2), (5, EXAMPLE_D5)):
        yield Endo(build_family_curve(d, ctx, example["s"])), example["trace"]


class TestSignRule:
    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_matches_exhaustive_rule(self, p):
        for endo, t in small_endos(p):
            assert determine_r(endo, t) == reference_r(endo, t)

    def test_matches_exhaustive_rule_gls(self):
        p = 11
        ctx = ctx_for(p)
        for a0, b0 in ((a0, b0) for a0 in (0, 1, 3) for b0 in range(p)):
            if (4 * a0**3 + 27 * b0**2) % p == 0:
                continue
            t = oracle_trace(gls_endo(ctx, a0, b0).curve)
            for twisted in (False, True):
                endo = gls_endo(ctx, a0, b0, twisted=twisted)
                assert determine_r(endo, t) == reference_r(endo, t)

    @pytest.mark.parametrize("p,s", [(5, 2), (5, 3), (7, 0)])
    def test_member_without_witness(self, p, s, monkeypatch):
        # [2*target]Q = O on every point, so both signs hold and the rule
        # keeps the positive root after the 8 hash-derived points, without
        # enumerating the curve.
        endo = Endo(build_family_curve(3, ctx_for(p), s))
        curve = endo.curve
        target = p + endo.eps
        assert all(curve.mul(2 * target, Q).is_infinity for Q in curve_points(curve))
        t = oracle_trace(curve)
        enumerations = count_calls(monkeypatch, weierstrass, "curve_points")
        assert determine_r(endo, t) == reference_r(endo, t) == 2
        assert enumerations == []

    def test_no_enumeration_at_p11(self, monkeypatch):
        # Among the 8 hash-derived points every member with r != 0 has a
        # witness, and every r = 0 member needs none.
        cases = list(small_endos(11))
        enumerations = count_calls(monkeypatch, weierstrass, "curve_points")
        for endo, t in cases:
            determine_r(endo, t)
        assert enumerations == []

    @staticmethod
    def assert_r_zero_checks_only_the_hashed_points(endo, t, monkeypatch):
        # With r = 0, [target]Q = O on every rational point, so no point is a
        # witness: each of the 8 hash-derived points is checked and nothing
        # more is tried, and [0]psi(Q) = O needs no evaluation of psi.
        points = count_calls(monkeypatch, qcurve.families, "random_point")
        calls = count_calls(monkeypatch, Endo, "__call__")
        assert determine_r(endo, t) == 0
        assert [args[1] for args in points] == list(range(8))
        assert calls == []

    def test_r_zero_tries_only_the_hashed_points(self, monkeypatch):
        endo = Endo(build_family_curve(5, ctx_for(11), 1))
        t = oracle_trace(endo.family.curve)
        self.assert_r_zero_checks_only_the_hashed_points(endo, t, monkeypatch)

    def test_r_zero_at_127_bits(self, monkeypatch):
        # The d=5 member s = 1 at 2^127 - 1 is supersingular: t = -2p, so
        # E(F_{p^2}) = E[p + 1] of order 2^254 and r = 0.
        endo = Endo(build_family_curve(5, ctx_for(MERSENNE_127), 1))
        assert endo.target == MERSENNE_127 + 1
        self.assert_r_zero_checks_only_the_hashed_points(endo, -2 * MERSENNE_127, monkeypatch)

    def test_trace_checks_without_oracle(self):
        # Above ORACLE_MAX_P the supplied trace meets the three checks alone.
        endo = Endo(build_family_curve(2, ctx_for(71), 1))
        assert endo.eps == 1
        for t, message in ((143, "Hasse bound"), (1, "not divisible by d"), (-138, "not a square")):
            with pytest.raises(TraceError, match=message):
                determine_r(endo, t)

    def test_every_wrong_trace_rejected(self):
        p = 11
        for endo, t in small_endos(p):
            # The check reads the count kept on the family curve; counting it
            # first leaves every verdict as it was.
            assert oracle_trace(endo.family.curve) == t
            assert endo.family.curve._order is not None
            for wrong in range(-2 * p, 2 * p + 1):
                if wrong != t:
                    with pytest.raises(TraceError, match="contradicts"):
                        determine_r(endo, wrong)
            # The oracle check precedes the Hasse bound.
            with pytest.raises(TraceError, match="contradicts"):
                determine_r(endo, 10**40)

    def test_wrong_square_traces_rejected_at_127_bits(self):
        for endo, t in paper_endos():
            p, d, eps = MERSENNE_127, endo.d, endo.eps
            r0 = determine_r(endo, t)
            for r in (abs(r0) - 1, abs(r0) + 1, abs(r0) + 2):
                wrong = eps * (d * r * r - 2 * p)
                assert abs(wrong) <= 2 * p
                with pytest.raises(TraceError, match="neither sign"):
                    determine_r(endo, wrong)

    @pytest.mark.parametrize("p", [71, MERSENNE_127])
    def test_wrong_trace_rejected_without_witness(self, p):
        # d = 2, s = 0 has j = 8000 and is supersingular for p = 5, 7 (mod 8):
        # t = -2p, E(F_{p^2}) = E[p + 1] = ker [target], so no point is a
        # witness and every point tried must still satisfy the relation.
        endo = Endo(build_family_curve(2, ctx_for(p), 0))
        assert endo.eps == 1
        assert determine_r(endo, -2 * p) == 0
        with pytest.raises(TraceError, match="neither sign"):
            determine_r(endo, 2 - 2 * p)

    def test_trace_defaults_to_oracle(self):
        for endo, t in small_endos(7):
            assert determine_r(endo) == determine_r(endo, t)
        endo = Endo(build_family_curve(2, ctx_for(71), 1))
        with pytest.raises(OracleGuardError):
            determine_r(endo)

    def test_one_psi_evaluation_per_paper_instance(self, monkeypatch):
        calls = count_calls(monkeypatch, Endo, "__call__")
        for endo, t in paper_endos():
            calls.clear()
            determine_r(endo, t)
            assert len(calls) == 1

    @pytest.mark.parametrize("p", [11, 19, 23])
    def test_one_count_per_member(self, p, monkeypatch):
        # FieldCtx.oracle_tables runs once per enumeration of F_{p^2}: a
        # caller's count and determine_r's trace check share one, in either
        # order, on every member of all four degrees.
        enumerations = count_calls(monkeypatch, FieldCtx, "oracle_tables")
        ctx = ctx_for(p)
        for d in FAMILY_DEGREES:
            for fam in _members(d, ctx):
                enumerations.clear()
                t = oracle_trace(fam.curve)
                r = determine_r(Endo(fam), t)
                assert len(enumerations) == 1
                fam = build_family_curve(d, ctx, fam.s)
                enumerations.clear()
                endo = Endo(fam)
                assert determine_r(endo) == r
                assert oracle_order(fam.curve) == group_orders(endo, r)[0]
                assert len(enumerations) == 1


class TestStructure:
    @pytest.mark.parametrize("p", [11, 13])
    def test_degree2_cofactor_shapes(self, p):
        # Orders of curve and twist are (2*odd, 2*odd), or 4*odd paired
        # with (8k)*odd in some order.
        for fam in family_sweep(2, p):
            n1 = oracle_order(fam.curve)
            twist, _ = fam.curve.quadratic_twist()
            n2 = oracle_order(twist)
            v1 = (n1 & -n1).bit_length() - 1
            v2 = (n2 & -n2).bit_length() - 1
            assert sorted((v1, v2)) in ([1, 1], [2, 3]) or (
                min(v1, v2) == 2 and max(v1, v2) >= 3
            )

    @pytest.mark.parametrize("p", [11, 13])
    def test_degree3_kernel_rationality(self, p):
        from qcurve.fields import is_probable_prime

        prime_twist_seen = False
        for fam in family_sweep(3, p):
            assert oracle_order(fam.curve) % 3 == 0
            twist, _ = fam.curve.quadratic_twist()
            if is_probable_prime(oracle_order(twist)):
                prime_twist_seen = True
        assert prime_twist_seen


class TestGls:
    def test_psi_fixes_subfield_points(self):
        ctx = ctx_for(11)
        endo = gls_endo(ctx, 3, 5)
        for P in curve_points(endo.curve):
            if P.is_infinity:
                continue
            if P.x.b == 0 and P.y.b == 0:
                assert endo(P) == P

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_twisted_square_is_minus_frobenius(self, p):
        ctx = ctx_for(p)
        a0, b0 = 2, 3
        if (4 * a0**3 + 27 * b0**2) % p == 0:
            a0 = 1
        twisted = gls_endo(ctx, a0, b0, twisted=True)
        for P in curve_points(twisted.curve):
            assert twisted(twisted(P)) == twisted.curve.neg(P)

    def test_fixed_subgroup_order(self):
        p = 13
        ctx = ctx_for(p)
        endo = gls_endo(ctx, 2, 3)
        n0 = subfield_order(ctx, 2, 3)
        t0 = p + 1 - n0
        assert t0 * t0 - 2 * p == oracle_trace(endo.curve)
        fixed = sum(1 for P in curve_points(endo.curve) if P.is_infinity or endo(P) == P)
        assert fixed == p + 1 - t0

    def test_subfield_order_guard(self):
        assert subfield_order(ctx_for(509), 2, 3) > 0
        with pytest.raises(OracleGuardError):
            subfield_order(ctx_for(521), 2, 3)

    def test_twisted_eigenvalue_squares_to_minus_one(self):
        p = 11
        ctx = ctx_for(p)
        endo = gls_endo(ctx, 3, 5, twisted=True)
        t = oracle_trace(gls_endo(ctx, 3, 5).curve)
        r = determine_r(endo, t)
        n_twist = oracle_order(endo.curve)
        factor = max(prime_factors(n_twist))
        if math.gcd(r, factor) == 1:
            lam = eigenvalue(endo, r, factor)
            assert lam * lam % factor == factor - 1
            P = endo.curve.mul(n_twist // factor, random_point(endo.curve, 0))
            if not P.is_infinity:
                assert endo(P) == endo.curve.mul(lam, P)
