import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurve.errors import DomainError, OffCurveError, OracleGuardError
from qcurve.fields import Fp2, is_probable_prime
from qcurve.weierstrass import (
    INFINITY,
    Curve,
    Point,
    curve_points,
    oracle_order,
    oracle_trace,
    random_point,
)

from conftest import ctx_for


def sample_curve(p, a=1, b=4, bi=0):
    ctx = ctx_for(p)
    return Curve(ctx.elem(a), ctx.elem(b, bi))


class TestGroupLaw:
    def test_identity_and_inverse(self):
        curve = sample_curve(7)
        for P in curve_points(curve):
            assert curve.add(P, INFINITY) == P
            assert curve.add(INFINITY, P) == P
            assert curve.add(P, curve.neg(P)).is_infinity

    def test_exhaustive_associativity_over_f25(self):
        curve = sample_curve(5)
        pts = curve_points(curve)
        for P in pts:
            for Q in pts:
                PQ = curve.add(P, Q)
                assert PQ == curve.add(Q, P)
                for R in pts:
                    assert curve.add(PQ, R) == curve.add(P, curve.add(Q, R))

    def test_off_curve_rejected(self):
        curve = sample_curve(7)
        ctx = curve.ctx
        bogus = Point(ctx.elem(1), ctx.elem(1))
        assert not curve.is_on(bogus)
        with pytest.raises(OffCurveError):
            curve.add(bogus, INFINITY)
        with pytest.raises(OffCurveError):
            curve.mul(3, bogus)
        with pytest.raises(OffCurveError):
            curve.point(ctx.elem(1), ctx.elem(1))


class TestScalarMul:
    def test_zero_and_double(self):
        curve = sample_curve(7)
        P = random_point(curve, 0)
        assert curve.mul(0, P).is_infinity
        assert curve.mul(2, P) == curve.add(P, P)
        assert curve.mul(-3, P) == curve.neg(curve.mul(3, P))

    @given(st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=60)
    def test_bilinear(self, m, n):
        curve = sample_curve(7)
        P = random_point(curve, 1)
        assert curve.mul(m + n, P) == curve.add(curve.mul(m, P), curve.mul(n, P))
        assert curve.mul(m * n, P) == curve.mul(m, curve.mul(n, P))

    @pytest.mark.parametrize("p", [5, 7])
    def test_order_annihilates_every_point(self, p):
        curve = sample_curve(p)
        n = oracle_order(curve)
        for P in curve_points(curve):
            assert curve.mul(n, P).is_infinity


class TestOracle:
    def test_matches_independent_enumeration(self):
        curve = sample_curve(5, a=1, b=0)
        ctx = curve.ctx
        count = 1
        for xa in range(5):
            for xb in range(5):
                for ya in range(5):
                    for yb in range(5):
                        x, y = Fp2(ctx, xa, xb), Fp2(ctx, ya, yb)
                        if y * y == x * x * x + curve.A * x + curve.B:
                            count += 1
        assert oracle_order(curve) == count

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_hasse_bound(self, p):
        curve = sample_curve(p)
        assert abs(p * p + 1 - oracle_order(curve)) <= 2 * p

    def test_guard(self):
        curve = sample_curve(67)
        with pytest.raises(OracleGuardError):
            oracle_order(curve)

    def test_count_annihilates_sampled_points_near_guard(self):
        curve = sample_curve(61)
        n = oracle_order(curve)
        assert abs(61 * 61 + 1 - n) <= 2 * 61
        for seed in range(5):
            assert curve.mul(n, random_point(curve, seed)).is_infinity

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_twist_order_sum(self, p):
        curve = sample_curve(p, a=2, b=3, bi=1)
        twist, mu = curve.quadratic_twist()
        assert not mu.is_square()
        assert oracle_order(curve) + oracle_order(twist) == 2 * (p * p + 1)
        assert oracle_trace(twist) == -oracle_trace(curve)


class TestTwist:
    @pytest.mark.parametrize("p", [5, 11, 13])
    def test_twist_preserves_j(self, p):
        curve = sample_curve(p, a=2, b=1, bi=2)
        twist, _ = curve.quadratic_twist()
        assert twist.j_invariant() == curve.j_invariant()
        double_twist, _ = twist.quadratic_twist()
        assert double_twist.j_invariant() == curve.j_invariant()

    def test_j_special_values(self):
        ctx = ctx_for(13)
        assert Curve(ctx.zero(), ctx.elem(1)).j_invariant() == 0
        assert Curve(ctx.elem(1), ctx.zero()).j_invariant() == 1728 % 13


class TestRandomPoint:
    def test_deterministic_and_on_curve(self):
        curve = sample_curve(13)
        P = random_point(curve, 42)
        assert curve.is_on(P)
        assert random_point(curve, 42) == P
        assert random_point(curve, 43) != P

    def test_same_group_on_prime_order_curve(self):
        found = None
        for p in (5, 7, 11, 13):
            ctx = ctx_for(p)
            for a in range(1, p):
                for b in range(p):
                    try:
                        curve = Curve(ctx.elem(a), ctx.elem(b, 1))
                    except DomainError:
                        continue
                    n = oracle_order(curve)
                    if is_probable_prime(n):
                        found = (curve, n)
                        break
                if found:
                    break
            if found:
                break
        assert found, "no prime-order curve in range"
        curve, n = found
        for seed in (0, 1):
            P = random_point(curve, seed)
            assert curve.mul(n, P).is_infinity
            assert not any(curve.mul(k, P).is_infinity for k in range(1, min(n, 50)))

    def test_big_prime(self):
        from conftest import MERSENNE_127

        from qcurve.fields import FieldCtx

        curve = Curve(FieldCtx(MERSENNE_127, -1).elem(1), FieldCtx(MERSENNE_127, -1).elem(3))
        assert curve.is_on(random_point(curve, 0))
