from fractions import Fraction

import pytest

from qcurve.cmtables import (
    FIBERS,
    TABLE1,
    TABLE2,
    cm_fibers,
    cm_j_candidates,
    detect_cm,
    fiber_matches,
    fiber_parameter,
)
from qcurve.errors import DomainError, UntabulatedError
from qcurve.families import build_family_curve, gls_endo
from qcurve.fields import is_probable_prime, legendre
from qcurve.weierstrass import Curve

from conftest import count_calls, ctx_for


class TestTableShape:
    def test_row_counts(self):
        assert len(TABLE1) == 13
        assert len(TABLE2) == 29
        assert not set(TABLE1) & set(TABLE2)

    def test_fiber_counts(self):
        assert len(cm_fibers(2)) == 13
        assert len(cm_fibers(3)) == 13
        assert len(cm_fibers(5)) == 2
        assert len(cm_fibers(7)) == 6
        assert sum(1 for f in cm_fibers(7) if not f.constructible) == 1

    def test_every_fiber_disc_is_tabulated(self):
        for d, fibers in FIBERS.items():
            for fib in fibers:
                assert fib.disc in TABLE1 or fib.disc in TABLE2

    def test_degree5_fibers(self):
        fibers = cm_fibers(5)
        assert all(f.disc == (4, 2) for f in fibers)
        assert all(not f.sign_free for f in fibers)
        assert TABLE1[(4, 2)] == 66**3

    def test_degree2_contains_zero_fiber(self):
        zero = [f for f in cm_fibers(2) if f.constructible and f.coeff == 0]
        assert len(zero) == 1 and zero[0].disc == (8, 1)

    def test_unknown_degree_rejected(self):
        with pytest.raises(DomainError):
            cm_fibers(4)


class TestDetection:
    def test_degree2_origin(self):
        for p in (11, 17, 19):
            fam = build_family_curve(2, ctx_for(p), 0)
            assert detect_cm(fam) == (8, 1)
            assert fam.curve.j_invariant() == fam.ctx.elem(8000)

    def test_degree3_origin(self):
        for p in (11, 13, 17):
            fam = build_family_curve(3, ctx_for(p), 0)
            assert detect_cm(fam) == (3, 2)
            assert fam.curve.j_invariant() == fam.ctx.elem(54000)

    @pytest.mark.parametrize("d,p", [(2, 13), (3, 13), (5, 11), (7, 13)])
    def test_exhaustive_sweep_matches_fiber_conditions(self, d, p):
        ctx = ctx_for(p)
        for s in range(p):
            try:
                fam = build_family_curve(d, ctx, s)
            except DomainError:
                continue
            expected = any(fiber_matches(f, ctx, s) for f in cm_fibers(d))
            assert (detect_cm(fam) is not None) == expected

    @pytest.mark.parametrize("d,p", [(2, 13), (3, 13), (5, 11), (7, 13)])
    def test_j_only_where_a_fiber_condition_holds(self, d, p, monkeypatch):
        """detect_cm evaluates j, one Fp2 inversion, once for a member whose
        parameter meets some fiber condition and not at all otherwise."""
        ctx = ctx_for(p)
        calls = count_calls(monkeypatch, Curve, "j_invariant")
        seen = set()
        for s in range(p):
            try:
                fam = build_family_curve(d, ctx, s)
            except DomainError:
                continue
            matched = any(fiber_matches(f, ctx, s) for f in cm_fibers(d))
            calls.clear()
            detect_cm(fam)
            assert len(calls) == matched
            seen.add(matched)
        assert seen == {True, False}

    @pytest.mark.parametrize("d", [2, 3])
    def test_fiber_set_stable_under_negation(self, d):
        for p in (11, 13):
            ctx = ctx_for(p)
            matched = {
                s
                for s in range(p)
                for f in cm_fibers(d)
                if fiber_matches(f, ctx, s)
            }
            assert matched == {(-s) % p for s in matched}

    def test_matches_exactly_at_the_fiber_parameter(self):
        # Where p divides a fiber's denominator the fiber lies at infinity
        # mod p: no s matches and fiber_parameter is None.  Elsewhere a
        # sign-free fiber's s solves s^2 = target, and fiber_parameter must
        # find one exactly when target is a residue.
        for p in (q for q in range(5, 400) if is_probable_prime(q)):
            ctx = ctx_for(p)
            for fiber in (f for fibers in FIBERS.values() for f in fibers if f.constructible):
                t = fiber_parameter(fiber, ctx)
                num, den = fiber.coeff.numerator, fiber.coeff.denominator
                if fiber.sign_free and den % p:
                    target = num * num * fiber.radicand * pow(den * den * ctx.delta, -1, p) % p
                    assert (t is None) == (legendre(target, p) == -1), (p, fiber)
                if t is None:
                    expected = set()
                elif fiber.sign_free:
                    expected = {t, -t % p}
                else:
                    expected = {t}
                assert {s for s in range(p) if fiber_matches(fiber, ctx, s)} == expected, (p, fiber)

    def test_fiber_at_infinity_has_no_parameter(self):
        # 9801 = 3^4 * 11^2, so the d=2 fiber of discriminant -232 lies at
        # infinity mod 11.
        (fiber,) = (f for f in cm_fibers(2) if f.coeff == Fraction(1820, 9801))
        assert fiber_parameter(fiber, ctx_for(11)) is None

    def test_no_fiber_table_for_the_gls_case(self):
        with pytest.raises(UntabulatedError, match="no fiber table for degree 1") as exc:
            detect_cm(gls_endo(ctx_for(11), 3, 5).family)
        assert exc.type is UntabulatedError

    def test_degree5_exact_fibers(self):
        ctx = ctx_for(23)
        hits = {s for s in range(23) if any(fiber_matches(f, ctx, s) for f in cm_fibers(5))}
        assert hits == {1, (-9 * pow(13, -1, 23)) % 23}


class TestJReduction:
    def realizations(self, fib, d, count=3, bound=500):
        p = 7
        out = []
        while len(out) < count and p < bound:
            p += 2
            if not is_probable_prime(p):
                continue
            if d == 5 and p % 4 != 3:
                continue
            if p <= 7:
                continue
            ctx = ctx_for(p)
            s = fiber_parameter(fib, ctx)
            if s is None:
                continue
            try:
                fam = build_family_curve(d, ctx, s)
            except DomainError:
                continue
            out.append((ctx, fam))
        return out

    def test_every_fiber_reduces_to_a_tabulated_root(self):
        for d, fibers in FIBERS.items():
            for fib in fibers:
                if not fib.constructible:
                    continue
                realizations = self.realizations(fib, d)
                assert len(realizations) == 3, (d, fib.disc)
                for ctx, fam in realizations:
                    j = fam.curve.j_invariant()
                    assert j in cm_j_candidates(fib.disc, ctx), (d, fib.disc, ctx.p)

    def test_class_number_two_candidates_are_conjugate(self):
        ctx = ctx_for(11)
        cands = cm_j_candidates((15, 1), ctx)
        assert len(cands) == 2
        assert cands[0].conjugate() in cands

    def test_missing_disc_rejected(self):
        with pytest.raises(DomainError):
            cm_j_candidates((6, 1), ctx_for(11))
