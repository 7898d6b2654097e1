import pytest

from qcurve.errors import DomainError, MapPoleError, UntabulatedError
from qcurve.families import Endo, build_family_curve
from qcurve.models import (
    XZPoint,
    dik_contains,
    dik_point,
    dik_to_weierstrass,
    edwards_contains,
    edwards_point,
    ladder,
    montgomery_contains,
    montgomery_point,
    montgomery_to_weierstrass,
    psi_montgomery,
    to_dik,
    to_edwards,
    to_montgomery,
    to_xz,
)
from qcurve.weierstrass import INFINITY, curve_points, random_point

from conftest import ctx_for


def montgomery_fixture(p=7):
    for s in range(p):
        fam = build_family_curve(2, ctx_for(p), s)
        mont = to_montgomery(fam)
        if mont is not None:
            return fam, mont
    raise AssertionError("no representable parameter")


class TestMontgomery:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_representable_iff_2c_is_square(self, p):
        for s in range(p):
            fam = build_family_curve(2, ctx_for(p), s)
            mont = to_montgomery(fam)
            assert (mont is not None) == (2 * fam.constant).is_square()
            if mont is not None:
                assert mont.B * mont.B == 2 * fam.constant
                assert mont.A * mont.B == 12

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_full_two_torsion_iff_c_is_square(self, p):
        for s in range(p):
            fam = build_family_curve(2, ctx_for(p), s)
            two_torsion = sum(
                1
                for P in curve_points(fam.curve)
                if not P.is_infinity and not P.y
            )
            assert (two_torsion == 3) == fam.constant.is_square()

    def test_round_trip(self):
        fam, mont = montgomery_fixture()
        for seed in range(4):
            P = random_point(fam.curve, seed)
            uv = montgomery_point(mont, P)
            assert montgomery_contains(mont, uv)
            assert montgomery_to_weierstrass(mont, uv) == P

    def test_exhaustive_ladder_agreement(self):
        fam, mont = montgomery_fixture()
        pts = curve_points(fam.curve)
        n = len(pts)
        for P in pts:
            xz = to_xz(mont, P)
            for k in range(n):
                assert ladder(k, xz, mont) == to_xz(mont, fam.curve.mul(k, P))

    def test_ladder_trivial_cases(self):
        fam, mont = montgomery_fixture()
        P = random_point(fam.curve, 1)
        xz = to_xz(mont, P)
        one = fam.ctx.one()
        assert ladder(0, xz, mont) == XZPoint(one, fam.ctx.zero())
        assert ladder(1, xz, mont) == xz
        assert ladder(-3, xz, mont) == ladder(3, xz, mont)

    def test_xz_point_rules(self):
        ctx = ctx_for(7)
        with pytest.raises(DomainError):
            XZPoint(ctx.zero(), ctx.zero())
        assert XZPoint(ctx.elem(2), ctx.one()) == XZPoint(ctx.elem(4), ctx.elem(2))


class TestPsiMontgomery:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_matches_weierstrass_endomorphism(self, p):
        for s in range(p):
            fam = build_family_curve(2, ctx_for(p), s)
            mont = to_montgomery(fam)
            if mont is None:
                continue
            endo = Endo(fam)
            for P in curve_points(fam.curve):
                assert psi_montgomery(to_xz(mont, P), mont) == to_xz(mont, endo(P))

    def test_square_is_doubling_up_to_conjugation(self):
        fam, mont = montgomery_fixture(7)
        endo = Endo(fam)
        for P in curve_points(fam.curve):
            twice = psi_montgomery(psi_montgomery(to_xz(mont, P), mont), mont)
            assert twice == to_xz(mont, fam.curve.mul(2 * endo.eps, P))

    def test_projectively_well_defined(self):
        fam, mont = montgomery_fixture(11)
        P = random_point(fam.curve, 2)
        xz = to_xz(mont, P)
        lam = fam.ctx.elem(5, 3)
        scaled = XZPoint(xz.X * lam, xz.Z * lam)
        assert psi_montgomery(scaled, mont) == psi_montgomery(xz, mont)

    def test_infinity_fixed(self):
        fam, mont = montgomery_fixture()
        inf = XZPoint(fam.ctx.one(), fam.ctx.zero())
        assert psi_montgomery(inf, mont) == inf


class TestEdwards:
    def test_coefficient_relations(self):
        fam, mont = montgomery_fixture()
        ed = to_edwards(fam)
        assert ed.a + ed.d == 24
        assert ed.a - ed.d == 4 * mont.B

    def test_identity_image(self):
        fam, _ = montgomery_fixture()
        ed = to_edwards(fam)
        assert edwards_point(ed, INFINITY) == (fam.ctx.zero(), fam.ctx.one())

    def test_images_satisfy_curve_equation(self):
        fam, _ = montgomery_fixture()
        ed = to_edwards(fam)
        for P in curve_points(fam.curve):
            try:
                q = edwards_point(ed, P)
            except MapPoleError:
                continue
            assert edwards_contains(ed, q)

    def test_pole_errors_are_named(self):
        fam, mont = montgomery_fixture()
        ed = to_edwards(fam)
        for P in curve_points(fam.curve):
            if P.is_infinity:
                continue
            if not P.y:
                with pytest.raises(MapPoleError, match="two-torsion"):
                    edwards_point(ed, P)
            elif P.x == 4 - mont.B:
                with pytest.raises(MapPoleError, match="4 - B"):
                    edwards_point(ed, P)


class TestDik:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_doubling_representable_iff_alpha_square(self, p):
        for s in range(p):
            fam = build_family_curve(2, ctx_for(p), s)
            dik = to_dik(fam)
            alpha = 96 / fam.constant
            assert (dik is not None) == alpha.is_square()
            if dik is not None:
                assert dik.alpha32 * dik.alpha32 == alpha**3

    def test_variant_degree_mismatch(self):
        # The family's degree picks the model; degrees 5 and 7 have none.
        for d in (5, 7):
            fam = build_family_curve(d, ctx_for(11), 1)
            with pytest.raises(UntabulatedError, match="degree-2 and degree-3 families"):
                to_dik(fam)

    @pytest.mark.parametrize("d", [2, 3], ids=["2-doubling", "3-tripling"])
    def test_round_trip_and_transport(self, d):
        """Every affine point is transported onto the model, lands on it, and
        maps back: the model has no group law of its own to check."""
        p = 7
        hit = False
        for s in range(p):
            fam = build_family_curve(d, ctx_for(p), s)
            dik = to_dik(fam)
            if dik is None:
                continue
            hit = True
            pts = [P for P in curve_points(fam.curve) if not P.is_infinity]
            for P in pts:
                uv = dik_point(dik, P)
                assert dik_contains(dik, uv)
                assert dik_to_weierstrass(dik, uv) == P
        assert hit


class TestErrorBranches:
    @staticmethod
    def doubling_fixture(p=7):
        for s in range(p):
            fam = build_family_curve(2, ctx_for(p), s)
            dik = to_dik(fam)
            if dik is not None:
                return fam, dik
        raise AssertionError("no representable parameter")

    def test_degree2_models_reject_degree3(self):
        fam = build_family_curve(3, ctx_for(7), 1)
        for build in (to_montgomery, to_edwards):
            with pytest.raises(UntabulatedError, match="degree-2 family") as exc:
                build(fam)
            assert exc.type is UntabulatedError

    def test_affine_charts_reject_infinity(self):
        _, mont = montgomery_fixture()
        with pytest.raises(MapPoleError):
            montgomery_point(mont, INFINITY)
        _, dik = self.doubling_fixture()
        with pytest.raises(MapPoleError):
            dik_point(dik, INFINITY)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_edwards_exists_iff_montgomery(self, p):
        for s in range(p):
            fam = build_family_curve(2, ctx_for(p), s)
            assert (to_edwards(fam) is None) == (to_montgomery(fam) is None)

