import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurve.errors import (
    DomainError,
    OffCurveError,
    ResidueClassError,
    StructureError,
    SubgroupPointError,
    SupersingularError,
)
from qcurve.families import FAMILY_DEGREES, Endo, build_family_curve, determine_r, eigenvalue, epsilon_p, group_orders
from qcurve import glv
from qcurve.glv import (
    COFACTOR2_D2,
    COFACTOR3_D3,
    COFACTOR4_D2,
    PRIME_ORDER,
    Decomposition,
    GlvBasis,
    bound_bitlength,
    ceil_log2,
    cofactor_basis,
    coset_minimum,
    decompose,
    det2,
    first_nonminimal,
    infnorm,
    is_reduced,
    lagrange_reduce,
    multiexp2,
    reduced_lattice_basis,
    subgroup_basis,
    subgroup_point,
    sublattice_basis,
)
from qcurve.weierstrass import Point, curve_points, oracle_trace, random_point

from qcurve.fields import FieldCtx, factorize, is_probable_prime
from qcurve.selftest import EXAMPLE_D2

from conftest import MERSENNE_127, ctx_for, prime_factors


def endo_data(d, p, s):
    fam = build_family_curve(d, ctx_for(p), s)
    endo = Endo(fam)
    r = determine_r(endo, oracle_trace(fam.curve))
    n_curve, n_twist = group_orders(endo, r)
    return fam, endo, r, n_curve, n_twist


def four_corner_reference(m, basis):
    """Nearest lattice vector by rational floor/ceiling, in decompose's loop
    order with the same strict <, so ties break identically."""
    b1, b2 = basis.b1, basis.b2
    det = det2(b1, b2)
    alpha = Fraction(m * b2[1], det)
    beta = Fraction(-m * b1[1], det)
    best = None
    for qa in (math.floor(alpha), math.ceil(alpha)):
        for qb in (math.floor(beta), math.ceil(beta)):
            cand = (m - (qa * b1[0] + qb * b2[0]), -(qa * b1[1] + qb * b2[1]))
            if best is None or infnorm(cand) < infnorm(best):
                best = cand
    return best


def _matching_variant(fam, endo, d, n_curve):
    """The basis variant implied by the cofactor structure, or (None, None)."""
    from qcurve.fields import is_probable_prime

    if d == 2:
        k = (n_curve & -n_curve).bit_length() - 1
        odd = n_curve >> k
        if k == 1:
            return COFACTOR2_D2, odd
        if k == 2 and fam.constant.is_square():
            return COFACTOR4_D2, odd
        return None, None
    if d == 3:
        if n_curve % 3 == 0 and (n_curve // 3) % 3:
            return COFACTOR3_D3, n_curve // 3
        return None, None
    if is_probable_prime(n_curve):
        return PRIME_ORDER, n_curve
    return None, None


class TestSublattice:
    @pytest.mark.parametrize("d,p", [(2, 13), (3, 13), (5, 11), (7, 13)])
    def test_determinant_is_group_order(self, d, p):
        for s in (1, 2, 3):
            try:
                fam, endo, r, n_curve, _ = endo_data(d, p, s)
            except DomainError:
                continue
            e1, e2 = sublattice_basis(p, endo.eps, d, r)
            assert det2(e1, e2) == n_curve

    def test_vectors_decompose_zero(self):
        fam, endo, r, n_curve, _ = endo_data(2, 13, 1)
        if r == 0:
            pytest.skip("supersingular fixture")
        n = n_curve >> 2
        lam = eigenvalue(endo, r, n)
        for v in sublattice_basis(13, endo.eps, 2, r):
            assert (v[0] + lam * v[1]) % n == 0

    def test_bitlength_at_cryptographic_scale(self):
        p = MERSENNE_127
        e1, e2 = sublattice_basis(p, 1, 5, 10003666146443583961)
        assert infnorm(e1) == infnorm(e2) == p + 1
        assert ceil_log2(p + 1) == 127


class TestLagrangeReduce:
    def test_already_reduced_unchanged_up_to_sign_and_order(self):
        b1, b2 = (3, 1), (-2, 4)
        assert is_reduced(b1, b2)
        r1, r2 = lagrange_reduce(b1, b2)
        assert {tuple(map(abs, r1)), tuple(map(abs, r2))} == {(3, 1), (2, 4)}

    @pytest.mark.parametrize("d,p,s", [(2, 13, 1), (3, 13, 1), (7, 13, 1)])
    def test_defining_generators_reduce_to_minimal_basis(self, d, p, s):
        fam, endo, r, n_curve, _ = endo_data(d, p, s)
        n = max(prime_factors(n_curve))
        if math.gcd(r, n) != 1 or n_curve % (n * n) == 0:
            pytest.skip("fixture lacks a clean large subgroup")
        lam = eigenvalue(endo, r, n)
        b1, b2 = lagrange_reduce((n, 0), (-lam, 1))
        assert is_reduced(b1, b2)
        assert abs(det2(b1, b2)) == n
        # no nonzero lattice vector is shorter than b1
        shortest = infnorm(b1)
        for x in range(-shortest, shortest + 1):
            for y in range(-shortest, shortest + 1):
                if (x, y) != (0, 0) and (x + lam * y) % n == 0:
                    assert max(abs(x), abs(y)) >= shortest

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=150)
    def test_determinant_preserved(self, a, b, c, d):
        if a * d - b * c == 0:
            return
        r1, r2 = lagrange_reduce((a, b), (c, d))
        assert abs(det2(r1, r2)) == abs(a * d - b * c)
        assert is_reduced(r1, r2)

    def test_dependent_vectors_rejected(self):
        with pytest.raises(DomainError):
            lagrange_reduce((2, 4), (1, 2))


class TestCofactorBases:
    def test_small_prime_sweep_respects_structure(self):
        seen = set()
        for d, p in ((2, 11), (2, 13), (3, 11), (3, 13), (5, 11), (7, 11), (7, 13)):
            for s in range(p):
                try:
                    fam, endo, r, n_curve, _ = endo_data(d, p, s)
                except DomainError:
                    continue
                if r == 0:
                    continue
                variant, n = _matching_variant(fam, endo, d, n_curve)
                if variant is None or math.gcd(r, n) != 1:
                    continue
                lam = eigenvalue(endo, r, n)
                basis = cofactor_basis(variant, p, endo.eps, d, r, n, lam)
                assert is_reduced(basis.b1, basis.b2)
                assert abs(det2(basis.b1, basis.b2)) == n
                for v in (basis.b1, basis.b2):
                    assert (v[0] + lam * v[1]) % n == 0
                seen.add(variant)
        assert {COFACTOR2_D2, COFACTOR3_D3, PRIME_ORDER} <= seen

    def test_bound_covers_every_variant_basis_below_64(self):
        """bound_bitlength is at least the basis's own bit length for every
        (p, d, r) that a member at p < 64 can have (r != 0, d r^2 <= 4p by
        Hasse), under each variant whose structure the order admits: a
        superset of the members that get a variant basis, at every delta."""
        seen = set()
        for p in (q for q in range(5, 64) if is_probable_prime(q)):
            for d in FAMILY_DEGREES:
                try:
                    eps = epsilon_p(d, p)
                except ResidueClassError:
                    continue
                for q in range(1, math.isqrt(4 * p // d) + 1):
                    for r in (q, -q):
                        n = (p + eps) ** 2 - eps * d * r * r
                        if d == 2:
                            cases = [(COFACTOR2_D2, n // 2), (COFACTOR4_D2, n // 4)]
                        elif d == 3:
                            cases = [(COFACTOR3_D3, n // 3)]
                        else:
                            cases = [(PRIME_ORDER, n)] if is_probable_prime(n) else []
                        for variant, m in cases:
                            if math.gcd(r, m) != 1:
                                continue
                            try:
                                basis = cofactor_basis(variant, p, eps, d, r, m, (p + eps) * pow(r, -1, m) % m)
                            except StructureError:
                                continue
                            assert bound_bitlength(variant, p, eps, r, basis) >= basis.bitlength, (p, d, r)
                            seen.add(variant)
        assert seen == {COFACTOR2_D2, COFACTOR4_D2, COFACTOR3_D3, PRIME_ORDER}

    def test_divisibility_guards(self):
        with pytest.raises(StructureError):
            cofactor_basis(COFACTOR2_D2, 13, 1, 2, 2, 47, 10)  # r even
        with pytest.raises(StructureError):
            cofactor_basis(COFACTOR4_D2, 13, 1, 2, 3, 47, 10)  # r odd
        with pytest.raises(StructureError):
            cofactor_basis(COFACTOR3_D3, 13, 1, 3, 3, 47, 10)  # 3 | r
        with pytest.raises(StructureError):
            cofactor_basis(COFACTOR3_D3, 13, 1, 3, 1, 48, 10)  # 3 | N

    def test_membership_guard_catches_wrong_eigenvalue(self):
        fam, endo, r, n_curve, _ = endo_data(2, 13, 1)
        n = n_curve >> 2
        lam = eigenvalue(endo, r, n)
        with pytest.raises(StructureError):
            cofactor_basis(COFACTOR4_D2, 13, endo.eps, 2, r, n, (lam + 1) % n)


class TestErrorBranches:
    @pytest.mark.parametrize("variant,d", [(COFACTOR2_D2, 3), (COFACTOR4_D2, 3), (COFACTOR3_D3, 2)])
    def test_cofactor_basis_of_the_wrong_degree(self, variant, d):
        with pytest.raises(StructureError, match=f"applies to the degree-{5 - d} family"):
            cofactor_basis(variant, 13, 1, d, 1, 47, 10)

    def test_unknown_cofactor_variant(self):
        with pytest.raises(StructureError, match="unknown basis variant") as exc:
            cofactor_basis("cofactor5_d5", 13, 1, 2, 1, 47, 10)
        assert exc.type is StructureError

    def test_subgroup_basis_of_a_supersingular_curve(self):
        endo = Endo(build_family_curve(5, ctx_for(11), 1))
        with pytest.raises(SupersingularError):
            subgroup_basis(endo, 0, factorize(2 * (11 * 11 + 1)))

    def test_basis_of_the_wrong_determinant(self):
        n, lam = 47, 10
        with pytest.raises(StructureError, match="determinant"):
            GlvBasis((n, 0), (0, n), n, lam)

    def test_ceil_log2_of_zero(self):
        with pytest.raises(StructureError, match="nonpositive") as exc:
            ceil_log2(0)
        assert exc.type is StructureError


class TestSubgroupPoint:
    def test_point_of_the_subgroup(self):
        fam, _, _, n_curve, _ = endo_data(2, 13, 1)
        n = n_curve >> 2
        images = [fam.curve.mul(4, random_point(fam.curve, s)) for s in range(80)]
        assert any(Q.is_infinity for Q in images[:16])  # the cofactor kills some
        for seed in range(16):
            P = subgroup_point(fam.curve, 4, seed)
            assert not P.is_infinity and fam.curve.mul(n, P).is_infinity
            assert P == next(Q for Q in images[seed:] if not Q.is_infinity)

    def test_only_torsion_points_is_a_named_error(self, monkeypatch):
        fam, _, _, n_curve, _ = endo_data(2, 13, 1)
        T = next(P for P in curve_points(fam.curve) if not P.is_infinity and not P.y)
        seeds = []

        def torsion_point(curve, seed):
            seeds.append(seed)
            return T

        monkeypatch.setattr(glv, "random_point", torsion_point)
        with pytest.raises(SubgroupPointError, match="seeds 5 to 68") as exc:
            subgroup_point(fam.curve, 4, 5)
        assert exc.type is SubgroupPointError
        assert seeds == list(range(5, 69))


class TestSubgroupChoice:
    # Primes past the trial-division bound 2^20: Q below the square of the
    # bound (proven prime by the exhausted range), Q1 and Q2 above it.
    Q, Q1, Q2 = 1048583, 2**61 - 1, 2**89 - 1

    @pytest.mark.parametrize("d,s", [(5, 2), (7, 2)])
    def test_subgroup_order_never_divides_its_cofactor(self, d, s):
        fam, endo, r, _, _ = endo_data(d, 11, s)
        assert r != 0
        q, q1, q2 = self.Q, self.Q1, self.Q2
        cases = [
            (3 * q * q, q * q),
            (3 * q1 * q1, q1 * q1),
            (3 * q, q),
            (q1, q1),
            (q1 * q2, q1 * q2),
        ] + [(2**k * a * b, a * b) for k in (1, 2, 3, 5) for a, b in ((q1, q2), (q, q1), (q, q2))]
        for order, expected in cases:
            variant, n = glv._choose_subgroup(fam, r, factorize(order))
            assert n == expected, order
            assert (order // n) % n != 0, order
            assert variant == (PRIME_ORDER if order == q1 else None), order


class TestDecompose:
    def fixture(self):
        fam, endo, r, n_curve, _ = endo_data(2, 13, 1)
        n = n_curve >> 2
        lam = eigenvalue(endo, r, n)
        return fam, endo, n, lam, reduced_lattice_basis(n, lam)

    def small_bases(self):
        """The fixture's reduced-lattice basis, and one cofactor basis per
        degree."""
        yield self.fixture()[-1]
        for d, p, s in ((2, 13, 1), (3, 13, 4), (5, 11, 2), (7, 11, 2)):
            _, endo, r, n_curve, _ = endo_data(d, p, s)
            yield subgroup_basis(endo, r, factorize(n_curve))[1]

    def test_coset_minimum_is_the_least_norm_in_the_box(self):
        # Every (a, b) of the ||b2|| box, not only the two a per b that
        # coset_minimum walks.
        for basis in self.small_bases():
            n, lam, radius = basis.order, basis.eigenvalue, infnorm(basis.b2)
            box = [(a, b) for a in range(-radius, radius + 1) for b in range(-radius, radius + 1)]
            for m in range(n):
                norms = [max(abs(a), abs(b)) for a, b in box if (a + b * lam - m) % n == 0]
                assert coset_minimum(m, basis) == min(norms, default=None), (basis, m)

    def test_zero_and_order_give_zero(self):
        _, _, n, _, basis = self.fixture()
        assert decompose(0, basis) == decompose(n, basis)
        assert decompose(0, basis).a == 0 and decompose(0, basis).b == 0

    def test_minimality_for_all_scalars(self):
        _, _, n, lam, basis = self.fixture()
        radius = infnorm(basis.b2)
        for m in range(n):
            dec = decompose(m, basis)
            assert (dec.a + dec.b * lam - m) % n == 0
            assert dec.norm <= radius
            assert dec.norm == coset_minimum(m, basis)
            assert (dec.a, dec.b) == four_corner_reference(m, basis)

    def test_first_nonminimal_names_the_first_long_decomposition(self, monkeypatch):
        _, _, n, _, basis = self.fixture()
        assert first_nonminimal(basis) is None
        # Adding n to a keeps a decomposition of m but leaves the ||b2|| box.
        exact = glv.decompose
        monkeypatch.setattr(glv, "decompose", lambda m, b: Decomposition(exact(m, b).a + n * (m >= 5), exact(m, b).b))
        assert first_nonminimal(basis) == 5

    def test_matches_fraction_reference_on_paper_basis(self):
        fam = build_family_curve(2, FieldCtx(MERSENNE_127, -1), EXAMPLE_D2["s"])
        endo = Endo(fam)
        r = determine_r(endo, EXAMPLE_D2["trace"])
        n = group_orders(endo, r)[0] // 2
        basis = cofactor_basis(COFACTOR2_D2, MERSENNE_127, endo.eps, 2, r, n, eigenvalue(endo, r, n))
        rng = random.Random(2014)
        for _ in range(200):
            m = rng.randrange(1 << 252, n)
            dec = decompose(m, basis)
            assert (dec.a, dec.b) == four_corner_reference(m, basis)

    def test_rounding_variant_loses_at_most_one_bit(self):
        # Nearest-integer rounding instead of the four-corner minimum costs
        # at most one bit of decomposition length.
        _, _, n, lam, basis = self.fixture()
        b1, b2 = basis.b1, basis.b2
        det = det2(b1, b2)
        for m in range(n):
            exact = decompose(m, basis).norm
            alpha = Fraction(m * b2[1], det)
            beta = Fraction(-m * b1[1], det)
            qa, qb = _round_half_up(alpha), _round_half_up(beta)
            rounded = (m - (qa * b1[0] + qb * b2[0]), -(qa * b1[1] + qb * b2[1]))
            assert infnorm(rounded) >= exact
            if exact:
                assert ceil_log2(max(infnorm(rounded), 1)) <= ceil_log2(exact) + 1

    def test_requires_reduced_basis(self):
        _, _, n, lam, basis = self.fixture()
        with pytest.raises(StructureError):
            GlvBasis((n, 0), (-lam, 1), n, lam)
        skewed = GlvBasis.__new__(GlvBasis)
        object.__setattr__(skewed, "b1", (n, 0))
        object.__setattr__(skewed, "b2", (-lam, 1))
        object.__setattr__(skewed, "order", n)
        object.__setattr__(skewed, "eigenvalue", lam)
        with pytest.raises(StructureError):
            decompose(5, skewed)


def _round_half_up(x: Fraction) -> int:
    from math import floor

    return floor(x + Fraction(1, 2))


class TestMultiexp:
    def test_trivial_cases(self):
        fam, endo, r, n_curve, _ = endo_data(2, 13, 2)
        P = random_point(fam.curve, 0)
        Q = endo(P)
        assert multiexp2(1, 0, P, Q, fam.curve) == P
        assert multiexp2(0, 1, P, Q, fam.curve) == Q
        assert multiexp2(0, 0, P, Q, fam.curve).is_infinity

    def test_off_curve_operand(self):
        fam = build_family_curve(2, ctx_for(13), 2)
        P = random_point(fam.curve, 0)
        bogus = Point(P.x, P.y + 1)
        for args in ((P, bogus), (bogus, P)):
            with pytest.raises(OffCurveError):
                multiexp2(1, 1, *args, fam.curve)

    @given(st.integers(-300, 300), st.integers(-300, 300))
    @settings(max_examples=80)
    def test_matches_separate_scalar_muls(self, a, b):
        fam = build_family_curve(2, ctx_for(13), 2)
        endo = Endo(fam)
        P = random_point(fam.curve, 3)
        Q = endo(P)
        lhs = multiexp2(a, b, P, Q, fam.curve)
        rhs = fam.curve.add(fam.curve.mul(a, P), fam.curve.mul(b, Q))
        assert lhs == rhs

    def test_end_to_end_with_decomposition(self):
        fam, endo, r, n_curve, _ = endo_data(3, 11, 3)
        n = n_curve // 3
        assert n % 3 and math.gcd(r, n) == 1
        lam = eigenvalue(endo, r, n)
        basis = cofactor_basis(COFACTOR3_D3, 11, endo.eps, 3, r, n, lam)
        P = subgroup_point(fam.curve, n_curve // n, 0)
        for m in range(n):
            dec = decompose(m, basis)
            assert multiexp2(dec.a, dec.b, P, endo(P), fam.curve) == fam.curve.mul(m, P)
