import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurve.errors import DomainError, FieldMismatchError, OffCurveError, OracleGuardError
from qcurve.families import build_family_curve
from qcurve.fields import FieldCtx, Fp2, is_probable_prime, legendre
from qcurve.glv import multiexp2
from qcurve.weierstrass import (
    INFINITY,
    ORACLE_MAX_P,
    Curve,
    Point,
    _JSF_DIGITS,
    _dbl,
    _jsf,
    _madd,
    curve_points,
    oracle_order,
    oracle_trace,
    random_point,
)

from conftest import (
    MERSENNE_127,
    SMALL_CURVES,
    count_calls,
    ctx_for,
    generic_127_curve,
    ref_dbl,
    ref_discriminant,
    ref_is_on,
    ref_jsf,
    ref_lift_x,
    ref_mul2,
)


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


def affine_mul(curve, k, P):
    """[k]P for k >= 0 by double-and-add on the affine Curve._add alone."""
    acc = INFINITY
    while k:
        if k & 1:
            acc = curve._add(acc, P)
        P = curve._add(P, P)
        k >>= 1
    return acc


def affine_mul2(curve, a, P, b, Q):
    """[a]P + [b]Q built only from the affine Curve._add (and negation)."""
    if a < 0:
        a, P = -a, curve.neg(P)
    if b < 0:
        b, Q = -b, curve.neg(Q)
    return curve._add(affine_mul(curve, a, P), affine_mul(curve, b, Q))


def to_jacobian(P, z):
    """P as the Jacobian int tuple (x z^2, y z^3, z) of the loop helpers."""
    X, Y = P.x * z * z, P.y * z * z * z
    return (X.a, X.b, Y.a, Y.b, z.a, z.b)


def from_jacobian(ctx, J):
    if J is None:
        return INFINITY
    zi = Fp2(ctx, J[4], J[5]).inverse()
    return Point(Fp2(ctx, J[0], J[1]) * zi * zi, Fp2(ctx, J[2], J[3]) * zi * zi * zi)


P5_CURVES = [c for c in SMALL_CURVES if c.values[1] == 5]
# Signed scalars for the pair tests: their joint sparse forms reach all nine
# table entries of the loop (TestJsf checks this).
SIGNED = range(-4, 4)
# The table indices of the columns (+-1, +-1) of _jsf, which add P + Q or
# P - Q or their negatives.
MIXED = {0, 2, 6, 8}


@functools.cache
def small_curve(d, p, s, twisted):
    curve = build_family_curve(d, ctx_for(p), s).curve
    if twisted:
        curve, _ = curve.quadratic_twist()
    return curve, curve_points(curve)


@functools.cache
def paper_curve(d, s):
    return build_family_curve(d, FieldCtx(MERSENNE_127, -1), s).curve


class TestJacobianLoop:
    """The Jacobian loop behind Curve.mul and multiexp2 against the affine
    reference Curve._add, which shares no code with it."""

    @pytest.mark.parametrize("d,p,s,twisted", SMALL_CURVES)
    def test_helpers_match_affine_on_every_pair(self, d, p, s, twisted):
        """With both representatives of delta: at p = 3 (mod 4), d = -1
        takes the F_p(i) body and d = p - 1 the generic one, and both must
        return the very same tuple.  Z != 1 exercises the scaling."""
        curve, pts = small_curve(d, p, s, twisted)
        ctx = curve.ctx
        z = Fp2(ctx, 2, 1)
        arg_sets = [(ctx.p, delta, curve.A.a, curve.A.b) for delta in (ctx.delta, ctx.signed_delta)]
        for P in pts[1:]:
            J = to_jacobian(P, z)
            generic, signed = (_dbl(J, 1, *args) for args in arg_sets)
            assert generic == signed and from_jacobian(ctx, signed) == curve._add(P, P)
            for Q in pts[1:]:
                T = (Q.x.a, Q.x.b, Q.y.a, Q.y.b)
                generic, signed = (_madd(J, T, *args) for args in arg_sets)
                assert generic == signed and from_jacobian(ctx, signed) == curve._add(P, Q)

    @pytest.mark.parametrize("d,p,s,twisted", SMALL_CURVES)
    def test_runs_match_affine_doublings(self, d, p, s, twisted):
        """_dbl(J, k) is k affine doublings, for every k up to the group
        order plus 2, so every run reaches points of order 2, where it
        must end at infinity, and repeats; with both representatives of
        delta, as above."""
        curve, pts = small_curve(d, p, s, twisted)
        ctx = curve.ctx
        z = Fp2(ctx, 2, 1)
        arg_sets = [(ctx.p, delta, curve.A.a, curve.A.b) for delta in (ctx.delta, ctx.signed_delta)]
        for P in pts[1:]:
            J = to_jacobian(P, z)
            doubled = P
            for k in range(1, len(pts) + 3):
                doubled = curve._add(doubled, doubled)
                generic, signed = (_dbl(J, k, *args) for args in arg_sets)
                assert generic == signed and from_jacobian(ctx, signed) == doubled

    def test_bodies_agree_at_127_bits(self):
        """The F_p(i) body (d = -1) and the generic one (d = p - 1) return
        the same tuples on 2,000 random tuples of residues mod 2^127 - 1,
        which need not be points: the formulas are identities of F_p(i)."""
        p = MERSENNE_127
        rng = random.Random(29)
        for _ in range(2000):
            J = tuple(rng.randrange(p) for _ in range(6))
            T = tuple(rng.randrange(p) for _ in range(4))
            A0, A1, k = rng.randrange(p), rng.randrange(p), rng.randrange(1, 4)
            assert _dbl(J, k, p, -1, A0, A1) == _dbl(J, k, p, p - 1, A0, A1)
            assert _madd(J, T, p, -1, A0, A1) == _madd(J, T, p, p - 1, A0, A1)

    @pytest.mark.parametrize("member", [(2, 28106), (5, 7930)], ids=["d2", "d5"])
    def test_long_run_matches_single_steps(self, member):
        """A run of 127 doublings, as in [p + eps]Q at p = 2^127 - 1, gives
        the very Jacobian coordinates of 127 dbl-2007-bl steps."""
        curve = paper_curve(*member)
        ctx = curve.ctx
        args = (ctx.p, ctx.signed_delta, curve.A.a, curve.A.b)
        J = to_jacobian(random_point(curve, 1), Fp2(ctx, 3, 5))
        expected = J
        for _ in range(127):
            expected = ref_dbl(expected, *args)
        assert _dbl(J, 127, *args) == expected

    @given(
        st.sampled_from([(2, 28106), (5, 7930)]),
        st.integers(-(2**127), 2**127),
        st.integers(-(2**127), 2**127),
    )
    @settings(max_examples=30)
    def test_runs_match_columns_at_127_bits(self, member, a, b):
        curve = paper_curve(*member)
        P, Q = random_point(curve, 1), random_point(curve, 2)
        assert curve._mul2(a, P, b, Q) == ref_mul2(curve, a, P, b, Q)
        assert curve.mul(a, P) == ref_mul2(curve, a, P, 0, INFINITY)

    @given(st.integers(-(2**127), 2**127), st.integers(-(2**127), 2**127))
    @settings(max_examples=10)
    def test_generic_body_matches_columns_at_127_bits(self, a, b):
        """At delta = 3, a nonresidue mod 2^127 - 1, the loop takes the
        generic body at 127 bits."""
        curve = generic_127_curve()
        P, Q = random_point(curve, 1), random_point(curve, 2)
        assert curve.ctx.signed_delta == 3
        assert curve._mul2(a, P, b, Q) == ref_mul2(curve, a, P, b, Q)

    @pytest.mark.parametrize("d,p,s,twisted", SMALL_CURVES)
    def test_every_multiple_matches_chain(self, d, p, s, twisted):
        curve, pts = small_curve(d, p, s, twisted)
        for P in pts:
            chain = INFINITY
            for k in range(len(pts) + 2):
                assert curve.mul(k, P) == chain
                assert curve.mul(-k, P) == curve.neg(chain)
                chain = curve._add(chain, P)

    @pytest.mark.parametrize("d,p,s,twisted", P5_CURVES)
    def test_every_pair_matches_affine(self, d, p, s, twisted):
        curve, pts = small_curve(d, p, s, twisted)
        multiples = {P: {k: affine_mul2(curve, k, P, 0, INFINITY) for k in SIGNED} for P in pts}
        for P in pts:
            for Q in pts:
                for a in SIGNED:
                    for b in SIGNED:
                        expected = curve._add(multiples[P][a], multiples[Q][b])
                        assert multiexp2(a, b, P, Q, curve) == expected

    @pytest.mark.parametrize("d,p,s,twisted", SMALL_CURVES)
    def test_unmixed_pairs_build_no_sum(self, d, p, s, twisted, monkeypatch):
        """Pairs whose joint sparse form has no column (+-1, +-1): [2^k]P +
        [b]Q, [a]P + [0]Q and [0]P + [b]Q.  _mul2 reads neither P + Q nor
        P - Q there, builds neither with a finite Q, and still returns the
        affine chain's [a]P + [b]Q; on a spread of points P, and Q among
        them, P and -P."""
        curve, pts = small_curve(d, p, s, twisted)
        n = len(pts)
        spread = pts[1 :: max(1, n // 8)]
        scalars = [(1 << k, b) for k in range(n.bit_length() + 1) for b in SIGNED]
        scalars += [(a, 0) for a in SIGNED] + [(0, b) for b in SIGNED]
        scalars = [(a, b) for a, b in scalars if MIXED.isdisjoint(ref_jsf(abs(a), abs(b)))]
        multiples = {}
        for P in {*spread, *map(curve.neg, spread)}:
            chain = [INFINITY]
            for _ in range(n):
                chain.append(curve._add(chain[-1], P))
            multiples[P] = chain
        adds = count_calls(monkeypatch, Curve, "_add")
        for P in spread:
            for Q in {*spread, P, curve.neg(P)}:
                for a, b in scalars:
                    expected = curve._add(multiples[P][a % n], multiples[Q][b % n])
                    adds.clear()
                    assert curve._mul2(a, P, b, Q) == expected
                    assert adds == []

    @pytest.mark.parametrize("member", [(2, 28106), (5, 7930)], ids=["d2", "d5"])
    def test_power_of_two_pair_builds_no_sum_at_127_bits(self, member, monkeypatch):
        """[2^127]P + [b]Q for |b| < 2^64, the shape of determine_r's joint
        loop: no column mixes the two scalars, so no Curve._add is made, and
        the result is ref_mul2's, whose table is full."""
        curve = paper_curve(*member)
        P, Q = random_point(curve, 1), random_point(curve, 2)
        rng = random.Random(42)
        bs = [rng.randrange(-(2**64), 2**64) for _ in range(8)]
        expected = [ref_mul2(curve, 2**127, P, b, Q) for b in bs]
        adds = count_calls(monkeypatch, Curve, "_add")
        assert [curve._mul2(2**127, P, b, Q) for b in bs] == expected
        assert adds == []

    EXCEPTIONAL = {
        "P == Q": lambda curve, pts: [(P, P) for P in pts],
        "P == -Q": lambda curve, pts: [(P, curve.neg(P)) for P in pts],
        "Q = O": lambda curve, pts: [(P, INFINITY) for P in pts],
        "y = 0": lambda curve, pts: [(P, Q) for P in pts[1:] if not P.y for Q in pts],
    }

    @pytest.mark.parametrize("case", [*EXCEPTIONAL, "a = b = 0"])
    @pytest.mark.parametrize("d,p,s,twisted", P5_CURVES)
    def test_exceptional_case(self, case, d, p, s, twisted):
        curve, pts = small_curve(d, p, s, twisted)
        if case == "a = b = 0":
            for P in pts:
                for Q in pts:
                    assert curve._mul2(0, P, 0, Q) is INFINITY
            return
        pairs = self.EXCEPTIONAL[case](curve, pts)
        assert pairs
        for P, Q in pairs:
            for a in SIGNED:
                for b in SIGNED:
                    assert curve._mul2(a, P, b, Q) == affine_mul2(curve, a, P, b, Q)

    @given(
        st.sampled_from([(2, 28106), (5, 7930)]),
        st.integers(2**252, 2**253 - 1),
        st.integers(2**252, 2**253 - 1),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=12)
    def test_matches_affine_at_127_bits(self, member, a, b, sign):
        curve = paper_curve(*member)
        P, Q = random_point(curve, 1), random_point(curve, 2)
        aP, bQ = affine_mul(curve, a, P), affine_mul(curve, b, Q)
        assert curve._mul2(a, P, b, Q) == curve._add(aP, bQ)
        assert curve.mul(sign * a, P) == (aP if sign > 0 else curve.neg(aP))
        signed_bQ = bQ if sign > 0 else curve.neg(bQ)
        assert multiexp2(a, sign * b, P, Q, curve) == curve._add(aP, signed_bQ)


def jsf_columns(a, b):
    """_jsf(a, b) expanded from runs back into columns, one table index
    per column, zero columns (index 4) included, most significant first."""
    runs = _jsf(a, b)
    pos = sum(run for _, run in runs)
    cols = [4] * (pos + 1) if runs else []
    for i, run in runs:
        cols[-1 - pos] = i
        pos -= run
    return cols


def jsf_rows(a, b):
    """The two digit rows of _jsf(a, b), least significant digit first."""
    cols = [divmod(i, 3) for i in reversed(jsf_columns(a, b))]
    return [u0 - 1 for u0, _ in cols], [u1 - 1 for _, u1 in cols]


class TestIntPairFormulas:
    """Curve.is_on, lift_x and discriminant, which run on int pairs, against
    the Fp2 expressions y*y == x*x*x + A*x + B, (x*x*x + A*x + B).sqrt() and
    -16*(4*A*A*A + 27*B*B) (conftest)."""

    @staticmethod
    def _check_every_pair(curve):
        ctx = curve.ctx
        elems = [Fp2(ctx, a, b) for a in range(ctx.p) for b in range(ctx.p)]
        assert curve.discriminant() == ref_discriminant(curve)
        on = 0
        for x in elems:
            assert curve.lift_x(x) == ref_lift_x(curve, x)
            for y in elems:
                P = Point(x, y)
                assert curve.is_on(P) is ref_is_on(curve, P)
                on += curve.is_on(P)
        assert curve.is_on(INFINITY)
        return on

    @pytest.mark.parametrize("d,p,s,twisted", SMALL_CURVES)
    def test_every_pair_on_small_curves(self, d, p, s, twisted):
        """Every (x, y) of F_{p^2} x F_{p^2}, so every point and its
        off-curve (x, y + 1) among them; the count of pairs on the curve is
        the oracle's."""
        curve, pts = small_curve(d, p, s, twisted)
        assert self._check_every_pair(curve) == len(pts) - 1

    def test_every_pair_at_generic_delta(self):
        """delta = 2 at p = 13, so the products by delta are real products."""
        ctx = FieldCtx(13, 2)
        for A, B in (((1, 4), (2, 3)), ((0, 7), (5, 0)), ((6, 0), (0, 9))):
            curve = Curve(ctx.elem(*A), ctx.elem(*B))
            assert self._check_every_pair(curve) == oracle_order(curve) - 1

    @pytest.mark.parametrize("delta", [-1, 3])
    def test_random_at_127_bits(self, delta):
        """2,000 random curves and abscissas at p = 2^127 - 1: the lifted
        point, its (x, y + 1), and a random (x, y)."""
        ctx = FieldCtx(MERSENNE_127, delta)
        p = ctx.p
        rng = random.Random(32 + delta)
        lifted = 0
        for _ in range(2000):
            A, B, x, y = (ctx.elem(rng.randrange(p), rng.randrange(p)) for _ in range(4))
            curve = Curve(A, B)
            assert curve.discriminant() == ref_discriminant(curve)
            P = curve.lift_x(x)
            assert P == ref_lift_x(curve, x)
            candidates = [Point(x, y)]
            if P is not None:
                lifted += 1
                candidates += [P, Point(x, P.y + 1)]
            for Q in candidates:
                assert curve.is_on(Q) is ref_is_on(curve, Q)
        assert 900 < lifted < 1100

    def test_discriminant_of_a_singular_curve(self):
        ctx = ctx_for(13)
        A, B = ctx.elem(-3), ctx.elem(2)  # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
        with pytest.raises(DomainError):
            Curve(A, B)
        curve = Curve._nonsingular(A, B)
        assert not curve.discriminant() and not ref_discriminant(curve)


    def test_foreign_field_rejected(self):
        curve = sample_curve(13)
        other = ctx_for(11)
        P = random_point(curve, 0)
        for Q in (Point(other.elem(1), P.y), Point(P.x, other.elem(1))):
            with pytest.raises(FieldMismatchError):
                curve.is_on(Q)
        with pytest.raises(FieldMismatchError):
            curve.lift_x(other.elem(1))


class TestJsf:
    """The recoder against the definition of the joint sparse form
    (Solinas 2001), exhaustively over pairs of bytes."""

    def test_joint_sparse_form(self):
        for a in range(256):
            for b in range(256):
                runs = _jsf(a, b)
                # One pair per nonzero column; every run but the last
                # reaches the next nonzero column.
                assert all(i != 4 for i, _ in runs)
                assert all(run >= 1 for _, run in runs[:-1])
                cols = jsf_columns(a, b)
                assert cols == ref_jsf(a, b)
                assert all(0 <= i <= 8 for i in cols)
                assert len(cols) <= max(a.bit_length(), b.bit_length()) + 1
                assert not cols or cols[0] != 4
                rows = jsf_rows(a, b)
                for k, row in zip((a, b), rows):
                    assert sum(u << j for j, u in enumerate(row)) == k
                # Of any three consecutive columns, one is zero.
                for j in range(len(cols) - 2):
                    assert 4 in cols[j : j + 3]
                for row, other in (rows, rows[::-1]):
                    for j in range(len(row) - 1):
                        # Adjacent digits never have opposite signs.
                        assert row[j] * row[j + 1] != -1
                        # Two adjacent nonzero digits: the other row is
                        # nonzero at the upper one and zero at the lower.
                        if row[j] and row[j + 1]:
                            assert other[j + 1] and not other[j]

    def test_digit_table_is_the_branch_rule(self):
        """Each entry of _JSF_DIGITS is the least significant column that
        conftest.ref_jsf's branch rule gives for (a mod 8, b mod 8), as
        (table index, u0, u1)."""
        for a7 in range(8):
            for b7 in range(8):
                i = ref_jsf(a7 + 8, b7 + 8)[-1]
                u0, u1 = divmod(i, 3)
                assert _JSF_DIGITS[a7 << 3 | b7] == (i, u0 - 1, u1 - 1)

    @pytest.mark.parametrize("bits", [127, 254])
    def test_matches_reference_at_scalar_sizes(self, bits):
        """1,000 seeded pairs at each size, every fourth with b = 0 as in
        Curve.mul."""
        rng = random.Random(bits)
        for k in range(1000):
            a, b = rng.getrandbits(bits), 0 if k % 4 == 0 else rng.getrandbits(bits)
            assert jsf_columns(a, b) == ref_jsf(a, b)

    def test_signed_pairs_reach_every_table_entry(self):
        reached = {i for a in SIGNED for b in SIGNED for i in jsf_columns(abs(a), abs(b))}
        assert reached == set(range(9))

    def test_single_scalar_is_naf(self):
        for a in range(256):
            row, zeros = jsf_rows(a, 0)
            assert not any(zeros)
            plus = sum(1 << j for j, u in enumerate(row) if u == 1)
            minus = sum(1 << j for j, u in enumerate(row) if u == -1)
            assert plus == (3 * a & ~a) >> 1
            assert minus == (a & ~(3 * a)) >> 1


def reference_order(curve):
    """The character sum on Fp2 objects that oracle_order replaces."""
    ctx = curve.ctx
    count = ctx.p**2 + 1
    for a in range(ctx.p):
        for b in range(ctx.p):
            x = Fp2(ctx, a, b)
            rhs = x * x * x + curve.A * x + curve.B
            if rhs:
                count += 1 if rhs.is_square() else -1
    return count


def reference_points(curve):
    """The square-table enumeration on Fp2 objects that curve_points
    replaces."""
    ctx = curve.ctx
    table = {}
    for a in range(ctx.p):
        for b in range(ctx.p):
            y = Fp2(ctx, a, b)
            sq = y * y
            table.setdefault((sq.a, sq.b), []).append(y)
    points = [INFINITY]
    for a in range(ctx.p):
        for b in range(ctx.p):
            x = Fp2(ctx, a, b)
            rhs = x * x * x + curve.A * x + curve.B
            for y in table.get((rhs.a, rhs.b), ()):
                points.append(Point(x, y))
    return points


# delta = -1 where p = 3 (mod 4), and a delta != -1 at p = 5, 13 and at
# p = 7, where -1 is a nonsquare too.
ORACLE_FIELDS = [(5, 2), (7, -1), (7, 3), (11, -1), (13, 2), (19, -1), (23, -1)]


class TestOracle:
    @pytest.mark.parametrize("p,delta", ORACLE_FIELDS)
    def test_matches_fp2_reference(self, p, delta):
        """Every family member and its twist: the same order, and the same
        points in the same order, as the enumeration on Fp2 objects."""
        ctx = FieldCtx(p, delta)
        curves = []
        for d in (2, 3, 5, 7):
            for s in range(p):
                try:
                    curve = build_family_curve(d, ctx, s).curve
                except DomainError:
                    continue
                curves += [curve, curve.quadratic_twist()[0]]
        assert len(curves) >= 4 * p
        for curve in curves:
            assert oracle_order(curve) == reference_order(curve)
            points, expected = curve_points(curve), reference_points(curve)
            assert len(points) == len(expected)
            for P, Q in zip(points, expected):
                assert P == Q

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

    def test_points_guard(self):
        curve = sample_curve(67)
        with pytest.raises(OracleGuardError):
            curve_points(curve)

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


def two_deltas(p):
    """The smallest nonsquare n mod p and a second nonsquare of the other
    sign as a least absolute residue: -1 at p = 3 (mod 4), else -n."""
    n = next(d for d in range(2, p) if legendre(d, p) == -1)
    return n, (-1 if p % 4 == 3 else -n)


ORACLE_PRIMES = [p for p in range(5, ORACLE_MAX_P) if is_probable_prime(p)]


class TestOracleSweep:
    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_matches_fp2_reference_on_random_curves(self, p):
        """Every prime 5 <= p <= 61 and two deltas, on curves whose A and B
        both have a nonzero sqrt(delta) part."""
        assert ORACLE_PRIMES[-1] == 61
        rng = random.Random(p)
        for delta in two_deltas(p):
            ctx = FieldCtx(p, delta)
            checked = 0
            while checked < 3:
                A = ctx.elem(rng.randrange(p), rng.randrange(1, p))
                B = ctx.elem(rng.randrange(p), rng.randrange(1, p))
                try:
                    curve = Curve(A, B)
                except DomainError:
                    continue
                assert oracle_order(curve) == reference_order(curve)
                checked += 1


class TestCharacterTable:
    @pytest.mark.parametrize("p,delta", ORACLE_FIELDS)
    def test_rows_are_the_quadratic_character(self, p, delta):
        """The widened table: chi[r0][r1] is the character of
        (r0 mod p) + (r1 mod p)*sqrt(delta) at every r0 < 2p, r1 < 3p."""
        ctx = FieldCtx(p, delta)
        chi = ctx.oracle_tables()[0]
        assert len(chi) == 2 * p
        for r0 in range(2 * p):
            assert len(chi[r0]) == 3 * p
            for r1 in range(3 * p):
                x = Fp2(ctx, r0, r1)
                assert chi[r0][r1] == (0 if not x else 1 if x.is_square() else -1)

    @pytest.mark.parametrize("p,delta", ORACLE_FIELDS)
    def test_cubes_and_squares_match_their_formulas(self, p, delta):
        _, cubes, squares3 = FieldCtx(p, delta).oracle_tables()
        assert cubes == [[(a**3 + al * a) % p for a in range(p)] for al in range(p)]
        assert squares3 == [[3 * b * a**2 % p for a in range(p)] for b in range(p)]

    def test_built_once_per_field_on_first_use(self):
        ctx = FieldCtx(23, -1)
        assert ctx._oracle_tables is None
        first, second = Curve(ctx.elem(1), ctx.elem(4, 1)), Curve(ctx.elem(2, 3), ctx.elem(5, 7))
        oracle_order(first)
        tables = ctx._oracle_tables
        assert tables is not None
        oracle_order(second)
        assert ctx._oracle_tables is tables
        assert ctx.oracle_tables() is tables
        assert FieldCtx(23, -1)._oracle_tables is None

    def test_count_kept_per_curve_object(self):
        """The count is kept on the Curve it was made for: an equal curve
        built again, the conjugate, the twist and the codomain of phi each
        start uncounted, and each is enumerated on its own first count."""
        p = 23
        fam = build_family_curve(2, FieldCtx(p, -1), 1)
        curve = fam.curve
        assert curve._order is None
        n = oracle_order(curve)
        assert curve._order == n
        assert oracle_trace(curve) == p * p + 1 - n
        same = Curve(curve.A, curve.B)
        assert same == curve and same._order is None
        conjugate, (twist, _), codomain = curve.conjugate(), curve.quadratic_twist(), fam.phi.codomain
        assert codomain == conjugate
        for other in (same, conjugate, twist, codomain):
            assert other._order is None
        assert oracle_order(same) == oracle_order(conjugate) == oracle_order(codomain) == n
        assert oracle_order(twist) == 2 * (p * p + 1) - n
        assert twist._order == 2 * (p * p + 1) - n

    def test_count_builds_no_fp2_once_tables_exist(self, monkeypatch):
        ctx = FieldCtx(23, -1)
        first, second = Curve(ctx.elem(1), ctx.elem(4, 1)), Curve(ctx.elem(2, 3), ctx.elem(5, 7))
        expected = reference_order(second)
        oracle_order(first)
        built = []
        init = Fp2.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Fp2, "__init__", counting_init)
        assert oracle_order(second) == expected
        assert built == []

    def test_roots_built_once_per_field_on_first_use(self):
        """curve_points builds the roots table on the first curve of a
        field and reuses it; TestOracle checks the points it lists."""
        ctx = FieldCtx(23, -1)
        assert ctx._square_roots is None
        first, second = Curve(ctx.elem(1), ctx.elem(4, 1)), Curve(ctx.elem(2, 3), ctx.elem(5, 7))
        curve_points(first)
        roots = ctx._square_roots
        assert roots is not None
        curve_points(second)
        assert ctx._square_roots is roots
        assert ctx.square_roots() is roots
        assert ctx._oracle_tables is None
        assert FieldCtx(23, -1)._square_roots is None

    @pytest.mark.parametrize("p", [67, MERSENNE_127])
    def test_guard_fires_before_any_table(self, p):
        curve = sample_curve(p)
        with pytest.raises(OracleGuardError):
            oracle_order(curve)
        with pytest.raises(OracleGuardError):
            oracle_trace(curve)
        with pytest.raises(OracleGuardError):
            curve_points(curve)
        assert curve.ctx._oracle_tables is None
        assert curve.ctx._square_roots is None
        assert curve._order is None


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
