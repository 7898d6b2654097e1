import functools
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcurve.errors import DomainError, NotInertError, NotPrimeError
import random

from qcurve.fields import (
    FieldCtx,
    Fp2,
    TRIAL_DIVISION_BOUND,
    _lucas_lehmer,
    _strong_base2,
    _strong_lucas,
    _trial_blocks,
    format_fp2,
    is_probable_prime,
    legendre,
    parse_fp2,
    sqrt_mod_prime,
)

from conftest import MERSENNE_127, ctx_for, ref_sqrt, ref_sqrt_mod_prime

PRIME_POOL = [5, 7, 11, 13, 17, 101, 2**31 - 1, MERSENNE_127, 2**128 - 159]

ctx_strategy = st.sampled_from([ctx_for(p) for p in PRIME_POOL])


@st.composite
def elements(draw, nonzero=False):
    ctx = draw(ctx_strategy)
    a = draw(st.integers(0, ctx.p - 1))
    b = draw(st.integers(0, ctx.p - 1))
    x = Fp2(ctx, a, b)
    if nonzero and not x:
        x = ctx.one()
    return x


@st.composite
def element_pairs(draw):
    ctx = draw(ctx_strategy)
    coords = [draw(st.integers(0, ctx.p - 1)) for _ in range(4)]
    return Fp2(ctx, coords[0], coords[1]), Fp2(ctx, coords[2], coords[3])


class TestContext:
    def test_rejects_composite_modulus(self):
        with pytest.raises(NotPrimeError):
            FieldCtx(91, 2)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(DomainError):
            FieldCtx(3, 2)

    def test_rejects_oversized_modulus(self):
        with pytest.raises(DomainError):
            FieldCtx(2**129 + 29, 2)

    def test_rejects_square_delta(self):
        with pytest.raises(NotInertError):
            FieldCtx(11, 4)

    def test_delta_normalised(self):
        ctx = FieldCtx(MERSENNE_127, -1)
        assert ctx.delta == MERSENNE_127 - 1

    def test_pool_moduli_are_prime(self):
        for p in PRIME_POOL:
            assert is_probable_prime(p)

    @pytest.mark.parametrize("p, message", [
        (91, "modulus 91 has the factor 7"),
        # Composite Mersenne numbers with no factor up to 37.
        (2**29 - 1, f"modulus {2**29 - 1} failed Lucas-Lehmer"),
        (2**67 - 1, f"modulus {2**67 - 1} failed Lucas-Lehmer"),
        (1048573 * 1048583, f"modulus {1048573 * 1048583} failed Baillie-PSW"),
    ])
    def test_composite_modulus_names_its_test(self, p, message):
        with pytest.raises(NotPrimeError) as exc:
            FieldCtx(p, -1)
        assert str(exc.value) == message


# The exponents q <= 128 of the Mersenne primes 2^q - 1 (OEIS A000043).
MERSENNE_EXPONENTS = {2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127}


class TestPrimality:
    def test_mersenne_numbers(self):
        for q in range(2, 129):
            n = 2**q - 1
            prime = q in MERSENNE_EXPONENTS
            assert is_probable_prime(n) == prime, q
            if q > 2:
                assert _lucas_lehmer(n) == (_strong_base2(n) and _strong_lucas(n)) == prime, q


@functools.cache
def _primes_below_2_20() -> frozenset[int]:
    return frozenset(q for _, block in _trial_blocks(TRIAL_DIVISION_BOUND) for q in block)


def _odd_composites(bound: int):
    primes = _primes_below_2_20()
    return (n for n in range(9, bound, 2) if n not in primes)


class TestBailliePSW:
    """is_probable_prime's Baillie-PSW test and its two halves, the strong
    base-2 round and the strong Lucas test with Selfridge's parameters."""

    def test_agrees_with_the_sieve_below_2_20(self):
        primes = _primes_below_2_20()
        assert max(primes) < 2**20 <= TRIAL_DIVISION_BOUND
        assert [n for n in range(2**20) if is_probable_prime(n) != (n in primes)] == []

    def test_lucas_half_refuses_the_strong_base2_pseudoprimes(self):
        pseudoprimes = [n for n in _odd_composites(2**20) if _strong_base2(n)]
        assert len(pseudoprimes) == 49
        assert pseudoprimes[:5] == [2047, 3277, 4033, 4681, 8321]  # OEIS A001262
        assert not any(_strong_lucas(n) for n in pseudoprimes)

    def test_refuses_carmichael_numbers(self):
        # Korselt: squarefree composite n with q - 1 | n - 1 for each prime q | n.
        primes = sorted(_primes_below_2_20())

        def is_carmichael(n):
            m = n
            for q in primes:
                if q * q > m:
                    break
                if m % q == 0:
                    m //= q
                    if m % q == 0 or (n - 1) % (q - 1):
                        return False
            return m == 1 or (n - 1) % (m - 1) == 0

        carmichael = [n for n in _odd_composites(2**20) if is_carmichael(n)]
        assert carmichael[:4] == [561, 1105, 1729, 2465]  # OEIS A002997
        assert len(carmichael) == 45  # 43 below 10^6, then 1024651 and 1033669
        assert not any(is_probable_prime(n) for n in carmichael)

    def test_strong_lucas_pseudoprimes_below_20000(self):
        # OEIS A217255, which pins Selfridge's choice of D, P and Q.
        pseudoprimes = [n for n in _odd_composites(20000) if _strong_lucas(n)]
        assert pseudoprimes == [5459, 5777, 10877, 16109, 18971]
        assert not any(_strong_base2(n) for n in pseudoprimes)

    @pytest.mark.parametrize("q", [1093, 3511, 1048573, 2**61 - 1])
    def test_refuses_squares_of_primes(self, q):
        # 1093^2 and 3511^2, squares of the Wieferich primes, pass the base-2 half.
        assert is_probable_prime(q)
        assert _strong_base2(q * q) == (q in (1093, 3511))
        assert not _strong_lucas(q * q)
        assert not is_probable_prime(q * q)


class TestLegendre:
    def test_squares_mod_seven(self):
        squares = {x * x % 7 for x in range(1, 7)}
        for n in range(1, 7):
            assert legendre(n, 7) == (1 if n in squares else -1)
        assert legendre(2, 7) == 1

    def test_zero(self):
        assert legendre(0, 5) == 0
        assert legendre(10, 5) == 0

    @pytest.mark.parametrize("p", [7, 23, 31, 47, 71])
    def test_minus_two_nonsquare_for_seven_mod_eight(self, p):
        assert p % 8 == 7
        assert legendre(-2, p) == -1

    @given(st.sampled_from(PRIME_POOL), st.integers(1, 2**64), st.integers(1, 2**64))
    def test_multiplicative(self, p, m, n):
        assert legendre(m * n, p) == legendre(m, p) * legendre(n, p)

    def test_rejects_even_modulus(self):
        with pytest.raises(NotPrimeError):
            legendre(3, 8)

    @staticmethod
    def _euler(n, p):
        r = pow(n, (p - 1) // 2, p)
        return -1 if r == p - 1 else r

    def test_matches_euler_criterion_below_200(self):
        for p in range(3, 200, 2):
            if is_probable_prime(p):
                for n in range(p):
                    assert legendre(n, p) == self._euler(n, p)

    def test_matches_euler_criterion_at_mersenne_127(self):
        rng = random.Random(38)
        for _ in range(1000):
            n = rng.randrange(-MERSENNE_127**2, MERSENNE_127**2)
            assert legendre(n, MERSENNE_127) == self._euler(n, MERSENNE_127)


class TestSqrtModPrime:
    @given(st.sampled_from(PRIME_POOL), st.integers(0, 2**80))
    def test_roundtrip(self, p, n):
        r = sqrt_mod_prime(n, p)
        if r is None:
            assert legendre(n, p) == -1
        else:
            assert r * r % p == n % p


class TestArithmetic:
    @pytest.mark.parametrize("p", [5, 13])
    def test_unit_group_order_exhaustive(self, p):
        ctx = ctx_for(p)
        for a in range(p):
            for b in range(p):
                x = Fp2(ctx, a, b)
                if x:
                    assert x ** (p * p - 1) == 1

    @given(elements(nonzero=True))
    def test_unit_group_order_random(self, x):
        assert x ** (x.ctx.p ** 2 - 1) == 1

    def test_power_walks_from_the_top_bit(self, monkeypatch):
        """x ** e is the product of |e| copies of x (of its inverse for
        e < 0), made with one square per bit below the top one and one
        product per set bit below it: x ** 2 is a single square."""
        x = Fp2(ctx_for(MERSENNE_127), 3, 5)
        copies = {e: functools.reduce(operator.mul, [x] * e, x.ctx.one()) for e in range(70)}
        counts = {"sqr": 0, "mul": 0}
        mul = Fp2.__mul__

        def counted(self, other):
            counts["sqr" if other is self else "mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(Fp2, "__mul__", counted)
        for e in [*range(1, 70), 2**126 - 1, 2**127]:
            counts.update(sqr=0, mul=0)
            power = x**e
            assert counts == {"sqr": e.bit_length() - 1, "mul": bin(e).count("1") - 1}
            if e < 70:
                assert power == copies[e]
                assert x**-e == copies[e].inverse()
        assert x**0 == 1

    @given(elements(nonzero=True))
    def test_inverse(self, x):
        assert x * x.inverse() == 1
        assert x**-1 == x.inverse()

    @given(elements())
    def test_one_is_identity(self, x):
        assert x.ctx.one() * x == x
        assert x + 0 == x

    def test_sqrt_delta_squares_to_delta(self):
        for p in PRIME_POOL:
            ctx = ctx_for(p)
            i = ctx.sqrt_delta()
            assert i * i == ctx.elem(ctx.delta)

    @given(element_pairs())
    def test_commutativity(self, pair):
        x, y = pair
        assert x * y == y * x
        assert x + y == y + x

    @given(element_pairs(), st.integers(0, 2**40))
    def test_distributivity(self, pair, k):
        x, y = pair
        assert (x + y) * k == x * k + y * k
        assert x * (y + y) == x * y + x * y

    def test_zero_division(self):
        ctx = ctx_for(13)
        with pytest.raises(ZeroDivisionError):
            ctx.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            ctx.one() / ctx.zero()

    def test_cross_field_operands_rejected(self):
        with pytest.raises(DomainError):
            ctx_for(5).one() + ctx_for(7).one()

    @pytest.mark.parametrize("other", [1.5, "x", None])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_foreign_operands_rejected(self, op, other):
        # Each side returns NotImplemented, so Python raises TypeError.
        x = ctx_for(13).elem(2, 3)
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)

    @given(element_pairs(), st.data())
    def test_exact_outputs_match_int_formulas(self, pair, data):
        # The pool holds the Mersenne primes 7, 2^31 - 1 and 2^127 - 1 next
        # to generic ones; every output pair must be the reduced int formula.
        x, y = pair
        p, delta = x.ctx.p, x.ctx.delta
        a, b, c, d = x.a, x.b, y.a, y.b
        k = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=p + 1)))
        assert ((x * y).a, (x * y).b) == ((a * c + delta * b * d) % p, (a * d + b * c) % p)
        assert ((x + y).a, (x + y).b) == ((a + c) % p, (b + d) % p)
        assert ((x - y).a, (x - y).b) == ((a - c) % p, (b - d) % p)
        for kx in (k * x, x * k):
            assert (kx.a, kx.b) == (k * a % p, k * b % p)
        if x:
            inv = x.inverse()
            u, v = inv.a, inv.b
            assert 0 <= u < p and 0 <= v < p
            assert ((a * u + delta * b * v) % p, (a * v + b * u) % p) == (1, 0)


def schoolbook(ctx, a, b, c, d):
    """(a + b*sqrt(delta))(c + d*sqrt(delta)) and the norm of the first
    factor, on the unsigned delta with one reduction at the end."""
    p, delta = ctx.p, ctx.delta
    return ((a * c + delta * b * d) % p, (a * d + b * c) % p), (a * a - delta * b * b) % p


# delta = -1 and a nonsquare just above p/2 at 2^127 - 1, so the least
# absolute residue that Fp2 multiplies by is negative in both; 2 at p = 13.
SCHOOLBOOK_CTXS = [
    FieldCtx(MERSENNE_127, -1),
    FieldCtx(MERSENNE_127, next(d for d in range(MERSENNE_127 // 2 + 1, MERSENNE_127) if legendre(d, MERSENNE_127) == -1)),
    FieldCtx(13, 2),
]


class TestSchoolbook:
    def test_contexts_cover_both_signs(self):
        assert [ctx.signed_delta for ctx in SCHOOLBOOK_CTXS[::2]] == [-1, 2]
        assert SCHOOLBOOK_CTXS[1].signed_delta < -(MERSENNE_127 // 4)

    @given(st.sampled_from(SCHOOLBOOK_CTXS), st.data())
    def test_products_and_norms(self, ctx, data):
        coord = st.one_of(st.integers(0, ctx.p - 1), st.sampled_from([0, 1, ctx.p - 1]))
        a, b, c, d = (data.draw(coord) for _ in range(4))
        x, y = Fp2(ctx, a, b), Fp2(ctx, c, d)
        (u, v), n = schoolbook(ctx, a, b, c, d)
        assert ((x * y).a, (x * y).b) == (u, v)
        assert ((x * x).a, (x * x).b) == schoolbook(ctx, a, b, a, b)[0]
        assert x.norm() == n

    def test_exhaustive_at_13(self):
        ctx = FieldCtx(13, 2)
        elems = [(a, b, Fp2(ctx, a, b)) for a in range(13) for b in range(13)]
        for a, b, x in elems:
            assert x.norm() == schoolbook(ctx, a, b, 0, 0)[1]
            for c, d, y in elems:
                assert ((x * y).a, (x * y).b) == schoolbook(ctx, a, b, c, d)[0]


class TestFrobenius:
    def test_conjugation_rule(self):
        ctx = ctx_for(11)
        assert Fp2(ctx, 3, 4).conjugate() == Fp2(ctx, 3, -4)

    @given(elements())
    def test_involution(self, x):
        assert x.conjugate().conjugate() == x

    @given(elements())
    def test_fixes_base_field(self, x):
        y = Fp2(x.ctx, x.a, 0)
        assert y.conjugate() == y

    @given(element_pairs())
    def test_field_automorphism(self, pair):
        x, y = pair
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_equals_p_power(self, p):
        ctx = ctx_for(p)
        for a in range(p):
            for b in range(p):
                x = Fp2(ctx, a, b)
                assert x.conjugate() == x**p


class TestSqrt:
    def test_zero(self):
        ctx = ctx_for(13)
        assert ctx.zero().sqrt() == ctx.zero()

    @given(elements())
    def test_square_roundtrip(self, x):
        r = (x * x).sqrt()
        assert r is not None
        assert r * r == x * x
        assert r == x or r == -x

    @given(elements())
    def test_canonical_choice_is_lexicographic(self, x):
        r = (x * x).sqrt()
        s = -r
        assert (r.a, r.b) <= (s.a, s.b)

    def test_two_is_always_a_square(self):
        for p in PRIME_POOL:
            ctx = ctx_for(p)
            r = ctx.elem(2).sqrt()
            assert r is not None and r * r == 2

    @pytest.mark.parametrize("p", [5, 13, 7, 11, 19, 23])
    def test_nonsquare_detection_matches_euler(self, p):
        ctx = ctx_for(p)
        power = (p * p - 1) // 2
        for a in range(p):
            for b in range(p):
                x = Fp2(ctx, a, b)
                if not x:
                    continue
                euler_square = x**power == 1
                assert x.is_square() == euler_square
                assert (x.sqrt() is not None) == euler_square

    @pytest.mark.parametrize("p", [7, 11, 19, 23])
    def test_exhaustive_matches_legendre_first_roots(self, p):
        ctx = ctx_for(p)
        for n in range(p):
            assert sqrt_mod_prime(n, p) == ref_sqrt_mod_prime(n, p)
        for a in range(p):
            for b in range(p):
                x = Fp2(ctx, a, b)
                assert x.sqrt() == ref_sqrt(x)

    def test_random_matches_legendre_first_roots_at_mersenne_127(self, big_ctx):
        # Random coordinates with b = 0 and b != 0, and their squares, so
        # that residues and nonresidues of F_p and squares and nonsquares of
        # F_{p^2} all occur.
        p = MERSENNE_127
        rng = random.Random(24)
        kinds = set()
        for _ in range(60):
            n = rng.randrange(p)
            for m in (n, n * n):
                r = sqrt_mod_prime(m, p)
                assert r == ref_sqrt_mod_prime(m, p)
                kinds.add(("F_p", r is not None))
            for x in (Fp2(big_ctx, n, 0), Fp2(big_ctx, n, rng.randrange(1, p))):
                for y in (x, x * x):
                    r = y.sqrt()
                    assert r == ref_sqrt(y)
                    kinds.add(("b = 0" if y.b == 0 else "b != 0", r is not None))
        # Every element of F_p is a square in F_{p^2}.
        assert kinds == {(k, v) for k in ("F_p", "b != 0") for v in (True, False)} | {("b = 0", True)}

    def test_nonsquare_scan_is_a_nonsquare(self):
        for p in (5, 11, 13):
            mu = ctx_for(p).nonsquare()
            assert not mu.is_square()


class TestText:
    def test_format(self):
        ctx = ctx_for(11)
        assert format_fp2(Fp2(ctx, 3, 4)) == "3+4*i"
        assert str(Fp2(ctx, 7, 0)) == "7+0*i"

    @given(elements())
    def test_roundtrip(self, x):
        assert parse_fp2(x.ctx, format_fp2(x)) == x

    def test_parse_variants(self):
        ctx = ctx_for(11)
        assert parse_fp2(ctx, "7") == ctx.elem(7)
        assert parse_fp2(ctx, "-1+2*i") == Fp2(ctx, 10, 2)
        assert parse_fp2(ctx, "3-4*i") == Fp2(ctx, 3, 7)
        with pytest.raises(DomainError):
            parse_fp2(ctx, "3+4i")
