"""Arithmetic in F_p and F_{p^2} = F_p(sqrt(D)) for prime moduli up to 128 bits.

The quadratic extension is realised concretely: an element is a pair (a, b)
standing for a + b*sqrt(D), where D is a fixed quadratic nonresidue mod p.
Values are immutable and every operation returns a fresh object, so contexts
and elements may be shared freely between threads.

A modulus is tested once per process.  A Mersenne modulus 2^q - 1, such
as the paper's 2^127 - 1, is proven prime by Lucas-Lehmer (125 squarings at
q = 127); any other modulus must pass Baillie-PSW, one strong base-2
Miller-Rabin round and one strong Lucas test.  The verdict, and every other
constant that depends only on the field, is cached by the field's value
(p, delta) as int pairs, not with a context: the CLI builds a new context on
every call.  At p = 3 (mod 4) a square root in F_{p^2} is read off
exponentiations whose squares are checked (_sqrt_3mod4), so a nonsquare
needs no separate Legendre symbol; sqrt_mod_prime screens by one, the
Jacobi symbol by quadratic reciprocity.

The module also holds the integer number theory that group orders need:
factorize splits an order by trial division up to 2^20 (or past its square
root, if that comes first) and gives the remainder one is_probable_prime
verdict: proven for a Mersenne number, probable for any other.  An order
above (2^20 + 1)^2 is first divided by the first block of 512 primes (up
to 3671) alone; if the cofactor left passes Baillie-PSW, the order is done
and its factors between 3673 and 2^20 are not looked for.  A composite
cofactor that passes Baillie-PSW would then be reported without such a
factor; none is known, and a probable_prime verdict rests on the same
assumption.  Every other order is walked through all the prime blocks.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FieldMismatchError, ModulusRangeError, NotInertError, NotPrimeError, ParseError

MAX_MODULUS_BITS = 128

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

TRIAL_DIVISION_BOUND = 1 << 20
# Primes per block in factorize.  Measured on CPython 3.11 on a shared
# 2-core host: with blocks of 256, 512, 1024 and 2048 primes, a 254-bit
# order with no factor past the first block takes 1.9, 1.7, 1.6-1.7 and
# 1.5 ms, a paper order 0.5 ms at every size (its Baillie-PSW verdict), and
# the sieve plus the block products 45-49, 53-55, 65-70 and 85-111 ms once
# per process.  Only an n >= 2^38 whose cofactor after the first block is
# not a probable prime needs the primes up to the full bound and pays that
# one-off cost; a smaller n sieves to 2^ceil(bits/2) (_trial_blocks).
TRIAL_BLOCK_PRIMES = 512
# factorize's early exit: the first block's primes (up to 3671) come from a
# sieve to 2^12, and a cofactor from this square on is past the reach of
# the exhausted-range rule.
_SCREEN_LIMIT = 1 << 12
_EARLY_EXIT_FLOOR = (TRIAL_DIVISION_BOUND + 1) ** 2


def is_probable_prime(n: int) -> bool:
    """True if n is prime: exact for n with a factor up to 37 and for a
    Mersenne number n = 2^q - 1, probable otherwise.

    After the small-prime screen, n = 2^q - 1 is decided by Lucas-Lehmer,
    which proves primality and compositeness alike.  Every other n must pass
    Baillie-PSW: one strong base-2 Miller-Rabin round and one strong Lucas
    test with Selfridge's parameters (Baillie-Wagstaff, Math. Comp. 1980;
    Pomerance-Selfridge-Wagstaff, Math. Comp. 1980).  No composite is known
    to pass both; below 2^64 none does, by Feitsma-Galway's list of the
    strong base-2 pseudoprimes there.

    The Lucas half reads U_k and V_k of (P, Q) = (1, (1 - D)/4) off one
    ladder of V'_k = V_k(P', 1) with P' = Q^-1 - 2, by V_2k(P, Q) = Q^k V'_k:
    with d = 2m + 1 and (a, b) = (V'_m, V'_(m+1)), U_d = 0 reads a = b,
    V_d = 0 reads a + b = 0, and V_(d 2^r) = 0 for r >= 1 reads
    V'_(d 2^(r-1)) = 0.  Q^-1 mod n exists: each odd prime dividing Q
    divides a D that the search for D met first, and (D|n) = 0 there
    refuses an n it divides (_strong_lucas).
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n & (n + 1) == 0:
        return _lucas_lehmer(n)
    return _strong_base2(n) and _strong_lucas(n)


def _lucas_lehmer(n: int) -> bool:
    """Lucas-Lehmer on n = 2^q - 1, q >= 3 (Lehmer 1930): n is prime iff
    s_(q-2) = 0 mod n, where s_0 = 4 and s_(k+1) = s_k^2 - 2.

    s_(q-2) = 0 mod n proves n prime for every q >= 3; for composite q,
    2^q - 1 is composite, so the test refutes it too.
    """
    s = 4
    for _ in range(n.bit_length() - 2):
        s = (s * s - 2) % n
    return s == 0


def _strong_base2(n: int) -> bool:
    """One strong Miller-Rabin round to the base 2 on odd n > 2: with
    n - 1 = d 2^s and d odd, 2^d = 1 or 2^(d 2^k) = -1 mod n for some k < s."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas test on odd n > 37.

    A perfect square is refused first: (D|n) is never -1 for it, so the
    search for D would not end.  Selfridge's method A takes the first D in
    5, -7, 9, -11, ... with (D|n) = -1, P = 1 and Q = (1 - D)/4.  With
    n + 1 = d 2^s and d odd, n passes if U_d = 0 or V_(d 2^r) = 0 mod n for
    some r < s.

    Q is a unit mod the odd n: each odd prime l dividing Q has
    l <= |Q| < |D|, so l = 3 divides the 9 and l >= 5 the +-l met earlier in
    the search for D, whose (D|n) = 0 would have refused an n with l | n.
    So the test runs on the sequence V'_k = V_k(P', 1) with
    P' = P^2/Q - 2 = Q^-1 - 2, by V_2k(P, Q) = Q^k V'_k, which needs no
    power of Q.  With d = 2m + 1, one ladder gives (a, b) = (V'_m, V'_(m+1))
    by V'_(2k+1) = V'_k V'_(k+1) - P' and V'_2k = V'_k^2 - 2: two products
    per bit, against three for the ladder of (V_k, V_(k+1), Q^k).  Writing
    V'_k = (alpha^2k + beta^2k)/Q^k for the roots alpha, beta of
    x^2 - x + Q, Q^(m+1) (b - a) = D U_d and Q^(m+1) (a + b) = P V_d.  D and
    Q are units, so U_d = 0 reads a = b, V_d = 0 reads a + b = 0, and
    V_(d 2^r) = 0 for r >= 1 reads V'_(d 2^(r-1)) = 0, starting from
    V'_d = ab - P'.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # n shares a factor with D
        D = -D - 2 if D > 0 else -D + 2
    P1 = (pow((1 - D) // 4, -1, n) - 2) % n  # P' = Q^-1 - 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    a, b = 2, P1  # V'_k, V'_(k+1) at k = 0
    for bit in bin(d >> 1)[2:]:
        if bit == "1":
            a, b = (a * b - P1) % n, (b * b - 2) % n
        else:
            a, b = (a * a - 2) % n, (a * b - P1) % n
    if a == b or (a + b) % n == 0:
        return True
    V = (a * b - P1) % n  # V'_d
    for _ in range(s - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


@functools.cache
def _trial_blocks(limit: int) -> list[tuple[int, tuple[int, ...]]]:
    """(product, primes) for consecutive blocks of TRIAL_BLOCK_PRIMES primes
    up to limit, sieved and multiplied once per process and limit.

    factorize asks for limit = min(TRIAL_DIVISION_BOUND, 2^ceil(bits/2)),
    a power of two, and for 2^12 for its first block at the full bound, so
    there are at most 21 entries.  Only an n >= 2^38 that the screen
    leaves composite builds the full list, 50-90 ms of sieving and block
    products; the order of a curve at p <= 64 (below 2^12) sieves at most
    to 2^6.
    """
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
    primes = [q for q, is_prime in enumerate(sieve) if is_prime]
    blocks = (tuple(primes[i : i + TRIAL_BLOCK_PRIMES]) for i in range(0, len(primes), TRIAL_BLOCK_PRIMES))
    return [(math.prod(block), block) for block in blocks]


class Factorization(NamedTuple):
    """n split by trial division, with the one is_probable_prime verdict on
    the remainder that the report and the subgroup choice both read.

    factorize builds it: factors are the primes found up to the bound with
    their exponents.  When the cofactor left by the primes up to 3671 is
    above (2^20 + 1)^2 and passes Baillie-PSW, factors holds only those
    primes: the ones between 3673 and 2^20 are not looked for, so a
    composite cofactor that passed Baillie-PSW would leave any of them in
    rest.  No such cofactor is known."""

    n: int
    factors: list[tuple[int, int]]
    rest: int
    rest_is_prime: bool  # False when rest is 1

    @property
    def is_prime(self) -> bool:
        """Whether n itself is prime: proven by trial division, or n has no
        factor up to the bound and passes is_probable_prime."""
        return self.factors == [(self.n, 1)] or (self.rest == self.n and self.rest_is_prime)

    def __str__(self) -> str:
        if self.n == 1:
            return "1"
        parts = [f"{q}^{e}" if e > 1 else str(q) for q, e in self.factors]
        if self.rest > 1:
            parts.append(f"{self.rest}({'probable_prime' if self.rest_is_prime else 'composite'})")
        return "*".join(parts)


def _divide_block(n: int, product: int, block: tuple[int, ...], factors: list[tuple[int, int]]) -> int:
    """n with the primes of block that divide it divided out, each appended
    to factors with its exponent: one gcd with the block's product, then the
    block's primes until that gcd is used up."""
    g = math.gcd(n, product)
    for prime in block:
        if g == 1:
            break
        if g % prime == 0:
            e = 0
            while n % prime == 0:
                n //= prime
                e += 1
            factors.append((prime, e))
            g //= prime
    return n


def factorize(n: int) -> Factorization:
    """Trial division of n to 2^20, plus an is_probable_prime verdict on the
    remainder: Lucas-Lehmer if it is a Mersenne number, else Baillie-PSW.

    The primes stop at min(TRIAL_DIVISION_BOUND, 2^ceil(bits/2)) for a
    bits-bit n: below the bound that limit is past sqrt(n), so no prime
    beyond it can be a least factor, and a remainder left there is proven
    prime by the exhausted range.  The primes come in blocks, each screened
    by one gcd with its product (_divide_block).

    At the full bound the first block, the primes up to 3671, comes from a
    sieve to 2^12.  If the cofactor c it leaves is at least (2^20 + 1)^2
    and passes Baillie-PSW, c is the remainder, tagged probable_prime, and
    the other blocks are not walked (Factorization).  Otherwise the walk
    goes on through the primes up to 2^20, and a remainder that is the c
    Baillie-PSW refused keeps that verdict.
    """
    limit = min(TRIAL_DIVISION_BOUND, 1 << -(-n.bit_length() // 2))
    factors: list[tuple[int, int]] = []
    rest = n
    refused = 0  # the cofactor that Baillie-PSW refused at the early exit
    first = 0  # the index of the first block still to walk
    if limit == TRIAL_DIVISION_BOUND:
        rest = _divide_block(rest, *_trial_blocks(_SCREEN_LIMIT)[0], factors)
        if rest >= _EARLY_EXIT_FLOOR:
            if is_probable_prime(rest):
                return Factorization(n, factors, rest, True)
            refused = rest
        first = 1
    q = limit + 1  # the first candidate past an exhausted list
    for product, block in _trial_blocks(limit)[first:]:
        if block[0] * block[0] > rest:
            q = block[0]
            break
        rest = _divide_block(rest, product, block, factors)
    if rest > 1 and q * q > rest:
        factors.append((rest, 1))  # proven prime by the exhausted range
        rest = 1
    return Factorization(n, factors, rest, rest > 1 and rest != refused and is_probable_prime(rest))


def legendre(n: int, p: int) -> int:
    """Legendre symbol (n|p), as the Jacobi symbol: no exponentiation.

    The caller guarantees p is an odd prime; context construction validates
    primality once so per-call checks stay cheap.
    """
    if p < 3 or p % 2 == 0:
        raise NotPrimeError(f"modulus {p} is not an odd prime")
    return _jacobi(n, p)


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n mod p (odd prime), or None for a nonresidue.

    Deterministic: a Legendre symbol screens n, then Tonelli-Shanks runs
    with the smallest nonresidue as generator.  With p - 1 = q 2^s, q odd,
    it starts from one power x = n^((q-1)/2): r = n^((q+1)/2) = nx and
    t = n^q = rx.  The generator is looked for only when t != 1, so at
    p = 3 (mod 4), where t = 1, the root n^((p+1)/4) costs that one power;
    Fp2.sqrt takes its own path there (_sqrt_3mod4).
    """
    n %= p
    if n == 0:
        return 0
    if legendre(n, p) != 1:
        return None
    # Tonelli-Shanks.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    x = pow(n, q >> 1, p)
    r = n * x % p
    t = r * x % p
    if t == 1:
        return r
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


@functools.cache
def _is_prime_modulus(p: int) -> bool:
    """is_probable_prime(p) for a field modulus, once per process and p:
    31-35 us of Lucas-Lehmer at 2^127 - 1 (CPython 3.11) that a context
    built again on the same field does not pay."""
    return is_probable_prime(p)


@functools.cache
def _sqrt_neg_delta(p: int, delta: int) -> tuple[int, int]:
    """(k, 1/k) mod p with k^2 = -delta, for p = 3 (mod 4), once per process
    and field: -delta is a residue there, as -1 and delta are not.  k = 1
    for delta = -1.  Fp2.sqrt reads a root off a failed power with it."""
    k = pow(-delta % p, (p + 1) >> 2, p)
    return k, pow(k, -1, p)


@functools.cache
def _twist_constants(p: int, delta: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The canonical nonsquare mu of F_p(sqrt(delta)) and mu^((p-1)/2), as
    int pairs, once per process and field: FieldCtx.nonsquare returns mu,
    and isogeny.quadratic_twist takes the power for the constant of psi',
    125 squarings and 125 products at p = 2^127 - 1."""
    ctx = FieldCtx(p, delta)
    row = (Fp2(ctx, a, b) for b in range(1, p) for a in range(p))
    mu = next(x for x in row if not x.is_square())
    power = mu ** ((p - 1) // 2)
    return (mu.a, mu.b), (power.a, power.b)


@dataclass(frozen=True)
class FieldCtx:
    """The field F_{p^2} = F_p(sqrt(delta)): prime modulus plus nonresidue.

    Every construction checks the type and range of p, reduces delta and
    checks that it is a nonresidue, raising the same error for the same
    input each time; only the primality verdict of p comes from a cache
    (_is_prime_modulus).  The constants of the field that its users need
    more than once (the canonical nonsquare and its power for the twist,
    sqrt(-delta) for square roots, and in families the root l of each
    degree's twisting isomorphism) are cached by the value (p, delta), so
    two contexts of one field share them.  The point-count tables and the
    square-root table of a small field stay with the context.
    """

    p: int
    delta: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or p <= 3:
            raise ModulusRangeError(f"modulus must be a prime greater than 3, got {p}")
        if p.bit_length() > MAX_MODULUS_BITS:
            raise ModulusRangeError(f"modulus exceeds {MAX_MODULUS_BITS} bits")
        if not _is_prime_modulus(p):
            factor = next((q for q in _SMALL_PRIMES if p % q == 0), None)
            if factor is not None:
                raise NotPrimeError(f"modulus {p} has the factor {factor}")
            test = "Lucas-Lehmer" if p & (p + 1) == 0 else "Baillie-PSW"
            raise NotPrimeError(f"modulus {p} failed {test}")
        object.__setattr__(self, "delta", self.delta % p)
        if legendre(self.delta, p) != -1:
            raise NotInertError(f"delta={self.delta} is a square mod {p}")
        object.__setattr__(self, "_oracle_tables", None)
        object.__setattr__(self, "_square_roots", None)
        # delta as its least absolute residue, so that delta = -1 is the small
        # int -1 in the int-pair products of the bare-int code paths, and the
        # scalar loop of weierstrass tests for it to take its F_p(i) bodies
        # (weierstrass._dbl_i, _madd_i).  Set here, as the caches above:
        # writing an attribute through the instance __dict__ later would slow
        # every attribute read of the context.
        object.__setattr__(self, "signed_delta", self.delta - p if 2 * self.delta > p else self.delta)

    def elem(self, a: int, b: int = 0) -> "Fp2":
        return Fp2(self, a, b)

    def coerce(self, x: "Fp2") -> "Fp2":
        if x.ctx is self or (x.ctx.p == self.p and x.ctx.delta == self.delta):
            return x
        raise FieldMismatchError("element belongs to a different field")

    def zero(self) -> "Fp2":
        return Fp2(self, 0, 0)

    def one(self) -> "Fp2":
        return Fp2(self, 1, 0)

    def sqrt_delta(self) -> "Fp2":
        return Fp2(self, 0, 1)

    def nonsquare(self) -> "Fp2":
        """The canonical nonsquare of F_{p^2}: the first nonsquare in the
        ordering (0+1i), (1+1i), (2+1i), ..., continuing through (a+bi) rows,
        found once per field (_twist_constants)."""
        return Fp2(self, *_twist_constants(self.p, self.delta)[0])

    def oracle_tables(self) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
        """The tables the point-count oracle reads, as (chi, cubes, squares3):

        - chi[r0][r1], for r0 < 2p and r1 < 3p, the quadratic character of
          F_{p^2} at (r0 mod p) + (r1 mod p)*sqrt(delta): 1 on nonzero
          squares, -1 on nonsquares, 0 at zero.  A nonzero element is a
          square exactly when its norm r0^2 - delta*r1^2 is a square mod p.
          The widening lets an index that is a sum of two residues (first
          coordinate) or three (second) go unreduced;
        - cubes[al][a] = (a^3 + al*a) mod p;
        - squares3[b][a] = 3b*a^2 mod p.

        chi holds 3p^2 small ints, its rows r0 and r0 + p being one list,
        and cubes and squares3 p^2 each.  They are built on first use and kept
        with the context, so the caller bounds p; the oracle asks for them
        only at p <= 64.  Building them takes about 0.2 ms at p = 23 and
        1.3 ms at p = 61.
        """
        tables = self._oracle_tables
        if tables is None:
            p, d = self.p, self.signed_delta
            chi = [-1] * p
            chi[0] = 0
            for u in range(1, (p + 1) // 2):
                chi[u * u % p] = 1
            dsq = [d * r1 * r1 for r1 in range(p)]
            rows = [[chi[(r0 * r0 - t) % p] for t in dsq] * 3 for r0 in range(p)]
            cubes = [[(a * a + al) * a % p for a in range(p)] for al in range(p)]
            sq3 = [3 * a * a for a in range(p)]
            squares3 = [[b * t % p for t in sq3] for b in range(p)]
            tables = (rows + rows, cubes, squares3)
            object.__setattr__(self, "_oracle_tables", tables)
        return tables

    def square_roots(self) -> dict[tuple[int, int], list["Fp2"]]:
        """Every square of F_{p^2}, as the int pair (r0, r1), mapped to its
        roots in (a, b) order: zero to [0], a nonzero square to its two
        roots.

        The table holds all p^2 elements as Fp2.  It is built on first use
        and kept with the context, so the caller bounds p; the point
        enumeration asks for it only at p <= 64.
        """
        roots = self._square_roots
        if roots is None:
            p, d = self.p, self.delta
            roots = {}
            for u in range(p):
                for v in range(p):
                    roots.setdefault(((u * u + d * v * v) % p, 2 * u * v % p), []).append(Fp2(self, u, v))
            object.__setattr__(self, "_square_roots", roots)
        return roots


class Fp2:
    """An element a + b*sqrt(delta) of F_{p^2}, with 0 <= a, b < p.

    Every operation builds its result from plain integer expressions and
    reduces each output coordinate exactly once, here in the constructor.
    """

    __slots__ = ("a", "b", "ctx")

    def __init__(self, ctx: FieldCtx, a: int, b: int = 0):
        self.ctx = ctx
        self.a = a % ctx.p
        self.b = b % ctx.p

    def _pair(self, other) -> tuple[int, int]:
        if isinstance(other, Fp2):
            if other.ctx is not self.ctx:
                self.ctx.coerce(other)
            return other.a, other.b
        if isinstance(other, int):
            return other, 0
        return NotImplemented, None

    def __add__(self, other):
        oa, ob = self._pair(other)
        if oa is NotImplemented:
            return NotImplemented
        return Fp2(self.ctx, self.a + oa, self.b + ob)

    __radd__ = __add__

    def __sub__(self, other):
        oa, ob = self._pair(other)
        if oa is NotImplemented:
            return NotImplemented
        return Fp2(self.ctx, self.a - oa, self.b - ob)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Fp2(self.ctx, -self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return Fp2(self.ctx, self.a * other, self.b * other)
        oa, ob = self._pair(other)
        if oa is NotImplemented:
            return NotImplemented
        a, b = self.a, self.b
        return Fp2(self.ctx, a * oa + self.ctx.signed_delta * b * ob, a * ob + b * oa)

    __rmul__ = __mul__

    def inverse(self) -> "Fp2":
        ctx = self.ctx
        return Fp2(ctx, *_inverse_pair(self.a, self.b, ctx.p, ctx.signed_delta))

    def __truediv__(self, other):
        oa, ob = self._pair(other)
        if oa is NotImplemented:
            return NotImplemented
        return self * Fp2(self.ctx, oa, ob).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        if not e:
            return Fp2(self.ctx, 1, 0)
        # Left to right from the top bit: one square per lower bit and one
        # product per lower set bit, so x ** 2 is a single square.
        acc = base
        for i in range(e.bit_length() - 2, -1, -1):
            acc = acc * acc
            if e >> i & 1:
                acc = acc * base
        return acc

    def __eq__(self, other):
        if isinstance(other, Fp2):
            return (
                self.a == other.a
                and self.b == other.b
                and self.ctx.p == other.ctx.p
                and self.ctx.delta == other.ctx.delta
            )
        if isinstance(other, int):
            return self.b == 0 and self.a == other % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.ctx.p, self.ctx.delta))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "Fp2":
        """The p-power map a + b*sqrt(D) -> a - b*sqrt(D); equals x**p."""
        return Fp2(self.ctx, self.a, -self.b)

    def norm(self) -> int:
        """a^2 - D*b^2 in F_p, the norm down to the base field."""
        a, b = self.a, self.b
        return (a * a - self.ctx.signed_delta * b * b) % self.ctx.p

    def is_square(self) -> bool:
        """True iff the element has a square root in F_{p^2}.

        Nonzero x is a square exactly when its norm is a square in F_p.
        """
        if not self:
            return True
        return legendre(self.norm(), self.ctx.p) == 1

    def sqrt(self) -> "Fp2 | None":
        """The canonical square root, or None for a nonsquare.

        Canonical means the root whose (a, b) pair is lexicographically
        smallest among the two candidates, compared as integers.

        At p = 3 (mod 4) (_sqrt_3mod4) a root costs two powers when b != 0
        (the norm's root, then one candidate for u^2) and one when b = 0; a
        failed power r, with r^2 = -s, gives the root through the field's
        constant k = sqrt(-delta) in place of a second power.
        """
        ctx = self.ctx
        p = ctx.p
        if not self:
            return ctx.zero()
        if p % 4 == 3:
            root = _sqrt_3mod4(self.a, self.b, p, ctx.delta, self.norm())
            return None if root is None else _canonical_root(Fp2(ctx, *root))
        if self.b == 0:
            u = sqrt_mod_prime(self.a, p)
            if u is not None:
                return _canonical_root(Fp2(ctx, u, 0))
            # a is a nonresidue, so a/delta is a residue and the root is v*sqrt(D).
            v = sqrt_mod_prime(self.a * pow(ctx.delta, -1, p) % p, p)
            return _canonical_root(Fp2(ctx, 0, v))
        # x is a square iff its norm is, say m^2.  Then u^2 is (a + m)/2 or
        # (a - m)/2, whichever is a residue: their product delta*b^2/4 is a
        # nonresidue, and neither is 0, since a = -+m would force delta*b^2 = 0.
        m = sqrt_mod_prime(self.norm(), p)
        if m is None:
            return None
        half = (p + 1) // 2
        u = sqrt_mod_prime((self.a + m) * half, p)
        if u is None:
            u = sqrt_mod_prime((self.a - m) * half, p)
        v = self.b * pow(2 * u % p, -1, p) % p
        return _canonical_root(Fp2(ctx, u, v))

    def __str__(self):
        return format_fp2(self)

    def __repr__(self):
        return f"Fp2({self.a}+{self.b}*i mod {self.ctx.p})"


def _inverse_pair(a: int, b: int, p: int, d: int) -> tuple[int, int]:
    """(a + b*sqrt(delta))^-1 as a reduced int pair, d = delta or its least
    absolute residue: the conjugate over the norm a^2 - d*b^2, by one
    pow(norm, -1, p).  ZeroDivisionError for zero.  Fp2.inverse and the
    int-pair code of weierstrass and isogeny share it, so an inversion there
    builds no Fp2."""
    n = (a * a - d * b * b) % p
    if not n:
        raise ZeroDivisionError("inverse of zero in F_{p^2}")
    ni = pow(n, -1, p)
    return a * ni % p, -b * ni % p


def _sqrt_3mod4(a: int, b: int, p: int, delta: int, norm: int) -> tuple[int, int] | None:
    """A square root (u, v) of a + b*sqrt(delta) != 0 at p = 3 (mod 4),
    norm = a^2 - delta*b^2 mod p, or None for a nonsquare; e = (p+1)/4.

    With b = 0, r = a^e is the root if r^2 = a; else r^2 = -a, and the
    root is (r/k)*sqrt(delta), k^2 = -delta.  With b != 0, x is a square iff
    its norm is, say m^2, and u^2 is s = (a + m)/2 or t = (a - m)/2,
    whichever is a residue: st = delta*b^2/4 is a nonresidue, and neither
    is 0, since a = -+m would force delta*b^2 = 0.  If r = s^e has r^2 = s,
    then u = r; else r^2 = -s, so t = delta*b^2/(4s) = (bk/(2r))^2 and
    u = bk/(2r).  Either way v = b/(2u), which is r/k in the second case.
    """
    e = (p + 1) >> 2
    if b == 0:
        r = pow(a, e, p)
        if r * r % p == a:
            return r, 0
        return 0, r * _sqrt_neg_delta(p, delta)[1] % p
    m = pow(norm, e, p)
    if m * m % p != norm:
        return None
    s = (a + m) * ((p + 1) >> 1) % p
    r = pow(s, e, p)
    if r * r % p == s:
        return r, b * pow(2 * r, -1, p) % p
    k, k_inv = _sqrt_neg_delta(p, delta)
    return b * k * pow(2 * r, -1, p) % p, r * k_inv % p


def _canonical_root(r: Fp2) -> Fp2:
    s = -r
    return r if (r.a, r.b) <= (s.a, s.b) else s


def format_fp2(x: Fp2) -> str:
    return f"{x.a}+{x.b}*i"


_FP2_RE = re.compile(r"^([+-]?\d+)(?:([+-]\d+)\*i)?$")


def parse_fp2(ctx: FieldCtx, text: str) -> Fp2:
    """Parse "a+b*i" (or a bare "a") into a field element."""
    m = _FP2_RE.match(text.replace(" ", ""))
    if not m:
        raise ParseError(f"cannot parse field element {text!r}")
    a = int(m.group(1))
    b = int(m.group(2)) if m.group(2) else 0
    return Fp2(ctx, a, b)
