"""Exceptional CM parameters of the four families, and the j-invariants of
all CM orders of class number 1 and 2.

Away from finitely many parameter values the family curves have no extra
endomorphisms in characteristic zero; at the tabulated values they acquire
CM by an order of discriminant -D0*f^2.  Detection works modulo p by
clearing denominators; a reduction can pick up extra CM without being one
of these fibers, so only fiber membership is reported.

All data is exact integer/rational data, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UntabulatedError
from .families import FamilyCurve
from .fields import FieldCtx, Fp2, sqrt_mod_prime

Disc = tuple[int, int]  # (D0, f) for the order of discriminant -D0*f^2


@dataclass(frozen=True)
class CmFiber:
    """One exceptional parameter of a family.

    For sign-free fibers the condition is s*sqrt(delta) = +-coeff*sqrt(radicand);
    the degree-5 fibers fix s itself (coeff signed, radicand -1).  The fiber at
    the parameter line's point at infinity is flagged non-constructible.
    """

    d: int
    coeff: Fraction | None
    radicand: int
    disc: Disc
    sign_free: bool = True
    constructible: bool = True


def _fib(d, num, den, rad, d0, f):
    return CmFiber(d, Fraction(num, den), rad, (d0, f))


FIBERS: dict[int, tuple[CmFiber, ...]] = {
    2: (
        CmFiber(2, None, 0, (4, 1), constructible=False),
        _fib(2, 5, 9, -7, 7, 1),
        _fib(2, 1, 2, 5, 20, 1),
        _fib(2, 5, 18, 13, 52, 1),
        _fib(2, 7, 12, 3, 4, 3),
        _fib(2, 0, 1, 1, 8, 1),
        _fib(2, 2, 3, 2, 24, 1),
        _fib(2, 70, 99, 2, 88, 1),
        _fib(2, 161, 360, 5, 4, 5),
        _fib(2, 20, 49, 6, 8, 3),
        _fib(2, 4, 9, 5, 40, 1),
        _fib(2, 145, 882, 37, 148, 1),
        _fib(2, 1820, 9801, 29, 232, 1),
    ),
    3: (
        CmFiber(3, None, 0, (3, 1), constructible=False),
        _fib(3, 5, 2, -2, 8, 1),
        _fib(3, 1, 2, 2, 24, 1),
        _fib(3, 0, 1, 1, 3, 2),
        _fib(3, 1, 4, -11, 11, 1),
        _fib(3, 1, 4, 17, 51, 1),
        _fib(3, 5, 9, 3, 3, 4),
        _fib(3, 1, 1, 5, 15, 1),
        _fib(3, 5, 32, 41, 123, 1),
        _fib(3, 9, 20, 5, 3, 5),
        _fib(3, 11, 25, 5, 15, 2),
        _fib(3, 53, 500, 89, 267, 1),
        _fib(3, 55, 252, 21, 3, 7),
    ),
    5: (
        CmFiber(5, Fraction(1), -1, (4, 2), sign_free=False),
        CmFiber(5, Fraction(-9, 13), -1, (4, 2), sign_free=False),
    ),
    7: (
        CmFiber(7, None, 0, (7, 1), constructible=False),
        _fib(7, 1, 1, 5, 35, 1),
        _fib(7, 0, 1, 1, 7, 2),
        _fib(7, 1, 3, 13, 91, 1),
        _fib(7, 1, 3, 7, 7, 4),
        _fib(7, 5, 39, 61, 427, 1),
    ),
}

# Class number 1: thirteen discriminants with a rational j-invariant.
# The -3*3^2 entry is -3*160^3 (the root of the class polynomial T + 12288000).
TABLE1: dict[Disc, int] = {
    (3, 1): 0,
    (3, 2): 2 * 30**3,
    (3, 3): -3 * 160**3,
    (4, 1): 12**3,
    (4, 2): 66**3,
    (7, 1): -(15**3),
    (7, 2): 255**3,
    (8, 1): 20**3,
    (11, 1): -(2**15),
    (19, 1): -(96**3),
    (43, 1): -(960**3),
    (67, 1): -(5280**3),
    (163, 1): -(640320**3),
}

# Class number 2: twenty-nine discriminants; the conjugate pair of
# j-invariants is prefix * (c0 +- c1*sqrt(rad)), stored exactly.
TABLE2: dict[Disc, tuple[Fraction, int, int, int]] = {
    (3, 4): (Fraction(12 * 15**3), 35010, 20213, 3),
    (3, 5): (Fraction(-(96**3)), 369830, 165393, 5),
    (3, 7): (Fraction(-3 * 480**3), 52518123, 11460394, 21),
    (4, 3): (Fraction(3 * 4**3), 399849, 230888, 3),
    (4, 4): (Fraction(2 * 3**3), 761354780, 538359129, 2),
    (4, 5): (Fraction(12**3), 12740595841, 5697769392, 5),
    (7, 4): (Fraction(15**3), 40728492440, 15393923181, 7),
    (8, 2): (Fraction(10**3), 26125, 18473, 2),
    (8, 3): (Fraction(20**3), 23604673, 9636536, 6),
    (11, 3): (Fraction(-44 * 16**3), 104359189, 18166603, 33),
    (15, 1): (Fraction(-5 * 3**3, 2), 1415, 637, 5),
    (15, 2): (Fraction(5 * 3**3, 2), 274207975, 122629507, 5),
    (20, 1): (Fraction(5 * 4**3), 1975, 884, 5),
    (24, 1): (Fraction(12**3), 1399, 988, 2),
    (35, 1): (Fraction(-5 * 32**3), 360, 161, 5),
    (40, 1): (Fraction(5 * 12**3), 24635, 11016, 5),
    (51, 1): (Fraction(-4 * 48**3), 6263, 1519, 17),
    (52, 1): (Fraction(60**3), 15965, 4428, 13),
    (88, 1): (Fraction(60**3), 14571395, 10303524, 2),
    (91, 1): (Fraction(-(96**3)), 5854330, 1623699, 13),
    (115, 1): (Fraction(-5 * 96**3), 48360710, 21627567, 5),
    (123, 1): (Fraction(-(480**3)), 6122264, 956137, 41),
    (148, 1): (Fraction(60**3), 91805981021, 15092810460, 37),
    (187, 1): (Fraction(-68 * 240**3), 2417649815, 586366209, 17),
    (232, 1): (Fraction(60**3), 1399837865393267, 259943365786104, 29),
    (235, 1): (Fraction(-5 * 1056**3), 69903946375, 31261995198, 5),
    (267, 1): (Fraction(-4 * 240**3), 177979346192125, 18865772964857, 89),
    (403, 1): (Fraction(-(480**3)), 11089461214325319155, 3075663155809161078, 13),
    (427, 1): (Fraction(-(5280**3)), 53028779614147702, 6789639488444631, 61),
}


def cm_fibers(d: int) -> tuple[CmFiber, ...]:
    if d not in FIBERS:
        raise UntabulatedError(f"no fiber table for degree {d}")
    return FIBERS[d]


def fiber_matches(fiber: CmFiber, ctx: FieldCtx, s: int) -> bool:
    """Whether the parameter s mod p satisfies the fiber condition."""
    if not fiber.constructible:
        return False
    p = ctx.p
    num = fiber.coeff.numerator
    den = fiber.coeff.denominator
    if den % p == 0:
        return False  # the fiber lies at infinity mod p
    if fiber.sign_free:
        return (s * s * ctx.delta * den * den - num * num * fiber.radicand) % p == 0
    return (s * den - num) % p == 0


def fiber_parameter(fiber: CmFiber, ctx: FieldCtx) -> int | None:
    """A parameter s in F_p realising the fiber, or None when the fiber has
    no rational parameter over this field."""
    if not fiber.constructible:
        return None
    p = ctx.p
    num = fiber.coeff.numerator
    den = fiber.coeff.denominator
    if den % p == 0:
        return None
    if not fiber.sign_free:
        return num * pow(den, -1, p) % p
    target = num * num * fiber.radicand * pow(den * den * ctx.delta, -1, p) % p
    return sqrt_mod_prime(target, p)


def cm_j_candidates(disc: Disc, ctx: FieldCtx) -> list[Fp2]:
    """The tabulated j-invariant(s) for the discriminant, reduced mod p."""
    if disc in TABLE1:
        return [ctx.elem(TABLE1[disc])]
    if disc in TABLE2:
        pref, c0, c1, rad = TABLE2[disc]
        pf = ctx.elem(pref.numerator) / ctx.elem(pref.denominator)
        root = ctx.elem(rad).sqrt()
        return [pf * (c0 + c1 * root), pf * (c0 - c1 * root)]
    raise UntabulatedError(f"discriminant -{disc[0]}*{disc[1]}^2 is not tabulated")


def detect_cm(fam: FamilyCurve) -> Disc | None:
    """The fiber discriminant if the family parameter satisfies a fiber
    condition mod p and the j-invariant reduces to a tabulated root;
    None otherwise.

    At primes where two fibers collide mod p (their conditions and reduced
    j-invariants coincide) the first match in table order is reported."""
    ctx = fam.ctx
    j = None  # one Fp2 inversion, taken once a fiber condition holds
    for fiber in cm_fibers(fam.d):
        if fiber_matches(fiber, ctx, fam.s):
            if j is None:
                j = fam.curve.j_invariant()
            if j in cm_j_candidates(fiber.disc, ctx):
                return fiber.disc
    return None
