"""The four family builders proven once, over an exact ring, and their
maps as polynomials in s.

The builders of families.py are written over a ring R.  Here R is
Q[s, delta][t]/(t^2 - delta), with s and delta indeterminates and t
playing sqrt(delta), or Q[s][i], i^2 = -1, for d = 5, whose field has
delta = -1.  family_maps(d) runs the builder, its twisting factor and the
quotient's codomain and x-map of qcurve.isogeny there, giving the member's
A, B, family constant and phi's x-map as polynomials in s and delta, which
families.build_family_curve evaluates mod p: what is proven here is the
code and the maps of every member.

prove_family(d) returns the verdict of each identity that makes the
builder's kernel polynomial F a kernel and its twisted quotient the
conjugate curve, identically in s and delta.  Each is the function of
qcurve.isogeny that velu_quotient runs on Fp2; this module defines none:
  - two_torsion (d = 2): the root of F is a root of x^3 + Ax + B
    (isogeny._two_torsion);
  - divides_psi (d = 3, 5, 7): psi_d = 0 modulo F (isogeny._division_mod);
  - cyclic (d = 3, 5, 7): F(N, D) = 0 modulo F, N/D the x-map of doubling
    (isogeny._doubling_closure);
  - codomain: the quotient's codomain (Velu 1971, Kohel 1996;
    isogeny._quotient_codomain), twisted by the builder's l^2
    (families._twisting_square), equals conj(E);
  - normalized: the quotient's x-map N/den (isogeny._quotient_maps) has
    degree d, and N the leading coefficient of den.
family_maps checks the last two, and a build refuses a degree that fails
either.  The kernel identities cost several times the maps (about 6 and
17 ms for d = 5 and 7, against 2.5 ms), so only prove_family runs them,
for selftest and the tests.

Why these are enough at every p the families allow.  F is monic, so a
remainder modulo F takes no division, and reducing an identity mod p
commutes with it wherever p divides no denominator of the builders'
constants or the maps.  The bad primes are those and the primes of d.
Take any other p > 3 (FieldCtx refuses 2 and 3) and any s where E_s is
nonsingular, that is, where the two degeneracy polynomials do not both
vanish mod p.  Then psi_d is squarefree, so F | psi_d makes F squarefree,
with roots that are abscissas of points of order d.  2 generates
(Z/d)^*/{+-1} for d = 3, 5, 7, so roots closed under doubling are the
abscissas of one cyclic subgroup.  velu_quotient runs the same two
functions on each kernel another caller gives it; family builds rely on
this proof instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import families, isogeny
from .fields import factorize

# s^i delta^j is the key i + j * _DELTA_KEY, so the key of a product of two
# monomials is the sum of their keys.
_DELTA_KEY = 1 << 16


class Poly:
    """A polynomial in s and delta with rational coefficients: a dict from
    the key of each monomial to its nonzero int numerator, over one
    positive common denominator den, in lowest terms.  So every product and
    sum is taken on ints, and only the constructor divides, by one gcd."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict, den: int = 1):
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
        self.terms = terms
        self.den = den

    def __add__(self, other):
        other = _poly(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        m, n = den // self.den, den // other.den
        out = {k: c * m for k, c in self.terms.items()}
        for k, c in other.terms.items():
            c = c * n + out.get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return Poly(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = _poly(other)
        return NotImplemented if other is None else self + -other

    def __mul__(self, other):
        other = _poly(other)
        if other is None:
            return NotImplemented
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return Poly({k: c for k, c in out.items() if c}, self.den * other.den)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def mod(self, p: int, delta: int) -> list[int]:
        """The coefficients of s^0, s^1, ... mod p at the given delta,
        trimmed; p divides no denominator."""
        out = []
        for k, c in self.terms.items():
            i, j = k % _DELTA_KEY, k // _DELTA_KEY
            out += [0] * (i + 1 - len(out))
            out[i] += c * pow(delta, j, p)
        inverse = pow(self.den, -1, p)
        out = [c * inverse % p for c in out]
        while out and not out[-1]:
            out.pop()
        return out



def _poly(x) -> Poly | None:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly({0: x.numerator} if x else {}, x.denominator)
    return None


_S = Poly({1: 1})
_DELTA = Poly({_DELTA_KEY: 1})


class Elem:
    """a + b t in the ring's Q[s, delta][t], t^2 = ring.delta."""

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: "ProofRing", a, b=0):
        self.ring = ring
        self.a = _poly(a)
        self.b = _poly(b)

    def _lift(self, other) -> "Elem | None":
        if isinstance(other, Elem):
            return other
        return None if _poly(other) is None else Elem(self.ring, other)

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Elem(self.ring, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Elem(self.ring, -self.a, -self.b)

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Elem(self.ring, self.a - o.a, self.b - o.b)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, o.a, o.b
        if not e:
            return Elem(self.ring, a * c, b * c)
        return Elem(self.ring, a * c + self.ring.delta * (b * e), a * e + b * c)

    __rmul__ = __mul__

    def __truediv__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return self * Fraction(1, n)

    def inverse(self) -> "Elem":
        """The inverse, for an element whose norm a^2 - delta b^2 is a
        nonzero rational."""
        norm = self.a * self.a - self.ring.delta * (self.b * self.b)
        if set(norm.terms) != {0}:
            raise ValueError("only an element of constant norm is inverted here")
        return self.conjugate() * Fraction(norm.den, norm.terms[0])

    def conjugate(self) -> "Elem":
        """t -> -t: the p-power map of every F_{p^2} the ring reduces to."""
        return Elem(self.ring, self.a, -self.b)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else not (self - o)


class ProofRing:
    """Q[s, delta][t]/(t^2 - delta), or with delta = -1 written in: the
    part of FieldCtx's interface that the builders and the kernel identities
    of qcurve.isogeny use."""

    def __init__(self, delta):
        self.delta = delta

    def elem(self, a, b=0) -> Elem:
        return Elem(self, a, b)

    def zero(self) -> Elem:
        return Elem(self, 0)

    def one(self) -> Elem:
        return Elem(self, 1)


@dataclass(frozen=True)
class FamilyProof:
    """One degree's builder run over the proof ring: the member's A, B and
    family constant C (None for d = 5), the kernel F, l^2 (lam2) and phi's
    x-map num/den = l^2 N / F^2 (F for d = 2), and the verdict of each
    identity checked there."""

    d: int
    A: Elem
    B: Elem
    C: Elem | None
    F: tuple
    lam2: Elem
    num: list
    den: list
    identities: dict[str, bool]

    @property
    def failed(self) -> list[str]:
        return [name for name, holds in self.identities.items() if not holds]

    @property
    def bad_primes(self) -> tuple[int, ...]:
        """The primes where reducing the proof mod p could fail."""
        forms = (self.A, self.B, self.C, self.lam2, *self.F, *self.num, *self.den)
        denominator = math.lcm(*(h.den for x in forms if x is not None for h in (x.a, x.b)))
        # The denominators are products of small primes, all found by trial division.
        return tuple(q for q, _ in factorize(self.d * denominator).factors)

    @property
    def degenerate(self) -> tuple[Poly, Poly]:
        """The two halves (a, b) of 4A^3 + 27B^2 = a + b sqrt(delta): E_s is
        singular mod p exactly where both vanish."""
        disc = 4 * self.A * self.A * self.A + 27 * self.B * self.B
        return disc.a, disc.b


def family_maps(d: int) -> FamilyProof:
    """Run the degree-d builder, its twisting factor, and the quotient's
    codomain and x-map over the proof ring, and check the two cheap
    identities, codomain and normalized, there."""
    ring = ProofRing(-1 if d == 5 else _DELTA)
    A, B, C, F = families._BUILDERS[d](ring, _S)
    lam2 = families._twisting_square(ring, d)
    num, den = isogeny._quotient_maps(ring, A, B, d, F)
    a_new, b_new = isogeny._quotient_codomain(A, B, d, F)
    identities = {
        "codomain": lam2 * lam2 * a_new == A.conjugate() and lam2 * lam2 * lam2 * b_new == B.conjugate(),
        "normalized": len(num) - 1 == d and num[-1] == den[-1],
    }
    return FamilyProof(d, A, B, C, F, lam2, [lam2 * c for c in num], den, identities)


def prove_family(d: int) -> FamilyProof:
    """family_maps, with the kernel identities checked over the same ring."""
    maps = family_maps(d)
    A, B, F = maps.A, maps.B, maps.F
    if d == 2:
        identities = {"two_torsion": isogeny._two_torsion(A, B, F)}
    else:
        identities = {
            "divides_psi": not isogeny._division_mod(A.ring, A, B, d, F),
            "cyclic": not isogeny._doubling_closure(A.ring, A, B, F),
        }
    return replace(maps, identities=identities | maps.identities)


def prove_families() -> dict[int, FamilyProof]:
    """prove_family for each of the four degrees."""
    return {d: prove_family(d) for d in families.FAMILY_DEGREES}
