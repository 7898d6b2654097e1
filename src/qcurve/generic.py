"""The four family builders proven once, over an exact ring.

The builders of families.py are written over a ring R: they use R.elem,
R.one(), R.delta, +, -, *, int scalars and a division by an int.  At build
time R is a FieldCtx and s an int.  Here R is Q[s, delta][t]/(t^2 - delta),
with s and delta indeterminates and t playing sqrt(delta), or Q[s][i],
i^2 = -1, for d = 5, whose field has delta = -1; and s is the indeterminate.
The same builder functions run on both, so what is proven here is the code
that builds every member, not a copy of it.

prove_families() returns, per degree, the verdict of each identity that
makes a builder's kernel polynomial F a kernel and its twisted quotient
the conjugate curve, identically in s and delta.  Each identity is the
function of qcurve.isogeny that velu_quotient runs on Fp2 and, for the
codomain, that every family build runs (isogeny._velu_maps); this module
defines none of them, so the proof covers their code too:
  - two_torsion (d = 2): the root of F is a root of x^3 + Ax + B
    (isogeny._two_torsion);
  - divides_psi (d = 3, 5, 7): psi_d = 0 modulo F (isogeny._division_mod);
  - cyclic (d = 3, 5, 7): F(N, D) = 0 modulo F, N/D the x-map of doubling
    (isogeny._doubling_closure);
  - codomain: the quotient's codomain (Velu 1971, Kohel 1996;
    isogeny._quotient_codomain), twisted by the builder's l^2
    (families._twisting_square), equals conj(E).

Why these are enough at every p the families allow.  F is monic, so a
remainder modulo F takes no division, and reducing an identity mod p
commutes with it wherever p divides no denominator of the builders'
constants.  The bad primes are those and the primes of d.  Take any other
p > 3 (FieldCtx refuses 2 and 3) and any s where E_s is nonsingular, that
is, where the two degeneracy polynomials do not both vanish mod p.  Then
psi_d is squarefree, so F | psi_d makes F squarefree, with roots that are
abscissas of points of order d.  2 generates (Z/d)^*/{+-1} for d = 3, 5, 7,
so roots closed under doubling are the abscissas of one cyclic subgroup.
velu_quotient runs the same two functions on each kernel another caller
gives it; families.build_family_curve relies on this proof instead.

This module is not imported on the build path: selftest and the tests run
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import families, isogeny
from .fields import factorize

# s^i delta^j is the key i + j * _DELTA_KEY, so the key of a product of two
# monomials is the sum of their keys.
_DELTA_KEY = 1 << 16


class Poly:
    """A polynomial in s and delta with rational coefficients: a dict from
    the key of each monomial to its nonzero int or Fraction coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __add__(self, other):
        other = _poly(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _poly(other)
        return NotImplemented if other is None else self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly({k: c * other for k, c in self.terms.items()} if other else {})
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return Poly({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def at(self, s: int, delta: int, p: int) -> int:
        """The value mod p at the given s and delta; p divides no denominator."""
        total = 0
        for k, c in self.terms.items():
            c = Fraction(c)
            i, j = k % _DELTA_KEY, k // _DELTA_KEY
            total += c.numerator * pow(c.denominator, -1, p) * pow(s, i, p) * pow(delta, j, p)
        return total % p

    def denominator(self) -> int:
        return math.lcm(1, *(Fraction(c).denominator for c in self.terms.values()))


def _poly(x) -> Poly | None:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly({0: x} if x else {})
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
        return self.conjugate() * Fraction(1, norm.terms[0])

    def conjugate(self) -> "Elem":
        """t -> -t: the p-power map of every F_{p^2} the ring reduces to."""
        return Elem(self.ring, self.a, -self.b)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else not (self - o)

    __hash__ = None

    def denominator(self) -> int:
        return math.lcm(self.a.denominator(), self.b.denominator())


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
    """The verdict of each identity of one degree's builder, the primes
    where reducing the proof mod p could fail, and the two halves (a, b)
    of 4A^3 + 27B^2 = a + b sqrt(delta): E_s is singular mod p exactly
    where both vanish."""

    d: int
    identities: dict[str, bool]
    bad_primes: tuple[int, ...]
    degenerate: tuple[Poly, Poly]

    @property
    def failed(self) -> list[str]:
        return [name for name, holds in self.identities.items() if not holds]


def prove_family(d: int) -> FamilyProof:
    """Run the degree-d builder and its twisting factor over the proof ring,
    and check each identity there."""
    ring = ProofRing(-1 if d == 5 else _DELTA)
    A, B, _, F = families._BUILDERS[d](ring, _S)
    lam2 = families._twisting_square(ring, d)
    if d == 2:
        identities = {"two_torsion": isogeny._two_torsion(A, B, F)}
    else:
        identities = {
            "divides_psi": not isogeny._division_mod(ring, A, B, d, F),
            "cyclic": not isogeny._doubling_closure(ring, A, B, F),
        }
    a_new, b_new = isogeny._quotient_codomain(A, B, d, F)
    identities["codomain"] = lam2 * lam2 * a_new == A.conjugate() and lam2 * lam2 * lam2 * b_new == B.conjugate()
    denominator = math.lcm(*(x.denominator() for x in (A, B, lam2, *F)))
    disc = 4 * A * A * A + 27 * B * B
    # The denominators are products of small primes, all found by trial division.
    bad_primes = tuple(q for q, _ in factorize(d * denominator).factors)
    return FamilyProof(d, identities, bad_primes, (disc.a, disc.b))


def prove_families() -> dict[int, FamilyProof]:
    """prove_family for each of the four degrees."""
    return {d: prove_family(d) for d in families.FAMILY_DEGREES}
