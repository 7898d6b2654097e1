"""Scalar decomposition machinery: the choice of a cyclic subgroup from a
factored group order and of a point in it, reduced bases for the
decomposition lattice, exact two-dimensional decomposition, and interleaved
double-and-add.

All arithmetic here is exact integer arithmetic.  The lattice of
decompositions of zero is L = <(N, 0), (-lambda, 1)>; a decomposition of m
is any (a, b) with a + b*lambda = m (mod N), i.e. an element of the coset
(m, 0) + L.  A basis is reduced when, under the infinity norm,
||b1|| <= ||b2|| <= ||b1 - b2|| <= ||b1 + b2||.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OffCurveError, StructureError, SubgroupPointError, SupersingularError
from . import families
from .weierstrass import Curve, Point, random_point

Vec = tuple[int, int]

PRIME_ORDER = "prime_order"
COFACTOR2_D2 = "cofactor2_d2"
COFACTOR4_D2 = "cofactor4_d2"
COFACTOR3_D3 = "cofactor3_d3"


def infnorm(v: Vec) -> int:
    return max(abs(v[0]), abs(v[1]))


def _add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def _sub(u: Vec, v: Vec) -> Vec:
    return (u[0] - v[0], u[1] - v[1])


def _neg(v: Vec) -> Vec:
    return (-v[0], -v[1])


def _scale(v: Vec, k: int) -> Vec:
    return (v[0] * k, v[1] * k)


def _divide(v: Vec, k: int) -> Vec:
    """v / k, which must be an integer vector."""
    if v[0] % k or v[1] % k:
        raise StructureError("basis combination is not integral")
    return (v[0] // k, v[1] // k)


def det2(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def is_reduced(b1: Vec, b2: Vec) -> bool:
    return (
        infnorm(b1) <= infnorm(b2) <= infnorm(_sub(b1, b2)) <= infnorm(_add(b1, b2))
    )


def sublattice_basis(p: int, eps: int, d: int, r: int) -> tuple[Vec, Vec]:
    """Generators e1 = (p + eps, -r), e2 = (-eps*d*r, p + eps) of the index-
    (#E/N) sublattice of decompositions; determinant (p+eps)^2 - eps*d*r^2 = #E."""
    return (p + eps, -r), (-eps * d * r, p + eps)


def lagrange_reduce(v1: Vec, v2: Vec) -> tuple[Vec, Vec]:
    """Gauss-Lagrange reduction under the infinity norm.

    Repeatedly shortens the longer vector by the best integer multiple of
    the shorter one; the result is ordered and sign-normalised so that
    ||b1|| <= ||b2|| <= ||b1 - b2|| <= ||b1 + b2||.
    """
    if det2(v1, v2) == 0:
        raise StructureError("vectors are linearly dependent")
    u, v = v1, v2
    if infnorm(u) > infnorm(v):
        u, v = v, u
    while True:
        best = v
        for q in _reduction_candidates(u, v):
            if q == 0:
                continue
            cand = _sub(v, _scale(u, q))
            if infnorm(cand) < infnorm(best):
                best = cand
        if best == v:
            break
        v = best
        if infnorm(u) > infnorm(v):
            u, v = v, u
    if infnorm(_sub(u, v)) > infnorm(_add(u, v)):
        v = _neg(v)
    if not is_reduced(u, v):
        raise StructureError("reduction failed to satisfy the ordering")
    return u, v


def _reduction_candidates(u: Vec, v: Vec):
    """Integer multiples q worth testing when shortening v by q*u: the
    per-coordinate minimisers and the crossings of the two |v_i - q*u_i|
    graphs (the max of two V-shapes is minimised at one of these).
    q = +-1 is always included; at termination that is what forces
    ||v|| <= ||v - u|| and ||v|| <= ||v + u||."""
    cands = {-1, 1}

    def around(num: int, den: int):
        f = num // den
        cands.update((f - 1, f, f + 1, f + 2))

    for i in (0, 1):
        if u[i]:
            around(v[i], u[i])
    for sgn in (1, -1):
        du = u[0] + sgn * u[1]
        if du:
            around(v[0] + sgn * v[1], du)
    return cands


@dataclass(frozen=True)
class GlvBasis:
    """A reduced basis of the decomposition lattice for (N, lambda)."""

    b1: Vec
    b2: Vec
    order: int
    eigenvalue: int

    def __post_init__(self):
        n = self.order
        lam = self.eigenvalue
        for v in (self.b1, self.b2):
            if (v[0] + lam * v[1]) % n:
                raise StructureError(f"{v} is not in the decomposition lattice")
        if abs(det2(self.b1, self.b2)) != n:
            raise StructureError("basis determinant does not equal the subgroup order")
        if not is_reduced(self.b1, self.b2):
            raise StructureError("basis does not satisfy the reduction ordering")

    @property
    def bitlength(self) -> int:
        return ceil_log2(infnorm(self.b2))


def ceil_log2(n: int) -> int:
    if n < 1:
        raise StructureError("ceil_log2 of a nonpositive number")
    return (n - 1).bit_length()


def cofactor_basis(
    variant: str,
    p: int,
    eps: int,
    d: int,
    r: int,
    order: int,
    eigenvalue: int,
) -> GlvBasis:
    """A reduced basis of L for the given cofactor structure.

    prime_order: the sublattice generators themselves (N = #E);
    cofactor2_d2: Z/2 x Z/N with N odd, needs r odd;
    cofactor4_d2: (Z/2)^2 x Z/N with N odd, needs r even;
    cofactor3_d3: Z/3 x Z/N with 3 coprime to N, needs 3 | p + eps, 3 != r mod 3.

    At toy primes the stated arrangement can fail the reduction ordering; in
    that case it is Gauss-reduced, which preserves the lattice.
    """
    e1, e2 = sublattice_basis(p, eps, d, r)
    if variant == PRIME_ORDER:
        if eps == -1:
            b1, b2 = e1, e2
        elif r >= 0:
            b1, b2 = _add(e1, e2), e1
        else:
            b1, b2 = _sub(e1, e2), e1
    elif variant == COFACTOR2_D2:
        if d != 2:
            raise StructureError("cofactor-2 basis applies to the degree-2 family")
        if order % 2 == 0 or r % 2 == 0:
            raise StructureError("group structure inconsistent with variant: need N and r odd")
        h = _divide(e2, 2)
        b1 = _neg(h)
        b2 = _add(e1, h) if eps * r >= 0 else _sub(e1, h)
    elif variant == COFACTOR4_D2:
        if d != 2:
            raise StructureError("cofactor-4 basis applies to the degree-2 family")
        if order % 2 == 0 or r % 2:
            raise StructureError("group structure inconsistent with variant: need N odd, r even")
        if eps == 1:
            b1 = _divide(_add(e1, e2) if r >= 0 else _sub(e1, e2), 2)
            b2 = _divide(e2 if r >= 0 else _neg(e2), 2)
        else:
            b1 = _divide(e1, 2)
            b2 = _divide(e2 if r >= 0 else _neg(e2), 2)
    elif variant == COFACTOR3_D3:
        if d != 3:
            raise StructureError("cofactor-3 basis applies to the degree-3 family")
        if order % 3 == 0 or (p + eps) % 3 or r % 3 == 0:
            raise StructureError(
                "group structure inconsistent with variant: need 3 | p+eps, 3 coprime to N and r"
            )
        b1 = _divide(e2, 3)
        t = _scale(b1, 2)
        b2 = _add(e1, t) if eps * r >= 0 else _sub(e1, t)
    else:
        raise StructureError(f"unknown basis variant {variant!r}")
    if not is_reduced(b1, b2):
        b1, b2 = lagrange_reduce(b1, b2)
    return GlvBasis(b1, b2, order, eigenvalue)


def reduced_lattice_basis(order: int, eigenvalue: int) -> GlvBasis:
    """Fallback: Gauss-reduce the defining generators (N, 0), (-lambda, 1)."""
    b1, b2 = lagrange_reduce((order, 0), (-eigenvalue, 1))
    return GlvBasis(b1, b2, order, eigenvalue)


def _choose_subgroup(fam, r: int, factored) -> tuple[str | None, int]:
    """(variant, N): the basis variant matching the group structure of the
    order that factored splits, or (None, N) for the generic reduced-lattice
    fallback, whose N is the remainder or a trial factor of exponent 1."""
    if r == 0:
        raise SupersingularError("supersingular curve: no scalar decomposition")
    order = factored.n
    if fam.d == 2:
        k = (order & -order).bit_length() - 1
        odd = order >> k
        if k == 1:
            return COFACTOR2_D2, odd
        if k == 2 and fam.constant.is_square():
            return COFACTOR4_D2, odd
    elif fam.d == 3:
        if order % 3 == 0 and (order // 3) % 3:
            return COFACTOR3_D3, order // 3
    elif factored.is_prime:
        return PRIME_ORDER, order
    if factored.rest > 1:
        return None, factored.rest
    q, e = max(factored.factors)
    if e > 1:
        raise StructureError("no dominant cyclic subgroup for decomposition")
    return None, q


def subgroup_basis(endo, r: int, factored) -> tuple[str | None, GlvBasis]:
    """(variant, basis) for the curve of endo, given r from determine_r and
    #E split by fields.factorize: the cyclic subgroup's basis variant (None
    for the reduced lattice), with basis.order = N and basis.eigenvalue."""
    fam = endo.family
    variant, n = _choose_subgroup(fam, r, factored)
    lam = families.eigenvalue(endo, r, n)
    if variant is None:
        return None, reduced_lattice_basis(n, lam)
    return variant, cofactor_basis(variant, fam.ctx.p, endo.eps, fam.d, r, n, lam)


def subgroup_point(curve: Curve, cofactor: int, seed: int) -> Point:
    """[cofactor]Q for the first hashed point Q = random_point(curve, s),
    s = seed, seed + 1, ..., that the cofactor does not send to infinity:
    with cofactor = #E/N, a point other than O of the subgroup of order N.
    SubgroupPointError after 64 seeds."""
    for s in range(seed, seed + 64):
        P = curve.mul(cofactor, random_point(curve, s))
        if not P.is_infinity:
            return P
    raise SubgroupPointError(f"no point of seeds {seed} to {seed + 63} survives the cofactor {cofactor}")


def bound_bitlength(variant: str | None, p: int, eps: int, r: int, basis: GlvBasis) -> int:
    """The bit length that bounds ||b2|| for the variant's basis; for the
    reduced-lattice fallback, the basis's own."""
    if variant == PRIME_ORDER:
        return ceil_log2(p + eps)
    if variant == COFACTOR2_D2:
        return ceil_log2(p + eps - abs(r))
    if variant == COFACTOR4_D2:
        return ceil_log2(p + eps) - 1
    if variant == COFACTOR3_D3:
        # b2 = e1 +- 2*b1, whose second coordinate dominates at small p.
        return ceil_log2(max(p + eps - 2 * abs(r), 2 * (p + eps) // 3 - eps * abs(r)))
    return basis.bitlength


@dataclass(frozen=True)
class Decomposition:
    a: int
    b: int

    @property
    def norm(self) -> int:
        return max(abs(self.a), abs(self.b))

    @property
    def bitlength(self) -> int:
        return self.norm.bit_length()


def decompose(m: int, basis: GlvBasis) -> Decomposition:
    """The shortest decomposition of m: solve alpha*b1 + beta*b2 = (m, 0)
    exactly, take the nearest lattice vector among the four floor/ceiling
    combinations, and subtract.

    Requires a reduced basis; the output norm is minimal over the whole
    coset and at most ||b2||.  The four candidates are scored on bare ints;
    the first of least norm wins.
    """
    b1, b2 = basis.b1, basis.b2
    if not is_reduced(b1, b2):
        raise StructureError("decompose requires a reduced basis")
    (u0, u1), (v0, v1) = b1, b2
    det = u0 * v1 - u1 * v0
    na, nb = m * v1, -m * u1
    best = None
    for qa in (na // det, -(-na // det)):
        for qb in (nb // det, -(-nb // det)):
            ca = m - qa * u0 - qb * v0
            cb = -qa * u1 - qb * v1
            norm = max(abs(ca), abs(cb))
            if best is None or norm < best:
                best, a, b = norm, ca, cb
    if (a + b * basis.eigenvalue - m) % basis.order:
        raise StructureError("decomposition failed its defining congruence")
    return Decomposition(a, b)


def coset_minimum(m: int, basis: GlvBasis) -> int | None:
    """Brute-force reference for decompose: the least norm over every
    decomposition of m with both coordinates inside the ||b2|| box, or None
    if the box holds none.  Costs O(||b2||), so it is for small orders."""
    n, lam = basis.order, basis.eigenvalue
    radius = infnorm(basis.b2)
    return min(
        (
            max(abs(a), abs(b))
            for b in range(-radius, radius + 1)
            for a0 in [(m - b * lam) % n]
            for a in (a0, a0 - n)
            if abs(a) <= radius
        ),
        default=None,
    )


def first_nonminimal(basis: GlvBasis) -> int | None:
    """The least m in [0, n) whose decomposition is not a coset minimum,
    or None when decompose is minimal on every scalar; the exhaustive check
    behind ``decompose --exhaustive`` and the self-test, for small orders."""
    return next((m for m in range(basis.order) if decompose(m, basis).norm != coset_minimum(m, basis)), None)


def multiexp2(a: int, b: int, P: Point, psiP: Point, curve: Curve) -> Point:
    """[a]P + [b]psiP for signed a, b by one interleaved double-and-add
    (``Curve._mul2``) over the joint sparse form of (|a|, |b|), with the
    table {+-P, +-psiP, +-(P + psiP), +-(P - psiP)}: one mixed addition per
    nonzero column, about half of the columns, and after each the run of
    doublings down to the next one, at most max(|a|, |b|).bit_length()
    doublings in all."""
    if not curve.is_on(P) or not curve.is_on(psiP):
        raise OffCurveError("multiexponentiation operand is not on the curve")
    return curve._mul2(a, P, b, psiP)
