"""Short Weierstrass curves over F_{p^2}: group law, scalar multiplication,
quadratic twists, and an exhaustive point-count oracle for small primes.

Affine coordinates with an explicit point at infinity; this is the reference
arithmetic that everything else is checked against, so clarity wins over
speed here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import DegenerateParameterError, OffCurveError, OracleGuardError
from .fields import FieldCtx, Fp2

ORACLE_MAX_P = 64


@dataclass(frozen=True)
class Point:
    x: Fp2 | None
    y: Fp2 | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point(None, None)


class Curve:
    """y^2 = x^3 + A*x + B over F_{p^2}, with nonzero discriminant."""

    __slots__ = ("A", "B", "ctx")

    def __init__(self, A: Fp2, B: Fp2):
        ctx = A.ctx
        self.A = A
        self.B = ctx.coerce(B)
        self.ctx = ctx
        if not self.discriminant():
            raise DegenerateParameterError("singular curve: discriminant is zero")

    def discriminant(self) -> Fp2:
        A, B = self.A, self.B
        return -16 * (4 * A * A * A + 27 * B * B)

    def __eq__(self, other):
        return isinstance(other, Curve) and self.A == other.A and self.B == other.B

    def __hash__(self):
        return hash((self.A, self.B))

    def __repr__(self):
        return f"Curve(y^2 = x^3 + ({self.A})*x + ({self.B}) over F_{self.ctx.p}^2)"

    def is_on(self, P: Point) -> bool:
        if P.is_infinity:
            return True
        x, y = P.x, P.y
        return y * y == x * x * x + self.A * x + self.B

    def point(self, x: Fp2, y: Fp2) -> Point:
        P = Point(x, y)
        if not self.is_on(P):
            raise OffCurveError(f"({x}, {y}) does not satisfy the curve equation")
        return P

    def neg(self, P: Point) -> Point:
        if P.is_infinity:
            return INFINITY
        return Point(P.x, -P.y)

    def _add(self, P: Point, Q: Point) -> Point:
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if y1 != y2 or not y1:
                return INFINITY
            lam = (3 * x1 * x1 + self.A) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return Point(x3, lam * (x1 - x3) - y1)

    def add(self, P: Point, Q: Point) -> Point:
        if not self.is_on(P) or not self.is_on(Q):
            raise OffCurveError("group law operand is not on the curve")
        return self._add(P, Q)

    def mul(self, m: int, P: Point) -> Point:
        """[m]P by double-and-add; negative m negates the point."""
        if not self.is_on(P):
            raise OffCurveError("scalar multiplication operand is not on the curve")
        if m < 0:
            m, P = -m, self.neg(P)
        acc = INFINITY
        addend = P
        while m:
            if m & 1:
                acc = self._add(acc, addend)
            addend = self._add(addend, addend)
            m >>= 1
        return acc

    def j_invariant(self) -> Fp2:
        A, B = self.A, self.B
        a3 = 4 * A * A * A
        return 1728 * a3 / (a3 + 27 * B * B)

    def conjugate(self) -> "Curve":
        return Curve(self.A.conjugate(), self.B.conjugate())

    def quadratic_twist(self) -> tuple["Curve", Fp2]:
        """The twist by the square root of the canonical nonsquare mu;
        returns (twisted curve, mu)."""
        mu = self.ctx.nonsquare()
        mu2 = mu * mu
        return Curve(mu2 * self.A, mu2 * mu * self.B), mu

    def lift_x(self, x: Fp2) -> Point | None:
        """The point (x, y) with canonical y, or None if x is not on the curve."""
        y = (x * x * x + self.A * x + self.B).sqrt()
        if y is None:
            return None
        return Point(x, y)


def _require_oracle_scale(ctx: FieldCtx):
    if ctx.p > ORACLE_MAX_P:
        raise OracleGuardError(
            f"exhaustive enumeration requires p <= {ORACLE_MAX_P}, got {ctx.p}"
        )


def oracle_order(curve: Curve) -> int:
    """#E(F_{p^2}) = p^2 + 1 + sum over x of chi(x^3 + Ax + B), with chi the
    quadratic character of F_{p^2} (0 at zero); small primes only."""
    ctx = curve.ctx
    _require_oracle_scale(ctx)
    count = ctx.p**2 + 1
    for a in range(ctx.p):
        for b in range(ctx.p):
            x = Fp2(ctx, a, b)
            rhs = x * x * x + curve.A * x + curve.B
            if rhs:
                count += 1 if rhs.is_square() else -1
    return count


def curve_points(curve: Curve) -> list[Point]:
    """Every point of E(F_{p^2}), infinity first, with y found by brute
    force over a table of squares; small primes only."""
    ctx = curve.ctx
    _require_oracle_scale(ctx)
    table: dict[tuple[int, int], list[Fp2]] = {}
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


def oracle_trace(curve: Curve) -> int:
    return curve.ctx.p**2 + 1 - oracle_order(curve)


def random_point(curve: Curve, seed: int) -> Point:
    """A deterministic pseudo-random point: hash-walk x until the cubic has a
    square value, then take the canonical root."""
    ctx = curve.ctx
    ctr = 0
    while True:
        xa = _hash_residue(ctx, seed, ctr, 0)
        xb = _hash_residue(ctx, seed, ctr, 1)
        x = Fp2(ctx, xa, xb)
        P = curve.lift_x(x)
        if P is not None:
            return P
        ctr += 1


def _hash_residue(ctx: FieldCtx, seed: int, ctr: int, part: int) -> int:
    data = f"point-walk:{ctx.p}:{ctx.delta}:{seed}:{ctr}:{part}".encode()
    return int.from_bytes(hashlib.sha256(data).digest(), "big") % ctx.p
