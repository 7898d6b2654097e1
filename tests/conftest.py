import pytest
from hypothesis import HealthCheck, settings

from qcurve.fields import FieldCtx, Fp2, legendre

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

MERSENNE_127 = 2**127 - 1


def ctx_for(p: int) -> FieldCtx:
    """F_{p^2} with delta = -1 when p = 3 (mod 4), else the smallest nonsquare."""
    if p % 4 == 3:
        return FieldCtx(p, p - 1)
    d = 2
    while legendre(d, p) != -1:
        d += 1
    return FieldCtx(p, d)


def prime_factors(n: int) -> set[int]:
    """The distinct prime factors of n, by trial division."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# An independent schoolbook reference for the polynomial kernel of
# qcurve.isogeny: polynomials here are ascending tuples of Fp2 with no zero
# top coefficient, and every operation is plain Fp2 arithmetic.


def ref_trim(cs) -> tuple[Fp2, ...]:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    return ref_trim([c + d for c, d in zip(f, g)] + list(f[len(g):]))


def ref_sub(f, g):
    return ref_add(f, tuple(-c for c in g))


def ref_mul(f, g):
    """The schoolbook product: the x^k coefficient is the sum of f_i g_(k-i)."""
    if not f or not g:
        return ()
    return ref_trim(
        sum((f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)), f[0].ctx.zero())
        for k in range(len(f) + len(g) - 1)
    )


def ref_rem(f, m):
    """f modulo any nonzero m, by long division with m's leading coefficient
    inverted."""
    r = list(ref_trim(f))
    m = ref_trim(m)
    lead_inv = m[-1].inverse()
    while len(r) >= len(m):
        q = r[-1] * lead_inv
        shift = len(r) - len(m)
        r = list(ref_trim(r[i] - q * m[i - shift] if i >= shift else r[i] for i in range(len(r))))
    return tuple(r)


def to_kernel(f) -> tuple[list[int], list[int]]:
    """An ascending tuple of Fp2 as a kernel polynomial (re, im), trimmed."""
    f = ref_trim(f)
    return [c.a for c in f], [c.b for c in f]


def from_kernel(f, ctx: FieldCtx) -> tuple[Fp2, ...]:
    """A kernel polynomial (re, im) as an ascending tuple of Fp2."""
    return tuple(Fp2(ctx, a, b) for a, b in zip(*f))


# Square roots with a Legendre symbol taken before each root: the reference
# for the checked-exponentiation roots of qcurve.fields at p = 3 (mod 4).


def ref_sqrt_mod_prime(n: int, p: int) -> int | None:
    """n^((p+1)/4) mod p for a residue n, None for a nonresidue, decided
    first by Euler's criterion; p = 3 (mod 4) only."""
    assert p % 4 == 3
    n %= p
    if n == 0:
        return 0
    if legendre(n, p) != 1:
        return None
    return pow(n, (p + 1) // 4, p)


def ref_sqrt(x: Fp2) -> Fp2 | None:
    """The canonical square root of x (the smaller (a, b) pair of the two),
    or None, with the residuosity of the norm and of (a + m)/2 each tested
    by a Legendre symbol before its root is taken."""
    ctx, p = x.ctx, x.ctx.p
    if not x:
        return ctx.zero()
    if x.b == 0:
        u = ref_sqrt_mod_prime(x.a, p)
        if u is not None:
            root = Fp2(ctx, u, 0)
        else:
            root = Fp2(ctx, 0, ref_sqrt_mod_prime(x.a * pow(ctx.delta, -1, p), p))
    else:
        n = x.norm()
        if legendre(n, p) != 1:
            return None
        m = ref_sqrt_mod_prime(n, p)
        half = pow(2, -1, p)
        u2 = (x.a + m) * half % p
        if legendre(u2, p) != 1:
            u2 = (x.a - m) * half % p
        u = ref_sqrt_mod_prime(u2, p)
        root = Fp2(ctx, u, x.b * pow(2 * u, -1, p))
    neg = -root
    return root if (root.a, root.b) <= (neg.a, neg.b) else neg


@pytest.fixture(scope="session")
def ctx11():
    return ctx_for(11)


@pytest.fixture(scope="session")
def ctx13():
    return ctx_for(13)


@pytest.fixture(scope="session")
def big_ctx():
    return FieldCtx(MERSENNE_127, -1)
