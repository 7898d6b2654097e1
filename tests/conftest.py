import pytest
from hypothesis import HealthCheck, settings

from qcurve.fields import FieldCtx, legendre

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


@pytest.fixture(scope="session")
def ctx11():
    return ctx_for(11)


@pytest.fixture(scope="session")
def ctx13():
    return ctx_for(13)


@pytest.fixture(scope="session")
def big_ctx():
    return FieldCtx(MERSENNE_127, -1)
