"""Acceptance suite: end-to-end checks at their stated tolerances, one
printed pass/fail line per check.

Each test runs a paper check of qcurve.selftest, the body that
``qcurve selftest`` runs on its smaller grid, on the acceptance grid.  All
assertions are exact integer/field arithmetic; the three 128-bit example
verifications carry explicit wall-clock budgets.
"""

import time
from contextlib import contextmanager

import pytest

from qcurve import selftest
from qcurve.glv import COFACTOR3_D3, COFACTOR4_D2, PRIME_ORDER


@contextmanager
def acceptance(name, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget"


# Every member of each degree at each prime up to 13 that carries the family.
VALID_PRIMES = {2: (5, 7, 11, 13), 3: (5, 7, 11, 13), 5: (7, 11), 7: (11, 13)}
EXHAUSTIVE = [(d, p, range(p)) for d, primes in VALID_PRIMES.items() for p in primes]


def test_degree2_example_reproduction():
    with acceptance("degree-2 example at p = 2^127 - 1", budget=60):
        selftest.check_example_degree2(decompositions=1000, multiexps=10, seed=12345)


def test_degree5_example_reproduction():
    with acceptance("degree-5 example at p = 2^127 - 1", budget=60):
        selftest.check_example_degree5()


def test_degree3_example_substitute():
    # No trace is published for this parameter, so the check is structural:
    # exact conjugate codomain plus the degree identity on sampled points.
    with acceptance("degree-3 example at p = 2^127 - 1", budget=30):
        selftest.check_example_degree3(seeds=100)


def test_endomorphism_identities_exhaustive():
    with acceptance("exhaustive endomorphism identities at p <= 13"):
        selftest.check_family_identities(EXHAUSTIVE)
        selftest.check_conjugate_composition(EXHAUSTIVE)


def test_decomposition_optimality():
    # For each degree, the first member at the largest valid prime whose
    # group fits a basis variant.
    with acceptance("decomposition optimality for all scalars"):
        selftest.check_decompose_minimality(
            ((2, 13, 1, COFACTOR4_D2), (3, 13, 4, COFACTOR3_D3), (5, 11, 2, PRIME_ORDER), (7, 11, 2, PRIME_ORDER))
        )


@pytest.mark.parametrize("p", [11, 13, 17, 19])
def test_j_invariant_distinctness(p):
    # The expected count comes from the characteristic-zero collision
    # analysis, which degenerates at p = 13: the exceptional j-invariants
    # 20^3 and -15^3 differ by 5^3 * 7 * 13 and so coincide mod 13, merging
    # the s = 0 class with an s/-s pair.  The enumerated count there is 11
    # for every valid delta; the expectation is kept as stated and the
    # p = 13 case is a known red.
    with acceptance(f"j-invariant distinctness at p = {p}"):
        selftest.check_j_count((p,))


def test_model_agreement_exhaustive():
    with acceptance("model agreement at p <= 7"):
        selftest.check_models((5, 7), exhaustive=True)


def test_cm_fiber_reductions():
    with acceptance("CM fiber tables at three primes per fiber"):
        selftest.check_cm_tables(start=7, bound=600)
        selftest.check_cm_detection(((2, 11), (2, 13), (3, 11), (3, 13), (5, 11), (7, 13)))


def test_gls_degenerate_case():
    with acceptance("degenerate subfield-curve case at p <= 13"):
        selftest.check_gls((5, 7, 11, 13), ((1, 1), (2, 3), (3, 5)))
