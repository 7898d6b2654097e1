"""The self-test battery behind ``qcurve selftest``: small-prime invariant
checks for every module plus the two 128-bit example verifications.

Each check raises on failure; the CLI turns that into a named fail record.
"""

from __future__ import annotations

import random

from . import cmtables
from .errors import DegenerateParameterError, DomainError, MapPoleError
from .families import Endo, build_family_curve, determine_r, eigenvalue, epsilon_p, gls_endo, group_orders, subfield_order
from .fields import (
    TRIAL_DIVISION_BOUND,
    FieldCtx,
    Fp2,
    _lucas_lehmer,
    _strong_base2,
    _strong_lucas,
    _trial_blocks,
    factorize_all,
    is_probable_prime,
    legendre,
)
from .glv import (
    COFACTOR2_D2,
    PRIME_ORDER,
    decompose,
    first_nonminimal,
    multiexp2,
    reduced_lattice_basis,
    subgroup_basis,
    subgroup_point,
)
from .models import (
    dik_contains,
    dik_point,
    dik_to_weierstrass,
    edwards_contains,
    edwards_point,
    ladder,
    psi_montgomery,
    to_dik,
    to_edwards,
    to_montgomery,
    to_xz,
)
from .weierstrass import INFINITY, Curve, Point, curve_points, oracle_order, oracle_trace, random_point

MERSENNE_127 = 2**127 - 1

EXAMPLE_D2 = dict(s=28106, trace=-272082382382015736940757543628153813996)
EXAMPLE_D5 = dict(s=7930, trace=160084314926568661653252069280514036151)
EXAMPLE_D3_S = 10400


def _ctx(p: int) -> FieldCtx:
    if p % 4 == 3:
        return FieldCtx(p, p - 1)
    d = 2
    while legendre(d, p) != -1:
        d += 1
    return FieldCtx(p, d)


def _assert(cond, msg):
    if not cond:
        raise AssertionError(msg)


def check_field_axioms():
    ctx = _ctx(13)
    elems = [Fp2(ctx, a, b) for a in range(13) for b in range(13)]
    for x in elems:
        if x:
            _assert(x ** (13**2 - 1) == 1, f"x^(p^2-1) != 1 for {x}")
            _assert(x * x.inverse() == 1, f"x * x^-1 != 1 for {x}")
        _assert(x.conjugate().conjugate() == x, "conjugation is not an involution")
    # The Mersenne modulus is proven by Lucas-Lehmer; Baillie-PSW must agree,
    # and 2^67 - 1 = 193707721 * 761838257287 must fail both.  The base-2
    # half alone passes 2^67 - 1, as it passes every composite n = 2^q - 1
    # with q prime (2^q = 1 mod n and q divides d = (n - 1)/2, so 2^d = 1),
    # so the Lucas half must refuse it.
    for q, prime in ((127, True), (67, False)):
        n = 2**q - 1
        verdicts = (is_probable_prime(n), _lucas_lehmer(n), _strong_base2(n) and _strong_lucas(n))
        _assert(verdicts == (prime,) * 3, f"primality verdicts {verdicts} on 2^{q} - 1")
    # Each half refuses a pseudoprime of the other, neither with a factor up
    # to 37: the strong base-2 pseudoprime 8321 = 53 * 157 and the strong
    # Lucas pseudoprime 5459 = 53 * 103.
    halves = (_strong_base2(8321), _strong_lucas(8321), _strong_base2(5459), _strong_lucas(5459))
    _assert(halves == (True, False, False, True), f"Baillie-PSW halves on 8321, 5459: {halves}")
    # The primes of trial division to the full bound: there are
    # pi(2^20) = 82025 of them, from 2 to 1048573.  The paper's orders stop
    # after the first block and never sieve this far, so this check is
    # where a selftest process builds the list and pays for it.
    primes = [q for _, block in _trial_blocks(TRIAL_DIVISION_BOUND) for q in block]
    _assert(
        (len(primes), primes[0], primes[-1]) == (82025, 2, 1048573),
        f"trial-division primes: {len(primes)} from {primes[0]} to {primes[-1]}",
    )
    rng = random.Random(1)
    big = FieldCtx(MERSENNE_127, -1)
    p, delta = big.p, big.delta
    for _ in range(32):
        a, b = rng.randrange(p), rng.randrange(p)
        c, d = rng.randrange(p), rng.randrange(p)
        x, y = Fp2(big, a, b), Fp2(big, c, d)
        prod = x * y
        schoolbook = ((a * c + delta * b * d) % p, (a * d + b * c) % p)
        _assert((prod.a, prod.b) == schoolbook, "product differs from the schoolbook formula")
        _assert(x.conjugate() * y.conjugate() == (x * y).conjugate(), "frobenius not a homomorphism")
        root = (x * x).sqrt()
        _assert(root is not None and root * root == x * x, "sqrt of a square failed")
    return "p=13 exhaustive, p=2^127-1 randomised"


def check_group_law():
    ctx = _ctx(5)
    curve = Curve(ctx.elem(1), ctx.elem(3))
    pts = curve_points(curve)
    rng = random.Random(2)
    for P in pts:
        _assert(curve.add(P, curve.neg(P)).is_infinity, "P + (-P) != 0")
    for _ in range(2000):
        P, Q, R = (pts[rng.randrange(len(pts))] for _ in range(3))
        _assert(
            curve.add(curve.add(P, Q), R) == curve.add(P, curve.add(Q, R)),
            "associativity failed",
        )
    # The [k]P chains run the scalar loop's generic body at p = 5 (delta = 2)
    # and its F_p(i) body at p = 7 (delta = -1).
    ctx7 = _ctx(7)
    curve7 = Curve(ctx7.elem(1), ctx7.elem(3))
    pts7 = curve_points(curve7)
    for E, points in ((curve, pts), (curve7, pts7)):
        n = oracle_order(E)
        for P in points:
            _assert(E.mul(n, P).is_infinity, "[#E]P != 0")
            chain = INFINITY
            for k in range(n + 2):
                _assert(E.mul(k, P) == chain, f"[{k}]P != P + ... + P")
                chain = E.add(chain, P)
    return f"{len(pts)} points over F_25, {len(pts7)} over F_49"


def check_twist_counts():
    for p in (5, 7, 11, 13):
        ctx = _ctx(p)
        curve = Curve(ctx.elem(2), ctx.elem(3, 1))
        twist, _ = curve.quadratic_twist()
        _assert(
            oracle_order(curve) + oracle_order(twist) == 2 * (p**2 + 1),
            f"order sum wrong at p={p}",
        )
        _assert(oracle_trace(twist) == -oracle_trace(curve), f"twist trace at p={p}")
        _assert(twist.j_invariant() == curve.j_invariant(), "twist changed j")
    return "p in {5,7,11,13}"


def _conj(P):
    return INFINITY if P.is_infinity else Point(P.x.conjugate(), P.y.conjugate())


def check_conjugate_composition():
    for d, p in ((2, 13), (3, 13), (5, 11), (7, 13)):
        ctx = _ctx(p)
        fam = build_family_curve(d, ctx, 1)
        eps = epsilon_p(d, p)
        for P in curve_points(fam.curve):
            # phi^sigma(phi(P)) = conj(phi(conj(phi(P)))), through phi alone.
            _assert(
                _conj(fam.phi(_conj(fam.phi(P)))) == fam.curve.mul(eps * d, P),
                f"conjugate composition != [eps*d] for d={d}",
            )
    return "all degrees"


def check_family_identities():
    for d, p in ((2, 11), (3, 11), (5, 11), (7, 11)):
        ctx = _ctx(p)
        for s in (1, 2):
            try:
                fam = build_family_curve(d, ctx, s)
            except DegenerateParameterError:
                continue
            endo = Endo(fam)
            eps = endo.eps
            r = determine_r(endo)
            n_curve, n_twist = group_orders(endo, r)
            _assert(n_curve == oracle_order(fam.curve), f"order formula d={d} s={s}")
            _assert(n_curve + n_twist == 2 * (p**2 + 1), "order sum")
            for P in curve_points(fam.curve):
                pP = endo(P)
                _assert(endo(pP) == fam.curve.mul(eps * d, P), f"psi^2 d={d} s={s}")
                _assert(fam.curve.mul(r, pP) == fam.curve.mul(p + eps, P), f"[r]psi d={d} s={s}")
    return "p=11, s in {1,2}"


def check_models():
    ctx = _ctx(7)
    for s in range(7):
        fam = build_family_curve(2, ctx, s)
        mont = to_montgomery(fam)
        if mont is None:
            continue
        endo = Endo(fam)
        pts = curve_points(fam.curve)
        n = len(pts)
        rng = random.Random(3)
        for P in pts:
            _assert(
                psi_montgomery(to_xz(mont, P), mont) == to_xz(mont, endo(P)),
                "x-line endomorphism mismatch",
            )
        for _ in range(24):
            P = pts[rng.randrange(n)]
            k = rng.randrange(2 * n)
            _assert(
                ladder(k, to_xz(mont, P), mont) == to_xz(mont, fam.curve.mul(k, P)),
                "ladder mismatch",
            )
        ed = to_edwards(fam)
        for P in pts:
            try:
                q = edwards_point(ed, P)
            except MapPoleError:
                continue
            _assert(edwards_contains(ed, q), "Edwards image off the model")
        _check_dik(fam)
        s3 = next(t for t in range(7) if _check_dik(build_family_curve(3, ctx, t)))
        return f"p=7 s={s}, tripling s={s3}"
    raise AssertionError("no Montgomery-representable parameter found")


def _check_dik(fam) -> bool:
    """Every affine point of fam mapped onto its Doche-Icart-Kohel model
    lands on the model and maps back; False when the model is on the twist."""
    dik = to_dik(fam)
    if dik is None:
        return False
    for P in curve_points(fam.curve):
        if not P.is_infinity:
            uv = dik_point(dik, P)
            _assert(dik_contains(dik, uv), "model image off the model")
            _assert(dik_to_weierstrass(dik, uv) == P, "model round trip mismatch")
    return True


def check_decompose_minimality():
    ctx = _ctx(13)
    fam = build_family_curve(2, ctx, 1)
    endo = Endo(fam)
    r = determine_r(endo)
    n_curve, _ = group_orders(endo, r)
    n = n_curve >> 2
    _assert(n_curve == 4 * n and n % 2, "unexpected structure for the fixture curve")
    # Equal to the coset minimum means inside its ||b2|| box too.
    m = first_nonminimal(reduced_lattice_basis(n, eigenvalue(endo, r, n)))
    _assert(m is None, f"not minimal at m={m}")
    return f"all {n} scalars"


def check_j_count():
    # p = 13 is excluded: there 13 | 65 degenerates the collision polynomial
    # and two of the exceptional j-invariants coincide mod p, so the clean
    # p / p-1 count does not hold.  The acceptance suite records that case.
    for p in (11, 17, 19):
        ctx = _ctx(p)
        js = {build_family_curve(2, ctx, s).curve.j_invariant() for s in range(p)}
        want = p if legendre(-7, p) == 1 else p - 1
        _assert(len(js) == want, f"j count {len(js)} != {want} at p={p}")
    return "p in {11,17,19}"


def check_cm_detection():
    for d, p in ((2, 13), (3, 13), (5, 11), (7, 13)):
        ctx = _ctx(p)
        for s in range(p):
            try:
                fam = build_family_curve(d, ctx, s)
            except DegenerateParameterError:
                continue
            expected = any(
                cmtables.fiber_matches(f, ctx, s) for f in cmtables.cm_fibers(d)
            )
            got = cmtables.detect_cm(fam) is not None
            _assert(got == expected, f"detection mismatch d={d} p={p} s={s}")
    return "exhaustive sweeps"


def check_cm_tables():
    count1, count2 = len(cmtables.TABLE1), len(cmtables.TABLE2)
    _assert((count1, count2) == (13, 29), "table row counts changed")
    checked = 0
    for d, fibers in cmtables.FIBERS.items():
        for fib in fibers:
            if not fib.constructible:
                continue
            hits = 0
            p = 11
            while hits < 3 and p < 400:
                p = _next_prime(p)
                ctx = _ctx(p)
                s = cmtables.fiber_parameter(fib, ctx)
                if s is None:
                    continue
                try:
                    fam = build_family_curve(d, ctx, s)
                except DomainError:
                    continue
                j = fam.curve.j_invariant()
                _assert(
                    j in cmtables.cm_j_candidates(fib.disc, ctx),
                    f"fiber j mismatch: d={d} disc={fib.disc} p={p}",
                )
                hits += 1
                checked += 1
            _assert(hits == 3, f"could not realise fiber {fib.disc} of d={d} at 3 primes")
    return f"{checked} fiber reductions"


def _next_prime(p: int) -> int:
    p += 2
    while not is_probable_prime(p):
        p += 2
    return p


def check_gls():
    ctx = _ctx(11)
    endo = gls_endo(ctx, 3, 5)
    twisted = gls_endo(ctx, 3, 5, twisted=True)
    for P in curve_points(twisted.curve):
        _assert(twisted(twisted(P)) == twisted.curve.neg(P), "(psi')^2 != -pi")
    fixed = sum(
        1
        for P in curve_points(endo.curve)
        if P.is_infinity or endo(P) == P
    )
    t0 = 11 + 1 - subfield_order(ctx, 3, 5)
    _assert(fixed == 11 + 1 - t0, "fixed subgroup order mismatch")
    _assert(t0 * t0 - 2 * 11 == oracle_trace(endo.curve), "trace relation t0^2 - 2p")
    return "p=11"


def check_example_degree2():
    ctx = FieldCtx(MERSENNE_127, -1)
    fam = build_family_curve(2, ctx, EXAMPLE_D2["s"])
    endo = Endo(fam)
    _assert(endo.eps == 1, "eps != 1")
    r = determine_r(endo, EXAMPLE_D2["trace"])
    factored = factorize_all(group_orders(endo, r))
    _assert(all(f.factors == [(2, 1)] for f in factored), "orders not twice an integer")
    _assert(all(f.rest_is_prime for f in factored), "halves not prime")
    _assert(all(f.rest.bit_length() == 253 for f in factored), "wrong bit sizes")
    n = factored[0].rest
    variant, basis = subgroup_basis(endo, r, factored[0])
    _assert(variant == COFACTOR2_D2 and basis.order == n, "not the cofactor-2 basis of the odd part")
    lam = basis.eigenvalue
    _assert(lam * lam % n == 2, "lambda^2 != 2")
    P = subgroup_point(fam.curve, 2, 0)
    _assert(endo(P) == fam.curve.mul(lam, P), "psi != [lambda]")
    rng = random.Random(4)
    for _ in range(20):
        dec = decompose(rng.randrange(n), basis)
        _assert(dec.norm < 2**127, "decomposition too long")
    m = rng.randrange(n)
    dec = decompose(m, basis)
    _assert(
        multiexp2(dec.a, dec.b, P, endo(P), fam.curve) == fam.curve.mul(m, P),
        "multiexp mismatch",
    )
    return "128-bit twist-secure instance"


def check_example_degree5():
    ctx = FieldCtx(MERSENNE_127, -1)
    fam = build_family_curve(5, ctx, EXAMPLE_D5["s"])
    endo = Endo(fam)
    r = determine_r(endo, EXAMPLE_D5["trace"])
    factored = factorize_all(group_orders(endo, r))
    _assert(all(f.is_prime for f in factored), "orders not prime")
    _assert(all(f.n.bit_length() == 254 for f in factored), "wrong bit sizes")
    n_curve = factored[0].n
    variant, basis = subgroup_basis(endo, r, factored[0])
    _assert(variant == PRIME_ORDER and basis.order == n_curve, "not the prime-order basis")
    lam = basis.eigenvalue
    _assert(lam * lam % n_curve == 5, "lambda^2 != 5")
    P = random_point(fam.curve, 0)
    _assert(endo(P) == fam.curve.mul(lam, P), "psi != [lambda]")
    return "prime-order curve and twist"


def check_example_degree3():
    ctx = FieldCtx(MERSENNE_127, -1)
    fam = build_family_curve(3, ctx, EXAMPLE_D3_S)
    _assert(fam.phi.codomain == fam.curve.conjugate(), "codomain != conjugate curve")
    endo = Endo(fam)
    _assert(endo.eps == -1, "eps != -1")
    for seed in range(5):
        P = random_point(fam.curve, seed)
        _assert(endo(endo(P)) == fam.curve.mul(-3, P), "psi^2 != [-3]")
    return "conjugate codomain bit-exact"


def all_checks():
    return [
        ("field_axioms", check_field_axioms),
        ("group_law", check_group_law),
        ("twist_counts", check_twist_counts),
        ("conjugate_composition", check_conjugate_composition),
        ("family_identities", check_family_identities),
        ("models", check_models),
        ("decompose_minimality", check_decompose_minimality),
        ("j_count", check_j_count),
        ("cm_detection", check_cm_detection),
        ("cm_tables", check_cm_tables),
        ("gls_case", check_gls),
        ("example_degree2", check_example_degree2),
        ("example_degree5", check_example_degree5),
        ("example_degree3", check_example_degree3),
    ]
