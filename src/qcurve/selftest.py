"""The self-test battery behind ``qcurve selftest``: small-prime invariant
checks for every module plus the 128-bit example verifications.

Each check raises on failure; the CLI turns that into a named fail record.
The checks of the paper's claims live here once: each takes its grid as
arguments, the defaults are the battery's, and tests/test_acceptance.py
runs the same body on a larger grid.  A check's detail describes the
battery's grid.

    check                   battery (default)         acceptance test
    conjugate_composition   s=1, d=2,3,7 at 13,       every member of each
                            d=5 at 11                 degree at p <= 13
    family_identities       s in {1,2} at p=11        the same as above
    family_proof            every degree,             tests/test_generic.py
                            identically in s, delta   (the same proof)
    models                  the first Montgomery      every Montgomery member
                            member at p=7, every      at p=5,7, every (P, k)
                            (P, k) with k < n         with k < n
    decompose_minimality    d=2, s=1 at p=13, its     one member per degree,
                            cofactor-4 basis and      its cofactor basis and
                            the reduced lattice       the reduced lattice
    j_count                 p in {11,17,19}           one of p in {11,13,17,19}
    cm_detection            one prime per degree      six (d, p) pairs
    cm_tables               3 primes per fibre from   3 primes per fibre from
                            13, below 400             11, below 600
    gls_case                (3,5) at p=11             three curves at p <= 13
    example_degree2         100 seeds, 20 scalars,    100 seeds, 1000 scalars,
                            1 multiexp2               10 multiexp2
    example_degree5         100 seeds                 100 seeds
    example_degree3         5 seeds                   100 seeds
"""

from __future__ import annotations

import random

from . import cmtables
from .errors import DegenerateParameterError, DomainError, MapPoleError
from .families import _MIN_P, Endo, build_family_curve, determine_r, epsilon_p, gls_endo, group_orders, subfield_order
from .fields import (
    TRIAL_DIVISION_BOUND,
    FieldCtx,
    Fp2,
    _lucas_lehmer,
    _strong_base2,
    _strong_lucas,
    _trial_blocks,
    factorize,
    is_probable_prime,
    legendre,
)
from .generic import prove_families
from .glv import (
    COFACTOR2_D2,
    COFACTOR4_D2,
    PRIME_ORDER,
    bound_bitlength,
    ceil_log2,
    coset_minimum,
    decompose,
    is_reduced,
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
    """F_{p^2} with delta = -1 when p = 3 (mod 4), else the smallest nonsquare."""
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


def _members(cases):
    """The family members of each (d, p, parameters) in cases, less the
    parameters the family excludes; at least one for each case."""
    for d, p, params in cases:
        ctx = _ctx(p)
        found = 0
        for s in params:
            try:
                fam = build_family_curve(d, ctx, s)
            except DegenerateParameterError:
                continue
            found += 1
            yield fam
        _assert(found, f"no degree-{d} member at p={p}")


def check_conjugate_composition(cases=((2, 13, (1,)), (3, 13, (1,)), (5, 11, (1,)), (7, 13, (1,)))):
    """phi^sigma phi = [eps*d] on every point of each member of cases."""
    for fam in _members(cases):
        eps = epsilon_p(fam.d, fam.ctx.p)
        for P in curve_points(fam.curve):
            # phi^sigma(phi(P)) = conj(phi(conj(phi(P)))), through phi alone.
            _assert(
                _conj(fam.phi(_conj(fam.phi(P)))) == fam.curve.mul(eps * fam.d, P),
                f"conjugate composition != [eps*d] for d={fam.d}",
            )
    return "all degrees"


def check_family_identities(cases=((2, 11, (1, 2)), (3, 11, (1, 2)), (5, 11, (1, 2)), (7, 11, (1, 2)))):
    """The curve and twist orders against the oracle, and on every point
    psi^2 = [eps*d], [r]psi = [p + eps] and the characteristic equation
    psi^2 - [d*r]psi + [d*p] = 0, for each member of cases."""
    for fam in _members(cases):
        curve, d, p, s = fam.curve, fam.d, fam.ctx.p, fam.s
        endo = Endo(fam)
        eps = endo.eps
        r = determine_r(endo)
        n_curve, n_twist = group_orders(endo, r)
        _assert(n_curve == oracle_order(curve), f"order formula d={d} s={s}")
        _assert(n_twist == oracle_order(curve.quadratic_twist()[0]), f"twist order formula d={d} s={s}")
        _assert(n_curve + n_twist == 2 * (p**2 + 1), "order sum")
        for P in curve_points(curve):
            pP = endo(P)
            ppP = endo(pP)
            _assert(ppP == curve.mul(eps * d, P), f"psi^2 d={d} s={s}")
            _assert(curve.mul(r, pP) == curve.mul(p + eps, P), f"[r]psi d={d} s={s}")
            char = curve.add(curve.add(ppP, curve.mul(-d * r, pP)), curve.mul(d * p, P))
            _assert(char.is_infinity, f"characteristic equation d={d} s={s}")
    return "p=11, s in {1,2}"


def check_family_proof():
    """Each builder's kernel, codomain and map identities, proven over
    Q[s, delta][sqrt(delta)] (qcurve.generic), and every prime where the
    proof does not reduce refused by the families' guards (_MIN_P)."""
    for d, proof in prove_families().items():
        _assert(not proof.failed, f"degree-{d} identities fail: {', '.join(proof.failed)}")
        _assert(max(proof.bad_primes) <= _MIN_P[d], f"degree-{d} proof does not reduce at {proof.bad_primes}")
    return "d=2,3,5,7 identically in s and delta"


def check_models(primes=(7,), exhaustive=False):
    """At each prime, on the first degree-2 member with a Montgomery model
    (on each, when exhaustive): the x-line psi and the Edwards image on
    every point, the ladder on every P with every k < n, and the
    Doche-Icart-Kohel model; then the model of the first tripling-family
    member that has one."""
    found = []
    for p in primes:
        members = [
            (fam, mont)
            for fam in _members(((2, p, range(p)),))
            for mont in [to_montgomery(fam)]
            if mont is not None
        ]
        _assert(members, f"no Montgomery-representable parameter at p={p}")
        for fam, mont in members if exhaustive else members[:1]:
            endo = Endo(fam)
            pts = curve_points(fam.curve)
            n = len(pts)
            for P in pts:
                _assert(
                    psi_montgomery(to_xz(mont, P), mont) == to_xz(mont, endo(P)),
                    "x-line endomorphism mismatch",
                )
            for P in pts:
                for k in range(n):
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
        ctx = members[0][0].ctx
        s3 = next(t for t in range(p) if _check_dik(build_family_curve(3, ctx, t)))
        found.append(f"p={p} s={members[0][0].s}, tripling s={s3}")
    return "; ".join(found)


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


def check_decompose_minimality(cases=((2, 13, 1, COFACTOR4_D2),)):
    """For each (d, p, s, variant) of cases, whose subgroup of order N as
    glv.subgroup_basis chooses it must take that basis variant: decompose
    on every scalar m < N against the brute-force coset minimum, with its
    congruence and the bit-length bound, on the variant's basis and on the
    Gauss-reduced lattice basis of the same subgroup."""
    scalars = 0
    for d, p, s, want in cases:
        endo = Endo(build_family_curve(d, _ctx(p), s))
        r = determine_r(endo)
        variant, basis = subgroup_basis(endo, r, factorize(group_orders(endo, r)[0]))
        _assert(variant == want, f"unexpected structure for the fixture curve d={d} s={s}")
        n, lam = basis.order, basis.eigenvalue
        for kind, b in ((variant, basis), (None, reduced_lattice_basis(n, lam))):
            bound = bound_bitlength(kind, p, endo.eps, r, b)
            for m in range(n):
                dec = decompose(m, b)
                _assert((dec.a + dec.b * lam - m) % n == 0, f"not a decomposition of m={m}")
                # Equal to the coset minimum means inside its ||b2|| box too.
                _assert(dec.norm == coset_minimum(m, b), f"not minimal at m={m}")
                _assert(not dec.norm or ceil_log2(dec.norm) <= bound, f"over the {bound}-bit bound at m={m}")
        scalars += n
    return f"all {scalars} scalars"


def check_j_count(primes=(11, 17, 19)):
    # p = 13 is excluded: there 13 | 65 degenerates the collision polynomial
    # and two of the exceptional j-invariants coincide mod p, so the clean
    # p / p-1 count does not hold.  The acceptance suite records that case.
    for p in primes:
        ctx = _ctx(p)
        js = {build_family_curve(2, ctx, s).curve.j_invariant() for s in range(p)}
        want = p if legendre(-7, p) == 1 else p - 1
        _assert(len(js) == want, f"j count {len(js)} != {want} at p={p}")
    return "p in {11,17,19}"


def check_cm_detection(cases=((2, 13), (3, 13), (5, 11), (7, 13))):
    """detect_cm flags exactly the fibre parameters, over every member at
    each (d, p) of cases."""
    for fam in _members((d, p, range(p)) for d, p in cases):
        expected = any(cmtables.fiber_matches(f, fam.ctx, fam.s) for f in cmtables.cm_fibers(fam.d))
        got = cmtables.detect_cm(fam) is not None
        _assert(got == expected, f"detection mismatch d={fam.d} p={fam.ctx.p} s={fam.s}")
    return "exhaustive sweeps"


def check_cm_tables(start=11, bound=400):
    """The table sizes, and each constructible fibre realised at the first
    three primes past start (below bound) where it gives a curve: its
    j-invariant is a CM j-invariant of the fibre's discriminant, and
    detect_cm finds it."""
    count1, count2 = len(cmtables.TABLE1), len(cmtables.TABLE2)
    _assert((count1, count2) == (13, 29), "table row counts changed")
    checked = 0
    for d, fibers in cmtables.FIBERS.items():
        for fib in fibers:
            if not fib.constructible:
                continue
            hits = 0
            p = start
            while hits < 3:
                p = _next_prime(p)
                _assert(p < bound, f"could not realise fiber {fib.disc} of d={d} at 3 primes")
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
                _assert(cmtables.detect_cm(fam) is not None, f"fiber not detected: d={d} disc={fib.disc} p={p}")
                hits += 1
                checked += 1
    return f"{checked} fiber reductions"


def _next_prime(p: int) -> int:
    p += 2
    while not is_probable_prime(p):
        p += 2
    return p


def check_gls(primes=(11,), params=((3, 5),)):
    """For each nonsingular subfield curve y^2 = x^3 + a0 x + b0 of params
    at each prime: (psi')^2 = -pi on the twisted curve, the fixed subgroup
    of psi has order p + 1 - t0, and the trace over F_{p^2} is t0^2 - 2p."""
    for p in primes:
        ctx = _ctx(p)
        for a0, b0 in params:
            if (4 * a0**3 + 27 * b0**2) % p == 0:
                continue
            endo = gls_endo(ctx, a0, b0)
            twisted = gls_endo(ctx, a0, b0, twisted=True)
            for P in curve_points(twisted.curve):
                _assert(twisted(twisted(P)) == twisted.curve.neg(P), "(psi')^2 != -pi")
            fixed = sum(1 for P in curve_points(endo.curve) if P.is_infinity or endo(P) == P)
            t0 = p + 1 - subfield_order(ctx, a0, b0)
            _assert(fixed == p + 1 - t0, "fixed subgroup order mismatch")
            _assert(t0 * t0 - 2 * p == oracle_trace(endo.curve), "trace relation t0^2 - 2p")
    return "p=11"


def _check_example(d, example, variant, cofactor, bits, decompositions=0, multiexps=0, seed=0):
    """A paper instance at p = 2^127 - 1: d*r^2 = 2p + t, both orders
    p^2 + 1 -+ t, each the cofactor times a probable prime of the given bit
    length, [#E]P = O on 100 hashed points, the variant's reduced basis,
    lambda = (p + 1)/r with lambda^2 = d and psi = [lambda] on the subgroup,
    and decompositions short random scalars, the first multiexps of them
    also checked by multiexp2."""
    ctx = FieldCtx(MERSENNE_127, -1)
    p, t = ctx.p, example["trace"]
    fam = build_family_curve(d, ctx, example["s"])
    curve = fam.curve
    endo = Endo(fam)
    _assert(endo.eps == 1, "eps != 1")
    r = determine_r(endo, t)
    _assert(d * r * r == 2 * p + t, f"{d}r^2 != 2p + t")
    orders = group_orders(endo, r)
    _assert(orders == (p * p + 1 - t, p * p + 1 + t), "orders != p^2 + 1 -+ t")
    factored = [factorize(n) for n in orders]
    _assert(all(f.n == cofactor * f.rest and f.rest_is_prime for f in factored), f"orders not {cofactor} times a prime")
    _assert(all(f.rest.bit_length() == bits for f in factored), "wrong bit sizes")
    for s in range(100):
        _assert(curve.mul(orders[0], random_point(curve, s)).is_infinity, f"[#E]P != O at seed {s}")
    n = factored[0].rest
    got, basis = subgroup_basis(endo, r, factored[0])
    _assert(got == variant and basis.order == n, f"not the {variant} basis of the order-N subgroup")
    _assert(all((v[0] + basis.eigenvalue * v[1]) % n == 0 for v in (basis.b1, basis.b2)), "basis off the lattice")
    _assert(is_reduced(basis.b1, basis.b2), "basis not reduced")
    lam = basis.eigenvalue
    _assert(lam == (p + 1) * pow(r, -1, n) % n, "lambda != (p + 1)/r")
    _assert(lam * lam % n == d, f"lambda^2 != {d}")
    P = subgroup_point(curve, cofactor, 0)
    psi_P = endo(P)
    _assert(psi_P == curve.mul(lam, P), "psi != [lambda]")
    rng = random.Random(seed)
    for k in range(decompositions):
        m = rng.randrange(n)
        dec = decompose(m, basis)
        _assert(dec.norm < 2**127, "decomposition too long")
        if k < multiexps:
            _assert(multiexp2(dec.a, dec.b, P, psi_P, curve) == curve.mul(m, P), "multiexp mismatch")


def check_example_degree2(decompositions=20, multiexps=1, seed=4):
    _check_example(2, EXAMPLE_D2, COFACTOR2_D2, 2, 253, decompositions, multiexps, seed)
    return "128-bit twist-secure instance"


def check_example_degree5():
    _check_example(5, EXAMPLE_D5, PRIME_ORDER, 1, 254)
    return "prime-order curve and twist"


def check_example_degree3(seeds=5):
    ctx = FieldCtx(MERSENNE_127, -1)
    fam = build_family_curve(3, ctx, EXAMPLE_D3_S)
    _assert(fam.phi.codomain == fam.curve.conjugate(), "codomain != conjugate curve")
    endo = Endo(fam)
    _assert(endo.eps == -1, "eps != -1")
    for seed in range(seeds):
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
        ("family_proof", check_family_proof),
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
