"""The family proof of qcurve.generic: every identity holds over the exact
ring, one changed builder constant, or one changed kernel identity or map
of qcurve.isogeny, breaks the identity it feeds, and the exclusions of
build_family_curve are the roots mod p of the degeneracy polynomials that
the proof returns."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qcurve
from qcurve import families, isogeny
from qcurve.errors import DegenerateParameterError, DomainError, KernelError, ResidueClassError
from qcurve.families import _MIN_P, FAMILY_DEGREES, build_family_curve
from qcurve.fields import FieldCtx, legendre
from qcurve.generic import prove_families, prove_family
from qcurve.isogeny import velu_quotient
from qcurve.weierstrass import Curve

from conftest import SMALL_MEMBERS, ctx_for

IDENTITIES = {
    2: ["two_torsion", "codomain", "normalized"],
    3: ["divides_psi", "cyclic", "codomain", "normalized"],
    5: ["divides_psi", "cyclic", "codomain", "normalized"],
    7: ["divides_psi", "cyclic", "codomain", "normalized"],
}


@pytest.fixture(scope="module")
def proofs():
    return prove_families()


@pytest.fixture
def fresh_maps():
    """Builds read each degree's maps from the proof ring once per process,
    and reduce them once per field: a test that changes a builder, the
    twisting factor or an identity of qcurve.isogeny forgets them before
    and after, so its builds run the changed code and no later build
    reads it."""
    caches = (families._proven_maps, families._member_tables)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_every_identity_holds(proofs):
    start = time.perf_counter()
    fresh = prove_families()
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"the proof took {elapsed:.2f} s"
    assert list(fresh) == list(FAMILY_DEGREES)
    for d, proof in fresh.items():
        assert list(proof.identities) == IDENTITIES[d]
        assert proof.failed == []
        # Only d divides a denominator of the builders' constants or of l^2.
        assert proof.bad_primes == (d,)
        assert proof.bad_primes == proofs[d].bad_primes


def _builder(change):
    """Wrap the real degree-d builder in change, so the proof runs the changed
    output of the code that runs."""

    def patch(monkeypatch, d):
        real = families._BUILDERS[d]
        monkeypatch.setitem(families._BUILDERS, d, lambda R, s: change(*real(R, s)))

    return patch


def _codomain_plus_one(monkeypatch, d):
    real = isogeny._quotient_codomain

    def shifted(A, B, d, F):
        a_new, b_new = real(A, B, d, F)
        return a_new, b_new + 1

    monkeypatch.setattr(isogeny, "_quotient_codomain", shifted)


def _closure_without_last_step(monkeypatch, d):
    def closure(R, A, B, F):
        """isogeny._doubling_closure with its last Horner step left out."""
        zero = R.zero()
        N = isogeny._rem([A * A, -8 * B, -2 * A, zero, R.one()], F)
        D = Dk = isogeny._rem([4 * B, 4 * A, zero, R.elem(4)], F)
        FND = isogeny._add_scaled(N, F[-2], D)
        for c in F[-3:0:-1]:
            Dk = isogeny._mulmod(Dk, D, F)
            FND = isogeny._add_scaled(isogeny._mulmod(N, FND, F), c, Dk)
        return FND

    monkeypatch.setattr(isogeny, "_doubling_closure", closure)


def _maps_lead_doubled(monkeypatch, d):
    real = isogeny._quotient_maps

    def doubled(R, A, B, d, F):
        num, den = real(R, A, B, d, F)
        return num[:-1] + [2 * num[-1]], den

    monkeypatch.setattr(isogeny, "_quotient_maps", doubled)


# One change per row, the identities that must then fail, and what the
# degree's smallest member (conftest.SMALL_MEMBERS) then raises through the
# checked velu_quotient and through build_family_curve.  First one changed
# builder constant per degree: d=2's A, d=3's kernel root, d=5's kernel
# constant term and d=7's B; a changed curve or kernel moves the quotient's
# codomain too.  Then a change to a kernel identity of qcurve.isogeny, the
# one copy that the proof and the build path share: Kohel's B' moved by 1
# breaks the codomain, in the proof and in every build; a doubling closure
# that drops its last Horner step breaks "cyclic" where there is one to drop
# (d = 5, 7), in the proof and in velu_quotient, and no build runs it; the
# quotient's x-map with its leading coefficient doubled is not normalized, in
# the proof and in every build, and velu_quotient, which checks the kernel
# and not the map it expands, returns it.
MUTATIONS = [
    pytest.param(2, _builder(lambda A, B, C, F: (A + 1, B, C, F)), ["two_torsion", "codomain"],
                 KernelError, DegenerateParameterError, id="d2"),
    pytest.param(3, _builder(lambda A, B, C, F: (A, B, C, (F[0] + 1,) + F[1:])), ["divides_psi", "cyclic", "codomain"],
                 KernelError, DegenerateParameterError, id="d3"),
    pytest.param(5, _builder(lambda A, B, C, F: (A, B, C, (F[0] + 1,) + F[1:])), ["divides_psi", "cyclic", "codomain"],
                 KernelError, DegenerateParameterError, id="d5"),
    pytest.param(7, _builder(lambda A, B, C, F: (A, B + 1, C, F)), ["divides_psi", "cyclic", "codomain"],
                 KernelError, DegenerateParameterError, id="d7"),
    *(pytest.param(d, _codomain_plus_one, ["codomain"], None, DegenerateParameterError, id=f"d{d}-codomain")
      for d in FAMILY_DEGREES),
    *(pytest.param(d, _closure_without_last_step, ["cyclic"], KernelError, None, id=f"d{d}-closure")
      for d in (5, 7)),
    *(pytest.param(d, _maps_lead_doubled, ["normalized"], None, KernelError, id=f"d{d}-maps")
      for d in FAMILY_DEGREES),
]


def _raised(call):
    try:
        call()
    except DomainError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("d,change,broken,velu_error,build_error", MUTATIONS)
def test_changed_builder_constant_fails(monkeypatch, fresh_maps, d, change, broken, velu_error, build_error):
    change(monkeypatch, d)
    assert prove_family(d).failed == broken
    _, p, s = next(member for member in SMALL_MEMBERS if member[0] == d)
    ctx = ctx_for(p)
    A, B, _, F = families._BUILDERS[d](ctx, s)
    assert _raised(lambda: velu_quotient(Curve(A, B), d, F)) == velu_error
    assert _raised(lambda: build_family_curve(d, ctx, s)) == build_error


@pytest.mark.parametrize("d", FAMILY_DEGREES)
def test_wrong_twisting_factor_fails_the_codomain(monkeypatch, fresh_maps, d):
    real = families._twisting_square
    monkeypatch.setattr(families, "_twisting_square", lambda R, k: 2 * real(R, k))
    assert prove_family(d).failed == ["codomain"]


def _fields(p):
    """delta = -1 and the least nonresidue at p = 3 (mod 4), the least
    nonresidue otherwise."""
    least = next(x for x in range(2, p) if legendre(x, p) == -1)
    return [FieldCtx(p, delta) for delta in ((p - 1, least) if p % 4 == 3 else (least,))]


PRIMES = [p for p in range(5, 65) if all(p % q for q in range(2, p))]


def _value(coefficients, s, p):
    """The polynomial in s with the given ascending coefficients, at s mod p."""
    return sum(c * s**i for i, c in enumerate(coefficients)) % p


def test_exclusions_are_the_degeneracy_roots(proofs):
    excluded = 0
    for p in PRIMES:
        for ctx in _fields(p):
            for d in FAMILY_DEGREES:
                a, b = proofs[d].degenerate
                raised, refused = set(), False
                for s in range(p):
                    try:
                        build_family_curve(d, ctx, s)
                    except DegenerateParameterError:
                        raised.add(s)
                    except ResidueClassError:
                        refused = True
                        break
                if refused:
                    continue
                assert p not in proofs[d].bad_primes
                a, b = a.mod(p, ctx.delta), b.mod(p, ctx.delta)
                roots = {s for s in range(p) if not (_value(a, s, p) or _value(b, s, p))}
                assert raised == roots, (d, p, ctx.delta)
                excluded += len(raised)
    assert excluded


def test_bad_primes_are_refused(proofs):
    for d, proof in proofs.items():
        for q in proof.bad_primes:
            assert q <= _MIN_P[d]
            if q > 3:
                for ctx in _fields(q):
                    with pytest.raises(ResidueClassError):
                        build_family_curve(d, ctx, 1)


# qcurve.families reads its maps from qcurve.generic, which runs the
# builders of qcurve.families: importing either module first, in a fresh
# interpreter, must build members of every odd degree that reads Kohel's map.
BUILD_BOTH_WAYS = """
import sys
import qcurve.{first}
from qcurve.families import build_family_curve
from qcurve.fields import FieldCtx
ctx = FieldCtx(2**127 - 1, -1)
print(build_family_curve(5, ctx, 7930).phi.num[0][-1], build_family_curve(7, ctx, 1).phi.num[0][-1])
"""


def test_builds_whichever_module_is_imported_first():
    env = dict(os.environ, PYTHONPATH=str(Path(qcurve.__file__).resolve().parents[1]))
    outputs = []
    for first in ("families", "generic"):
        code = BUILD_BOTH_WAYS.format(first=first)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    ctx = FieldCtx(2**127 - 1, -1)
    here = build_family_curve(5, ctx, 7930).phi.num[0][-1], build_family_curve(7, ctx, 1).phi.num[0][-1]
    assert outputs == [f"{here[0]} {here[1]}\n"] * 2
