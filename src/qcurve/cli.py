"""Command-line front end: curve construction and inspection, scalar
decomposition, small-prime search, table dumps, and a self-test battery.

The front end parses arguments, builds records, times stages and maps
errors to exit codes.  The analysis is the library's (factoring in
fields.factorize, the subgroup and basis choice in glv.subgroup_basis, the
check point in glv.subgroup_point, the scalar loop's op counts in
weierstrass.loop_ops), and so are its refusals: a DomainError reaches the
error record unchanged, its class name giving the error code, except the
two that info reports in an ok record, a prime too large for the oracle
without --trace and a supersingular curve.

Output is one structured record per line, either key=value pairs or JSON
(--json); big integers are decimal strings and field elements print as
"a+b*i".  Exit codes: 0 ok, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import json
import re
import shlex
import sys
import time

from .cmtables import FIBERS, TABLE1, TABLE2, detect_cm
from .errors import CofactorError, DegenerateParameterError, DomainError, OracleGuardError, SupersingularError
from .families import Endo, build_family_curve, determine_r, group_orders
from .fields import FieldCtx, factorize, format_fp2, is_probable_prime
from .glv import bound_bitlength, decompose, first_nonminimal, multiexp2, subgroup_basis, subgroup_point
from .selftest import all_checks
from .weierstrass import ORACLE_MAX_P, loop_ops


# Any character that str.isspace() accepts: re's \s on a str pattern is the
# same Unicode whitespace test, run in one C-level scan.
_WHITESPACE = re.compile(r"\s")


def _emit(record: dict, json_mode: bool, stream=None):
    stream = stream or sys.stdout
    if json_mode:
        stream.write(json.dumps(record, separators=(",", ":")) + "\n")
    else:
        parts = []
        for k, v in record.items():
            text = str(v)
            if _WHITESPACE.search(text):
                text = shlex.quote(text)
            parts.append(f"{k}={text}")
        stream.write(" ".join(parts) + "\n")
    stream.flush()


def _error_code(exc: Exception) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def _disc_text(disc) -> str:
    """A CM discriminant (d0, f) as "-d0*f^2", or "none" for no discriminant."""
    return f"-{disc[0]}*{disc[1]}^2" if disc else "none"


def factor_string(n: int) -> str:
    """Cofactor factorisation for reports, e.g. "2*N(probable_prime)"."""
    return str(factorize(n))


@contextlib.contextmanager
def _timed(timings: dict, key: str):
    """Store the wall time of the block in timings[key], in milliseconds."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = round((time.perf_counter() - t0) * 1000, 3)


def _field(args, timings: dict) -> FieldCtx:
    """The checked field of --p and --delta, the first stage of info and
    decompose."""
    with _timed(timings, "t_field_ms"):
        return FieldCtx(args.p, args.delta)


def _analyze(args, ctx: FieldCtx, timings: dict, record: dict):
    """The construction pipeline of info and decompose on the field ctx:
    fills record, puts stage times in timings, and lets every refusal of
    the library through.  Returns (family, endo, basis)."""
    with _timed(timings, "t_build_ms"):
        fam = build_family_curve(args.d, ctx, args.s)
        endo = Endo(fam)
    record.update(
        p=ctx.p,
        delta=ctx.delta,
        d=args.d,
        s=fam.s,
        A=format_fp2(fam.curve.A),
        B=format_fp2(fam.curve.B),
        j=format_fp2(fam.curve.j_invariant()),
        eps=endo.eps,
        cm_fiber=_disc_text(detect_cm(fam)),
    )
    with _timed(timings, "t_r_ms"):
        r = determine_r(endo, args.trace)
    n_curve, n_twist = group_orders(endo, r)
    with _timed(timings, "t_factor_ms"):
        factored, twist_factored = factorize(n_curve), factorize(n_twist)
    record.update(
        trace=ctx.p**2 + 1 - n_curve,
        r=r,
        order=n_curve,
        twist_order=n_twist,
        order_factors=str(factored),
        twist_order_factors=str(twist_factored),
    )
    with _timed(timings, "t_basis_ms"):
        variant, basis = subgroup_basis(endo, r, factored)
    record.update(
        subgroup_order=basis.order,
        **{"lambda": basis.eigenvalue},
        basis_variant=variant or "reduced_lattice",
        b1=f"({basis.b1[0]},{basis.b1[1]})",
        b2=f"({basis.b2[0]},{basis.b2[1]})",
        basis_bitlength=basis.bitlength,
        bound_bitlength=bound_bitlength(variant, ctx.p, endo.eps, r, basis),
    )
    return fam, endo, basis


def cmd_info(args) -> int:
    timings = {}
    record = {"command": "info"}
    try:
        _analyze(args, _field(args, timings), timings, record)
    except OracleGuardError:  # no --trace, and p is too large for the oracle
        pass
    except SupersingularError:  # orders reported, no subgroup basis
        record["supersingular"] = "true"
    record["status"] = "ok"
    _emit(record | timings if args.timings else record, args.json)
    return 0


def cmd_decompose(args) -> int:
    timings = {}
    record = {"command": "decompose"}
    ctx = _field(args, timings)
    if args.exhaustive and ctx.p > ORACLE_MAX_P:
        raise OracleGuardError(f"--exhaustive requires p <= {ORACLE_MAX_P}")
    fam, endo, basis = _analyze(args, ctx, timings, record)
    n_sub = basis.order
    m = args.m % n_sub
    with _timed(timings, "t_decompose_ms"):
        dec = decompose(m, basis)
    record.update(m=m, a=dec.a, b=dec.b, norm=dec.norm, norm_bitlength=dec.bitlength)
    P = subgroup_point(fam.curve, record["order"] // n_sub, args.seed)
    with _timed(timings, "t_psi_ms"):
        psiP = endo(P)
    with _timed(timings, "t_multiexp_ms"):
        R = multiexp2(dec.a, dec.b, P, psiP, fam.curve)
    with _timed(timings, "t_mul_ms"):
        expected = fam.curve.mul(m, P)
    record["multiexp_check"] = "ok" if R == expected else "FAIL"
    timings["n_dbl_multiexp"], timings["n_add_multiexp"] = loop_ops(dec.a, dec.b)
    timings["n_dbl_mul"], timings["n_add_mul"] = loop_ops(m, 0)
    if args.exhaustive:
        m_bad = first_nonminimal(basis)
        record["exhaustive_minimal"] = f"all {n_sub} scalars minimal" if m_bad is None else f"FAIL at m={m_bad}"
    failed = any("FAIL" in str(v) for v in record.values())
    record["status"] = "error" if failed else "ok"
    _emit(record | timings if args.timings else record, args.json)
    return 1 if failed else 0


def cmd_search(args) -> int:
    for flag, cofactor in (("--cofactor", args.cofactor), ("--twist-cofactor", args.twist_cofactor)):
        if cofactor is not None and cofactor < 1:
            raise CofactorError(f"{flag} must be a positive integer, got {cofactor}")
    ctx = FieldCtx(args.p, args.delta)
    p = ctx.p
    emitted = 0
    for s in range(p):
        # Only an excluded s is skipped: a field without the family raises
        # here, and one above the oracle's reach in the first determine_r.
        try:
            fam = build_family_curve(args.d, ctx, s)
        except DegenerateParameterError:
            continue
        endo = Endo(fam)
        r = determine_r(endo)
        n_curve, n_twist = group_orders(endo, r)
        if not _cofactor_ok(n_curve, args.cofactor):
            continue
        if not _cofactor_ok(n_twist, args.twist_cofactor):
            continue
        record = {
            "command": "search",
            "p": p,
            "d": args.d,
            "s": s,
            "trace": p * p + 1 - n_curve,
            "r": r,
            "eps": endo.eps,
            "order": n_curve,
            "twist_order": n_twist,
            "order_factors": factor_string(n_curve),
            "twist_order_factors": factor_string(n_twist),
            "j": format_fp2(fam.curve.j_invariant()),
            "status": "ok",
        }
        record["cm_fiber"] = _disc_text(detect_cm(fam))
        _emit(record, args.json)
        emitted += 1
    _emit({"command": "search", "records": emitted, "status": "ok"}, args.json)
    return 0


def _cofactor_ok(order: int, cofactor: int | None) -> bool:
    if cofactor is None:
        return True
    return order % cofactor == 0 and is_probable_prime(order // cofactor)


def cmd_tables(args) -> int:
    for d, fibers in sorted(FIBERS.items()):
        for fib in fibers:
            record = {"command": "tables", "kind": "fiber", "d": d}
            if not fib.constructible:
                record["parameter"] = "infinity"
            elif fib.sign_free:
                record["parameter"] = f"+-({fib.coeff})*sqrt({fib.radicand})"
            else:
                record["parameter"] = f"s={fib.coeff}"
            record["disc"] = _disc_text(fib.disc)
            _emit(record, args.json)
    for disc, j in sorted(TABLE1.items()):
        _emit({"command": "tables", "kind": "class_number_1", "disc": _disc_text(disc), "j": j}, args.json)
    for disc, (pref, c0, c1, rad) in sorted(TABLE2.items()):
        j = f"({pref})*({c0}+-{c1}*sqrt({rad}))"
        _emit({"command": "tables", "kind": "class_number_2", "disc": _disc_text(disc), "j": j}, args.json)
    return 0


def cmd_selftest(args) -> int:
    failures = 0
    for name, fn in all_checks():
        t0 = time.perf_counter()
        try:
            detail = fn()
            record = {"command": "selftest", "check": name, "status": "pass"}
            if detail:
                record["detail"] = detail
        except Exception as exc:  # noqa: BLE001 - every failure becomes a record
            failures += 1
            record = {
                "command": "selftest",
                "check": name,
                "status": "fail",
                "error": _error_code(exc),
                "message": str(exc),
            }
        record["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        _emit(record, args.json)
    _emit(
        {"command": "selftest", "failures": failures, "status": "ok" if not failures else "error"},
        args.json,
    )
    return 0 if not failures else 1


def _add_common(sub, *, need_s=True):
    sub.add_argument("--p", type=int, required=True, help="prime modulus")
    sub.add_argument("--delta", type=int, required=True, help="nonsquare mod p (signed ok)")
    sub.add_argument("--d", type=int, required=True, choices=(2, 3, 5, 7), help="family degree")
    if need_s:
        sub.add_argument("--s", type=int, required=True, help="family parameter")
    sub.add_argument("--json", action="store_true", help="JSON records instead of key=value")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcurve",
        description="curves over F_{p^2} with fast endomorphisms and scalar decompositions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    info = subs.add_parser("info", help="construct a family curve and report its data")
    _add_common(info)
    info.add_argument("--trace", type=int, help="Frobenius trace over F_{p^2} (signed)")
    info.add_argument("--timings", action="store_true", help="append per-stage wall times (ms)")
    info.set_defaults(fn=cmd_info)

    dec = subs.add_parser("decompose", help="decompose a scalar for the endomorphism")
    _add_common(dec)
    dec.add_argument("--trace", type=int, help="Frobenius trace over F_{p^2} (signed)")
    dec.add_argument("--timings", action="store_true", help="append per-stage wall times (ms) and group-op counts")
    dec.add_argument("--m", type=int, required=True, help="scalar to decompose")
    dec.add_argument("--seed", type=int, default=0, help="seed for derived points")
    dec.add_argument("--exhaustive", action="store_true", help="verify minimality for all m")
    dec.set_defaults(fn=cmd_decompose)

    search = subs.add_parser("search", help="sweep s over F_p with the exhaustive oracle")
    _add_common(search, need_s=False)
    search.add_argument("--cofactor", type=int, help="require order = cofactor * prime")
    search.add_argument("--twist-cofactor", type=int, help="same for the twist order")
    search.set_defaults(fn=cmd_search)

    tables = subs.add_parser("tables", help="dump the CM fiber and j-invariant tables")
    tables.add_argument("--json", action="store_true")
    tables.set_defaults(fn=cmd_tables)

    st = subs.add_parser("selftest", help="run the invariant suite and example checks")
    st.add_argument("--json", action="store_true")
    st.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. | head); suppress the shutdown noise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except DomainError as exc:
        _emit(
            {
                "command": args.command,
                "status": "error",
                "error": _error_code(exc),
                "message": str(exc),
            },
            getattr(args, "json", False),
        )
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
