"""Command-line front end.

Subcommands mirror the library: ``root`` runs the root dichotomy,
``period`` checks the partial-sum period law for a witness, ``h90``
evaluates R(y, z) and its symmetry defect, ``table`` verifies or
regenerates the characteristic-2 reference rows, ``cyclotomic`` factors
a prime-index cyclotomic polynomial, ``tensor`` multiplies root sets,
and ``bigsearch`` hunts for a big primitive polynomial.

Exit codes: 0 on success, 2 when a mathematical precondition fails
(the diagnostic names it), 1 on internal errors.  All output is
deterministic for fixed arguments.  Every subcommand accepts --seed
(default 0) and --elem-format; ``root`` and ``period`` echo the seed,
and only ``root``, ``period`` and ``h90`` print field elements, so
only their output depends on the format.
"""

from __future__ import annotations

import argparse
import json
import sys

from .artin_schreier import (
    ArtinSchreierInstance,
    IrreducibilityReport,
    brute_force_roots,
    factor_artin_schreier,
    root_char2_table,
    root_coprime,
    root_general,
    root_np_p,
    root_p2mod3,
    root_via_prime_r,
)
from .bigpoly import (
    TABLE_ROWS,
    TENSOR_DEGREE_LIMIT,
    classify,
    cyclotomic_prime,
    factor_cyclotomic,
    find_big_primitive,
    ord_mod,
    regenerate_table,
    tensor_product,
    verify_table_entry,
)
from .errors import As90Error
from .fields import FieldCtx, FieldElem, make_ctx
from .hilbert90 import find_trace_one, r_form, r_symmetry_defect
from .periodicity import verify_period_theorem
from .polys import PrimePoly


def parse_elem(text: str, ctx: FieldCtx) -> FieldElem:
    """Element from integer (little-endian base-p digits), a comma
    list of coefficients, or a polynomial in t."""
    text = text.strip()
    try:
        return _parse_elem_inner(text, ctx)
    except ValueError as exc:
        raise As90Error(f"cannot read {text!r} as a field element: {exc}") from exc


def _parse_elem_inner(text: str, ctx: FieldCtx) -> FieldElem:
    if "t" in text or ";" in text:
        return ctx.elem(text)
    if "," in text:
        return ctx.elem([int(c) for c in text.split(",")])
    k = int(text)
    if not 0 <= k < ctx.order:
        raise As90Error(f"element index {k} outside [0, {ctx.order})")
    digits = []
    for _ in range(ctx.n):
        digits.append(k % ctx.p)
        k //= ctx.p
    return ctx.elem(digits)


def fmt_elem(e: FieldElem, how: str) -> str:
    if how == "coeffs":
        return ",".join(str(c) for c in e.coeffs)
    return str(e)


def _build_ctx(args) -> FieldCtx:
    return make_ctx(args.p, args.n, modulus=args.modulus or None, f=args.f)


def _emit(args, payload: dict, lines: list):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _add_field_args(sub):
    sub.add_argument("--p", type=int, required=True, help="characteristic")
    sub.add_argument("--n", type=int, required=True, help="degree over the prime field")
    sub.add_argument("--f", type=int, default=1,
                     help="subfield step: roots are sought for t^q-t-y with q=p^f")
    sub.add_argument("--modulus", help="defining polynomial (default: lex-first irreducible)")


def cmd_root(args) -> int:
    ctx = _build_ctx(args)
    inst = ArtinSchreierInstance(ctx, parse_elem(args.y, ctx))
    if args.method == "auto":
        result = factor_artin_schreier(inst)
    elif args.method == "brute":
        roots = brute_force_roots(inst)
        payload = {
            "field": ctx.describe(),
            "polynomial": inst.polynomial_str(),
            "method": "brute",
            "count": len(roots),
            "roots": [fmt_elem(r, args.elem_format) for r in roots],
            "seed": args.seed,
        }
        lines = [
            f"field: {ctx.describe()}",
            f"polynomial: {inst.polynomial_str()}",
            "method: brute",
            f"count: {len(roots)}",
            f"roots: {'; '.join(fmt_elem(r, args.elem_format) for r in roots)}",
            f"seed: {args.seed}",
        ]
        _emit(args, payload, lines)
        return 0
    elif args.method == "prime-r":
        if args.r is None:
            raise As90Error("--method prime-r needs --r")
        result = root_via_prime_r(inst, args.r)
    else:
        fn = {
            "coprime": root_coprime,
            "table": root_char2_table,
            "p2mod3": root_p2mod3,
            "np_p": root_np_p,
            "general": root_general,
        }[args.method]
        result = fn(inst)

    if isinstance(result, IrreducibilityReport):
        payload = {
            "field": ctx.describe(),
            "polynomial": inst.polynomial_str(),
            "status": result.status,
            "conclusion": result.conclusion,
            "seed": args.seed,
        }
        lines = [
            f"field: {ctx.describe()}",
            f"polynomial: {inst.polynomial_str()}",
            f"conclusion: {result.conclusion}",
            f"seed: {args.seed}",
        ]
        _emit(args, payload, lines)
        return 0

    payload = {
        "field": ctx.describe(),
        "polynomial": inst.polynomial_str(),
        "status": "root",
        "method": result.method,
        "base_root": fmt_elem(result.base_root, args.elem_format),
        "coset_size": result.q,
        "verified": result.verified,
        "notes": {k: str(v) for k, v in result.notes.items()},
        "seed": args.seed,
    }
    lines = [
        f"field: {ctx.describe()}",
        f"polynomial: {inst.polynomial_str()}",
        f"method: {result.method}",
        f"base root: {fmt_elem(result.base_root, args.elem_format)}",
        f"roots: coset of size {result.q} (base root + GF({result.q}))",
        f"verified: {'true' if result.verified else 'false'}",
        f"seed: {args.seed}",
    ]
    if args.all:
        roots = result.roots()
        payload["roots"] = [fmt_elem(r, args.elem_format) for r in roots]
        lines.append(
            "all roots: " + "; ".join(fmt_elem(r, args.elem_format) for r in roots)
        )
    _emit(args, payload, lines)
    return 0


def cmd_period(args) -> int:
    ctx = _build_ctx(args)
    if args.z is not None:
        z = parse_elem(args.z, ctx)
        provenance = "explicit"
    else:
        witness = find_trace_one(
            ctx, target_e=args.target_e, seed=args.seed, randomize=args.randomize
        )
        z, provenance = witness.z, witness.provenance
    report = verify_period_theorem(z)
    payload = report.to_dict()
    payload.update({
        "field": ctx.describe(),
        "z": fmt_elem(z, args.elem_format),
        "witness": provenance,
        "seed": args.seed,
    })
    lines = [
        f"field: {ctx.describe()}",
        f"z: {fmt_elem(z, args.elem_format)} ({provenance})",
        f"degree over base: {report.e}",
        f"p-part of extension degree: {report.n_p}",
        f"period: {report.period} (expected {report.expected_period})",
        f"interior terms nonzero: {'true' if report.interior_nonzero else 'false'}",
        f"pass: {'true' if report.passed else 'false'}",
        f"seed: {args.seed}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_h90(args) -> int:
    ctx = _build_ctx(args)
    y = parse_elem(args.y, ctx)
    z = parse_elem(args.z, ctx)
    cert = r_form(y, z)
    defect = r_symmetry_defect(y, z)
    payload = cert.to_dict()
    payload["symmetry_defect"] = fmt_elem(defect, args.elem_format)
    lines = [
        cert.serialize(),
        f"symmetry defect R(y,z)+R(z,y)+Tr(yz): {fmt_elem(defect, args.elem_format)}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_table(args) -> int:
    if args.regen:
        rows = regenerate_table(budget=args.budget)
        payload = {
            "rows": [
                {"n_2": n2, "symbol": sym, "min_poly": str(poly)}
                for n2, sym, poly in rows
            ]
        }
        lines = ["n_2 | symbol | m_z(t)"]
        for n2, sym, poly in rows:
            lines.append(f"{n2} | {sym} | {poly}")
        _emit(args, payload, lines)
        return 0
    checks = [verify_table_entry(n2) for n2 in sorted(TABLE_ROWS)]
    ok = all(c.passed for c in checks)
    payload = {"rows": [c.to_dict() for c in checks], "all_pass": ok}
    lines = ["n_2 | symbol | m_z(t) | checks"]
    for c in checks:
        sym = TABLE_ROWS[c.n_2][0]
        detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in c.checks.items())
        lines.append(f"{c.n_2} | {sym} | {c.candidate} | {detail}")
    lines.append(f"all rows pass: {'true' if ok else 'false'}")
    _emit(args, payload, lines)
    return 0 if ok else 2


def cmd_cyclotomic(args) -> int:
    e = ord_mod(args.r, args.p)
    factors = factor_cyclotomic(args.r, args.p)
    product = PrimePoly.one(args.p)
    for g in factors:
        product = product * g
    payload = {
        "r": args.r,
        "p": args.p,
        "e": e,
        "count": len(factors),
        "factors": [
            {"poly": str(g), "degree": g.degree, "class": classify(g).value}
            for g in factors
        ],
        "product_matches": product == cyclotomic_prime(args.r, args.p),
    }
    lines = [
        f"Phi_{args.r} over F_{args.p}: {len(factors)} irreducible factors "
        f"of degree {e} = ord_{args.r}({args.p})"
    ]
    for g in factors:
        lines.append(f"  {g}  [{classify(g).value}]")
    lines.append(f"product matches Phi_{args.r}: "
                 f"{'true' if payload['product_matches'] else 'false'}")
    _emit(args, payload, lines)
    return 0


def cmd_tensor(args) -> int:
    a = PrimePoly.parse(args.a, p=args.p, max_degree=TENSOR_DEGREE_LIMIT)
    b = PrimePoly.parse(args.b, p=args.p, max_degree=TENSOR_DEGREE_LIMIT)
    prod = tensor_product(a, b)
    payload = {
        "a": str(a), "b": str(b), "p": args.p,
        "product": str(prod),
        "degree": prod.degree,
        "class": classify(prod).value,
        "a_class": classify(a).value,
        "b_class": classify(b).value,
    }
    lines = [
        f"a: {a} [{payload['a_class']}]",
        f"b: {b} [{payload['b_class']}]",
        f"a (x) b: {prod} [{payload['class']}], degree {prod.degree}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_bigsearch(args) -> int:
    poly = find_big_primitive(args.e, p=args.p, budget=args.budget)
    payload = {
        "e": args.e, "p": args.p,
        "poly": str(poly),
        "class": classify(poly).value,
        "order": args.p**args.e - 1,
    }
    lines = [
        f"lex-first big primitive of degree {args.e} over F_{args.p}: {poly}",
        f"root order: {args.p**args.e - 1}",
    ]
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="as90",
        description="roots of t^q - t - y over finite fields, "
                    "partial-sum periods, and big polynomial tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--elem-format", choices=("human", "coeffs"),
                        default="human", help="element rendering")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for randomized choices (echoed in output)")

    sp = sub.add_parser("root", help="find the roots of t^q - t - y, or settle irreducibility")
    _add_field_args(sp)
    sp.add_argument("--y", required=True, help="right-hand side element")
    sp.add_argument("--method",
                    choices=("auto", "coprime", "table", "prime-r", "p2mod3",
                             "np_p", "general", "brute"),
                    default="auto")
    sp.add_argument("--r", type=int, help="prime r for --method prime-r")
    sp.add_argument("--all", action="store_true", help="list every root in the coset")
    common(sp)
    sp.set_defaults(func=cmd_root)

    sp = sub.add_parser("period", help="check the partial-sum period law for a witness")
    _add_field_args(sp)
    sp.add_argument("--z", help="explicit trace-one witness")
    sp.add_argument("--target-e", type=int, default=None,
                    help="requested witness degree over GF(q)")
    sp.add_argument("--randomize", action="store_true",
                    help="draw the witness at random instead of lex-first")
    common(sp)
    sp.set_defaults(func=cmd_period)

    sp = sub.add_parser("h90", help="evaluate R(y, z) and its symmetry defect")
    _add_field_args(sp)
    sp.add_argument("--y", required=True, help="trace-zero element")
    sp.add_argument("--z", required=True, help="trace-one element")
    common(sp)
    sp.set_defaults(func=cmd_h90)

    sp = sub.add_parser("table", help="verify or regenerate the characteristic-2 reference rows")
    sp.add_argument("--regen", action="store_true",
                    help="search the rows from scratch instead of verifying the built-ins")
    sp.add_argument("--budget", type=int, default=1 << 16,
                    help="candidate budget per degree for --regen")
    common(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("cyclotomic", help="factor the r-th cyclotomic polynomial mod p")
    sp.add_argument("--r", type=int, required=True, help="prime index")
    sp.add_argument("--p", type=int, required=True, help="characteristic")
    common(sp)
    sp.set_defaults(func=cmd_cyclotomic)

    sp = sub.add_parser("tensor", help="polynomial whose roots are the pairwise products")
    sp.add_argument("--p", type=int, required=True, help="characteristic")
    sp.add_argument("--a", required=True, help="first polynomial")
    sp.add_argument("--b", required=True, help="second polynomial")
    common(sp)
    sp.set_defaults(func=cmd_tensor)

    sp = sub.add_parser("bigsearch", help="lex-first big primitive polynomial of a given degree")
    sp.add_argument("--e", type=int, required=True, help="degree")
    sp.add_argument("--p", type=int, default=2, help="characteristic")
    sp.add_argument("--budget", type=int, default=1 << 16,
                    help="how many candidates to try before giving up")
    common(sp)
    sp.set_defaults(func=cmd_bigsearch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except As90Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
