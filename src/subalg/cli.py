"""Command-line interface.

Subcommands cover characteristic polynomials, spectra, SAGBI bases,
semigroups, membership, linear conditions, derivations, classification,
and the built-in verification suite.  Exit codes: 0 success, 2 parse
error, 3 domain error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .classify import classify, construct_case
from .conditions import LinearFunctional, Subalgebra, kernel_subalgebra
from .derivations import derivation_space, ln_coefficients
from .errors import ParseError, SubalgError
from .fields import NumberField, QQ, format_scalar, scalar_to_json
from .parsing import parse_expr, parse_scalar
from .poly import Poly, format_poly
from .resultants import char_poly_multi, char_poly_pair
from .verify import run_verify

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


def _field_from_arg(modulus):
    """NumberField from a defining polynomial in t, e.g. 't^4+1'."""
    if not modulus:
        return QQ
    as_poly = parse_expr(modulus, env={"t": Poly.x(QQ)})
    coeffs = [Fraction(as_poly.coeff(k)) for k in range(as_poly.degree + 1)]
    return NumberField(coeffs, label=modulus)


def _parse(src, field):
    return parse_expr(src, field=field)


def _algebra(args, field):
    return Subalgebra.from_generators(
        [_parse(src, field) for src in args.generators])


def _emit(args, text_lines, payload):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _poly_json(p):
    return {"coeffs": [scalar_to_json(p.coeff(k))
                       for k in range(p.degree + 1)]}


def _spectrum_rows(points):
    rows = []
    for p in points:
        value = format_scalar(p.value) if p.exact else str(p.value)
        partner = "" if p.partner is None else format_scalar(p.partner)
        rows.append((value, p.kind, p.multiplicity, partner))
    return rows


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_charpoly(args):
    field = _field_from_arg(args.field)
    chi = char_poly_pair(_parse(args.p, field), _parse(args.q, field))
    _emit(args, [format_poly(chi)],
          {"charpoly": format_poly(chi), "poly": _poly_json(chi)})


def cmd_charpoly_multi(args):
    field = _field_from_arg(args.field)
    gens = [_parse(src, field) for src in args.generators]
    chi = char_poly_multi(gens, symmetrize=args.symmetrize)
    _emit(args, [format_poly(chi)],
          {"charpoly": format_poly(chi), "poly": _poly_json(chi),
           "symmetrized": args.symmetrize})


def cmd_spectrum(args):
    field = _field_from_arg(args.field)
    A = _algebra(args, field)
    mode = "exact" if args.exact else "hybrid"
    points = A.spectrum(mode=mode, tol=args.tol,
                        nf=field if field is not QQ else None)
    lines = [f"{len(points)} spectrum point(s)"]
    for value, kind, mult, partner in _spectrum_rows(points):
        extra = f"  paired with {partner}" if partner else ""
        lines.append(f"  {value}  [{kind}, multiplicity {mult}]{extra}")
    _emit(args, lines, {"points": [p.to_json() for p in points]})


def cmd_sagbi(args):
    field = _field_from_arg(args.field)
    basis = _algebra(args, field).sagbi_basis()
    lines = ["SAGBI basis:"]
    lines += [f"  {format_poly(e)}" for e in basis.elements]
    lines.append(f"type: {tuple(basis.semigroup.generators)}")
    lines.append(f"codimension: {basis.semigroup.genus}")
    _emit(args, lines, {
        "elements": [format_poly(e) for e in basis.elements],
        "degrees": sorted(basis.degrees),
        "type": list(basis.semigroup.generators),
        "codimension": basis.semigroup.genus,
    })


def cmd_semigroup(args):
    from .semigroup import DegreeSemigroup
    S = DegreeSemigroup(args.degrees)
    lines = [f"generators: {', '.join(map(str, S.generators))}",
             f"gaps: {', '.join(map(str, S.gaps)) or 'none'}",
             f"genus: {S.genus}", f"conductor: {S.conductor}"]
    _emit(args, lines, {"generators": list(S.generators),
                        "gaps": list(S.gaps), "genus": S.genus,
                        "conductor": S.conductor})


def cmd_member(args):
    from .sagbi import membership
    field = _field_from_arg(args.field)
    A = Subalgebra.from_generators(
        [_parse(src, field) for src in args.algebra])
    ok, certificate = membership(_parse(args.poly, field), A)
    lines = ["member" if ok else "not a member"]
    _emit(args, lines, {
        "member": ok,
        "certificate": [[d, scalar_to_json(c), list(rep)]
                        for d, c, rep in certificate],
    })


def cmd_conditions(args):
    field = _field_from_arg(args.field)
    A = _algebra(args, field)
    conds = A.conditions()
    lines = [f"{len(conds)} condition(s)"]
    lines += [f"  {c.to_json()}" for c in conds]
    _emit(args, lines, {"conditions": [c.to_json() for c in conds]})


def cmd_kernel(args):
    field = _field_from_arg(args.field)
    with open(args.conditions, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {args.conditions}: {exc}")
    try:
        conds = [LinearFunctional.from_json(
            item, field=field if field is not QQ else None) for item in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(
            f"malformed condition file {args.conditions}: {exc}")
    A = kernel_subalgebra(conds)
    basis = A.sagbi_basis()
    lines = ["kernel SAGBI basis:"]
    lines += [f"  {format_poly(e)}" for e in basis.elements]
    lines.append(f"codimension: {basis.semigroup.genus}")
    _emit(args, lines, {
        "elements": [format_poly(e) for e in basis.elements],
        "type": list(basis.semigroup.generators),
        "codimension": basis.semigroup.genus,
    })


def cmd_derivations(args):
    field = _field_from_arg(args.field)
    A = _algebra(args, field)
    alpha = parse_scalar(args.alpha, field=field)
    space = derivation_space(A, alpha)
    lines = [f"k_alpha = {space.k_alpha}",
             f"dimension = {space.dimension}"]
    for D in space.combo_basis:
        lines.append(f"  {D.to_json()}")
    _emit(args, lines, {
        "k_alpha": space.k_alpha,
        "dimension": space.dimension,
        "basis": [D.to_json() for D in space.combo_basis],
    })


def cmd_classify(args):
    field = _field_from_arg(args.field)
    A = _algebra(args, field)
    result = classify(A, nf=field if field is not QQ else None)
    lines = [f"case: {result.label}",
             f"codimension: {result.codimension}",
             f"spectrum size: {result.spectrum_size}",
             f"type: {result.type}"]
    if result.parameters:
        rendered = {k: format_scalar(v)
                    for k, v in result.parameters.items()}
        lines.append(f"parameters: {rendered}")
    lines.append("canonical basis:")
    lines += [f"  {format_poly(e)}" for e in result.canonical_basis]
    if result.symmetries:
        lines.append(f"symmetries: {result.symmetries}")
    _emit(args, lines, result.to_json())


def cmd_construct(args):
    field = _field_from_arg(args.field)
    params = {}
    for item in args.params:
        if "=" not in item:
            raise ParseError(f"expected NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        params[name.strip()] = parse_scalar(value, field=field)
    A = construct_case(args.label, params)
    basis = A.sagbi_basis()
    lines = ["SAGBI basis:"]
    lines += [f"  {format_poly(e)}" for e in basis.elements]
    lines.append(f"type: {tuple(basis.semigroup.generators)}")
    _emit(args, lines, {
        "label": args.label,
        "elements": [format_poly(e) for e in basis.elements],
        "type": list(basis.semigroup.generators),
    })


def cmd_ln_coeffs(args):
    table = ln_coefficients(args.n)
    ordered = dict(sorted(table.items(), reverse=True))
    lines = [f"{i}: {c}" for i, c in ordered.items()]
    _emit(args, lines, {"n": args.n,
                        "coefficients": {str(i): c
                                         for i, c in ordered.items()}})


def cmd_verify(args):
    rows = run_verify()
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    lines = []
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"{status}  {name.ljust(width)}{suffix}")
    lines.append(f"{len(rows) - failures}/{len(rows)} checks passed")
    _emit(args, lines, {"results": [
        {"name": n, "ok": ok, "detail": d} for n, ok, d in rows],
        "passed": len(rows) - failures, "total": len(rows)})
    return EXIT_VERIFY if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.add_argument("--field", metavar="MODULUS", default=None,
                   help="work over Q[t]/(MODULUS), e.g. 't^4+1'")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subalg",
        description="Subalgebras of finite codimension in K[x]: SAGBI "
                    "bases, spectra, conditions, derivations, and "
                    "classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly",
                       help="characteristic polynomial of two generators")
    p.add_argument("p")
    p.add_argument("q")
    _add_common(p)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("charpoly-multi",
                       help="characteristic polynomial of many generators")
    p.add_argument("generators", nargs="+")
    p.add_argument("--symmetrize", action="store_true",
                   help="gcd over all choices of distinguished generator")
    _add_common(p)
    p.set_defaults(func=cmd_charpoly_multi)

    p = sub.add_parser("spectrum", help="spectrum of a generated algebra")
    p.add_argument("generators", nargs="+")
    p.add_argument("--exact", action="store_true",
                   help="require exact spectrum points")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="numeric tolerance (default 1e-8)")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sagbi", help="SAGBI basis of a generated algebra")
    p.add_argument("generators", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_sagbi)

    p = sub.add_parser("semigroup", help="degree semigroup from generators")
    p.add_argument("degrees", type=int, nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("member", help="membership test")
    p.add_argument("poly")
    p.add_argument("--algebra", nargs="+", required=True,
                   metavar="GEN", help="algebra generators")
    _add_common(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("conditions",
                       help="linear conditions cutting out an algebra")
    p.add_argument("generators", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("kernel",
                       help="algebra satisfying conditions from a file")
    p.add_argument("--conditions", required=True, metavar="FILE",
                   help="JSON list of linear functionals")
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("derivations",
                       help="point derivations of a generated algebra")
    p.add_argument("generators", nargs="+")
    p.add_argument("--alpha", required=True, help="base point")
    _add_common(p)
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("classify",
                       help="classify a codimension <= 3 algebra")
    p.add_argument("generators", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("construct",
                       help="canonical algebra for a case label")
    p.add_argument("label")
    p.add_argument("params", nargs="*", metavar="NAME=VALUE")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("ln-coeffs",
                       help="coefficient row of the odd derivation family")
    p.add_argument("n", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_ln_coeffs)

    p = sub.add_parser("verify", help="run the built-in example suite")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        return EXIT_OK if code is None else code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SubalgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
