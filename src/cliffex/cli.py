"""Command-line front end.

Subcommands: appell (print one Appell polynomial plus its coefficient
table), fueter (print one transformed monomial), verify (run a named
identity suite, nonzero exit on failure), compare (JSON comparison of
the two series extensions), eval (numeric evaluation of the closed
form or of a truncated extension at a point).

Output is deterministic: exact values print as p/q, floats through
repr, and JSON key order is fixed by construction.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Tuple

from . import series, verify
from .appell import appell_polynomial, c_table
from .axial import evaluate, format_rational, text_form
from .clifford import Paravector
from .fueter import alpha_monomial, fueter_sce_monomial

SUITES = ("theorem1", "monogenic", "appell-property", "recurrence", "closed-form")


def _odd_dimension(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("n must be an integer")
    if value < 3 or value % 2 == 0:
        raise argparse.ArgumentTypeError("n must be odd (> 1)")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational like 2/3, got %r" % text)


def _rational_list(text: str) -> Tuple[Fraction, ...]:
    return tuple(_rational(part) for part in text.split(","))


def _fmt_float(value: float) -> str:
    return "%.15g" % value


def _paravector_text(mv) -> str:
    """Scalar-plus-vector multivector as one line of 15-digit floats."""
    parts = []
    scalar = float(mv.scalar_part())
    if scalar or mv.is_zero or not any(mv.vector_part()):
        parts.append(_fmt_float(scalar))
    for i, comp in enumerate(mv.vector_part()):
        if comp:
            parts.append("%s e%d" % (_fmt_float(float(comp)), i + 1))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def read_coefficient_file(path: str) -> series.SeriesSpec:
    """One rational per line, '#' starts a comment, blanks skipped.

    The index of a coefficient is its position among the non-comment
    lines, counting from zero.
    """
    values = []
    with open(path) as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                try:
                    values.append(Fraction(line))
                except (ValueError, ZeroDivisionError):
                    raise ValueError(
                        "%s line %d: expected a rational like 2/3, got %r" % (path, number, line)
                    )
    return series.from_coefficients(path, values)


def _resolve_series(args: argparse.Namespace) -> series.SeriesSpec:
    # eval has no --coeffs option
    coeff_file = getattr(args, "coeffs", None)
    if coeff_file:
        return read_coefficient_file(coeff_file)
    return series.get_series(args.series or "exp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffex",
        description="Appell polynomials, the Fueter-Sce transform, and their comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_appell = sub.add_parser("appell", help="print P_k^n and the c-coefficient table")
    p_appell.add_argument("--n", type=_odd_dimension, required=True)
    p_appell.add_argument("--k", type=int, required=True)
    p_appell.add_argument("--format", choices=("text", "json"), default="text")

    p_fueter = sub.add_parser("fueter", help="print the transformed monomial tau_n[z^k]")
    p_fueter.add_argument("--n", type=_odd_dimension, required=True)
    p_fueter.add_argument("--k", type=int, required=True)
    mode = p_fueter.add_mutually_exclusive_group()
    mode.add_argument("--raw", action="store_true", help="skip the alpha normalization")
    mode.add_argument("--normalized", action="store_true", help="normalize (default)")
    p_fueter.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run an identity suite; nonzero exit on failure")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--n", type=_odd_dimension, required=True)
    p_verify.add_argument("--kmax", type=int, default=None)
    p_verify.add_argument("--K", type=int, default=series.DEFAULT_K)
    p_verify.add_argument("--M", type=int, default=series.DEFAULT_K)
    p_verify.add_argument("--series", default="exp")
    p_verify.add_argument("--coeffs", help="coefficient file instead of a named series")
    p_verify.add_argument("--tolerance", type=float, default=series.DEFAULT_TOLERANCE)

    p_compare = sub.add_parser("compare", help="JSON comparison of tau and eta coefficients")
    p_compare.add_argument("--n", type=_odd_dimension, required=True)
    p_compare.add_argument("--series", default="exp")
    p_compare.add_argument("--coeffs")
    p_compare.add_argument("--K", type=int, default=series.DEFAULT_K)

    p_eval = sub.add_parser("eval", help="numeric evaluation")
    p_eval.add_argument("--n", type=_odd_dimension, required=True)
    what = p_eval.add_mutually_exclusive_group(required=True)
    what.add_argument("--closed-form", action="store_true")
    what.add_argument("--series")
    p_eval.add_argument("--gamma", type=_rational)
    p_eval.add_argument("--init", type=_rational_list, help="comma-separated a_0..a_(n-2)")
    p_eval.add_argument("--z", type=_rational)
    p_eval.add_argument("--point", type=_rational_list, help="comma-separated x0,x1,..,xn")
    p_eval.add_argument("--K", type=int, default=series.DEFAULT_K)
    p_eval.add_argument("--tolerance", type=float, default=series.DEFAULT_TOLERANCE)
    return parser


def cmd_appell(args: argparse.Namespace) -> int:
    poly = appell_polynomial(args.n, args.k)
    table = c_table(args.n, args.k)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "k": args.k,
                    "text": text_form(poly),
                    "polynomial": poly.to_json_dict(),
                    "c_table": [
                        {"k": j, "c": format_rational(c)} for j, c in enumerate(table)
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(text_form(poly))
    for j, c in enumerate(table):
        print("c[%d] = %s" % (j, format_rational(c)))
    return 0


def cmd_fueter(args: argparse.Namespace) -> int:
    normalized = not args.raw
    poly = fueter_sce_monomial(args.n, args.k, normalized=normalized)
    below = args.k < args.n - 1
    alpha = alpha_monomial(args.n, args.k) if normalized and not below else None
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "k": args.k,
                    "normalized": normalized,
                    "text": text_form(poly),
                    "polynomial": poly.to_json_dict(),
                    "alpha": None if alpha is None else format_rational(alpha),
                    "note": "k < n-1" if below else None,
                },
                indent=2,
            )
        )
        return 0
    print(text_form(poly))
    if below:
        print("note: k < n-1, tau_n[z^k] = 0")
    elif alpha is not None:
        print("alpha = %s" % format_rational(alpha))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    # the suites own their default kmax
    sizes = {} if args.kmax is None else {"kmax": args.kmax}
    if suite == "theorem1":
        report = verify.verify_theorem1(args.n, **sizes)
    elif suite == "monogenic":
        report = verify.verify_monogenic(args.n, **sizes)
    elif suite == "appell-property":
        report = verify.verify_appell_property(args.n, **sizes)
    elif suite == "recurrence":
        report = verify.verify_recurrence(args.n, _resolve_series(args), args.K)
    else:
        report = verify.verify_closed_form(args.n, args.M, args.tolerance)
    for line in report.lines:
        print(line)
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_compare(args: argparse.Namespace) -> int:
    report = series.compare_extensions(args.n, _resolve_series(args), args.K)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.closed_form:
        if args.gamma is None or args.init is None or args.z is None:
            raise ValueError("--closed-form needs --gamma, --init and --z")
        params = series.ClassParameters(args.n, args.gamma, args.init)
        value = series.closed_form_eval(params, args.z, tolerance=args.tolerance)
        print(format_rational(value) if isinstance(value, Fraction) else _fmt_float(value))
        return 0
    if args.point is None:
        raise ValueError("--series evaluation needs --point x0,x1,..,xn")
    if len(args.point) != args.n + 1:
        raise ValueError(
            "point needs n+1 = %d coordinates, got %d" % (args.n + 1, len(args.point))
        )
    spec = _resolve_series(args)
    extension = series.appell_extension(args.n, spec, args.K)
    x = Paravector(args.point[0], args.point[1:])
    print(_paravector_text(evaluate(extension.polynomial, x, mode="float")))
    return 0


_DISPATCH = {
    "appell": cmd_appell,
    "fueter": cmd_fueter,
    "verify": cmd_verify,
    "compare": cmd_compare,
    "eval": cmd_eval,
}


def _check_arguments(args: argparse.Namespace) -> None:
    for name in ("k", "kmax", "K", "M"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError("--%s must be nonnegative, got %d" % (name, value))
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("--tolerance must be a finite number > 0, got %r" % (tolerance,))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_arguments(args)
        return _DISPATCH[args.command](args)
    except (ValueError, series.ConvergenceError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OverflowError as exc:
        # float evaluation of an input beyond the double range; args[-1]
        # is the message also when the error carries an errno
        print("error: float evaluation overflowed: %s" % exc.args[-1], file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
