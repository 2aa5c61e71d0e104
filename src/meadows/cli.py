"""Command-line interface.

Subcommands: parse, eval, normalize, eq, simple, sumstar, check.  Exit
codes:

* 0 when the command (or decided property) holds;
* 1 when a decision comes out negative or a check fails;
* 2 on malformed input;
* 4 on an internal error (a defect, reported on one ``error:`` line).

No pass recurses on its input, so input of any depth gets one of these.

Expressions are taken as one argument, or from a file with @path;
expressions and points may start with "-".  They are read under the
interpreter's limit on the digits of an integer, and answers then print
integers of any length.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import checks
from .decide import distinguishing_witness, finite_support_sum, simple_fraction
from .mixed import PointTarget, emit, mixed_to_json_dict
from .normalform import Model, eval_term, normalize
from .rationals import eval_closed
from .terms import TermSyntaxError, classify, format_term, parse


def _read_expr(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return arg


def _read_inputs(args) -> None:
    """Parse the terms, and read the point, in place on args, in argument
    order."""
    for name in ("expr", "expr2", "closed"):
        if hasattr(args, name):
            setattr(args, name, parse(_read_expr(getattr(args, name))))
    if hasattr(args, "point"):  # past the limit: our message, not the advice to raise it
        digits = max(map(len, re.findall(r"\d+", args.point.replace("_", ""))), default=0)
        limit = sys.get_int_max_str_digits()
        if 0 < limit < digits:
            raise ValueError(f"point has a number of {digits} digits, over the "
                             f"limit of {limit}")
        args.point = Fraction(args.point)


def _model(tag: str) -> Model:
    return Model.RAT if tag == "q" else Model.COMPLEX


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _target_json(target) -> dict:
    if isinstance(target, PointTarget):
        return {
            "point": str(target.point),
            "value": str(target.value),
            "weight": str(target.weight),
        }
    return {
        "locus": [str(c) for c in target.locus.coeffs],
        "value": [str(c) for c in target.value.coeffs],
        "coefficient": [str(c) for c in target.coefficient.coeffs],
    }


def cmd_parse(args) -> int:
    term = args.expr
    if args.output == "json":
        _emit_json({"term": format_term(term), "class": classify(term).value})
    else:
        print(format_term(term))
        print(f"class: {classify(term).value}")
    return 0


def cmd_eval(args) -> int:
    value = eval_term(args.expr, args.point)
    if args.output == "json":
        _emit_json({"value": str(value)})
    else:
        print(value)
    return 0


def cmd_normalize(args) -> int:
    model = _model(args.model)
    nf = normalize(args.expr, model)
    mf = emit(nf, check=True)
    if args.output == "json":
        payload = mixed_to_json_dict(mf, model)
        if args.dump_nf:
            payload["nf"] = nf.to_json_dict()
            payload["targets"] = [_target_json(t) for t in mf.targets]
        _emit_json(payload)
        return 0
    print(format_term(mf.term))
    print(f"g = {mf.poly}")
    print(f"f = ({mf.frac_num})/({mf.frac_den})")
    print(f"witness n = {mf.witness_n}")
    if args.dump_nf:
        print(f"base = ({nf.num})/({nf.den})")
        if model is Model.RAT:
            for pt, v in nf.exceptions:
                print(f"exception: x = {pt} -> {v}")
        else:
            for locus, s in nf.corrections:
                print(f"correction: {locus} -> {s}")
        for target in mf.targets:
            if isinstance(target, PointTarget):
                print(
                    f"target: point {target.point}, value {target.value}, "
                    f"weight {target.weight}"
                )
            else:
                print(
                    f"target: locus {target.locus}, value {target.value}, "
                    f"coefficient {target.coefficient}"
                )
    return 0


def cmd_eq(args) -> int:
    model = _model(args.model)
    witness = distinguishing_witness(args.expr, args.expr2, model)
    equal = witness is None
    if args.output == "json":
        payload: dict = {"result": equal}
        if witness is not None:
            payload["witness"] = witness.to_json_dict()
        _emit_json(payload)
    elif equal:
        print("equal")
    else:
        print(f"different: {witness.to_json_dict()}")
    return 0 if equal else 1


def cmd_simple(args) -> int:
    nf = normalize(args.expr, Model.RAT)
    fraction = simple_fraction(nf)
    if fraction is not None:
        if args.output == "json":
            _emit_json({"result": True, "fraction": format_term(fraction)})
        else:
            print(format_term(fraction))
        return 0
    point, value = next((pt, v) for pt, v in nf.exceptions if v != 0)
    reason = f"nonzero value {value} at discontinuity {point}"
    if args.output == "json":
        _emit_json({"result": False, "reason": reason})
    else:
        print(reason)
    return 1


def cmd_sumstar(args) -> int:
    model = _model(args.model)
    expected = eval_closed(args.closed)  # raises ValueError if not closed
    result = finite_support_sum(args.expr, model)
    holds = result.value == expected
    if args.output == "json":
        _emit_json({"result": holds, "expected": str(expected),
                    "sum": result.to_json_dict()})
    else:
        print(f"sum* = {result.value} "
              f"(support {'finite' if result.support_finite else 'infinite'}), "
              f"target {expected}: "
              f"{'holds' if holds else 'fails'}")
    return 0 if holds else 1


def cmd_check(args) -> int:
    results = checks.run_all(seed=args.seed, quick=args.quick)
    if args.output == "json":
        _emit_json(
            [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
        )
    else:
        for result in results:
            print(result.line())
    return 0 if all(r.ok for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with "-" and names no option, neither
    exactly nor as an abbreviation of a long option, as a positional, so
    terms such as -x and --6 and points such as -1/2 need no "--" before
    them."""

    def _parse_optional(self, arg_string):
        name = arg_string.split("=", 1)[0]
        if arg_string.startswith("-") and not any(
                option == name or (name.startswith("--") and option.startswith(name))
                for option in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meadows",
        description="Exact normalization of univariate meadow terms "
                    "(total division, x/0 = 0) into mixed fractions, with "
                    "decision procedures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True):
        if model:
            p.add_argument("--model", choices=("q", "c"), default="q",
                           help="carrier meadow: rationals (q) or complex "
                                "numbers (c)")
        p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("parse", help="parse and reprint a term")
    p.add_argument("expr")
    add_common(p, model=False)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a term at a rational point")
    p.add_argument("expr")
    p.add_argument("point")
    add_common(p, model=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("normalize",
                       help="emit the mixed fraction of a term")
    p.add_argument("expr")
    add_common(p)
    p.add_argument("--dump-nf", action="store_true",
                   help="also print the normal form and emission targets")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("eq", help="decide semantic equality of two terms")
    p.add_argument("expr")
    p.add_argument("expr2")
    add_common(p)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("simple",
                       help="decide expressibility as a simple fraction "
                            "over the rationals")
    p.add_argument("expr")
    add_common(p, model=False)
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("sumstar",
                       help="decide whether the finite-support sum equals "
                            "a closed term")
    p.add_argument("expr")
    p.add_argument("closed")
    add_common(p)
    p.set_defaults(func=cmd_sumstar)

    p = sub.add_parser("check", help="run the randomized invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced iteration counts")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits()
    try:
        _read_inputs(args)  # under the interpreter's limit on digits
        sys.set_int_max_str_digits(0)  # answers print integers of any length
        return args.func(args)
    except TermSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect: report it, never as a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
