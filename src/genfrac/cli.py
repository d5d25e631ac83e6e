"""Command-line front end.

Subcommands: ``eval`` (single operator evaluation), ``verify`` (identity
check with JSON report), ``converge`` (residual vs. node count, CSV),
``corpus`` (the full versioned corpus as JSON).

Exit codes: 0 success, 1 usage or domain error, 2 numerical failure
(non-finite intermediate), 3 verify residual above --tol.  Diagnostics go
to stderr; reports go only to the output target.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .corpus import corpus_json
from .funcspec import parse_expression
from .identities import (
    convergence_study,
    reports_to_csv,
    verify_green,
    verify_green_rl_corollary,
    verify_ibp_2d,
)
from .ops1d import OperatorRequest, aop, bop, kop
from .ops2d import PartialRequest, partial_aop, partial_bop, partial_kop
from .pset import parse_psets, standard_left
from .quadrature import DEFAULT_RULE, NonFiniteSampleError, QuadratureRule, Rectangle
from .specfun import kernel_family_from_label

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _floats(text: str, n: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(s) for s in parts)
    except ValueError:
        raise UsageError(f"non-numeric value in {what}: {text!r}") from None


def _tolerance(text: str) -> float:
    """A ``--tol`` value: NaN would pass every gate, so only finite values >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _rule_from(args) -> QuadratureRule:
    return QuadratureRule(order_per_panel=args.order, panels=args.panels)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="genfrac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one operator at a point")
    pe.add_argument("--op", required=True, choices=["K", "A", "B"])
    pe.add_argument("--kernel", default="rl")
    pe.add_argument("--alpha", type=float, required=True)
    pe.add_argument("--pset", required=True, help="raw p-set a,b,p,q (grammar: genfrac.pset)")
    pe.add_argument("--axis", type=int, choices=[1, 2])
    pe.add_argument("--rect", help="a1,b1,a2,b2 (with --axis)")
    pe.add_argument("--f", required=True, dest="f_expr")
    pe.add_argument("--t", type=float, required=True)
    pe.add_argument("--t2", type=float)
    pe.add_argument("--order", type=int, default=DEFAULT_RULE.order_per_panel)
    pe.add_argument("--panels", type=int, default=DEFAULT_RULE.panels)

    for name in ("verify", "converge"):
        pv = sub.add_parser(
            name,
            help="check an identity" if name == "verify" else "residual vs. node count",
        )
        pv.add_argument("identity", choices=["ibp", "green", "green-rl"])
        pv.add_argument("--alpha", type=float, required=True)
        pv.add_argument("--kernel", default=None)
        pv.add_argument(
            "--psets", help="SPEC,SPEC; SPEC is left|right|mixed|mixed:p,q|a,b,p,q (genfrac.pset)"
        )
        pv.add_argument("--rect", required=True, help="a1,b1,a2,b2")
        pv.add_argument("--f", required=True, dest="f_expr")
        pv.add_argument("--g", required=True, dest="g_expr")
        pv.add_argument("--eta", dest="eta_expr")
        pv.add_argument("--eta1", dest="eta1_expr")
        pv.add_argument("--eta2", dest="eta2_expr")
        pv.add_argument("--order", type=int, default=DEFAULT_RULE.order_per_panel)
        if name == "verify":
            pv.add_argument("--panels", type=int, default=DEFAULT_RULE.panels)
            pv.add_argument("--tol", type=_tolerance)
            pv.add_argument("--json", dest="json_path")
        else:
            pv.add_argument("--panel-seq", default="8,16,32", dest="panel_seq")
            pv.add_argument("--csv", dest="csv_path")

    pc = sub.add_parser("corpus", help="run the versioned acceptance corpus")
    pc.add_argument("--json", dest="json_path")
    pc.add_argument("--order", type=int, default=DEFAULT_RULE.order_per_panel)
    pc.add_argument("--panels", type=int, default=DEFAULT_RULE.panels)

    return parser


def _cmd_eval(args) -> int:
    (pset,) = parse_psets(args.pset, None)
    family = kernel_family_from_label(args.kernel)
    rule = _rule_from(args)
    req = OperatorRequest(kind=args.op, alpha=args.alpha, pset=pset, kernel=family, rule=rule)
    if args.axis is not None:
        if args.rect is None:
            raise UsageError("--axis needs --rect")
        if args.t2 is None:
            raise UsageError("--axis needs --t2")
        rect = Rectangle(*_floats(args.rect, 4, "--rect"))
        extent = rect.axis1 if args.axis == 1 else rect.axis2
        if (pset.a, pset.b) != extent:
            raise UsageError(
                f"--pset interval [{pset.a}, {pset.b}] does not match rectangle "
                f"axis {args.axis} [{extent[0]}, {extent[1]}]"
            )
        for axis, flag, value in ((1, "--t", args.t), (2, "--t2", args.t2)):
            lo, hi = rect.axis1 if axis == 1 else rect.axis2
            if not lo <= value <= hi:
                raise UsageError(f"{flag} {value!r} outside rectangle axis {axis} [{lo}, {hi}]")
        f = parse_expression(args.f_expr, arity=2)
        preq = PartialRequest(axis=args.axis, base=req)
        op = {"K": partial_kop, "A": partial_aop, "B": partial_bop}[args.op]
        value = op(preq, f, args.t, args.t2)
    else:
        if args.rect is not None or args.t2 is not None:
            raise UsageError("--rect and --t2 need --axis")
        f = parse_expression(args.f_expr, arity=1)
        op = {"K": kop, "A": aop, "B": bop}[args.op]
        value = op(req, f, args.t)
    print(f"{value:.10f}")
    return 0


def _verify_inputs(args, need_eta: bool) -> dict:
    rect = Rectangle(*_floats(args.rect, 4, "--rect"))
    inputs = {
        "f": parse_expression(args.f_expr, arity=2),
        "g": parse_expression(args.g_expr, arity=2),
        "alpha": args.alpha,
        "rect": rect,
    }
    if need_eta:
        if args.eta_expr is None:
            raise UsageError("this identity needs --eta")
        if args.eta1_expr is not None or args.eta2_expr is not None:
            raise UsageError("this identity takes --eta, not --eta1 or --eta2")
        inputs["eta"] = parse_expression(args.eta_expr, arity=2)
    else:
        if args.eta_expr is not None:
            raise UsageError("the integration-by-parts check takes --eta1 and --eta2, not --eta")
        if args.eta1_expr is None or args.eta2_expr is None:
            missing = "--eta1" if args.eta1_expr is None else "--eta2"
            raise UsageError(f"the integration-by-parts check needs {missing}")
        inputs["eta1"] = parse_expression(args.eta1_expr, arity=2)
        inputs["eta2"] = parse_expression(args.eta2_expr, arity=2)
    if args.identity == "green-rl":
        if args.kernel not in (None, "rl"):
            raise UsageError("green-rl fixes the power kernel; drop --kernel")
        left = (standard_left(*rect.axis1), standard_left(*rect.axis2))
        if args.psets is not None and parse_psets(args.psets, rect.axis1, rect.axis2) != left:
            raise UsageError("green-rl fixes left p-sets on --rect; drop --psets")
    else:
        if args.psets is None:
            raise UsageError("this identity needs --psets")
        inputs["p1"], inputs["p2"] = parse_psets(args.psets, rect.axis1, rect.axis2)
        inputs["kernel"] = kernel_family_from_label(args.kernel or "rl")
    return inputs


_IDENTITY_KEY = {"ibp": "ibp2d", "green": "green", "green-rl": "green_rl_corollary"}


def _cmd_verify(args) -> int:
    inputs = _verify_inputs(args, need_eta=args.identity != "ibp")
    rule = _rule_from(args)
    fn = {
        "ibp": verify_ibp_2d,
        "green": verify_green,
        "green-rl": verify_green_rl_corollary,
    }[args.identity]
    report = fn(rule=rule, **inputs)
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.json_path)
    if args.tol is not None and report.rel_residual > args.tol:
        print(
            f"residual {report.rel_residual:.3e} exceeds tolerance {args.tol:.3e}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_converge(args) -> int:
    inputs = _verify_inputs(args, need_eta=args.identity != "ibp")
    try:
        seq = [int(s) for s in args.panel_seq.split(",")]
    except ValueError:
        raise UsageError(f"--panel-seq needs integers, got {args.panel_seq!r}") from None
    rules = [QuadratureRule(order_per_panel=args.order, panels=p) for p in seq]
    reports = convergence_study(_IDENTITY_KEY[args.identity], inputs, rules)
    _emit(reports_to_csv(reports), args.csv_path)
    return 0


def _cmd_corpus(args) -> int:
    rule = _rule_from(args)
    _emit(corpus_json(rule), args.json_path)
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "converge":
            return _cmd_converge(args)
        return _cmd_corpus(args)
    except UsageError as exc:
        print(f"genfrac: error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteSampleError as exc:
        print(f"genfrac: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"genfrac: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
