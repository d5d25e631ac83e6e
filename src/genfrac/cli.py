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
import sys

from .corpus import corpus_json, make_pset
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
from .pset import ParameterSet
from .quadrature import NonFiniteSampleError, QuadratureRule, Rectangle
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


def _parse_pset_pair(text: str, rect: Rectangle) -> tuple[ParameterSet, ParameterSet]:
    """Expand --psets: two of left | right | mixed:p,q | mixed:p:q | a,b,p,q."""
    pieces = text.split(",")
    specs: list[ParameterSet] = []
    intervals = (rect.axis1, rect.axis2)
    i = 0
    while i < len(pieces):
        if len(specs) == 2:
            raise UsageError(f"--psets takes exactly two specs, got extra in {text!r}")
        a, b = intervals[len(specs)]
        piece = pieces[i]
        if piece in ("left", "right", "mixed"):
            specs.append(make_pset(piece, a, b))
            i += 1
        elif piece.startswith("mixed:"):
            if ":" in piece[len("mixed:") :]:
                specs.append(make_pset(piece, a, b))
                i += 1
            else:
                if i + 1 >= len(pieces):
                    raise UsageError(f"mixed p-set needs two weights in {text!r}")
                specs.append(make_pset(f"{piece}:{pieces[i + 1]}", a, b))
                i += 2
        else:
            if i + 3 >= len(pieces):
                raise UsageError(f"raw p-set needs four numbers in {text!r}")
            quad = ",".join(pieces[i : i + 4])
            specs.append(ParameterSet.from_text(quad))
            i += 4
    if len(specs) != 2:
        raise UsageError(f"--psets takes exactly two specs, got {len(specs)} in {text!r}")
    return specs[0], specs[1]


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
    pe.add_argument("--pset", required=True, help="a,b,p,q")
    pe.add_argument("--axis", type=int, choices=[1, 2])
    pe.add_argument("--rect", help="a1,b1,a2,b2 (with --axis)")
    pe.add_argument("--f", required=True, dest="f_expr")
    pe.add_argument("--t", type=float, required=True)
    pe.add_argument("--t2", type=float)
    pe.add_argument("--order", type=int, default=16)
    pe.add_argument("--panels", type=int, default=8)

    for name in ("verify", "converge"):
        pv = sub.add_parser(
            name,
            help="check an identity" if name == "verify" else "residual vs. node count",
        )
        pv.add_argument("identity", choices=["ibp", "green", "green-rl"])
        pv.add_argument("--alpha", type=float, required=True)
        pv.add_argument("--kernel", default=None)
        pv.add_argument("--psets", default=None, help="SPEC,SPEC")
        pv.add_argument("--rect", required=True, help="a1,b1,a2,b2")
        pv.add_argument("--f", required=True, dest="f_expr")
        pv.add_argument("--g", required=True, dest="g_expr")
        pv.add_argument("--eta", dest="eta_expr")
        pv.add_argument("--eta1", dest="eta1_expr")
        pv.add_argument("--eta2", dest="eta2_expr")
        pv.add_argument("--order", type=int, default=16)
        if name == "verify":
            pv.add_argument("--panels", type=int, default=8)
            pv.add_argument("--tol", type=float)
            pv.add_argument("--json", dest="json_path")
        else:
            pv.add_argument("--panel-seq", default="8,16,32", dest="panel_seq")
            pv.add_argument("--csv", dest="csv_path")

    pc = sub.add_parser("corpus", help="run the versioned acceptance corpus")
    pc.add_argument("--json", dest="json_path")
    pc.add_argument("--order", type=int, default=16)
    pc.add_argument("--panels", type=int, default=8)

    return parser


def _cmd_eval(args) -> int:
    pset = ParameterSet.from_text(args.pset)
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
                f"--pset interval [{pset.a:g}, {pset.b:g}] does not match rectangle "
                f"axis {args.axis} [{extent[0]:g}, {extent[1]:g}]"
            )
        f = parse_expression(args.f_expr, arity=2)
        preq = PartialRequest(axis=args.axis, base=req)
        op = {"K": partial_kop, "A": partial_aop, "B": partial_bop}[args.op]
        value = op(preq, f, args.t, args.t2)
    else:
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
        inputs["eta"] = parse_expression(args.eta_expr, arity=2)
    else:
        if args.eta1_expr is None or args.eta2_expr is None:
            missing = "--eta1" if args.eta1_expr is None else "--eta2"
            raise UsageError(f"the integration-by-parts check needs {missing}")
        inputs["eta1"] = parse_expression(args.eta1_expr, arity=2)
        inputs["eta2"] = parse_expression(args.eta2_expr, arity=2)
    if args.identity == "green-rl":
        if args.kernel not in (None, "rl"):
            raise UsageError("green-rl fixes the power kernel; drop --kernel")
        if args.psets is not None:
            p1, p2 = _parse_pset_pair(args.psets, rect)
            if (p1.p, p1.q, p2.p, p2.q) != (1.0, 0.0, 1.0, 0.0):
                raise UsageError("green-rl fixes left p-sets; drop --psets")
    else:
        if args.psets is None:
            raise UsageError("this identity needs --psets")
        p1, p2 = _parse_pset_pair(args.psets, rect)
        inputs["p1"] = p1
        inputs["p2"] = p2
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
