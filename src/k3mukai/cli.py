"""Command-line front end: exact numbers, reductions and identity checks.

Every command prints a single JSON document (rationals as exact "p/q"
strings, keys sorted, byte-stable across runs) or, with --format plain,
sorted key=value lines.  Exit codes: 0 on success, 1 when a verification
fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from fractions import Fraction

from .lattice import (
    fingerprint,
    gram_rank,
    mukai_vector_from_json,
    mukai_vector_to_json,
    nondegenerate_reduction,
    span_dim,
)
from .reduction import (
    KClassInvariants,
    ModuliData,
    dim2_evaluate,
    moduli_data_from_json,
    reduce_to_hilbert,
    reduction_target_to_json,
    segre_cross_check,
)
from .segre_verlinde import (
    SegreParams,
    VerlindeParams,
    check_correspondence,
    segre_number,
    verlinde_number,
)
from .series import _parse_rational

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
# per grid and per sweep; sizes come from the range endpoints, before any expansion
MAX_GRID_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    # treat any "-<digit>..." token as a value, so grids like -3:3 and
    # rationals like -1/2 can be passed without the --flag=value form
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):  # one line, like every other input error
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")

    def _get_values(self, action, arg_strings):
        # Python 3.11 drops a lone "--" value ("--alpha=--") and would hand
        # the command an empty list instead of a parsed value
        if action.nargs is None and arg_strings == ["--"]:
            name = "/".join(action.option_strings) or action.dest
            self.error(f"argument {name}: expected one argument")
        return super()._get_values(action, arg_strings)


def _parse_fraction(text: str) -> Fraction:
    try:
        return _parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_alpha(text: str) -> KClassInvariants:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "alpha must be four comma-separated rationals: rank,c1sq,c1L,v2"
        )
    rank, c1sq, c1L, v2 = (_parse_fraction(p) for p in parts)
    return KClassInvariants(rank=rank, c1sq=c1sq, c1L=c1L, v2=v2)


def _parse_grid(text: str) -> list[int]:
    """Integer grids: "3", "1,2,5", "lo:hi" (inclusive) or "lo:hi:step"."""
    values: list[int] = []
    for chunk in text.split(","):
        if ":" in chunk:
            pieces = chunk.split(":")
            if len(pieces) == 2:
                lo, hi, step = int(pieces[0]), int(pieces[1]), 1
            elif len(pieces) == 3:
                lo, hi, step = int(pieces[0]), int(pieces[1]), int(pieces[2])
            else:
                raise argparse.ArgumentTypeError(f"bad grid component: {chunk!r}")
            if step <= 0:
                raise argparse.ArgumentTypeError("grid step must be positive")
        elif chunk:
            lo = hi = int(chunk)
            step = 1
        else:
            continue
        if len(values) + max(0, (hi - lo) // step + 1) > MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(f"a grid may have at most {MAX_GRID_POINTS} points")
        values.extend(range(lo, hi + 1, step))
    return values


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "plain":
        for key in sorted(doc):
            print(f"{key}={json.dumps(doc[key], sort_keys=True)}")
    else:
        print(json.dumps(doc, sort_keys=True))


def _load_input(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError as exc:
            raise ValueError(f"{path}: the input is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the input must be a JSON object")
    return doc


# -- single-point commands ----------------------------------------------------


def _cmd_segre(args) -> int:
    params = SegreParams(rho=args.rho, s=args.s, c2=args.c2, c1sq=args.c1sq, n=args.n)
    value = segre_number(params)
    _emit({"value": str(value)}, args.format)
    return EXIT_OK


def _cmd_verlinde(args) -> int:
    params = VerlindeParams(rho=args.rho, r=args.r, chiL=args.chiL, n=args.n)
    value = verlinde_number(params)
    _emit({"value": str(value)}, args.format)
    return EXIT_OK


def _report_doc(report) -> dict:
    return {
        "rho": report.rho,
        "r": report.r,
        "order": report.order,
        "g_identity": report.g_identity_holds,
        "f_identity": report.f_identity_holds,
        "first_discrepant_order": report.first_discrepant_order,
    }


def _cmd_check_sv(args) -> int:
    report = check_correspondence(args.rho, args.r, args.order)
    _emit(_report_doc(report), args.format)
    ok = report.g_identity_holds and report.f_identity_holds
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _moduli_from_args(args, n: int | None = None) -> ModuliData:
    if args.input:
        return moduli_data_from_json(_load_input(args.input))
    missing = [name for name in ("rho", "alpha") if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join('--' + m for m in missing)}")
    return ModuliData(
        rho=args.rho,
        n=n if n is not None else args.n,
        alpha=args.alpha,
        Lsq=args.Lsq,
        u=args.u,
    )


def _cmd_reduce(args) -> int:
    target = reduce_to_hilbert(_moduli_from_args(args))
    _emit(reduction_target_to_json(target), args.format)
    return EXIT_OK


def _cmd_dim2(args) -> int:
    value = dim2_evaluate(_moduli_from_args(args, n=1))
    _emit({"value": str(value)}, args.format)
    return EXIT_OK


def _vectors_from_input(path: str):
    obj = _load_input(path)
    xs = obj.get("xs", [])
    if not isinstance(xs, list):
        raise ValueError("xs must be a list of Mukai vector objects")
    if "v" not in obj:
        raise ValueError("the input is missing the key 'v'")
    return mukai_vector_from_json(obj["v"]), [mukai_vector_from_json(item) for item in xs]


def _cmd_fingerprint(args) -> int:
    v, xs = _vectors_from_input(args.input)
    fp = fingerprint(v, xs)
    doc = {"fingerprint": [[str(x) for x in row] for row in fp.matrix]}
    _emit(doc, args.format)
    return EXIT_OK


def _cmd_span_reduce(args) -> int:
    v, xs = _vectors_from_input(args.input)
    ys = nondegenerate_reduction(v, xs)
    fp = fingerprint(v, ys)  # the Gram matrix of [v, *ys]
    doc = {
        "ys": [mukai_vector_to_json(y) for y in ys],
        "fingerprint": [[str(x) for x in row] for row in fp.matrix],
        "gram_rank": gram_rank(fp.matrix),
        "span_dim": span_dim([v, *ys]),
    }
    _emit(doc, args.format)
    return EXIT_OK


# -- sweeps ---------------------------------------------------------------------


def _sweep_point_check_sv(point) -> dict:
    rho, r, order = point
    report = check_correspondence(rho, r, order)
    doc = _report_doc(report)
    doc["ok"] = report.g_identity_holds and report.f_identity_holds
    return doc


def _sweep_point_cross_check(point) -> dict:
    rho, s, c2, c1sq = point
    ok = segre_cross_check(rho, s, c2, c1sq)
    return {"rho": rho, "s": s, "c2": c2, "c1sq": c1sq, "ok": ok}


def _cmd_sweep(args) -> int:
    if args.target == "check-sv":
        evaluate, grids = _sweep_point_check_sv, (args.rho, args.r, [args.order])
    else:
        evaluate, grids = _sweep_point_cross_check, (args.rho, args.s, args.c2, args.c1sq)
    if math.prod(map(len, grids)) > MAX_GRID_POINTS:
        raise ValueError(f"a sweep may have at most {MAX_GRID_POINTS} points")
    results = [evaluate(p) for p in itertools.product(*grids)]
    failures = [r for r in results if not r["ok"]]
    doc = {
        "command": args.target,
        "total": len(results),
        "failures": failures,
        "all_ok": not failures,
        "points": results,
    }
    _emit(doc, args.format)
    return EXIT_OK if not failures else EXIT_VERIFICATION_FAILED


# -- parser ------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one shared parser, built on the first call; do not change it."""
    parser = _Parser(
        prog="k3mukai",
        description="Exact Segre and Verlinde numbers for sheaf moduli on K3 surfaces",
    )
    parser.add_argument(
        "--format", choices=("json", "plain"), default="json",
        help="output format (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("segre", help="one Segre number")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--s", type=_parse_fraction, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--c1sq", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_segre)

    p = sub.add_parser("verlinde", help="one Verlinde number")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--chiL", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verlinde)

    p = sub.add_parser("check-sv", help="verify the Segre-Verlinde correspondence")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(func=_cmd_check_sv)

    p = sub.add_parser("reduce", help="reduce moduli data to Hilbert-scheme data")
    p.add_argument("--rho", type=int)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alpha", type=_parse_alpha, help="rank,c1sq,c1L,v2")
    p.add_argument("--Lsq", type=_parse_fraction, default=Fraction(0))
    p.add_argument("--u", type=_parse_fraction, default=Fraction(0))
    p.add_argument("--input", help="JSON file with the moduli data")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("dim2", help="closed-form evaluation at n = 1")
    p.add_argument("--rho", type=int)
    p.add_argument("--alpha", type=_parse_alpha, help="rank,c1sq,c1L,v2")
    p.add_argument("--Lsq", type=_parse_fraction, default=Fraction(0))
    p.add_argument("--u", type=_parse_fraction, default=Fraction(0))
    p.add_argument("--input", help="JSON file with the moduli data")
    p.set_defaults(func=_cmd_dim2)

    p = sub.add_parser("fingerprint", help="pairing matrix of v and classes x_i")
    p.add_argument("--input", required=True, help='JSON file {"v": ..., "xs": [...]}')
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser(
        "span-reduce", help="replace classes so the span becomes non-degenerate"
    )
    p.add_argument("--input", required=True, help='JSON file {"v": ..., "xs": [...]}')
    p.set_defaults(func=_cmd_span_reduce)

    p = sub.add_parser("sweep", help="evaluate a command over a parameter grid")
    p.add_argument("target", choices=("check-sv", "cross-check"))
    p.add_argument("--rho", type=_parse_grid, default=())
    p.add_argument("--r", type=_parse_grid, default=())
    p.add_argument("--s", type=_parse_grid, default=())
    p.add_argument("--c2", type=_parse_grid, default=())
    p.add_argument("--c1sq", type=_parse_grid, default=())
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except (ArithmeticError, LookupError, OSError, TypeError, ValueError) as exc:
        # malformed input (bad JSON shapes, zero denominators, missing keys)
        # is an input error, never a failed verification
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
