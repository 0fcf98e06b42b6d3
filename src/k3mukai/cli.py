"""Command-line front end: exact numbers, reductions and identity checks.

Every command returns a document and a verdict, and prints nothing.  `main`
alone prints the document, as one JSON document (rationals as exact "p/q"
strings, keys sorted, byte-stable across runs) or, with --format plain,
sorted key=value lines, and picks the exit code: 0 when the verdict holds,
1 when a verification fails, 2 on input errors and failed writes.
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
from .series import _exact_text, _parse_rational

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
# per grid and per sweep; sizes come from the range endpoints, before any expansion
MAX_GRID_POINTS = 100_000


class _AfterTarget(argparse.Action):
    # a grid flag given to `sweep` itself, before the target that reads it
    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"argument {option_string}: it goes after the sweep target"
                     " (check-sv or cross-check)")


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


# -- commands ---------------------------------------------------------------------
# each returns (document, verified); library calls are looked up when a command
# runs, so a patched module attribute (a test's fake, a tracer) reaches them


def _value(x) -> tuple[dict, bool]:
    return {"value": _exact_text(x)}, True


def _check_sv(rho: int, r: int, order: int) -> tuple[dict, bool]:
    report = check_correspondence(rho, r, order)
    doc = {
        "rho": report.rho,
        "r": report.r,
        "order": report.order,
        "g_identity": report.g_identity_holds,
        "f_identity": report.f_identity_holds,
        "first_discrepant_order": report.first_discrepant_order,
    }
    return doc, report.g_identity_holds and report.f_identity_holds


def _cross_check(rho: int, s: int, c2: int, c1sq: int) -> tuple[dict, bool]:
    return {"rho": rho, "s": s, "c2": c2, "c1sq": c1sq}, segre_cross_check(rho, s, c2, c1sq)


def _moduli_from_args(args) -> ModuliData:
    # the value flags default to None, so a flag is given exactly when it is set
    given = {name: value for name, value in vars(args).items()
             if name in ("rho", "n", "alpha", "Lsq", "u") and value is not None}
    if args.input:
        if given:
            flags = ", ".join("--" + name for name in given)
            raise ValueError(f"--input takes no other flags, got {flags}")
        return moduli_data_from_json(_load_input(args.input))
    missing = [name for name in ("rho", "alpha") if name not in given]
    if missing:
        raise ValueError(f"missing required flags: {', '.join('--' + m for m in missing)}")
    return ModuliData(**{"n": 1, "Lsq": Fraction(0), "u": Fraction(0), **given})


def _vectors_from_input(path: str):
    obj = _load_input(path)
    xs = obj.get("xs", [])
    if not isinstance(xs, list):
        raise ValueError("xs must be a list of Mukai vector objects")
    if "v" not in obj:
        raise ValueError("the input is missing the key 'v'")
    return mukai_vector_from_json(obj["v"]), [mukai_vector_from_json(item) for item in xs]


def _matrix_text(matrix) -> list[list[str]]:
    return [[_exact_text(x) for x in row] for row in matrix]


def _cmd_span_reduce(args) -> tuple[dict, bool]:
    v, xs = _vectors_from_input(args.input)
    ys = nondegenerate_reduction(v, xs)
    fp = fingerprint(v, ys).matrix  # the Gram matrix of [v, *ys]
    doc = {
        "ys": [mukai_vector_to_json(y) for y in ys],
        "fingerprint": _matrix_text(fp),
        "gram_rank": gram_rank(fp),
        "span_dim": span_dim([v, *ys]),
    }
    return doc, True


def _sweep(target: str, evaluate, *grids) -> tuple[dict, bool]:
    if math.prod(map(len, grids)) > MAX_GRID_POINTS:
        raise ValueError(f"a sweep may have at most {MAX_GRID_POINTS} points")
    points = itertools.starmap(evaluate, itertools.product(*grids))
    results = [{**doc, "ok": ok} for doc, ok in points]
    failures = [r for r in results if not r["ok"]]
    doc = {
        "command": target,
        "total": len(results),
        "failures": failures,
        "all_ok": not failures,
        "points": results,
    }
    return doc, not failures


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
    p.set_defaults(func=lambda a: _value(segre_number(
        SegreParams(rho=a.rho, s=a.s, c2=a.c2, c1sq=a.c1sq, n=a.n))))

    p = sub.add_parser("verlinde", help="one Verlinde number")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--chiL", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=lambda a: _value(verlinde_number(
        VerlindeParams(rho=a.rho, r=a.r, chiL=a.chiL, n=a.n))))

    p = sub.add_parser("check-sv", help="verify the Segre-Verlinde correspondence")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(func=lambda a: _check_sv(a.rho, a.r, a.order))

    p = sub.add_parser("reduce", help="reduce moduli data to Hilbert-scheme data")
    p.add_argument("--rho", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=_parse_alpha, help="rank,c1sq,c1L,v2")
    p.add_argument("--Lsq", type=_parse_fraction)
    p.add_argument("--u", type=_parse_fraction)
    p.add_argument("--input", help="JSON file with the moduli data")
    p.set_defaults(func=lambda a: (
        reduction_target_to_json(reduce_to_hilbert(_moduli_from_args(a))), True))

    p = sub.add_parser("dim2", help="closed-form evaluation at n = 1")
    p.add_argument("--rho", type=int)
    p.add_argument("--alpha", type=_parse_alpha, help="rank,c1sq,c1L,v2")
    p.add_argument("--Lsq", type=_parse_fraction)
    p.add_argument("--u", type=_parse_fraction)
    p.add_argument("--input", help="JSON file with the moduli data")
    p.set_defaults(func=lambda a: _value(dim2_evaluate(_moduli_from_args(a))))

    p = sub.add_parser("fingerprint", help="pairing matrix of v and classes x_i")
    p.add_argument("--input", required=True, help='JSON file {"v": ..., "xs": [...]}')
    p.set_defaults(func=lambda a: ({"fingerprint": _matrix_text(
        fingerprint(*_vectors_from_input(a.input)).matrix)}, True))

    p = sub.add_parser(
        "span-reduce", help="replace classes so the span becomes non-degenerate"
    )
    p.add_argument("--input", required=True, help='JSON file {"v": ..., "xs": [...]}')
    p.set_defaults(func=_cmd_span_reduce)

    p = sub.add_parser("sweep", help="evaluate a command over a parameter grid")
    for name in ("--rho", "--r", "--s", "--c2", "--c1sq", "--order"):
        p.add_argument(name, action=_AfterTarget, default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
    targets = p.add_subparsers(dest="target", required=True, parser_class=_Parser)
    # each target takes exactly the grids it reads, every one required
    p = targets.add_parser("check-sv")
    for name in ("--rho", "--r"):
        p.add_argument(name, type=_parse_grid, required=True)
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(func=lambda a: _sweep(a.target, _check_sv, a.rho, a.r, [a.order]))
    p = targets.add_parser("cross-check")
    for name in ("--rho", "--s", "--c2", "--c1sq"):
        p.add_argument(name, type=_parse_grid, required=True)
    p.set_defaults(func=lambda a: _sweep(a.target, _cross_check, a.rho, a.s, a.c2, a.c1sq))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        doc, verified = args.func(args)
        _emit(doc, args.format)
    except (ArithmeticError, LookupError, OSError, TypeError, ValueError) as exc:
        # malformed input (bad JSON shapes, zero denominators, missing keys)
        # and a failed write are input errors, never a failed verification
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK if verified else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
