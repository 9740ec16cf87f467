"""Command-line interface.

Subcommands: ``verify`` runs the relation suite, ``eval`` applies a
compiled diagram to an element expression, ``bubble`` / ``special`` query
closed polynomial values, and ``rank`` computes graded ranks of word
images.  Exit codes: 0 success, 1 verification failure, 2 bad input.
The environment variable ``CATSL2_N`` supplies a default rank for
commands that take ``--N``; explicit flags always win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .exactpoly import Polynomial
from .grassrings import GrassContext, bubble_value, special_class
from .bimodules import graded_rank
from .twomorphisms import SignedWord, compile_word, measured_degree
from .diagramlang import (
    DiagramError,
    ZeroDiagramWarning,
    compile_diagram,
    parse_diagram,
    parse_element,
)
from .relationsuite import DEFAULT_MAX_RANK, run_suite

USAGE_ERROR = 2


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


_RANKED_COMMANDS = ("verify", "bubble", "special", "rank")


def _env_rank():
    """(rank, error) from $CATSL2_N: (None, None) if unset, and an error
    message naming the variable if it is not a positive integer."""
    value = os.environ.get("CATSL2_N")
    if value is None:
        return None, None
    try:
        rank = int(value)
    except ValueError:
        rank = 0
    if rank < 1:
        return None, "CATSL2_N must be a positive integer, got %r" % value
    return rank, None


def _build_parser(default_n=None, rank_required=True) -> argparse.ArgumentParser:
    parser = _CliParser(prog="catsl2",
                        description="Categorified sl(2) bimodule engine "
                                    "and relation verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rank(p):
        p.add_argument("--N", type=int, default=default_n,
                       required=rank_required,
                       help="ambient rank (default: $CATSL2_N)")

    p = sub.add_parser("verify", help="run the relation suite")
    add_rank(p)
    p.add_argument("--suites", default=None,
                   help="comma-separated suite names or letters a..l")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-N", type=int, default=DEFAULT_MAX_RANK,
                   help="configured maximum rank (default %d)" % DEFAULT_MAX_RANK)

    p = sub.add_parser("eval", help="apply a diagram to an element")
    p.add_argument("--diagram", required=True, help="path to a .cat file")
    p.add_argument("--element", required=True, help="element expression")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bubble", help="closed dotted-bubble value")
    add_rank(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--orient", choices=("cw", "ccw"), required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("special", help="special class X_alpha or Y_alpha")
    add_rank(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", choices=("X", "Y"), required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("rank", help="graded rank of a word image")
    add_rank(p)
    p.add_argument("--word", required=True, help="E/F letters or 1")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _fail(message: str) -> int:
    print("catsl2: error: %s" % message, file=sys.stderr)
    return USAGE_ERROR


def _cmd_verify(args) -> int:
    suites = args.suites.split(",") if args.suites else None
    try:
        report = run_suite(args.N, suites=suites, max_rank=args.max_N)
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.all_ok() else 1


def _cmd_eval(args) -> int:
    try:
        with open(args.diagram, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return _fail("cannot read diagram: %s" % exc)
    try:
        ast = parse_diagram(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ZeroDiagramWarning)
            diagram = compile_diagram(ast)
        element = parse_element(args.element, diagram.domain)
    except DiagramError as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))
    for warning in caught:
        print("warning: %s" % warning.message, file=sys.stderr)
    image = diagram(element)
    payload = {
        "domain": diagram.domain.render(),
        "codomain": diagram.codomain.render(),
        "declared_degree": diagram.degree,
        "element": element.render(),
        "image": image.render(),
    }
    in_deg = element.degree()
    out_deg = image.degree()
    if in_deg is not None and out_deg is not None:
        payload["measured_degree"] = ((out_deg + diagram.codomain.shift)
                                      - (in_deg + diagram.domain.shift))
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("domain:   %s" % payload["domain"])
        print("codomain: %s" % payload["codomain"])
        print("degree:   %d (declared)%s"
              % (diagram.degree,
                 ", %d (measured)" % payload["measured_degree"]
                 if "measured_degree" in payload else ""))
        print("element:  %s" % payload["element"])
        print("image:    %s" % payload["image"])
    return 0


def _context(args):
    try:
        return GrassContext(args.N, args.k)
    except (ValueError, TypeError) as exc:
        raise ValueError("bad context: %s" % exc) from None


def _print_poly(args, label: str, poly: Polynomial) -> int:
    if args.format == "json":
        print(json.dumps({label: poly.render()}, indent=2, sort_keys=True))
    else:
        print(poly.render())
    return 0


def _cmd_bubble(args) -> int:
    try:
        ctx = _context(args)
    except ValueError as exc:
        return _fail(str(exc))
    return _print_poly(args, "bubble", bubble_value(ctx, args.orient, args.alpha))


def _cmd_special(args) -> int:
    try:
        ctx = _context(args)
    except ValueError as exc:
        return _fail(str(exc))
    return _print_poly(args, "special",
                       special_class(ctx, args.family, args.alpha))


def _cmd_rank(args) -> int:
    try:
        word = SignedWord.parse(args.word, args.weight)
        path = compile_word(word, args.N)
    except ValueError as exc:
        return _fail(str(exc))
    rank = graded_rank(path)
    if args.format == "json":
        print(json.dumps({"path": path.render(), "zero": path.is_zero,
                          "rank": rank.render()}, indent=2, sort_keys=True))
    else:
        print(rank.render())
    return 0


_DISPATCH = {
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "bubble": _cmd_bubble,
    "special": _cmd_special,
    "rank": _cmd_rank,
}


def main(argv=None) -> int:
    default_n, env_error = _env_rank()
    parser = _build_parser(default_n, rank_required=default_n is None
                           and env_error is None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if args.command in _RANKED_COMMANDS:
        if args.N is None and env_error:
            return _fail(env_error)
        if args.N is None or args.N < 1:
            return _fail("N must be a positive integer")
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
