"""Command-line interface.

Subcommands: ``verify`` runs the relation suite, ``eval`` applies a
compiled diagram to an element expression, ``bubble`` / ``special`` query
closed polynomial values, and ``rank`` computes graded ranks of word
images.  Exit codes: 0 success, 1 verification failure, 2 bad input,
141 the reader closed the output pipe early (a shell's code for SIGPIPE).
Bad input raises ``ValueError`` from whichever layer reads it, and
``main`` alone turns it into the one-line message and exit 2.
The environment variable ``CATSL2_N`` supplies a default rank for
commands that take ``--N``; explicit flags always win.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from .exactpoly import Polynomial
from .grassrings import (GrassContext, bubble_value, special_class,
                         special_class_terms)
from .bimodules import graded_rank
from .twomorphisms import SignedWord, compile_word
from .diagramlang import (ZeroDiagramWarning, compile_diagram, parse_diagram,
                          parse_element)
from .relationsuite import DEFAULT_MAX_RANK, run_suite

USAGE_ERROR = 2
PIPE_CLOSED = 141

#: Largest --alpha that ``bubble`` and ``special`` accept.  Their values
#: have exponents up to alpha, so this stays well inside the exact
#: polynomial core's exponent limit of 2^15 - 1.
MAX_ALPHA = 4000

#: Largest number of terms a ``special`` class, or the class family a
#: ``bubble`` expands, may have.  The count is a closed form (partitions of
#: alpha), taken before any polynomial is built: at N = 8 this admits
#: X_alpha at k = 4 up to alpha = 107, and every alpha <= 4N at N <= 8.
MAX_CLASS_TERMS = 10000

#: Largest number of terms a ``rank`` answer may have.  A word's graded
#: rank has one term per total xi-degree, the sum of its factors' bounds
#: plus 1, so the count is read off the flag path before anything is built.
MAX_RANK_TERMS = 10000


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves no state on it (each
    call fills a fresh namespace), so ``main`` reuses it."""
    parser = _CliParser(prog="catsl2",
                        description="Categorified sl(2) bimodule engine "
                                    "and relation verifier.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the options that several commands share: the rank names the ranked
    # commands, and every command takes --format
    ranked = argparse.ArgumentParser(add_help=False)
    ranked.add_argument("--N", type=int, help="ambient rank (default: $CATSL2_N)")
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the relation suite",
                       parents=[ranked, formatted])
    p.add_argument("--suites", default=None,
                   help="comma-separated suite names or letters a..l")
    p.add_argument("--max-N", type=int, default=DEFAULT_MAX_RANK,
                   help="configured maximum rank (default %d)" % DEFAULT_MAX_RANK)

    p = sub.add_parser("eval", help="apply a diagram to an element",
                       parents=[formatted])
    p.add_argument("--diagram", required=True, help="path to a .cat file")
    p.add_argument("--element", required=True,
                   help="element expression; one with a leading sign is "
                        "written --element=-xi")

    p = sub.add_parser("bubble", help="closed dotted-bubble value",
                       parents=[ranked, formatted])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--orient", choices=("cw", "ccw"), required=True)
    p.add_argument("--alpha", type=int, required=True)

    p = sub.add_parser("special", help="special class X_alpha or Y_alpha",
                       parents=[ranked, formatted])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", choices=("X", "Y"), required=True)
    p.add_argument("--alpha", type=int, required=True)

    p = sub.add_parser("rank", help="graded rank of a word image",
                       parents=[ranked, formatted])
    p.add_argument("--word", required=True, help="E/F letters or 1")
    p.add_argument("--weight", type=int, required=True)
    return parser


def _fail(message: str) -> int:
    print("catsl2: error: %s" % message, file=sys.stderr)
    return USAGE_ERROR


def _cmd_verify(args) -> int:
    # an empty --suites names the suite '', which resolve_suites refuses
    suites = None if args.suites is None else args.suites.split(",")
    report = run_suite(args.N, suites=suites, max_rank=args.max_N)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.all_ok() else 1


def _cmd_eval(args) -> int:
    try:
        with open(args.diagram, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError("cannot read diagram: %s" % exc) from None
    ast = parse_diagram(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ZeroDiagramWarning)
        diagram = compile_diagram(ast)
    element = parse_element(args.element, diagram.domain)
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


def _context(args, family: str):
    """The ring H_k of the query, once its ``family`` class at alpha is
    known to be within ``MAX_ALPHA`` and ``MAX_CLASS_TERMS``."""
    if args.alpha > MAX_ALPHA:
        raise ValueError("alpha must be at most %d, got %d" % (MAX_ALPHA, args.alpha))
    ctx = GrassContext(args.N, args.k)
    if special_class_terms(ctx, family, args.alpha, MAX_CLASS_TERMS) > MAX_CLASS_TERMS:
        raise ValueError("%s_%d at N=%d, k=%d has more than %d terms"
                         % (family, args.alpha, args.N, args.k, MAX_CLASS_TERMS))
    return ctx


def _print_poly(args, label: str, poly: Polynomial) -> int:
    if args.format == "json":
        print(json.dumps({label: poly.render()}, indent=2, sort_keys=True))
    else:
        print(poly.render())
    return 0


def _cmd_bubble(args) -> int:
    # the cw bubble expands the Y classes, the ccw bubble the X classes
    ctx = _context(args, "Y" if args.orient == "cw" else "X")
    return _print_poly(args, "bubble", bubble_value(ctx, args.orient, args.alpha))


def _cmd_special(args) -> int:
    ctx = _context(args, args.family)
    return _print_poly(args, "special",
                       special_class(ctx, args.family, args.alpha))


def _cmd_rank(args) -> int:
    path = compile_word(SignedWord.parse(args.word, args.weight), args.N)
    if not path.is_zero:
        terms = sum(path.bound(i) for i in range(1, path.num_factors + 1)) + 1
        if terms > MAX_RANK_TERMS:
            raise ValueError("the graded rank has %d terms, above the limit %d"
                             % (terms, MAX_RANK_TERMS))
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        if "N" in args:         # a ranked command: --N, else $CATSL2_N
            name, value = "N", args.N
            if value is None:
                name, value = "CATSL2_N", os.environ.get("CATSL2_N")
                if value is None:
                    raise ValueError("--N is required (or set CATSL2_N)")
            try:
                args.N = int(value)
            except ValueError:
                args.N = 0
            if args.N < 1:
                raise ValueError("%s must be a positive integer, got %r" % (name, value))
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()      # a closed pipe shows here, not at exit
        return code
    except ValueError as exc:   # bad input, from any command and any layer
        return _fail(str(exc))
    except OverflowError as exc:
        return _fail("result too large for exact arithmetic: %s" % exc)
    except BrokenPipeError:     # the flush at exit goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_CLOSED


if __name__ == "__main__":
    sys.exit(main())
