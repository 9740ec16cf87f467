"""Textual DSL for string diagrams and bimodule elements.

Diagram files are line oriented: a header fixing the rank, the domain
weight and the domain word, then one ``layer:`` line per horizontal slice,
bottom slice first.  ``#`` starts a comment.  Example::

    N = 1
    weight = -1
    domain = 1
    layer: cup_fe
    layer: cap_fe

Layer tokens name the generators with their strand orientations spelled
out (``cup_fe``, ``cross_ee``, ``dot_f``, ...).  A layer's tokens are read
left to right across the displayed strands of the current word; caps
consume two adjacent strands, cups consume none and insert two.  Displayed
strand order is the reverse of tensor-factor order (diagrams are read
right to left, tensor factors act from the domain outward); the type check
performs that flip once, placing every token, and the compiler reads the
places.

Element expressions are sums of tensor terms ``f1 | f2 | ... | fm``, one
factor expression per path factor in factor order.  A factor expression
is a product of ``x[j]``, ``y[j]``, ``xi`` tokens with optional ``^e``
powers and an optional rational coefficient ``p/q``; weight tags are
inferred from the factor's position in the path.  ``+`` and ``-`` join
tensor terms at top level only.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction

from .exactpoly import Polynomial, render_excerpt, render_int, xi_sym
from .bimodules import BimElement, FlagPath, RawTensor, linear_sum, normalize_sum
from .twomorphisms import (
    BimMap,
    SignedWord,
    compile_word,
    compose_chain,
    gen_cap,
    gen_crossing,
    gen_cup,
    gen_dot,
    identity_map,
)


class DiagramError(ValueError):
    """Parse or type error, carrying a 1-based source span."""

    def __init__(self, message: str, line: int | None = None,
                 col_start: int | None = None, col_end: int | None = None):
        self.line = line
        self.col_start = col_start
        self.col_end = col_end
        if line is not None:
            where = "line %d" % line
            if col_start is not None:
                where += ", cols %d-%d" % (col_start, col_end)
            message = "%s: %s" % (where, message)
        super().__init__(message)


class ZeroDiagramWarning(UserWarning):
    pass


# token -> (consumed strand orientations, produced strand orientations),
# in display order
TOKEN_SHAPES = {
    "id_e": (("E",), ("E",)),
    "id_f": (("F",), ("F",)),
    "dot_e": (("E",), ("E",)),
    "dot_f": (("F",), ("F",)),
    "cross_ee": (("E", "E"), ("E", "E")),
    "cross_ff": (("F", "F"), ("F", "F")),
    "cup_fe": ((), ("F", "E")),
    "cup_ef": ((), ("E", "F")),
    "cap_fe": (("F", "E"), ()),
    "cap_ef": (("E", "F"), ()),
}


class DiagramAST:
    """A type-checked diagram: the rank, the domain word and layers of
    token names.

    The weight is the domain word's, ``domain.weight``.  ``lines`` gives
    the span of a rank, parity, layer or token error: the line of the N
    header, of the weight header, and each layer's line with its tokens'
    ``(col_start, col_end)``.  It is not part of the AST, so rendering and
    reparsing round-trips.  ``places`` holds each layer's token places, as
    the type check found them.
    """

    def __init__(self, N: int, domain: SignedWord, layers, lines=None):
        self.N = N
        self.domain = domain
        self.layers = tuple(tuple(layer) for layer in layers)
        self.places = _typecheck(self, lines or (None, None, ()))

    def __eq__(self, other):
        if not isinstance(other, DiagramAST):
            return NotImplemented
        return (self.N, self.domain, self.layers) == (other.N, other.domain, other.layers)

    def __repr__(self):
        return "DiagramAST(N=%s, weight=%s, domain=%s, %d layers)" % (
            render_int(self.N), render_int(self.domain.weight), self.domain.render(),
            len(self.layers))


def _typecheck(ast: DiagramAST, lines):
    """Check the rank's range, the weight's parity and the arity and
    orientation of every layer; return each layer's token places.

    Display order is the reverse of factor order: a token after ``pos`` of
    a word's ``w`` strands has place ``w - pos``, a dot's factor and a
    cup's junction; a crossing or a cap acts at ``w - pos - 1``.
    """
    rank_line, weight_line, layer_lines = lines
    if not 1 <= ast.N <= MAX_DIAGRAM_RANK:     # before any ring is built
        raise DiagramError("rank N must lie in 1..%d, got %s"
                           % (MAX_DIAGRAM_RANK, render_excerpt(render_int(ast.N))),
                           rank_line)
    try:
        compile_word(ast.domain, ast.N)     # the parity rule of ``rank``
    except ValueError as exc:
        raise DiagramError(str(exc), weight_line) from None
    word = tuple(ast.domain.letters)
    places = []
    for at, layer in enumerate(ast.layers):
        lineno, cols = layer_lines[at] if at < len(layer_lines) else (None, ())
        produced, here, pos = [], [], 0
        for i, tok in enumerate(layer):
            where = (lineno, *cols[i]) if i < len(cols) else (lineno,)
            if not isinstance(tok, str):
                raise DiagramError("unknown token of type %s" % type(tok).__name__,
                                   *where)
            if tok not in TOKEN_SHAPES:
                raise DiagramError("unknown token %s" % render_excerpt(tok), *where)
            consumed, out = TOKEN_SHAPES[tok]
            take = word[pos:pos + len(consumed)]
            if len(take) < len(consumed):
                raise DiagramError("%s consumes %d strands, found %d"
                                   % (tok, len(consumed), len(take)), *where)
            if take != consumed:
                raise DiagramError("%s needs strands %s, found %s"
                                   % (tok, " ".join(consumed), " ".join(take)), *where)
            here.append(len(word) - pos)
            pos += len(consumed)
            produced.extend(out)
        if pos != len(word):
            raise DiagramError("layer consumes %d strands, word has %d"
                               % (pos, len(word)), lineno)
        word = tuple(produced)
        places.append(tuple(here))
    return tuple(places)


# ---------------------------------------------------------------------------
# diagram parsing and rendering
# ---------------------------------------------------------------------------


_HEADER_RE = re.compile(r"^\s*(N|weight|domain)\s*=\s*(.+?)\s*$")
_LAYER_RE = re.compile(r"^\s*layer\s*:\s*(.*?)\s*$")


def parse_diagram(text: str) -> DiagramAST:
    header: dict = {}
    header_lines: dict = {}
    layers, layer_lines = [], []
    seen_layer = False
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0]
        if not line.strip():
            continue
        m = _LAYER_RE.match(line)
        if m:
            seen_layer = True
            at = m.start(1)   # the tokens' columns count from the line's start
            toks = list(re.finditer(r"\S+", m.group(1)))
            layers.append([tok.group(0) for tok in toks])
            layer_lines.append((lineno, [(at + tok.start() + 1, at + tok.end())
                                         for tok in toks]))
            continue
        m = _HEADER_RE.match(line)
        if m:
            key, value = m.group(1), m.group(2)
            if seen_layer:
                raise DiagramError("header %r after the first layer" % key, lineno)
            if key in header:
                raise DiagramError("duplicate header %r" % key, lineno)
            header_lines[key] = lineno
            if key in ("N", "weight"):
                digits = sum(ch.isdigit() for ch in value)
                if digits > MAX_LITERAL_DIGITS:
                    raise DiagramError("%s has %d digits, above the limit %d"
                                       % (key, digits, MAX_LITERAL_DIGITS),
                                       lineno)
                try:
                    header[key] = int(value)
                except ValueError:
                    raise DiagramError("%s must be an integer, got %s"
                                       % (key, render_excerpt(value)), lineno) from None
            else:
                try:
                    header["domain"] = SignedWord.parse(value, 0).letters
                except ValueError as exc:
                    raise DiagramError(str(exc), lineno) from None
            continue
        raise DiagramError("cannot parse line %s" % render_excerpt(line.strip()), lineno)
    for key in ("N", "weight", "domain"):
        if key not in header:
            raise DiagramError("missing header %r" % key,
                               len(text.splitlines()) or None)
    return DiagramAST(header["N"], SignedWord(header["domain"], header["weight"]),
                      layers, (header_lines["N"], header_lines["weight"], layer_lines))


def render_diagram(ast: DiagramAST) -> str:
    lines = ["N = %d" % ast.N,
             "weight = %d" % ast.domain.weight,
             "domain = %s" % ast.domain.render()]
    for layer in ast.layers:
        lines.append("layer: %s" % " ".join(layer))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def compile_diagram(ast: DiagramAST) -> BimMap:
    """Compile to a bimodule map: one chain of every token's generator,
    built at the token's place on the path the tokens before it leave."""
    path = compile_word(ast.domain, ast.N)
    if path.is_zero:
        warnings.warn("diagram domain is the zero bimodule; the compiled "
                      "map is zero", ZeroDiagramWarning, stacklevel=2)
    gens = []
    for layer, places in zip(ast.layers, ast.places):
        for tok, r in zip(layer, places):
            cur = gens[-1].codomain if gens else path
            stem, _, letters = tok.partition("_")
            if stem == "dot":
                gens.append(gen_dot(cur, r))
            elif stem == "cross":
                gens.append(gen_crossing(cur, r - 1))
            elif stem == "cup":
                gens.append(gen_cup(cur, r, letters))
            elif stem == "cap":
                gens.append(gen_cap(cur, r - 1))
    return compose_chain(*gens) if gens else identity_map(path)


# ---------------------------------------------------------------------------
# element expressions
# ---------------------------------------------------------------------------


_ELEMENT_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<gen>[xy])\[(?P<idx>\d+)\]"
    r"|(?P<xi>xi))"
    r"(?:\s*\^\s*(?P<exp>\d+))?\s*$")


#: Size limit of element expressions: every ``^`` exponent, and the degree
#: of each tensor term counted in units of 2 (``xi`` counts 1 and ``x[t]``,
#: ``y[t]`` count ``t`` per power), is at most this.  Rewriting keeps the
#: degree, so no exponent in a parsed element exceeds it either, far below
#: the exact polynomial core's limit of 2^15 - 1.
MAX_ELEMENT_DEGREE = 1000

#: Size limit of integer literals: the ``N`` and ``weight`` headers of a
#: diagram file have at most this many digits, no digit run in an element
#: expression is longer than this, and the rationals of one tensor term
#: have at most this many digits together, each counted as its numerator
#: and denominator digits times its ``^`` exponent.  Digits are counted
#: before anything is converted, and coefficients stay far below CPython's
#: limit of 4300 digits for converting an integer to or from text.
MAX_LITERAL_DIGITS = 1000

#: Largest rank ``N`` of a diagram, parsed or built as a ``DiagramAST``.
#: Compiling a diagram builds the generators of its rings, whose time and
#: memory grow with N squared (a bubble at N = 800 needs over 600 MB), so
#: the type check refuses a larger N first.
MAX_DIAGRAM_RANK = 200


def _parse_factor(expr: str, offset: int, text_len: int, symbol_of, degree: int,
                  digits: int):
    """One factor expression: a product of powered tokens and rationals.

    ``expr`` starts at 0-based column ``offset`` of a text of ``text_len``
    characters.  ``degree`` (in units of 2) and ``digits`` are the term's
    degree and rational digit count before this factor; returns the
    factor's polynomial and both counts after it.
    """
    poly = Polynomial.one()
    col = offset
    for piece in expr.split("*"):
        start = col
        col += len(piece) + 1
        stripped = piece.strip()
        if not stripped:
            # span the blanks; a token with no characters at all points at
            # the column after it, or at the last column at the text's end
            first = min(start + 1, text_len)
            raise DiagramError("empty token in factor expression", 1,
                               first, max(first, start + len(piece)))
        # the token's own columns, without the blanks around it
        span = (1, start + len(piece) - len(piece.lstrip()) + 1,
                start + len(piece.rstrip()))
        m = _ELEMENT_TOKEN_RE.match(piece)
        if not m:
            raise DiagramError("cannot parse token %s" % render_excerpt(stripped), *span)
        for run in re.findall(r"\d+", piece):
            if len(run) > MAX_LITERAL_DIGITS:
                raise DiagramError("integer literal of %d digits exceeds the "
                                   "limit %d" % (len(run), MAX_LITERAL_DIGITS),
                                   *span)
        exp = int(m.group("exp")) if m.group("exp") else 1
        if exp > MAX_ELEMENT_DEGREE:
            raise DiagramError("exponent %d exceeds the limit %d"
                               % (exp, MAX_ELEMENT_DEGREE), *span)
        if m.group("rat"):
            num, _, den = m.group("rat").partition("/")
            if den and int(den) == 0:
                raise DiagramError("zero denominator in %s" % render_excerpt(stripped), *span)
            digits += exp * (len(num.strip()) + len(den.strip()))
            if digits > MAX_LITERAL_DIGITS:
                raise DiagramError("rationals of the tensor term have %d digits, "
                                   "above the limit %d"
                                   % (digits, MAX_LITERAL_DIGITS), *span)
            value = Fraction(int(num), int(den) if den else 1)
            poly = poly * Polynomial.const(value ** exp)
        else:
            kind = "xi" if m.group("xi") else m.group("gen")
            index = int(m.group("idx")) if m.group("idx") else 0
            sym = symbol_of(kind, index, *span)
            degree += exp * sym.degree // 2
            if degree > MAX_ELEMENT_DEGREE:
                raise DiagramError("tensor term degree %d exceeds the limit %d "
                                   "(in units of 2)"
                                   % (degree, MAX_ELEMENT_DEGREE), *span)
            poly = poly * Polynomial.gen(sym, exp)
    return poly, degree, digits


def _symbol_resolver(path: FlagPath, position: int):
    """Map x/y/xi tokens of the factor at ``position`` to canonical symbols,
    asking the ring that owns each letter: the step ring's end ring of that
    letter, or the ring itself on an identity path (which has no xi)."""
    m = path.num_factors
    where = ("factor %d" % position if m
             else "the identity factor (k=%d)" % path.rings[0])

    def resolve(kind, index, line, col_start, col_end):
        if kind == "xi":
            if m:
                return xi_sym(position)
            raise DiagramError("xi is not a generator of the identity bimodule",
                               line, col_start, col_end)
        ring = path.step_ring(position).ends(kind)[0] if m else path.junction(0)
        if 1 <= index <= ring.top(kind):
            return ring.gen(kind, index).symbols().pop()
        raise DiagramError("unknown generator %s[%d] for %s (%s-range 1..%d)"
                           % (kind, index, where, kind, ring.top(kind)),
                           line, col_start, col_end)

    return resolve


#: A ``+`` or ``-`` joining two tensor terms, with the blanks around it
#: (group 1).  A sign whose previous non-blank character is ``|``, ``*``,
#: ``^`` or ``/`` is matched with that operator by the first branch, which
#: sets no group and joins no terms.
_TERM_SIGN_RE = re.compile(r"[|*^/]\s*[+-]|\s*([+-])\s*")


def parse_element(text: str, path: FlagPath) -> BimElement:
    """Parse an element expression and return its normal form."""
    m = path.num_factors
    # (sign, 0-based column of the sign or None, term text, 0-based column
    # of the term)
    terms = []
    sign, sign_col, start = "+", None, 0
    for match in _TERM_SIGN_RE.finditer(text):
        if match.group(1) is None:
            continue
        terms.append((sign, sign_col, text[start:match.start()], start))
        sign, sign_col, start = match.group(1), match.start(1), match.end()
    terms.append((sign, sign_col, text[start:], start))
    if len(terms) > 1 and not terms[0][2].strip():
        del terms[0]              # a leading sign is the first term's sign
    for _, sign_col, term, _ in terms:
        if not term.strip():
            if sign_col is None:
                # no sign at all: the whole (blank) text, at least one column
                raise DiagramError("empty element expression", 1, 1,
                                   max(1, len(text)))
            # point at the sign with no term after it
            raise DiagramError("dangling sign in element expression", 1,
                               sign_col + 1, sign_col + 1)
    if path.is_zero:
        return BimElement.zero(path)
    parts = []
    for sign, _, term, offset in terms:
        factor_exprs = term.split("|")
        expected = max(m, 1)
        if len(factor_exprs) != expected:
            raise DiagramError(
                "tensor term has %d factor expressions, path %s needs %d"
                % (len(factor_exprs), path.render(), expected),
                1, offset + 1, offset + max(1, len(term)))
        col = offset
        degree = digits = 0
        polys = []
        for position, expr in enumerate(factor_exprs, start=1):
            poly, degree, digits = _parse_factor(expr, col, len(text),
                                                 _symbol_resolver(path, position),
                                                 degree, digits)
            polys.append(poly)
            col += len(expr) + 1
        if m == 0:
            value = BimElement.from_ring_poly(path, polys[0])
        else:
            value = RawTensor(path, tuple(polys))
        parts.append((value, 1 if sign == "+" else -1))
    # every tensor term is rewritten in one list
    return linear_sum(path, parts) if m == 0 else normalize_sum(path, parts)
