"""Exact sparse multivariate polynomials over Q with graded variables.

This is the value type for every ring in the engine.  Variables come in
three kinds:

* ``x[j]@w`` and ``y[j]@w`` -- Chern-type generators with a positive index
  ``j`` and an integer weight tag ``w``; both have graded degree ``2j``,
* ``xi{i}`` -- a strand variable of degree 2, indexed by the tensor-factor
  position ``i`` it belongs to.

Coefficients are exact rationals (``fractions.Fraction``); no floating
point is used anywhere.  Polynomials are immutable and hashable, so they
can be shared freely between threads and used as dictionary keys.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

Rational = Fraction

KIND_X = 0
KIND_Y = 1
KIND_XI = 2

_KIND_NAMES = {KIND_X: "x", KIND_Y: "y", KIND_XI: "xi"}


class VarSymbol(NamedTuple):
    """A graded variable; the field order gives the canonical sort order."""

    kind: int
    weight: int
    index: int

    @property
    def degree(self) -> int:
        return 2 if self.kind == KIND_XI else 2 * self.index

    def render(self) -> str:
        if self.kind == KIND_XI:
            return "xi{%d}" % self.index
        return "%s[%d]@%d" % (_KIND_NAMES[self.kind], self.index, self.weight)


def x_sym(index: int, weight: int) -> VarSymbol:
    return VarSymbol(KIND_X, weight, index)


def y_sym(index: int, weight: int) -> VarSymbol:
    return VarSymbol(KIND_Y, weight, index)


def xi_sym(position: int = 1) -> VarSymbol:
    return VarSymbol(KIND_XI, 0, position)


# A monomial is a tuple of (symbol, exponent) pairs, sorted by symbol,
# with strictly positive exponents.  The empty tuple is the unit monomial.
Mono = tuple


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    key = (a, b)
    cached = _MONO_MUL_CACHE.get(key)
    if cached is not None:
        return cached
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        sa, ea = a[i]
        sb, eb = b[j]
        if sa == sb:
            out.append((sa, ea + eb))
            i += 1
            j += 1
        elif sa < sb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    result = tuple(out)
    if len(_MONO_MUL_CACHE) < 1 << 18:
        _MONO_MUL_CACHE[key] = result
    return result


# Process-wide memo of monomial products, keyed on the operand pair.  It
# holds at most 2^18 entries: once full it stops inserting (entries are never
# evicted) and further products are merged without caching.
_MONO_MUL_CACHE: dict = {}


def mono_degree(m: Mono) -> int:
    return sum(sym.degree * exp for sym, exp in m)


class _Sentinel:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Degree report for the zero polynomial, which is homogeneous of any degree.
ANY_DEGREE = _Sentinel("any-degree")
#: Degree report for a polynomial with terms in several degrees.
INHOMOGENEOUS = _Sentinel("inhomogeneous")


class Polynomial:
    """Sparse polynomial: a finite map from monomials to nonzero rationals."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Mono, Rational] | None = None):
        # Integer coefficients stay plain ints (int and Fraction hash and
        # compare consistently); exactness is unaffected either way.
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, (int, Fraction)):
                    coeff = Fraction(coeff)
                if isinstance(coeff, Fraction) and coeff.denominator == 1:
                    coeff = coeff.numerator
                if coeff:
                    clean[mono] = coeff
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def const(c) -> "Polynomial":
        return Polynomial({(): c})

    @staticmethod
    def gen(sym: VarSymbol, exp: int = 1) -> "Polynomial":
        if exp == 0:
            return _ONE
        return Polynomial({((sym, exp),): 1})

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> Mapping[Mono, Rational]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def symbols(self) -> set:
        syms = set()
        for mono in self._terms:
            for sym, _ in mono:
                syms.add(sym)
        return syms

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = coeff
            else:
                acc = acc + coeff
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        out = Polynomial.__new__(Polynomial)
        out._terms = terms
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out._terms = {m: -c for m, c in self._terms.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # monomial times polynomial: keys stay distinct
            (ma, ca), = a.items()
            if not ma and ca == 1:
                out = Polynomial.__new__(Polynomial)
                out._terms = dict(b)
                out._hash = None
                return out
            terms = {mono_mul(ma, mb): ca * cb for mb, cb in b.items()}
        else:
            terms = {}
            for ma, ca in a.items():
                for mb, cb in b.items():
                    mono = mono_mul(ma, mb)
                    c = ca * cb
                    acc = terms.get(mono)
                    if acc is None:
                        terms[mono] = c
                    else:
                        acc = acc + c
                        if acc:
                            terms[mono] = acc
                        else:
                            del terms[mono]
        out = Polynomial.__new__(Polynomial)
        out._terms = terms
        out._hash = None
        return out

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    # -- structure ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def substitute(self, mapping: Mapping[VarSymbol, "Polynomial"]) -> "Polynomial":
        """Replace each symbol in `mapping` by a polynomial; others persist."""
        if not mapping:
            return self
        total: dict = {}
        for mono, coeff in self._terms.items():
            part = Polynomial({(): coeff})
            for sym, exp in mono:
                rep = mapping.get(sym)
                if rep is None:
                    part = part * Polynomial.gen(sym, exp)
                else:
                    part = part * _cached_pow(rep, exp)
            for m, c in part._terms.items():
                acc = total.get(m)
                if acc is None:
                    total[m] = c
                else:
                    acc = acc + c
                    if acc:
                        total[m] = acc
                    else:
                        del total[m]
        out = Polynomial.__new__(Polynomial)
        out._terms = total
        out._hash = None
        return out

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mono in sorted(self._terms):
            coeff = self._terms[mono]
            factors = ["%s^%d" % (s.render(), e) if e > 1 else s.render()
                       for s, e in mono]
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "Polynomial(%s)" % self.render()


_ZERO = Polynomial()
_ONE = Polynomial({(): 1})


def _cached_pow(base: Polynomial, exp: int, _cache={}) -> Polynomial:
    """base ** exp, memoized process-wide in the default-argument dict.

    The memo holds at most 2^14 (base, exp) entries; once full it stops
    inserting and further powers are computed without caching.
    """
    if exp == 1:
        return base
    key = (base, exp)
    value = _cache.get(key)
    if value is None:
        value = base ** exp
        if len(_cache) < 1 << 14:
            _cache[key] = value
    return value


def xgen(index: int, weight: int) -> Polynomial:
    return Polynomial.gen(x_sym(index, weight))


def ygen(index: int, weight: int) -> Polynomial:
    return Polynomial.gen(y_sym(index, weight))


def xigen(position: int = 1, exp: int = 1) -> Polynomial:
    return Polynomial.gen(xi_sym(position), exp)


def homogeneous_degree(p: Polynomial):
    """Graded degree of p if homogeneous, ANY_DEGREE for 0, else INHOMOGENEOUS."""
    if not p.terms:
        return ANY_DEGREE
    degs = {mono_degree(m) for m in p.terms}
    if len(degs) == 1:
        return degs.pop()
    return INHOMOGENEOUS


def series_invert(components: Iterable[Polynomial], bound: int) -> list[Polynomial]:
    """Invert a graded power series given by homogeneous components.

    ``components[d]`` is the degree-2d piece of a series with constant term
    1; the result lists the components ``b[0..bound]`` of the inverse, so
    that sum(components[i] * b[d-i] for i) vanishes for 0 < d <= bound.
    """
    comps = list(components)
    if not comps or comps[0] != Polynomial.one():
        raise ValueError("series inversion needs constant term 1")

    def comp(i: int) -> Polynomial:
        return comps[i] if i < len(comps) else Polynomial.zero()

    inverse = [Polynomial.one()]
    for d in range(1, bound + 1):
        acc = Polynomial.zero()
        for i in range(1, d + 1):
            acc = acc + comp(i) * inverse[d - i]
        inverse.append(-acc)
    return inverse
