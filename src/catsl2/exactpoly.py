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

Monomials are packed exponent vectors: one non-negative ``int`` with a
``FIELD_BITS``-bit field per variable.  A process-wide, append-only
registry gives each ``VarSymbol`` a slot the first time it is seen;
the exponent of the symbol in slot ``s`` sits in bits ``16s .. 16s+15``.
The top bit of every field is a guard bit, so exponents stay below
``MAX_EXPONENT + 1 = 2^15``; the unit monomial is ``0``.  Multiplying two
monomials is one integer addition, and a product that sets a guard bit
raises ``OverflowError`` instead of carrying into the next field.  Every
product of two monomials (in ``*``, ``sum_of_products`` and the rewriting
kernel) is formed in ``_add_products``, the one place that checks the
guard bits.
``Polynomial.terms`` maps these packed ints to coefficients; slot numbers
depend on the order in which a process first met its symbols, so anything
that leaves the process (``render``, pickling) goes through the decoded,
symbol-sorted pairs of ``mono_pairs``.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Mapping, NamedTuple

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


def render_int(n: int) -> str:
    """``"%d" % n`` for a message, or, for an integer too long for CPython to
    convert to decimal (past 4300 digits by default), its sign and bit
    length, as in ``<16610-bit integer>``."""
    try:
        return "%d" % n
    except ValueError:
        return "%s<%d-bit integer>" % ("-" if n < 0 else "", n.bit_length())


def require_int(value, field: str) -> None:
    """Refuse a ``value`` of ``field`` that is not an int with a
    ``TypeError`` naming the field.  A bool is refused too: ``True`` is an
    int to Python, but as a rank, ring index, weight or shift it is a
    mistake, never a 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an int, not %s" % (field, type(value).__name__))


def render_excerpt(text: str) -> str:
    """Quote input text for a message, cut to its first 40 characters."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def x_sym(index: int, weight: int) -> VarSymbol:
    return VarSymbol(KIND_X, weight, index)


def y_sym(index: int, weight: int) -> VarSymbol:
    return VarSymbol(KIND_Y, weight, index)


def xi_sym(position: int = 1) -> VarSymbol:
    return VarSymbol(KIND_XI, 0, position)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
#: Largest exponent a field holds; the next bit up is the field's guard bit.
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1

# A monomial is a packed int (see the module docstring); 0 is the unit.
Mono = int

# The slot registry: symbol -> slot, slot -> symbol, and the OR of the guard
# bits of every registered slot.  Slots are only ever appended; the lock
# keeps two threads from giving one symbol two slots.
_SLOT_OF: dict = {}
_SYMBOLS: list = []
_GUARDS = 0
_REGISTRY_LOCK = threading.Lock()


def field_shift(sym: VarSymbol) -> int:
    """Bit offset of ``sym``'s exponent field, registering ``sym`` if new."""
    slot = _SLOT_OF.get(sym)
    if slot is None:
        global _GUARDS
        with _REGISTRY_LOCK:
            slot = _SLOT_OF.get(sym)
            if slot is None:
                slot = len(_SYMBOLS)
                _SYMBOLS.append(sym)
                _GUARDS |= 1 << (slot * FIELD_BITS + FIELD_BITS - 1)
                _SLOT_OF[sym] = slot
    return slot * FIELD_BITS


def _overflow() -> OverflowError:
    return OverflowError("monomial exponent exceeds %d" % MAX_EXPONENT)


def _fields(m: Mono):
    """Yield (symbol, exponent) for every nonzero field, in slot order."""
    slot = 0
    while m:
        if not m & FIELD_MASK:
            skip = ((m & -m).bit_length() - 1) // FIELD_BITS
            m >>= skip * FIELD_BITS
            slot += skip
        yield _SYMBOLS[slot], m & FIELD_MASK
        m >>= FIELD_BITS
        slot += 1


def mono_pairs(m: Mono) -> tuple:
    """The (symbol, exponent) pairs of a packed monomial, sorted by symbol."""
    return tuple(sorted(_fields(m)))


def _pack(pairs) -> Mono:
    """Packed monomial of (symbol, exponent) pairs with distinct symbols."""
    m = 0
    for sym, exp in pairs:
        if exp < 0:
            raise ValueError("negative exponent %d of %s" % (exp, sym.render()))
        if exp > MAX_EXPONENT:
            raise _overflow()
        m |= exp << field_shift(sym)
    return m


def mono_degree(m: Mono) -> int:
    return sum(sym.degree * exp for sym, exp in _fields(m))


def _make(terms: dict) -> "Polynomial":
    """Wrap a dict that is already clean (no zero coefficients), uncopied."""
    out = Polynomial.__new__(Polynomial)
    out._terms = terms
    out._hash = None
    return out


def _from_pairs(items) -> "Polynomial":
    """Unpickle: rebuild a polynomial from (pairs, coefficient) items."""
    return Polynomial({_pack(pairs): coeff for pairs, coeff in items})


class Polynomial:
    """Sparse polynomial: a finite map from monomials to nonzero rationals."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Mono, Rational] | None = None):
        # Integer coefficients stay plain ints (int and Fraction hash and
        # compare consistently); exactness is unaffected either way.
        # (``type(c) is int`` first: an isinstance check against Fraction
        # goes through the numbers ABCs and is slow.)
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    if not isinstance(coeff, Fraction):
                        coeff = Fraction(coeff)
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                if coeff:
                    clean[mono] = coeff
        self._terms = clean
        self._hash = None

    def __reduce__(self):
        # slot numbers are private to a process: pickle symbol pairs
        return _from_pairs, (tuple((mono_pairs(m), c)
                                   for m, c in self._terms.items()),)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def const(c) -> "Polynomial":
        return Polynomial({0: c})

    @staticmethod
    def gen(sym: VarSymbol, exp: int = 1) -> "Polynomial":
        if exp == 0:
            return _ONE
        return Polynomial({_pack(((sym, exp),)): 1})

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> Mapping[Mono, Rational]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def symbols(self) -> set:
        used = 0
        for mono in self._terms:
            used |= mono
        return {sym for sym, _ in _fields(used)}

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
        acc = dict(self._terms)
        _add_products(acc, _ONE._terms, other._terms)
        return _collect(acc)

    __radd__ = __add__

    def __neg__(self):
        return _make({m: -c for m, c in self._terms.items()})

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
        if len(b) == 1:
            a, b = b, a       # a lone term outside: a unit one keeps b's keys
        acc: dict = {}
        _add_products(acc, a, b)
        return _collect(acc)

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
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        # a scalar c is the polynomial {0: c}, and 0 is the empty one
        terms = self._terms
        if not other:
            return not terms
        return len(terms) == 1 and terms.get(0) == other

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def substitute(self, mapping: Mapping[VarSymbol, "Polynomial"]) -> "Polynomial":
        """Replace each symbol in `mapping` by a polynomial; others persist."""
        fields = []
        mapped = 0
        for sym, rep in mapping.items():
            slot = _SLOT_OF.get(sym)
            if slot is not None:   # an unregistered symbol occurs nowhere
                shift = slot * FIELD_BITS
                fields.append((shift, rep))
                mapped |= FIELD_MASK << shift
        if not fields:
            return self
        keep = ~mapped
        total: dict = {}
        for mono, coeff in self._terms.items():
            if mono & mapped:
                part = _make({mono & keep: coeff})
                for shift, rep in fields:
                    exp = (mono >> shift) & FIELD_MASK
                    if exp:
                        part = part * rep ** exp
                items = part._terms.items()
            else:
                items = ((mono, coeff),)
            for m, c in items:
                total[m] = total.get(m, 0) + c
        return _collect(total)

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for pairs, coeff in sorted((mono_pairs(m), c) for m, c in self._terms.items()):
            factors = ["%s^%d" % (s.render(), e) if e > 1 else s.render()
                       for s, e in pairs]
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
_ONE = Polynomial({0: 1})


def _factor_terms(f) -> Mapping[Mono, Rational]:
    """The terms of a polynomial factor, or of an int or Fraction as one."""
    if type(f) is Polynomial:
        return f._terms
    if isinstance(f, (int, Fraction)):
        return {0: f} if f else {}
    raise TypeError("%r is not a Polynomial, int or Fraction" % (f,))


def _add_products(acc: dict, ta: Mapping[Mono, Rational],
                  tb: Mapping[Mono, Rational]) -> None:
    """Add every product term of ``ta`` and ``tb`` into ``acc``.

    This is the one loop that accumulates products of terms: ``ca * cb``
    goes to key ``ma + mb`` of the plain dict ``acc`` (packed monomial ->
    rational), and a product key that sets a guard bit raises
    ``OverflowError``; ``Polynomial`` ``*`` and ``+`` (a sum is the
    product by the unit) run on it too.  A unit ``ma`` reuses ``mb``'s key
    object, so scaling by a scalar shares the keys of the scaled terms
    (and cannot overflow); into an empty ``acc`` it is one dict update.
    Coefficients that cancel stay in ``acc`` as zeros until ``_collect``
    drops them.
    """
    seen = 0              # OR of every product key, for the guard bits
    for ma, ca in ta.items():
        if ma:
            for mb, cb in tb.items():
                key = ma + mb
                seen |= key
                prev = acc.get(key)
                acc[key] = ca * cb if prev is None else prev + ca * cb
        elif not acc:
            acc.update(tb if ca == 1 else {mb: ca * cb for mb, cb in tb.items()})
        else:
            for mb, cb in tb.items():
                prev = acc.get(mb)
                acc[mb] = ca * cb if prev is None else prev + ca * cb
    if seen & _GUARDS:
        raise _overflow()


def _collect(acc: dict) -> Polynomial:
    """The polynomial of an ``_add_products`` dict, cancelled terms dropped."""
    if not all(acc.values()):
        acc = {m: c for m, c in acc.items() if c}
    return _make(acc)


def sum_of_products(pairs) -> Polynomial:
    """The sum of ``a * b`` over the ``(a, b)`` pairs.

    Each factor is a ``Polynomial``, an int or a ``Fraction``.  This is the
    one place products of polynomials are summed: every product term goes
    through ``_add_products`` into one plain dict, and one ``Polynomial``
    is built at the end.  No factor is mutated.
    """
    acc: dict = {}
    for a, b in pairs:
        _add_products(acc, _factor_terms(a), _factor_terms(b))
    return _collect(acc)


def homogeneous_degree(p: Polynomial):
    """The graded degree shared by every term of p; None if p is 0 or has
    terms in several degrees."""
    degs = {mono_degree(m) for m in p.terms}
    return degs.pop() if len(degs) == 1 else None


#: The prime 2^61 - 1 that ``residue`` reduces modulo.
RESIDUE_PRIME = (1 << 61) - 1


def residue(p: Polynomial) -> int | None:
    """p mod ``RESIDUE_PRIME`` at the point where each symbol is its hash,
    the hash of three ints, which no process salts (only str and bytes
    hashes are); None if the prime divides a coefficient's denominator.

    Evaluation mod a prime is a ring map on the polynomials whose
    denominators the prime does not divide, so a nonzero residue proves
    the polynomial nonzero.  A zero residue proves nothing.
    """
    total = 0
    for mono, coeff in p._terms.items():
        if type(coeff) is int:
            value = coeff
        elif coeff.denominator % RESIDUE_PRIME:
            value = coeff.numerator * pow(coeff.denominator, -1, RESIDUE_PRIME)
        else:
            return None
        for sym, exp in _fields(mono):
            value = value * pow(hash(sym), exp, RESIDUE_PRIME) % RESIDUE_PRIME
        total += value
    return total % RESIDUE_PRIME
