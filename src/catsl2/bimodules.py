"""Iterated one-step bimodules with a canonical normal form.

A flag path ``(k_0, ..., k_m)`` (unit steps, entries in ``[0, N]``) with an
integer grading shift names the tensor product over the junction rings of
the one-step rings for the pairs ``{k_{i-1}, k_i}``.  Factor ``i`` is an
up-step if ``k_i = k_{i-1} + 1`` and a down-step otherwise; paths that
leave ``[0, N]`` denote the zero bimodule.

Every element has a unique normal form: a linear combination of bounded
xi-monomials ``xi_1^{a_1} x ... x xi_m^{a_m}`` (``a_i <= k`` on an up-step
factor with lower ring k, ``a_i <= N-k-1`` on a down-step factor) with
coefficients in the rightmost end ring.  The rewriting system that
computes it has two rule families:

* R1 (junction transport): a generator of the junction ring between
  factors i and i+1 written on the left of the tensor sign equals its
  expression on the right, via the exchange relations of the one-step
  ring; transport pushes every ring generator toward the last factor.
* R2 (xi-power reduction): in an up-step factor with lower ring k the
  monic relation 0 = x[k+1]@nu expands xi^(k+1) into lower xi-powers with
  upper-ring coefficients; dually y[N-k]@(nu+2) bounds a down-step factor.
  The step ring is free over its right end ring with basis 1, xi, ...,
  xi^bound, so reduction is synthetic division by that one monic
  relation.  Both rules and the embedding into the next factor are
  linear, so content is pushed once per monomial and context; neither
  rule touches the right-junction generators (the rest), so a monomial is
  pushed as its core times its rest.  The embedding is a ring
  homomorphism, so a core is built in the ring it is stored in, one core
  table per next factor: its prefix (one unit of one field fewer) times
  the field's embedded image, reduced from xi-degree at most 2*bound by
  the embedded relation; the rest is embedded apart.  All that the pushes
  derive or memoize depends only on the factor context ``(N, j, up, pos)``
  and the next factor's, and is kept in its ``_Factor`` record.

Both rule families strictly decrease a lexicographic measure (the tests
compute it with ``rewrite_measure`` in ``tests/helpers.py``), so rewriting
terminates for any strategy order, and the bounded monomials form a free
basis over the rightmost ring, making equality of normal forms syntactic.

A normal form is stored as one packed polynomial (``BimElement``): the
exponent of xi_i sits in the field of ``xi_sym(i)``, the right-ring
monomial in its own fields, and a sum of elements is one
``exactpoly._add_products`` per part into one dict (``_sum_terms``).
Either rewriting order clears factors 1..m-1 on terms with rational
coefficients; only ``_settle``, the last step of both, pushes the last
factor (from one packed entry per core), so right-ring coefficients
appear there alone.

Input is checked once, where it enters, against the catalog of the ring
it lives in: ``RawTensor`` each factor, ``inject_at_junction`` a junction
polynomial, ``act`` an action polynomial and the ``BimElement``
constructor its vectors and coefficients.  What the engine builds itself
goes through ``_inject_at_junction``, ``_xi_entries`` and ``_wrap``
unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .exactpoly import (
    FIELD_BITS,
    FIELD_MASK,
    MAX_EXPONENT,
    Polynomial,
    _add_products,
    _collect,
    _factor_terms,
    _make,
    _overflow,
    field_shift,
    homogeneous_degree,
    render_int,
    require_int,
    xi_sym,
)
from .grassrings import GrassContext, StepRing, ring_catalog, step_catalog
from .qlaurent import Laurent


@dataclass(frozen=True)
class FlagPath:
    """A sequence of unit-step ring indices plus a grading shift.

    ``rings`` may step outside ``[0, N]``; such a path denotes the zero
    bimodule (``is_zero``) and every element of it normalizes to zero.

    ``is_zero``, ``num_factors`` and ``_steps`` (one ``(lower ring, xi
    bound)`` pair per factor) are computed once in ``__post_init__`` and
    stored outside the dataclass fields, so equality, hashing and repr see
    only ``N``, ``rings`` and ``shift``.
    """

    N: int
    rings: tuple
    shift: int = 0

    def __post_init__(self):
        require_int(self.N, "N")
        require_int(self.shift, "shift")
        if not isinstance(self.rings, tuple):
            raise TypeError("rings must be a tuple of int, not %s"
                            % type(self.rings).__name__)
        for r in self.rings:
            require_int(r, "a ring index")
        if len(self.rings) < 1:
            raise ValueError("a path needs at least one ring")
        steps = []
        for a, b in zip(self.rings, self.rings[1:]):
            if abs(a - b) != 1:
                raise ValueError("path steps must change k by exactly 1")
            j = min(a, b)
            steps.append((j, j if b > a else self.N - j - 1))
        object.__setattr__(self, "is_zero",
                           any(r < 0 or r > self.N for r in self.rings))
        object.__setattr__(self, "_steps", tuple(steps))
        object.__setattr__(self, "num_factors", len(steps))

    @property
    def right_ring(self) -> int:
        return self.rings[-1]

    def is_up(self, i: int) -> bool:
        """True if factor i (1-based) is an up-step."""
        return self.rings[i] > self.rings[i - 1]

    def step_ring(self, i: int) -> StepRing:
        return StepRing(self.N, self._steps[i - 1][0], xi_pos=i)

    def bound(self, i: int) -> int:
        return self._steps[i - 1][1]

    def junction(self, g: int) -> GrassContext:
        """The junction ring after factor g (g = 0 .. m)."""
        return GrassContext(self.N, self.rings[g])

    def insert_excursion(self, g: int, mid: int, delta_shift: int = 0) -> "FlagPath":
        """Insert the two factors (rings[g], mid), (mid, rings[g]) at junction g."""
        rings = self.rings[:g + 1] + (mid, self.rings[g]) + self.rings[g + 1:]
        return FlagPath(self.N, rings, self.shift + delta_shift)

    def remove_excursion(self, i: int, delta_shift: int = 0) -> "FlagPath":
        """Remove factors i, i+1 (which must return to the same ring)."""
        if self.rings[i - 1] != self.rings[i + 1]:
            raise ValueError("factors %d,%d do not form an excursion" % (i, i + 1))
        rings = self.rings[:i] + self.rings[i + 2:]
        return FlagPath(self.N, rings, self.shift + delta_shift)

    def concat(self, other: "FlagPath") -> "FlagPath":
        if other.N != self.N or other.rings[0] != self.rings[-1]:
            raise ValueError("cannot concatenate: %s ends at ring %d of N=%d, %s "
                             "starts at ring %d of N=%d"
                             % (self.render(), self.rings[-1], self.N,
                                other.render(), other.rings[0], other.N))
        return FlagPath(self.N, self.rings + other.rings[1:],
                        self.shift + other.shift)

    def render(self) -> str:
        body = ",".join(render_int(r) for r in self.rings)
        if self.shift:
            sign = "+" if self.shift > 0 else ""
            return "(%s){%s%s}" % (body, sign, render_int(self.shift))
        return "(%s)" % body


@dataclass(frozen=True)
class RawTensor:
    """A formal tensor of per-factor polynomials in canonical generators."""

    path: FlagPath
    factors: tuple

    def __post_init__(self):
        if len(self.factors) != self.path.num_factors:
            raise ValueError("need one factor polynomial per path step")
        if self.path.num_factors == 0:
            raise ValueError("raw tensors need at least one factor; "
                             "identity-path elements are plain ring polynomials")
        path = self.path
        if not path.is_zero:
            for i, poly in enumerate(self.factors, start=1):
                _check_catalog(poly, step_catalog(path.N, path._steps[i - 1][0], i),
                               "factor %d" % i)


def _check_catalog(poly: Polynomial, catalog: frozenset, where: str):
    """Raise unless ``poly`` is in ``catalog``, the generators of ``where``."""
    bad = poly.symbols() - catalog
    if bad:
        raise ValueError("%s uses non-canonical generators: %s"
                         % (where, ", ".join(sorted(s.render() for s in bad))))


@lru_cache(maxsize=None)
def _xi_fields(m: int) -> tuple:
    """The bit offsets of the fields of xi_1 .. xi_m, and their mask."""
    shifts = tuple(field_shift(xi_sym(i)) for i in range(1, m + 1))
    return shifts, sum(FIELD_MASK << s for s in shifts)


def _xi_key(path: FlagPath, vec) -> int:
    """The packed xi-part of an exponent vector of ``path``, bounded or
    not; an exponent past its field raises instead of carrying."""
    shifts = _xi_fields(path.num_factors)[0]
    if len(vec) != len(shifts):
        raise ValueError("need one exponent per path step")
    key = 0
    for e, shift in zip(vec, shifts):
        if not 0 <= e <= MAX_EXPONENT:
            if e < 0:
                raise ValueError("negative exponent %d" % e)
            raise _overflow()
        key += e << shift
    return key


def _xi_vector(path: FlagPath, xi: int) -> tuple:
    """The exponent vector of a packed xi-part of ``path``."""
    return tuple(xi >> shift & FIELD_MASK for shift in _xi_fields(path.num_factors)[0])


class BimElement:
    """Normal-form element as one packed polynomial.

    ``terms`` maps a packed key, a basis vector (a_i in the field of
    ``xi_sym(i)``) plus a right-end-ring monomial, to a nonzero rational.
    Elements are never mutated; stored map images are shared.
    """

    __slots__ = ("path", "terms")

    def __init__(self, path: FlagPath, terms=None):
        """``sum xi^vec * coeff`` over the ``{vec: coeff}`` items; a vector
        past its bounds or a coefficient outside the right end ring raises."""
        self.path = path
        packed = {}
        if terms and not path.is_zero:
            catalog = ring_catalog(path.N, path.right_ring)
            for vec, coeff in terms.items():
                xi = _xi_key(path, vec)
                if any(e > b for e, (_, b) in zip(vec, path._steps)):
                    raise ValueError("xi^%s is past the bounds of %s"
                                     % (list(vec), path.render()))
                if type(coeff) is not Polynomial:
                    coeff = _make(_factor_terms(coeff))
                _check_catalog(coeff, catalog, "coefficient of xi^%s" % (list(vec),))
                for mono, c in coeff.terms.items():
                    packed[xi + mono] = c
        self.terms = packed

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(path: FlagPath) -> "BimElement":
        return _wrap(path, {})

    @staticmethod
    def basis_vector(path: FlagPath, vec, coeff=None) -> "BimElement":
        return BimElement(path, {tuple(vec): 1 if coeff is None else coeff})

    @staticmethod
    def from_ring_poly(path: FlagPath, poly: Polynomial) -> "BimElement":
        if path.num_factors != 0:
            raise ValueError("from_ring_poly is for identity paths")
        return BimElement(path, {(): poly})

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "BimElement") -> "BimElement":
        return linear_sum(self.path, ((self, 1), (other, 1)))

    def __neg__(self) -> "BimElement":
        return linear_sum(self.path, ((self, -1),))

    def __sub__(self, other: "BimElement") -> "BimElement":
        return linear_sum(self.path, ((self, 1), (other, -1)))

    def scale(self, c) -> "BimElement":
        """The element times a rational or a right-ring polynomial."""
        return self if c == 1 else linear_sum(self.path, ((self, c),))

    right_mul = scale

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, BimElement):
            return NotImplemented
        return self.path == other.path and self.terms == other.terms

    def __hash__(self):
        return hash((self.path, frozenset(self.terms.items())))

    def __reduce__(self):
        # slot numbers are private to a process: pickle vectors and polynomials
        return BimElement, (self.path, dict(_vector_terms(self)))

    def degree(self):
        """Graded degree (without the path shift); None if 0 or inhomogeneous."""
        return homogeneous_degree(_make(self.terms))

    def render(self) -> str:
        if not self.terms:
            return "0"
        if self.path.num_factors == 0:
            return _make(self.terms).render()
        pieces = []
        for vec, coeff in _vector_terms(self):
            body = " | ".join("xi^%d" % e if e > 1 else ("xi" if e else "1")
                              for e in vec)
            c = coeff.render()
            pieces.append(body if c == "1" else "(%s) * (%s)" % (c, body))
        return " + ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "BimElement(%s, %s)" % (self.path.render(), self.render())


def _wrap(path: FlagPath, terms: dict) -> BimElement:
    """Wrap a packed dict, uncopied, less the coefficients that cancelled."""
    if not all(terms.values()):
        terms = {key: c for key, c in terms.items() if c}
    out = BimElement.__new__(BimElement)
    out.path = path
    out.terms = terms
    return out


def _by_xi(element: BimElement, mask: int | None = None) -> dict:
    """The terms of ``element`` by xi-part: xi-part -> coefficient terms.

    ``mask`` picks the xi fields that split (default: every field of the
    path); the fields it leaves out stay in the coefficient terms' keys.
    """
    if mask is None:
        mask = _xi_fields(element.path.num_factors)[1]
    groups: dict = {}
    for key, c in element.terms.items():
        xi = key & mask
        group = groups.get(xi)
        if group is None:
            groups[xi] = {key - xi: c}
        else:
            group[key - xi] = c
    return groups


def _vector_terms(element: BimElement) -> list:
    """The ``(vec, coefficient polynomial)`` pairs of ``element``, sorted."""
    return sorted((_xi_vector(element.path, xi), _make(group))
                  for xi, group in _by_xi(element).items())


def _sum_terms(path: FlagPath, pairs) -> BimElement:
    """The sum of ``scale * element`` over ``(scale, element)`` pairs, each
    scale a packed dict: one ``_add_products`` per pair into one dict."""
    acc: dict = {}
    for scale, element in pairs:
        if element.path is not path and element.path != path:
            raise ValueError("elements live in different bimodules: %s vs %s"
                             % (path.render(), element.path.render()))
        _add_products(acc, scale, element.terms)
    return _wrap(path, acc)


def linear_sum(path: FlagPath, parts) -> BimElement:
    """The sum of ``element * c`` over the ``(element, c)`` parts.

    ``c`` is a rational or a right-ring polynomial, and every element must
    live in ``path``.  Each part is one ``_add_products`` into one dict (a
    scalar keeps the element's key objects), and no ``Polynomial`` is
    built.  No part is mutated (stored map images are shared).
    """
    return _sum_terms(path, ((_factor_terms(c), element) for element, c in parts))


# ---------------------------------------------------------------------------
# rewriting to normal form
# ---------------------------------------------------------------------------


class _Factor:
    """What the kernel derives and memoizes for one factor context.

    A context is ``(N, j, up, pos)``: factor ``pos`` of a path, with lower
    ring j, an up-step or not.  Derived once: the xi ``bound``, the bit
    offset ``shift`` of the xi field and the mask ``strip`` that clears it,
    the ``signed`` generators g_t of the monic xi relation, the ``images``
    of the core fields (bit offset -> the image, xi or a left-junction
    generator via the right ones, as ``(a, terms)`` pieces: each term, of
    xi-degree a, with xi stripped), the ``embed`` table of the left end ring,
    and the mask ``rest`` of the right-junction fields.  Memoized, each
    entry added with ``setdefault`` and never mutated, per next factor's
    record (``None`` after the last factor): ``lifts`` (the image pieces
    and the g_t in the next factor's ring) and ``cores`` (core -> its push,
    seeded with core 0; the core of xi^e is its reduced xi-power); for a
    next factor only, ``pushes`` (monomial -> buckets); and ``embedded``
    (left-end-ring polynomial -> content).
    """

    __slots__ = ("bound", "shift", "strip", "signed", "images", "embed",
                 "rest", "lifts", "cores", "pushes", "embedded")

    def __init__(self, N: int, j: int, up: bool, pos: int):
        ring = StepRing(N, j, xi_pos=pos)
        # an up-step transports the x's, a down-step the y's: the left end
        # owns them, and the g_t of the xi relation are the right end's
        letter = "x" if up else "y"
        left, right = ring.ends(letter)
        step = step_catalog(N, j, pos)
        self.bound = left.top(letter)
        self.shift = field_shift(xi_sym(pos))
        self.strip = ~(FIELD_MASK << self.shift)
        self.signed = [g if t % 2 else -g
                       for t, g in enumerate(right.gens(letter)[1:], start=1)]
        images = {sym: ring.transport(sym) for sym in sorted(left.catalog() & step)}
        images[xi_sym(pos)] = ring.xi()
        self.images = {field_shift(sym): tuple(((m >> self.shift) & FIELD_MASK,
                                                {m & self.strip: c})
                                               for m, c in image.terms.items())
                       for sym, image in images.items()}
        self.embed = {sym: ring.embed_end(sym) for sym in left.catalog()}
        self.rest = sum(FIELD_MASK << field_shift(sym)
                        for sym in sorted(right.catalog() & step))
        self.lifts, self.cores, self.pushes, self.embedded = {}, {}, {}, {}


# The one process-wide kernel table: factor context -> its ``_Factor``.
_FACTORS: dict = {}


def _factor(path: FlagPath, i: int) -> _Factor:
    """The record of factor i of ``path``, built and added once."""
    key = (path.N, path._steps[i - 1][0], path.is_up(i), i)
    f = _FACTORS.get(key)
    if f is None:
        f = _FACTORS.setdefault(key, _Factor(*key))
    return f


def _core_table(f: _Factor, nxt) -> dict:
    """``f.cores[nxt]``, seeded with core 0, made on first use with
    ``f.lifts[nxt]``: the image pieces and the g_t, their non-xi parts
    embedded through ``nxt.embedded`` (kept if ``nxt`` is ``None``)."""
    table = f.cores.get(nxt)
    if table is None:
        def lift(terms):
            if nxt is None or terms.keys() == {0}:
                return terms
            return _embedded(nxt, _make(terms)).terms
        f.lifts.setdefault(nxt, (
            {low: tuple((a, lift(piece)) for a, piece in pieces)
             for low, pieces in f.images.items()},
            [lift(g.terms) for g in f.signed]))
        table = f.cores.setdefault(nxt, {0: {0: 1} if nxt is None else ((0, {0: 1}),)})
    return table


def _reduce_buckets(acc: dict, bound: int, signed) -> tuple:
    """The buckets of ``acc`` (xi-degree -> packed monomial dict) reduced
    to xi-degree at most ``bound``, as ``(e, terms)`` pairs, ``e``
    ascending, with the buckets that cancel dropped.

    Synthetic division by the monic xi relation: from the top down each
    bucket ``B_e`` above the bound is replaced by ``sum_t g_t * B_e`` at
    degree ``e - t``, after its cancelled terms are dropped, with the
    ``signed`` generators g_t (x[t]@(nu+2) on an up-step, y[t]@nu on a
    down-step, sign (-1)^(t+1)) given by their terms in the ring of the
    buckets.  ``_core_buckets``, its one caller, passes xi-degrees of at
    most twice the bound (1 at bound 0).
    """
    for e in range(max(acc, default=0), bound, -1):
        bucket = acc.pop(e, None)
        if bucket and not all(bucket.values()):
            bucket = {m: c for m, c in bucket.items() if c}
        if bucket:
            for t, g in enumerate(signed, start=1):
                _add_products(acc.setdefault(e - t, {}), g, bucket)
    return _kept(acc)


def _kept(acc: dict) -> tuple:
    """The ``(e, bucket)`` pairs of ``acc``, ``e`` ascending, with the
    cancelled terms and the buckets that cancel wholly dropped."""
    out = []
    for e in sorted(acc):
        bucket = acc[e]
        if not all(bucket.values()):
            bucket = {m: c for m, c in bucket.items() if c}
        if bucket:
            out.append((e, bucket))
    return tuple(out)


def _core_buckets(f: _Factor, nxt, core):
    """The entry of ``core`` in ``f.cores[nxt]``, ``core = sum xi^e * terms``
    after transport and reduction, ``e`` within the bound and ``terms`` a
    packed monomial dict in the g_t: for a next factor ``(e, terms)``
    pairs, ``e`` ascending, embedded in its step ring; after the last
    factor (``nxt`` is ``None``) that sum as one packed dict.

    A core is its prefix (one unit of its lowest field fewer) times that
    field's image: each bucket of the prefix (a packed entry split by the
    xi field) times each image piece, at the sum of their xi-degrees, then
    reduced.  Prefix and image are within the bound, or the image is xi,
    so the product has xi-degree at most twice the bound, or 1.  Embedding
    is a ring homomorphism and transport and reduction are linear, so all
    is done in the next factor's ring.  The core of xi^e is the reduced
    xi^e.  The prefix chain down to a stored core is walked in a loop, and
    each core on it is stored.
    """
    table = _core_table(f, nxt)
    out = table.get(core)
    if out is None:
        chain = []        # (core, offset of the field its prefix lacks one unit of)
        while out is None:
            low = ((core & -core).bit_length() - 1) // FIELD_BITS * FIELD_BITS
            chain.append((core, low))
            core -= 1 << low
            out = table.get(core)
        images, signed = f.lifts[nxt]
        for core, low in reversed(chain):
            if nxt is None:
                split: dict = {}
                for key, c in out.items():
                    split.setdefault(key >> f.shift & FIELD_MASK, {})[key & f.strip] = c
                out = split.items()
            acc: dict = {}    # xi-degree -> {packed monomial: rational}
            for a, piece in images[low]:
                for e, bucket in out:
                    _add_products(acc.setdefault(e + a, {}), piece, bucket)
            out = _reduce_buckets(acc, f.bound, signed)
            if nxt is None:
                packed: dict = {}
                for e, bucket in out:
                    _add_products(packed, {e << f.shift: 1}, bucket)
                out = packed
            out = table.setdefault(core, out)
    return out


def _embedded(f: _Factor, ring_poly: Polynomial) -> Polynomial:
    """A left-end-ring polynomial of factor ``f`` embedded as its content."""
    out = f.embedded.get(ring_poly)
    if out is None:
        out = f.embedded.setdefault(ring_poly, ring_poly.substitute(f.embed))
    return out


def _store_push(f: _Factor, nxt: _Factor, table: dict, mono):
    """Compute and store the entry of ``mono`` in ``table``, ``f.pushes[nxt]``:
    ``(e, terms)`` pairs as in ``f.cores[nxt]``, with ``mono = sum xi^e * terms``.

    Transport rewrites only the left-junction generators and the reduction
    multiplies only by xi and the g_t, so the right-junction generators of
    a monomial (the y's of an up-step, the x's of a down-step, the fields
    of ``f.rest``) pass through: the entry is the core's entry (every other
    field) times that rest as embedded through ``nxt.embedded``.  With no
    rest the entry is the core's entry itself."""
    rest = mono & f.rest
    buckets = _core_buckets(f, nxt, mono - rest)
    if not rest:
        return table.setdefault(mono, buckets)
    tail = _embedded(nxt, _make({rest: 1})).terms
    out = []
    for e, content in buckets:
        acc: dict = {}
        _add_products(acc, tail, content)
        out.append((e, _collect(acc).terms))
    return table.setdefault(mono, tuple(out))


def _push_content(f: _Factor, nxt: _Factor, terms):
    """The pushes of the monomials of ``terms`` across the right junction
    of factor ``f`` into the next factor ``nxt``, weighted by their
    coefficients, as ``(e, dict)`` pairs; buckets that cancel are dropped.

    Transport, reduction and embedding are linear, so a content polynomial
    costs only the monomials not pushed before.  A single monomial with
    coefficient 1 returns its stored entry; the stored dicts are shared
    (by wrapping polynomials too) and never mutated.
    """
    table = f.pushes.get(nxt)
    if table is None:
        table = f.pushes.setdefault(nxt, {})
    if len(terms) == 1:
        (mono, c), = terms.items()
        if c == 1:
            return table.get(mono) or _store_push(f, nxt, table, mono)
    acc: dict = {}        # e -> {packed monomial: rational}
    for mono, c in terms.items():
        for e, content in table.get(mono) or _store_push(f, nxt, table, mono):
            bucket = acc.get(e)
            if bucket is None:
                acc[e] = {m: c * cb for m, cb in content.items()}
                continue
            for m, cb in content.items():
                prev = bucket.get(m)
                bucket[m] = c * cb if prev is None else prev + c * cb
    return _kept(acc)


# In-flight entries (see ``normalize``) are made only by ``_entry`` and
# ``_xi_entries``, so a polynomial entry is never a monic bounded xi-power:
# a factor is settled exactly when its entry is an int.


def _entry(poly: Polynomial, f: _Factor):
    """The in-flight entry of a polynomial of factor ``f``.

    The exponent if ``poly`` is a monic xi-power within the bound (the
    factor is settled), else ``poly`` itself.
    """
    terms = poly.terms
    if len(terms) == 1:
        (mono, coeff), = terms.items()
        shift = f.shift
        exp = mono >> shift
        if coeff == 1 and exp <= f.bound and exp << shift == mono:
            return exp
    return poly


def _xi_entries(path: FlagPath, vec, i: int = 0,
                content: Polynomial | None = None) -> tuple:
    """The entries of the tensor xi_1^{v_1} x ... x xi_m^{v_m}, with
    ``content`` multiplied into factor i if given.  ``content`` must be in
    the generators of factor i's step ring; it is not checked, as both
    callers, ``_inject_at_junction`` (a junction polynomial, embedded) and
    the cup generator, pass canonical content."""
    if len(vec) != path.num_factors:
        raise ValueError("need one exponent per path step")
    entries = tuple(e if 0 <= e <= path.bound(n) else Polynomial.gen(xi_sym(n), e)
                    for n, e in enumerate(vec, start=1))
    if content is None:
        return entries
    if vec[i - 1]:
        content = content * Polynomial.gen(xi_sym(i), vec[i - 1])
    return entries[:i - 1] + (_entry(content, _factor(path, i)),) + entries[i:]


def _clear_factor(path: FlagPath, terms, i: int):
    """Push the content of factor i (i < m) across its right junction into
    factor i+1, in every term; yields the new terms."""
    f = _factor(path, i)
    nxt = _factor(path, i + 1)
    for factors, coeff in terms:
        entry = factors[i - 1]
        if type(entry) is int:
            yield factors, coeff
            continue
        head, g, tail = factors[:i - 1], factors[i], factors[i + 1:]
        for e, content in _push_content(f, nxt, entry._terms):
            if type(g) is not int:
                acc: dict = {}
                _add_products(acc, g._terms, content)
                new = _collect(acc)
            elif g:
                acc = {}
                _add_products(acc, {g << nxt.shift: 1}, content)
                new = _make(acc)
            else:
                new = _make(content)
            yield head + (e, _entry(new, nxt)) + tail, coeff


def _has_content(terms, i: int) -> bool:
    """True if factor i holds content in some in-flight term."""
    return any(type(factors[i - 1]) is not int for factors, _ in terms)


def _settle(path: FlagPath, terms) -> dict:
    """The packed terms of in-flight terms settled before the last factor.

    Each monomial ``c * core * rest`` of a term's last entry (an int entry
    e is xi^e) adds ``coeff * c`` at ``xi^heads * rest`` to the multiplier
    of its core; then each core's multiplier times its packed entry in
    ``f.cores[None]`` is one ``_add_products``.  An entry holds only xi and
    the g_t, so the rest cannot carry, and terms that share heads add up.
    """
    m = path.num_factors
    f = _factor(path, m)
    heads = _xi_fields(m)[0][:-1]
    table = _core_table(f, None)
    scales: dict = {}     # core -> {packed xi^heads * rest: rational}
    for factors, coeff in terms:
        xi = 0
        for e, shift in zip(factors, heads):
            xi += e << shift
        entry = factors[-1]
        last = {entry << f.shift: 1} if type(entry) is int else entry._terms
        for mono, c in last.items():
            rest = mono & f.rest
            key = xi + rest
            scale = scales.get(mono - rest)
            if scale is None:
                scales[mono - rest] = {key: coeff * c}
            else:
                prev = scale.get(key)
                scale[key] = coeff * c if prev is None else prev + coeff * c
    out: dict = {}
    for core, scale in scales.items():
        _add_products(out, scale, table.get(core) or _core_buckets(f, None, core))
    return out


def _normal_form(path: FlagPath, terms: list, order: str = "ltr",
                 on_step: Callable | None = None) -> BimElement:
    """Normal form of the sum of weighted in-flight terms ``(entries,
    coeff)`` on a nonzero path (``normalize`` checks ``order``)."""
    m = path.num_factors
    if all(type(e) is int for factors, _ in terms for e in factors):
        acc: dict = {}
        for factors, coeff in terms:
            key = _xi_key(path, factors)
            acc[key] = acc.get(key, 0) + coeff
        return _wrap(path, acc)
    # clearing factor i rewrites only factors i and i+1, and a cleared
    # factor only gets content again from its left neighbour: one sweep
    # left to right clears all, and right to left sweeps repeat until one
    # clears nothing.  Terms that become alike are added up when they settle.
    sweep = range(1, m) if order == "ltr" else range(m - 1, 0, -1)
    cleared = True
    while cleared:
        cleared = False
        for i in sweep:
            if _has_content(terms, i):
                cleared = True
                terms = list(_clear_factor(path, terms, i))
                if on_step is not None:
                    on_step(terms)
    element = _wrap(path, _settle(path, terms))
    if on_step is not None and _has_content(terms, m):
        on_step(_vector_terms(element))
    return element


def normalize(raw: RawTensor, order: str = "ltr",
              on_step: Callable | None = None) -> BimElement:
    """Canonical normal form of a raw tensor.

    ``RawTensor`` has checked the factors against their step-ring catalogs
    (user input is validated there, once).  Here each factor becomes an
    in-flight entry: the ``int`` exponent of a monic bounded xi-power, or
    the content polynomial otherwise.  An in-flight term is a tuple of
    such entries with a rational coefficient; rewriting pushes content
    rightward until every entry before the last is an int, and the last
    step (``_settle``) pushes the last entry into the right end ring and
    packs each term's basis vectors and right-ring coefficients into the
    element's keys.  ``normalize_xi_vector`` and ``_inject_at_junction``
    enter the same rewriting without a ``RawTensor``, with the one term
    that ``_xi_entries`` builds; ``normalize_sum``, ``gen_crossing`` and
    ``gen_cup`` hand it one list with a weighted term per raw tensor of a
    sum or per term of the generator's image.

    ``order`` picks the junction-processing strategy for factors 1..m-1:
    "ltr" clears them left to right (one pass suffices), "rtl" sweeps right
    to left until a fixpoint; both reach the same normal form.  In both orders
    ``on_step`` is called with the list of in-flight terms after every
    factor-clearing step that changed it, and, if the last factor held
    content, with the settled ``(vec, coefficient)`` pairs.
    """
    if order not in ("ltr", "rtl"):
        raise ValueError("unknown rewriting order %r" % order)
    path = raw.path
    if path.is_zero:
        return BimElement.zero(path)
    return _normal_form(path, [(_entries(raw), 1)], order, on_step)


def _entries(raw: RawTensor) -> tuple:
    """The in-flight entries of the factors of a raw tensor."""
    path = raw.path
    return tuple(_entry(poly, _factor(path, i))
                 for i, poly in enumerate(raw.factors, start=1))


def normalize_sum(path: FlagPath, parts) -> BimElement:
    """Normal form of the sum of ``c * raw`` over the ``(raw, c)`` parts,
    raw tensors on ``path`` and rational ``c``: the parts' in-flight terms
    are rewritten as one list and settled once."""
    if path.is_zero:
        return BimElement.zero(path)
    terms = []
    for raw, c in parts:
        if raw.path != path:
            raise ValueError("raw tensors live in different bimodules: %s vs %s"
                             % (path.render(), raw.path.render()))
        terms.append((_entries(raw), c))
    return _normal_form(path, terms)


# ---------------------------------------------------------------------------
# module structure
# ---------------------------------------------------------------------------


def normalize_xi_vector(path: FlagPath, vec) -> BimElement:
    """Normal form of a (possibly out-of-bound) xi-exponent vector."""
    if path.is_zero:
        return BimElement.zero(path)
    return _normal_form(path, [(_xi_entries(path, vec), 1)])


def _check_junction(path: FlagPath, g: int, ring_poly: Polynomial):
    """Raise unless ``ring_poly`` is in the ring at junction g of ``path``."""
    if not path.is_zero:
        _check_catalog(ring_poly, ring_catalog(path.N, path.rings[g]), "junction %d" % g)


def inject_at_junction(path: FlagPath, g: int, ring_poly: Polynomial,
                       vec=None) -> BimElement:
    """Normal form of xi^vec with a junction-ring polynomial inserted at g.

    ``ring_poly`` must be in the generators of the ring at junction g, as
    checked here.  For g = m this is right multiplication; otherwise the
    polynomial enters factor g+1 through its left-end embedding.
    """
    _check_junction(path, g, ring_poly)
    return _inject_at_junction(path, g, ring_poly, vec)


def _inject_at_junction(path: FlagPath, g: int, ring_poly: Polynomial,
                        vec=None) -> BimElement:
    """``inject_at_junction`` unchecked, for content built or checked before."""
    if path.is_zero:
        return BimElement.zero(path)
    m = path.num_factors
    vec = tuple(vec) if vec is not None else (0,) * m
    if m == 0:
        return _wrap(path, ring_poly.terms)
    if g == m:
        return normalize_xi_vector(path, vec).right_mul(ring_poly)
    content = _embedded(_factor(path, g + 1), ring_poly)
    return _normal_form(path, [(_xi_entries(path, vec, g + 1, content), 1)])


def act(side: str, poly: Polynomial, element: BimElement) -> BimElement:
    """Left or right action of an end ring on a normal-form element: the
    tensor product with ``poly`` as an element of that ring's identity path."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    path = element.path
    if path.is_zero:
        return element
    k = path.rings[0 if side == "left" else -1]
    _check_catalog(poly, ring_catalog(path.N, k), "%s action polynomial" % side)
    ring = _wrap(FlagPath(path.N, (k,)), poly.terms)
    return tensor(ring, element) if side == "left" else tensor(element, ring)


def tensor(a: BimElement, b: BimElement) -> BimElement:
    """Tensor product over the shared junction ring, renormalized."""
    path = a.path.concat(b.path)
    if path.is_zero:
        return BimElement.zero(path)
    left = [(_xi_vector(a.path, xa), _make(ca)) for xa, ca in _by_xi(a).items()]
    return _sum_terms(path, ((cb, _inject_at_junction(path, a.path.num_factors, ca,
                                                      va + _xi_vector(b.path, xb)))
                             for xb, cb in _by_xi(b).items() for va, ca in left))


def basis(path: FlagPath) -> list:
    """All bounded exponent vectors, in lexicographic order."""
    if path.is_zero:
        return []
    vecs = [()]
    for i in range(1, path.num_factors + 1):
        bound = path.bound(i)
        vecs = [v + (e,) for v in vecs for e in range(bound + 1)]
    return vecs


def graded_rank(path: FlagPath) -> Laurent:
    """Sum of q^(2*|vec| + shift) over the free basis, in closed form.

    The basis is the product of the per-factor ranges ``0..bound(i)``, so
    the sum is q^shift times the product of the q-blocks
    ``1 + q^2 + ... + q^(2*bound(i))``.  The product is kept as a dense
    list over ``|vec|`` and each block is multiplied in with a sliding
    window sum, in time linear in the result's term count per factor;
    the basis is never enumerated.
    """
    if path.is_zero:
        return Laurent.zero()
    counts = [1]                 # counts[d]: basis vectors with |vec| = d
    for i in range(1, path.num_factors + 1):
        width = path.bound(i) + 1
        if width == 1:
            continue
        window = 0
        product = []
        for d in range(len(counts) + width - 1):
            if d < len(counts):
                window += counts[d]
            if d >= width:
                window -= counts[d - width]
            product.append(window)
        counts = product
    return Laurent({2 * d + path.shift: c for d, c in enumerate(counts)})
