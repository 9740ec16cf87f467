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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .exactpoly import (
    FIELD_BITS,
    FIELD_MASK,
    Polynomial,
    _add_products,
    _collect,
    _factor_terms,
    _make,
    field_shift,
    mono_degree,
    x_sym,
    xi_sym,
    y_sym,
)
from .grassrings import GrassContext, StepRing, step_catalog
from .qlaurent import Laurent


@dataclass(frozen=True)
class FlagPath:
    """A sequence of unit-step ring indices plus a grading shift.

    ``rings`` may step outside ``[0, N]``; such a path denotes the zero
    bimodule (``is_zero``) and every element of it normalizes to zero.

    ``is_zero`` and ``_steps`` (one ``(lower ring, xi bound)`` pair per
    factor) are computed once in ``__post_init__`` and stored outside the
    dataclass fields, so equality, hashing and repr see only ``N``,
    ``rings`` and ``shift``.
    """

    N: int
    rings: tuple
    shift: int = 0

    def __post_init__(self):
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

    @property
    def num_factors(self) -> int:
        return len(self.rings) - 1

    @property
    def left_ring(self) -> int:
        return self.rings[0]

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
            raise ValueError("paths do not share the junction ring")
        return FlagPath(self.N, self.rings + other.rings[1:],
                        self.shift + other.shift)

    def render(self) -> str:
        body = ",".join(str(r) for r in self.rings)
        if self.shift:
            return "(%s){%+d}" % (body, self.shift)
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
        if not self.path.is_zero:
            for i, poly in enumerate(self.factors, start=1):
                _check_content(self.path, i, poly)


def _check_content(path: FlagPath, i: int, poly: Polynomial):
    """Raise unless ``poly`` is in the generators of factor i's step ring."""
    bad = poly.symbols() - step_catalog(path.N, path._steps[i - 1][0], i)
    if bad:
        raise ValueError("factor %d uses non-canonical generators: %s"
                         % (i, ", ".join(sorted(s.render() for s in bad))))


class BimElement:
    """Normal-form element: bounded xi-monomials with right-ring coefficients."""

    __slots__ = ("path", "terms")

    def __init__(self, path: FlagPath, terms=None):
        self.path = path
        clean = {}
        if terms and not path.is_zero:
            for vec, coeff in terms.items():
                if coeff:
                    clean[vec] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(path: FlagPath) -> "BimElement":
        return BimElement(path, {})

    @staticmethod
    def basis_vector(path: FlagPath, vec, coeff=None) -> "BimElement":
        coeff = Polynomial.one() if coeff is None else coeff
        return BimElement(path, {tuple(vec): coeff})

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

    def degree(self):
        """Graded degree (without the path shift); None if inhomogeneous."""
        degs = set()
        for vec, coeff in self.terms.items():
            base = 2 * sum(vec)
            for mono in coeff.terms:
                degs.add(base + mono_degree(mono))
        if not degs:
            return None
        if len(degs) == 1:
            return degs.pop()
        return None

    def render(self) -> str:
        if not self.terms:
            return "0"
        if self.path.num_factors == 0:
            return " + ".join(c.render() for _, c in sorted(self.terms.items()))
        pieces = []
        for vec in sorted(self.terms):
            coeff = self.terms[vec]
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
    """Wrap a dict that is already clean (no zero coefficients), uncopied."""
    out = BimElement.__new__(BimElement)
    out.path = path
    out.terms = terms
    return out


def linear_sum(path: FlagPath, parts) -> BimElement:
    """The sum of ``element * c`` over the ``(element, c)`` parts.

    ``c`` is a rational or a right-ring polynomial, and every element must
    live in ``path``.  This is the one place elements are summed.  Each
    output vector accumulates packed monomial -> rational in one plain
    dict through ``exactpoly._add_products`` (a key addition and one
    rational product per pair of terms), and one ``Polynomial`` per vector
    is built at the end, after the coefficients that cancelled are
    dropped.  No part's ``terms`` or coefficient is mutated (stored map
    images are shared).
    """
    acc: dict = {}        # vec -> {packed monomial: rational}
    for element, c in parts:
        if element.path != path:
            raise ValueError("elements live in different bimodules: %s vs %s"
                             % (path.render(), element.path.render()))
        scale = _factor_terms(c)
        unit = len(scale) == 1 and scale.get(0) == 1
        for vec, coeff in element.terms.items():
            out = acc.get(vec)
            if out is None:
                if unit:
                    acc[vec] = dict(coeff._terms)     # a copy: parts stay intact
                    continue
                out = acc[vec] = {}
            _add_products(out, scale, coeff._terms)
    terms = {}
    for vec, out in acc.items():
        coeff = _collect(out)
        if coeff:
            terms[vec] = coeff
    return _wrap(path, terms)


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
    and the g_t in the next factor's ring), ``cores`` (core -> buckets in
    that ring, seeded with core 0; the core of xi^e is its reduced
    xi-power) and ``pushes`` (monomial -> buckets); and ``embedded``
    (left-end-ring polynomial -> content).
    """

    __slots__ = ("bound", "shift", "strip", "signed", "images", "embed",
                 "rest", "lifts", "cores", "pushes", "embedded")

    def __init__(self, N: int, j: int, up: bool, pos: int):
        ring = StepRing(N, j, xi_pos=pos)
        self.bound = j if up else N - j - 1
        self.shift = field_shift(xi_sym(pos))
        self.strip = ~(FIELD_MASK << self.shift)
        gen = ring.upper.x if up else ring.lower.y
        self.signed = [gen(t) if t % 2 else -gen(t) for t in range(1, self.bound + 2)]
        if up:
            left = {x_sym(t, ring.nu): ring.lower_x_expansion(t)
                    for t in range(1, j + 1)}
            rest = [y_sym(t, ring.nu + 2) for t in range(1, N - j)]
        else:
            left = {y_sym(t, ring.nu + 2): ring.upper_y_expansion(t)
                    for t in range(1, N - j)}
            rest = [x_sym(t, ring.nu) for t in range(1, j + 1)]
        left[xi_sym(pos)] = ring.xi()
        self.images = {field_shift(sym): tuple(((m >> self.shift) & FIELD_MASK,
                                                {m & self.strip: c})
                                               for m, c in image.terms.items())
                       for sym, image in left.items()}
        end = "lower" if up else "upper"
        self.embed = {sym: ring.embed_end(sym, end)
                      for sym in (ring.lower if up else ring.upper).catalog()}
        self.rest = sum(FIELD_MASK << field_shift(sym) for sym in rest)
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
    """``f.cores[nxt]``, made on first use with ``f.lifts[nxt]``: the image
    pieces and the g_t, their non-xi parts embedded through ``nxt.embedded``
    (kept as they are if ``nxt`` is ``None``, and so are scalars)."""
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
        table = f.cores.setdefault(nxt, {0: ((0, {0: 1}),)})
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


def _core_buckets(f: _Factor, nxt, core) -> tuple:
    """The entry of ``core`` in ``f.cores[nxt]``: ``(e, terms)`` pairs,
    ``e`` ascending and within the bound, with ``core = sum xi^e * terms``
    after transport and reduction, and ``terms`` a packed monomial dict in
    the g_t, embedded in the next factor's step ring unless ``nxt`` is
    ``None``.

    A core is its prefix (one unit of its lowest field fewer) times that
    field's image: each of the prefix's buckets times each image piece,
    at the sum of their xi-degrees, then reduced.  The prefix is within
    the bound and the image within it or 1 (xi itself), so the product has
    xi-degree at most twice the bound, or 1.  The embedding is a ring
    homomorphism and transport and reduction are linear, so it is all done
    in the next factor's ring, with the embedded images and g_t.  The core
    of xi^e is the reduced power xi^e.  The prefix chain down to a stored
    core is walked in a loop, and each core on it is stored.
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
            acc: dict = {}    # xi-degree -> {packed monomial: rational}
            for a, piece in images[low]:
                for e, bucket in out:
                    _add_products(acc.setdefault(e + a, {}), piece, bucket)
            out = table.setdefault(core, _reduce_buckets(acc, f.bound, signed))
    return out


def _embedded(f: _Factor, ring_poly: Polynomial) -> Polynomial:
    """A left-end-ring polynomial of factor ``f`` embedded as its content."""
    out = f.embedded.get(ring_poly)
    if out is None:
        out = f.embedded.setdefault(ring_poly, ring_poly.substitute(f.embed))
    return out


def _into_factor(path: FlagPath, i: int, ring_poly: Polynomial) -> Polynomial:
    """Embed a polynomial in the left-junction ring of factor i as content."""
    return _embedded(_factor(path, i), ring_poly)


def _store_push(f: _Factor, nxt, table: dict, mono) -> tuple:
    """Compute and store the entry of ``mono`` in ``table``, ``f.pushes[nxt]``:
    ``(e, terms)`` pairs as in ``f.cores[nxt]``, with ``mono = sum xi^e * terms``.

    Transport rewrites only the left-junction generators and the reduction
    multiplies only by xi and the g_t, so the right-junction generators of
    a monomial (the y's of an up-step, the x's of a down-step, the fields
    of ``f.rest``) pass through: the entry is the core's entry (every other
    field) times that rest, and with no rest it is the core's entry itself.
    After the last factor the product is a key addition, which cannot carry
    (a bucket holds only the g_t); for a next factor the rest is embedded
    through ``nxt.embedded`` and multiplied."""
    rest = mono & f.rest
    buckets = _core_buckets(f, nxt, mono - rest)
    if not rest:
        return table.setdefault(mono, buckets)
    tail = _embedded(nxt, _make({rest: 1})).terms if nxt is not None else None
    out = []
    for e, content in buckets:
        if tail is None:
            content = {m + rest: c for m, c in content.items()}
        else:
            acc: dict = {}
            _add_products(acc, tail, content)
            content = _collect(acc).terms
        out.append((e, content))
    return table.setdefault(mono, tuple(out))


def _push_content(f: _Factor, nxt, terms):
    """The pushes of the monomials of ``terms`` across the right junction
    of factor ``f`` into ``nxt``, weighted by their coefficients, as
    ``(e, dict)`` pairs; buckets that cancel are dropped.

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
# ``_xi_entries``, so a polynomial entry is never a monic bounded xi-power
# and equal terms have equal tuples, which merging like terms relies on.


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


def _xi_entries(path: FlagPath, vec) -> tuple:
    """The entries of the tensor xi_1^{v_1} x ... x xi_m^{v_m}."""
    if len(vec) != path.num_factors:
        raise ValueError("need one exponent per path step")
    return tuple(e if 0 <= e <= path.bound(i) else Polynomial.gen(xi_sym(i), e)
                 for i, e in enumerate(vec, start=1))


def _clear_factor(path: FlagPath, terms, i: int, merge: bool):
    """Push the content of factor i across its right junction in every term.

    Returns the new terms (if ``merge``, a dict of summed coefficients
    without zeros) and whether any term had content in factor i.
    """
    f = _factor(path, i)
    nxt = _factor(path, i + 1) if i < path.num_factors else None
    one = Polynomial.one()
    if merge:
        out: dict = {}

        def emit(term):
            key, c = term
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    else:
        out = []
        emit = out.append
    changed = False
    for factors, coeff in terms:
        entry = factors[i - 1]
        if type(entry) is int:
            emit((factors, coeff))
            continue
        changed = True
        head, tail = factors[:i - 1], factors[i:]
        for e, content in _push_content(f, nxt, entry._terms):
            if nxt is None:
                if coeff is one:
                    emit((head + (e,), _make(content)))
                else:
                    acc: dict = {}
                    _add_products(acc, coeff._terms, content)
                    emit((head + (e,), _collect(acc)))
                continue
            g = tail[0]
            if type(g) is not int:
                acc = {}
                _add_products(acc, g._terms, content)
                g = _collect(acc)
            elif g:
                acc = {}
                _add_products(acc, {g << nxt.shift: 1}, content)
                g = _make(acc)
            else:
                g = _make(content)
            emit((head + (e, _entry(g, nxt)) + tail[1:], coeff))
    if merge and not all(out.values()):
        out = {key: c for key, c in out.items() if c}
    return out, changed


def _normal_form(path: FlagPath, factors: tuple, order: str = "ltr",
                 on_step: Callable | None = None) -> BimElement:
    """Normal form of the in-flight entries ``factors`` on a nonzero path
    (``normalize`` checks ``order``)."""
    if all(type(f) is int for f in factors):
        return _wrap(path, {factors: Polynomial.one()})
    m = path.num_factors
    terms = [(factors, Polynomial.one())]
    if order == "ltr":
        # one initial term yields distinct heads; the last step merges
        for i in range(1, m + 1):
            terms, changed = _clear_factor(path, terms, i, i == m)
            if changed and on_step is not None:
                on_step(list(terms.items()) if i == m else terms)
    else:
        # sweep right to left repeatedly; a cleared factor only re-dirties
        # when its left neighbour pushes new content into it.  Re-clearing
        # a factor maps terms that differ only there onto one xi-power, so
        # every step merges like terms.
        terms = {factors: Polynomial.one()}
        dirty = set(range(1, m + 1))
        while dirty:
            for i in range(m, 0, -1):
                if i not in dirty:
                    continue
                dirty.discard(i)
                terms, changed = _clear_factor(path, terms.items(), i, True)
                if changed:
                    if i < m:
                        dirty.add(i + 1)
                    if on_step is not None:
                        on_step(list(terms.items()))
    assert all(type(e) is int for vec in terms for e in vec), \
        "a factor is not in normal form"
    return _wrap(path, terms)


def normalize(raw: RawTensor, order: str = "ltr",
              on_step: Callable | None = None) -> BimElement:
    """Canonical normal form of a raw tensor.

    ``RawTensor`` has checked the factors against their step-ring catalogs
    (user input is validated there, once).  Here each factor becomes an
    in-flight entry: the ``int`` exponent of a monic bounded xi-power, or
    the content polynomial otherwise.  An in-flight term is a tuple of
    such entries with a right-ring coefficient; rewriting pushes content
    rightward until every entry is an int, and the tuple is then the basis
    vector.  ``normalize_xi_vector`` and ``inject_into_factor`` enter the
    same rewriting without a ``RawTensor``.

    ``order`` picks the junction-processing strategy: "ltr" clears factors
    left to right (one pass suffices), "rtl" sweeps right to left until a
    fixpoint, merging like terms after every step that changed the terms;
    both reach the same normal form.  ``on_step`` is called with the list
    of in-flight terms after every factor-clearing step that changed it.
    """
    if order not in ("ltr", "rtl"):
        raise ValueError("unknown rewriting order %r" % order)
    path = raw.path
    if path.is_zero:
        return BimElement.zero(path)
    factors = tuple(_entry(poly, _factor(path, i))
                    for i, poly in enumerate(raw.factors, start=1))
    return _normal_form(path, factors, order, on_step)


# ---------------------------------------------------------------------------
# module structure
# ---------------------------------------------------------------------------


def normalize_xi_vector(path: FlagPath, vec) -> BimElement:
    """Normal form of a (possibly out-of-bound) xi-exponent vector."""
    if path.is_zero:
        return BimElement.zero(path)
    if path.num_factors == 0:
        return BimElement.from_ring_poly(path, Polynomial.one())
    return _normal_form(path, _xi_entries(path, vec))


def inject_into_factor(path: FlagPath, i: int, content: Polynomial,
                       vec) -> BimElement:
    """Normal form of xi^vec with ``content`` multiplied into factor i.

    ``content`` must be in the generators of factor i's step ring; it is
    checked here, where it enters.
    """
    if path.is_zero:
        return BimElement.zero(path)
    _check_content(path, i, content)
    entries = list(_xi_entries(path, vec))
    if vec[i - 1]:
        content = content * Polynomial.gen(xi_sym(i), vec[i - 1])
    entries[i - 1] = _entry(content, _factor(path, i))
    return _normal_form(path, tuple(entries))


def inject_at_junction(path: FlagPath, g: int, ring_poly: Polynomial,
                       vec=None) -> BimElement:
    """Normal form of xi^vec with a junction-ring polynomial inserted at g.

    ``ring_poly`` lives in the generators of the ring at junction g.  For
    g = m this is right multiplication; otherwise the polynomial enters
    factor g+1 through its left-end embedding and is pushed rightward.
    """
    if path.is_zero:
        return BimElement.zero(path)
    m = path.num_factors
    vec = tuple(vec) if vec is not None else (0,) * m
    if m == 0:
        return BimElement.from_ring_poly(path, ring_poly)
    if g == m:
        return normalize_xi_vector(path, vec).right_mul(ring_poly)
    return inject_into_factor(path, g + 1, _into_factor(path, g + 1, ring_poly), vec)


def _validate_end_ring(path: FlagPath, side: str, poly: Polynomial):
    ring = path.junction(0) if side == "left" else path.junction(path.num_factors)
    bad = poly.symbols() - ring.catalog()
    if bad:
        raise ValueError("%s action polynomial uses foreign generators: %s"
                         % (side, ", ".join(sorted(s.render() for s in bad))))


def act(side: str, poly: Polynomial, element: BimElement) -> BimElement:
    """Left or right action of an end ring on a normal-form element."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    path = element.path
    if path.is_zero:
        return element
    _validate_end_ring(path, side, poly)
    if side == "right" or path.num_factors == 0:
        return element.right_mul(poly)
    return linear_sum(path, ((inject_at_junction(path, 0, poly, vec), coeff)
                             for vec, coeff in element.terms.items()))


def tensor(a: BimElement, b: BimElement) -> BimElement:
    """Tensor product over the shared junction ring, renormalized."""
    if a.path.N != b.path.N:
        raise ValueError("elements have different ambient ranks")
    if a.path.right_ring != b.path.left_ring:
        raise ValueError("rightmost ring of the left element (%d) does not "
                         "match leftmost ring of the right element (%d)"
                         % (a.path.right_ring, b.path.left_ring))
    path = a.path.concat(b.path)
    if path.is_zero:
        return BimElement.zero(path)
    ma = a.path.num_factors
    return linear_sum(path, ((inject_at_junction(path, ma, ca, va + vb), cb)
                             for va, ca in a.terms.items()
                             for vb, cb in b.terms.items()))


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
