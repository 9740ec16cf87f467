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

Both rule families strictly decrease a lexicographic measure (see
``rewrite_measure``), so rewriting terminates for any strategy order, and
the bounded monomials form a free basis over the rightmost ring, making
equality of normal forms syntactic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .exactpoly import (
    KIND_X,
    KIND_XI,
    KIND_Y,
    Polynomial,
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

    def with_shift(self, shift: int) -> "FlagPath":
        return FlagPath(self.N, self.rings, shift)

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


def identity_path(N: int, k: int, shift: int = 0) -> FlagPath:
    return FlagPath(N, (k,), shift)


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
                allowed = step_catalog(path.N, path._steps[i - 1][0], i)
                bad = poly.symbols() - allowed
                if bad:
                    raise ValueError(
                        "factor %d uses non-canonical generators: %s"
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

    def _require_same_path(self, other: "BimElement"):
        if self.path != other.path:
            raise ValueError("elements live in different bimodules: %s vs %s"
                             % (self.path.render(), other.path.render()))

    def __add__(self, other: "BimElement") -> "BimElement":
        self._require_same_path(other)
        terms = dict(self.terms)
        for vec, coeff in other.terms.items():
            acc = terms.get(vec)
            terms[vec] = coeff if acc is None else acc + coeff
        return BimElement(self.path, terms)

    def __neg__(self) -> "BimElement":
        return BimElement(self.path, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other: "BimElement") -> "BimElement":
        return self + (-other)

    def scale(self, c) -> "BimElement":
        return BimElement(self.path, {v: coeff * c for v, coeff in self.terms.items()})

    def right_mul(self, poly: Polynomial) -> "BimElement":
        return BimElement(self.path, {v: coeff * poly
                                      for v, coeff in self.terms.items()})

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


# ---------------------------------------------------------------------------
# rewriting to normal form
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _xi_overflow(N: int, j: int, up: bool, pos: int) -> Polynomial:
    """Value of xi^(bound+1) in right-junction generators plus lower powers."""
    ring = StepRing(N, j, xi_pos=pos)
    acc = Polynomial.zero()
    if up:
        for t in range(1, j + 2):
            sign = 1 if (t + 1) % 2 == 0 else -1
            acc = acc + ring.upper.x(t) * ring.xi(j + 1 - t) * sign
    else:
        for t in range(1, N - j + 1):
            sign = 1 if (t + 1) % 2 == 0 else -1
            acc = acc + ring.lower.y(t) * ring.xi(N - j - t) * sign
    return acc


@lru_cache(maxsize=None)
def _transport_table(N: int, j: int, up: bool, pos: int):
    """Substitutions expressing left-junction generators via the right ones."""
    ring = StepRing(N, j, xi_pos=pos)
    table = {}
    if up:
        for t in range(1, j + 1):
            table[x_sym(t, ring.nu)] = ring.lower_x_expansion(t)
    else:
        for t in range(1, N - j):
            table[y_sym(t, ring.nu + 2)] = ring.upper_y_expansion(t)
    return table


def _xi_exponent(mono, pos: int) -> int:
    for sym, exp in mono:
        if sym.kind == KIND_XI and sym.index == pos:
            return exp
    return 0


def _strip_xi(mono, pos: int):
    return tuple((s, e) for s, e in mono if not (s.kind == KIND_XI and s.index == pos))


@lru_cache(maxsize=None)
def _xi_reduced_power(N, j, up, pos, bound, e) -> Polynomial:
    """xi^e rewritten with xi-exponents within the factor bound."""
    if e <= bound:
        return Polynomial.gen(xi_sym(pos), e)
    acc: dict = {}
    for mono, coeff in _xi_overflow(N, j, up, pos).terms.items():
        f = _xi_exponent(mono, pos)
        rest = Polynomial({_strip_xi(mono, pos): coeff})
        part = rest * _xi_reduced_power(N, j, up, pos, bound, e - bound - 1 + f)
        for m, c in part.terms.items():
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c
    return Polynomial(acc)


def _reduce_xi(poly: Polynomial, N: int, j: int, up: bool, pos: int,
               bound: int) -> Polynomial:
    acc: dict = {}

    def take(mono, coeff):
        prev = acc.get(mono)
        total = coeff if prev is None else prev + coeff
        if total:
            acc[mono] = total
        elif prev is not None:
            del acc[mono]

    for mono, coeff in poly.terms.items():
        e = _xi_exponent(mono, pos)
        if e <= bound:
            take(mono, coeff)
            continue
        rest = Polynomial({_strip_xi(mono, pos): coeff})
        for m, c in (rest * _xi_reduced_power(N, j, up, pos, bound, e)).terms.items():
            take(m, c)
    return Polynomial(acc)


def _push_right(path: FlagPath, i: int, content: Polynomial):
    """Rewrite factor-i content as a sum xi^e * (right-junction polynomial).

    Returns (e, poly) pairs with e within the factor bound and poly in the
    generators of the junction ring after factor i.
    """
    j, bound = path._steps[i - 1]
    return _push_right_cached(path.N, j, path.is_up(i), i, bound, content)


@lru_cache(maxsize=None)
def _push_right_cached(N, j, up, pos, bound, content):
    table = _transport_table(N, j, up, pos)
    poly = content.substitute(table) if table else content
    poly = _reduce_xi(poly, N, j, up, pos, bound)
    buckets: dict = {}
    for mono, coeff in poly.terms.items():
        e = _xi_exponent(mono, pos)
        rest = _strip_xi(mono, pos)
        bucket = buckets.setdefault(e, {})
        bucket[rest] = bucket.get(rest, 0) + coeff
    return tuple((e, Polynomial(b)) for e, b in sorted(buckets.items()))


def _into_factor(path: FlagPath, i: int, ring_poly: Polynomial) -> Polynomial:
    """Embed a polynomial in the left-junction ring of factor i as content."""
    return _into_factor_cached(path.N, path._steps[i - 1][0], path.is_up(i), i,
                               ring_poly)


@lru_cache(maxsize=None)
def _embed_table(N, j, end, pos):
    ring = StepRing(N, j, xi_pos=pos)
    ctx = ring.lower if end == "lower" else ring.upper
    return {sym: ring.embed_end(sym, end) for sym in ctx.catalog()}


@lru_cache(maxsize=None)
def _into_factor_cached(N, j, up, pos, ring_poly):
    return ring_poly.substitute(_embed_table(N, j, "lower" if up else "upper", pos))


def _settled_exponent(poly: Polynomial, pos: int, bound: int):
    """The exponent if the factor is a monic bounded xi-power, else None."""
    terms = poly.terms
    if len(terms) != 1:
        return None
    mono, coeff = next(iter(terms.items()))
    if coeff != 1:
        return None
    if not mono:
        return 0
    if len(mono) != 1:
        return None
    sym, exp = mono[0]
    if sym.kind == KIND_XI and sym.index == pos and exp <= bound:
        return exp
    return None


def _clear_factor(path: FlagPath, terms: list, i: int, bound: int):
    m = path.num_factors
    out = []
    changed = False
    for factors, coeff in terms:
        f = factors[i - 1]
        if _settled_exponent(f, i, bound) is not None:
            out.append((factors, coeff))
            continue
        changed = True
        if not f.terms:
            continue
        for e, rpoly in _push_right(path, i, f):
            updated = list(factors)
            updated[i - 1] = Polynomial.gen(xi_sym(i), e)
            if i == m:
                out.append((tuple(updated), coeff * rpoly))
            else:
                updated[i] = updated[i] * _into_factor(path, i + 1, rpoly)
                out.append((tuple(updated), coeff))
    return out, changed


def rewrite_measure(path: FlagPath, terms) -> tuple:
    """Lexicographic termination measure of an in-flight rewriting state.

    Per factor i the tuple (L, E, R, D) counts, over all terms: exponents
    of left-junction generators, xi-excess above the factor bound,
    exponents of right-junction generators, and a settledness flag.  Each
    factor-clearing step zeroes factor i's tuple while only factor i+1
    grows, so states decrease strictly in the product lexicographic order.
    """
    m = path.num_factors
    totals = [[0, 0, 0, 0] for _ in range(m)]
    for factors, _ in terms:
        for i in range(1, m + 1):
            up = path.is_up(i)
            entry = totals[i - 1]
            poly = factors[i - 1]
            left_kind = KIND_X if up else KIND_Y
            for mono, _c in poly.terms.items():
                for sym, exp in mono:
                    if sym.kind == KIND_XI:
                        entry[1] += max(0, exp - path.bound(i)) if sym.index == i else 0
                    elif sym.kind == left_kind:
                        entry[0] += exp
                    else:
                        entry[2] += exp
            if _settled_exponent(poly, i, path.bound(i)) is None:
                entry[3] = 1
    return tuple(tuple(t) for t in totals)


def normalize(raw: RawTensor, order: str = "ltr",
              on_step: Callable | None = None) -> BimElement:
    """Canonical normal form of a raw tensor.

    ``order`` picks the junction-processing strategy: "ltr" clears factors
    left to right (one pass suffices), "rtl" sweeps right to left until a
    fixpoint; both reach the same normal form.  ``on_step`` is called with
    the term list after every factor-clearing step that changed it.
    """
    path = raw.path
    if path.is_zero:
        return BimElement.zero(path)
    m = path.num_factors
    bounds = [path.bound(i) for i in range(1, m + 1)]
    terms = [(tuple(raw.factors), Polynomial.one())]
    if order == "ltr":
        for i in range(1, m + 1):
            terms, changed = _clear_factor(path, terms, i, bounds[i - 1])
            if changed and on_step is not None:
                on_step(terms)
    elif order == "rtl":
        # sweep right to left repeatedly; a cleared factor only re-dirties
        # when its left neighbour pushes new content into it
        dirty = set(range(1, m + 1))
        while dirty:
            for i in range(m, 0, -1):
                if i not in dirty:
                    continue
                dirty.discard(i)
                terms, changed = _clear_factor(path, terms, i, bounds[i - 1])
                if changed:
                    if i < m:
                        dirty.add(i + 1)
                    if on_step is not None:
                        on_step(terms)
    else:
        raise ValueError("unknown rewriting order %r" % order)

    acc: dict = {}
    for factors, coeff in terms:
        vec = []
        for i, f in enumerate(factors, start=1):
            e = _settled_exponent(f, i, bounds[i - 1])
            assert e is not None, "factor %d not in normal form" % i
            vec.append(e)
        vec = tuple(vec)
        prev = acc.get(vec)
        acc[vec] = coeff if prev is None else prev + coeff
    return BimElement(path, acc)


# ---------------------------------------------------------------------------
# module structure
# ---------------------------------------------------------------------------


def xi_power_tensor(path: FlagPath, vec) -> RawTensor:
    """The raw tensor xi_1^{v_1} x ... x xi_m^{v_m} (exponents unrestricted)."""
    factors = tuple(Polynomial.gen(xi_sym(i + 1), e) for i, e in enumerate(vec))
    return RawTensor(path, factors)


def normalize_xi_vector(path: FlagPath, vec, coeff=None) -> BimElement:
    """Normal form of a (possibly out-of-bound) xi-exponent vector."""
    if path.is_zero:
        return BimElement.zero(path)
    if path.num_factors == 0:
        out = BimElement.from_ring_poly(path, Polynomial.one())
    else:
        out = normalize(xi_power_tensor(path, vec))
    if coeff is not None:
        out = out.right_mul(coeff)
    return out


def inject_at_junction(path: FlagPath, g: int, ring_poly: Polynomial,
                       vec=None, coeff=None) -> BimElement:
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
        out = BimElement.from_ring_poly(path, ring_poly)
    elif g == m:
        out = normalize(xi_power_tensor(path, vec)).right_mul(ring_poly)
    else:
        factors = list(xi_power_tensor(path, vec).factors)
        factors[g] = factors[g] * _into_factor(path, g + 1, ring_poly)
        out = normalize(RawTensor(path, tuple(factors)))
    if coeff is not None:
        out = out.right_mul(coeff)
    return out


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
    acc = BimElement.zero(path)
    for vec, coeff in element.terms.items():
        acc = acc + inject_at_junction(path, 0, poly, vec, coeff)
    return acc


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
    acc = BimElement.zero(path)
    for va, ca in a.terms.items():
        for vb, cb in b.terms.items():
            acc = acc + inject_at_junction(path, ma, ca, va + vb, cb)
    return acc


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
    """Sum of q^(2*|vec| + shift) over the free basis."""
    total = Laurent.zero()
    for vec in basis(path):
        total = total + Laurent.q_power(2 * sum(vec) + path.shift)
    return total
