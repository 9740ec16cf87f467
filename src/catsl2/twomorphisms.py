"""Generator 2-morphisms as executable bimodule maps.

A map is given by its domain and codomain flag paths (with shifts), a
declared graded degree, a procedure sending a xi-exponent vector to a
normal-form element of the codomain, and its lead: the number of leading
factors it passes through unchanged, so that it computes one image per
right part.  It extends to arbitrary elements by linearity over
right-ring coefficients, so the right action is preserved by
construction.  All generator formulas are stated on xi-power spanning
vectors.  The relation suite's ``well_definedness`` check decides that each
generator preserves the left action on the basis (exactly) and agrees
with its own formula on xi-excess vectors (up to ``MAX_EXCESS``); so every
composite is a bimodule map, and ``map_equals`` compares on the basis alone.

Conventions.  Exponent positions, factor indices and junction indices all
refer to the flag path read left to right, i.e. in the order the steps act
starting from the domain weight.  In string-diagram displays (read bottom
to top, right to left) that is the reverse of the strand display order;
the diagram DSL performs that flip, this module never sees it.  An
up-step is an E strand and a down-step an F strand, so the path alone
fixes which crossing or cap acts on two factors: ``gen_crossing`` and
``gen_cap`` take no orientation.  ``gen_cup`` takes its kind, which picks
the excursion it inserts.  For a crossing on factors (i, i+1) the
divided-difference formula below uses the variable pair (xi_{i+1}, xi_i)
in the upward case and (xi_i, xi_{i+1}) in the downward case.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .exactpoly import Polynomial, homogeneous_degree, render_int
from .grassrings import GrassContext, special_class
from .bimodules import (
    BimElement,
    FlagPath,
    _by_xi,
    _check_junction,
    _inject_at_junction,
    _normal_form,
    _sum_terms,
    _wrap,
    _xi_entries,
    _xi_fields,
    _xi_key,
    _xi_vector,
    basis,
    linear_sum,
    normalize_xi_vector,
)


class BimMap:
    """A graded bimodule map between iterated flag bimodules.

    ``fn`` sends a xi-exponent vector of the domain to its image.  ``lead``
    counts the leading domain factors the map passes through unchanged
    (declared by the constructors; 0 for a map built directly): it sends
    xi^L (x) v to xi^L (x) f(v), and since a bounded xi^L is already in
    normal form and rewriting only moves content rightwards, that image is
    the image of xi^0 (x) v with L added to its keys.  So each image is
    computed once per local part and kept in a memo keyed by the packed
    xi-part with the lead fields cleared: ``apply_vec`` packs a vector and
    adds its lead part to the stored image's keys, and ``fn`` gets a
    vector decoded only on a miss.  A vector whose lead is past a bound
    (an xi-excess vector) is computed whole and kept under its full key.
    On an element (one packed polynomial) the map splits each key with the
    domain's local xi mask, so the lead fields ride along in the
    coefficient terms, and adds each local part's image times its
    coefficient terms, one product loop per local part.  A chain keeps one
    memo and its maps keep theirs; its prefix composites are never built,
    and its tail is one map only when every later lead exceeds the head's
    (see ``compose_chain``).  Stored images are shared, never mutated.
    """

    def __init__(self, domain: FlagPath, codomain: FlagPath, degree: int,
                 fn: Callable, name: str = "map", lead: int = 0):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self.name = name
        self.lead = lead
        self._fn = fn
        self._images = {}
        self._lead_mask = _xi_fields(lead)[1]
        self._local_mask = _xi_fields(domain.num_factors)[1] - self._lead_mask

    def _image(self, xi: int) -> BimElement:
        """Image of the vector with packed xi-part ``xi``, memoized."""
        image = self._images.get(xi)
        if image is None:
            image = self._images[xi] = self._fn(_xi_vector(self.domain, xi))
        return image

    def apply_vec(self, vec) -> BimElement:
        """Image of the xi-power vector (bounded or not)."""
        if self.domain.is_zero or self.codomain.is_zero:
            return BimElement.zero(self.codomain)
        key = _xi_key(self.domain, vec)
        offset = key & self._lead_mask
        if not offset or any(e > bound for e, (_, bound)
                             in zip(vec[:self.lead], self.domain._steps)):
            return self._image(key)
        return _wrap(self.codomain, {k + offset: c
                                     for k, c in self._image(key - offset).terms.items()})

    def __call__(self, element: BimElement) -> BimElement:
        if element.path is not self.domain and element.path != self.domain:
            raise ValueError("element lives in %s, map expects %s"
                             % (element.path.render(), self.domain.render()))
        if self.codomain.is_zero:
            return BimElement.zero(self.codomain)
        image = self._image
        return _sum_terms(self.codomain, (
            (coeff, image(xi))
            for xi, coeff in _by_xi(element, self._local_mask).items()))

    def __repr__(self):
        return "BimMap(%s: %s -> %s, deg %s)" % (
            self.name, self.domain.render(), self.codomain.render(),
            render_int(self.degree))


def identity_map(path: FlagPath) -> BimMap:
    return BimMap(path, path, 0,
                  lambda vec: normalize_xi_vector(path, vec),
                  name="id", lead=path.num_factors)


def zero_map(domain: FlagPath, codomain: FlagPath, degree: int = 0) -> BimMap:
    return BimMap(domain, codomain, degree,
                  lambda vec: BimElement.zero(codomain), name="zero")


def linear_combination(domain: FlagPath, codomain: FlagPath, degree: int,
                       name: str, terms) -> BimMap:
    """The sum of sign * f over the (sign, f) terms, each domain -> codomain.

    The degree is given, not read off the terms: a term that is the zero
    map, such as multiplication by a vanishing bubble, has degree 0.
    """
    terms = list(terms)

    def fn(vec):
        return linear_sum(codomain, ((f.apply_vec(vec), sign) for sign, f in terms))

    return BimMap(domain, codomain, degree, fn, name=name,
                  lead=min((f.lead for _, f in terms), default=domain.num_factors))


def compose_chain(*maps: BimMap) -> BimMap:
    """compose_chain(g1, g2, g3) = g3 . g2 . g1: one map that applies g1 first.

    When every later lead exceeds g1's, the tail g3 . g2 is one memoized
    chain, keyed with more lead fields cleared than g1 passes through: the
    right-ring coefficients of g1's image multiply its few images once, not
    at each later map.  The rule is strict: a tail whose lead is below
    g1's keys its memo on fields that would ride along and forms more
    products than it saves, and one whose lead equals g1's forms more in
    the degree audit, so no check's count grows.
    """
    if not maps:
        raise ValueError("empty composite")
    for g, f in zip(maps, maps[1:]):
        if g.codomain != f.domain:
            raise ValueError("cannot compose: %s does not match %s"
                             % (g.codomain.render(), f.domain.render()))
    if len(maps) == 1:
        return maps[0]
    later = maps[1:]
    if min(f.lead for f in later) > maps[0].lead:
        later = (compose_chain(*later),)

    def fn(vec):
        element = maps[0].apply_vec(vec)
        for f in later:
            element = f(element)
        return element

    return BimMap(maps[0].domain, maps[-1].codomain, sum(f.degree for f in maps),
                  fn, name=".".join(f.name for f in reversed(maps)),
                  lead=min(f.lead for f in maps))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_dot(path: FlagPath, position: int) -> BimMap:
    """Multiplication by xi on one tensor factor; degree 2."""
    if not 1 <= position <= path.num_factors:
        raise ValueError("dot position %d outside 1..%d"
                         % (position, path.num_factors))

    def fn(vec):
        bumped = vec[:position - 1] + (vec[position - 1] + 1,) + vec[position:]
        return normalize_xi_vector(path, bumped)

    return BimMap(path, path, 2, fn, name="dot@%d" % position, lead=position - 1)


def gen_crossing(path: FlagPath, position: int) -> BimMap:
    """Divided-difference crossing on factors (position, position+1); degree -2.

    The two factors must both be up-steps (E strands, an upward crossing)
    or both down-steps (F strands, a downward one); the path fixes which.
    On xi-powers (a, b) in the two factors the upward image is the sum of
    xi^t (x) xi^(a+b-1-t) for t from a to b-1 (negated and reversed when
    a > b, zero when a = b); the downward image is its negative.
    """
    i = position
    if not 1 <= i < path.num_factors:
        raise ValueError("crossing position %d outside 1..%d"
                         % (i, path.num_factors - 1))
    up = path.is_up(i)
    if path.is_up(i + 1) != up:
        raise ValueError("crossing needs two up-steps or two down-steps at position %d"
                         % i)
    sign = 1 if up else -1

    def fn(vec):
        a, b = vec[i - 1], vec[i]
        lo, hi, s = (a, b, sign) if a < b else (b, a, -sign)
        outs = (vec[:i - 1] + (t, a + b - 1 - t) + vec[i + 1:] for t in range(lo, hi))
        return _normal_form(path, [(_xi_entries(path, out), s) for out in outs])

    return BimMap(path, path, -2, fn, name="cross_%s@%d" % ("up" if up else "down", i),
                  lead=i - 1)


def gen_cup(path: FlagPath, junction: int, kind: str) -> BimMap:
    """Insert a cup excursion at a junction; the codomain gains shift 1-N.

    kind 'fe' inserts the up-down excursion through ring j+1 and maps 1 to
    sum_t (-1)^t xi^(j-t) (x) x[t]@nu; kind 'ef' inserts the down-up
    excursion through ring j-1 and maps 1 to
    sum_t (-1)^t xi^(N-j-t) (x) y[t]@nu.  Degrees are nu+1 and 1-nu.
    A step outside [0, N] yields the zero map onto the zero bimodule.
    """
    g = junction
    if not 0 <= g <= path.num_factors:
        raise ValueError("junction %d outside 0..%d" % (g, path.num_factors))
    if kind not in ("fe", "ef"):
        raise ValueError("cup kind must be 'fe' or 'ef'")
    j = path.rings[g]
    nu = 2 * j - path.N
    mid = j + 1 if kind == "fe" else j - 1
    codomain = path.insert_excursion(g, mid, delta_shift=1 - path.N)
    degree = nu + 1 if kind == "fe" else 1 - nu
    name = "cup_%s@%d" % (kind, g)
    if codomain.is_zero or path.is_zero:
        return zero_map(path, codomain, degree)

    gens = path.junction(g).gens("x" if kind == "fe" else "y")
    pieces = [(len(gens) - 1 - t, content, (-1) ** t) for t, content in enumerate(gens)]

    def fn(vec):
        return _normal_form(codomain, [
            (_xi_entries(codomain, vec[:g] + (xi_exp, 0) + vec[g:], g + 2, content), sign)
            for xi_exp, content, sign in pieces])

    return BimMap(path, codomain, degree, fn, name=name, lead=g)


def gen_cap(path: FlagPath, position: int) -> BimMap:
    """Close two adjacent factors forming an excursion; shift drops by 1-N.

    The path fixes the kind: an up-down excursion at ring j (the word F E)
    is closed by the 'fe' cap, sending xi-powers (a, b) to
    (-1)^(a+b+j-N+1) X_{a+b+1+j-N}; a down-up excursion by the 'ef' cap,
    giving (-1)^(a+b+1-j) Y_{a+b+1-j}.  The image only depends on a+b,
    which is what makes the map well defined on the tensor product; the
    map computes it once per a+b and other exponents.
    """
    i = position
    if not 1 <= i < path.num_factors:
        raise ValueError("cap position %d outside 1..%d" % (i, path.num_factors - 1))
    fe = path.is_up(i)
    j = path.rings[i - 1]
    nu = 2 * j - path.N
    # the path refuses factors i, i+1 that do not form an excursion
    codomain = path.remove_excursion(i, delta_shift=-(1 - path.N))
    degree = nu + 1 if fe else 1 - nu
    name = "cap_%s@%d" % ("fe" if fe else "ef", i)
    if path.is_zero:   # the codomain's rings are some of the path's
        return zero_map(path, codomain, degree)
    ctx = GrassContext(path.N, j)
    family = "X" if fe else "Y"
    images = {}     # (a + b, the other exponents) -> image

    def fn(vec):
        total = vec[i - 1] + vec[i]
        reduced = vec[:i - 1] + vec[i + 1:]
        image = images.get((total, reduced))
        if image is None:
            index = total + 1 + j - path.N if fe else total + 1 - j
            value = special_class(ctx, family, index)
            if index % 2:
                value = -value
            image = images[total, reduced] = _inject_at_junction(codomain, i - 1,
                                                                 value, reduced)
        return image

    return BimMap(path, codomain, degree, fn, name=name, lead=i - 1)


def junction_mult(path: FlagPath, junction: int, poly: Polynomial) -> BimMap:
    """Multiplication by a junction-ring polynomial; degree = its degree."""
    deg = homogeneous_degree(poly)
    if not isinstance(deg, int):
        deg = 0 if poly.is_zero() else None
    if deg is None:
        raise ValueError("junction multiplication needs a homogeneous polynomial")
    _check_junction(path, junction, poly)

    def fn(vec):
        return _inject_at_junction(path, junction, poly, vec)

    return BimMap(path, path, deg, fn, name="mult@%d" % junction, lead=junction)


# ---------------------------------------------------------------------------
# words and the 2-functor on 1-morphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedWord:
    """A composable word in E and F with a domain weight, in display order."""

    letters: tuple
    weight: int

    @staticmethod
    def parse(text: str, weight: int) -> "SignedWord":
        """The word of ``text`` by the ``word`` rule of docs/grammars.md:
        ``1``, or letters E and F separated by blanks (spaces and tabs)."""
        if text == "1":
            return SignedWord((), weight)
        letters = tuple(re.split(r"[ \t]+", text))
        for token in letters:
            if token not in ("E", "F"):
                raise ValueError("letters must be 'E' or 'F', separated by blanks; got %r"
                                 % (token if len(token) <= 40 else token[:40] + "..."))
        return SignedWord(letters, weight)

    def render(self) -> str:
        return " ".join(self.letters) if self.letters else "1"


def compile_word(word: SignedWord, N: int) -> FlagPath:
    """Image flag path of a word; rightmost letter acts first.

    E at domain ring k contributes a step (k, k+1) and shift 1-N+k; F at
    domain ring k contributes (k, k-1) and shift 1-k.  Paths that leave
    [0, N] are returned as zero-marked paths.
    """
    if (word.weight + N) % 2 != 0:
        raise ValueError("weight %s is incompatible with rank %s (parity)"
                         % (render_int(word.weight), render_int(N)))
    k = (word.weight + N) // 2
    rings = [k]
    shift = 0
    for letter in reversed(word.letters):
        cur = rings[-1]
        if letter == "E":
            shift += 1 - N + cur
            rings.append(cur + 1)
        else:
            shift += 1 - cur
            rings.append(cur - 1)
    return FlagPath(N, tuple(rings), shift)


# ---------------------------------------------------------------------------
# comparison and audits
# ---------------------------------------------------------------------------


#: How far past its bound ``_excess_vectors`` bumps a factor's xi-power.
MAX_EXCESS = 2


def _excess_vectors(path: FlagPath):
    """Single-factor xi-excess bumps of the basis vectors, up to MAX_EXCESS."""
    return [vec[:i] + (vec[i] + excess,) + vec[i + 1:]
            for vec in basis(path)
            for i in range(path.num_factors) if vec[i] == path.bound(i + 1)
            for excess in range(1, MAX_EXCESS + 1)]


def _decorated_vectors(path: FlagPath):
    """Basis vectors, then their xi-excess bumps."""
    return basis(path) + _excess_vectors(path)


def map_equals(f: BimMap, g: BimMap):
    """Decide equality by evaluating on the free basis of the domain.

    Both maps must share domain and codomain (including shifts).  Both are
    bimodule maps (``well_definedness`` checks each generator's law, and
    composites of bimodule maps are bimodule maps) extended right-linearly
    from their basis images, so they are equal iff they agree on the basis.
    Returns (equal, report).
    """
    if f.domain != g.domain or f.codomain != g.codomain:
        return False, "domain/codomain mismatch"
    if f.domain.is_zero or f.codomain.is_zero:
        return True, None
    for vec in basis(f.domain):
        left = f.apply_vec(vec)
        right = g.apply_vec(vec)
        if left != right:
            return False, ("on xi^%s: %s vs %s"
                           % (list(vec), left.render(), right.render()))
    return True, None


def measured_degree(f: BimMap, vec):
    """Shift-adjusted degree of f on one xi-power input; None if it dies."""
    image = f.apply_vec(vec)
    if image.is_zero():
        return None
    out_deg = image.degree()
    if out_deg is None:
        return None
    return (out_deg + f.codomain.shift) - (2 * sum(vec) + f.domain.shift)


def audit_degree(f: BimMap):
    """Check the measured degree against f.degree on every basis vector and
    on the xi-excess bumps of ``_decorated_vectors``."""
    if f.domain.is_zero or f.codomain.is_zero:
        return True, None
    seen_nonzero = False
    for vec in _decorated_vectors(f.domain):
        measured = measured_degree(f, vec)
        if measured is None:
            continue
        seen_nonzero = True
        if measured != f.degree:
            return False, ("degree of %s on xi^%s measured %d, declared %d"
                           % (f.name, list(vec), measured, f.degree))
    if not seen_nonzero:
        return True, "zero map; degree vacuous"
    return True, None
