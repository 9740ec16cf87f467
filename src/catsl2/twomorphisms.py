"""Generator 2-morphisms as executable bimodule maps.

A map is given by its domain and codomain flag paths (with shifts), a
declared graded degree, and a procedure sending a xi-exponent vector to a
normal-form element of the codomain; it extends to arbitrary elements by
linearity over right-ring coefficients.  All generator formulas are stated
on xi-power spanning vectors; preservation of the two end-ring actions
pins down the rest, and the property tests in the relation suite verify
that the implementations really are bimodule homomorphisms.

Conventions.  Exponent positions, factor indices and junction indices all
refer to the flag path read left to right, i.e. in the order the steps act
starting from the domain weight.  In string-diagram displays (read bottom
to top, right to left) that is the reverse of the strand display order;
the diagram DSL performs that flip, this module never sees it.  For a
crossing on factors (i, i+1) the divided-difference formula below uses the
variable pair (xi_{i+1}, xi_i) in the upward case and (xi_i, xi_{i+1}) in
the downward case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .exactpoly import Polynomial, homogeneous_degree, x_sym, y_sym
from .grassrings import GrassContext, special_class
from .bimodules import (
    BimElement,
    FlagPath,
    RawTensor,
    basis,
    inject_at_junction,
    normalize,
    normalize_xi_vector,
    xi_power_tensor,
)
from .exactpoly import xi_sym


class BimMap:
    """A graded bimodule map between iterated flag bimodules.

    Each xi-exponent vector's image is computed once, on first use, and
    kept in a per-map memo; composites, whiskers and sums built from this
    map read the stored images instead of recomputing them.  Stored images
    are shared, never mutated: every ``BimElement`` operation returns a new
    element.
    """

    def __init__(self, domain: FlagPath, codomain: FlagPath, degree: int,
                 fn: Callable, name: str = "map"):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self.name = name
        self._fn = fn
        self._images = {}

    def apply_vec(self, vec, coeff=None) -> BimElement:
        """Image of the xi-power vector (bounded or not) times a coefficient."""
        if self.domain.is_zero or self.codomain.is_zero:
            return BimElement.zero(self.codomain)
        vec = tuple(vec)
        image = self._images.get(vec)
        if image is None:
            image = self._images[vec] = self._fn(vec)
        return image if coeff is None else image.right_mul(coeff)

    def __call__(self, element: BimElement) -> BimElement:
        if element.path != self.domain:
            raise ValueError("element lives in %s, map expects %s"
                             % (element.path.render(), self.domain.render()))
        acc = BimElement.zero(self.codomain)
        for vec, coeff in element.terms.items():
            acc = acc + self.apply_vec(vec, coeff)
        return acc

    def matrix(self):
        """Images of the domain basis, as {(out_vec, in_vec): coefficient}."""
        return {(out_vec, vec): coeff
                for vec in basis(self.domain)
                for out_vec, coeff in self.apply_vec(vec).terms.items()}

    def __repr__(self):
        return "BimMap(%s: %s -> %s, deg %d)" % (
            self.name, self.domain.render(), self.codomain.render(), self.degree)


def identity_map(path: FlagPath) -> BimMap:
    return BimMap(path, path, 0,
                  lambda vec: normalize_xi_vector(path, vec),
                  name="id")


def zero_map(domain: FlagPath, codomain: FlagPath, degree: int = 0) -> BimMap:
    return BimMap(domain, codomain, degree,
                  lambda vec: BimElement.zero(codomain), name="zero")


def compose_vertical(f: BimMap, g: BimMap) -> BimMap:
    """The composite f after g; degrees add."""
    if g.codomain != f.domain:
        raise ValueError("cannot compose: %s does not match %s"
                         % (g.codomain.render(), f.domain.render()))

    def fn(vec):
        return f(g.apply_vec(vec))

    return BimMap(g.domain, f.codomain, f.degree + g.degree, fn,
                  name="%s.%s" % (f.name, g.name))


def compose_chain(*maps: BimMap) -> BimMap:
    """Compose bottom to top: compose_chain(g1, g2, g3) = g3 . g2 . g1."""
    if not maps:
        raise ValueError("empty composite")
    acc = maps[0]
    for nxt in maps[1:]:
        acc = compose_vertical(nxt, acc)
    return acc


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

    return BimMap(path, path, 2, fn, name="dot@%d" % position)


def gen_crossing(path: FlagPath, position: int, kind: str) -> BimMap:
    """Divided-difference crossing on factors (position, position+1); degree -2.

    kind 'up' needs two adjacent up-steps, 'down' two adjacent down-steps.
    On xi-powers (a, b) in the two factors the upward image is the sum of
    xi^t (x) xi^(a+b-1-t) for t from a to b-1 (negated and reversed when
    a > b, zero when a = b); the downward image is its negative.
    """
    i = position
    if not 1 <= i < path.num_factors:
        raise ValueError("crossing position %d outside 1..%d"
                         % (i, path.num_factors - 1))
    if kind not in ("up", "down"):
        raise ValueError("crossing kind must be 'up' or 'down'")
    if not path.is_zero:
        both_up = path.is_up(i) and path.is_up(i + 1)
        both_down = (not path.is_up(i)) and (not path.is_up(i + 1))
        if kind == "up" and not both_up:
            raise ValueError("upward crossing needs two up-steps at position %d" % i)
        if kind == "down" and not both_down:
            raise ValueError("downward crossing needs two down-steps at position %d" % i)

    sign = 1 if kind == "up" else -1

    def fn(vec):
        a, b = vec[i - 1], vec[i]
        if a == b:
            return BimElement.zero(path)
        lo, hi, s = (a, b, sign) if a < b else (b, a, -sign)
        acc = BimElement.zero(path)
        for t in range(lo, hi):
            out = vec[:i - 1] + (t, a + b - 1 - t) + vec[i + 1:]
            acc = acc + normalize_xi_vector(path, out).scale(s)
        return acc

    return BimMap(path, path, -2, fn, name="cross_%s@%d" % (kind, i))


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

    if kind == "fe":
        pieces = [(t, j - t, Polynomial.gen(x_sym(t, nu)) if t else Polynomial.one())
                  for t in range(0, j + 1)]
    else:
        pieces = [(t, path.N - j - t,
                   Polynomial.gen(y_sym(t, nu)) if t else Polynomial.one())
                  for t in range(0, path.N - j + 1)]

    def fn(vec):
        acc = BimElement.zero(codomain)
        for t, xi_exp, content in pieces:
            factors = list(xi_power_tensor(codomain,
                                           vec[:g] + (xi_exp, 0) + vec[g:]).factors)
            factors[g + 1] = factors[g + 1] * content
            term = normalize(RawTensor(codomain, tuple(factors)))
            acc = acc + (term if t % 2 == 0 else -term)
        return acc

    return BimMap(path, codomain, degree, fn, name=name)


def gen_cap(path: FlagPath, position: int, kind: str) -> BimMap:
    """Close two adjacent factors forming an excursion; shift drops by 1-N.

    kind 'fe' closes an up-down excursion at ring j, sending xi-powers
    (a, b) to (-1)^(a+b+j-N+1) X_{a+b+1+j-N}; kind 'ef' closes a down-up
    excursion, giving (-1)^(a+b+1-j) Y_{a+b+1-j}.  The image only depends
    on a+b, which is what makes the map well defined on the tensor product.
    """
    i = position
    if not 1 <= i < path.num_factors:
        raise ValueError("cap position %d outside 1..%d" % (i, path.num_factors - 1))
    if kind not in ("fe", "ef"):
        raise ValueError("cap kind must be 'fe' or 'ef'")
    if path.rings[i - 1] != path.rings[i + 1]:
        raise ValueError("factors %d,%d do not close up" % (i, i + 1))
    j = path.rings[i - 1]
    up_first = path.rings[i] == j + 1
    if kind == "fe" and not up_first:
        raise ValueError("fe cap needs the up-down excursion shape")
    if kind == "ef" and up_first:
        raise ValueError("ef cap needs the down-up excursion shape")
    nu = 2 * j - path.N
    codomain = path.remove_excursion(i, delta_shift=-(1 - path.N))
    degree = nu + 1 if kind == "fe" else 1 - nu
    ctx = GrassContext(path.N, j) if 0 <= j <= path.N else None
    name = "cap_%s@%d" % (kind, i)
    if path.is_zero or codomain.is_zero or ctx is None:
        return zero_map(path, codomain, degree)

    def fn(vec):
        a, b = vec[i - 1], vec[i]
        if kind == "fe":
            value = special_class(ctx, "X", a + b + 1 + j - path.N)
            flip = (a + b + j - path.N + 1) % 2
        else:
            value = special_class(ctx, "Y", a + b + 1 - j)
            flip = (a + b + 1 - j) % 2
        if flip:
            value = -value
        reduced = vec[:i - 1] + vec[i + 1:]
        return inject_at_junction(codomain, i - 1, value, reduced)

    return BimMap(path, codomain, degree, fn, name=name)


def junction_mult(path: FlagPath, junction: int, poly: Polynomial,
                  name: str | None = None) -> BimMap:
    """Multiplication by a junction-ring polynomial; degree = its degree."""
    deg = homogeneous_degree(poly)
    if not isinstance(deg, int):
        deg = 0 if poly.is_zero() else None
    if deg is None:
        raise ValueError("junction multiplication needs a homogeneous polynomial")

    def fn(vec):
        return inject_at_junction(path, junction, poly, vec)

    return BimMap(path, path, deg, fn, name=name or "mult@%d" % junction)


def left_mult(path: FlagPath, poly: Polynomial) -> BimMap:
    return junction_mult(path, 0, poly, name="lmult")


def right_mult(path: FlagPath, poly: Polynomial) -> BimMap:
    return junction_mult(path, path.num_factors, poly, name="rmult")


def whisker(f: BimMap, left: FlagPath, right: FlagPath) -> BimMap:
    """Horizontal composition with identity strands on both sides."""
    if left.N != f.domain.N or right.N != f.domain.N:
        raise ValueError("ambient rank mismatch")
    if left.right_ring != f.domain.left_ring:
        raise ValueError("left context ends at ring %d, map starts at %d"
                         % (left.right_ring, f.domain.left_ring))
    if f.domain.right_ring != right.left_ring:
        raise ValueError("map ends at ring %d, right context starts at %d"
                         % (f.domain.right_ring, right.left_ring))
    domain = left.concat(f.domain).concat(right)
    codomain = left.concat(f.codomain).concat(right)
    lm = left.num_factors
    dm = f.domain.num_factors
    cm = f.codomain.num_factors

    def fn(vec):
        pre, mid, post = vec[:lm], vec[lm:lm + dm], vec[lm + dm:]
        image = f.apply_vec(mid)
        acc = BimElement.zero(codomain)
        for mvec, mcoeff in image.terms.items():
            acc = acc + inject_at_junction(codomain, lm + cm, mcoeff,
                                           pre + mvec + post)
        return acc

    return BimMap(domain, codomain, f.degree, fn, name="whisk(%s)" % f.name)


# ---------------------------------------------------------------------------
# words and the 2-functor on 1-morphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedWord:
    """A composable word in E and F with a domain weight, in display order."""

    letters: tuple
    weight: int

    def __post_init__(self):
        for ch in self.letters:
            if ch not in ("E", "F"):
                raise ValueError("letters must be 'E' or 'F'")

    @staticmethod
    def parse(text: str, weight: int) -> "SignedWord":
        toks = text.split()
        if toks == ["1"] or not toks:
            return SignedWord((), weight)
        return SignedWord(tuple(toks), weight)

    def render(self) -> str:
        return " ".join(self.letters) if self.letters else "1"


def compile_word(word: SignedWord, N: int) -> FlagPath:
    """Image flag path of a word; rightmost letter acts first.

    E at domain ring k contributes a step (k, k+1) and shift 1-N+k; F at
    domain ring k contributes (k, k-1) and shift 1-k.  Paths that leave
    [0, N] are returned as zero-marked paths.
    """
    if (word.weight + N) % 2 != 0:
        raise ValueError("weight %d is incompatible with rank %d (parity)"
                         % (word.weight, N))
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


def _decorated_vectors(path: FlagPath, max_excess: int = 2):
    """Basis vectors plus single-factor xi-excess bumps up to max_excess."""
    vecs = list(basis(path))
    for vec in basis(path):
        for i in range(path.num_factors):
            for excess in range(1, max_excess + 1):
                if vec[i] == path.bound(i + 1):
                    vecs.append(vec[:i] + (vec[i] + excess,) + vec[i + 1:])
    return vecs


def map_equals(f: BimMap, g: BimMap, max_extra_checks: int = 0, rng=None):
    """Decide equality by evaluating on the free basis of the domain.

    Both maps must share domain and codomain (including shifts).  Beyond
    the basis, xi-decorated vectors and, if ``max_extra_checks`` > 0,
    random end-ring generator decorations are compared as a guard on the
    bimodule-map premise.  Returns (equal, report).
    """
    if f.domain != g.domain or f.codomain != g.codomain:
        return False, "domain/codomain mismatch"
    if f.domain.is_zero or f.codomain.is_zero:
        return True, None
    for vec in _decorated_vectors(f.domain):
        left = f.apply_vec(vec)
        right = g.apply_vec(vec)
        if left != right:
            return False, ("on xi^%s: %s vs %s"
                           % (list(vec), left.render(), right.render()))
    if max_extra_checks and rng is not None:
        gens = _end_ring_generators(f.domain)
        if gens:
            vecs = basis(f.domain)
            for _ in range(max_extra_checks):
                vec = vecs[rng.randrange(len(vecs))]
                side, poly = gens[rng.randrange(len(gens))]
                e = _decorated_element(f.domain, vec, side, poly)
                if f(e) != g(e):
                    return False, ("on decorated element %s: %s vs %s"
                                   % (e.render(), f(e).render(), g(e).render()))
    return True, None


def _end_ring_generators(path: FlagPath):
    out = []
    for side, g in (("left", 0), ("right", path.num_factors)):
        ctx = path.junction(g)
        for sym in sorted(ctx.catalog()):
            out.append((side, Polynomial.gen(sym)))
    return out


def _decorated_element(path: FlagPath, vec, side: str, poly: Polynomial) -> BimElement:
    from .bimodules import act
    base = normalize_xi_vector(path, vec)
    return act(side, poly, base)


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
    """Check the measured degree on every basis vector against f.degree."""
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
