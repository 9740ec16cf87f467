"""Equivariant cohomology rings of Grassmannians and one-step flags.

For a fixed rank ``N`` and ``0 <= k <= N`` (weight ``n = 2k - N``) the ring
``H_k`` is the free polynomial ring on ``x[1..k]@n`` and ``y[1..N-k]@n``
(these ranges are stated once, by ``GrassContext.top`` and ``.gen``).  The
one-step ring for the pair ``{j, j+1}`` is free on its lower ring's
``x[1..j]@nu``, ``xi`` and its upper ring's ``y[1..N-j-1]@(nu+2)`` with
``nu = 2j - N``: the lower ring owns the x's and the upper ring the y's,
which ``StepRing.ends`` alone states.  The other end's generators embed
via the exchange relations

    x[a]@(nu+2) = x[a]@nu + x[a-1]@nu * xi
    y[a]@nu     = y[a]@(nu+2) + y[a-1]@(nu+2) * xi

(``StepRing.embed_end``, which reads a symbol's end ring from its weight),
and ``StepRing.transport`` inverts them by alternating xi-power sums.  Indices
outside a ring's catalog denote 0, and index 0 denotes 1; every helper here
applies that convention.

The special classes X_a, Y_b are the components of the inverses of the
generating series of the y's resp. x's; closed dotted-bubble values are
polynomials built from them.  ``embedded_special_classes`` embeds them
into a step ring through their recursion, substituting only generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .exactpoly import (
    Polynomial,
    VarSymbol,
    KIND_X,
    KIND_Y,
    require_int,
    sum_of_products,
    x_sym,
    xi_sym,
    y_sym,
)

#: The symbol of each generator letter, from its index and weight.
_SYMBOL = {"x": x_sym, "y": y_sym}


@dataclass(frozen=True)
class GrassContext:
    """The ring H_k inside rank N; weight n = 2k - N."""

    N: int
    k: int

    def __post_init__(self):
        require_int(self.N, "N")
        require_int(self.k, "k")
        if self.N < 1:
            raise ValueError("rank N must be a positive integer")
        if not 0 <= self.k <= self.N:
            raise ValueError("k must lie in [0, N]")

    @property
    def n(self) -> int:
        return 2 * self.k - self.N

    def top(self, letter: str) -> int:
        """The last index of the generators of ``letter``: k for x, N-k for y."""
        return self.k if letter == "x" else self.N - self.k

    def gen(self, letter: str, index: int) -> Polynomial:
        """letter[index]@n, with the out-of-range and index-0 conventions."""
        if index == 0:
            return Polynomial.one()
        if index < 0 or index > self.top(letter):
            return Polynomial.zero()
        return Polynomial.gen(_SYMBOL[letter](index, self.n))

    def x(self, index: int) -> Polynomial:
        return self.gen("x", index)

    def y(self, index: int) -> Polynomial:
        return self.gen("y", index)

    def gens(self, letter: str) -> list[Polynomial]:
        """1, x[1], ..., x[k] (letter 'x') or 1, y[1], ..., y[N-k] ('y')."""
        return [self.gen(letter, index) for index in range(self.top(letter) + 1)]

    def catalog(self) -> frozenset[VarSymbol]:
        """All generator symbols of this ring."""
        return ring_catalog(self.N, self.k)


@dataclass(frozen=True)
class StepRing:
    """One-step flag ring of the pair {j, j+1}; nu = 2j - N.

    ``xi_pos`` fixes the index printed on the strand variable, so a step
    ring can be addressed as the ``xi_pos``-th tensor factor of a longer
    flag path.
    """

    N: int
    j: int
    xi_pos: int = 1

    def __post_init__(self):
        require_int(self.N, "N")
        require_int(self.j, "j")
        require_int(self.xi_pos, "xi_pos")
        if not 0 <= self.j < self.N:
            raise ValueError("step ring needs 0 <= j < N")

    @property
    def nu(self) -> int:
        return 2 * self.j - self.N

    def xi(self, exp: int = 1) -> Polynomial:
        return Polynomial.gen(xi_sym(self.xi_pos), exp)

    def ends(self, letter: str) -> tuple[GrassContext, GrassContext]:
        """The end ring that owns the generators of ``letter``, which are
        the step ring's own (the lower ring j for x, the upper ring j + 1
        for y), then the other end."""
        lower, upper = GrassContext(self.N, self.j), GrassContext(self.N, self.j + 1)
        return (lower, upper) if letter == "x" else (upper, lower)

    # -- embeddings of the end rings -------------------------------------

    def embed_end(self, sym: VarSymbol) -> Polynomial:
        """Image of an end-ring generator symbol, whose weight names its end.

        A generator the step ring owns (a lower x, an upper y) is itself;
        one of the other end, g[a], is g[a] + g[a-1] * xi in the step
        ring's generators g of that letter.
        """
        letter = "x" if sym.kind == KIND_X else "y"
        own, other = self.ends(letter)
        if sym in own.catalog():
            return Polynomial.gen(sym)
        if sym not in other.catalog():
            raise ValueError("symbol %s is no generator of either end ring" % sym.render())
        return own.gen(letter, sym.index) + own.gen(letter, sym.index - 1) * self.xi()

    def embed_ring_poly(self, p: Polynomial) -> Polynomial:
        """Image of a polynomial in end-ring generators."""
        return p.substitute({s: self.embed_end(s) for s in p.symbols()})

    def transport(self, sym: VarSymbol) -> Polynomial:
        """A generator the step ring owns, g[a], through the other end's
        generators g of its letter: sum_{l=0..a} (-1)^l * g[a-l] * xi^l."""
        letter = "x" if sym.kind == KIND_X else "y"
        other = self.ends(letter)[1]
        return sum_of_products(
            (other.gen(letter, sym.index - ell), -self.xi(ell) if ell % 2 else self.xi(ell))
            for ell in range(0, sym.index + 1))


@lru_cache(maxsize=None)
def ring_catalog(N: int, k: int) -> frozenset[VarSymbol]:
    """Generator symbols of the ring H_k inside rank N."""
    ctx = GrassContext(N, k)
    return frozenset(_SYMBOL[letter](index, ctx.n) for letter in "xy"
                     for index in range(1, ctx.top(letter) + 1))


@lru_cache(maxsize=None)
def step_catalog(N: int, j: int, xi_pos: int) -> frozenset[VarSymbol]:
    """Generator symbols of the one-step ring {j, j+1} at factor xi_pos:
    the lower ring's x's, the xi and the upper ring's y's."""
    return frozenset({s for s in ring_catalog(N, j) if s.kind == KIND_X}
                     | {s for s in ring_catalog(N, j + 1) if s.kind == KIND_Y}
                     | {xi_sym(xi_pos)})


#: The letter whose generating series each family inverts: X the y's, Y the x's.
FAMILY_LETTER = {"X": "y", "Y": "x"}

# Per (N, k, family): the negated generators of the defining recursion by
# index, and the classes of index 0, 1, ... found so far, which
# ``special_class`` extends together.
_SPECIAL_CLASSES: dict = {}


def special_class(ctx: GrassContext, family: str, alpha: int) -> Polynomial:
    """The class X_alpha (family 'X') or Y_alpha (family 'Y') in H_k.

    X_0 = Y_0 = 1, both vanish for negative alpha, and

        X_a = -sum_{j=1..a} y[j] * X_{a-j},
        Y_b = -sum_{j=1..b} x[j] * Y_{b-j}.

    Results are memoized per (N, k, family, alpha).  Only the generators
    of index at most alpha are built, so the work does not grow with N.
    """
    if family not in FAMILY_LETTER:
        raise ValueError("family must be 'X' or 'Y'")
    if alpha < 0:
        return Polynomial.zero()
    letter = FAMILY_LETTER[family]
    last = ctx.top(letter)
    key = (ctx.N, ctx.k, family)
    entry = _SPECIAL_CLASSES.get(key)
    if entry is None:
        entry = _SPECIAL_CLASSES.setdefault(key, ({}, {0: Polynomial.one()}))
    negated, table = entry
    # extend in increasing index, in a loop (no recursion depth), storing
    # generator d before class d; threads racing on one table may compute
    # an entry twice but store the first.  y[j] (x[j]) past the ring's
    # last generator is 0 and adds no term.
    for d in range(len(table), alpha + 1):
        if d <= last:
            negated.setdefault(d, -ctx.gen(letter, d))
        table.setdefault(d, sum_of_products(
            (negated[t], table[d - t]) for t in range(1, min(d, last) + 1)))
    return table[alpha]


def embedded_gens(ring: StepRing, end: GrassContext, letter: str) -> tuple:
    """The generators g_1, g_2, ... of ``letter`` in the end ring ``end``,
    each embedded in ``ring``."""
    return tuple(ring.embed_ring_poly(g) for g in end.gens(letter)[1:])


def embedded_special_classes(ring: StepRing, family: str, end: GrassContext,
                             classes, embedded) -> list[Polynomial]:
    """``[ring.embed_ring_poly(c) for c in classes]`` for the classes
    C_0, C_1, ... of ``family`` in the end ring ``end``, through the recursion
    emb(C_a) = emb(R_a) - sum_{t>=1} emb(g_t) * emb(C_{a-t}) + delta(a, 0),
    with generators g_t (y[t] for X, x[t] for Y, g_0 = 1) and the residual
    R_a = sum_t g_t * C_{a-t} - delta(a, 0).  emb is a ring homomorphism, so
    this holds for any table; only the g_t and a nonzero R_a (0 for a
    correct table) are substituted.  ``embedded`` is the emb(g_t), t >= 1,
    of ``embedded_gens``.
    """
    gens = end.gens(FAMILY_LETTER[family])
    negated = [-g for g in embedded]
    out = []
    for a in range(len(classes)):
        residual = sum_of_products(zip(gens, reversed(classes[:a + 1])))
        value = sum_of_products(zip(negated, reversed(out)))
        if a == 0:
            residual, value = residual - 1, value + 1
        out.append(value + ring.embed_ring_poly(residual) if residual else value)
    return out


def special_class_terms(ctx: GrassContext, family: str, alpha: int,
                        limit: int) -> int:
    """The number of terms of ``special_class(ctx, family, alpha)``, computed
    without the class, or some number above ``limit`` if it exceeds it.

    X_alpha has one term per partition of alpha into parts of size at most
    N-k (a monomial in the y's; its coefficient, a signed multinomial, is
    never zero), and Y_alpha one per partition into parts of size at most k.
    The count takes O(alpha * r) steps for parts up to r, and stops adding
    part sizes once it has passed ``limit``.
    """
    if alpha < 0:
        return 0
    parts = ctx.top(FAMILY_LETTER[family])
    counts = [1] + [0] * alpha
    for part in range(1, min(parts, alpha) + 1):
        for total in range(part, alpha + 1):
            counts[total] += counts[total - part]
        if counts[alpha] > limit:
            break
    return counts[alpha]


#: The closed bubble of each orientation sums the generators of one letter
#: against the special classes of the matching family.
_BUBBLE_SERIES = {"cw": ("y", "Y"), "ccw": ("x", "X")}


def bubble_value(ctx: GrassContext, orientation: str, alpha: int) -> Polynomial:
    """Value of the closed dotted bubble of degree 2*alpha in H_k.

    ``orientation`` is 'cw' or 'ccw'; the dot label on the diagram side is
    n-1+alpha resp. -n-1+alpha.  The same closed formula covers the formal
    bubbles with negative labels, and alpha < 0 gives 0.
    """
    if orientation not in _BUBBLE_SERIES:
        raise ValueError("orientation must be 'cw' or 'ccw'")
    if alpha < 0:
        return Polynomial.zero()
    letter, family = _BUBBLE_SERIES[orientation]
    # the classes of negative index vanish: only generators up to alpha
    acc = sum_of_products((ctx.gen(letter, ell), special_class(ctx, family, alpha - ell))
                          for ell in range(alpha + 1))
    return -acc if alpha % 2 else acc


#: Each delta series pairs the generators of one letter with the special
#: classes of the other family.
_DELTA_SERIES = {"xY": ("x", "Y"), "Xy": ("y", "X")}


def check_series_identity(ctx: GrassContext, which: str, bound: int):
    """Degree-by-degree series checks in H_k, up to degree index `bound`.

    which = 'xY':  sum_j x[j] * Y_{d-j} == delta(d, 0)
    which = 'Xy':  sum_j y[j] * X_{d-j} == delta(d, 0)
    which = 'bubble_product': the cw and ccw bubble series are mutually
    inverse, sum_i cw[i] * ccw[d-i] == delta(d, 0).  A series with
    constant term 1 has exactly one inverse, so this convolution alone
    decides the relation.

    The convolution of two dense series is never formed.  With the unit
    series a = x(-t) and b = y(-t), each with constant term 1, the check
    forms P = cw * a and Q = ccw * b and compares P * Q with u = a * b
    degree by degree.  With E = cw * ccw - 1, P * Q - u = E * u, and u has
    constant term 1, so multiplying by u is injective mod t^(bound+1):
    E * u vanishes through degree ``bound`` exactly when E does.  Below
    the lowest degree d where E is nonzero, E * u vanishes too, and at d
    its component is E_d * u_0 = E_d.  So the failing degree is the same,
    and (P * Q - u)_d + delta(d, 0) is the convolution sum_i cw[i] *
    ccw[d-i] that the report renders, for any bubble values.  With
    correct values P = y(-t) and Q = x(-t), so each product has a
    single-term or a sparse factor.

    Returns (ok, report); report describes the first failure, else None.
    """
    if which in _DELTA_SERIES:
        letter, family = _DELTA_SERIES[which]
        for d in range(0, bound + 1):
            acc = sum_of_products((ctx.gen(letter, j), special_class(ctx, family, d - j))
                                  for j in range(0, d + 1))
            want = Polynomial.one() if d == 0 else Polynomial.zero()
            if acc != want:
                return False, "%s failed at degree %d: %s" % (which, d, acc.render())
        return True, None
    if which == "bubble_product":
        cw = [bubble_value(ctx, "cw", a) for a in range(0, bound + 1)]
        ccw = [bubble_value(ctx, "ccw", a) for a in range(0, bound + 1)]
        # a = x(-t) and b = y(-t) up to degree bound, constant term 1
        a, b = ([Polynomial.one()]
                + [-g if j % 2 else g
                   for j, g in enumerate(ctx.gens(letter)[1:bound + 1], start=1)]
                for letter in "xy")
        minus_b = [-g for g in b]
        P, Q = [], []
        for d in range(0, bound + 1):
            P.append(sum_of_products((a[j], cw[d - j]) for j in range(min(d + 1, len(a)))))
            Q.append(sum_of_products((b[j], ccw[d - j]) for j in range(min(d + 1, len(b)))))
            # (P * Q - a * b)_d; a and b end at their last generator
            excess = sum_of_products(chain(
                ((P[i], Q[d - i]) for i in range(0, d + 1)),
                ((a[i], minus_b[d - i])
                 for i in range(max(0, d + 1 - len(b)), min(d + 1, len(a))))))
            if excess:
                acc = excess + 1 if d == 0 else excess
                return False, ("bubble product failed at degree %d: %s"
                               % (d, acc.render()))
        return True, None
    raise ValueError("unknown identity %r" % which)
