"""Equivariant cohomology rings of Grassmannians and one-step flags.

For a fixed rank ``N`` and ``0 <= k <= N`` (weight ``n = 2k - N``) the ring
``H_k`` is the free polynomial ring on ``x[1..k]@n`` and ``y[1..N-k]@n``.
The one-step ring for the pair ``{j, j+1}`` is free on ``x[1..j]@nu``,
``xi`` and ``y[1..N-j-1]@(nu+2)`` with ``nu = 2j - N``; its two end rings
embed via the exchange relations

    x[a]@(nu+2) = x[a]@nu + x[a-1]@nu * xi
    y[a]@nu     = y[a]@(nu+2) + y[a-1]@(nu+2) * xi

and the inverse expansions obtained by alternating xi-power sums.  Indices
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

from .exactpoly import (
    Polynomial,
    VarSymbol,
    KIND_X,
    series_invert,
    sum_of_products,
    x_sym,
    xi_sym,
    y_sym,
)


@dataclass(frozen=True)
class GrassContext:
    """The ring H_k inside rank N; weight n = 2k - N."""

    N: int
    k: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("rank N must be a positive integer")
        if not 0 <= self.k <= self.N:
            raise ValueError("k must lie in [0, N]")

    @property
    def n(self) -> int:
        return 2 * self.k - self.N

    def x(self, index: int) -> Polynomial:
        """x[index]@n, with the out-of-range and index-0 conventions."""
        if index == 0:
            return Polynomial.one()
        if index < 0 or index > self.k:
            return Polynomial.zero()
        return Polynomial.gen(x_sym(index, self.n))

    def y(self, index: int) -> Polynomial:
        if index == 0:
            return Polynomial.one()
        if index < 0 or index > self.N - self.k:
            return Polynomial.zero()
        return Polynomial.gen(y_sym(index, self.n))

    def gens(self, letter: str) -> list[Polynomial]:
        """1, x[1], ..., x[k] (letter 'x') or 1, y[1], ..., y[N-k] ('y')."""
        gen, last = (self.x, self.k) if letter == "x" else (self.y, self.N - self.k)
        return [gen(index) for index in range(last + 1)]

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
        if not 0 <= self.j < self.N:
            raise ValueError("step ring needs 0 <= j < N")

    @property
    def nu(self) -> int:
        return 2 * self.j - self.N

    @property
    def lower(self) -> GrassContext:
        return GrassContext(self.N, self.j)

    @property
    def upper(self) -> GrassContext:
        return GrassContext(self.N, self.j + 1)

    def xi(self, exp: int = 1) -> Polynomial:
        return Polynomial.gen(xi_sym(self.xi_pos), exp)

    def x(self, index: int) -> Polynomial:
        """Canonical generator x[index]@nu (0 <= index <= j)."""
        if index == 0:
            return Polynomial.one()
        if index < 0 or index > self.j:
            return Polynomial.zero()
        return Polynomial.gen(x_sym(index, self.nu))

    def y(self, index: int) -> Polynomial:
        """Canonical generator y[index]@(nu+2) (0 <= index <= N-j-1)."""
        if index == 0:
            return Polynomial.one()
        if index < 0 or index > self.N - self.j - 1:
            return Polynomial.zero()
        return Polynomial.gen(y_sym(index, self.nu + 2))

    def catalog(self) -> frozenset[VarSymbol]:
        return step_catalog(self.N, self.j, self.xi_pos)

    # -- embeddings of the end rings -------------------------------------

    def embed_lower_y(self, index: int) -> Polynomial:
        if index == 0:
            return Polynomial.one()
        if index < 0 or index > self.N - self.j:
            return Polynomial.zero()
        return self.y(index) + self.y(index - 1) * self.xi()

    def embed_upper_x(self, index: int) -> Polynomial:
        if index == 0:
            return Polynomial.one()
        if index < 0 or index > self.j + 1:
            return Polynomial.zero()
        return self.x(index) + self.x(index - 1) * self.xi()

    def embed_end(self, sym: VarSymbol, end: str) -> Polynomial:
        """Image of an end-ring generator symbol; end is 'lower' or 'upper'."""
        want = self.nu if end == "lower" else self.nu + 2
        if sym.weight != want:
            raise ValueError("symbol %s does not belong to the %s end ring"
                             % (sym.render(), end))
        # the lower x's and the upper y's are canonical generators already
        if end == "lower":
            fn = self.x if sym.kind == KIND_X else self.embed_lower_y
        else:
            fn = self.embed_upper_x if sym.kind == KIND_X else self.y
        return fn(sym.index)

    def embed_ring_poly(self, p: Polynomial, end: str) -> Polynomial:
        """Image of a polynomial in end-ring generators."""
        return p.substitute({s: self.embed_end(s, end) for s in p.symbols()})

    # -- inverse expansions (end-ring generator via the other end) -------

    def lower_x_expansion(self, index: int) -> Polynomial:
        """x[index]@nu as an alternating xi-sum of upper-ring x's."""
        return self._alternating_xi_sum(self.upper.x, index)

    def upper_y_expansion(self, index: int) -> Polynomial:
        """y[index]@(nu+2) as an alternating xi-sum of lower-ring y's."""
        return self._alternating_xi_sum(self.lower.y, index)

    def _alternating_xi_sum(self, gen, index: int) -> Polynomial:
        """sum_{ell=0..index} (-1)^ell * gen(index - ell) * xi^ell."""
        return sum_of_products(
            (gen(index - ell), -self.xi(ell) if ell % 2 else self.xi(ell))
            for ell in range(0, index + 1))


@lru_cache(maxsize=None)
def ring_catalog(N: int, k: int) -> frozenset[VarSymbol]:
    """Generator symbols of the ring H_k inside rank N."""
    n = 2 * k - N
    syms = {x_sym(j, n) for j in range(1, k + 1)}
    syms |= {y_sym(j, n) for j in range(1, N - k + 1)}
    return frozenset(syms)


@lru_cache(maxsize=None)
def step_catalog(N: int, j: int, xi_pos: int) -> frozenset[VarSymbol]:
    """Generator symbols of the one-step ring {j, j+1} at factor xi_pos."""
    nu = 2 * j - N
    syms = {x_sym(t, nu) for t in range(1, j + 1)}
    syms |= {y_sym(t, nu + 2) for t in range(1, N - j)}
    syms.add(xi_sym(xi_pos))
    return frozenset(syms)


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
    if family not in ("X", "Y"):
        raise ValueError("family must be 'X' or 'Y'")
    if alpha < 0:
        return Polynomial.zero()
    gen, last = (ctx.y, ctx.N - ctx.k) if family == "X" else (ctx.x, ctx.k)
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
            negated.setdefault(d, -gen(d))
        table.setdefault(d, sum_of_products(
            (negated[t], table[d - t]) for t in range(1, min(d, last) + 1)))
    return table[alpha]


def embedded_special_classes(ring: StepRing, family: str, end: str,
                             classes) -> list[Polynomial]:
    """``[ring.embed_ring_poly(c, end) for c in classes]`` for the classes
    C_0, C_1, ... of ``family`` in the ``end`` ring, through the recursion
    emb(C_a) = emb(R_a) - sum_{t>=1} emb(g_t) * emb(C_{a-t}) + delta(a, 0),
    with generators g_t (y[t] for X, x[t] for Y, g_0 = 1) and the residual
    R_a = sum_t g_t * C_{a-t} - delta(a, 0).  emb is a ring homomorphism, so
    this holds for any table; only the g_t and a nonzero R_a (0 for a
    correct table) are substituted.
    """
    gens = getattr(ring, end).gens("y" if family == "X" else "x")
    negated = [-ring.embed_ring_poly(g, end) for g in gens[1:]]
    out = []
    for a in range(len(classes)):
        residual = sum_of_products(zip(gens, reversed(classes[:a + 1])))
        value = sum_of_products(zip(negated, reversed(out)))
        if a == 0:
            residual, value = residual - 1, value + 1
        out.append(value + ring.embed_ring_poly(residual, end) if residual else value)
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
    parts = ctx.N - ctx.k if family == "X" else ctx.k
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
    gen = getattr(ctx, letter)
    acc = sum_of_products((gen(ell), special_class(ctx, family, alpha - ell))
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
    inverse, cross-checked against an independent series inversion.

    Returns (ok, report); report describes the first failure, else None.
    """
    if which in _DELTA_SERIES:
        letter, family = _DELTA_SERIES[which]
        gen = getattr(ctx, letter)
        for d in range(0, bound + 1):
            acc = sum_of_products((gen(j), special_class(ctx, family, d - j))
                                  for j in range(0, d + 1))
            want = Polynomial.one() if d == 0 else Polynomial.zero()
            if acc != want:
                return False, "%s failed at degree %d: %s" % (which, d, acc.render())
        return True, None
    if which == "bubble_product":
        cw = [bubble_value(ctx, "cw", a) for a in range(0, bound + 1)]
        ccw = [bubble_value(ctx, "ccw", a) for a in range(0, bound + 1)]
        for d in range(0, bound + 1):
            acc = sum_of_products((cw[i], ccw[d - i]) for i in range(0, d + 1))
            want = Polynomial.one() if d == 0 else Polynomial.zero()
            if acc != want:
                return False, ("bubble product failed at degree %d: %s"
                               % (d, acc.render()))
        # independent route: series inversion must reproduce the other family
        if series_invert(ccw, bound) != cw:
            return False, "series inversion disagrees with the closed formula"
        return True, None
    raise ValueError("unknown identity %r" % which)
