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
polynomials built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactpoly import (
    Polynomial,
    VarSymbol,
    KIND_X,
    KIND_Y,
    series_invert,
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

    def catalog(self) -> set[VarSymbol]:
        """All generator symbols of this ring."""
        syms = {x_sym(j, self.n) for j in range(1, self.k + 1)}
        syms |= {y_sym(j, self.n) for j in range(1, self.N - self.k + 1)}
        return syms


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

    def embed_lower_x(self, index: int) -> Polynomial:
        return self.x(index)

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

    def embed_upper_y(self, index: int) -> Polynomial:
        return self.y(index)

    def embed_end(self, sym: VarSymbol, end: str) -> Polynomial:
        """Image of an end-ring generator symbol; end is 'lower' or 'upper'."""
        want = self.nu if end == "lower" else self.nu + 2
        if sym.weight != want:
            raise ValueError("symbol %s does not belong to the %s end ring"
                             % (sym.render(), end))
        if end == "lower":
            fn = self.embed_lower_x if sym.kind == KIND_X else self.embed_lower_y
        else:
            fn = self.embed_upper_x if sym.kind == KIND_X else self.embed_upper_y
        return fn(sym.index)

    def embed_ring_poly(self, p: Polynomial, end: str) -> Polynomial:
        """Image of a polynomial in end-ring generators."""
        return p.substitute({s: self.embed_end(s, end) for s in p.symbols()})

    # -- inverse expansions (end-ring generator via the other end) -------

    def lower_x_expansion(self, index: int) -> Polynomial:
        """x[index]@nu as an alternating xi-sum of upper-ring x's."""
        acc = Polynomial.zero()
        sign = 1
        for ell in range(0, index + 1):
            term = (GrassContext(self.N, self.j + 1).x(index - ell)
                    * self.xi(ell) * sign)
            acc = acc + term
            sign = -sign
        return acc

    def upper_y_expansion(self, index: int) -> Polynomial:
        """y[index]@(nu+2) as an alternating xi-sum of lower-ring y's."""
        acc = Polynomial.zero()
        sign = 1
        for ell in range(0, index + 1):
            term = (GrassContext(self.N, self.j).y(index - ell)
                    * self.xi(ell) * sign)
            acc = acc + term
            sign = -sign
        return acc


@lru_cache(maxsize=None)
def step_catalog(N: int, j: int, xi_pos: int) -> frozenset[VarSymbol]:
    """Generator symbols of the one-step ring {j, j+1} at factor xi_pos."""
    nu = 2 * j - N
    syms = {x_sym(t, nu) for t in range(1, j + 1)}
    syms |= {y_sym(t, nu + 2) for t in range(1, N - j)}
    syms.add(xi_sym(xi_pos))
    return frozenset(syms)


@lru_cache(maxsize=None)
def _special(N: int, k: int, family: str, alpha: int) -> Polynomial:
    ctx = GrassContext(N, k)
    if alpha < 0:
        return Polynomial.zero()
    if alpha == 0:
        return Polynomial.one()
    mult = ctx.y if family == "X" else ctx.x
    acc = Polynomial.zero()
    for j in range(1, alpha + 1):
        acc = acc + mult(j) * _special(N, k, family, alpha - j)
    return -acc


def special_class(ctx: GrassContext, family: str, alpha: int) -> Polynomial:
    """The class X_alpha (family 'X') or Y_alpha (family 'Y') in H_k.

    X_0 = Y_0 = 1, both vanish for negative alpha, and

        X_a = -sum_{j=1..a} y[j] * X_{a-j},
        Y_b = -sum_{j=1..b} x[j] * Y_{b-j}.

    Results are memoized per (N, k, family, alpha).
    """
    if family not in ("X", "Y"):
        raise ValueError("family must be 'X' or 'Y'")
    return _special(ctx.N, ctx.k, family, alpha)


def bubble_value(ctx: GrassContext, orientation: str, alpha: int) -> Polynomial:
    """Value of the closed dotted bubble of degree 2*alpha in H_k.

    ``orientation`` is 'cw' or 'ccw'; the dot label on the diagram side is
    n-1+alpha resp. -n-1+alpha.  The same closed formula covers the formal
    bubbles with negative labels, and alpha < 0 gives 0.
    """
    if orientation not in ("cw", "ccw"):
        raise ValueError("orientation must be 'cw' or 'ccw'")
    if alpha < 0:
        return Polynomial.zero()
    acc = Polynomial.zero()
    if orientation == "cw":
        for ell in range(0, ctx.N - ctx.k + 1):
            acc = acc + ctx.y(ell) * special_class(ctx, "Y", alpha - ell)
    else:
        for ell in range(0, ctx.k + 1):
            acc = acc + ctx.x(ell) * special_class(ctx, "X", alpha - ell)
    if alpha % 2:
        acc = -acc
    return acc


def check_series_identity(ctx: GrassContext, which: str, bound: int):
    """Degree-by-degree series checks in H_k, up to degree index `bound`.

    which = 'xY':  sum_j x[j] * Y_{d-j} == delta(d, 0)
    which = 'Xy':  sum_j y[j] * X_{d-j} == delta(d, 0)
    which = 'bubble_product': the cw and ccw bubble series are mutually
    inverse, cross-checked against an independent series inversion.

    Returns (ok, report); report describes the first failure, else None.
    """
    if which == "xY":
        for d in range(0, bound + 1):
            acc = Polynomial.zero()
            for j in range(0, d + 1):
                acc = acc + ctx.x(j) * special_class(ctx, "Y", d - j)
            want = Polynomial.one() if d == 0 else Polynomial.zero()
            if acc != want:
                return False, "xY failed at degree %d: %s" % (d, acc.render())
        return True, None
    if which == "Xy":
        for d in range(0, bound + 1):
            acc = Polynomial.zero()
            for j in range(0, d + 1):
                acc = acc + ctx.y(j) * special_class(ctx, "X", d - j)
            want = Polynomial.one() if d == 0 else Polynomial.zero()
            if acc != want:
                return False, "Xy failed at degree %d: %s" % (d, acc.render())
        return True, None
    if which == "bubble_product":
        cw = [bubble_value(ctx, "cw", a) for a in range(0, bound + 1)]
        ccw = [bubble_value(ctx, "ccw", a) for a in range(0, bound + 1)]
        for d in range(0, bound + 1):
            acc = Polynomial.zero()
            for i in range(0, d + 1):
                acc = acc + cw[i] * ccw[d - i]
            want = Polynomial.one() if d == 0 else Polynomial.zero()
            if acc != want:
                return False, ("bubble product failed at degree %d: %s"
                               % (d, acc.render()))
        # independent route: series inversion must reproduce the other family
        if series_invert(ccw, bound) != cw:
            return False, "series inversion disagrees with the closed formula"
        return True, None
    raise ValueError("unknown identity %r" % which)
