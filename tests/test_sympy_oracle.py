"""Differential tests of the polynomial core against sympy.

Each test draws term lists with Hypothesis, builds the same polynomials
in catsl2 (through its own arithmetic) and as ``sympy.Poly`` over QQ
(straight from the term list), applies one operation on both sides and
compares the results coefficient by coefficient.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_series_inversion
from sympy.polys.rings import ring

from catsl2.exactpoly import (
    Polynomial,
    mono_pairs,
    sum_of_products,
    x_sym,
    xi_sym,
    y_sym,
)
from helpers import series_invert

SYMS = [x_sym(1, 0), x_sym(2, 0), y_sym(1, 2), xi_sym(1)]
GENS = sympy.symbols("x1 x2 y1 xi")

coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
exponents = st.lists(st.integers(0, 3), min_size=len(SYMS), max_size=len(SYMS))
term_lists = st.lists(st.tuples(coefficients, exponents), max_size=5)
# Operands of `*` and `+`: a general term list, one term, or a scalar
# (the unit among them); `*` puts a lone term outside, and a unit
# monomial there keeps the other side's keys.
scalars = st.one_of(coefficients, st.just(Fraction(1)))
operands = st.one_of(
    term_lists,
    st.lists(st.tuples(coefficients, exponents), min_size=1, max_size=1),
    st.builds(lambda c: [(c, [0] * len(SYMS))], scalars),
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def ours(terms) -> Polynomial:
    acc = Polynomial.zero()
    for coeff, exps in terms:
        term = Polynomial.const(coeff)
        for sym, e in zip(SYMS, exps):
            term = term * Polynomial.gen(sym, e)
        acc = acc + term
    return acc


def theirs(terms) -> sympy.Poly:
    acc = sympy.Poly(0, *GENS, domain=QQ)
    for coeff, exps in terms:
        acc = acc + sympy.Poly.from_dict(
            {tuple(exps): sympy.Rational(coeff.numerator, coeff.denominator)},
            *GENS, domain=QQ)
    return acc


def as_poly(p: Polynomial) -> sympy.Poly:
    """Our polynomial as a sympy.Poly, read through the decoded pairs."""
    data = {}
    for mono, coeff in p.terms.items():
        exps = dict(mono_pairs(mono))
        coeff = Fraction(coeff)
        data[tuple(exps.get(s, 0) for s in SYMS)] = sympy.Rational(
            coeff.numerator, coeff.denominator)
    return sympy.Poly.from_dict(data or {(0,) * len(SYMS): 0}, *GENS, domain=QQ)


def same(p: Polynomial, q: sympy.Poly) -> bool:
    return as_poly(p).as_dict() == q.as_dict()


@SETTINGS
@given(term_lists)
def test_construction_matches_sympy(a):
    assert same(ours(a), theirs(a))


@SETTINGS
@given(operands, operands)
def test_add_sub_match_sympy(a, b):
    assert same(ours(a) + ours(b), theirs(a) + theirs(b))
    assert same(ours(a) - ours(b), theirs(a) - theirs(b))


@SETTINGS
@given(operands, operands)
def test_mul_matches_sympy(a, b):
    assert same(ours(a) * ours(b), theirs(a) * theirs(b))


@SETTINGS
@given(operands, scalars)
def test_scalar_operands_match_sympy(a, c):
    # a plain int or Fraction on either side of `*`, `+` and `-`
    q = sympy.Rational(c.numerator, c.denominator)
    p, want = ours(a), theirs(a)
    for got, expected in ((p * c, want * q), (c * p, want * q), (p + c, want + q),
                          (c + p, want + q), (p - c, want - q), (c - p, q - want)):
        assert same(got, expected)
        assert all(got.terms.values())


@SETTINGS
@given(operands, operands)
def test_cancelling_sums_and_products_match_sympy(a, b):
    # sums that cancel wholly, and a product whose cross terms cancel:
    # (p + q)(p - q) = p^2 - q^2, with no zero coefficient left behind
    p, q = ours(a), ours(b)
    assert (p - p).is_zero() and (p + (-p)).is_zero() and (-p + p).is_zero()
    product = (p + q) * (p - q)
    assert same(product, (theirs(a) + theirs(b)) * (theirs(a) - theirs(b)))
    assert all(product.terms.values())
    assert (product - p * p + q * q).is_zero()
    assert sum_of_products([(p, q), (-p, q), (q, p), (p, -q)]).is_zero()


@SETTINGS
@given(term_lists, st.integers(0, 4))
def test_pow_matches_sympy(a, n):
    assert same(ours(a) ** n, theirs(a) ** n)


@SETTINGS
@given(term_lists, st.lists(st.tuples(st.integers(0, len(SYMS) - 1), term_lists),
                            max_size=3))
def test_substitute_matches_sympy(a, subs):
    mapping = {SYMS[i]: ours(t) for i, t in subs}
    sympy_map = {GENS[i]: theirs(t).as_expr() for i, t in subs}
    want = theirs(a).as_expr().subs(sympy_map, simultaneous=True)
    got = ours(a).substitute(mapping)
    assert same(got, sympy.Poly(sympy.expand(want), *GENS, domain=QQ))


SERIES_RING, T, *SERIES_GENS = ring("t,x1,x2,y1,xi", QQ)


def _ring_element(terms):
    acc = SERIES_RING.zero
    for coeff, exps in terms:
        term = SERIES_RING(QQ(coeff.numerator, coeff.denominator))
        for g, e in zip(SERIES_GENS, exps):
            term *= g ** e
        acc += term
    return acc


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(term_lists, min_size=1, max_size=4), st.integers(0, 5))
def test_series_invert_matches_sympy(components, bound):
    comps = [Polynomial.one()] + [ours(c) for c in components]
    series = SERIES_RING.one + sum(
        (_ring_element(c) * T ** d for d, c in enumerate(components, start=1)),
        SERIES_RING.zero)
    inverse = rs_series_inversion(series, T, bound + 1)
    got = series_invert(comps, bound)
    assert len(got) == bound + 1
    for d, component in enumerate(got):
        want = SERIES_RING.zero
        for monom, coeff in inverse.terms():
            if monom[0] == d:
                want += coeff * SERIES_RING({(0,) + monom[1:]: QQ(1)})
        data = {}
        for mono, coeff in component.terms.items():
            exps = dict(mono_pairs(mono))
            coeff = Fraction(coeff)
            data[(0,) + tuple(exps.get(s, 0) for s in SYMS)] = QQ(
                coeff.numerator, coeff.denominator)
        assert SERIES_RING(data) == want


@SETTINGS
@given(st.lists(st.tuples(operands, operands), max_size=4))
def test_sum_of_products_matches_sympy(pairs):
    got = sum_of_products([(ours(a), ours(b)) for a, b in pairs])
    want = sympy.Poly(0, *GENS, domain=QQ)
    for a, b in pairs:
        want = want + theirs(a) * theirs(b)
    assert same(got, want)
    assert all(got.terms.values())
