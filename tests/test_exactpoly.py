import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catsl2.exactpoly import (
    MAX_EXPONENT,
    Polynomial,
    homogeneous_degree,
    mono_degree,
    mono_pairs,
    sum_of_products,
    x_sym,
    xi_sym,
    y_sym,
)
from helpers import series_invert, sum_of_products_reference, xgen, xigen, ygen

SRC = Path(__file__).resolve().parent.parent / "src"


def test_rational_invariants():
    # lowest terms, positive denominator, exact arithmetic
    half = Fraction(1, 2)
    third = Fraction(2, 6)
    assert third.numerator == 1 and third.denominator == 3
    assert Fraction(3, -6) == Fraction(-1, 2)
    assert Fraction(3, -6).denominator == 2
    assert half + third == Fraction(5, 6)


def test_difference_of_squares():
    x = xgen(1, 0)
    assert (x + 1) * (x - 1) == x * x - 1


def test_additive_identity():
    p = xgen(2, 4) + 3 * ygen(1, 4)
    assert p + Polynomial.zero() == p


def test_exact_rational_product():
    p = Polynomial.const(Fraction(1, 2)) * xigen(1)
    q = Polynomial.const(Fraction(2, 3)) * xigen(1)
    assert p * q == Polynomial.const(Fraction(1, 3)) * xigen(1, 2)


def test_no_zero_terms_stored():
    x = xgen(1, 0)
    assert (x - x).terms == {}
    assert (x - x).is_zero()


def test_homogeneous_degree():
    n = 2
    assert homogeneous_degree(xgen(2, n)) == 4
    assert homogeneous_degree(xgen(1, n) * xigen(1)) == 4
    assert homogeneous_degree(xgen(1, n) + xgen(2, n)) is None
    assert homogeneous_degree(Polynomial.zero()) is None


def test_symbol_identity_and_order():
    assert x_sym(1, 2) == x_sym(1, 2)
    assert x_sym(1, 2) != x_sym(1, 0)
    assert x_sym(1, 2) != y_sym(1, 2)
    # fixed total order: kind, then weight tag, then index
    assert sorted([y_sym(1, 0), x_sym(2, 4), x_sym(1, 0)]) == \
        [x_sym(1, 0), x_sym(2, 4), y_sym(1, 0)]


def test_render():
    p = xgen(1, 0) ** 2 - xgen(2, 0)
    assert p.render() == "x[1]@0^2 - x[2]@0"
    assert (Polynomial.const(Fraction(1, 2)) * xigen(2)).render() == "1/2*xi{2}"
    assert Polynomial.zero().render() == "0"


# ``series_invert`` is the reference inversion of ``helpers``, which the
# special-class tests compare against


def test_series_invert_geometric():
    x1 = xgen(1, 0)
    inv = series_invert([Polynomial.one(), x1], 2)
    assert inv == [Polynomial.one(), -x1, x1 * x1]


def test_series_invert_identity_series():
    one = Polynomial.one()
    zero = Polynomial.zero()
    assert series_invert([one, zero, zero], 2) == [one, zero, zero]


def test_series_invert_two_terms():
    # components [1, x1, x2] invert to [1, -x1, x1^2 - x2]
    x1, x2 = xgen(1, 0), xgen(2, 0)
    inv = series_invert([Polynomial.one(), x1, x2], 2)
    assert inv == [Polynomial.one(), -x1, x1 * x1 - x2]


def test_series_invert_requires_unit():
    with pytest.raises(ValueError):
        series_invert([xgen(1, 0)], 1)
    with pytest.raises(ValueError):
        series_invert([], 1)


def _random_poly(rng, weight=0, max_terms=4):
    syms = [x_sym(1, weight), x_sym(2, weight), y_sym(1, weight), y_sym(2, weight)]
    poly = Polynomial.zero()
    for _ in range(rng.randrange(0, max_terms + 1)):
        term = Polynomial.const(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
        for _ in range(rng.randrange(0, 3)):
            term = term * Polynomial.gen(syms[rng.randrange(len(syms))],
                                         rng.randrange(1, 3))
        poly = poly + term
    return poly


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(0, 2), st.integers(0, 2))
def test_distributivity_hypothesis(c1, c2, c3, e1, e2):
    a = Polynomial.const(c1) * xgen(1, 0) ** e1
    b = Polynomial.const(c2) * ygen(1, 0) ** e2
    c = Polynomial.const(c3) * xigen(1)
    assert (a + b) * c == a * c + b * c


def _random_homogeneous_series(rng, depth):
    # component d homogeneous of degree 2d, built from degree-2d generators
    comps = [Polynomial.one()]
    for d in range(1, depth + 1):
        comp = Polynomial.const(rng.randrange(-2, 3)) * Polynomial.gen(x_sym(d, 0))
        comp = comp + Polynomial.const(rng.randrange(-2, 3)) * \
            Polynomial.gen(x_sym(1, 0)) ** d
        comps.append(comp)
    return comps


def test_series_invert_is_inverse():
    rng = random.Random(7)
    for _ in range(25):
        comps = _random_homogeneous_series(rng, 4)
        inv = series_invert(comps, 4)
        for d in range(0, 5):
            conv = Polynomial.zero()
            for i in range(0, d + 1):
                left = comps[i] if i < len(comps) else Polynomial.zero()
                conv = conv + left * inv[d - i]
            assert conv == (Polynomial.one() if d == 0 else Polynomial.zero())


def test_homogeneous_degree_multiplicative():
    rng = random.Random(11)
    for _ in range(60):
        a, b = _random_poly(rng), _random_poly(rng)
        da, db = homogeneous_degree(a), homogeneous_degree(b)
        if isinstance(da, int) and isinstance(db, int):
            assert (a * b).is_zero() or homogeneous_degree(a * b) == da + db


def test_polynomials_hashable_and_immutable():
    p = xgen(1, 0) + ygen(1, 0)
    q = ygen(1, 0) + xgen(1, 0)
    assert hash(p) == hash(q) and p == q
    assert len({p, q}) == 1


# -- packed monomials ---------------------------------------------------

# Registers five symbols in the slot order given by argv[1] (a permutation
# of 0..4), then serves one request read from argv[2]:
#   render       print the renders of a fixed set of polynomials,
#   dump         print the hex pickle of the list and the first render,
#   load <hex>   unpickle it, print whether it equals the same list built
#                locally (values and hashes), and the first render.
# Every line also reports this process's bit offset of the first symbol,
# so a test can show that the two processes really packed differently.
_ORDER_SCRIPT = """
import pickle, sys
from fractions import Fraction
from catsl2.exactpoly import Polynomial, field_shift, x_sym, xi_sym, y_sym
syms = [x_sym(1, 0), x_sym(2, 0), y_sym(1, 2), xi_sym(1), xi_sym(2)]
for i in sys.argv[1].split(","):
    field_shift(syms[int(i)])
g = [Polynomial.gen(s) for s in syms]
polys = [
    g[0] ** 3 * g[4] - Fraction(2, 3) * g[2] * g[1] + 5,
    (g[3] + g[2]) ** 4 - g[0] * g[1] * g[2] * g[3] * g[4],
    -g[4] ** 2 + g[3] ** 2 * g[1],
    Polynomial.const(Fraction(-7, 2)),
]
print("offset", field_shift(syms[0]))
if sys.argv[2] == "render":
    for p in polys:
        print(p.render())
elif sys.argv[2] == "dump":
    print(pickle.dumps(polys + [Polynomial.zero()]).hex())
    print(polys[0].render())
else:
    loaded = pickle.loads(bytes.fromhex(sys.argv[3]))
    print(loaded == polys + [Polynomial.zero()],
          [hash(p) for p in loaded[:-1]] == [hash(p) for p in polys])
    print(loaded[0].render())
"""


def _fresh(order, *request):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT, order, *request],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_pickle_crosses_interpreters_with_other_slot_order():
    dumped = _fresh("0,1,2,3,4", "dump")
    loaded = _fresh("4,3,2,1,0", "load", dumped[1])
    assert dumped[0] != loaded[0]          # the slots really differ
    assert loaded[1] == "True True"
    assert loaded[2] == dumped[2]


def test_render_independent_of_symbol_order():
    first = _fresh("0,1,2,3,4", "render")
    second = _fresh("3,0,4,2,1", "render")
    assert first[0] != second[0]
    # the renders of the tuple-of-pairs representation, byte for byte
    assert first[1:] == second[1:] == [
        "5 + x[1]@0^3*xi{2} - 2/3*x[2]@0*y[1]@2",
        "-x[1]@0*x[2]@0*y[1]@2*xi{1}*xi{2} + 4*y[1]@2*xi{1}^3"
        " + 6*y[1]@2^2*xi{1}^2 + 4*y[1]@2^3*xi{1} + y[1]@2^4 + xi{1}^4",
        "x[2]@0*xi{1}^2 - xi{2}^2",
        "-7/2",
    ]


def test_exponent_limit_raises_overflow():
    s = x_sym(1, 5)
    assert Polynomial.gen(s, MAX_EXPONENT).render() == "x[1]@5^%d" % MAX_EXPONENT
    with pytest.raises(OverflowError):
        Polynomial.gen(s, 2 ** 15)
    half = Polynomial.gen(s, 2 ** 14)
    assert half * Polynomial.gen(s, 2 ** 14 - 1) == Polynomial.gen(s, MAX_EXPONENT)
    with pytest.raises(OverflowError):
        half * half                                   # monomial times monomial
    with pytest.raises(OverflowError):
        (half + ygen(1, 5)) * (half - ygen(1, 5))     # term by term
    with pytest.raises(OverflowError):
        Polynomial.gen(s, 2 ** 13) ** 4
    with pytest.raises(OverflowError):
        half.substitute({ygen(1, 5).symbols().pop(): xgen(2, 5)}) \
            .substitute({s: Polynomial.gen(s, 2)})
    with pytest.raises(ValueError):
        Polynomial.gen(s, -1)


def test_overflow_never_corrupts_a_neighbouring_field():
    # an exponent at the limit sits next to other fields; a product that
    # stays inside the limit leaves every other exponent untouched
    a = Polynomial.gen(x_sym(1, 0), MAX_EXPONENT) * ygen(1, 0) * xigen(1)
    b = ygen(1, 0) ** 3 * xigen(2, 5)
    pairs = mono_pairs(next(iter((a * b).terms)))
    assert pairs == ((x_sym(1, 0), MAX_EXPONENT), (y_sym(1, 0), 4),
                     (xi_sym(1), 1), (xi_sym(2), 5))


def test_symbols_and_degree_agree_with_decoded_pairs():
    rng = random.Random(5)
    for _ in range(100):
        p = _random_poly(rng) * xigen(rng.randrange(1, 4), rng.randrange(0, 3))
        decoded = {m: mono_pairs(m) for m in p.terms}
        assert p.symbols() == {s for pairs in decoded.values() for s, _ in pairs}
        for m, pairs in decoded.items():
            assert list(pairs) == sorted(pairs)
            assert all(e > 0 for _, e in pairs)
            assert mono_degree(m) == sum(s.degree * e for s, e in pairs)


def test_unit_monomial_is_zero():
    assert dict(Polynomial.one().terms) == {0: 1}
    assert mono_pairs(0) == ()
    assert Polynomial.const(3).symbols() == set()


def test_substitute_keeps_unmapped_factors():
    x1, y1, xi = xgen(1, 0), ygen(1, 0), xigen(1)
    p = x1 ** 2 * y1 * xi + 3 * y1 ** 2 - xi
    sym_x1 = x1.symbols().pop()
    got = p.substitute({sym_x1: y1 + 1})
    assert got == (y1 + 1) ** 2 * y1 * xi + 3 * y1 ** 2 - xi
    # symbols the polynomial never uses change nothing
    assert p.substitute({x_sym(9, 9): y1}) is p


def test_equality_with_scalars_reads_the_terms():
    zero, one = Polynomial.zero(), Polynomial.one()
    half, two = Polynomial.const(Fraction(1, 2)), Polynomial.const(2)
    x = xgen(1, 0)
    for poly, equal_to in ((zero, (0, Fraction(0))),
                           (one, (1, Fraction(1, 1))),
                           (half, (Fraction(1, 2),)),
                           (two, (2, Fraction(2, 1)))):
        for c in (0, 1, 2, Fraction(0), Fraction(1, 2), Fraction(2, 1), Fraction(1, 1)):
            want = c in equal_to
            assert (poly == c) is want and (c == poly) is want, (poly, c)
            assert (poly != c) is not want
    # a non-constant polynomial equals no scalar, whatever its coefficients
    for poly in (x, x + 1, x - x + 2, x * Fraction(1, 2), (x + 1) * (x - 1) + 1, x ** 2):
        for c in (0, 1, 2, Fraction(1, 2), Fraction(2, 1)):
            assert (poly == c) is (poly.terms == {0: c}), (poly, c)
    assert x - x + 2 == 2 and (x + 1) * (x - 1) + 1 == x ** 2
    assert x != 0 and x + 1 != 1 and not (x == 1)
    assert Polynomial.__eq__(x, "x") is NotImplemented
    assert Polynomial.__eq__(one, 1.0) is NotImplemented


def _sum_of_products_cases():
    x, y, xi = xgen(1, 0), ygen(1, 0), xigen(1)
    p = x ** 2 - 3 * x * y + Fraction(1, 2) * xi
    q = y ** 2 + x - 1
    return {
        "empty": [],
        "scalars": [(3, p), (p, Fraction(2, 3)), (0, q), (q, 0), (Fraction(2, 1), q),
                    (Fraction(-1, 2), Fraction(4, 3)), (5, 7), (Polynomial.zero(), p)],
        "monomial x polynomial": [(xi, p), (q, x * y), (Polynomial.one(), q)],
        "multi x multi": [(p, q), (q, p + xi), (p + q, p - q)],
        "cancel wholly": [(p, q), (-p, q), (x, y), (y, -x)],
        "difference of squares": [(x + xi, x - xi), (xi, xi), (x, -x)],
        "cancel in part": [(x + y, x - y), (y, y), (p, q), (p, -q + xi)],
        "zero sum of scalars": [(2, 3), (-6, 1)],
    }


@pytest.mark.parametrize("case", sorted(_sum_of_products_cases()))
def test_sum_of_products_matches_the_reference(case):
    pairs = _sum_of_products_cases()[case]
    got = sum_of_products(pairs)
    assert type(got) is Polynomial
    assert got == sum_of_products_reference(pairs)
    assert all(got.terms.values())          # no cancelled coefficient kept
    assert sum_of_products(iter(pairs)) == got


def test_sum_of_products_raises_on_exponent_overflow():
    s = x_sym(1, 5)
    half = Polynomial.gen(s, 2 ** 14)
    top = Polynomial.gen(s, 2 ** 14 - 1)
    assert sum_of_products([(half, top)]) == Polynomial.gen(s, MAX_EXPONENT)
    for pairs in ([(half, half)],                            # monomial x monomial
                  [(xgen(2, 5), ygen(1, 5)), (half + 1, half - 1)],
                  [(half, 2), (3, half), (half, Polynomial.gen(s, 2 ** 14))]):
        with pytest.raises(OverflowError):
            sum_of_products(pairs)
        with pytest.raises(OverflowError):
            sum_of_products_reference(pairs)


@pytest.mark.parametrize("bad", [1.0, 0.5, "x", None])
def test_sum_of_products_rejects_other_factors(bad):
    x = xgen(1, 0)
    for pairs in ([(bad, x)], [(x, bad)], [(x, x), (x + 1, bad)]):
        with pytest.raises(TypeError):
            sum_of_products(pairs)


def test_sum_of_products_mutates_no_input():
    x, y, xi = xgen(1, 0), ygen(1, 0), xigen(1)
    factors = [Polynomial.one(), x + y, x - y, Polynomial.one(), xi * x, x + y,
               2 * xi - 1, y]
    before = [dict(f.terms) for f in factors]
    pairs = list(zip(factors, factors[1:]))         # a unit factor first
    got = sum_of_products(pairs)
    assert got == sum_of_products_reference(pairs)
    assert [dict(f.terms) for f in factors] == before
    # the result owns its terms: a unit factor does not hand out the other's
    assert sum_of_products([(Polynomial.one(), y)]).terms is not y.terms


def _key_objects(*polys):
    """Every monomial key of the polynomials, by value -> the key object."""
    return {m: m for poly in reversed(polys) for m in poly.terms}


def test_sum_of_products_scaled_by_a_scalar_shares_the_keys():
    # a scalar first factor adds nothing to a key, so the sum holds the
    # scaled polynomials' own key objects (every key here is above 256,
    # outside the interpreter's shared small ints)
    x, y, xi = xgen(1, 0), ygen(1, 0), xigen(1)
    p = (x + y + xi) ** 3 * x ** 300
    q = (x - y) ** 2 * x ** 300
    assert min(p.terms) > 256 and min(q.terms) > 256
    for c in (3, Fraction(1, 2), Polynomial.const(-2), Polynomial.one()):
        got = sum_of_products([(c, p)])
        assert got == p * c
        keys = _key_objects(p)
        assert all(m is keys[m] for m in got.terms)
    got = sum_of_products([(2, p), (Fraction(-1, 3), q)])
    assert got == 2 * p - q * Fraction(1, 3)
    keys = _key_objects(p, q)
    assert all(m is keys[m] for m in got.terms)
