from functools import partial

import pytest

from catsl2 import exactpoly, grassrings
from catsl2.exactpoly import Polynomial, homogeneous_degree, x_sym, y_sym
from catsl2.grassrings import (
    GrassContext,
    StepRing,
    bubble_value,
    check_series_identity,
    embedded_gens,
    embedded_special_classes,
    special_class,
    special_class_terms,
)

from helpers import broken_bubble_value, bubble_product_reference, perturbed_bubble_value


def test_context_basics():
    ctx = GrassContext(4, 1)
    assert ctx.n == -2
    assert ctx.x(0) == Polynomial.one()
    assert ctx.x(2).is_zero()          # out of range for k=1
    assert ctx.y(3).render() == "y[3]@-2"
    assert ctx.y(4).is_zero()
    with pytest.raises(ValueError):
        GrassContext(3, 4)
    with pytest.raises(ValueError):
        GrassContext(0, 0)


def test_special_class_base_cases():
    ctx = GrassContext(3, 1)
    assert special_class(ctx, "X", 0) == Polynomial.one()
    assert special_class(ctx, "Y", 0) == Polynomial.one()
    assert special_class(ctx, "X", -2).is_zero()
    assert special_class(ctx, "Y", -1).is_zero()


def test_special_class_small_values():
    ctx = GrassContext(4, 3)
    x1, x2, x3 = ctx.x(1), ctx.x(2), ctx.x(3)
    assert special_class(ctx, "Y", 1) == -x1
    assert special_class(ctx, "Y", 2) == x1 ** 2 - x2
    assert special_class(ctx, "Y", 3) == 2 * x1 * x2 - x1 ** 3 - x3


def test_special_class_table_grows_across_calls(monkeypatch):
    # One context's table, extended to alpha 2 and then to 5, equals a
    # fresh table built to 5 and the inverse series of the generators; it
    # holds only the generators of index at most 5 (and at most the last).
    from helpers import series_invert
    for N, k in [(3, 1), (6, 2), (6, 4), (9, 8)]:
        ctx = GrassContext(N, k)
        for family, letter, last in (("X", ctx.y, N - k), ("Y", ctx.x, k)):
            monkeypatch.setattr(grassrings, "_SPECIAL_CLASSES", {})
            grown = [special_class(ctx, family, 2), special_class(ctx, family, 5)]
            negated, table = grassrings._SPECIAL_CLASSES[(N, k, family)]
            assert sorted(negated) == list(range(1, min(5, last) + 1))
            monkeypatch.setattr(grassrings, "_SPECIAL_CLASSES", {})
            fresh = [special_class(ctx, family, a) for a in range(6)]
            assert [table[a] for a in range(6)] == fresh
            assert grown == [fresh[2], fresh[5]]
            assert fresh == series_invert([letter(j) for j in range(6)], 5)


def test_special_class_tables_are_filled_only_by_setdefault(monkeypatch):
    # The table and its generators are shared across calls and threads,
    # so each entry is added with setdefault: with both swapped for dicts
    # whose item assignment raises, growing them still gives the classes.
    from helpers import SetdefaultOnly
    ctx = GrassContext(6, 2)
    for family in ("X", "Y"):
        monkeypatch.setattr(grassrings, "_SPECIAL_CLASSES", {})
        fresh = [special_class(ctx, family, a) for a in range(7)]
        monkeypatch.setattr(grassrings, "_SPECIAL_CLASSES", SetdefaultOnly({
            (6, 2, family): (SetdefaultOnly(), SetdefaultOnly({0: Polynomial.one()}))}))
        assert [special_class(ctx, family, a) for a in (2, 6)] == [fresh[2], fresh[6]]


def test_special_class_collapses_at_k0():
    ctx = GrassContext(2, 0)
    for beta in range(1, 6):
        assert special_class(ctx, "Y", beta).is_zero()
    # dually, X collapses when there are no y generators
    top = GrassContext(2, 2)
    for alpha in range(1, 6):
        assert special_class(top, "X", alpha).is_zero()


def test_special_class_homogeneous():
    for N in range(1, 5):
        for k in range(0, N + 1):
            ctx = GrassContext(N, k)
            for alpha in range(0, 2 * N + 5):
                for family in ("X", "Y"):
                    value = special_class(ctx, family, alpha)
                    assert value.is_zero() or homogeneous_degree(value) == 2 * alpha


def test_bubble_values():
    ctx = GrassContext(4, 2)
    assert bubble_value(ctx, "cw", 0) == Polynomial.one()
    assert bubble_value(ctx, "ccw", 0) == Polynomial.one()
    assert bubble_value(ctx, "cw", -1).is_zero()
    assert bubble_value(ctx, "ccw", -1).is_zero()
    # expand -(Y_1 + y_1 Y_0) by the recursion
    assert bubble_value(ctx, "cw", 1) == ctx.x(1) - ctx.y(1)
    assert bubble_value(ctx, "ccw", 1) == ctx.y(1) - ctx.x(1)


def test_bubble_degenerate_contexts():
    # k = N: no y generators, the clockwise degree-2 bubble is x_1
    top = GrassContext(3, 3)
    assert bubble_value(top, "cw", 1) == top.x(1)
    # k = 0: counterclockwise degree-2 bubble is y_1
    bottom = GrassContext(3, 0)
    assert bubble_value(bottom, "ccw", 1) == bottom.y(1)


def test_bubble_homogeneity():
    for N in (1, 2, 3):
        for k in range(0, N + 1):
            ctx = GrassContext(N, k)
            for alpha in range(0, 2 * N + 1):
                for orientation in ("cw", "ccw"):
                    value = bubble_value(ctx, orientation, alpha)
                    assert value.is_zero() or homogeneous_degree(value) == 2 * alpha


def test_series_identities():
    ok, report = check_series_identity(GrassContext(2, 1), "xY", 6)
    assert ok, report
    ok, report = check_series_identity(GrassContext(1, 0), "Xy", 4)
    assert ok, report
    ok, report = check_series_identity(GrassContext(3, 2), "bubble_product", 0)
    assert ok, report
    for N in (1, 2, 3, 4):
        for k in range(0, N + 1):
            ok, report = check_series_identity(GrassContext(N, k),
                                               "bubble_product", 2 * N)
            assert ok, report


_DEFECTS = ["sign_at_1", "dropped_term", "index_off_by_one"]


@pytest.mark.parametrize("defect", _DEFECTS)
def test_a_broken_bubble_value_fails_the_bubble_product(defect, monkeypatch):
    # the convolution cw * ccw == 1 alone decides the relation: each broken
    # copy of the closed formula fails it in some context of rank at most 4
    monkeypatch.setattr(grassrings, "bubble_value", broken_bubble_value(defect))
    assert not all(check_series_identity(GrassContext(N, k), "bubble_product", 2 * N)[0]
                   for N in (2, 3, 4) for k in range(N + 1))


@pytest.mark.parametrize("values", [
    None,
    *(partial(broken_bubble_value, defect) for defect in _DEFECTS),
    *(partial(perturbed_bubble_value, seed, seed % 2 == 1) for seed in range(6)),
], ids=["correct", *_DEFECTS, *("perturbed_%d%s" % (seed, "_at_0" * (seed % 2))
                                for seed in range(6))])
def test_bubble_product_decides_as_the_direct_convolution(values, monkeypatch):
    # the check through the unit multipliers x(-t) and y(-t) gives the
    # verdict, failing degree and report of the convolution cw * ccw == 1,
    # for correct, broken and perturbed bubble values (degree 0 included)
    if values is not None:
        monkeypatch.setattr(grassrings, "bubble_value", values())
    verdicts = []
    for N in range(1, 6):
        for k in range(N + 1):
            ctx = GrassContext(N, k)
            want = bubble_product_reference(ctx, 2 * N)
            assert check_series_identity(ctx, "bubble_product", 2 * N) == want, (N, k)
            verdicts.append(want[0])
    assert all(verdicts) == (values is None), verdicts


def test_bubble_product_work_count_does_not_grow(monkeypatch):
    # term products of the check over k = 0..6 at N = 6, the bubble values
    # computed first (so the special classes are warm): 34,737 while the
    # two dense bubble series were multiplied, 12,176 through the unit
    # multipliers; a return to the dense convolution shows here
    contexts = [GrassContext(6, k) for k in range(7)]
    for ctx in contexts:
        for alpha in range(13):
            bubble_value(ctx, "cw", alpha)
            bubble_value(ctx, "ccw", alpha)
    work = [0]
    add_products = exactpoly._add_products

    def counting_products(acc, ta, tb):
        work[0] += len(ta) * len(tb)
        return add_products(acc, ta, tb)

    monkeypatch.setattr(exactpoly, "_add_products", counting_products)
    assert all(check_series_identity(ctx, "bubble_product", 12)[0] for ctx in contexts)
    assert work[0] <= 12_176, work[0]


def test_step_ring_embeddings():
    ring = StepRing(3, 1)          # pair {1, 2}, nu = -1
    # exchange relations for the two end rings
    x, y = ring.lower.x, ring.upper.y     # the step ring's own generators
    assert ring.embed_end(x_sym(1, 1), "upper") == x(1) + ring.xi()
    assert ring.embed_end(x_sym(2, 1), "upper") == x(1) * ring.xi()   # x[2]@-1 vanishes
    assert ring.embed_end(y_sym(1, -1), "lower") == y(1) + ring.xi()
    assert ring.embed_end(y_sym(2, -1), "lower") == y(1) * ring.xi()  # top y of the lower ring
    # the step ring's own generators: the lower x's and the upper y's
    assert ring.embed_end(x_sym(1, -1), "lower") == x(1)
    assert ring.embed_end(y_sym(1, 1), "upper") == y(1)
    with pytest.raises(ValueError):
        ring.embed_end(x(1).symbols().pop(), "upper")
    # the right weight but outside the end ring's catalog, so neither may
    # embed as 0: x[5]@0 is no generator of ring 2 at rank 4, y[3]@-1 none
    # of ring 1 at rank 3, and y[2]@2 none of ring 3 at rank 4
    for ring, sym in ((StepRing(4, 2), x_sym(5, 0)), (StepRing(3, 1), y_sym(3, -1))):
        with pytest.raises(ValueError, match="does not belong to the lower end ring"):
            ring.embed_end(sym, "lower")
    with pytest.raises(ValueError, match="does not belong to the upper end ring"):
        StepRing(4, 2).embed_ring_poly(Polynomial.gen(y_sym(2, 2)) + 1, "upper")


def test_step_ring_expansions_invert_embeddings():
    # substituting the exchange relation into the alternating expansion
    # recovers the generator
    for N in (2, 3):
        for j in range(0, N):
            ring = StepRing(N, j)
            for t in range(0, j + 1):
                expansion = ring.lower_x_expansion(t)
                table = {s: ring.embed_end(s, "upper")
                         for s in expansion.symbols() if s.kind == 0}
                assert expansion.substitute(table) == ring.lower.x(t)


def test_special_class_large_alpha_from_a_cold_memo():
    # far past the interpreter's recursion limit, starting from nothing
    from catsl2 import grassrings

    grassrings._SPECIAL_CLASSES.clear()
    ctx = GrassContext(3, 1)
    y1, y2 = ctx.y(1), ctx.y(2)
    big = [special_class(ctx, "X", a) for a in (1498, 1499, 1500)]
    assert big[2] + y1 * big[1] + y2 * big[0] == Polynomial.zero()
    assert homogeneous_degree(big[2]) == 3000
    # every class below alpha went into the same memo
    assert len(grassrings._SPECIAL_CLASSES[(3, 1, "X")][1]) >= 1501
    ctx = GrassContext(2, 1)
    assert special_class(ctx, "Y", 3000) == ctx.x(1) ** 3000


def test_special_class_from_a_cold_table():
    # the table is filled in a loop, so no depth of recursion is reached
    from catsl2 import grassrings

    grassrings._SPECIAL_CLASSES.pop((2, 1, "X"), None)
    ctx = GrassContext(2, 1)
    assert special_class(ctx, "X", 1501) == -ctx.y(1) ** 1501
    assert list(grassrings._SPECIAL_CLASSES[(2, 1, "X")][1]) == list(range(1502))


def test_special_class_table_filled_by_four_threads():
    # Four threads race to extend one cold table.  Its keys stay 0 .. len-1,
    # every entry satisfies the defining recursion, and each entry was added
    # once: every caller got back the very object the table holds.
    from catsl2 import grassrings
    from helpers import call_in_threads

    ctx = GrassContext(5, 2)
    grassrings._SPECIAL_CLASSES.pop((5, 2, "Y"), None)
    got = call_in_threads(lambda a: special_class(ctx, "Y", a), range(200))
    table = grassrings._SPECIAL_CLASSES[(5, 2, "Y")][1]
    assert list(table) == list(range(len(table))) and len(table) >= 200
    assert all(cls is table[a] for a, cls in got)
    assert table[0] == Polynomial.one()
    for a in range(1, len(table)):
        assert table[a] == -sum((ctx.x(j) * table[a - j] for j in range(1, min(a, 2) + 1)),
                                Polynomial.zero()), a


def test_embed_end_of_canonical_generators():
    ring = StepRing(4, 2)
    lower_x = ring.lower.x(2).symbols().pop()
    upper_y = ring.upper.y(1).symbols().pop()
    assert ring.embed_end(lower_x, "lower") == ring.lower.x(2)
    assert ring.embed_end(upper_y, "upper") == ring.upper.y(1)


def _embedded_both_ways(monkeypatch, max_n=5):
    """Per end ring of every step ring up to rank ``max_n`` and per family:
    the classes of index 0 .. 2N+2 read from ``grassrings.special_class``,
    each embedded by substitution, then ``embedded_special_classes`` of
    them and the polynomials it sent through ``embed_ring_poly``."""
    real = StepRing.embed_ring_poly
    sent = []

    def recording(ring, poly, end):
        sent.append(poly)
        return real(ring, poly, end)

    monkeypatch.setattr(StepRing, "embed_ring_poly", recording)
    for N in range(1, max_n + 1):
        for j in range(0, N):
            ring = StepRing(N, j)
            for end in ("lower", "upper"):
                for family in ("X", "Y"):
                    classes = [grassrings.special_class(getattr(ring, end), family, a)
                               for a in range(0, 2 * N + 3)]
                    want = [real(ring, c, end) for c in classes]
                    sent.clear()
                    got = embedded_special_classes(ring, family, end, classes, embedded_gens(
                        ring, {"X": "y", "Y": "x"}[family], end))
                    yield (N, j, end, family), want, got, list(sent)


def test_embedded_special_classes_match_their_substitution(monkeypatch):
    # the recursion route equals the substitution route for every class,
    # and with correct tables it substitutes only the generators, each once
    for where, want, got, sent in _embedded_both_ways(monkeypatch):
        assert got == want, where
        assert all(len(p.symbols()) == 1 and p == Polynomial.gen(*p.symbols())
                   for p in sent), where
        assert len(set(sent)) == len(sent), where


def test_embedded_special_classes_of_a_wrong_table(monkeypatch):
    # junk at a = 0, 2 and 2N+2: those residuals are nonzero and embedded,
    # and the list still equals the substitution of each class
    real = grassrings.special_class

    def junked(ctx, family, alpha):
        value = real(ctx, family, alpha)
        if alpha in (0, 2, 2 * ctx.N + 2):
            value = value + ctx.x(1) * ctx.y(1) + ctx.x(1) ** 2 - ctx.y(1) + 2
        return value

    monkeypatch.setattr(grassrings, "special_class", junked)
    for where, want, got, sent in _embedded_both_ways(monkeypatch):
        assert got == want, where
        assert any(len(p.terms) > 1 for p in sent), where


def test_special_class_terms_counts_partitions():
    for N in range(1, 7):
        for k in range(N + 1):
            ctx = GrassContext(N, k)
            for family in ("X", "Y"):
                for alpha in range(-2, 3 * N + 1):
                    assert special_class_terms(ctx, family, alpha, 10 ** 9) == \
                        len(special_class(ctx, family, alpha).terms)


def test_special_class_terms_stops_past_the_limit():
    ctx = GrassContext(8, 4)
    assert special_class_terms(ctx, "X", 120, 10 ** 9) == 13561
    # partitions of 4000 into parts <= 3 already number about 1.3 million;
    # parts up to 4 are never added once the count has passed the limit
    assert 10000 < special_class_terms(ctx, "X", 4000, 10000) < 13561 * 1000
    assert special_class_terms(GrassContext(2, 1), "X", 4000, 10) == 1


def test_ring_catalog_is_one_shared_frozenset():
    ctx = GrassContext(4, 1)
    catalog = ctx.catalog()
    assert isinstance(catalog, frozenset)
    assert catalog == {x_sym(1, -2), y_sym(1, -2), y_sym(2, -2), y_sym(3, -2)}
    assert ctx.catalog() is catalog
    assert GrassContext(4, 1).catalog() is catalog
    with pytest.raises(AttributeError):
        catalog.add(x_sym(2, -2))
    assert GrassContext(4, 1).catalog() == {x_sym(1, -2), y_sym(1, -2), y_sym(2, -2),
                                            y_sym(3, -2)}
