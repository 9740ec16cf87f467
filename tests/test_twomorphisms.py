import random

import pytest

from catsl2.exactpoly import Polynomial, xgen, ygen
from catsl2.grassrings import GrassContext, bubble_value, special_class
from catsl2.bimodules import BimElement, FlagPath, act, basis, normalize_xi_vector
from catsl2.twomorphisms import (
    SignedWord,
    audit_degree,
    compile_word,
    compose_chain,
    compose_vertical,
    gen_cap,
    gen_crossing,
    gen_cup,
    gen_dot,
    identity_map,
    map_equals,
    measured_degree,
    whisker,
    zero_map,
)


# -- words -------------------------------------------------------------------


def test_compile_word_single_letters():
    path = compile_word(SignedWord(("E",), -3), 3)
    assert path.rings == (0, 1) and path.shift == 1 - 3 + 0
    path = compile_word(SignedWord(("F",), -3), 3)
    assert path.is_zero                       # k-1 = -1 out of range
    with pytest.raises(ValueError):
        compile_word(SignedWord(("E",), 0), 3)   # parity mismatch


def test_compile_word_composites():
    # rightmost letter acts first
    path = compile_word(SignedWord(("E", "F"), 1), 1)
    assert path.rings == (1, 0, 1)
    assert path.shift == (1 - 1) + (1 - 1 + 0)
    path = compile_word(SignedWord(("F", "E"), -1), 3)
    assert path.rings == (1, 2, 1)
    empty = compile_word(SignedWord((), 2), 2)
    assert empty.rings == (2,) and empty.shift == 0


# -- dots ----------------------------------------------------------------------


def test_dot_raises_power():
    path = FlagPath(3, (1, 2))
    dot = gen_dot(path, 1)
    assert dot.apply_vec((0,)).terms == {(1,): Polynomial.one()}
    twice = compose_vertical(dot, dot)
    assert twice.degree == 4
    # xi^2 exceeds the bound and reduces to normal form
    image = twice.apply_vec((0,))
    assert image.terms == {(1,): xgen(1, 1), (0,): -xgen(2, 1)}


def test_dot_rejects_identity_path():
    with pytest.raises(ValueError):
        gen_dot(FlagPath(3, (1,)), 1)


def test_dot_non_nilpotent():
    for N in (1, 2, 3, 4):
        for k in range(0, N):
            path = FlagPath(N, (k, k + 1))
            for power in range(1, 4 * N + 1):
                assert not normalize_xi_vector(path, (power,)).is_zero()


# -- crossings -------------------------------------------------------------------


def test_crossing_formula_small_cases():
    path = FlagPath(4, (1, 2, 3))
    cross = gen_crossing(path, 1, "up")
    # one dot on the later-acting strand maps to the unit tensor
    assert cross.apply_vec((0, 1)).terms == {(0, 0): Polynomial.one()}
    # one dot on the first-acting strand gives the negative
    assert cross.apply_vec((1, 0)).terms == {(0, 0): -Polynomial.one()}
    # equal dot counts annihilate
    for m in range(0, 3):
        assert cross.apply_vec((m, m)).is_zero()
    # two dots split symmetrically
    assert cross.apply_vec((0, 2)).terms == {(0, 1): Polynomial.one(),
                                             (1, 0): Polynomial.one()}


def test_crossing_orientation_checks():
    with pytest.raises(ValueError):
        gen_crossing(FlagPath(2, (0, 1, 0)), 1, "up")
    with pytest.raises(ValueError):
        gen_crossing(FlagPath(3, (1, 2, 3)), 1, "down")


def test_crossing_squared_is_zero():
    for N in (2, 3):
        for k in range(0, N - 1):
            path = FlagPath(N, (k, k + 1, k + 2))
            cross = gen_crossing(path, 1, "up")
            ok, report = map_equals(compose_vertical(cross, cross),
                                    zero_map(path, path, -4))
            assert ok, report


# -- cups and caps -----------------------------------------------------------------


def test_cup_images():
    # lowest ring: only the unit term survives
    path = FlagPath(2, (0,))
    cup = gen_cup(path, 0, "fe")
    assert cup.codomain.rings == (0, 1, 0)
    assert cup.codomain.shift == 1 - 2
    assert cup.apply_vec(()).terms == {(0, 0): Polynomial.one()}
    # k = 1: two terms with the alternating sign
    path = FlagPath(2, (1,))
    value = gen_cup(path, 0, "fe").apply_vec(())
    assert value.terms == {(1, 0): Polynomial.one(), (0, 0): -xgen(1, 0)}


def test_cup_two_sided_forms_agree():
    from catsl2.bimodules import RawTensor, normalize
    for N in (1, 2, 3):
        for k in range(0, N):
            path = FlagPath(N, (k,))
            cup = gen_cup(path, 0, "fe")
            codomain = cup.codomain
            mirrored = BimElement.zero(codomain)
            ring = GrassContext(N, k)
            for ell in range(0, k + 1):
                sign = 1 if ell % 2 == 0 else -1
                term = normalize(RawTensor(
                    codomain, (codomain.step_ring(1).xi(k - ell), ring.x(ell))))
                mirrored = mirrored + term.scale(sign)
            assert cup.apply_vec(()) == mirrored, (N, k)


def test_cup_out_of_range_is_zero_map():
    cup = gen_cup(FlagPath(2, (2,)), 0, "fe")
    assert cup.codomain.is_zero
    assert cup.apply_vec(()).is_zero()
    cup = gen_cup(FlagPath(2, (0,)), 0, "ef")
    assert cup.codomain.is_zero


def test_cap_values():
    N = 3
    # fe cap at the top ring: X_0 = 1 survives
    path = FlagPath(N, (N - 1, N, N - 1), shift=1 - N)
    cap = gen_cap(path, 1, "fe")
    assert cap.apply_vec((0, 0)).terms == {(): Polynomial.one()}
    # two rings down the X-index is negative and the image is zero
    path = FlagPath(N, (0, 1, 0), shift=1 - N)
    assert gen_cap(path, 1, "fe").apply_vec((0, 0)).is_zero()
    # ef cap at k=1 sees Y_0 = 1
    path = FlagPath(N, (1, 0, 1), shift=1 - N)
    assert gen_cap(path, 1, "ef").apply_vec((0, 0)).terms == {(): Polynomial.one()}


def test_cap_depends_only_on_dot_total():
    path = FlagPath(3, (1, 2, 1), shift=-2)
    cap = gen_cap(path, 1, "fe")
    assert cap.apply_vec((2, 1)) == cap.apply_vec((0, 3)) == cap.apply_vec((3, 0))


def test_cap_shape_validation():
    with pytest.raises(ValueError):
        gen_cap(FlagPath(3, (1, 2, 3)), 1, "fe")
    with pytest.raises(ValueError):
        gen_cap(FlagPath(3, (1, 0, 1)), 1, "fe")
    with pytest.raises(ValueError):
        gen_cap(FlagPath(3, (1, 2, 1)), 1, "ef")


# -- composition, whiskering, equality ------------------------------------------------


def test_compose_requires_matching_paths():
    path = FlagPath(2, (0, 1))
    dot = gen_dot(path, 1)
    cup = gen_cup(path, 0, "fe")
    with pytest.raises(ValueError):
        compose_vertical(dot, cup)


def test_compose_with_identity():
    path = FlagPath(2, (0, 1))
    dot = gen_dot(path, 1)
    composite = compose_vertical(dot, identity_map(path))
    ok, report = map_equals(composite, dot)
    assert ok, report


def test_zigzag_equals_identity():
    path = FlagPath(1, (0, 1))
    cup = gen_cup(path, 0, "fe")
    zig = compose_vertical(gen_cap(cup.codomain, 2, "ef"), cup)
    ok, report = map_equals(zig, identity_map(path))
    assert ok, report


def test_whisker_identity_contexts():
    path = FlagPath(3, (1, 2))
    dot = gen_dot(path, 1)
    trivially = whisker(dot, FlagPath(3, (1,)), FlagPath(3, (2,)))
    ok, report = map_equals(trivially, dot)
    assert ok, report


def test_whiskered_dots_commute():
    path = FlagPath(3, (1, 2, 3))
    left = whisker(gen_dot(FlagPath(3, (1, 2)), 1), FlagPath(3, (1,))[:] if False
                   else FlagPath(3, (1,)), FlagPath(3, (2, 3)))
    right = whisker(gen_dot(FlagPath(3, (2, 3)), 1), FlagPath(3, (1, 2)),
                    FlagPath(3, (3,)))
    ok, report = map_equals(compose_vertical(left, right),
                            compose_vertical(right, left))
    assert ok, report


def test_whiskered_cap_shrinks_path():
    ambient_left = FlagPath(2, (0, 1))
    inner = FlagPath(2, (1, 2, 1), shift=1 - 2)
    cap = gen_cap(inner, 1, "fe")
    wide = whisker(cap, ambient_left, FlagPath(2, (1, 0)))
    assert wide.domain.num_factors == 4
    assert wide.codomain.num_factors == 2
    assert wide.domain.rings == (0, 1, 2, 1, 0)
    assert wide.codomain.rings == (0, 1, 0)


def test_map_equals_distinguishes():
    path = FlagPath(2, (0, 1))
    dot = gen_dot(path, 1)
    ok, report = map_equals(dot, identity_map(path))
    assert not ok and report


def test_map_equals_bimodule_samples():
    rng = random.Random(3)
    path = FlagPath(2, (1, 2))
    dot = gen_dot(path, 1)
    ok, report = map_equals(dot, dot, max_extra_checks=10, rng=rng)
    assert ok, report


def test_matrix_representation():
    path = FlagPath(2, (1, 2))
    dot = gen_dot(path, 1)
    matrix = dot.matrix()
    assert matrix[((1,), (0,))] == Polynomial.one()
    assert matrix[((1,), (1,))] == xgen(1, 2)
    assert matrix[((0,), (1,))] == -xgen(2, 2)


# -- degrees ---------------------------------------------------------------------------


def test_declared_degrees_match_table():
    for N in (1, 2, 3):
        for k in range(0, N):
            n = 2 * k - N
            assert gen_dot(FlagPath(N, (k, k + 1)), 1).degree == 2
            assert gen_cup(FlagPath(N, (k,)), 0, "fe").degree == n + 1
            assert gen_cup(FlagPath(N, (k,)), 0, "ef").degree == 1 - n
            excursion = FlagPath(N, (k, k + 1, k), shift=1 - N)
            assert gen_cap(excursion, 1, "fe").degree == n + 1
        for k in range(0, N - 1):
            assert gen_crossing(FlagPath(N, (k, k + 1, k + 2)), 1, "up").degree == -2


def test_measured_degrees():
    path = FlagPath(3, (1,))
    cup = gen_cup(path, 0, "fe")
    assert measured_degree(cup, ()) == cup.degree
    ok, note = audit_degree(cup)
    assert ok, note
    out_of_range = gen_cup(FlagPath(2, (2,)), 0, "fe")
    ok, note = audit_degree(out_of_range)
    assert ok and note is None                 # zero bimodule, nothing to audit
    vacuous = zero_map(path, path, 7)
    ok, note = audit_degree(vacuous)
    assert ok and note == "zero map; degree vacuous"


def test_generators_well_defined_on_raw_exponents():
    # applying a generator to an out-of-bound xi-power directly agrees with
    # applying it to the normal form of that power, so the formulas descend
    # to the tensor product
    for N in (1, 2, 3):
        for k in range(0, N - 1):
            path = FlagPath(N, (k, k + 1, k + 2))
            for gen in (gen_crossing(path, 1, "up"), gen_dot(path, 1)):
                for vec in [(path.bound(1) + 1, 0), (path.bound(1) + 2, 1),
                            (0, path.bound(2) + 2)]:
                    direct = gen.apply_vec(vec)
                    via_normal = gen(normalize_xi_vector(path, vec))
                    assert direct == via_normal, (N, k, gen.name, vec)
        for k in range(0, N):
            path = FlagPath(N, (k, k + 1, k), shift=1 - N)
            cap = gen_cap(path, 1, "fe")
            for vec in [(path.bound(1) + 1, 0), (0, path.bound(2) + 2)]:
                assert cap.apply_vec(vec) == cap(normalize_xi_vector(path, vec))


def test_bubble_composites_match_closed_formula():
    for N in (1, 2):
        for k in range(0, N + 1):
            ctx = GrassContext(N, k)
            n = 2 * k - N
            path = FlagPath(N, (k,))
            for orientation, kind, base in (("cw", "ef", n - 1),
                                            ("ccw", "fe", -n - 1)):
                for dots in range(0, 2 * N + max(0, base) + 1):
                    cup = gen_cup(path, 0, kind)
                    maps = [cup] + [gen_dot(cup.codomain, 1)] * dots
                    maps.append(gen_cap(cup.codomain, 1, kind))
                    value = compose_chain(*maps).apply_vec(())
                    want = bubble_value(ctx, orientation, dots - base)
                    assert value == BimElement.from_ring_poly(path, want), \
                        (N, k, orientation, dots)


# -- image memo ------------------------------------------------------------------


def test_apply_vec_memo_keeps_stored_images_intact():
    path = FlagPath(2, (1, 2))
    dot = gen_dot(path, 1)
    coeff = xgen(1, 2)
    scaled = dot.apply_vec((1,), coeff)
    image = dot.apply_vec((1,))
    assert dot.apply_vec([1]) is image          # list and tuple share one entry
    snapshot = dict(image.terms)
    assert snapshot == {(1,): xgen(1, 2), (0,): -xgen(2, 2)}
    assert scaled == image.right_mul(coeff)
    _ = -image
    _ = image + image
    _ = image.right_mul(coeff)
    _ = image.scale(3)
    _ = dot.apply_vec((1,), ygen(1, 2))
    assert image.terms == snapshot
    assert dot.apply_vec((1,)) == gen_dot(path, 1).apply_vec((1,))


def _crossing_duality_left_maps(N, k):
    """Generators of the crossing-duality rotation, bottom to top, and its target."""
    path = FlagPath(N, (k + 2, k + 1, k))
    c1 = gen_cup(path, 0, "ef")
    c2 = gen_cup(c1.codomain, 1, "ef")
    cross = gen_crossing(c2.codomain, 3, "up")
    k1 = gen_cap(cross.codomain, 4, "fe")
    return [c1, c2, cross, k1, gen_cap(k1.codomain, 3, "fe")], \
        gen_crossing(path, 1, "down")


def test_memoized_composite_matches_fresh_one():
    maps, target = _crossing_duality_left_maps(3, 0)
    memoized = compose_chain(*maps)
    vecs = basis(memoized.domain)
    assert vecs
    for vec in vecs:
        memoized.apply_vec(vec)
    for vec in vecs:
        fresh = compose_chain(*_crossing_duality_left_maps(3, 0)[0])
        assert memoized.apply_vec(vec) == fresh.apply_vec(vec), vec
        assert memoized.apply_vec(vec) == target.apply_vec(vec), vec


def test_composite_evaluates_each_inner_map_once_per_vector():
    maps, target = _crossing_duality_left_maps(3, 0)
    inputs = []

    def counted(f):
        seen = []
        inner = f._fn

        def fn(vec):
            seen.append(vec)
            return inner(vec)

        f._fn = fn
        inputs.append((f.name, seen))
        return f

    composite = counted(maps[0])
    for nxt in maps[1:]:
        composite = counted(compose_vertical(counted(nxt), composite))
    ok, report = map_equals(composite, target, max_extra_checks=2,
                            rng=random.Random(0))
    assert ok, report
    for name, seen in inputs:
        assert seen, name
        assert len(seen) == len(set(seen)), name
