import pytest

from catsl2 import bimodules
from catsl2.exactpoly import FIELD_BITS, MAX_EXPONENT, Polynomial
from catsl2.grassrings import GrassContext, bubble_value, special_class
from catsl2.bimodules import (
    BimElement,
    FlagPath,
    _xi_key,
    _xi_vector,
    act,
    basis,
    normalize_xi_vector,
)
from catsl2.twomorphisms import (
    MAX_EXCESS,
    BimMap,
    SignedWord,
    _excess_vectors,
    audit_degree,
    compile_word,
    compose_chain,
    gen_cap,
    gen_crossing,
    gen_cup,
    gen_dot,
    identity_map,
    junction_mult,
    linear_combination,
    map_equals,
    measured_degree,
    zero_map,
)
from catsl2.relationsuite import _DUALITIES
from helpers import all_paths, by_vector, map_matrix, record_new_maps, xgen, ygen


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
    assert by_vector(dot.apply_vec((0,))) == {(1,): Polynomial.one()}
    twice = compose_chain(dot, dot)
    assert twice.degree == 4
    # xi^2 exceeds the bound and reduces to normal form
    image = twice.apply_vec((0,))
    assert by_vector(image) == {(1,): xgen(1, 1), (0,): -xgen(2, 1)}


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
    cross = gen_crossing(path, 1)
    # one dot on the later-acting strand maps to the unit tensor
    assert by_vector(cross.apply_vec((0, 1))) == {(0, 0): Polynomial.one()}
    # one dot on the first-acting strand gives the negative
    assert by_vector(cross.apply_vec((1, 0))) == {(0, 0): -Polynomial.one()}
    # equal dot counts annihilate
    for m in range(0, 3):
        assert cross.apply_vec((m, m)).is_zero()
    # two dots split symmetrically
    assert by_vector(cross.apply_vec((0, 2))) == {(0, 1): Polynomial.one(),
                                             (1, 0): Polynomial.one()}


def test_crossing_orientation_checks():
    with pytest.raises(ValueError, match="two up-steps or two down-steps"):
        gen_crossing(FlagPath(2, (0, 1, 0)), 1)
    # the path fixes the orientation
    assert gen_crossing(FlagPath(3, (1, 2, 3)), 1).name == "cross_up@1"
    assert gen_crossing(FlagPath(3, (3, 2, 1)), 1).name == "cross_down@1"


def test_crossing_squared_is_zero():
    for N in (2, 3):
        for k in range(0, N - 1):
            path = FlagPath(N, (k, k + 1, k + 2))
            cross = gen_crossing(path, 1)
            ok, report = map_equals(compose_chain(cross, cross),
                                    zero_map(path, path, -4))
            assert ok, report


# -- cups and caps -----------------------------------------------------------------


def test_cup_images():
    # lowest ring: only the unit term survives
    path = FlagPath(2, (0,))
    cup = gen_cup(path, 0, "fe")
    assert cup.codomain.rings == (0, 1, 0)
    assert cup.codomain.shift == 1 - 2
    assert by_vector(cup.apply_vec(())) == {(0, 0): Polynomial.one()}
    # k = 1: two terms with the alternating sign
    path = FlagPath(2, (1,))
    value = gen_cup(path, 0, "fe").apply_vec(())
    assert by_vector(value) == {(1, 0): Polynomial.one(), (0, 0): -xgen(1, 0)}


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
    cap = gen_cap(path, 1)
    assert by_vector(cap.apply_vec((0, 0))) == {(): Polynomial.one()}
    # two rings down the X-index is negative and the image is zero
    path = FlagPath(N, (0, 1, 0), shift=1 - N)
    assert gen_cap(path, 1).apply_vec((0, 0)).is_zero()
    # ef cap at k=1 sees Y_0 = 1
    path = FlagPath(N, (1, 0, 1), shift=1 - N)
    assert by_vector(gen_cap(path, 1).apply_vec((0, 0))) == {(): Polynomial.one()}


def test_cap_depends_only_on_dot_total():
    path = FlagPath(3, (1, 2, 1), shift=-2)
    cap = gen_cap(path, 1)
    assert cap.apply_vec((2, 1)) == cap.apply_vec((0, 3)) == cap.apply_vec((3, 0))


def test_cap_shape_validation():
    # the path's one excursion check refuses a cap that does not close up
    with pytest.raises(ValueError, match="factors 1,2 do not form an excursion"):
        gen_cap(FlagPath(3, (1, 2, 3)), 1)
    # the path fixes the kind
    assert gen_cap(FlagPath(3, (1, 2, 1)), 1).name == "cap_fe@1"
    assert gen_cap(FlagPath(3, (1, 0, 1)), 1).name == "cap_ef@1"


# -- composition, equality ------------------------------------------------


def test_compose_requires_matching_paths():
    path = FlagPath(2, (0, 1))
    dot = gen_dot(path, 1)
    cup = gen_cup(path, 0, "fe")
    with pytest.raises(ValueError, match="cannot compose"):
        compose_chain(cup, dot)
    # a three-map chain that breaks between maps 2 and 3 names that pair
    cup_dot = gen_dot(cup.codomain, 1)
    with pytest.raises(ValueError) as excinfo:
        compose_chain(cup, cup_dot, dot)
    assert str(excinfo.value) == ("cannot compose: %s does not match %s"
                                  % (cup_dot.codomain.render(), path.render()))
    with pytest.raises(ValueError, match="empty composite"):
        compose_chain()
    chain = compose_chain(dot, dot, cup)
    assert chain.degree == 2 * dot.degree + cup.degree
    assert chain.name == "%s.%s.%s" % (cup.name, dot.name, dot.name)


def test_compose_with_identity():
    path = FlagPath(2, (0, 1))
    dot = gen_dot(path, 1)
    composite = compose_chain(identity_map(path), dot)
    ok, report = map_equals(composite, dot)
    assert ok, report


def test_zigzag_equals_identity():
    path = FlagPath(1, (0, 1))
    cup = gen_cup(path, 0, "fe")
    zig = compose_chain(cup, gen_cap(cup.codomain, 2))
    ok, report = map_equals(zig, identity_map(path))
    assert ok, report


def test_whisker_context_mismatch():
    # a path placed beside another must start where it ends, at the same N
    path = FlagPath(3, (1, 2))
    with pytest.raises(ValueError, match=r"\(2\) ends at ring 2 of N=3, \(1,2\) "
                                         r"starts at ring 1 of N=3"):
        FlagPath(3, (2,)).concat(path)
    with pytest.raises(ValueError, match="of N=3, .* of N=4"):
        path.concat(FlagPath(4, (2,)))


def test_map_equals_distinguishes():
    path = FlagPath(2, (0, 1))
    dot = gen_dot(path, 1)
    ok, report = map_equals(dot, identity_map(path))
    assert not ok and report


def test_map_equals_accepts_equal_maps():
    path = FlagPath(2, (1, 2))
    dot = gen_dot(path, 1)
    ok, report = map_equals(dot, dot)
    assert ok, report


def test_map_equals_evaluates_each_side_on_the_basis_once():
    # both maps are bimodule maps, so the basis decides: no decorated
    # vector or end-ring sample goes through either side
    path = FlagPath(3, (1, 2, 1))
    f = compose_chain(gen_dot(path, 1), gen_dot(path, 2))
    g = compose_chain(gen_dot(path, 2), gen_dot(path, 1))
    calls = {f: [], g: []}
    for m in (f, g):
        real = m.apply_vec
        m.apply_vec = lambda vec, real=real, seen=calls[m]: seen.append(vec) or real(vec)
    ok, report = map_equals(f, g)
    assert ok, report
    assert calls[f] == calls[g] == basis(path)


def test_matrix_representation():
    path = FlagPath(2, (1, 2))
    dot = gen_dot(path, 1)
    matrix = map_matrix(dot)
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
            assert gen_cap(excursion, 1).degree == n + 1
        for k in range(0, N - 1):
            assert gen_crossing(FlagPath(N, (k, k + 1, k + 2)), 1).degree == -2


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
            for gen in (gen_crossing(path, 1), gen_dot(path, 1)):
                for vec in [(path.bound(1) + 1, 0), (path.bound(1) + 2, 1),
                            (0, path.bound(2) + 2)]:
                    direct = gen.apply_vec(vec)
                    via_normal = gen(normalize_xi_vector(path, vec))
                    assert direct == via_normal, (N, k, gen.name, vec)
        for k in range(0, N):
            path = FlagPath(N, (k, k + 1, k), shift=1 - N)
            cap = gen_cap(path, 1)
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
                    maps.append(gen_cap(cup.codomain, 1))
                    value = compose_chain(*maps).apply_vec(())
                    want = bubble_value(ctx, orientation, dots - base)
                    assert value == BimElement.from_ring_poly(path, want), \
                        (N, k, orientation, dots)


# -- image memo ------------------------------------------------------------------


def test_apply_vec_memo_keeps_stored_images_intact():
    path = FlagPath(2, (1, 2))
    dot = gen_dot(path, 1)
    coeff = xgen(1, 2)
    scaled = dot(BimElement.basis_vector(path, (1,), coeff))
    image = dot.apply_vec((1,))
    assert dot.apply_vec([1]) is image          # list and tuple share one entry
    snapshot = dict(image.terms)
    assert by_vector(image) == {(1,): xgen(1, 2), (0,): -xgen(2, 2)}
    assert scaled == image.right_mul(coeff)
    _ = -image
    _ = image + image
    _ = image.right_mul(coeff)
    _ = image.scale(3)
    _ = dot(BimElement.basis_vector(path, (1,), xgen(2, 2)))
    assert image.terms == snapshot
    assert dot.apply_vec((1,)) == gen_dot(path, 1).apply_vec((1,))


def test_apply_vec_packs_the_vector_behind_the_overflow_guard():
    # the memo key is the packed xi-part: a vector is checked as it is
    # packed, and a vector refused stores no memo entry
    path = FlagPath(2, (1, 2))
    dot = gen_dot(path, 1)
    with pytest.raises(OverflowError):
        dot.apply_vec((MAX_EXPONENT + 1,))
    with pytest.raises(OverflowError):
        dot.apply_vec((MAX_EXPONENT,))          # packs; its bumped image overflows
    for vec in ((), (0, 0)):
        with pytest.raises(ValueError, match="one exponent per path step"):
            dot.apply_vec(vec)
    with pytest.raises(ValueError, match="negative exponent"):
        dot.apply_vec((-1,))
    assert dot._images == {}
    assert by_vector(dot.apply_vec((0,))) == {(1,): Polynomial.one()}
    assert len(dot._images) == 1


def test_no_xi_exponent_carries_into_the_next_field():
    path = FlagPath(3, (0, 1, 2, 3))
    ident = identity_map(path)
    for i in range(3):
        for e in (MAX_EXPONENT + 1, 1 << FIELD_BITS, (1 << FIELD_BITS) + 1):
            vec = tuple(e if j == i else 0 for j in range(3))
            with pytest.raises(OverflowError):
                ident.apply_vec(vec)
    assert ident._images == {}
    # every exponent a field holds packs and decodes back to itself
    for vec in ((MAX_EXPONENT, 0, MAX_EXPONENT), (0, MAX_EXPONENT, 1), (1, 2, 3)):
        assert _xi_vector(path, _xi_key(path, vec)) == vec
    assert len({_xi_key(path, vec) for vec in basis(path)}) == len(basis(path))


def _generators_on(path):
    """Every generator kind at every position of ``path``."""
    m = path.num_factors
    maps = [identity_map(path)]
    maps += [gen_dot(path, p) for p in range(1, m + 1)]
    maps += [gen_crossing(path, i) for i in range(1, m)
             if path.is_up(i) == path.is_up(i + 1)]
    maps += [gen_cap(path, i) for i in range(1, m) if path.rings[i - 1] == path.rings[i + 1]]
    maps += [gen_cup(path, g, kind) for g in range(m + 1) for kind in ("fe", "ef")]
    for g in range(m + 1):
        ring = path.junction(g)
        maps.append(junction_mult(path, g, (ring.gens("x")[1:] + ring.gens("y")[1:])[0]))
    return maps


def _maps_with_leads(path):
    """The generators on ``path`` and chains and linear combinations of
    them."""
    m = path.num_factors
    maps = _generators_on(path)
    maps += [compose_chain(f, gen_dot(f.codomain, f.codomain.num_factors))
             for f in list(maps) if f.codomain.num_factors and not f.codomain.is_zero]
    maps += [compose_chain(cup, gen_cap(cup.codomain, cup.lead + 1))
             for cup in maps if cup.name.startswith("cup_") and not cup.codomain.is_zero]
    maps += [linear_combination(path, path, 2, "sum",
                                [(1, gen_dot(path, p)), (-1, gen_dot(path, m))])
             for p in range(1, m)]
    return maps


def _lead_mismatch(f):
    """The first vector on which ``f``'s own procedure and its memo, which
    passes the lead factors through, disagree: every basis vector, then
    one xi-excess vector whose bump lies inside the lead; None if none."""
    path = f.domain
    inside = [vec for vec in _excess_vectors(path)
              if any(vec[i] > path.bound(i + 1) for i in range(f.lead))]
    for vec in basis(path) + inside[:1]:
        if f._fn(vec) != f.apply_vec(vec):
            return vec
    return None


#: Every path of 2-4 factors up to N = 2, of 2-3 factors at N = 3 and of 2
#: factors at N = 4, then a few longer ones at N = 3 and 4.
LEAD_PATHS = [path for N in range(1, 5) for path in all_paths(N, 4)
              if path.num_factors >= 2 and path.num_factors <= {1: 4, 2: 4, 3: 3, 4: 2}[N]] + [
    FlagPath(N, rings) for N, rings in (
        (3, (0, 1, 2, 3, 2)), (3, (1, 2, 1, 2, 1)), (3, (3, 2, 1, 2, 3)),
        (4, (1, 2, 3, 2)), (4, (3, 2, 1, 0)), (4, (2, 3, 4, 3)),
        (4, (2, 3, 2, 1, 2)), (4, (0, 1, 2, 3, 4)), (4, (4, 3, 4, 3, 2)))]


@pytest.mark.parametrize("path", LEAD_PATHS, ids=lambda path: "N%d%s" % (path.N, path.render()))
def test_each_declared_lead_is_exact(path):
    # a map with lead p sends xi^L (x) v to xi^L (x) f(v): its memo keeps
    # one image per local part and adds the lead to its keys, which must
    # equal what the map's own procedure computes on the whole vector
    for f in _maps_with_leads(path):
        assert 0 <= f.lead <= path.num_factors
        assert _lead_mismatch(f) is None, (f.name, f.lead, _lead_mismatch(f))


def test_a_wrong_lead_fails_the_exactness_check():
    # a crossing at i changes factor i: a copy that declares lead i shifts
    # the image of xi^0 (x) xi^0 where the crossing really acts
    path = FlagPath(3, (1, 2, 3))
    cross = gen_crossing(path, 1)
    assert cross.lead == 0 and _lead_mismatch(cross) is None
    wrong = BimMap(path, path, cross.degree, cross._fn, name=cross.name, lead=1)
    assert _lead_mismatch(wrong) == (1, 0)


def test_leads_declared_by_the_constructors():
    path = FlagPath(4, (1, 2, 3, 2, 1))
    assert [gen_dot(path, p).lead for p in (1, 2, 3, 4)] == [0, 1, 2, 3]
    assert [gen_crossing(path, i).lead for i in (1, 3)] == [0, 2]
    assert gen_cap(path, 2).lead == 1
    assert [gen_cup(path, g, "ef").lead for g in range(5)] == [0, 1, 2, 3, 4]
    assert junction_mult(path, 2, xgen(1, 2)).lead == 2
    assert identity_map(path).lead == 4
    assert zero_map(path, path).lead == 0
    chain = compose_chain(gen_dot(path, 3), gen_crossing(path, 3), gen_dot(path, 4))
    assert chain.lead == 2
    combo = linear_combination(path, path, 2, "sum",
                               [(1, gen_dot(path, 2)), (-1, gen_dot(path, 4))])
    assert combo.lead == 1
    assert BimMap(path, path, 0, lambda vec: None).lead == 0


def test_a_lead_keeps_one_image_per_local_part():
    # the memo of a dot at the last factor of a 3-factor path holds one entry
    # per exponent of that factor, however many lead vectors reach it
    path = FlagPath(3, (1, 2, 1, 2))
    dot = gen_dot(path, 3)
    for vec in basis(path):
        dot.apply_vec(vec)
    assert len(basis(path)) == 8
    assert len(dot._images) == 2
    element = sum((BimElement.basis_vector(path, vec, i + 1)
                   for i, vec in enumerate(basis(path))), BimElement.zero(path))
    assert dot(element) == sum((dot.apply_vec(vec).scale(i + 1)
                                for i, vec in enumerate(basis(path))), BimElement.zero(path))
    assert len(dot._images) == 2


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_cap_images_depend_only_on_the_sum(N):
    # for every cap and every (a, b) up to its bounds plus MAX_EXCESS, fresh
    # maps give one image per a + b (and the other exponents)
    paths = [path for path in all_paths(N, 3)
             if path.num_factors >= 2 and not path.is_zero]
    caps = 0
    for path in paths:
        for i in range(1, path.num_factors):
            if path.rings[i - 1] != path.rings[i + 1]:
                continue
            caps += 1
            for pre in basis(FlagPath(N, path.rings[:i])):
                for post in basis(FlagPath(N, path.rings[i + 1:])):
                    seen = {}
                    for a in range(path.bound(i) + MAX_EXCESS + 1):
                        for b in range(path.bound(i + 1) + MAX_EXCESS + 1):
                            image = gen_cap(path, i).apply_vec(pre + (a, b) + post)
                            assert seen.setdefault(a + b, image) == image, \
                                (path.render(), i, pre, a, b, post)
    assert caps


def test_junction_mult_checks_its_polynomial_once_when_built(monkeypatch):
    path = FlagPath(3, (1, 2, 1))
    with pytest.raises(ValueError, match="junction 1 uses non-canonical generators"):
        junction_mult(path, 1, ygen(1, 5))
    calls = []
    real = bimodules._check_catalog
    monkeypatch.setattr(bimodules, "_check_catalog",
                        lambda *args: calls.append(args) or real(*args))
    mult = junction_mult(path, 1, xgen(1, 1))   # ring 2 at rank 3
    assert len(calls) == 1
    for vec in basis(path):
        mult.apply_vec(vec)
    assert len(calls) == 1


def _crossing_duality_maps(N, k, side="left"):
    """Generators of one side's crossing-duality rotation, bottom to top,
    and its target."""
    (cup1, cup2), kind, (cap1, cap2) = _DUALITIES[side]
    path = FlagPath(N, (k + 2, k + 1, k))
    c1 = gen_cup(path, cup1, kind)
    c2 = gen_cup(c1.codomain, cup2, kind)
    cross = gen_crossing(c2.codomain, 3)
    k1 = gen_cap(cross.codomain, cap1)
    return [c1, c2, cross, k1, gen_cap(k1.codomain, cap2)], \
        gen_crossing(path, 1)


def test_memoized_composite_matches_fresh_one():
    maps, target = _crossing_duality_maps(3, 0)
    memoized = compose_chain(*maps)
    vecs = basis(memoized.domain)
    assert vecs
    for vec in vecs:
        memoized.apply_vec(vec)
    for vec in vecs:
        fresh = compose_chain(*_crossing_duality_maps(3, 0)[0])
        assert memoized.apply_vec(vec) == fresh.apply_vec(vec), vec
        assert memoized.apply_vec(vec) == target.apply_vec(vec), vec


def _counted(inputs, f):
    """Record every vector f's own procedure sees, under f's name."""
    seen = []
    inner = f._fn

    def fn(vec):
        seen.append(vec)
        return inner(vec)

    f._fn = fn
    inputs.append((f.name, seen))
    return f


def _nested_chain(inputs, maps):
    composite = _counted(inputs, maps[0])
    for nxt in maps[1:]:
        composite = _counted(inputs, compose_chain(composite, _counted(inputs, nxt)))
    return composite


def _flat_chain(inputs, maps):
    return _counted(inputs, compose_chain(*(_counted(inputs, f) for f in maps)))


@pytest.mark.parametrize("build", [_nested_chain, _flat_chain], ids=["nested", "flat"])
def test_composite_evaluates_each_inner_map_once_per_vector(build):
    maps, target = _crossing_duality_maps(3, 0)
    inputs = []
    composite = build(inputs, maps)
    ok, report = map_equals(composite, target)
    assert ok, report
    for name, seen in inputs:
        assert seen, name
        assert len(seen) == len(set(seen)), name


def test_compose_chain_builds_one_map(monkeypatch):
    # a chain is one map, and so is its tail when the tail's least lead
    # exceeds the head's: the left rotation (leads 0, 1, 2, 3, 2) builds
    # its two tails, inner first, then itself, and never a prefix; the
    # tail (2, 3, 2) and the right rotation (leads 2, 3, 2, 1, 0) do not
    # nest, so the right one builds itself alone
    maps, _ = _crossing_duality_maps(3, 0, "left")
    assert [f.lead for f in maps] == [0, 1, 2, 3, 2]
    built = record_new_maps(monkeypatch)
    chain = compose_chain(*maps)
    assert built[-1] is chain
    assert [(f.domain, f.codomain, f.name) for f in built] == \
        [(maps[i].domain, chain.codomain, ".".join(f.name for f in reversed(maps[i:])))
         for i in (2, 1, 0)]
    maps, _ = _crossing_duality_maps(3, 0, "right")
    assert [f.lead for f in maps] == [2, 3, 2, 1, 0]
    del built[:]
    assert built == [compose_chain(*maps)]
