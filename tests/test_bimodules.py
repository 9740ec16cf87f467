import dataclasses
import pickle
import random

import pytest

from catsl2.exactpoly import Polynomial, x_sym, xgen, xi_sym, xigen, y_sym, ygen
from catsl2.grassrings import GrassContext, StepRing
from catsl2.qlaurent import Laurent
from catsl2.bimodules import (
    BimElement,
    FlagPath,
    RawTensor,
    act,
    basis,
    graded_rank,
    identity_path,
    inject_at_junction,
    normalize,
    normalize_xi_vector,
    tensor,
)

from helpers import all_paths, random_raw_tensor


def test_path_validation():
    with pytest.raises(ValueError):
        FlagPath(2, (0, 2))
    path = FlagPath(2, (2, 3, 2))
    assert path.is_zero                      # steps outside [0, N]
    assert FlagPath(2, (0, 1, 2)).num_factors == 2
    assert FlagPath(2, (1,), 3).shift == 3


def test_factor_bounds():
    path = FlagPath(3, (1, 2, 1, 0))
    assert path.is_up(1) and not path.is_up(2) and not path.is_up(3)
    assert path.bound(1) == 1                # up-step with lower ring 1
    assert path.bound(2) == 3 - 1 - 1        # down-step through the pair {1, 2}
    assert path.bound(3) == 3 - 0 - 1


def test_cached_step_data_matches_rings():
    for N in (1, 2, 3):
        for path in all_paths(N, 3):
            for i in range(1, path.num_factors + 1):
                j = min(path.rings[i - 1], path.rings[i])
                assert path.step_ring(i) == StepRing(N, j, xi_pos=i)
                assert path.bound(i) == (j if path.is_up(i) else N - j - 1)


def test_cached_attributes_leave_path_identity_alone():
    path = FlagPath(3, (0, 1, 2, 1), shift=-2)
    twin = FlagPath(3, (0, 1, 2, 1), -2)
    assert path == twin and hash(path) == hash(twin)
    assert hash(path) == hash((3, (0, 1, 2, 1), -2))
    assert path != FlagPath(3, (0, 1, 2, 1))
    assert [f.name for f in dataclasses.fields(path)] == ["N", "rings", "shift"]
    assert repr(path) == "FlagPath(N=3, rings=(0, 1, 2, 1), shift=-2)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.is_zero = True
    for original in (path, FlagPath(2, (2, 3, 2))):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original and hash(copy) == hash(original)
        assert copy.is_zero == original.is_zero
        assert [copy.bound(i) for i in range(1, copy.num_factors + 1)] == \
            [original.bound(i) for i in range(1, original.num_factors + 1)]


def test_step_catalog_is_immutable():
    ring = StepRing(3, 1, xi_pos=2)
    catalog = ring.catalog()
    assert isinstance(catalog, frozenset)
    assert catalog == {x_sym(1, -1), y_sym(1, 1), xi_sym(2)}
    with pytest.raises(AttributeError):
        catalog.add(xi_sym(1))
    assert StepRing(3, 1, xi_pos=2).catalog() is catalog


def test_normalize_unit_tensor():
    for path in all_paths(3, 3):
        raw = RawTensor(path, (Polynomial.one(),) * path.num_factors)
        element = normalize(raw)
        assert element.terms == {(0,) * path.num_factors: Polynomial.one()}


def test_normalize_one_step_excursion():
    # xi (x) 1 on (0,1,0) at N=1 becomes the basis vector with coefficient y[1]@-1
    path = FlagPath(1, (0, 1, 0))
    element = normalize(RawTensor(path, (xigen(1), Polynomial.one())))
    assert element.terms == {(0, 0): ygen(1, -1)}


def test_normalize_xi_square_reduction():
    # xi^2 on the up-step (1,2) at N=2 rewrites through the monic relation
    path = FlagPath(2, (1, 2))
    element = normalize(RawTensor(path, (xigen(1, 2),)))
    assert element.terms == {(1,): xgen(1, 2), (0,): -xgen(2, 2)}


def test_normalize_zero_path():
    path = FlagPath(1, (1, 2, 1))
    element = normalize(RawTensor(path, (Polynomial.one(), Polynomial.one())))
    assert element.is_zero()


def test_raw_tensor_rejects_foreign_generators():
    path = FlagPath(2, (0, 1))
    with pytest.raises(ValueError):
        RawTensor(path, (xgen(1, 0),))       # x[1]@0 is not canonical here


def test_junction_transport_well_defined():
    # a junction-ring generator placed on either side of the tensor sign
    # has the same normal form
    for N in (1, 2, 3):
        for path in all_paths(N, 3):
            for g in range(1, path.num_factors):
                ctx = path.junction(g)
                for sym in sorted(ctx.catalog()):
                    poly = Polynomial.gen(sym)
                    left = _place_at_factor(path, g, poly, side="left")
                    right = _place_at_factor(path, g, poly, side="right")
                    assert left == right, (path.render(), sym.render())


def _place_at_factor(path, g, ring_poly, side):
    from catsl2.bimodules import _into_factor
    factors = [Polynomial.one()] * path.num_factors
    if side == "right":
        factors[g] = _into_factor(path, g + 1, ring_poly)
    else:
        # express through the left factor's right-end embedding
        ring = path.step_ring(g)
        table = {}
        for sym in ring_poly.symbols():
            end = "upper" if path.is_up(g) else "lower"
            table[sym] = ring.embed_end(sym, end)
        factors[g - 1] = ring_poly.substitute(table)
    return normalize(RawTensor(path, tuple(factors)))


def test_act_right_is_free():
    path = FlagPath(2, (0, 1, 0))
    e = normalize_xi_vector(path, (0, 0))
    r = ygen(1, -2)
    assert act("right", r, e).terms == {(0, 0): r}


def test_act_left_unit():
    path = FlagPath(3, (1, 2))
    e = normalize_xi_vector(path, (1,))
    assert act("left", Polynomial.one(), e) == e


def test_act_rejects_foreign_ring():
    path = FlagPath(2, (0, 1))
    e = normalize_xi_vector(path, (0,))
    with pytest.raises(ValueError):
        act("left", xgen(1, 0), e)           # ring 0 has no x generators
    with pytest.raises(ValueError):
        act("right", ygen(1, -2), e)         # right ring is k=1, weight 0


def test_left_right_actions_differ_in_general():
    # on (1,2,1) at N=2 the left and right actions of y[1]@0 disagree
    path = FlagPath(2, (1, 2, 1))
    e = normalize_xi_vector(path, (0, 0))
    left = act("left", ygen(1, 0), e)
    right = act("right", ygen(1, 0), e)
    assert left.terms == {(1, 0): Polynomial.one()}
    assert right.terms == {(0, 0): ygen(1, 0)}
    difference = left - right
    assert not difference.is_zero()


def test_left_action_symmetric_on_smallest_excursion():
    # at N=1 the (0,1,0) bimodule happens to be symmetric: both actions of
    # y[1]@-1 send the unit to the same element
    path = FlagPath(1, (0, 1, 0))
    e = normalize_xi_vector(path, (0, 0))
    assert act("left", ygen(1, -1), e) == act("right", ygen(1, -1), e)


def test_left_action_is_a_ring_action():
    rng = random.Random(5)
    for N in (1, 2, 3):
        for path in all_paths(N, 3):
            ctx = path.junction(0)
            syms = sorted(ctx.catalog())
            if not syms:
                continue
            for _ in range(6):
                r = Polynomial.gen(syms[rng.randrange(len(syms))],
                                   rng.randrange(1, 3))
                s = Polynomial.gen(syms[rng.randrange(len(syms))])
                e = normalize(random_raw_tensor(path, rng))
                assert act("left", r * s, e) == \
                    act("left", r, act("left", s, e))


def test_tensor_concatenates():
    a = normalize(RawTensor(FlagPath(1, (0, 1)), (xigen(1),)))
    b = normalize_xi_vector(FlagPath(1, (1, 0)), (0,))
    product = tensor(a, b)
    assert product.path.rings == (0, 1, 0)
    assert product.terms == {(0, 0): ygen(1, -1)}


def test_tensor_identity_units():
    path = FlagPath(2, (1, 2))
    e = normalize_xi_vector(path, (1,))
    left_unit = BimElement.from_ring_poly(identity_path(2, 1), Polynomial.one())
    right_unit = BimElement.from_ring_poly(identity_path(2, 2), Polynomial.one())
    assert tensor(left_unit, e) == e
    assert tensor(e, right_unit) == e


def test_tensor_ring_mismatch():
    a = normalize_xi_vector(FlagPath(2, (0, 1)), (0,))
    b = normalize_xi_vector(FlagPath(2, (0, 1)), (0,))
    with pytest.raises(ValueError):
        tensor(a, b)


def test_basis_enumeration():
    assert basis(FlagPath(5, (1, 2))) == [(0,), (1,)]
    assert basis(identity_path(3, 2)) == [()]
    assert basis(FlagPath(1, (0, 1, 0))) == [(0, 0)]
    assert basis(FlagPath(1, (1, 2))) == []          # zero bimodule
    path = FlagPath(3, (1, 2, 1))
    assert len(basis(path)) == (path.bound(1) + 1) * (path.bound(2) + 1)


def test_graded_rank():
    assert graded_rank(FlagPath(4, (1, 2))) == Laurent({0: 1, 2: 1})
    assert graded_rank(identity_path(2, 1, 5)) == Laurent({5: 1})
    assert graded_rank(FlagPath(1, (0, 1, 0))) == Laurent({0: 1})
    assert graded_rank(FlagPath(1, (1, 2))).is_zero()


def test_two_sided_sums():
    # sum_j (-1)^j x_j (x) xi^(a-j) agrees with its mirrored form, and the
    # y-family version holds on the downward excursion
    for N in (1, 2, 3, 4):
        for k in range(0, N):
            _check_two_sided(FlagPath(N, (k, k + 1, k)), GrassContext(N, k).x, 2 * N)
        for k in range(1, N + 1):
            _check_two_sided(FlagPath(N, (k, k - 1, k)), GrassContext(N, k).y, 2 * N)


def _check_two_sided(path, gen, alpha_max):
    for alpha in range(0, alpha_max + 1):
        lhs = BimElement.zero(path)
        rhs = BimElement.zero(path)
        for j in range(0, alpha + 1):
            coeff = gen(j)
            if coeff.is_zero():
                continue
            sign = 1 if j % 2 == 0 else -1
            lhs = lhs + normalize(RawTensor(
                path, (coeff, path.step_ring(2).xi(alpha - j)))).scale(sign)
            rhs = rhs + normalize(RawTensor(
                path, (path.step_ring(1).xi(alpha - j), coeff))).scale(sign)
        assert lhs == rhs, (path.render(), alpha)


def test_dot_slide_on_coherence_sums():
    # multiplying the alternating sums by xi on either factor agrees
    for N in (1, 2, 3, 4):
        for k in range(0, N):
            path = FlagPath(N, (k, k + 1, k))
            gen, top = GrassContext(N, k).x, k
            _check_dot_slide(path, gen, top)
        for k in range(1, N + 1):
            path = FlagPath(N, (k, k - 1, k))
            gen, top = GrassContext(N, k).y, N - k
            _check_dot_slide(path, gen, top)


def _check_dot_slide(path, gen, top):
    lhs = BimElement.zero(path)
    rhs = BimElement.zero(path)
    for ell in range(0, top + 1):
        sign = 1 if ell % 2 == 0 else -1
        lhs = lhs + normalize(RawTensor(
            path, (path.step_ring(1).xi(top - ell + 1), gen(ell)))).scale(sign)
        rhs = rhs + normalize(RawTensor(
            path, (path.step_ring(1).xi(top - ell),
                   gen(ell) * path.step_ring(2).xi()))).scale(sign)
    assert lhs == rhs, path.render()


def test_inject_at_interior_junction():
    # x[1]@0 at the middle junction of (0,1,0) acts as xi on either factor,
    # and the two placements agree after normalization
    path = FlagPath(2, (0, 1, 0))
    value = inject_at_junction(path, 1, xgen(1, 0), (0, 0))
    via_left = normalize(RawTensor(path, (xigen(1), Polynomial.one())))
    via_right = normalize(RawTensor(path, (Polynomial.one(), xigen(2))))
    assert value == via_left == via_right
    assert value.terms == {(0, 1): Polynomial.one()}


def test_rewrite_termination_and_confluence_smoke():
    # small deterministic sample; the full 500-per-configuration sweep runs
    # in the acceptance suite
    from catsl2.bimodules import rewrite_measure
    rng = random.Random(99)
    for N in (1, 2):
        for path in all_paths(N, 3):
            for _ in range(20):
                raw = random_raw_tensor(path, rng)
                measures = [rewrite_measure(path, [(raw.factors, Polynomial.one())])]
                ltr = normalize(raw, order="ltr",
                                on_step=lambda t: measures.append(rewrite_measure(path, t)))
                assert all(b < a for a, b in zip(measures, measures[1:]))
                assert ltr == normalize(raw, order="rtl")


def test_element_degree():
    path = FlagPath(2, (1, 2))
    e = normalize_xi_vector(path, (1,))
    assert e.degree() == 2
    mixed = e + normalize_xi_vector(path, (0,))
    assert mixed.degree() is None
    assert BimElement.zero(path).degree() is None


def test_render_and_equality():
    path = FlagPath(1, (0, 1, 0))
    e = normalize(RawTensor(path, (xigen(1), Polynomial.one())))
    assert e.render() == "(y[1]@-1) * (1 | 1)"
    assert e == normalize(RawTensor(path, (Polynomial.one(), xigen(2))))
    assert BimElement.zero(path).render() == "0"
