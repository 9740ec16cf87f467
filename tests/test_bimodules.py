import dataclasses
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from catsl2.exactpoly import (
    FIELD_MASK,
    KIND_X,
    KIND_XI,
    KIND_Y,
    MAX_EXPONENT,
    Polynomial,
    field_shift,
    mono_pairs,
    x_sym,
    xi_sym,
    y_sym,
)
from catsl2.grassrings import GrassContext, StepRing
from catsl2.qlaurent import Laurent
from catsl2.bimodules import (
    BimElement,
    FlagPath,
    RawTensor,
    act,
    basis,
    graded_rank,
    inject_at_junction,
    linear_sum,
    normalize,
    normalize_sum,
    normalize_xi_vector,
    tensor,
)
from catsl2.twomorphisms import gen_crossing, gen_dot

from helpers import (
    all_paths,
    by_vector,
    identity_path,
    linear_sum_reference,
    omega_path,
    omega_poly,
    random_raw_tensor,
    record_polynomials_built,
    relation_gens,
    xgen,
    xigen,
    ygen,
)


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


# Registers the symbols of the elements below in the order argv[1] names,
# then either prints the hex pickle of the elements ("dump") or unpickles
# argv[3] and prints whether it equals the same elements built here
# ("load"); each also prints the first symbol's bit offset and a render.
_ELEMENT_SCRIPT = """
import pickle, sys
from catsl2.bimodules import FlagPath, RawTensor, normalize
from catsl2.exactpoly import Polynomial, field_shift, x_sym, xi_sym, y_sym
syms = [xi_sym(1), xi_sym(2), x_sym(1, 0), y_sym(1, 0)]
for s in (syms if sys.argv[1] == "forward" else syms[::-1]):
    field_shift(s)
xi1, xi2, x, y = (Polynomial.gen(s) for s in syms)
path = FlagPath(2, (1, 2, 1))
elements = [normalize(RawTensor(path, (xi1 ** 2 + x, x * xi2 + 3))),
            normalize(RawTensor(path, (xi1, xi2 ** 2))).scale(y - 2)]
print("offset", field_shift(syms[0]))
if sys.argv[2] == "dump":
    print(pickle.dumps(elements).hex())
else:
    print(pickle.loads(bytes.fromhex(sys.argv[3])) == elements)
print(elements[0].render())
"""


def _run_elements(*args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _ELEMENT_SCRIPT, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_element_pickle_crosses_interpreters_with_other_slot_order():
    # packed keys hold process-private slot numbers, so an element is
    # pickled as vectors and polynomials and rebuilt on loading
    dumped = _run_elements("forward", "dump")
    loaded = _run_elements("reversed", "load", dumped[1])
    assert dumped[0] != loaded[0]          # the slots really differ
    assert loaded[1] == "True"
    assert loaded[2] == dumped[2]


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
        assert by_vector(element) == {(0,) * path.num_factors: Polynomial.one()}


def test_normalize_one_step_excursion():
    # xi (x) 1 on (0,1,0) at N=1 becomes the basis vector with coefficient y[1]@-1
    path = FlagPath(1, (0, 1, 0))
    element = normalize(RawTensor(path, (xigen(1), Polynomial.one())))
    assert by_vector(element) == {(0, 0): ygen(1, -1)}


def test_normalize_xi_square_reduction():
    # xi^2 on the up-step (1,2) at N=2 rewrites through the monic relation
    path = FlagPath(2, (1, 2))
    element = normalize(RawTensor(path, (xigen(1, 2),)))
    assert by_vector(element) == {(1,): xgen(1, 2), (0,): -xgen(2, 2)}


def test_normalize_zero_path():
    path = FlagPath(1, (1, 2, 1))
    element = normalize(RawTensor(path, (Polynomial.one(), Polynomial.one())))
    assert element.is_zero()


def test_normalize_rejects_an_unknown_order_on_every_path():
    # the order is checked before a zero path returns early
    for rings in ((1, 2, 1), (0, 1, 0)):
        raw = RawTensor(FlagPath(1, rings), (xigen(1), Polynomial.one()))
        with pytest.raises(ValueError, match="unknown rewriting order"):
            normalize(raw, order="bogus")


def test_raw_tensor_rejects_foreign_generators():
    path = FlagPath(2, (0, 1))
    with pytest.raises(ValueError, match="factor 1 uses non-canonical generators: x\\[1\\]@0"):
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
    from catsl2.bimodules import _embedded, _factor
    factors = [Polynomial.one()] * path.num_factors
    if side == "right":
        factors[g] = _embedded(_factor(path, g + 1), ring_poly)
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
    assert by_vector(act("right", r, e)) == {(0, 0): r}


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
    assert by_vector(left) == {(1, 0): Polynomial.one()}
    assert by_vector(right) == {(0, 0): ygen(1, 0)}
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


def test_identity_path_actions_multiply_in_the_ring():
    # on the identity path (k) the left action, the right action and the
    # multiplication at junction 0 are each multiplication in ring k
    from catsl2.twomorphisms import junction_mult
    for N in (1, 2, 3):
        for k in range(N + 1):
            path = FlagPath(N, (k,))
            gens = [Polynomial.gen(sym) for sym in sorted(path.junction(0).catalog())]
            monomials = [Polynomial.one()] + gens + [a * b for a in gens for b in gens]
            for r in monomials:
                mult = junction_mult(path, 0, r)
                for s in monomials:
                    e = BimElement.from_ring_poly(path, s)
                    want = BimElement.from_ring_poly(path, r * s)
                    assert act("left", r, e) == want, (N, k, r, s)
                    assert act("right", r, e) == want, (N, k, r, s)
                    assert mult(e) == want, (N, k, r, s)


def test_tensor_concatenates():
    a = normalize(RawTensor(FlagPath(1, (0, 1)), (xigen(1),)))
    b = normalize_xi_vector(FlagPath(1, (1, 0)), (0,))
    product = tensor(a, b)
    assert product.path.rings == (0, 1, 0)
    assert by_vector(product) == {(0, 0): ygen(1, -1)}


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


def _every_path(max_rank, max_steps):
    """Every flag path with N <= max_rank and at most max_steps unit steps,
    starting anywhere in [-1, N + 1], so zero paths are included."""
    for N in range(1, max_rank + 1):
        frontier = [(k,) for k in range(-1, N + 2)]
        for _ in range(max_steps + 1):
            yield from ((N, rings) for rings in frontier)
            frontier = [rings + (rings[-1] + d,) for rings in frontier
                        for d in (1, -1)]


def test_graded_rank_matches_basis_enumeration():
    checked = zero = 0
    for N, rings in _every_path(4, 4):
        for shift in (0, 3, -5):
            path = FlagPath(N, rings, shift)
            enumerated = Laurent.zero()
            for vec in basis(path):
                enumerated = enumerated + Laurent.q_power(2 * sum(vec) + shift)
            assert graded_rank(path) == enumerated, path.render()
            checked += 1
            zero += path.is_zero
    # N + 3 starts, 1 + 2 + 4 + 8 + 16 step sequences, 3 shifts
    assert checked == 3 * 31 * sum(N + 3 for N in range(1, 5)) and zero > 0


def test_graded_rank_never_enumerates(monkeypatch):
    import catsl2.bimodules as bimodules

    def no_basis(path):
        raise AssertionError("graded_rank enumerated the basis of %s"
                             % path.render())

    monkeypatch.setattr(bimodules, "basis", no_basis)
    assert graded_rank(FlagPath(4, (1, 2, 3, 2), 1)) == \
        Laurent({1: 1, 3: 3, 5: 4, 7: 3, 9: 1})
    assert graded_rank(FlagPath(4, (4, 5))).is_zero()


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
    assert by_vector(value) == {(0, 1): Polynomial.one()}


def test_rewrite_termination_and_confluence_smoke():
    # small deterministic sample; the full 500-per-configuration sweep runs
    # in the acceptance suite
    from helpers import rewrite_measure
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


def _factor_records(N_max=3, max_steps=4, by_next=True):
    """One ``(path, i, f, nxt)`` per distinct factor record ``f`` (with
    ``by_next``, per distinct pair of ``f`` and the next factor's record
    ``nxt``, ``None`` on the last factor) over every path with
    N <= N_max and at most ``max_steps`` steps."""
    from catsl2.bimodules import _factor
    seen = {}
    for N in range(1, N_max + 1):
        for path in all_paths(N, max_steps):
            m = path.num_factors
            for i in range(1, m + 1):
                f = _factor(path, i)
                nxt = _factor(path, i + 1) if i < m else None
                seen.setdefault((f, nxt) if by_next else f, (path, i, f, nxt))
    return list(seen.values())


def _cold_factor(path, i):
    """The record of factor i of ``path`` from an emptied registry, so
    none of its memos is warm."""
    from catsl2.bimodules import _FACTORS, _factor
    _FACTORS.clear()
    return _factor(path, i)


def test_registry_holds_one_record_per_factor_context():
    # Normalizing on every path with N <= 3 and at most four steps fills
    # the registry with exactly the contexts (N, j, up, i) of those paths'
    # factors, and each record's bound is its factor's.
    from catsl2.bimodules import _FACTORS
    rng = random.Random("factor-registry")
    _FACTORS.clear()
    expected = {}
    for N in (1, 2, 3):
        for path in all_paths(N, 4):
            for _ in range(2):
                normalize(random_raw_tensor(path, rng), order=rng.choice(("ltr", "rtl")))
            for i in range(1, path.num_factors + 1):
                key = (N, path._steps[i - 1][0], path.is_up(i), i)
                expected.setdefault(key, set()).add(path.bound(i))
    assert set(_FACTORS) == set(expected)
    assert all(expected[key] == {f.bound} for key, f in _FACTORS.items())


def test_factor_record_built_by_four_threads():
    # Four threads race to build one cold record, eight times over: every
    # caller got back the very object the registry holds.
    from catsl2.bimodules import _FACTORS, _factor
    from helpers import call_in_threads

    path = FlagPath(4, (3, 2) * 5 + (1,))
    for _ in range(8):
        _FACTORS.clear()
        got = call_in_threads(lambda i: _factor(path, i), range(1, 11))
        assert len(_FACTORS) == 10
        assert all(f is _factor(path, i) for i, f in got)


def _reduced_power(f, e):
    """xi^e of factor record ``f`` rewritten within its bound, read back
    from the packed entry of its core in ``f.cores[None]``."""
    from catsl2.bimodules import _core_buckets
    return Polynomial(_core_buckets(f, None, e << f.shift))


@pytest.mark.parametrize("N, j, up", [(2, 1, True), (3, 1, True), (3, 1, False),
                                      (4, 2, False), (4, 3, True)])
def test_xi_powers_match_stepwise_reduction(N, j, up):
    # the core of xi^e equals reducing xi * (xi^(e-1)) one step at a
    # time, which never reduces more than one power above the bound
    from catsl2.bimodules import _factor
    from helpers import reduce_xi_reference

    path = FlagPath(N, (j + 1, j, j + 1) if up else (j, j + 1, j))
    f = _factor(path, 2)
    assert f.bound == (j if up else N - j - 1)
    xi = xigen(2)
    step = Polynomial.one()
    for e in range(0, f.bound + 16):
        assert _reduced_power(f, e) == step
        step = reduce_xi_reference(step * xi, path, 2)


def test_xi_power_far_past_the_recursion_limit():
    from catsl2.bimodules import _factor
    from helpers import reduce_xi_reference

    path = FlagPath(2, (1, 2) * 4)
    f = _factor(path, 7)                          # up-step (1, 2), bound 1
    top = _reduced_power(f, 1200)
    assert reduce_xi_reference(top * xigen(7), path, 7) == _reduced_power(f, 1201)


def test_xi_power_from_a_cold_table():
    # the prefix chain of a core is walked in a loop, so no depth of
    # recursion is reached, and every core on it is stored
    from catsl2.bimodules import _core_buckets

    # on the up-step (0, 1) at rank 1 the bound is 0 and xi = x[1]@1
    f = _cold_factor(FlagPath(1, (1, 0) * 4 + (1,)), 8)
    assert _core_buckets(f, None, 1201 << f.shift) == (xgen(1, 1) ** 1201).terms
    assert sorted(f.cores[None]) == [e << f.shift for e in range(1202)]


def test_xi_power_table_filled_by_four_threads():
    # Four threads race to extend the cold core table of one record with
    # the cores of xi-powers.  Its keys are the powers 0 .. len-1, every
    # entry equals the stepwise reduction, and each entry was added once:
    # every caller got back the very object the table holds.
    from catsl2.bimodules import _core_buckets
    from helpers import call_in_threads, reduce_xi_reference

    path = FlagPath(3, (2, 1) * 5)                # factor 9: down-step (2, 1)
    ring, f = path.step_ring(9), _cold_factor(path, 9)
    bound = f.bound
    got = call_in_threads(lambda e: _core_buckets(f, None, e << f.shift), range(0, 240, 3))
    table = f.cores[None]
    assert sorted(table) == [e << f.shift for e in range(len(table))] and len(table) >= 238
    assert all(entry is table[e << f.shift] for e, entry in got)
    # xi^(bound+1) from the monic relation y[1]xi - y[2] = xi^2 (y's at nu)
    assert _reduced_power(f, bound + 1) == sum(
        (ring.lower.y(t) * ring.xi(bound + 1 - t) * (-1) ** (t + 1)
         for t in range(1, bound + 2)), Polynomial.zero())
    step = Polynomial.one()
    for e in range(len(table)):
        assert _reduced_power(f, e) == step, e
        step = reduce_xi_reference(step * ring.xi(), path, 9)


def test_a_suite_run_reduces_at_most_twice_the_bound(monkeypatch):
    # A core is reduced from its prefix (xi-degree at most the bound) times
    # one image (xi, or a transported generator of xi-degree at most the
    # bound), so no reduced xi-power above twice the bound, or 1 at bound
    # 0, is ever needed: during run_suite(4) from an emptied registry, no
    # bucket index before division is higher, in the last factor's ring
    # and in a next factor's (where an embedded g_t has several terms).
    from catsl2 import bimodules
    from catsl2.relationsuite import run_suite

    seen = []
    reduce_buckets = bimodules._reduce_buckets

    def recorded(acc, bound, signed):
        seen.append((max(acc), bound, any(len(g) > 1 for g in signed)))
        return reduce_buckets(acc, bound, signed)

    monkeypatch.setattr(bimodules, "_reduce_buckets", recorded)
    bimodules._FACTORS.clear()
    assert run_suite(4).all_ok()
    assert len(bimodules._FACTORS) > 20
    assert len(seen) > 500
    for embedded in (False, True):
        assert any(top == 2 * bound > 0 for top, bound, emb in seen if emb == embedded)
    assert all(top <= bound + max(bound, 1) for top, bound, _ in seen)


def _random_xi_poly(ring, up, bound, high, rng):
    """Terms at ``high`` distinct xi-degrees above ``bound`` and at two
    degrees within it, each times 0-2 step-ring or relation generators."""
    gens = [Polynomial.gen(sym) for sym in sorted(ring.catalog())
            if sym.kind != KIND_XI] + relation_gens(ring, up)
    degrees = rng.sample(range(bound + 1, bound + 13), high)
    degrees += [rng.randrange(bound + 1) for _ in range(2)]
    poly = Polynomial.zero()
    for e in degrees:
        for _ in range(rng.randrange(1, 3)):
            term = Polynomial.const(rng.choice((1, -1, 2, Fraction(1, 3)))) * ring.xi(e)
            for _ in range(rng.randrange(0, 3)):
                term = term * rng.choice(gens)
            poly = poly + term
    return poly


def _bucketed(poly, f):
    """The terms of ``poly`` by the xi-degree of factor record ``f``:
    ``{e: {packed monomial without xi: coefficient}}``."""
    buckets = {}
    for m, c in poly.terms.items():
        buckets.setdefault((m >> f.shift) & FIELD_MASK, {})[m & f.strip] = c
    return buckets


def test_reduce_xi_matches_the_per_term_table_reduction(monkeypatch):
    # Synthetic division of the bucketed terms against the reduction it
    # replaced, on every factor context with N <= 4: polynomials with 0 to
    # 6 distinct xi-degrees above the bound, multiples of the monic
    # relation (every bucket above the bound cancels wholly), the same plus
    # one term above the bound (its bucket cancels in part), and a lone
    # xi^1201.  No product is taken with a cancelled (zero) coefficient,
    # and no zero coefficient or empty bucket is returned.
    from catsl2 import bimodules
    from helpers import reduce_xi_reference

    def reduced(poly, f):
        return bimodules._reduce_buckets(_bucketed(poly, f), f.bound,
                                         [g.terms for g in f.signed])

    def expected(poly, path, i, f):
        return tuple(sorted(_bucketed(reduce_xi_reference(poly, path, i), f).items()))

    calls = []
    add = bimodules._add_products

    def recorded(acc, ta, tb):
        calls.append(all(ta.values()) and all(tb.values()))
        add(acc, ta, tb)

    monkeypatch.setattr(bimodules, "_add_products", recorded)
    rng = random.Random("synthetic-division")
    records = _factor_records(4, 3, by_next=False)
    assert len(records) > 40
    for path, i, f, _ in records:
        ring, up, bound = path.step_ring(i), path.is_up(i), path.bound(i)
        gens = relation_gens(ring, up)
        relation = ring.xi(bound + 1) - sum(
            (g * ring.xi(bound + 1 - t) * (-1) ** (t + 1)
             for t, g in enumerate(gens, start=1)), Polynomial.zero())
        cases = [_random_xi_poly(ring, up, bound, high, rng) for high in range(7)]
        for s in (1, 3):
            whole = _random_xi_poly(ring, up, bound, 0, rng) * ring.xi(s) * relation
            assert reduced(whole, f) == ()
            part = whole + rng.choice(gens) * ring.xi(bound + s)
            cases += [whole, part]
        for poly in cases:
            got = reduced(poly, f)
            assert got == expected(poly, path, i, f), \
                (path.render(), i, poly.render())
    lone = 3 * xgen(1, 0) * xigen(7, 1201)
    path = FlagPath(2, (1, 2) * 4)
    f = bimodules._factor(path, 7)
    assert reduced(lone, f) == expected(lone, path, 7, f)
    assert all(calls)


# -- the linear rewriting kernel --------------------------------------------


def _reference_buckets(path, i, content):
    """Transport and reduce the whole content polynomial of factor i, then
    bucket it by xi-exponent, through the step ring's own expansions and
    decoded monomials only: ``{e: polynomial}``, ``e`` within the bound."""
    from catsl2.exactpoly import mono_pairs
    from helpers import reduce_xi_reference
    from catsl2.bimodules import _factor
    ring, up = path.step_ring(i), path.is_up(i)
    if up:
        transport = {x_sym(t, ring.nu): ring.lower_x_expansion(t)
                     for t in range(1, ring.j + 1)}
    else:
        transport = {y_sym(t, ring.nu + 2): ring.upper_y_expansion(t)
                     for t in range(1, ring.N - ring.j)}
    poly = reduce_xi_reference(content.substitute(transport), path, i)
    buckets = {}
    for mono, coeff in poly.terms.items():
        e, rest = 0, Polynomial.const(coeff)
        for sym, exp in mono_pairs(mono):
            if sym == xi_sym(i):
                e = exp
            else:
                rest = rest * Polynomial.gen(sym, exp)
        buckets[e] = buckets.get(e, Polynomial.zero()) + rest
    assert all(e <= path.bound(i) for e in buckets)
    return buckets


def _reference_push(path, i, content):
    """Transport, reduce, bucket by xi-exponent and embed, on the whole
    content polynomial (see ``_reference_buckets``), embedding through the
    next step ring's own ``embed_ring_poly``."""
    buckets = _reference_buckets(path, i, content)
    out = []
    for e in sorted(buckets):
        if buckets[e]:
            part = buckets[e]
            if i < path.num_factors:
                end = "lower" if path.is_up(i + 1) else "upper"
                part = path.step_ring(i + 1).embed_ring_poly(part, end)
            out.append((e, part))
    return out


def _reference_core(path, i, nxt, core):
    """What ``_core_read`` must give for the entry of the packed ``core``
    in factor i's core table for the next factor of ``path`` (``None``
    after the last): the reference buckets, each embedded by substitution,
    packed after the last factor."""
    return _push_reference(path, i, nxt, Polynomial({core: 1}))


def _core_read(nxt, entry):
    """A stored core entry as ``_push_reference`` gives it: its wrapped
    buckets into a next factor, or after the last factor its packed dict
    wrapped as it is (a zero coefficient would show in a comparison)."""
    from catsl2.exactpoly import _make
    return _make(entry) if nxt is None else _wrapped(entry)


def _wrapped(pushed):
    """``(e, dict)`` push buckets as ``(e, Polynomial)`` pairs, each dict
    wrapped as it is (a zero coefficient would show in a comparison)."""
    from catsl2.exactpoly import _make
    return [(e, _make(terms)) for e, terms in pushed]


def _pushed(path, i, f, nxt, terms):
    """The push of the ``{mono: coeff}`` content ``terms`` of factor i:
    its wrapped buckets into a next factor (``_push_content``), or after
    the last factor the polynomial of ``_settle`` on one term with every
    other factor at xi^0 and coefficient 1 (terms that cancel dropped)."""
    from catsl2.bimodules import _push_content, _settle
    from catsl2.exactpoly import _collect
    if nxt is not None:
        return _wrapped(_push_content(f, nxt, terms))
    return _collect(_settle(path, [((0,) * (i - 1) + (Polynomial(terms),), 1)]))


def _push_reference(path, i, nxt, content):
    """What ``_pushed`` must equal: ``_reference_push``, packed after the
    last factor (each ``(e, poly)`` bucket becomes xi_i^e * poly)."""
    buckets = _reference_push(path, i, content)
    if nxt is not None:
        return buckets
    return sum((xigen(i, e) * poly for e, poly in buckets), Polynomial.zero())


def test_push_matches_whole_content_reference():
    from helpers import random_factor_poly
    records = _factor_records()
    assert len(records) > 30
    rng = random.Random("linear-push")
    for path, i, f, nxt in records:
        for case in range(12):
            content = Polynomial.zero()
            for _ in range(rng.randrange(0, 4)):
                content = content + random_factor_poly(path, i, rng)
            if case == 0 and content:
                content = content - content       # cancels to zero
            elif case == 1:
                content = content * content       # more monomials
            assert _pushed(path, i, f, nxt, content.terms) == \
                _push_reference(path, i, nxt, content), (path.render(), i, content.render())


def _multiset_decreases(before, after):
    """True if ``after < before`` in the multiset extension of ``<``: some
    element was removed, and each added one is below a removed one."""
    removed = Counter(before) - Counter(after)
    added = Counter(after) - Counter(before)
    return bool(removed) and all(any(a < r for r in removed) for a in added)


def test_rtl_steps_decrease_the_term_multiset():
    # Clearing a factor in a right-to-left sweep copies the factors to its
    # left into every new term, so the summed measure of ``rewrite_measure``
    # can grow; the multiset of the per-term measures decreases instead.
    from helpers import rewrite_measure
    rng = random.Random("rtl-merge")
    recleared = False
    for N in (1, 2, 3):
        for path in all_paths(N, 4):
            for _ in range(3):
                raw = random_raw_tensor(path, rng)
                states = [[(raw.factors, Polynomial.one())]]
                rtl = normalize(raw, order="rtl", on_step=states.append)
                for terms in states[1:]:
                    assert all(coeff for _, coeff in terms)
                measures = [[rewrite_measure(path, [term]) for term in terms]
                            for terms in states]
                for before, after in zip(measures, measures[1:]):
                    assert _multiset_decreases(before, after)
                assert rtl == normalize(raw, order="ltr")
                recleared |= len(states) > path.num_factors + 1
    assert recleared               # some factor was cleared more than once


def test_push_memo_is_keyed_per_monomial():
    # Every context pushes all subset sums of a pool of four monomials: 15
    # distinct contents per context, but only four distinct monomials.  A
    # memo keyed on whole contents would hold at least the 15.
    from catsl2.bimodules import _FACTORS
    from helpers import random_factor_poly
    rng = random.Random("memo-size")
    _FACTORS.clear()
    inputs, contents = set(), set()
    for path, i, f, nxt in _factor_records():
        pool = set()
        while len(pool) < 4:
            pool.update(random_factor_poly(path, i, rng).terms)
        pool = sorted(pool)[:4]
        for mask in range(1, 16):
            terms = {mono: (-1) ** k * (k + 1) for k, mono in enumerate(pool)
                     if mask >> k & 1}
            contents.add((f, nxt, frozenset(terms)))
            inputs.update((f, nxt, mono) for mono in terms)
            _pushed(path, i, f, nxt, terms)
    assert len(contents) == 15 * len(inputs) // 4
    assert 0 < sum(len(table) for f in _FACTORS.values()
                   for table in f.pushes.values()) <= len(inputs)


def _core_and_rest(path, i):
    """A factor's core symbols (xi and the left-junction generators) and its
    rest symbols (the right-junction generators), read off the kinds."""
    left_kind = KIND_X if path.is_up(i) else KIND_Y
    core, rest = [xi_sym(i)], []
    for sym in sorted(path.step_ring(i).catalog()):
        if sym.kind != KIND_XI:
            (core if sym.kind == left_kind else rest).append(sym)
    return core, rest


def _packed(pairs):
    """The packed monomial of (symbol, exponent) pairs."""
    mono = Polynomial.one()
    for sym, exp in pairs:
        mono = mono * Polynomial.gen(sym, exp)
    (packed,) = mono.terms
    return packed


def _divides(a, b):
    """True if the packed monomial ``a`` divides the packed monomial ``b``."""
    exps = dict(mono_pairs(b))
    return all(exp <= exps.get(sym, 0) for sym, exp in mono_pairs(a))


def test_pushes_share_one_core_entry_per_core():
    # Monomials that differ only in right-junction generators share one
    # entry of the core table of their record and next record: it holds
    # every distinct core pushed, and besides them only the prefixes they
    # were built from (each divides a pushed core).  Every push and every
    # core entry equals the whole-content reference.  The push of a
    # monomial with no rest holds the very dicts of its stored core entry;
    # after the last factor no push is stored, and settling the monomial
    # gives that packed entry.
    from catsl2.bimodules import _FACTORS, _push_content, _settle
    rng = random.Random("core-table")
    _FACTORS.clear()
    expected = {}
    for path, i, f, nxt in _factor_records(4, 3):
        core_syms, rest_syms = _core_and_rest(path, i)
        cores = {_packed((sym, rng.randrange(f.bound + 4 if sym == core_syms[0] else 3))
                         for sym in core_syms) for _ in range(3)}
        rests = {0} | {_packed((sym, rng.randrange(3)) for sym in rest_syms)
                       for _ in range(3)}
        for core in cores:
            for rest in rests:
                assert _pushed(path, i, f, nxt, {core + rest: 1}) == _push_reference(
                    path, i, nxt, Polynomial({core + rest: 1})), (path.render(), i)
                if rest:
                    continue
                stored = f.cores[nxt][core]
                if nxt is None:
                    assert None not in f.pushes
                    term = ((0,) * (i - 1) + (Polynomial({core: 1}),), 1)
                    assert _settle(path, [term]) == stored
                    continue
                pushed = _push_content(f, nxt, {core: 1})
                assert len(pushed) == len(stored)
                assert all(terms is bucket for (_, terms), (_, bucket)
                           in zip(pushed, stored))
        expected.setdefault((f, nxt), (path, i, set()))[2].update(cores)
    assert len(expected) > 60
    assert set(_FACTORS.values()) == {f for f, _ in expected}
    for (f, nxt), (path, i, pushed) in expected.items():
        assert set(f.cores) == {n for g, n in expected if g is f}
        table = f.cores[nxt]
        assert pushed <= set(table)
        for core, entry in table.items():
            assert any(_divides(core, top) for top in pushed), (path.render(), i)
            assert _core_read(nxt, entry) == _reference_core(path, i, nxt, core), \
                (path.render(), i)


def test_core_buckets_match_the_transport_reference():
    # Every entry of every core table, the cores asked for and the
    # prefixes they were built from, equals transport by the step ring's
    # expansions and reduction by the xi-power table, each bucket then
    # embedded by substitution into the next factor's step ring, on every
    # pair of a record and its next record (or none, after the last
    # factor) of the paths with N <= 4 and at most three steps: xi-degrees
    # up to the bound + 4, left-junction generator exponents up to 3.
    from catsl2.bimodules import _FACTORS, _core_buckets
    rng = random.Random("core-oracle")
    _FACTORS.clear()
    records = _factor_records(4, 3)
    assert sum(nxt is None for _, _, _, nxt in records) > 20
    assert sum(nxt is not None for _, _, _, nxt in records) > 40
    for path, i, f, nxt in records:
        core_syms, _ = _core_and_rest(path, i)
        for _ in range(6):
            pairs = [(core_syms[0], rng.randrange(f.bound + 5))]
            pairs += [(sym, rng.randrange(4)) for sym in core_syms[1:]]
            _core_buckets(f, nxt, _packed(pairs))
    assert sum(len(f.cores[nxt]) for _, _, f, nxt in records) > 3 * len(records)
    for path, i, f, nxt in records:
        for core, entry in f.cores[nxt].items():
            assert _core_read(nxt, entry) == _reference_core(path, i, nxt, core), \
                (path.render(), i)


def test_cores_far_past_the_recursion_limit():
    # A core is built from a chain of prefixes as long as its degree; the
    # chain is walked in a loop, so neither an xi exponent nor a generator
    # exponent above the recursion limit raises on a cold record.  The
    # limit is lowered for the test (the chain's cost grows with the square
    # of its length), to 150 frames above the caller's depth.  Both the
    # last factor's table and a next factor's are built.
    import inspect
    import sys
    from catsl2.bimodules import _core_buckets, _factor

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        top = sys.getrecursionlimit() + 1
        # factor 3: up-step (1, 2), bound 1; last, or followed by (2, 1)
        for path in (FlagPath(2, (1, 2) * 2), FlagPath(2, (1, 2) * 2 + (1,))):
            for sym in (xi_sym(3), x_sym(1, 0)):  # xi and the left-junction x[1]@0
                f = _cold_factor(path, 3)
                nxt = _factor(path, 4) if path.num_factors > 3 else None
                core = _packed([(sym, top)])
                got = _core_buckets(f, nxt, core)
                assert len(f.cores[nxt]) == top + 1
                assert _core_read(nxt, got) == _reference_core(path, 3, nxt, core)
    finally:
        sys.setrecursionlimit(limit)


def test_core_buckets_share_no_field_with_the_rest():
    # The packed entry of a core after the last factor holds only xi, at
    # most to the bound, and the generators of the monic xi relation
    # (x[t]@(nu+2) on an up-step, y[t]@nu on a down-step), and the rest
    # mask is exactly the fields of the right-junction generators, so
    # adding the rest to an entry's key cannot carry.
    from catsl2.bimodules import _core_buckets
    for path, i, f, _ in _factor_records(4, 3, by_next=False):
        core_syms, rest_syms = _core_and_rest(path, i)
        allowed = {xi_sym(i)} | {sym for g in relation_gens(path.step_ring(i), path.is_up(i))
                                 for sym in g.symbols()}
        assert f.rest == sum(FIELD_MASK << field_shift(sym) for sym in rest_syms)
        for a in range(f.bound + 4):
            for left in [None] + core_syms[1:]:
                pairs = [(xi_sym(i), a)] + ([(left, 2)] if left else [])
                for key in _core_buckets(f, None, _packed(pairs)):
                    assert (key >> f.shift) & FIELD_MASK <= f.bound
                    assert not key & f.rest
                    assert {sym for sym, _ in mono_pairs(key)} <= allowed


def test_core_table_filled_by_four_threads():
    # Four threads race to fill the core table of one cold record, eight
    # times over, for the last factor and for a next factor: it ends with
    # one entry per core, and every caller got back the very object stored.
    from catsl2.bimodules import _core_buckets, _factor
    from helpers import call_in_threads

    nu = 2 * 2 - 4                                # factor 9: down-step (3, 2)
    cores = [_packed([(xi_sym(9), a), (y_sym(1, nu + 2), b)])
             for a in range(12) for b in range(5)]
    for path in [FlagPath(4, (3, 2) * 5), FlagPath(4, (3, 2) * 5 + (1,))] * 4:
        f = _cold_factor(path, 9)
        nxt = _factor(path, 10) if path.num_factors > 9 else None
        got = call_in_threads(lambda k: _core_buckets(f, nxt, cores[k]), range(len(cores)))
        assert list(f.cores) == [nxt] and len(f.cores[nxt]) == len(cores)
        assert all(entry is f.cores[nxt][cores[k]] for k, entry in got)


def test_push_table_filled_by_four_threads():
    # Four threads race to fill the push table of one cold record, its
    # per-next-factor dict, core table and embedding memo too, eight times
    # over for each of two next factors: it ends with one entry per
    # monomial, and every caller got back the very object stored.  The
    # next factor embeds the rest (x's) nontrivially on the path ending
    # (2, 1), and the buckets (y's) on the one ending (2, 3).  A push with
    # no rest holds the very dicts of its core's stored entry; one with a
    # rest, their products with the stored embedding of the rest.
    from catsl2.bimodules import _factor, _push_content
    from catsl2.exactpoly import _add_products, _collect
    from helpers import call_in_threads

    nu = 2 * 2 - 4                                # factor 9: down-step (3, 2)
    monos = [_packed([(xi_sym(9), a), (y_sym(1, nu + 2), b), (x_sym(1, nu), c)])
             for a in range(8) for b in range(6) for c in range(3)]
    for path in [FlagPath(4, (3, 2) * 5 + (end,)) for end in (1, 3)] * 8:
        f = _cold_factor(path, 9)
        nxt = _factor(path, 10)
        got = call_in_threads(lambda k: _push_content(f, nxt, {monos[k]: 1}),
                              range(len(monos)))
        table = f.pushes[nxt]
        assert list(f.pushes) == [nxt] and len(table) == len(monos)
        assert all(pushed is table[monos[k]] for k, pushed in got)
        for mono, pushed in table.items():
            rest = mono & f.rest
            buckets = f.cores[nxt][mono - rest]
            assert [e for e, _ in pushed] == [e for e, _ in buckets]
            for (_, terms), (_, bucket) in zip(pushed, buckets):
                if not rest:
                    assert terms is bucket
                    continue
                acc = {}
                _add_products(acc, nxt.embedded[Polynomial({rest: 1})].terms, bucket)
                assert terms == _collect(acc).terms
        assert any(mono & f.rest for mono in table)


def test_kernel_memos_are_filled_only_by_setdefault():
    # Racing threads keep the first entry only if no memo is ever filled
    # by plain assignment, which a race shows only by chance.  With every
    # memo of a cold record and of its next record swapped for one whose
    # item assignment raises, pushes with and without a rest, after the
    # last factor (which fills only the core table) and into a next one,
    # fill them and equal the reference.
    from catsl2.bimodules import _core_table, _factor
    from helpers import SetdefaultOnly

    nu = 2 * 2 - 4                                # factor 9: down-step (3, 2)
    monos = [_packed([(xi_sym(9), a), (y_sym(1, nu + 2), b), (x_sym(1, nu), c)])
             for a in range(6) for b in range(3) for c in range(2)]
    for path in (FlagPath(4, (3, 2) * 5), FlagPath(4, (3, 2) * 5 + (1,))):
        f = _cold_factor(path, 9)
        nxt = _factor(path, 10) if path.num_factors > 9 else None
        for rec in (f, nxt) if nxt else (f,):
            rec.lifts, rec.cores, rec.pushes, rec.embedded = (
                SetdefaultOnly() for _ in range(4))
        _core_table(f, nxt)
        # the per-next tables are made inside the kernel: swap them in place
        dict.__setitem__(f.cores, nxt, SetdefaultOnly(f.cores[nxt]))
        if nxt is not None:
            f.pushes.setdefault(nxt, SetdefaultOnly())
        for mono in monos:
            assert _pushed(path, 9, f, nxt, {mono: 1}) == _push_reference(
                path, 9, nxt, Polynomial({mono: 1})), (path.render(), mono)
        assert len(f.cores[nxt]) > len(monos) // 6
        if nxt is None:
            assert not f.pushes
        else:
            assert len(f.pushes[nxt]) == len(monos)


def test_stored_pushes_are_never_mutated():
    # In-flight terms, normal forms and the sums built from them wrap the
    # stored push dicts (and the core and embedding polynomials inside
    # them) without copying.  Fill the records, take a deep copy of their
    # memos, run the same work again on the warm records (so every stored
    # dict is shared), and no stored entry may have changed.  The entries
    # that hold pushes are those of ``f.pushes`` and, after the last
    # factor, of ``f.cores[None]``.
    import copy
    from catsl2.bimodules import _FACTORS
    from catsl2.relationsuite import run_suite
    rng = random.Random("push-aliasing")
    raws = [random_raw_tensor(path, rng)
            for N in (1, 2, 3) for path in all_paths(N, 3) for _ in range(2)]

    def work():
        for raw in raws:
            ltr, rtl = normalize(raw, order="ltr"), normalize(raw, order="rtl")
            assert ltr == rtl
            assert (ltr + rtl - ltr.scale(2)).is_zero()
        assert run_suite(3).all_ok()

    def memos():
        for f in list(_FACTORS.values()):
            for nxt, table in f.pushes.items():
                for mono, pushed in table.items():
                    yield (f, "pushes", nxt, mono), pushed
            for nxt, table in f.cores.items():
                for core, buckets in table.items():
                    yield (f, "cores", nxt, core), buckets
            for nxt, lift in f.lifts.items():
                yield (f, "lifts", nxt), lift
            for poly, content in f.embedded.items():
                yield (f, "embedded", poly), content.terms

    work()
    stored = [(key, copy.deepcopy(value)) for key, value in memos()]
    pushes = [key for key, _ in stored if key[1] == "pushes" or key[1:3] == ("cores", None)]
    assert len(pushes) > 1000
    assert sum(key[2] is None for key in pushes) > 100
    work()
    now = dict(memos())
    for key, value in stored:
        assert now[key] == value, key

    # One monomial with coefficient 1 on a 1-factor path: ``_settle``'s one
    # ``_add_products`` copies the stored packed core entry into an empty
    # dict.
    from catsl2.bimodules import _factor
    path = FlagPath(2, (0, 1))                    # bound 0: xi^2 is content
    element = normalize(RawTensor(path, (xigen(1, 2),)))
    pushed = _factor(path, 1).cores[None][_packed([(xi_sym(1), 2)])]
    before = copy.deepcopy(pushed)
    assert element.terms is not pushed and element.terms == pushed
    element.scale(3)
    element.scale(xgen(1, 0))
    assert pushed == before


def test_the_last_factor_keeps_one_table():
    # After the last factor a record keeps only its core table, one packed
    # entry per core: after normalizing in both orders on every path with
    # N <= 3 and at most three steps, and after run_suite(3), no record
    # stores a push for no next factor, no core after the last factor has
    # a rest field, and settling a sampled core times a rest monomial with
    # coefficient 1 equals the whole-content reference.
    from catsl2.bimodules import _FACTORS, _factor
    from catsl2.relationsuite import run_suite
    rng = random.Random("one-last-table")
    _FACTORS.clear()
    last = {}
    for N in (1, 2, 3):
        for path in all_paths(N, 3):
            for order in ("ltr", "rtl"):
                normalize(random_raw_tensor(path, rng), order=order)
            m = path.num_factors
            last.setdefault(_factor(path, m), (path, m))
    assert run_suite(3).all_ok()
    assert all(None not in f.pushes for f in _FACTORS.values())
    tables = [f.cores[None] for f in _FACTORS.values() if None in f.cores]
    assert len(tables) >= len(last) and sum(map(len, tables)) > 100
    assert not any(core & f.rest for f in _FACTORS.values() for core in f.cores.get(None, ()))
    for f, (path, i) in last.items():
        _, rest_syms = _core_and_rest(path, i)
        for core in rng.sample(sorted(f.cores[None]), min(6, len(f.cores[None]))):
            rest = _packed((sym, rng.randrange(3)) for sym in rest_syms)
            assert _pushed(path, i, f, None, {core + rest: 1}) == _push_reference(
                path, i, None, Polynomial({core + rest: 1})), (path.render(), core, rest)


def test_sums_hold_no_zero_coefficients():
    path = FlagPath(2, (0, 1, 2))
    rng = random.Random("bim-add")
    elements = [normalize(random_raw_tensor(path, rng)) for _ in range(6)]
    for e in elements:
        assert (e + (-e)).terms == {}
        assert (e - e).is_zero()
        assert e.right_mul(Polynomial.one()) is e
        assert e.right_mul(Polynomial.zero()).terms == {}
    total = BimElement.zero(path)
    for e in elements + [-e for e in elements[:3]]:
        total = total + e
        assert all(coeff for coeff in total.terms.values())
    assert total == sum(elements[3:], BimElement.zero(path))


def _random_elements(path, seed, count):
    rng = random.Random(seed)
    return [normalize(random_raw_tensor(path, rng)) for _ in range(count)]


def test_linear_sum_of_an_element_and_its_negative_is_empty():
    path = FlagPath(2, (0, 1, 2))
    for e in _random_elements(path, "lin-neg", 6):
        assert e.terms
        assert linear_sum(path, [(e, 1), (e, -1)]).terms == {}
        assert linear_sum(path, [(e, 1), (-e, 1)]).terms == {}


def test_linear_sum_keeps_no_zero_coefficient():
    path = FlagPath(2, (0, 1, 2))
    poly = xgen(1, 2) - xgen(2, 2)            # in the right end ring k = 2
    for e in _random_elements(path, "lin-zero", 6):
        for c in (0, Fraction(0), Polynomial.zero()):
            assert linear_sum(path, [(e, c)]).terms == {}
        for c in (Fraction(2, 3), poly):
            assert linear_sum(path, [(e, c), (e, -c)]).terms == {}
            partial = linear_sum(path, [(e, c), (e.scale(2), -c), (e, 1)])
            assert all(partial.terms.values())
            assert partial == e - e.scale(c)


def test_normalize_sum_equals_the_sum_of_normal_forms():
    # the parts' in-flight terms rewritten as one list and settled once
    # give the linear_sum of the parts' normal forms, on every path of at
    # most three steps for N <= 3: repeated, cancelling and in-bound parts
    rng = random.Random("normalize-sum")
    for N in (1, 2, 3):
        for path in all_paths(N, 3):
            raws = [random_raw_tensor(path, rng) for _ in range(3)]
            unit = RawTensor(path, (Polynomial.one(),) * path.num_factors)
            for parts in ([(raws[0], 1), (raws[1], -2), (raws[0], Fraction(1, 2)),
                           (raws[2], 3), (unit, 1), (raws[2], -3)],
                          [(raws[1], 1), (raws[1], -1)],
                          [(unit, 2), (unit, -1)],
                          []):
                want = linear_sum(path, [(normalize(raw), c) for raw, c in parts])
                assert normalize_sum(path, parts) == want, (path.render(), parts)
    with pytest.raises(ValueError, match="different bimodules"):
        normalize_sum(FlagPath(2, (0, 1)), [(RawTensor(FlagPath(2, (1, 2)),
                                                       (Polynomial.one(),)), 1)])


def test_linear_sum_rejects_parts_on_other_paths():
    path, other = FlagPath(2, (0, 1, 2)), FlagPath(2, (2, 1, 0))
    e, f = normalize_xi_vector(path, (0, 1)), normalize_xi_vector(other, (0, 1))
    for parts in ([(f, 1)], [(e, 1), (f, 1)], [(e, 1), (f, 2)]):
        with pytest.raises(ValueError, match="different bimodules"):
            linear_sum(path, parts)
    with pytest.raises(ValueError, match="different bimodules"):
        e + f


def test_linear_sum_leaves_memoized_images_intact():
    path = FlagPath(2, (1, 2, 1))
    dot = gen_dot(path, 1)
    images = [dot.apply_vec(vec) for vec in basis(path)]
    snapshots = [dict(image.terms) for image in images]
    assert all(snapshots)
    for c in (1, 3, xgen(1, 0)):
        linear_sum(path, [(image, 1) for image in images] + [(images[0], c)])
        linear_sum(path, [(image, c) for image in images])
    assert [image.terms for image in images] == snapshots
    assert [dot.apply_vec(vec) for vec in basis(path)] == images


def test_linear_sum_consumes_a_generator_of_parts_once():
    path = FlagPath(2, (0, 1, 2))
    elements = _random_elements(path, "lin-gen", 5)
    listed = [(e, i + 1) for i, e in enumerate(elements)]
    parts = (pair for pair in listed)
    total = linear_sum(path, parts)
    assert next(parts, None) is None
    assert total == linear_sum(path, listed)
    assert total == sum((e.scale(c) for e, c in listed[1:]), listed[0][0])


def _right_ring_poly(path, rng):
    """A random multi-term polynomial in the right end ring of ``path``."""
    syms = sorted(path.junction(path.num_factors).catalog())
    poly = Polynomial.const(rng.choice((1, -2, Fraction(1, 3))))
    for _ in range(rng.randrange(2, 4)):
        term = Polynomial.const(rng.choice((1, -1, 3, Fraction(-5, 2))))
        for _ in range(rng.randrange(1, 3)):
            term = term * Polynomial.gen(syms[rng.randrange(len(syms))],
                                         rng.randrange(1, 3))
        poly = poly + term
    return poly


def _scales(path, rng):
    """Every kind of scale ``linear_sum`` takes: rationals, 1 in each of its
    forms, constant and multi-term polynomials, and zero."""
    poly = _right_ring_poly(path, rng)
    return [1, Polynomial.one(), Fraction(1, 1), -1, 3, Fraction(2, 3), Fraction(2, 1),
            Polynomial.const(Fraction(1, 2)), poly, -poly, poly * poly,
            Polynomial.gen(sorted(path.junction(path.num_factors).catalog())[0]),
            0, Polynomial.zero()]


def test_linear_sum_matches_the_polynomial_reference():
    # the flat kernel against the Polynomial arithmetic it replaced, on
    # every path with N <= 3 and at most 3 steps
    checked = cancelled = 0
    for N in (1, 2, 3):
        for path in all_paths(N, 3):
            rng = random.Random("lin-ref:%d:%s" % (N, path.rings))
            elements = [normalize(random_raw_tensor(path, rng)) for _ in range(3)]
            scales = _scales(path, rng)
            part_lists = [[(e, c)] for e in elements for c in scales]
            for _ in range(6):
                part_lists.append([(elements[rng.randrange(3)],
                                    scales[rng.randrange(len(scales))])
                                   for _ in range(rng.randrange(2, 5))])
            for e in elements:
                c = scales[8]
                # parts that cancel to zero, in full and in part
                part_lists.append([(e, c), (e, -c)])
                part_lists.append([(e, c), (e.scale(c), -1), (e, Fraction(1, 2))])
                part_lists.append([(e, 1), (e, c), (e, -1), (e.scale(-1), c)])
            for parts in part_lists:
                got = linear_sum(path, parts)
                want = linear_sum_reference(path, parts)
                assert got == want, (path.render(), parts)
                assert all(coeff for coeff in got.terms.values())
                assert all(all(coeff.terms.values()) for coeff in by_vector(got).values())
                checked += 1
                cancelled += not got.terms
    assert checked > 1000 and cancelled > 100


def test_linear_sum_raises_on_exponent_overflow():
    path = FlagPath(2, (1, 2))                  # right end ring k = 2
    x, one = xgen(1, 2), Polynomial.one()
    top = normalize_xi_vector(path, (1,)).right_mul(x ** MAX_EXPONENT)
    low = normalize_xi_vector(path, (0,)).right_mul(x ** (MAX_EXPONENT - 1))
    # a product that reaches the limit is fine; one past it raises
    assert linear_sum(path, [(low, x), (top, one)]) == \
        linear_sum_reference(path, [(low, x), (top, one)])
    for parts in ([(top, x)],
                  [(low, 1), (top, xgen(2, 2) + x - 1)],
                  [(low, x * x)],
                  [(top, one), (low, xgen(2, 2) * x ** 2)]):
        with pytest.raises(OverflowError):
            linear_sum(path, parts)
        with pytest.raises(OverflowError):
            linear_sum_reference(path, parts)


def test_linear_sum_mutates_no_part():
    # a part's packed terms dict stays the same dict with the same items,
    # whichever scale its first and later occurrences carry
    path = FlagPath(3, (1, 2, 1))
    rng = random.Random("lin-mutate")
    elements = _random_elements(path, "lin-mutate", 4)
    scales = _scales(path, rng)
    snapshot = [(e.terms, dict(e.terms)) for e in elements]
    for c in scales:
        for d in scales:
            linear_sum(path, [(elements[0], c), (elements[0], d),
                              (elements[1], d), (elements[0], 1)])
            linear_sum(path, [(e, c) for e in elements] + [(e, d) for e in elements])
    for e, (terms, items) in zip(elements, snapshot):
        assert e.terms is terms and e.terms == items


def test_linear_sum_scaled_by_a_scalar_shares_the_keys():
    # a scalar adds nothing to a key, so the packed terms of the sum hold
    # the scaled element's own key objects (every key here is above 256,
    # outside the interpreter's shared small ints)
    path = FlagPath(3, (1, 2, 1))
    x, y = xgen(1, -1), ygen(2, -1)
    element = BimElement(path, {(0, 0): (x + y + 1) ** 3 * x ** 300,
                                (1, 0): (x - y) * x ** 301})
    assert min(element.terms) > 256
    keys = {key: key for key in element.terms}
    for c in (3, Fraction(1, 2), Polynomial.const(-2), Polynomial.one()):
        got = linear_sum(path, [(element, c)])
        assert got == linear_sum_reference(path, [(element, c)])
        assert got.terms.keys() == keys.keys()
        assert all(key is keys[key] for key in got.terms), c


def test_linear_sum_builds_no_polynomial(monkeypatch):
    # an element is one packed dict, so a sum is one product loop per part
    # into one dict: neither linear_sum nor what it runs outside exactpoly
    # builds a Polynomial, whatever the scales
    from catsl2.bimodules import _sum_terms, _wrap
    path = FlagPath(3, (1, 2, 1))
    rng = random.Random("lin-nopoly")
    elements = _random_elements(path, "lin-nopoly", 4)
    scales = _scales(path, rng)
    part_lists = [[(e, c) for e in elements] for c in scales]
    part_lists += [[(elements[0], c), (elements[1], d), (elements[0], -c)]
                   for c in scales for d in scales[:4]]
    every, inside = record_polynomials_built(monkeypatch, [linear_sum, _sum_terms, _wrap])
    totals = [linear_sum(path, parts) for parts in part_lists]
    assert not inside, Counter(inside)
    assert not every
    assert sum(not total.is_zero() for total in totals) > 50
    # the recorder sees what the Polynomial reference builds
    assert [linear_sum_reference(path, parts) for parts in part_lists] == totals
    assert len(every) > 100 and not inside


def test_the_element_constructor_takes_only_normal_form_input():
    # the public constructor is where outside terms enter: a vector of the
    # wrong length, an exponent past its bound and a coefficient outside
    # the right end ring are refused, by basis_vector too
    p = FlagPath(2, (0, 1))                     # one up-step factor, bound 0
    assert p.bound(1) == 0
    for terms, match in (({(3,): 1}, r"xi\^\[3\] is past the bounds of \(0,1\)"),
                         ({(0, 0): 1}, "one exponent per path step"),
                         ({(): 1}, "one exponent per path step"),
                         ({(-1,): 1}, "negative exponent"),
                         ({(0,): ygen(5, 7)}, r"non-canonical generators: y\[5\]@7")):
        with pytest.raises(ValueError, match=match):
            BimElement(p, terms)
        (vec, coeff), = terms.items()
        with pytest.raises(ValueError, match=match):
            BimElement.basis_vector(p, vec, coeff)
    ring = FlagPath(2, (1,))
    with pytest.raises(ValueError, match=r"non-canonical generators: x\[1\]@2"):
        BimElement.from_ring_poly(ring, xgen(1, 2))
    # normal-form input is taken as it is, with rational or polynomial
    # coefficients; a zero coefficient adds nothing
    x = xgen(1, 0)                              # ring 1 at rank 2
    e = BimElement(p, {(0,): x + Fraction(1, 2)})
    assert e == normalize_xi_vector(p, (0,)).scale(x + Fraction(1, 2))
    assert BimElement(p, {(0,): 3}) == normalize_xi_vector(p, (0,)).scale(3)
    assert BimElement(p, {(0,): 0}).is_zero()
    assert BimElement.from_ring_poly(ring, x) == act("right", x, normalize_xi_vector(ring, ()))
    # on the zero bimodule every element is zero
    assert BimElement(FlagPath(2, (2, 3)), {(5,): 1}).is_zero()


def test_map_on_an_element_is_the_coefficient_weighted_sum_of_images():
    # bounds (1, 2), so every vector below is a basis vector; the right
    # end ring is ring 3 (weight 3)
    path = FlagPath(3, (1, 2, 3))
    cross = gen_crossing(path, 1)
    element = BimElement(path, {(0, 1): xgen(1, 3), (1, 0): Polynomial.const(-2),
                                (1, 1): xgen(1, 3) + xgen(2, 3)})
    want = {}
    for vec, coeff in by_vector(element).items():
        for out, image_coeff in by_vector(cross.apply_vec(vec)).items():
            want[out] = want.get(out, Polynomial.zero()) + image_coeff * coeff
    want = {out: coeff for out, coeff in want.items() if coeff}
    assert len(by_vector(element)) == 3 and want
    assert by_vector(cross(element)) == want


def test_omega_commutes_with_normalize_and_keeps_graded_rank():
    # rewriting the omega image of a tensor gives the omega image of its
    # normal form: a check of the up-step and down-step formulas against
    # each other, as they are written independently
    for N in (1, 2, 3):
        for path in all_paths(N, 3):
            mirror = omega_path(path)
            assert graded_rank(mirror) == graded_rank(path)
            rng = random.Random("omega:%d:%s" % (N, path.rings))
            for _ in range(10):
                raw = random_raw_tensor(path, rng)
                image = normalize(raw)
                want = BimElement(mirror, {vec: omega_poly(coeff)
                                           for vec, coeff in by_vector(image).items()})
                got = normalize(RawTensor(mirror, tuple(omega_poly(f)
                                                        for f in raw.factors)))
                assert got == want, (path.render(), raw.factors)


def test_omega_mirrors_the_size_of_every_xi_power():
    # xi^p on the up-step (k, k+1) and on its omega mirror, the down-step
    # (N-k, N-k-1), rewrite by independently written formulas; their
    # normal forms have the same degree, term count and coefficients
    pairs = 0
    for N in range(1, 7):
        for k in range(N):
            up, down = FlagPath(N, (k, k + 1)), FlagPath(N, (N - k, N - k - 1))
            for p in range(4 * N + 1):
                a, b = normalize_xi_vector(up, (p,)), normalize_xi_vector(down, (p,))
                assert (a.degree(), len(a.terms), sorted(a.terms.values())) == \
                    (b.degree(), len(b.terms), sorted(b.terms.values())), (N, k, p)
                pairs += 1
    assert pairs == 385


# -- in-flight entries: settled factors as ints ------------------------------


def _xi_vectors(path, rng, count=6):
    """The zero vector, the all-(bound+2) vector and random vectors with
    entries up to two above each factor bound."""
    bounds = [path.bound(i) for i in range(1, path.num_factors + 1)]
    vecs = [tuple(0 for _ in bounds), tuple(b + 2 for b in bounds)]
    vecs += [tuple(rng.randrange(b + 3) for b in bounds) for _ in range(count)]
    return vecs


def _xi_powers(vec):
    return [xigen(i, e) for i, e in enumerate(vec, start=1)]


def _junction_poly(path, g, rng):
    """A small random polynomial in the ring at junction g."""
    syms = sorted(path.junction(g).catalog())
    poly = Polynomial.const(rng.choice((1, 2, -1)))
    for _ in range(rng.randrange(0, 3)):
        poly = poly * Polynomial.gen(syms[rng.randrange(len(syms))])
    return poly + Polynomial.const(rng.choice((0, 1)))


def test_internal_entries_match_the_public_normalize():
    from catsl2.bimodules import _embedded, _factor
    rng = random.Random("internal-entries")
    for N in (1, 2, 3):
        for path in all_paths(N, 4):
            m = path.num_factors
            for vec in _xi_vectors(path, rng):
                raw = RawTensor(path, tuple(_xi_powers(vec)))
                assert normalize_xi_vector(path, vec) == normalize(raw), \
                    (path.render(), vec)
                g = rng.randrange(m + 1)
                poly = _junction_poly(path, g, rng)
                if g == m:
                    expected = normalize(raw).right_mul(poly)
                else:
                    factors = _xi_powers(vec)
                    factors[g] = factors[g] * _embedded(_factor(path, g + 1), poly)
                    expected = normalize(RawTensor(path, tuple(factors)))
                assert inject_at_junction(path, g, poly, vec) == expected, \
                    (path.render(), g, vec, poly.render())


def test_cup_images_match_the_public_normalize():
    from catsl2.twomorphisms import gen_cup
    rng = random.Random("cup-entries")
    for N in (1, 2, 3):
        domains = [FlagPath(N, (k,)) for k in range(N + 1)] + all_paths(N, 2)
        for path in domains:
            for g in range(path.num_factors + 1):
                j = path.rings[g]
                nu = 2 * j - N
                for kind, top, sym in (("fe", j, x_sym), ("ef", N - j, y_sym)):
                    cup = gen_cup(path, g, kind)
                    if cup.codomain.is_zero:
                        continue
                    for vec in _xi_vectors(path, rng, count=2):
                        expected = BimElement.zero(cup.codomain)
                        for t in range(top + 1):
                            factors = (_xi_powers(vec[:g]) + [xigen(g + 1, top - t),
                                       Polynomial.gen(sym(t, nu)) if t else Polynomial.one()]
                                       + [xigen(i, e) for i, e in enumerate(vec[g:], g + 3)])
                            term = normalize(RawTensor(cup.codomain, tuple(factors)))
                            expected = expected + term.scale((-1) ** t)
                        assert cup.apply_vec(vec) == expected, (path.render(), g, kind, vec)


def test_in_bound_vectors_are_normalized_without_a_push(monkeypatch):
    # ``_push_content`` pushes factors 1..m-1 and ``_settle`` the last one
    import catsl2.bimodules as bimodules

    def no_push(*args):
        raise AssertionError("an in-bound vector was pushed")

    monkeypatch.setattr(bimodules, "_push_content", no_push)
    monkeypatch.setattr(bimodules, "_settle", no_push)
    for N in (1, 2, 3):
        for path in all_paths(N, 4):
            for vec in basis(path):
                assert by_vector(normalize_xi_vector(path, vec)) == {vec: Polynomial.one()}
                # a unit inserted anywhere is a settled factor, not content
                for g in range(path.num_factors + 1):
                    assert by_vector(inject_at_junction(path, g, Polynomial.one(), vec)) == \
                        {vec: Polynomial.one()}


#: (path, junction g, a polynomial not in the ring at g, vec).
FOREIGN_AT_JUNCTION = [
    (FlagPath(2, (0, 1, 2)), 1, xgen(1, 5), (0, 0)),   # in no ring at rank 2
    (FlagPath(2, (0, 1, 2)), 0, xgen(1, 5), (0, 0)),
    # ring 2's y, which factor 1's step ring holds but ring 1 does not
    (FlagPath(3, (1, 2)), 0, ygen(1, 1), (0,)),
    (FlagPath(3, (1, 2)), 1, ygen(1, -1), (0,)),       # g = m: ring 1's y at ring 2
    (FlagPath(3, (1,)), 0, xgen(1, 5), ()),            # an identity path
]


@pytest.mark.parametrize("via", ["inject_at_junction", "junction_mult", "act"])
def test_foreign_content_is_rejected_where_it_enters(via):
    from catsl2.twomorphisms import junction_mult
    for path, g, foreign, vec in FOREIGN_AT_JUNCTION:
        if via == "act" and 0 < g < path.num_factors:
            continue                     # the actions are at the two ends only
        message = "junction %d uses" % g if via != "act" else "action polynomial uses"
        with pytest.raises(ValueError, match="%s non-canonical generators: %s"
                           % (message, re.escape(foreign.render()))):
            if via == "inject_at_junction":
                inject_at_junction(path, g, foreign, vec)
            elif via == "junction_mult":
                junction_mult(path, g, foreign).apply_vec(vec)
            else:
                act("left" if g == 0 else "right", foreign,
                    normalize_xi_vector(path, vec))


def test_in_flight_entries_are_ints_exactly_when_settled():
    from catsl2.bimodules import _entry, _factor
    rng = random.Random("int-entries")
    for N in (1, 2, 3):
        for path in all_paths(N, 4):
            bounds = [path.bound(i) for i in range(1, path.num_factors + 1)]
            records = [_factor(path, i) for i in range(1, path.num_factors + 1)]
            for _ in range(3):
                raw = random_raw_tensor(path, rng)
                for order in ("ltr", "rtl"):
                    states = []
                    normalize(raw, order=order, on_step=states.append)
                    for terms in states:
                        for factors, _ in terms:
                            for entry, bound, f in zip(factors, bounds, records):
                                if type(entry) is int:
                                    assert 0 <= entry <= bound
                                else:
                                    assert _entry(entry, f) is entry


def test_in_flight_coefficients_are_rational_and_both_orders_end_in_the_result():
    # The right-ring coefficient appears only when the last factor is
    # settled: every in-flight state passed to ``on_step`` has int or
    # Fraction coefficients (1 in both orders, as no step adds terms up),
    # and when the last factor held content the final state of both orders
    # is the settled ``(vec, coefficient)`` pairs of the result.
    from catsl2.bimodules import _entry, _factor
    rng = random.Random("rational-in-flight")
    settled = 0
    for N in (1, 2, 3):
        for path in all_paths(N, 4):
            m = path.num_factors
            for _ in range(3):
                raw = random_raw_tensor(path, rng)
                entries = tuple(_entry(poly, _factor(path, i))
                                for i, poly in enumerate(raw.factors, start=1))
                for order in ("ltr", "rtl"):
                    states = [[(entries, 1)]]
                    result = normalize(raw, order=order, on_step=states.append)
                    if all(type(f) is int for f in entries):
                        continue              # no step: a basis vector
                    # the state before the last one is in flight
                    held = any(type(factors[-1]) is not int for factors, _ in states[-2])
                    if held:
                        settled += 1
                        assert states[-1] == sorted(by_vector(result).items())
                    for state in states[:-1] if held else states:
                        for factors, coeff in state:
                            assert len(factors) == m
                            assert type(coeff) in (int, Fraction)
                            assert coeff == 1
    assert settled > 100


def test_rewrite_measure_matches_the_decoding_reference():
    from helpers import as_polynomials, rewrite_measure, rewrite_measure_reference
    rng = random.Random("measure-fields")
    for N in (1, 2, 3):
        for path in all_paths(N, 4):
            for _ in range(2):
                raw = random_raw_tensor(path, rng)
                for order in ("ltr", "rtl"):
                    states = [[(raw.factors, Polynomial.one())]]
                    normalize(raw, order=order, on_step=states.append)
                    for terms in states:
                        reference = as_polynomials(terms)
                        assert rewrite_measure(path, terms) == \
                            rewrite_measure_reference(path, reference)
                        for term, ref in zip(terms, reference):
                            assert rewrite_measure(path, [term]) == \
                                rewrite_measure_reference(path, [ref])
