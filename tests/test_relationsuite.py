import gc
import json
import os
import time
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from catsl2 import bimodules, grassrings, relationsuite, twomorphisms
from catsl2.bimodules import BimElement, FlagPath, basis, normalize_xi_vector
from catsl2.cli import main
from catsl2.exactpoly import MAX_EXPONENT, Polynomial, sum_of_products
from catsl2.grassrings import StepRing
from catsl2.qlaurent import Laurent
from catsl2.twomorphisms import BimMap
from catsl2.relationsuite import (
    DEFAULT_MAX_RANK,
    MANIFEST,
    SUITE_LETTERS,
    SUITE_ORDER,
    inventory,
    quantum_integer,
    resolve_suites,
    run_suite,
)

from helpers import record_polynomials_built


def test_quantum_integer_values():
    assert quantum_integer(0).is_zero()
    assert quantum_integer(1) == Laurent({0: 1})
    assert quantum_integer(2) == Laurent({1: 1, -1: 1})
    assert quantum_integer(-3) == -Laurent({2: 1, 0: 1, -2: 1})
    for n in range(-6, 7):
        assert quantum_integer(-n) == -quantum_integer(n)


def test_coverage_lock():
    # every relation display has exactly one check, locked by the manifest
    assert inventory() == MANIFEST
    # --suites takes these letters, and its help text says "letters a..l"
    assert SUITE_LETTERS == {
        "a": "biadjointness", "b": "dot_cyclicity", "c": "crossing_duality",
        "d": "bubbles", "e": "nilhecke", "f": "reduction_to_bubbles",
        "g": "identity_decomposition", "h": "ring_identities", "i": "degree_audit",
        "j": "well_definedness", "k": "non_nilpotency", "l": "k0_shadow"}


def test_resolve_suites():
    assert resolve_suites(None) == SUITE_ORDER
    assert resolve_suites(["bubbles"]) == ("bubbles",)
    assert resolve_suites(["d"]) == ("bubbles",)
    assert resolve_suites(["a", "biadjointness"]) == ("biadjointness",)
    with pytest.raises(ValueError):
        resolve_suites(["frobenius"])


def test_run_suite_rank_one_all_pass():
    report = run_suite(1)
    assert report.all_ok()
    by_name = {}
    for result in report.results:
        by_name.setdefault(result.check, []).append(result)
    braid = by_name["nilhecke_braid_eee"]
    assert len(braid) == 1 and braid[0].status == "skipped"
    assert braid[0].reason == "requires N >= 3"
    assert all(r.status == "pass" for r in by_name["biadjointness_zigzag_e1"])


def test_run_suite_selected_bubbles():
    report = run_suite(2, suites=["bubbles"])
    assert report.all_ok()
    ks = {r.k for r in report.results if r.check == "bubble_unit"}
    assert ks == {0, 1, 2}
    assert {r.check for r in report.results} == set(MANIFEST["bubbles"])


def test_bubble_diagrams_build_one_cup_per_context(monkeypatch):
    # each (orientation, k) context builds one cup, dot and cap and applies
    # the dot once more per extra dot: the cup's own procedure runs once
    # (never, on the zero bimodule)
    real_cup = relationsuite.gen_cup
    runs = []

    def counted_cup(path, junction, kind):
        cup = real_cup(path, junction, kind)
        inner, calls = cup._fn, []
        cup._fn = lambda vec: calls.append(vec) or inner(vec)
        runs.append((calls, [] if cup.codomain.is_zero else [()]))
        return cup

    monkeypatch.setattr(relationsuite, "gen_cup", counted_cup)
    N = 4
    report = run_suite(N, suites=["bubbles"])
    assert report.all_ok()
    contexts = [r for r in report.results if r.check.startswith("bubble_diagram_")]
    assert len(contexts) == 2 * (N + 1)
    assert len(runs) == len(contexts)
    assert all(calls == once for calls, once in runs), runs
    assert sum(once == [] for _, once in runs) == 2     # ef at k = 0, fe at k = N


def test_run_suite_identity_decomposition_covers_all_weights():
    report = run_suite(3, suites=["identity_decomposition"])
    assert report.all_ok()
    fe = {r.k for r in report.results if r.check == "identity_decomposition_fe"}
    ef = {r.k for r in report.results if r.check == "identity_decomposition_ef"}
    weights = {2 * k - 3 for k in fe} | {2 * k - 3 for k in ef}
    assert weights == {-3, -1, 1, 3}


def test_run_suite_input_validation():
    with pytest.raises(ValueError):
        run_suite(0)
    with pytest.raises(ValueError):
        run_suite(DEFAULT_MAX_RANK + 1)
    assert run_suite(5, suites=["k0_shadow"], max_rank=5).all_ok()


@pytest.mark.parametrize("N, suite", [(MAX_EXPONENT + 2, "k0_shadow"),
                                      (40000, "biadjointness"),
                                      (10 ** 20, "k0_shadow")])
def test_run_suite_refuses_a_rank_past_the_exponent_limit(N, suite):
    # a basis vector's xi exponent reaches N - 1, which the packed format
    # cannot hold past MAX_EXPONENT: refused up front, whatever max_rank is
    started = time.perf_counter()
    with pytest.raises(ValueError, match="past the limit %d" % MAX_EXPONENT):
        run_suite(N, suites=[suite], max_rank=N)
    assert time.perf_counter() - started < 1.0


def test_run_suite_bounds_a_huge_rank_in_its_messages():
    # a rank of more than 4300 digits, which CPython will not convert to
    # decimal, is echoed as its bit length; shorter ones in full
    huge = 10 ** 5000
    with pytest.raises(ValueError) as err:
        run_suite(huge, max_rank=7)
    assert str(err.value) == "N=<16610-bit integer> exceeds the configured maximum 7"
    with pytest.raises(ValueError) as err:
        run_suite(huge, max_rank=huge)
    assert str(err.value) == ("N=<16610-bit integer> cannot be verified: basis exponents "
                              "reach N - 1, past the limit %d" % MAX_EXPONENT)
    with pytest.raises(ValueError) as err:
        run_suite(10 ** 4300 - 1, max_rank=10 ** 5000)
    assert str(err.value).startswith("N=%s cannot be verified" % ("9" * 4300))
    with pytest.raises(ValueError) as err:
        run_suite(8, max_rank=7)
    assert str(err.value) == "N=8 exceeds the configured maximum 7"


def test_no_context_outlives_its_ring_index():
    # no key of a context's table holds the context, so reference counting
    # alone frees it when k ends: with the cycle collector off, a whole
    # run leaves no _Context behind
    gc.collect()
    gc.disable()
    try:
        run_suite(3)
        left = sum(isinstance(obj, relationsuite._Context) for obj in gc.get_objects())
    finally:
        gc.enable()
    assert left == 0


def test_reports_deterministic():
    a = run_suite(2, suites=["well_definedness", "k0_shadow"])
    b = run_suite(2, suites=["well_definedness", "k0_shadow"])

    def strip(report):
        payload = json.loads(report.to_json())
        for entry in payload["checks"]:
            entry.pop("millis")
        return json.dumps(payload, sort_keys=True)

    assert strip(a) == strip(b)


def test_report_shapes():
    report = run_suite(1, suites=["bubbles"])
    payload = json.loads(report.to_json())
    assert payload["engine"] == "catsl2"
    assert payload["N"] == 1
    assert payload["summary"]["fail"] == 0
    for entry in payload["checks"]:
        assert entry["status"] in ("pass", "fail", "skipped")
    text = report.render_text()
    assert "bubble_unit" in text and "pass" in text


def test_k0_shadow_all_ranks():
    for N in (1, 2, 3, 4):
        report = run_suite(N, suites=["k0_shadow"])
        assert report.all_ok(), report.render_text()


def test_audits_insert_each_cup_kind_beside_a_strand():
    # the degree audit and the bimodule-law check see both cup kinds off
    # the identity path, where the junction ring sets the degree
    for N in range(1, 6):
        for k in range(1, N):
            kinds = {gen.name.split("@")[0]
                     for gen in relationsuite._context_generators(relationsuite._Context(N, k))
                     if gen.name.startswith("cup_") and gen.domain.num_factors >= 1
                     and not gen.codomain.is_zero}
            assert kinds == {"cup_fe", "cup_ef"}, (N, k)


WIRED_SUITES = ["biadjointness", "dot_cyclicity", "bubbles", "reduction_to_bubbles",
                "identity_decomposition"]


@pytest.mark.parametrize("kind, failing", [
    ("ef", {"biadjointness_zigzag_e2", "biadjointness_zigzag_f1", "bubble_diagram_cw",
            "dot_cyclicity_e2", "dot_cyclicity_f1", "identity_decomposition_ef",
            "reduction_to_bubbles_1"}),
    ("fe", {"biadjointness_zigzag_e1", "biadjointness_zigzag_f2", "bubble_diagram_ccw",
            "dot_cyclicity_e1", "dot_cyclicity_f2", "identity_decomposition_fe",
            "reduction_to_bubbles_2"}),
])
def test_side_tables_wire_each_cup_kind_to_its_checks(monkeypatch, kind, failing):
    # a wrong cup of one kind must fail exactly the checks whose side records
    # use that kind; a swapped side-table entry moves a check between the sets
    real_cup = relationsuite.gen_cup

    def negated_cup(path, junction, cup_kind):
        cup = real_cup(path, junction, cup_kind)
        if cup_kind != kind:
            return cup
        return BimMap(cup.domain, cup.codomain, cup.degree,
                      lambda vec: -cup.apply_vec(vec), name=cup.name)

    monkeypatch.setattr(relationsuite, "gen_cup", negated_cup)
    report = run_suite(3, suites=WIRED_SUITES)
    assert {r.check for r in report.results if r.status == "fail"} == failing


@pytest.mark.parametrize("kind, failing", [
    ("fe", {"biadjointness_zigzag_e2", "biadjointness_zigzag_f1", "bubble_diagram_ccw",
            "dot_cyclicity_e2", "dot_cyclicity_f1", "identity_decomposition_fe",
            "reduction_to_bubbles_2"}),
    ("ef", {"biadjointness_zigzag_e1", "biadjointness_zigzag_f2", "bubble_diagram_cw",
            "dot_cyclicity_e1", "dot_cyclicity_f2", "identity_decomposition_ef",
            "reduction_to_bubbles_1"}),
])
def test_side_tables_wire_each_cap_kind_to_its_checks(monkeypatch, kind, failing):
    # caps take their kind from the path, so a wrong cap of one kind, picked
    # by its derived name, must fail exactly the checks whose cups put that
    # excursion where the cap closes it.  Crossing duality closes two caps of
    # one kind, so their two signs cancel and it passes.
    real_cap = relationsuite.gen_cap

    def negated_cap(path, position):
        cap = real_cap(path, position)
        if not cap.name.startswith("cap_%s@" % kind):
            return cap
        return BimMap(cap.domain, cap.codomain, cap.degree,
                      lambda vec: -cap.apply_vec(vec), name=cap.name)

    monkeypatch.setattr(relationsuite, "gen_cap", negated_cap)
    report = run_suite(3)
    assert {r.check for r in report.results if r.status == "fail"} == failing


def test_degree_audit_fails_on_a_name_missing_from_its_table(monkeypatch):
    # generator names are derived from their paths, so a stem the audit's
    # table does not know is a failure, not a skipped comparison
    path = FlagPath(3, (1, 2))
    twist = BimMap(path, path, 0, lambda vec: normalize_xi_vector(path, vec),
                   name="twist@1")
    real = relationsuite._context_generators
    assert relationsuite._run_degree_audit(3, 1, relationsuite._Context(3, 1)) is None
    monkeypatch.setattr(relationsuite, "_context_generators",
                        lambda context: real(context) + [twist])
    assert relationsuite._run_degree_audit(3, 1, relationsuite._Context(3, 1)) == \
        "twist@1 has no entry in the degree table"


def test_well_definedness_catches_a_map_that_is_not_left_linear(monkeypatch):
    # xi^a -> (a + 1) xi^a is right-linear (a BimMap extends over right-ring
    # coefficients) but does not commute with the left action of x[1]: the
    # check must still see that through its shared left-action maps
    path = FlagPath(3, (1, 2))
    bad = BimMap(path, path, 0,
                 lambda vec: normalize_xi_vector(path, vec).scale(sum(vec) + 1),
                 name="euler")
    real = relationsuite._context_generators
    assert relationsuite._run_well_definedness(3, 1, relationsuite._Context(3, 1)) is None
    monkeypatch.setattr(relationsuite, "_context_generators",
                        lambda context: real(context) + [bad])
    report = relationsuite._run_well_definedness(3, 1, relationsuite._Context(3, 1))
    assert report.startswith("euler violates the bimodule law on ")


def test_well_definedness_inserts_each_left_action_once(monkeypatch):
    # within one context, each (path, g, vec) left action is computed once
    # and then read from the shared map's memo.  Calls on identity paths
    # are a cap's own image computation (inputs with equal a + b insert
    # the same class), not a left action, and are not counted.
    real = bimodules._inject_at_junction
    for k in range(0, 4):
        calls = Counter()

        def counting(path, g, ring_poly, vec=None):
            if path.num_factors:
                calls[path, g, ring_poly, tuple(vec)] += 1
            return real(path, g, ring_poly, vec)

        for module in (bimodules, twomorphisms):
            monkeypatch.setattr(module, "_inject_at_junction", counting)
        assert relationsuite._run_well_definedness(3, k, relationsuite._Context(3, k)) is None
        assert calls and max(calls.values()) == 1, (k, calls.most_common(1))


def test_well_definedness_compares_each_basis_vector_with_each_left_generator(monkeypatch):
    # the left law once per (generator, basis vector, left catalog
    # generator), then the formula once per xi-excess vector: no sampling,
    # no repeats.  Over every k at N = 4 that is 496 law comparisons.
    real = BimElement.__eq__
    compared = []

    def counting(self, other):
        compared.append(1)
        return real(self, other)

    monkeypatch.setattr(BimElement, "__eq__", counting)
    laws = 0
    for k in range(0, 5):
        gens = [gen for gen in relationsuite._context_generators(relationsuite._Context(4, k))
                if not (gen.domain.is_zero or gen.codomain.is_zero)]
        law = sum(len(basis(gen.domain)) * len(gen.domain.junction(0).catalog())
                  for gen in gens)
        excess = sum(len(twomorphisms._excess_vectors(gen.domain)) for gen in gens)
        compared.clear()
        assert relationsuite._run_well_definedness(4, k, relationsuite._Context(4, k)) is None
        assert len(compared) == law + excess, (k, len(compared), law, excess)
        laws += law
    assert laws == 496


def _wrong_off_the_basis(real):
    """``real`` with the image of every xi-excess vector negated: the same
    map on the bimodule, a formula that does not descend to it."""
    def broken(path, *args):
        f = real(path, *args)

        def fn(vec):
            image = f.apply_vec(vec)
            if any(e > f.domain.bound(i) for i, e in enumerate(vec, 1)):
                return -image
            return image

        return BimMap(f.domain, f.codomain, f.degree, fn, name=f.name)
    return broken


@pytest.mark.parametrize("name, stem", [("gen_dot", "dot@"), ("gen_cup", "cup_"),
                                        ("gen_crossing", "cross_"), ("gen_cap", "cap_")])
def test_well_definedness_catches_a_generator_wrong_off_the_basis(monkeypatch, capsys,
                                                                  name, stem):
    # relation checks compare maps on the bimodule itself, where such a
    # copy is right; only the generator's own check can see it
    monkeypatch.setattr(relationsuite, name,
                        _wrong_off_the_basis(getattr(relationsuite, name)))
    assert main(["verify", "--N", "4", "--max-N", "4", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert failed and {c["check"] for c in failed} == {"well_definedness"}
    for c in failed:
        assert c["counterexample"].startswith(stem), c
        assert " is not well defined on xi^" in c["counterexample"], c


def test_a_suite_run_checks_polynomials_only_where_they_enter(monkeypatch):
    # a polynomial is checked against its ring's catalog where it enters:
    # a RawTensor, a BimElement built from outside terms, or a junction_mult
    # map when it is built.  During a suite run no check runs inside a map's
    # image, where gen_cap inserts content it built, and none
    # in inject_at_junction or act (no suite check acts on an element; the
    # bimodule law multiplies through junction_mult maps).  act's own entry
    # check is test_act_rejects_foreign_ring's
    real = bimodules._check_catalog
    image = BimMap._image.__code__
    callers, inside = Counter(), []

    def counting(poly, catalog, where):
        frame = sys._getframe(1)
        while frame.f_code.co_name == "_check_junction":
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        while frame is not None:
            if frame.f_code is image:
                inside.append(where)
            frame = frame.f_back
        return real(poly, catalog, where)

    monkeypatch.setattr(bimodules, "_check_catalog", counting)
    assert relationsuite.run_suite(3, max_rank=3).all_ok()
    assert not inside, Counter(inside)
    assert set(callers) == {"__post_init__", "__init__", "junction_mult"}, callers


def test_a_suite_run_sums_elements_without_building_polynomials(monkeypatch):
    # an element is one packed dict, so neither linear_sum nor
    # BimMap.__call__ (nor the helpers they sum and split with) builds a
    # Polynomial; a map layer that went back to one polynomial per output
    # vector fails here
    every, inside = record_polynomials_built(monkeypatch, [
        bimodules.linear_sum, bimodules._sum_terms, bimodules._wrap,
        bimodules._by_xi, BimMap.__call__])
    assert relationsuite.run_suite(3, max_rank=3).all_ok()
    assert len(every) > 1000
    assert not inside, Counter(inside)


def test_ring_identity_checks_embed_each_class_once(monkeypatch):
    # within one class_slide_* or xi_expansion_* context, with correct
    # tables, the classes are embedded through their recursion: every
    # residual is 0, so only one-term generator polynomials go through
    # embed_ring_poly, and each at most once per end
    N = 3
    real = StepRing.embed_ring_poly
    calls = Counter()

    def counting(ring, poly, end):
        calls[ring, poly, end] += 1
        return real(ring, poly, end)

    monkeypatch.setattr(StepRing, "embed_ring_poly", counting)
    specs = [spec for spec in relationsuite._CHECKS
             if spec.name.startswith(("class_slide_", "xi_expansion_"))]
    assert len(specs) == 4
    for spec in specs:
        for k in spec.contexts(N):
            calls.clear()
            assert spec.run(N, k, relationsuite._Context(N, k)) is None
            assert calls, (spec.name, k)
            for (_, poly, end), n in calls.items():
                syms = poly.symbols()
                assert len(syms) == 1 and poly == Polynomial.gen(*syms), \
                    (spec.name, k, poly)
                assert n == 1, (spec.name, k, poly, end, n)


@pytest.mark.parametrize("family, failing", [
    ("X", {"class_slide_x", "xi_expansion_x", "series_delta_Xy", "bubble_series_product"}),
    ("Y", {"class_slide_y", "xi_expansion_y", "series_delta_xY", "bubble_series_product"}),
])
def test_ring_identity_checks_catch_one_wrong_special_class(monkeypatch, family, failing):
    # X_2 (or Y_2) plus xi-free junk of the same degree, in every end ring:
    # every check that reads that family must report it as a mismatch.  A
    # check that compares a table with itself, or derives one side of an
    # identity from the other, would still pass.
    real = grassrings.special_class

    def perturbed(ctx, name, alpha):
        value = real(ctx, name, alpha)
        if name == family and alpha == 2:
            value = value + ctx.x(1) * ctx.y(1)
        return value

    for module in (grassrings, relationsuite):
        monkeypatch.setattr(module, "special_class", perturbed)
    report = run_suite(3, suites=["ring_identities"])
    failed = [r for r in report.results if r.status == "fail"]
    assert {r.check for r in failed} == failing
    assert not any(r.counterexample.startswith("internal error") for r in failed)


def test_class_slide_sums_by_horner_equal_the_double_sum():
    # rhs_a = other[a] - xi * rhs_(a-1) is the double sum over (a, l) of
    # other[a - l] * (-xi)^l, for every k and both sides at N <= 4
    for N in range(1, 5):
        for k in range(0, N):
            ring = StepRing(N, k)
            context = relationsuite._Context(N, k)
            for side, (_, end, _) in relationsuite._RING_SIDES.items():
                other = relationsuite._classes(context, ring, side.upper(), end)
                horner = list(relationsuite._slide_sums(other, ring.xi()))
                assert len(horner) == len(other) == 2 * N + 3
                for alpha, got in enumerate(horner):
                    want = sum_of_products((other[alpha - ell], (-ring.xi()) ** ell)
                                           for ell in range(0, alpha + 1))
                    assert got == want, (N, k, side, alpha)


def test_two_sided_sums_by_horner_equal_the_direct_sums():
    # the sides stepped by one dot and one new tensor per alpha are the
    # normal forms of the whole alternating sums, each normalized from its
    # raw tensors, for every admissible k, both letters and every alpha <= 2N
    # at N <= 4
    for N in range(1, 5):
        for letter, (_, span) in relationsuite._EXCURSIONS.items():
            for k in range(span[0], N + span[1] + 1):
                path, gens, xi1, xi2 = relationsuite._excursion(N, k, letter)
                horner = list(relationsuite._two_sided_sums(
                    relationsuite._Context(N, k), path, gens, 2 * N + 1))
                assert len(horner) == 2 * N + 1
                for alpha, got in enumerate(horner):
                    want = relationsuite._alternating_sums(
                        path, [((c, xi2(alpha - j)), (xi1(alpha - j), c))
                               for j, c in enumerate(gens[:alpha + 1])])
                    assert got == want, (N, letter, k, alpha)


def test_two_sided_sums_catch_a_wrong_dot(monkeypatch):
    # a dot that doubles its image on the vectors of total exponent 1 keeps
    # the one-generator sums of k = 0 (x) and k = N (y) equal on both
    # sides, and every other check of the suite builds no dot: the
    # two-sided sums must fail at the other k, and nothing else
    real = relationsuite.gen_dot

    def doubling(path, position):
        dot = real(path, position)

        def fn(vec):
            image = dot.apply_vec(vec)
            return image + image if sum(vec) == 1 else image

        return BimMap(dot.domain, dot.codomain, dot.degree, fn, name=dot.name)

    monkeypatch.setattr(relationsuite, "gen_dot", doubling)
    report = run_suite(3, suites=["ring_identities"])
    failed = [r for r in report.results if r.status == "fail"]
    assert sorted((r.check, r.k) for r in failed) == [
        ("two_sided_sum_x", 1), ("two_sided_sum_x", 2),
        ("two_sided_sum_y", 1), ("two_sided_sum_y", 2)]
    assert all(r.counterexample.startswith("two-sided ") for r in failed)


def test_non_nilpotency_catches_a_dot_that_kills_the_top_power(monkeypatch):
    # the powers of the dot are stepped from the unit by the context's dot
    # map, so a dot that sends xi^bound to 0 (and is right elsewhere) kills
    # xi^(bound+1) on the unit: the check must fail at that power, on the
    # first one-step path of every k
    real = relationsuite.gen_dot

    def killing(path, position):
        dot = real(path, position)

        def fn(vec):
            if vec[position - 1] == path.bound(position):
                return BimElement.zero(path)
            return dot.apply_vec(vec)

        return BimMap(path, path, dot.degree, fn, name=dot.name)

    monkeypatch.setattr(relationsuite, "gen_dot", killing)
    report = run_suite(3, suites=["non_nilpotency"])
    failed = {r.k: r.counterexample for r in report.results if r.status == "fail"}
    assert sorted(failed) == [0, 1, 2, 3]
    for k, counterexample in failed.items():
        path = FlagPath(3, (k, k + 1) if k < 3 else (k, k - 1))
        assert counterexample == ("dot^%d vanishes on the unit of %s"
                                  % (path.bound(1) + 1, path.render())), k


def _redeclared(f, extra, fn=None):
    """f, or ``fn`` under f's name, declaring ``extra`` more than f's degree."""
    return BimMap(f.domain, f.codomain, f.degree + extra, fn or f.apply_vec, name=f.name)


def _doubled_second_xi(real, *args):
    """``_excursion`` with the second factor's xi powers doubled."""
    path, gens, xi1, xi2 = real(*args)
    return path, gens, xi1, lambda e: xi2(e) * 2


def _broken(real, *args):
    raise RuntimeError("broken")


#: Per failure branch that no other test reaches: the suite to run, the
#: ``relationsuite`` name to replace, its broken copy (given the real one
#: first) and the start of the counterexample of each check that fails.
BROKEN_COPIES = {
    "bubble_vanishing": (
        "bubbles", "bubble_value",
        lambda real, ctx, o, alpha: real(ctx, o, alpha) + (1 if alpha < 0 else 0),
        {"bubble_vanishing": "cw bubble at degree -2 is 1, expected 0",
         "bubble_diagram_cw": "cw bubble with ", "bubble_diagram_ccw": "ccw bubble with "}),
    "bubble_unit": (
        "bubbles", "bubble_value",
        lambda real, ctx, o, alpha: real(ctx, o, alpha) * (2 if alpha == 0 else 1),
        {"bubble_unit": "cw degree-zero bubble is not 1",
         "bubble_diagram_cw": "cw bubble with ", "bubble_diagram_ccw": "ccw bubble with "}),
    "dot_slide": (
        "ring_identities", "_excursion", _doubled_second_xi,
        {"dot_slide_x": "dot slide (x): ", "dot_slide_y": "dot slide (y): "}),
    "degree_table": (
        "degree_audit", "gen_dot", lambda real, path, i: _redeclared(real(path, i), 2),
        {"degree_audit": "dot@1 declares degree 4, table says 2"}),
    "generator_audit": (
        "degree_audit", "gen_dot",
        lambda real, path, i: _redeclared(real(path, i), 0,
                                          lambda vec: normalize_xi_vector(path, vec)),
        {"degree_audit": "degree of dot@1 on xi^[0] measured 0, declared 2"}),
    "composite_audit": (
        "degree_audit", "compose_chain",
        lambda real, *maps: _redeclared(real(*maps), 2),
        {"degree_audit": "degree of cap_ef@2.cup_fe@0 on xi^[0] measured 0, declared 2"}),
    "k0_enumeration": (
        "k0_shadow", "graded_rank", lambda real, path: real(path) + Laurent.q_power(0),
        {"k0_shadow": "graded rank disagrees with the basis enumeration on "}),
    "k0_quantum_integer": (
        "k0_shadow", "quantum_integer", lambda real, n: real(n) + Laurent.q_power(0),
        {"k0_shadow": "EF minus FE has graded rank "}),
    "internal_error": (
        "ring_identities", "_excursion", _broken,
        {name: "internal error: RuntimeError('broken')"
         for name in ("dot_slide_x", "dot_slide_y", "two_sided_sum_x", "two_sided_sum_y")}),
}


@pytest.mark.parametrize("case", BROKEN_COPIES)
def test_each_failure_branch_reports_and_the_other_checks_still_run(monkeypatch, case):
    # a broken copy drives one failure return (or a crash) of a check: its
    # results fail with that branch's text, and every other check of the
    # suite still reports, and passes
    suite, name, broken, failing = BROKEN_COPIES[case]
    monkeypatch.setattr(relationsuite, name, partial(broken, getattr(relationsuite, name)))
    report = run_suite(3, suites=[suite])
    assert {r.check for r in report.results} == set(MANIFEST[suite])
    assert {r.check for r in report.results if r.status != "pass"} == set(failing)
    for r in report.results:
        if r.status == "fail":
            assert r.counterexample.startswith(failing[r.check]), (r.check, r.counterexample)


def _per_k(counted, progress_runs):
    """A ``run_suite`` progress hook that moves what ``counted`` holds into
    ``progress_runs[k]`` after each check at k."""
    def progress(result):
        progress_runs.setdefault(result.k, Counter()).update(counted)
        counted.clear()
    return progress


def test_no_generator_computes_an_image_twice_at_one_ring_index(monkeypatch):
    # every check at k takes its generator maps from the context of k, so
    # across the whole suite each procedure run of a generator map, keyed
    # by (map name, domain, codomain, vector), happens once per k.  The
    # maps of junction_mult share one name, so their key adds the
    # polynomial.  Building maps per check ran 423 repeats at N = 4
    runs = Counter()

    def counting(real):
        def make(*args):
            gen = real(*args)
            key = (gen.name, gen.domain, gen.codomain, args[1:])
            def fn(vec, fn=gen._fn):
                runs[key + (tuple(vec),)] += 1
                return fn(vec)
            gen._fn = fn
            return gen
        return make

    for name in ("gen_dot", "gen_cup", "gen_cap", "gen_crossing", "identity_map",
                 "junction_mult"):
        monkeypatch.setattr(relationsuite, name, counting(getattr(relationsuite, name)))
    per_k = {}
    assert run_suite(4, progress=_per_k(runs, per_k)).all_ok()
    assert sorted(per_k) == [0, 1, 2, 3, 4]
    for k, counted in per_k.items():
        assert counted and max(counted.values()) == 1, (k, counted.most_common(1))


def test_ring_identity_checks_embed_each_class_once_per_ring_index(monkeypatch):
    # the four class_slide_* and xi_expansion_* checks at one k read one
    # embedded class list per (ring, family, end) and one embedded
    # generator list per (ring, letter, end): across them, each
    # (ring, poly, end) goes through embed_ring_poly at most once
    real = StepRing.embed_ring_poly
    calls = Counter()

    def counting(ring, poly, end):
        calls[ring, poly, end] += 1
        return real(ring, poly, end)

    monkeypatch.setattr(StepRing, "embed_ring_poly", counting)
    per_k = {}
    assert run_suite(4, suites=["ring_identities"],
                     progress=_per_k(calls, per_k)).all_ok()
    specs = [spec for spec in relationsuite._CHECKS
             if spec.name.startswith(("class_slide_", "xi_expansion_"))]
    for k in range(0, 4):
        assert per_k[k] and max(per_k[k].values()) == 1, (k, per_k[k].most_common(1))
        context = relationsuite._Context(4, k)
        for spec in specs:
            assert spec.run(4, k, context) is None
        assert calls == per_k[k], k
        calls.clear()


def _check_major_report(N):
    """The report of ``run_suite(N)`` built check by check, each check at
    each k run on its own with a fresh context, timings left at 0."""
    report = relationsuite.VerifyReport(N=N, suites=SUITE_ORDER)
    for spec in relationsuite._CHECKS:
        ks = spec.contexts(N)
        if not ks:
            lo, hi = spec.span
            report.results.append(relationsuite.CheckResult(
                spec.name, N, None, "skipped", reason="requires N >= %d" % (lo - hi)))
        for k in ks:
            counterexample = spec.run(N, k, relationsuite._Context(N, k))
            report.results.append(relationsuite.CheckResult(
                spec.name, N, k, "pass" if counterexample is None else "fail",
                counterexample=counterexample))
    report.results.sort(key=lambda r: (r.check, r.k if r.k is not None else -1))
    return report.to_json()


def test_the_k_major_loop_reports_as_each_check_on_its_own():
    for N in range(1, 5):
        report = run_suite(N)
        for r in report.results:
            r.millis = 0.0
        assert report.to_json() == _check_major_report(N), N


def test_run_suite_reports_progress_k_major():
    seen = []
    report = run_suite(3, progress=seen.append)
    assert [r.k for r in seen] == sorted(r.k for r in seen)
    order = [spec.name for spec in relationsuite._CHECKS]
    for k in range(0, 4):
        names = [r.check for r in seen if r.k == k]
        assert names == sorted(names, key=order.index), k
    assert len(seen) == sum(r.status != "skipped" for r in report.results)


# Prints, as JSON by check, the term products that
# ``exactpoly._add_products`` forms and the ``bimodules._normal_form`` calls
# made during ``run_suite(N, suites=SUITES)`` in a fresh interpreter, where
# every memo table starts empty (``SUITES`` is None for the whole suite).
# The progress hook charges the work done since the last result to the
# check that just ran, summed over its ring indices.
_WORK_SCRIPT = """
import json
from catsl2 import bimodules, exactpoly, relationsuite, twomorphisms
work = [0, 0]
add_products, normal_form = exactpoly._add_products, bimodules._normal_form
def counting_products(acc, ta, tb):
    work[0] += len(ta) * len(tb)
    return add_products(acc, ta, tb)
def counting_calls(*args):
    work[1] += 1
    return normal_form(*args)
exactpoly._add_products = bimodules._add_products = counting_products
bimodules._normal_form = twomorphisms._normal_form = counting_calls
by_check, charged = {}, [0, 0]
def progress(result):
    counts = by_check.setdefault(result.check, [0, 0])
    for i in (0, 1):
        counts[i] += work[i] - charged[i]
    charged[:] = work
assert relationsuite.run_suite(N, suites=SUITES, progress=progress).all_ok()
print(json.dumps({check: {"term_products": products, "normal_form_calls": calls}
                  for check, (products, calls) in by_check.items()}))
"""

WORK_BUDGETS = Path(__file__).resolve().parent / "work_budgets.json"


def _work_counts(suites, N=4) -> dict:
    """The ``_WORK_SCRIPT`` counts of ``run_suite(N, suites=suites)``, by check."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    script = "N, SUITES = %r, %r\n%s" % (N, suites, _WORK_SCRIPT)
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _by_suite(counts) -> dict:
    """Per-check counts summed per suite."""
    suite_of = {spec.name: spec.suite for spec in relationsuite._CHECKS}
    out = {}
    for check, c in counts.items():
        acc = out.setdefault(suite_of[check], dict.fromkeys(c, 0))
        for field in c:
            acc[field] += c[field]
    return out


def _total(counts, field) -> int:
    return sum(c[field] for c in counts.values())


def test_ring_identities_work_count_does_not_grow():
    # the count is deterministic, so more work shows as a larger number;
    # 30,633 term products before the checks at one k shared their class
    # tables and an alternating sum was normalized in one pass, 20,815
    # before the two-sided sums were stepped by Horner's rule, 17,175
    # before the bubble product dropped its second route, a series
    # inversion compared with the other family, and 15,193 before it was
    # decided through the unit multipliers x(-t) and y(-t) instead of the
    # convolution of the two dense bubble series, and 14,154 before the
    # classes and generators of the step ring's own end were read as they
    # are instead of embedded; a return of any shows here
    count = _total(_work_counts(["ring_identities"]), "term_products")
    assert count <= 13_124, count


def test_whole_suite_work_count_does_not_grow():
    # 58,539 term products (3,023 ``_normal_form`` calls) before each
    # crossing and cup image was normalized as one list of in-flight
    # terms, 56,091 (2,585 calls) before every check at k took its
    # generator maps from the context of k and non_nilpotency stepped the
    # dot's powers from the unit, 49,673 (2,094 calls) before the bubble
    # product dropped its series inversion, 47,691 before it was decided
    # through unit multipliers, 46,652 (2,094 calls) before a chain kept its
    # tail as one memoized map, the law check applied its left maps to
    # basis vectors and the own-end classes were read unembedded, 41,978
    # (1,970 calls) since; a return to one normal form per output term and
    # a ``linear_sum`` of them, to maps built per check, to a second route
    # for the bubble product, to its dense convolution or to chains
    # evaluated map by map shows as a larger number
    counts = _by_suite(_work_counts(None))
    count = _total(counts, "term_products")
    assert count <= 41_978, count
    # and no suite's share grows: each suite's term products and
    # ``_normal_form`` calls within the same run, against the committed
    # budgets
    budgets = json.loads(WORK_BUDGETS.read_text())["suites"]
    assert set(counts) == set(budgets) == set(SUITE_ORDER)
    grown = {suite: (budgets[suite], c) for suite, c in counts.items()
             if any(c[field] > budgets[suite][field] for field in c)}
    assert not grown, grown


def test_crossing_duality_work_counts_do_not_grow():
    # both sides of the duality pair at N = 6, in a fresh interpreter.  The
    # left rotation (cup leads 0 and 1) formed 63,610 term products while
    # its chain multiplied right-ring coefficients through each later map;
    # with its tail kept as one memoized map, 7,822.  The right rotation
    # (leads 2, 3, 2, 1, 0) declines to nest: nesting its tail as well
    # forms 13,231 products and 496 normal forms
    counts = _work_counts(["crossing_duality"], 6)
    budgets = {"crossing_duality_left": (7_822, 440),
               "crossing_duality_right": (12_945, 406)}
    assert set(counts) == set(budgets)
    for check, (products, calls) in budgets.items():
        c = counts[check]
        assert c["term_products"] <= products and c["normal_form_calls"] <= calls, \
            (check, c)
