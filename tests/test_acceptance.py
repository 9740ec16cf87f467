"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every comparison in here is exact (normal forms, integers, Laurent
polynomials), so there are no tolerances to configure.
"""

import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from catsl2.exactpoly import Polynomial
from catsl2.grassrings import GrassContext, check_series_identity
from catsl2.bimodules import FlagPath, graded_rank, normalize_xi_vector
from catsl2.twomorphisms import (
    SignedWord,
    compile_word,
    identity_map,
    junction_mult,
    map_equals,
    zero_map,
)
from catsl2.diagramlang import compile_diagram, parse_diagram, render_diagram
from catsl2.grassrings import bubble_value
from catsl2.relationsuite import quantum_integer, run_suite

from helpers import all_paths, rewrite_torture

RANKS = (1, 2, 3, 4)
DIAGRAM_DIR = Path(__file__).resolve().parent.parent / "docs" / "diagrams"


def _report(number, text):
    print("criterion %d PASS: %s" % (number, text))


def _suite_green(N, suites):
    report = run_suite(N, suites=suites)
    failures = [r for r in report.results if r.status == "fail"]
    assert not failures, "N=%d failures: %s" % (
        N, "; ".join("%s k=%s: %s" % (r.check, r.k, r.counterexample)
                     for r in failures))
    return report


def test_criterion_01_full_relation_suite():
    for N in RANKS:
        report = _suite_green(N, None)
        statuses = {r.status for r in report.results}
        assert "fail" not in statuses
    _report(1, "full relation suite passes for N in {1,2,3,4}, every valid k, "
               "exact normal-form equality, zero failures")


def test_criterion_01b_full_relation_suite_n5():
    report = _suite_green(5, None)
    assert report.results and all(r.status != "fail" for r in report.results)
    _report(1, "full relation suite passes for N = 5, every valid k, exact "
               "normal-form equality, zero failures")


def test_criterion_02_ring_identity_batteries():
    for N in RANKS:
        _suite_green(N, ["ring_identities"])
    _report(2, "delta-identities to degree 2N, class slides and xi expansions "
               "to alpha <= 2N+2, two-sided sums and dot slides, all contexts "
               "N <= 4, exact")


def test_criterion_03_degree_audit():
    for N in RANKS:
        _suite_green(N, ["degree_audit"])
    _report(3, "every generator's measured degree matches the table "
               "(2, -2, n+1, 1-n) in all contexts N <= 4")


def test_criterion_04_fake_bubble_consistency():
    for N in RANKS:
        for k in range(0, N + 1):
            ok, reason = check_series_identity(GrassContext(N, k),
                                               "bubble_product", 2 * N)
            assert ok, "N=%d k=%d: %s" % (N, k, reason)
    _report(4, "cw and ccw bubble series multiply to 1 through degree 2N in "
               "all contexts, exact")


def test_criterion_05_non_nilpotency():
    for N in RANKS:
        for k in range(0, N + 1):
            for path in ([FlagPath(N, (k, k + 1))] if k < N else []) + \
                        ([FlagPath(N, (k, k - 1))] if k > 0 else []):
                for power in range(1, 4 * N + 1):
                    element = normalize_xi_vector(path, (power,))
                    assert not element.is_zero(), \
                        "dot^%d killed the unit on %s" % (power, path.render())
    _report(5, "dot maps are non-nilpotent: all powers up to 4N are nonzero "
               "on the unit basis element, all contexts N <= 4")


def test_criterion_06_k0_shadow():
    for N in RANKS:
        for k in range(0, N + 1):
            n = 2 * k - N
            ef = compile_word(SignedWord(("E", "F"), n), N)
            fe = compile_word(SignedWord(("F", "E"), n), N)
            difference = graded_rank(ef) - graded_rank(fe)
            assert difference == quantum_integer(n), \
                "N=%d n=%d: %s vs %s" % (N, n, difference.render(),
                                         quantum_integer(n).render())
    _report(6, "graded_rank(EF) - graded_rank(FE) equals the quantum integer "
               "[n] for every weight, N <= 4, Laurent-exact, under the "
               "per-letter shift table (E at k: 1-N+k, F at k: 1-k)")


def test_criterion_07_rewriting_termination_and_confluence():
    jobs = []
    for N in (1, 2, 3):
        for path in all_paths(N, 4):
            jobs.append((N, path.rings, 500))
    with ProcessPoolExecutor(max_workers=2) as pool:
        for rendered, failure in pool.map(rewrite_torture, jobs, chunksize=4):
            assert failure is None, "%s: %s" % (rendered, failure)
    _report(7, "rewriting strictly decreases the termination measure and the "
               "two junction orders agree, 500 random raw tensors per path, "
               "N <= 3, paths of length <= 4 (%d configurations)" % len(jobs))


def test_criterion_08_bimodule_law():
    for N in RANKS:
        _suite_green(N, ["well_definedness"])
    _report(8, "all generator maps satisfy the bimodule law on every basis "
               "vector with every left catalog generator, and agree with their "
               "formula on the xi-excess vectors up to MAX_EXCESS, exactly")


def test_criterion_09_dsl():
    from test_diagramlang import _random_ast
    from catsl2.diagramlang import parse_diagram as parse
    rng = random.Random(424242)
    for _ in range(100):
        ast = _random_ast(rng)
        assert parse(render_diagram(ast)) == ast
    zigzag = compile_diagram(parse((DIAGRAM_DIR / "zigzag.cat").read_text()))
    ok, report = map_equals(zigzag, identity_map(zigzag.domain))
    assert ok, report
    bubble = compile_diagram(parse((DIAGRAM_DIR / "bubble.cat").read_text()))
    want = bubble_value(GrassContext(1, 0), "ccw", 0)
    path = bubble.domain
    ok, report = map_equals(bubble, junction_mult(path, path.num_factors, want))
    assert ok, report
    square = compile_diagram(parse((DIAGRAM_DIR / "crossing_square.cat").read_text()))
    ok, report = map_equals(square, zero_map(square.domain, square.codomain, -4))
    assert ok, report
    _report(9, "parser round-trips 100 generated diagrams; the worked zigzag, "
               "bubble and crossing-square diagrams evaluate to the identity, "
               "the closed bubble value and zero")
