"""Executable verification of the defining 2-category relations.

Every relation of the graphical calculus, realized as an identity of
bimodule maps or of normal-form elements, becomes a named check, and
``run_suite`` executes the whole inventory for one rank N across every
admissible ring index k.  Equality is always syntactic equality of normal
forms; there are no numeric tolerances anywhere.  Failures never raise:
they are reported with a rendered counterexample.

The inventory is locked by ``MANIFEST`` (one entry per relation display),
and reports are deterministic: randomized spot checks derive their seeds
from the check name and context, and results are ordered by name.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .exactpoly import Polynomial
from .grassrings import (
    GrassContext,
    StepRing,
    bubble_value,
    check_series_identity,
    special_class,
)
from .bimodules import (
    BimElement,
    FlagPath,
    RawTensor,
    act,
    basis,
    graded_rank,
    normalize,
    normalize_xi_vector,
)
from .qlaurent import Laurent
from .twomorphisms import (
    BimMap,
    audit_degree,
    compose_chain,
    gen_cap,
    gen_crossing,
    gen_cup,
    gen_dot,
    identity_map,
    junction_mult,
    left_mult,
    map_equals,
    right_mult,
    zero_map,
    SignedWord,
    compile_word,
)

DEFAULT_MAX_RANK = 4


def quantum_integer(n: int) -> Laurent:
    """[n] = (q^n - q^-n) / (q - q^-1) as a Laurent polynomial."""
    if n == 0:
        return Laurent.zero()
    if n < 0:
        return -quantum_integer(-n)
    total = Laurent.zero()
    for e in range(n - 1, -n, -2):
        total = total + Laurent.q_power(e)
    return total


# ---------------------------------------------------------------------------
# check plumbing
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    check: str
    N: int
    k: int | None
    status: str                     # pass | fail | skipped
    reason: str | None = None
    counterexample: str | None = None
    millis: float = 0.0

    def to_dict(self):
        out = {"check": self.check, "N": self.N, "k": self.k,
               "status": self.status, "millis": self.millis}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class VerifyReport:
    N: int
    suites: tuple
    results: list = field(default_factory=list)

    def all_ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def counts(self):
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.results:
            counts[r.status] += 1
        return counts

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "engine": "catsl2",
            "N": self.N,
            "suites": list(self.suites),
            "checks": [r.to_dict() for r in self.results],
            "summary": self.counts(),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def render_text(self) -> str:
        width = max([len(r.check) for r in self.results] + [5])
        lines = ["%-*s  %-4s  %-7s  %8s  %s" %
                 (width, "check", "k", "status", "millis", "notes")]
        for r in self.results:
            note = r.reason or r.counterexample or ""
            lines.append("%-*s  %-4s  %-7s  %8.1f  %s" %
                         (width, r.check, "-" if r.k is None else r.k,
                          r.status, r.millis, note))
        counts = self.counts()
        lines.append("N=%d: %d pass, %d fail, %d skipped"
                     % (self.N, counts["pass"], counts["fail"], counts["skipped"]))
        return "\n".join(lines)


class CheckSpec:
    """A named relation check: admissible contexts plus a runner.

    ``contexts(N)`` lists the k values to run (possibly empty), and
    ``run(N, k, rng)`` returns None on success or a counterexample string.
    ``empty_reason(N)`` explains a skip when no context is admissible.
    """

    def __init__(self, name, suite, contexts, run, empty_reason=None):
        self.name = name
        self.suite = suite
        self.contexts = contexts
        self.run = run
        self.empty_reason = empty_reason or (lambda N: "no admissible context")


def _compare(pairs, rng=None, samples=0):
    """map_equals over labelled (lhs, rhs) map pairs; None if all equal."""
    for label, lhs, rhs in pairs:
        ok, rep = map_equals(lhs, rhs, max_extra_checks=samples, rng=rng)
        if not ok:
            return "%s: %s" % (label, rep)
    return None


# --- (a) biadjointness zigzags ---------------------------------------------


def _zigzag_maps(N, k, which):
    if which == "e1":
        path = FlagPath(N, (k, k + 1))
        cup = gen_cup(path, 0, "fe")
        return compose_chain(cup, gen_cap(cup.codomain, 2, "ef")), identity_map(path)
    if which == "e2":
        path = FlagPath(N, (k, k + 1))
        cup = gen_cup(path, 1, "ef")
        return compose_chain(cup, gen_cap(cup.codomain, 1, "fe")), identity_map(path)
    if which == "f1":
        path = FlagPath(N, (k + 1, k))
        cup = gen_cup(path, 0, "ef")
        return compose_chain(cup, gen_cap(cup.codomain, 2, "fe")), identity_map(path)
    path = FlagPath(N, (k + 1, k))
    cup = gen_cup(path, 1, "fe")
    return compose_chain(cup, gen_cap(cup.codomain, 1, "ef")), identity_map(path)


def _run_zigzag(which):
    def run(N, k, rng):
        lhs, rhs = _zigzag_maps(N, k, which)
        return _compare([("zigzag_" + which, lhs, rhs)], rng, samples=4)
    return run


# --- (b) dot cyclicity -------------------------------------------------------


def _run_dot_cyclic(which):
    def run(N, k, rng):
        if which.startswith("e"):
            path = FlagPath(N, (k, k + 1))
        else:
            path = FlagPath(N, (k + 1, k))
        dot = gen_dot(path, 1)
        if which == "e1":
            cup = gen_cup(path, 0, "fe")
            zig = compose_chain(cup, gen_dot(cup.codomain, 2),
                                gen_cap(cup.codomain, 2, "ef"))
        elif which == "e2":
            cup = gen_cup(path, 1, "ef")
            zig = compose_chain(cup, gen_dot(cup.codomain, 2),
                                gen_cap(cup.codomain, 1, "fe"))
        elif which == "f1":
            cup = gen_cup(path, 0, "ef")
            zig = compose_chain(cup, gen_dot(cup.codomain, 2),
                                gen_cap(cup.codomain, 2, "fe"))
        else:
            cup = gen_cup(path, 1, "fe")
            zig = compose_chain(cup, gen_dot(cup.codomain, 2),
                                gen_cap(cup.codomain, 1, "ef"))
        return _compare([("dot_cyclicity_" + which, zig, dot)], rng, samples=4)
    return run


# --- (c) crossing duality ----------------------------------------------------


def _run_duality(side):
    def run(N, k, rng):
        path = FlagPath(N, (k + 2, k + 1, k))
        target = gen_crossing(path, 1, "down")
        if side == "left":
            c1 = gen_cup(path, 0, "ef")
            c2 = gen_cup(c1.codomain, 1, "ef")
            cross = gen_crossing(c2.codomain, 3, "up")
            k1 = gen_cap(cross.codomain, 4, "fe")
            rot = compose_chain(c1, c2, cross, k1, gen_cap(k1.codomain, 3, "fe"))
        else:
            c1 = gen_cup(path, 2, "fe")
            c2 = gen_cup(c1.codomain, 3, "fe")
            cross = gen_crossing(c2.codomain, 3, "up")
            k1 = gen_cap(cross.codomain, 2, "ef")
            rot = compose_chain(c1, c2, cross, k1, gen_cap(k1.codomain, 1, "ef"))
        return _compare([("crossing_duality_" + side, rot, target)], rng, samples=2)
    return run


# --- (d) bubbles --------------------------------------------------------------


def _bubble_diagram(N, k, orientation, dots):
    """Closed cup-dots-cap composite on the identity bimodule at ring k."""
    path = FlagPath(N, (k,))
    cup_kind = "ef" if orientation == "cw" else "fe"
    cup = gen_cup(path, 0, cup_kind)
    maps = [cup] + [gen_dot(cup.codomain, 1)] * dots
    maps.append(gen_cap(cup.codomain, 1, cup_kind))
    return compose_chain(*maps)


def _run_bubble_diagram(orientation):
    def run(N, k, rng):
        n = 2 * k - N
        ctx = GrassContext(N, k)
        base = (n - 1) if orientation == "cw" else (-n - 1)
        for dots in range(0, 2 * N + max(0, base) + 1):
            alpha = dots - base
            value = _bubble_diagram(N, k, orientation, dots).apply_vec(())
            want = bubble_value(ctx, orientation, alpha)
            if value != BimElement.from_ring_poly(FlagPath(N, (k,)), want):
                return ("%s bubble with %d dots: diagram %s, formula %s"
                        % (orientation, dots, value.render(), want.render()))
        return None
    return run


def _run_bubble_vanishing(N, k, rng):
    ctx = GrassContext(N, k)
    for orientation in ("cw", "ccw"):
        for alpha in (-1, -2, -3):
            value = bubble_value(ctx, orientation, alpha)
            if not value.is_zero():
                return ("%s bubble at degree %d is %s, expected 0"
                        % (orientation, 2 * alpha, value.render()))
    return None


def _run_bubble_unit(N, k, rng):
    ctx = GrassContext(N, k)
    for orientation in ("cw", "ccw"):
        if bubble_value(ctx, orientation, 0) != Polynomial.one():
            return "%s degree-zero bubble is not 1" % orientation
    return None


# --- (e) nilHecke --------------------------------------------------------------


def _run_crossing_squared(kind):
    def run(N, k, rng):
        if kind == "ee":
            path = FlagPath(N, (k, k + 1, k + 2))
            cross = gen_crossing(path, 1, "up")
        else:
            path = FlagPath(N, (k + 2, k + 1, k))
            cross = gen_crossing(path, 1, "down")
        square = compose_chain(cross, cross)
        return _compare([("crossing_squared_" + kind, square,
                          zero_map(path, path, -4))], rng, samples=4)
    return run


def _difference(a: BimMap, b: BimMap) -> BimMap:
    return BimMap(a.domain, a.codomain, a.degree,
                  lambda vec: a.apply_vec(vec) - b.apply_vec(vec),
                  name="%s-%s" % (a.name, b.name))


def _run_exchange(kind):
    def run(N, k, rng):
        if kind == "ee":
            path = FlagPath(N, (k, k + 1, k + 2))
            cross = gen_crossing(path, 1, "up")
            first, second = gen_dot(path, 2), gen_dot(path, 1)
        else:
            path = FlagPath(N, (k + 2, k + 1, k))
            cross = gen_crossing(path, 1, "down")
            first, second = gen_dot(path, 1), gen_dot(path, 2)
        ident = identity_map(path)
        one = _difference(compose_chain(first, cross), compose_chain(cross, second))
        two = _difference(compose_chain(cross, first), compose_chain(second, cross))
        return _compare([("exchange_%s_a" % kind, one, ident),
                         ("exchange_%s_b" % kind, two, ident)], rng, samples=4)
    return run


def _run_braid(kind):
    def run(N, k, rng):
        if kind == "eee":
            path = FlagPath(N, (k, k + 1, k + 2, k + 3))
            u1 = gen_crossing(path, 1, "up")
            u2 = gen_crossing(path, 2, "up")
        else:
            path = FlagPath(N, (k + 3, k + 2, k + 1, k))
            u1 = gen_crossing(path, 1, "down")
            u2 = gen_crossing(path, 2, "down")
        lhs = compose_chain(u1, u2, u1)
        rhs = compose_chain(u2, u1, u2)
        return _compare([("braid_" + kind, lhs, rhs)], rng, samples=2)
    return run


# --- (f) reduction to bubbles ---------------------------------------------------


def _run_reduction_one(N, k, rng):
    n = 2 * k - N
    path = FlagPath(N, (k, k + 1))
    cup = gen_cup(path, 0, "ef")
    curl = compose_chain(cup, gen_crossing(cup.codomain, 2, "up"),
                         gen_cap(cup.codomain, 1, "ef"))
    ctx = GrassContext(N, k)
    dot = gen_dot(path, 1)
    terms = [compose_chain(*[dot] * (-n - ell),
                           left_mult(path, bubble_value(ctx, "cw", ell)))
             for ell in range(0, -n + 1)]

    def rhs_fn(vec):
        acc = BimElement.zero(path)
        for term in terms:
            acc = acc + term.apply_vec(vec)
        return -acc

    rhs = BimMap(path, path, -2 * n, rhs_fn, name="bubble_sum")
    return _compare([("reduction_to_bubbles_1", curl, rhs)], rng, samples=4)


def _run_reduction_two(N, k, rng):
    m = 2 * (k + 1) - N
    path = FlagPath(N, (k, k + 1))
    cup = gen_cup(path, 1, "fe")
    curl = compose_chain(cup, gen_crossing(cup.codomain, 1, "up"),
                         gen_cap(cup.codomain, 2, "fe"))
    ctx = GrassContext(N, k + 1)
    dot = gen_dot(path, 1)
    terms = [compose_chain(right_mult(path, bubble_value(ctx, "ccw", j)),
                           *[dot] * (m - j))
             for j in range(0, m + 1)]

    def rhs_fn(vec):
        acc = BimElement.zero(path)
        for term in terms:
            acc = acc + term.apply_vec(vec)
        return acc

    rhs = BimMap(path, path, 2 * m, rhs_fn, name="bubble_sum")
    return _compare([("reduction_to_bubbles_2", curl, rhs)], rng, samples=4)


# --- (g) identity decomposition ---------------------------------------------------


def _run_identity_decomposition(orientation):
    def run(N, k, rng):
        n = 2 * k - N
        ctx = GrassContext(N, k)
        if orientation == "fe":
            path = FlagPath(N, (k - 1, k, k - 1))
            cap = gen_cap(path, 1, "fe")
            lhs = compose_chain(cap, gen_cup(cap.codomain, 0, "fe"))
            mid_cup = gen_cup(path, 1, "fe")
            mid = compose_chain(mid_cup,
                                gen_crossing(mid_cup.codomain, 1, "up"),
                                gen_crossing(mid_cup.codomain, 3, "down"),
                                gen_cap(mid_cup.codomain, 2, "fe"))
            bubble_orientation, bound = "ccw", n
        else:
            path = FlagPath(N, (k + 1, k, k + 1))
            cap = gen_cap(path, 1, "ef")
            lhs = compose_chain(cap, gen_cup(cap.codomain, 0, "ef"))
            mid_cup = gen_cup(path, 1, "ef")
            mid = compose_chain(mid_cup,
                                gen_crossing(mid_cup.codomain, 1, "down"),
                                gen_crossing(mid_cup.codomain, 3, "up"),
                                gen_cap(mid_cup.codomain, 2, "ef"))
            bubble_orientation, bound = "cw", -n

        dot1, dot2 = gen_dot(path, 1), gen_dot(path, 2)
        terms = [compose_chain(*[dot1] * (ell - j), *[dot2] * (bound - 1 - ell),
                               junction_mult(path, 1, bubble_value(
                                   ctx, bubble_orientation, j)))
                 for ell in range(0, bound) for j in range(0, ell + 1)]

        def rhs_fn(vec):
            acc = -mid.apply_vec(vec)
            for term in terms:
                acc = acc + term.apply_vec(vec)
            return acc

        rhs = BimMap(path, path, 0, rhs_fn, name="decomposition_sum")
        return _compare([("identity_decomposition_" + orientation, lhs, rhs)],
                        rng, samples=4)
    return run


# --- (h) ring identity batteries ----------------------------------------------------


def _run_series_delta(which):
    def run(N, k, rng):
        ok, report = check_series_identity(GrassContext(N, k), which, 2 * N)
        return None if ok else report
    return run


def _run_bubble_series(N, k, rng):
    ok, report = check_series_identity(GrassContext(N, k), "bubble_product", 2 * N)
    return None if ok else report


def _step_special(ring: StepRing, family: str, alpha: int, end: str) -> Polynomial:
    """A special class of an end ring written in one-step canonical form."""
    ctx = ring.lower if end == "lower" else ring.upper
    return ring.embed_ring_poly(special_class(ctx, family, alpha), end)


def _run_class_slide(family):
    def run(N, k, rng):
        ring = StepRing(N, k)
        for alpha in range(0, 2 * N + 3):
            if family == "X":
                lhs = _step_special(ring, "X", alpha, "lower")
                rhs = Polynomial.zero()
                for ell in range(0, alpha + 1):
                    term = _step_special(ring, "X", alpha - ell, "upper") * ring.xi(ell)
                    rhs = rhs + (term if ell % 2 == 0 else -term)
            else:
                lhs = _step_special(ring, "Y", alpha, "upper")
                rhs = Polynomial.zero()
                for ell in range(0, alpha + 1):
                    term = _step_special(ring, "Y", alpha - ell, "lower") * ring.xi(ell)
                    rhs = rhs + (term if ell % 2 == 0 else -term)
            if lhs != rhs:
                return ("slide of %s_%d: %s vs %s"
                        % (family, alpha, lhs.render(), rhs.render()))
        return None
    return run


def _run_xi_expansion(family):
    def run(N, k, rng):
        ring = StepRing(N, k)
        for alpha in range(0, 2 * N + 3):
            acc = Polynomial.zero()
            for j in range(0, alpha + 1):
                if family == "X":
                    acc = acc + (_step_special(ring, "X", alpha - j, "lower")
                                 * ring.embed_ring_poly(ring.upper.y(j), "upper"))
                else:
                    acc = acc + (ring.embed_ring_poly(ring.lower.x(alpha - j), "lower")
                                 * _step_special(ring, "Y", j, "upper"))
            if alpha % 2:
                acc = -acc
            if acc != ring.xi(alpha):
                return ("xi^%d expansion via %s: got %s"
                        % (alpha, family, acc.render()))
        return None
    return run


def _run_two_sided_sum(family):
    def run(N, k, rng):
        if family == "x":
            path = FlagPath(N, (k, k + 1, k))
            gen = GrassContext(N, k).x
        else:
            path = FlagPath(N, (k, k - 1, k))
            gen = GrassContext(N, k).y
        for alpha in range(0, 2 * N + 1):
            lhs = BimElement.zero(path)
            rhs = BimElement.zero(path)
            for j in range(0, alpha + 1):
                coeff = gen(j)
                if coeff.is_zero():
                    continue
                sign = 1 if j % 2 == 0 else -1
                left = normalize(RawTensor(path, (coeff, ring_xi(path, 2, alpha - j))))
                right = normalize(RawTensor(path, (ring_xi(path, 1, alpha - j), coeff)))
                lhs = lhs + left.scale(sign)
                rhs = rhs + right.scale(sign)
            if lhs != rhs:
                return ("two-sided %s sum at alpha=%d: %s vs %s"
                        % (family, alpha, lhs.render(), rhs.render()))
        return None
    return run


def ring_xi(path: FlagPath, position: int, exp: int) -> Polynomial:
    return path.step_ring(position).xi(exp)


def _run_dot_slide(family):
    def run(N, k, rng):
        if family == "x":
            path = FlagPath(N, (k, k + 1, k))
            gen, top = GrassContext(N, k).x, k
        else:
            path = FlagPath(N, (k, k - 1, k))
            gen, top = GrassContext(N, k).y, N - k
        lhs = BimElement.zero(path)
        rhs = BimElement.zero(path)
        for ell in range(0, top + 1):
            sign = 1 if ell % 2 == 0 else -1
            left = normalize(RawTensor(
                path, (ring_xi(path, 1, top - ell + 1), gen(ell))))
            right = normalize(RawTensor(
                path, (ring_xi(path, 1, top - ell),
                       gen(ell) * ring_xi(path, 2, 1))))
            lhs = lhs + left.scale(sign)
            rhs = rhs + right.scale(sign)
        if lhs != rhs:
            return ("dot slide (%s): %s vs %s"
                    % (family, lhs.render(), rhs.render()))
        return None
    return run


# --- (i) degree audit -----------------------------------------------------------------


def _context_generators(N, k):
    """Every generator map constructible at ring index k."""
    gens = []
    if k < N:
        up = FlagPath(N, (k, k + 1))
        gens.append(gen_dot(up, 1))
        gens.append(gen_cup(up.with_shift(0), 0, "fe"))
        down = FlagPath(N, (k + 1, k))
        gens.append(gen_dot(down, 1))
        fe_excursion = FlagPath(N, (k, k + 1, k), shift=1 - N)
        gens.append(gen_cap(fe_excursion, 1, "fe"))
    if k > 0:
        ef_excursion = FlagPath(N, (k, k - 1, k), shift=1 - N)
        gens.append(gen_cap(ef_excursion, 1, "ef"))
    gens.append(gen_cup(FlagPath(N, (k,)), 0, "fe"))
    gens.append(gen_cup(FlagPath(N, (k,)), 0, "ef"))
    if k + 2 <= N:
        gens.append(gen_crossing(FlagPath(N, (k, k + 1, k + 2)), 1, "up"))
        gens.append(gen_crossing(FlagPath(N, (k + 2, k + 1, k)), 1, "down"))
    return gens


def _run_degree_audit(N, k, rng):
    n = 2 * k - N
    expected = {"dot": 2, "cross_up": -2, "cross_down": -2,
                "cup_fe": n + 1, "cap_fe": n + 1,
                "cup_ef": 1 - n, "cap_ef": 1 - n}
    for gen in _context_generators(N, k):
        stem = gen.name.split("@")[0]
        if stem in expected and not gen.domain.is_zero and not gen.codomain.is_zero:
            if gen.degree != expected[stem]:
                return ("%s declares degree %d, table says %d"
                        % (gen.name, gen.degree, expected[stem]))
        ok, report = audit_degree(gen)
        if not ok:
            return report
    # composite suite diagrams must also measure at their declared degree
    composites = []
    if k < N:
        for which in ("e1", "e2", "f1", "f2"):
            composites.append(_zigzag_maps(N, k, which)[0])
        composites.append(_bubble_diagram(N, k, "cw", max(0, n - 1) + 1))
    if k < N - 1:
        path = FlagPath(N, (k, k + 1, k + 2))
        cross = gen_crossing(path, 1, "up")
        composites.append(compose_chain(gen_dot(path, 1), cross))
    for comp in composites:
        ok, report = audit_degree(comp)
        if not ok:
            return report
    return None


# --- (j) well-definedness (bimodule law) --------------------------------------------


def _random_end_poly(ctx: GrassContext, rng) -> Polynomial:
    syms = sorted(ctx.catalog())
    if not syms:
        return Polynomial.one()
    sym = syms[rng.randrange(len(syms))]
    return Polynomial.gen(sym, rng.randrange(1, 3))


def _run_well_definedness(N, k, rng):
    for gen in _context_generators(N, k):
        if gen.domain.is_zero or gen.codomain.is_zero:
            continue
        dom_basis = basis(gen.domain)
        left_ring = gen.domain.junction(0)
        right_ring = gen.domain.junction(gen.domain.num_factors)
        for _ in range(50):
            vec = dom_basis[rng.randrange(len(dom_basis))]
            r = _random_end_poly(left_ring, rng)
            s = _random_end_poly(right_ring, rng)
            e = normalize_xi_vector(gen.domain, vec)
            decorated = act("left", r, act("right", s, e))
            image_then_act = act("left", r, act("right", s, gen(e)))
            act_then_image = gen(decorated)
            if image_then_act != act_then_image:
                return ("%s violates the bimodule law on %s with r=%s, s=%s"
                        % (gen.name, e.render(), r.render(), s.render()))
    return None


# --- (k) non-nilpotency ----------------------------------------------------------------


def _run_non_nilpotency(N, k, rng):
    paths = []
    if k < N:
        paths.append(FlagPath(N, (k, k + 1)))
    if k > 0:
        paths.append(FlagPath(N, (k, k - 1)))
    for path in paths:
        for power in range(1, 4 * N + 1):
            if normalize_xi_vector(path, (power,)).is_zero():
                return ("dot^%d vanishes on the unit of %s"
                        % (power, path.render()))
    return None


# --- (l) K0 shadow -----------------------------------------------------------------------


def _rank_by_product(path: FlagPath) -> Laurent:
    """Closed-form graded rank: q^shift times the product over factor bounds."""
    if path.is_zero:
        return Laurent.zero()
    total = Laurent.q_power(path.shift)
    for i in range(1, path.num_factors + 1):
        block = Laurent.zero()
        for e in range(path.bound(i) + 1):
            block = block + Laurent.q_power(2 * e)
        total = total * block
    return total


def _run_k0_shadow(N, k, rng):
    n = 2 * k - N
    ef = compile_word(SignedWord(("E", "F"), n), N)
    fe = compile_word(SignedWord(("F", "E"), n), N)
    for path in (ef, fe):
        if graded_rank(path) != _rank_by_product(path):
            return ("rank enumeration disagrees with the product formula on %s"
                    % path.render())
    diff = graded_rank(ef) - graded_rank(fe)
    want = quantum_integer(n)
    if diff != want:
        return ("EF minus FE has graded rank %s, quantum integer is %s "
                "(per-letter shift table: E at k gives 1-N+k, F at k gives 1-k)"
                % (diff.render(), want.render()))
    return None


# ---------------------------------------------------------------------------
# inventory
# ---------------------------------------------------------------------------


def _ks(lo_off, hi_off):
    return lambda N: list(range(lo_off, N + hi_off + 1))


_CHECKS = [
    CheckSpec("biadjointness_zigzag_e1", "biadjointness", _ks(0, -1), _run_zigzag("e1")),
    CheckSpec("biadjointness_zigzag_e2", "biadjointness", _ks(0, -1), _run_zigzag("e2")),
    CheckSpec("biadjointness_zigzag_f1", "biadjointness", _ks(0, -1), _run_zigzag("f1")),
    CheckSpec("biadjointness_zigzag_f2", "biadjointness", _ks(0, -1), _run_zigzag("f2")),
    CheckSpec("dot_cyclicity_e1", "dot_cyclicity", _ks(0, -1), _run_dot_cyclic("e1")),
    CheckSpec("dot_cyclicity_e2", "dot_cyclicity", _ks(0, -1), _run_dot_cyclic("e2")),
    CheckSpec("dot_cyclicity_f1", "dot_cyclicity", _ks(0, -1), _run_dot_cyclic("f1")),
    CheckSpec("dot_cyclicity_f2", "dot_cyclicity", _ks(0, -1), _run_dot_cyclic("f2")),
    CheckSpec("crossing_duality_left", "crossing_duality", _ks(0, -2),
              _run_duality("left"),
              lambda N: "requires N >= 2"),
    CheckSpec("crossing_duality_right", "crossing_duality", _ks(0, -2),
              _run_duality("right"),
              lambda N: "requires N >= 2"),
    CheckSpec("bubble_diagram_cw", "bubbles", _ks(0, 0), _run_bubble_diagram("cw")),
    CheckSpec("bubble_diagram_ccw", "bubbles", _ks(0, 0), _run_bubble_diagram("ccw")),
    CheckSpec("bubble_vanishing", "bubbles", _ks(0, 0), _run_bubble_vanishing),
    CheckSpec("bubble_unit", "bubbles", _ks(0, 0), _run_bubble_unit),
    CheckSpec("nilhecke_crossing_squared_ee", "nilhecke", _ks(0, -2),
              _run_crossing_squared("ee"), lambda N: "requires N >= 2"),
    CheckSpec("nilhecke_crossing_squared_ff", "nilhecke", _ks(0, -2),
              _run_crossing_squared("ff"), lambda N: "requires N >= 2"),
    CheckSpec("nilhecke_exchange_ee", "nilhecke", _ks(0, -2),
              _run_exchange("ee"), lambda N: "requires N >= 2"),
    CheckSpec("nilhecke_exchange_ff", "nilhecke", _ks(0, -2),
              _run_exchange("ff"), lambda N: "requires N >= 2"),
    CheckSpec("nilhecke_braid_eee", "nilhecke", _ks(0, -3),
              _run_braid("eee"), lambda N: "requires N >= 3"),
    CheckSpec("nilhecke_braid_fff", "nilhecke", _ks(0, -3),
              _run_braid("fff"), lambda N: "requires N >= 3"),
    CheckSpec("reduction_to_bubbles_1", "reduction_to_bubbles", _ks(0, -1),
              _run_reduction_one),
    CheckSpec("reduction_to_bubbles_2", "reduction_to_bubbles", _ks(0, -1),
              _run_reduction_two),
    CheckSpec("identity_decomposition_fe", "identity_decomposition", _ks(1, 0),
              _run_identity_decomposition("fe")),
    CheckSpec("identity_decomposition_ef", "identity_decomposition", _ks(0, -1),
              _run_identity_decomposition("ef")),
    CheckSpec("series_delta_xY", "ring_identities", _ks(0, 0), _run_series_delta("xY")),
    CheckSpec("series_delta_Xy", "ring_identities", _ks(0, 0), _run_series_delta("Xy")),
    CheckSpec("bubble_series_product", "ring_identities", _ks(0, 0), _run_bubble_series),
    CheckSpec("class_slide_x", "ring_identities", _ks(0, -1), _run_class_slide("X")),
    CheckSpec("class_slide_y", "ring_identities", _ks(0, -1), _run_class_slide("Y")),
    CheckSpec("xi_expansion_x", "ring_identities", _ks(0, -1), _run_xi_expansion("X")),
    CheckSpec("xi_expansion_y", "ring_identities", _ks(0, -1), _run_xi_expansion("Y")),
    CheckSpec("two_sided_sum_x", "ring_identities", _ks(0, -1), _run_two_sided_sum("x")),
    CheckSpec("two_sided_sum_y", "ring_identities", _ks(1, 0), _run_two_sided_sum("y")),
    CheckSpec("dot_slide_x", "ring_identities", _ks(0, -1), _run_dot_slide("x")),
    CheckSpec("dot_slide_y", "ring_identities", _ks(1, 0), _run_dot_slide("y")),
    CheckSpec("degree_audit", "degree_audit", _ks(0, 0), _run_degree_audit),
    CheckSpec("well_definedness", "well_definedness", _ks(0, 0), _run_well_definedness),
    CheckSpec("non_nilpotency", "non_nilpotency", _ks(0, 0), _run_non_nilpotency),
    CheckSpec("k0_shadow", "k0_shadow", _ks(0, 0), _run_k0_shadow),
]

SUITE_ORDER = (
    "biadjointness", "dot_cyclicity", "crossing_duality", "bubbles",
    "nilhecke", "reduction_to_bubbles", "identity_decomposition",
    "ring_identities", "degree_audit", "well_definedness",
    "non_nilpotency", "k0_shadow",
)

SUITE_LETTERS = dict(zip("abcdefghijkl", SUITE_ORDER))

#: Locked inventory: every relation display maps to exactly one check name.
MANIFEST = {
    "biadjointness": ("biadjointness_zigzag_e1", "biadjointness_zigzag_e2",
                      "biadjointness_zigzag_f1", "biadjointness_zigzag_f2"),
    "dot_cyclicity": ("dot_cyclicity_e1", "dot_cyclicity_e2",
                      "dot_cyclicity_f1", "dot_cyclicity_f2"),
    "crossing_duality": ("crossing_duality_left", "crossing_duality_right"),
    "bubbles": ("bubble_diagram_cw", "bubble_diagram_ccw",
                "bubble_vanishing", "bubble_unit"),
    "nilhecke": ("nilhecke_crossing_squared_ee", "nilhecke_crossing_squared_ff",
                 "nilhecke_exchange_ee", "nilhecke_exchange_ff",
                 "nilhecke_braid_eee", "nilhecke_braid_fff"),
    "reduction_to_bubbles": ("reduction_to_bubbles_1", "reduction_to_bubbles_2"),
    "identity_decomposition": ("identity_decomposition_fe",
                               "identity_decomposition_ef"),
    "ring_identities": ("series_delta_xY", "series_delta_Xy",
                        "bubble_series_product", "class_slide_x", "class_slide_y",
                        "xi_expansion_x", "xi_expansion_y",
                        "two_sided_sum_x", "two_sided_sum_y",
                        "dot_slide_x", "dot_slide_y"),
    "degree_audit": ("degree_audit",),
    "well_definedness": ("well_definedness",),
    "non_nilpotency": ("non_nilpotency",),
    "k0_shadow": ("k0_shadow",),
}


def inventory():
    """The live inventory, grouped by suite, in declaration order."""
    out: dict = {}
    for spec in _CHECKS:
        out.setdefault(spec.suite, []).append(spec.name)
    return {suite: tuple(names) for suite, names in out.items()}


def resolve_suites(selectors) -> tuple:
    """Normalize suite selectors (full names or letters a..l)."""
    if not selectors:
        return SUITE_ORDER
    chosen = []
    for sel in selectors:
        sel = sel.strip()
        name = SUITE_LETTERS.get(sel, sel)
        if name not in MANIFEST:
            raise ValueError("unknown suite %r (use names %s or letters a-%s)"
                             % (sel, ", ".join(SUITE_ORDER),
                                "abcdefghijkl"[len(SUITE_ORDER) - 1]))
        if name not in chosen:
            chosen.append(name)
    return tuple(chosen)


def run_suite(N: int, suites=None, max_rank: int = DEFAULT_MAX_RANK,
              progress=None) -> VerifyReport:
    """Run the selected suites at rank N over every admissible ring index.

    Failures become report entries; nothing raises for a false relation.
    Results are ordered by check name and context so that reports are
    byte-stable up to the timing fields.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError("N must be a positive integer")
    if N > max_rank:
        raise ValueError("N=%d exceeds the configured maximum %d" % (N, max_rank))
    chosen = resolve_suites(suites)
    report = VerifyReport(N=N, suites=chosen)
    for spec in _CHECKS:
        if spec.suite not in chosen:
            continue
        ks = spec.contexts(N)
        if not ks:
            report.results.append(CheckResult(
                spec.name, N, None, "skipped", reason=spec.empty_reason(N)))
            continue
        for k in ks:
            rng = random.Random("%s:%d:%d" % (spec.name, N, k))
            started = time.perf_counter()
            try:
                counterexample = spec.run(N, k, rng)
            except Exception as exc:   # a crash is a failed check, not a crash
                counterexample = "internal error: %r" % exc
            millis = round((time.perf_counter() - started) * 1000.0, 3)
            if counterexample is None:
                report.results.append(CheckResult(spec.name, N, k, "pass",
                                                  millis=millis))
            else:
                report.results.append(CheckResult(spec.name, N, k, "fail",
                                                  counterexample=counterexample,
                                                  millis=millis))
            if progress is not None:
                progress(report.results[-1])
    report.results.sort(key=lambda r: (r.check, r.k if r.k is not None else -1))
    return report
