"""Executable verification of the defining 2-category relations.

Every relation of the graphical calculus, realized as an identity of
bimodule maps or of normal-form elements, becomes a named check, and
``run_suite`` executes the whole inventory for one rank N, one admissible
ring index k at a time.  Equality is always syntactic equality of normal
forms; there are no numeric tolerances anywhere.  Failures never raise:
they are reported with a rendered counterexample.

Maps are compared on the free basis of their domain alone: the
``well_definedness`` check decides, for each generator, that it is a
bimodule map, and composites of bimodule maps are bimodule maps.  No check
samples.  The inventory is locked by ``MANIFEST`` (one entry per relation
display), and reports are deterministic: results are ordered by name.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .exactpoly import (
    MAX_EXPONENT,
    RESIDUE_PRIME,
    Polynomial,
    render_int,
    residue,
    sum_of_products,
)
from .grassrings import (
    FAMILY_LETTER,
    GrassContext,
    StepRing,
    bubble_value,
    check_series_identity,
    embedded_gens,
    embedded_special_classes,
    special_class,
)
from .bimodules import (
    BimElement,
    FlagPath,
    RawTensor,
    _vector_terms,
    basis,
    graded_rank,
    normalize_sum,
    normalize_xi_vector,
)
from .qlaurent import Laurent
from .twomorphisms import (
    _excess_vectors,
    audit_degree,
    compose_chain,
    gen_cap,
    gen_crossing,
    gen_cup,
    gen_dot,
    identity_map,
    junction_mult,
    linear_combination,
    map_equals,
    zero_map,
    SignedWord,
    compile_word,
)

DEFAULT_MAX_RANK = 7


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

    def to_json(self) -> str:
        payload = {
            "engine": "catsl2",
            "N": self.N,
            "suites": list(self.suites),
            "checks": [r.to_dict() for r in self.results],
            "summary": self.counts(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

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


@dataclass(frozen=True)
class CheckSpec:
    """A named relation check: admissible contexts plus a runner.

    The check runs at every ring index k from ``lo`` to ``N + hi``, where
    ``span = (lo, hi)``, as ``run(N, k, context)`` with the ``_Context`` of
    k, which returns None on success or a counterexample string.  With no
    such k it is skipped.
    """

    name: str
    suite: str
    span: tuple
    run: Callable

    def contexts(self, N):
        lo, hi = self.span
        return range(lo, N + hi + 1)


class _Context:
    """What the checks at one ring index k share: per function and
    arguments the value of ``gen``, built on first use and kept until k
    ends.  ``run_suite`` makes one per k.  No key holds the context
    itself, so a context is freed when k ends, without the cycle
    collector."""

    def __init__(self, N, k):
        self.N, self.k = N, k
        self._values = {}

    def gen(self, f, *args):
        """``f(*args)``, built on first use: every check at k that asks
        for it gets this one value (a generator map with its image memo,
        or a table of embedded classes)."""
        key = (f, *args)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = f(*args)
        return value


def _compare(label, lhs, rhs):
    """map_equals on two maps; None if equal, else the labelled report."""
    ok, rep = map_equals(lhs, rhs)
    return None if ok else "%s: %s" % (label, rep)


# Most relations come in pairs, exchanged by the E <-> F symmetry of the
# 2-category (ring k <-> N - k, x[t]@n <-> y[t]@-n on the flag side) or by
# a reflection.  One runner checks both members of a pair and reads its side
# from a side-table record, which holds only what differs between the two.
# The generator formulas of the two sides stay independently written.  A
# record names cups by kind, since a cup's kind picks the excursion it
# inserts; it never names a crossing's or a cap's orientation, which the path
# they act on fixes.


def _strands(N, k, letter, count):
    """``count`` parallel E strands (letter 'e': rings k up to k + count)
    or F strands ('f': the same rings downwards)."""
    rings = tuple(range(k, k + count + 1))
    return FlagPath(N, rings if letter == "e" else rings[::-1])


def _cup_cap(context, path, cup_at, cup_kind, cap_at, *middle):
    """A cup, the ``middle`` steps (generator, *arguments) on its codomain
    from bottom to top, then a cap, each map the context's."""
    cup = context.gen(gen_cup, path, cup_at, cup_kind)
    return compose_chain(cup, *(context.gen(step[0], cup.codomain, *step[1:])
                                for step in middle),
                         context.gen(gen_cap, cup.codomain, cap_at))


# --- (a) biadjointness zigzags and (b) dot cyclicity ----------------------------

#: Per zigzag (strand letter, then 1 or 2): cup junction and kind, cap
#: position.
_ZIGZAGS = {"e1": (0, "fe", 2), "e2": (1, "ef", 1),
            "f1": (0, "ef", 2), "f2": (1, "fe", 1)}


def _zigzag(context, which, dots):
    return _cup_cap(context, _strands(context.N, context.k, which[0], 1),
                    *_ZIGZAGS[which], *[(gen_dot, 2)] * dots)


def _run_zigzag(dots, which, N, k, context):
    """The zigzag is the identity; with a dot on it, the dot on the strand."""
    zig = _zigzag(context, which, dots)
    straight = (context.gen(gen_dot, zig.domain, 1) if dots
                else context.gen(identity_map, zig.domain))
    label = ("dot_cyclicity_" if dots else "zigzag_") + which
    return _compare(label, zig, straight)


# --- (c) crossing duality ----------------------------------------------------

#: Per side: the two cup junctions and their kind, then the two cap
#: positions, around the crossing on factor 3 (upward: the rotation of the
#: downward crossing it is compared with).
_DUALITIES = {"left": ((0, 1), "ef", (4, 3)),
              "right": ((2, 3), "fe", (2, 1))}


def _run_duality(side, N, k, context):
    (cup1, cup2), cup_kind, (cap1, cap2) = _DUALITIES[side]
    gen = context.gen
    path = FlagPath(N, (k + 2, k + 1, k))
    target = gen(gen_crossing, path, 1)
    c1 = gen(gen_cup, path, cup1, cup_kind)
    c2 = gen(gen_cup, c1.codomain, cup2, cup_kind)
    cross = gen(gen_crossing, c2.codomain, 3)
    k1 = gen(gen_cap, cross.codomain, cap1)
    rot = compose_chain(c1, c2, cross, k1, gen(gen_cap, k1.codomain, cap2))
    return _compare("crossing_duality_" + side, rot, target)


# --- (d) bubbles --------------------------------------------------------------

#: Per orientation: the cup kind, and the sign s of the weight n in
#: the bubble relations (the degree-zero bubble carries s*n - 1 dots, and
#: the bubble sums of (f) and (g) run up to -s*n).
_BUBBLES = {"cw": ("ef", 1), "ccw": ("fe", -1)}


def _bubble(context, orientation, dots):
    """Closed cup-dots-cap composite on the identity bimodule at ring k."""
    return _cup_cap(context, FlagPath(context.N, (context.k,)), 0,
                    _BUBBLES[orientation][0], 1, *[(gen_dot, 1)] * dots)


def _run_bubble_diagram(orientation, N, k, context):
    """Each dot count's bubble against its formula.  One cup, dot and cap
    serve every count: each extra dot is applied once to the dotted cup."""
    ctx = GrassContext(N, k)
    base = _BUBBLES[orientation][1] * ctx.n - 1
    path = FlagPath(N, (k,))
    cup = context.gen(gen_cup, path, 0, _BUBBLES[orientation][0])
    dot = context.gen(gen_dot, cup.codomain, 1)
    cap = context.gen(gen_cap, cup.codomain, 1)
    dotted = cup.apply_vec(())
    for dots in range(0, 2 * N + max(0, base) + 1):
        if dots:
            dotted = dot(dotted)
        value = cap(dotted)
        want = bubble_value(ctx, orientation, dots - base)
        if value != BimElement.from_ring_poly(path, want):
            return ("%s bubble with %d dots: diagram %s, formula %s"
                    % (orientation, dots, value.render(), want.render()))
    return None


def _run_bubble_vanishing(N, k, context):
    ctx = GrassContext(N, k)
    for orientation in _BUBBLES:
        for alpha in (-1, -2, -3):
            value = bubble_value(ctx, orientation, alpha)
            if not value.is_zero():
                return ("%s bubble at degree %d is %s, expected 0"
                        % (orientation, 2 * alpha, value.render()))
    return None


def _run_bubble_unit(N, k, context):
    ctx = GrassContext(N, k)
    for orientation in _BUBBLES:
        if bubble_value(ctx, orientation, 0) != Polynomial.one():
            return "%s degree-zero bubble is not 1" % orientation
    return None


# --- (e) nilHecke --------------------------------------------------------------

#: Per strand letter (the first letter of the check suffix): the factors of
#: the dots (first, second) in the exchange relations
#: first.cross - cross.second = id = cross.first - second.cross.
_NILHECKE = {"e": (2, 1), "f": (1, 2)}


def _run_crossing_squared(side, N, k, context):
    path = _strands(N, k, side[0], 2)
    cross = context.gen(gen_crossing, path, 1)
    return _compare("crossing_squared_" + side, compose_chain(cross, cross),
                    zero_map(path, path, -4))


def _run_exchange(side, N, k, context):
    first_at, second_at = _NILHECKE[side[0]]
    gen = context.gen
    path = _strands(N, k, side[0], 2)
    cross = gen(gen_crossing, path, 1)
    first, second = gen(gen_dot, path, first_at), gen(gen_dot, path, second_at)
    ident = gen(identity_map, path)
    one = linear_combination(path, path, 0, "exchange_a",
                             [(1, compose_chain(first, cross)),
                              (-1, compose_chain(cross, second))])
    two = linear_combination(path, path, 0, "exchange_b",
                             [(1, compose_chain(cross, first)),
                              (-1, compose_chain(second, cross))])
    return (_compare("exchange_%s_a" % side, one, ident)
            or _compare("exchange_%s_b" % side, two, ident))


def _run_braid(side, N, k, context):
    path = _strands(N, k, side[0], 3)
    u1, u2 = context.gen(gen_crossing, path, 1), context.gen(gen_crossing, path, 2)
    return _compare("braid_" + side, compose_chain(u1, u2, u1),
                    compose_chain(u2, u1, u2))


# --- (f) reduction to bubbles ---------------------------------------------------

#: Per relation, on the strand path (k, k+1): the curl's cup junction and
#: kind, crossing position and cap position; the junction and orientation
#: of the bubbles, and the sign of their sum.
_REDUCTIONS = {"1": (0, "ef", 2, 1, 0, "cw", -1),
               "2": (1, "fe", 1, 2, 1, "ccw", 1)}


def _run_reduction(which, N, k, context):
    cup_at, kind, cross_at, cap_at, g, orientation, sign = _REDUCTIONS[which]
    path = FlagPath(N, (k, k + 1))
    curl = _cup_cap(context, path, cup_at, kind, cap_at, (gen_crossing, cross_at))
    ctx = path.junction(g)
    bound = -_BUBBLES[orientation][1] * ctx.n
    dot = context.gen(gen_dot, path, 1)
    terms = []
    for j in range(0, bound + 1):
        bubble = context.gen(junction_mult, path, g, bubble_value(ctx, orientation, j))
        dots = [dot] * (bound - j)
        # as displayed: the left bubble above the dots, the right one below
        chain = (*dots, bubble) if g == 0 else (bubble, *dots)
        terms.append((sign, compose_chain(*chain)))
    rhs = linear_combination(path, path, 2 * bound, "bubble_sum", terms)
    return _compare("reduction_to_bubbles_" + which, curl, rhs)


# --- (g) identity decomposition ---------------------------------------------------

#: Per side (the kind of every cup, and so of every cap): the outer rings'
#: offset from k, the bubble orientation, and the span of k.
_DECOMPOSITIONS = {"fe": (-1, "ccw", (1, 0)),
                   "ef": (1, "cw", (0, -1))}


def _run_identity_decomposition(kind, N, k, context):
    offset, orientation, _ = _DECOMPOSITIONS[kind]
    gen = context.gen
    ctx = GrassContext(N, k)
    path = FlagPath(N, (k + offset, k, k + offset))
    cap = gen(gen_cap, path, 1)
    lhs = compose_chain(cap, gen(gen_cup, cap.codomain, 0, kind))
    mid = _cup_cap(context, path, 1, kind, 2, (gen_crossing, 1), (gen_crossing, 3))
    bound = -_BUBBLES[orientation][1] * ctx.n
    dot1, dot2 = gen(gen_dot, path, 1), gen(gen_dot, path, 2)
    terms = [(1, compose_chain(*[dot1] * (ell - j), *[dot2] * (bound - 1 - ell),
                               gen(junction_mult, path, 1, bubble_value(
                                   ctx, orientation, j))))
             for ell in range(0, bound) for j in range(0, ell + 1)]
    rhs = linear_combination(path, path, 0, "decomposition_sum",
                             [(-1, mid)] + terms)
    return _compare("identity_decomposition_" + kind, lhs, rhs)


# --- (h) ring identity batteries ----------------------------------------------------


def _run_series(which, N, k, context):
    ok, report = check_series_identity(GrassContext(N, k), which, 2 * N)
    return None if ok else report


def _slide_sums(other, xi):
    """sum_{l <= a} other[a - l] * (-xi)^l for a = 0, 1, ..., by Horner's
    rule: the sum at a is other[a] - xi times the sum at a - 1."""
    rhs, minus_xi = Polynomial.zero(), -xi
    for c in other:
        rhs = sum_of_products(((c, 1), (minus_xi, rhs)))
        yield rhs


def _embedded_classes(ring, family, end, embedded):
    """The classes of index 0 .. 2N+2 of ``end``, in one-step form;
    ``embedded`` is that end's ``embedded_gens`` of the family's letter, or
    None where those are the step ring's own, which embed as themselves."""
    classes = [special_class(end, family, alpha)
               for alpha in range(0, 2 * ring.N + 3)]
    if embedded is None:
        return classes
    return embedded_special_classes(ring, family, end, classes, embedded)


def _classes(context, ring, family, other):
    """The ``_embedded_classes`` of the end that owns the family's letter
    (``StepRing.ends``), or of the other end if ``other``, built once per k;
    only the other end's are embedded."""
    letter = FAMILY_LETTER[family]
    end = ring.ends(letter)[other]
    return context.gen(_embedded_classes, ring, family, end,
                       context.gen(embedded_gens, ring, end, letter) if other else None)


#: The series identity of each family's classes with its letter's generators.
_FAMILY_SERIES = {"X": "Xy", "Y": "xY"}


def _slides(context, ring, family):
    """The three facts of ``_run_class_slide`` for ``family`` on ``ring``."""
    letter = FAMILY_LETTER[family]
    own, other = ring.ends(letter)
    gens, xi = own.gens(letter), ring.xi()
    bound = 2 * ring.N + 2
    return (list(context.gen(embedded_gens, ring, other, letter))
            == [own.gen(letter, t) + gens[t - 1] * xi for t in range(1, len(gens) + 1)]
            and all(context.gen(check_series_identity, end, _FAMILY_SERIES[family], bound)[0]
                    for end in (own, other)))


def _run_class_slide(side, N, k, context):
    """The other end's classes C° of the family slide to the owning end's
    classes C: emb(C°_a) = sum_l C_(a-l) * (-xi)^l for a <= 2N + 2.

    Three facts at k decide this check and ``_run_xi_expansion``, with no
    class embedded.  Write G for the owning end's generators of the
    family's letter and g° for the other end's, as series in t:
    1. the other end's embedded generators are G[t] + G[t-1] * xi for
       t = 1 .. top + 1, with top the owning end's last index, and no
       more: so emb(g°) = G * (1 + xi t);
    2. ``check_series_identity`` holds at the owning end through degree
       2N + 2: C * G = 1;
    3. it holds at the other end: C° * g° = 1.
    By 3 every residual of ``embedded_special_classes`` is 0, so the
    embedded classes are the recursion's inverse of emb(g°) through degree
    2N + 2; by 1 and 2 that is 1 / (G * (1 + xi t)) = C / (1 + xi t), the
    slide.  Its product with G is 1 / (1 + xi t), whose coefficient at a
    is (-xi)^a: the xi expansion.  When a fact fails, ``_class_slide_exact``
    runs, and it alone writes the verdict and the text.
    """
    if _slides(context, StepRing(N, k), side.upper()):
        return None
    return _class_slide_exact(side, N, k, context)


def _class_slide_exact(side, N, k, context):
    """The class slide by embedding the other end's classes, a <= 2N + 2."""
    family, ring = side.upper(), StepRing(N, k)
    # the other end's classes slide to the owning end's
    slid, other = (_classes(context, ring, family, of_other) for of_other in (True, False))
    for alpha, rhs in enumerate(_slide_sums(other, ring.xi())):
        if slid[alpha] != rhs:
            return ("slide of %s_%d: %s vs %s"
                    % (family, alpha, slid[alpha].render(), rhs.render()))
    return None


def _run_xi_expansion(side, N, k, context):
    """xi^a = (-1)^a sum_j emb(C°_(a-j)) * G[j] for a <= 2N + 2, with the
    other end's classes C° and the owning end's generators G: decided by
    the facts of ``_run_class_slide``, else by ``_xi_expansion_exact``."""
    if _slides(context, StepRing(N, k), side.upper()):
        return None
    return _xi_expansion_exact(side, N, k, context)


def _xi_expansion_exact(side, N, k, context):
    """The xi expansion by embedding the other end's classes."""
    family, ring = side.upper(), StepRing(N, k)
    classes = _classes(context, ring, family, True)
    # 1 and the step ring's own generators of the family's letter
    letter = FAMILY_LETTER[family]
    gens = ring.ends(letter)[0].gens(letter)
    for alpha in range(0, 2 * N + 3):
        acc = sum_of_products(zip(reversed(classes[:alpha + 1]), gens))
        if alpha % 2:
            acc = -acc
        if acc != ring.xi(alpha):
            return ("xi^%d expansion via %s: got %s"
                    % (alpha, family, acc.render()))
    return None


#: Per generator letter of ring k: the step to the excursion's middle ring,
#: and the span of k.
_EXCURSIONS = {"x": (1, (0, -1)), "y": (-1, (1, 0))}


def _excursion(N, k, letter):
    """The excursion path of a letter, ring k's generators 1, letter[1], ...
    of that letter, and the xi of each of the two factors."""
    path = FlagPath(N, (k, k + _EXCURSIONS[letter][0], k))
    return (path, GrassContext(N, k).gens(letter),
            path.step_ring(1).xi, path.step_ring(2).xi)


def _alternating_sums(path, pairs):
    """Over the t-th pair of factor tuples (left, right), the normal forms
    of the sums of (-1)^t times the lefts and of the rights."""
    return tuple(normalize_sum(path, [(RawTensor(path, pair[side]), (-1) ** t)
                                      for t, pair in enumerate(pairs)])
                 for side in (0, 1))


def _two_sided_sums(context, path, gens, count):
    """The two sides of sum_j (-1)^j c_j (x) xi^(alpha-j) and
    sum_j (-1)^j xi^(alpha-j) (x) c_j over the generators c_j of ``gens``,
    for alpha = 0 .. count - 1, by Horner's rule: the left side at alpha is
    the dot on factor 2 applied to the left side at alpha - 1, plus
    (-1)^alpha c_alpha (x) 1; the right side likewise with the dot on factor
    1 and 1 (x) c_alpha.  Each side stays in normal form, and the context's
    two dots' image memos serve every alpha, so each alpha normalizes only
    its one new tensor per side."""
    one = Polynomial.one()
    dot1, dot2 = context.gen(gen_dot, path, 1), context.gen(gen_dot, path, 2)
    lhs = rhs = BimElement.zero(path)
    for alpha in range(0, count):
        lhs, rhs = dot2(lhs), dot1(rhs)
        if alpha < len(gens):
            sign, c = (-1) ** alpha, gens[alpha]
            lhs = lhs + normalize_sum(path, [(RawTensor(path, (c, one)), sign)])
            rhs = rhs + normalize_sum(path, [(RawTensor(path, (one, c)), sign)])
        yield lhs, rhs


def _run_two_sided_sum(letter, N, k, context):
    """The two-sided sums of ring k's generators of ``letter`` agree for
    every alpha <= 2N; ``_two_sided_sums`` steps both sides from one alpha
    to the next."""
    path, gens, _, _ = _excursion(N, k, letter)
    for alpha, (lhs, rhs) in enumerate(_two_sided_sums(context, path, gens, 2 * N + 1)):
        if lhs != rhs:
            return ("two-sided %s sum at alpha=%d: %s vs %s"
                    % (letter, alpha, lhs.render(), rhs.render()))
    return None


def _run_dot_slide(letter, N, k, context):
    path, gens, xi1, xi2 = _excursion(N, k, letter)
    top = len(gens) - 1
    lhs, rhs = _alternating_sums(path, [((xi1(top - ell + 1), g),
                                         (xi1(top - ell), g * xi2(1)))
                                        for ell, g in enumerate(gens)])
    if lhs != rhs:
        return ("dot slide (%s): %s vs %s"
                % (letter, lhs.render(), rhs.render()))
    return None


# --- (i) degree audit -----------------------------------------------------------------


def _context_generators(context):
    """Every generator map constructible at the context's ring index k."""
    N, k, gen = context.N, context.k, context.gen
    gens = []
    if k < N:
        up, down = _strands(N, k, "e", 1), _strands(N, k, "f", 1)
        gens += [gen(gen_dot, up, 1), gen(gen_cup, up, 0, "fe"),
                 gen(gen_dot, down, 1), gen(gen_cup, down, 1, "ef")]
    # the cap closing each excursion: up-down (fe), down-up (ef)
    for step, (lo, hi) in _EXCURSIONS.values():
        if lo <= k <= N + hi:
            gens.append(gen(gen_cap, FlagPath(N, (k, k + step, k), shift=1 - N), 1))
    gens += [gen(gen_cup, FlagPath(N, (k,)), 0, kind) for kind in ("fe", "ef")]
    if k + 2 <= N:
        gens += [gen(gen_crossing, _strands(N, k, letter, 2), 1) for letter in "ef"]
    return gens


def _run_degree_audit(N, k, context):
    n = 2 * k - N
    expected = {"dot": 2, "cross_up": -2, "cross_down": -2,
                "cup_fe": n + 1, "cap_fe": n + 1,
                "cup_ef": 1 - n, "cap_ef": 1 - n}
    for gen in _context_generators(context):
        if gen.domain.is_zero or gen.codomain.is_zero:
            continue   # nothing to audit; a zero cup is named "zero"
        stem = gen.name.split("@")[0]
        if stem not in expected:
            return "%s has no entry in the degree table" % gen.name
        if gen.degree != expected[stem]:
            return ("%s declares degree %d, table says %d"
                    % (gen.name, gen.degree, expected[stem]))
        ok, report = audit_degree(gen)
        if not ok:
            return report
    # composite suite diagrams must also measure at their declared degree
    composites = []
    if k < N:
        composites.extend(_zigzag(context, which, 0) for which in _ZIGZAGS)
        composites.append(_bubble(context, "cw", max(0, n - 1) + 1))
    if k < N - 1:
        path = FlagPath(N, (k, k + 1, k + 2))
        composites.append(compose_chain(context.gen(gen_dot, path, 1),
                                        context.gen(gen_crossing, path, 1)))
    for comp in composites:
        ok, report = audit_degree(comp)
        if not ok:
            return report
    return None


# --- (j) well-definedness (bimodule law) --------------------------------------------


def _run_well_definedness(N, k, context):
    """Every generator is a bimodule map, decided on the basis.

    A map extends right-linearly from its basis images, so the right law
    holds by construction; the left end ring is generated by its catalog,
    so the left law holds iff gen(g.b) = g.gen(b) for every basis vector b
    and catalog generator g.  The formula must also descend to the
    quotient: gen(v) = gen(nf(v)) on the xi-excess vectors, up to
    MAX_EXCESS past each bound.
    """
    # left multiplication by g on a path is the context's junction_mult map
    # at junction 0 (on an identity path, the right action): its image memo
    # serves every basis vector and generator at k; it takes a basis vector
    # as it is, so no element is built for the vector
    def left(g, path):
        return context.gen(junction_mult, path, 0, g)

    for gen in _context_generators(context):
        if gen.domain.is_zero or gen.codomain.is_zero:
            continue
        catalog = [Polynomial.gen(sym) for sym in sorted(gen.domain.junction(0).catalog())]
        for vec in basis(gen.domain):
            image = gen.apply_vec(vec)
            for g in catalog:
                if gen(left(g, gen.domain).apply_vec(vec)) != left(g, gen.codomain)(image):
                    return ("%s violates the bimodule law on %s with g=%s"
                            % (gen.name, normalize_xi_vector(gen.domain, vec).render(),
                               g.render()))
        for vec in _excess_vectors(gen.domain):
            if gen.apply_vec(vec) != gen(normalize_xi_vector(gen.domain, vec)):
                return "%s is not well defined on xi^%s" % (gen.name, list(vec))
    return None


# --- (k) non-nilpotency ----------------------------------------------------------------


def _one_step_paths(N, k):
    return [FlagPath(N, (k, k + step)) for step in (1, -1) if 0 <= k + step <= N]


def _evaluated(element, size):
    """The ``residue`` of each coefficient of a one-step element, by xi
    exponent 0 .. size - 1; None if a residue is undefined or an exponent
    is past that range."""
    out = [0] * size
    for (e,), coeff in _vector_terms(element):
        value = residue(coeff)
        if value is None or e >= size:
            return None
        out[e] = value
    return out


def _witnessed(dot, path, count):
    """True if the residues of dot^p on the unit of ``path`` are nonzero
    for p = 1 .. count (see ``_run_non_nilpotency``)."""
    size = path.bound(1) + 1
    columns = [_evaluated(dot.apply_vec((e,)), size) for e in range(size)]
    power = _evaluated(normalize_xi_vector(path, (0,)), size)
    if power is None or None in columns:
        return False
    for _ in range(count):
        power = [sum(column[row] * c for column, c in zip(columns, power) if c)
                 % RESIDUE_PRIME for row in range(size)]
        if not any(power):
            return False
    return True


def _run_non_nilpotency(N, k, context):
    """No power dot^p, p <= 4N, of the dot kills the unit of a one-step
    path.

    Decided first by an evaluation witness.  An element of the one-step
    path is a sum of xi^e times right-ring coefficients, e = 0 .. b, and
    a map applied to it sums each coefficient times the map's image of
    xi^e (``BimMap.__call__``).  So the exact stepping computes dot^p on
    the unit as M^p u, with M the (b + 1)^2 matrix of the coefficients
    of the dot's basis images and u the unit's coefficients.
    ``exactpoly.residue`` is a ring map from the polynomials (less the
    denominators its prime divides) into the integers mod that prime, so
    a nonzero residue of M^p u proves dot^p on the unit nonzero.  The
    witness is only read that way: if a residue vector vanishes, or a
    residue is undefined, ``_non_nilpotency_exact`` runs, and it alone
    writes the verdict and the text.  (Reading a zero residue as zero
    would be the probabilistic identity test of Schwartz, JACM 1980.)
    """
    for path in _one_step_paths(N, k):
        if not _witnessed(context.gen(gen_dot, path, 1), path, 4 * N):
            return _non_nilpotency_exact(N, k, context)
    return None


def _non_nilpotency_exact(N, k, context):
    """Non-nilpotency by exact stepping: the powers are stepped from the
    unit by the context's dot, so only xi^(bound+1) is normalized from
    scratch."""
    for path in _one_step_paths(N, k):
        dot = context.gen(gen_dot, path, 1)
        power = normalize_xi_vector(path, (0,))
        for p in range(1, 4 * N + 1):
            power = dot(power)
            if power.is_zero():
                return "dot^%d vanishes on the unit of %s" % (p, path.render())
    return None


# --- (l) K0 shadow -----------------------------------------------------------------------


def _run_k0_shadow(N, k, context):
    n = 2 * k - N
    ef = compile_word(SignedWord(("E", "F"), n), N)
    fe = compile_word(SignedWord(("F", "E"), n), N)
    for path in (ef, fe):
        # independent oracle for the closed form: enumerate the basis
        enumerated = Laurent.zero()
        for vec in basis(path):
            enumerated = enumerated + Laurent.q_power(2 * sum(vec) + path.shift)
        if graded_rank(path) != enumerated:
            return ("graded rank disagrees with the basis enumeration on %s"
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


def _pair(stem, suite, sides, run, span):
    """The checks of one mirrored relation: one per side, named stem + side,
    running run(side, N, k, context)."""
    return [CheckSpec(stem + side, suite, span, partial(run, side)) for side in sides]


_CHECKS = [
    *_pair("biadjointness_zigzag_", "biadjointness", _ZIGZAGS, partial(_run_zigzag, 0),
           (0, -1)),
    *_pair("dot_cyclicity_", "dot_cyclicity", _ZIGZAGS, partial(_run_zigzag, 1),
           (0, -1)),
    *_pair("crossing_duality_", "crossing_duality", _DUALITIES, _run_duality, (0, -2)),
    *_pair("bubble_diagram_", "bubbles", _BUBBLES, _run_bubble_diagram, (0, 0)),
    CheckSpec("bubble_vanishing", "bubbles", (0, 0), _run_bubble_vanishing),
    CheckSpec("bubble_unit", "bubbles", (0, 0), _run_bubble_unit),
    *_pair("nilhecke_crossing_squared_", "nilhecke", ("ee", "ff"),
           _run_crossing_squared, (0, -2)),
    *_pair("nilhecke_exchange_", "nilhecke", ("ee", "ff"), _run_exchange, (0, -2)),
    *_pair("nilhecke_braid_", "nilhecke", ("eee", "fff"), _run_braid, (0, -3)),
    *_pair("reduction_to_bubbles_", "reduction_to_bubbles", _REDUCTIONS, _run_reduction,
           (0, -1)),
    *(CheckSpec("identity_decomposition_" + kind, "identity_decomposition",
                _DECOMPOSITIONS[kind][-1], partial(_run_identity_decomposition, kind))
      for kind in _DECOMPOSITIONS),
    *_pair("series_delta_", "ring_identities", ("xY", "Xy"), _run_series, (0, 0)),
    CheckSpec("bubble_series_product", "ring_identities", (0, 0),
              partial(_run_series, "bubble_product")),
    *_pair("class_slide_", "ring_identities", ("x", "y"), _run_class_slide, (0, -1)),
    *_pair("xi_expansion_", "ring_identities", ("x", "y"), _run_xi_expansion, (0, -1)),
    *(CheckSpec(stem + letter, "ring_identities", _EXCURSIONS[letter][1],
                partial(run, letter))
      for stem, run in (("two_sided_sum_", _run_two_sided_sum),
                        ("dot_slide_", _run_dot_slide))
      for letter in _EXCURSIONS),
    CheckSpec("degree_audit", "degree_audit", (0, 0), _run_degree_audit),
    CheckSpec("well_definedness", "well_definedness", (0, 0), _run_well_definedness),
    CheckSpec("non_nilpotency", "non_nilpotency", (0, 0), _run_non_nilpotency),
    CheckSpec("k0_shadow", "k0_shadow", (0, 0), _run_k0_shadow),
]

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

SUITE_ORDER = tuple(MANIFEST)

SUITE_LETTERS = dict(zip("abcdefghijkl", SUITE_ORDER))


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

    The loop is k-major: for k = 0 .. N it runs each selected check that
    admits k, in ``_CHECKS`` order, and ``progress`` (if given) sees each
    result in that order.  The checks at k share one ``_Context``, made
    for k and dropped when k ends, so no more than one k's generator maps
    and class tables is held.  Failures become report entries; nothing
    raises for a false relation.  Results are ordered by check name and
    context so that reports are byte-stable up to the timing fields.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError("N must be a positive integer")
    if N > max_rank:
        raise ValueError("N=%s exceeds the configured maximum %s"
                         % (render_int(N), render_int(max_rank)))
    if N - 1 > MAX_EXPONENT:   # a basis vector's xi exponent reaches N - 1
        raise ValueError("N=%s cannot be verified: basis exponents reach N - 1, "
                         "past the limit %d" % (render_int(N), MAX_EXPONENT))
    chosen = resolve_suites(suites)
    report = VerifyReport(N=N, suites=chosen)
    specs = []
    for spec in _CHECKS:
        if spec.suite not in chosen:
            continue
        if spec.contexts(N):
            specs.append(spec)
            continue
        lo, hi = spec.span
        report.results.append(CheckResult(
            spec.name, N, None, "skipped", reason="requires N >= %d" % (lo - hi)))
    for k in range(0, N + 1):
        context = _Context(N, k)
        for spec in [spec for spec in specs if k in spec.contexts(N)]:
            started = time.perf_counter()
            try:
                counterexample = spec.run(N, k, context)
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
