"""Shared generators for randomized engine tests (all deterministically seeded)."""

import random
import sys
import threading
import types
from fractions import Fraction
from functools import lru_cache

from catsl2 import bimodules, exactpoly, grassrings, twomorphisms

from catsl2.exactpoly import (
    FIELD_BITS,
    FIELD_MASK,
    KIND_X,
    KIND_XI,
    KIND_Y,
    Polynomial,
    mono_pairs,
    sum_of_products,
    x_sym,
    xi_sym,
    y_sym,
)
from catsl2.bimodules import (
    BimElement,
    FlagPath,
    RawTensor,
    _entry,
    _factor,
    _vector_terms,
    basis,
    normalize,
)
from catsl2.diagramlang import TOKEN_SHAPES
from catsl2.grassrings import step_catalog
from catsl2.twomorphisms import (
    BimMap,
    compile_word,
    compose_chain,
    gen_cap,
    gen_crossing,
    gen_cup,
    gen_dot,
    identity_map,
)


def record_new_maps(monkeypatch):
    """The list every BimMap built from here on is appended to, in order."""
    built = []
    init = BimMap.__init__

    def recording_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BimMap, "__init__", recording_init)
    return built


def record_polynomials_built(monkeypatch, functions):
    """The lists every ``Polynomial`` built from here on is noted in.

    A polynomial is built by ``Polynomial(...)`` or by ``exactpoly._make``
    (both are wrapped, ``_make`` in every module that imports it).  Its
    builder is the nearest frame outside ``exactpoly``.  Returns
    ``(every, inside)``: the code names of the builders of every
    polynomial, and of those whose builder is one of ``functions`` or code
    nested in one of them (a generator or a local function).
    """
    codes, stack = set(), [f.__code__ for f in functions]
    while stack:
        code = stack.pop()
        codes.add(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    every, inside = [], []

    def note():
        frame = sys._getframe(2)
        while frame.f_code.co_filename == exactpoly.__file__:
            frame = frame.f_back
        every.append(frame.f_code.co_name)
        if frame.f_code in codes:
            inside.append(frame.f_code.co_name)

    init, make = Polynomial.__init__, exactpoly._make

    def noting_init(self, *args, **kwargs):
        note()
        init(self, *args, **kwargs)

    def noting_make(terms):
        note()
        return make(terms)

    monkeypatch.setattr(Polynomial, "__init__", noting_init)
    for module in (exactpoly, bimodules, twomorphisms):
        if getattr(module, "_make", None) is make:
            monkeypatch.setattr(module, "_make", noting_make)
    return every, inside


def by_vector(element):
    """An element's packed terms read as {xi-exponent vector: coefficient
    polynomial}, built on demand."""
    return dict(_vector_terms(element))


def xgen(index, weight):
    return Polynomial.gen(x_sym(index, weight))


def ygen(index, weight):
    return Polynomial.gen(y_sym(index, weight))


def xigen(position=1, exp=1):
    return Polynomial.gen(xi_sym(position), exp)


def identity_path(N, k, shift=0):
    return FlagPath(N, (k,), shift)


def as_polynomials(terms):
    """In-flight terms with every settled (int) entry written as its xi-power."""
    return [(tuple(xigen(i, f) if type(f) is int else f
                   for i, f in enumerate(factors, start=1)), coeff)
            for factors, coeff in terms]


@lru_cache(maxsize=None)
def _measure_fields(f) -> tuple:
    """Bit offsets of the left- and right-junction fields of a factor
    record: its image table's keys other than the xi field, and the fields
    of its rest mask."""
    left = tuple(s for s in f.images if s != f.shift)
    right = tuple(s for s in range(0, f.rest.bit_length(), FIELD_BITS)
                  if f.rest >> s & FIELD_MASK)
    return left, right


def rewrite_measure(path: FlagPath, terms) -> tuple:
    """Lexicographic termination measure of an in-flight rewriting state.

    ``terms`` is a list of in-flight terms (see ``bimodules.normalize``);
    a factor may also be given as the polynomial of a settled xi-power.
    Per factor i the tuple (L, E, R, D) counts, over all terms: exponents of
    left-junction generators, xi-excess above the factor bound, exponents
    of right-junction generators, and a settledness flag.  A settled
    factor adds nothing.  The counts read the packed exponent fields of
    factor i's step-ring generators, the only ones a factor can hold.

    Each factor-clearing step zeroes factor i's tuple while only factor
    i+1 grows, so states decrease strictly in the product lexicographic
    order when factors are cleared left to right.  In any other order a
    step copies the unsettled factors left of i into every new term, and
    the decreasing quantity is the multiset of per-term measures
    ``rewrite_measure(path, [term])``: each step replaces a term by terms
    of smaller measure.
    """
    m = path.num_factors
    records = [_factor(path, i) for i in range(1, m + 1)]
    fields = [_measure_fields(f) for f in records]
    totals = [[0, 0, 0, 0] for _ in range(m)]
    for factors, _ in terms:
        for poly, f, (left, right), entry in zip(factors, records, fields, totals):
            if type(poly) is int:
                continue
            for mono in poly.terms:
                entry[0] += sum(mono >> s & FIELD_MASK for s in left)
                entry[1] += max(0, (mono >> f.shift & FIELD_MASK) - f.bound)
                entry[2] += sum(mono >> s & FIELD_MASK for s in right)
            if type(_entry(poly, f)) is not int:
                entry[3] = 1
    return tuple(tuple(t) for t in totals)


def rewrite_measure_reference(path, terms):
    """``rewrite_measure`` by decoding every monomial into symbol pairs.

    Every factor must be a polynomial (see ``as_polynomials``).  Left-kind
    symbols count toward L, xi_i's excess over the bound toward E, every
    other non-xi symbol toward R, and a factor that is not a monic bounded
    xi-power sets D.
    """
    m = path.num_factors
    totals = [[0, 0, 0, 0] for _ in range(m)]
    for factors, _ in terms:
        for i in range(1, m + 1):
            entry = totals[i - 1]
            poly = factors[i - 1]
            left_kind = KIND_X if path.is_up(i) else KIND_Y
            for mono in poly.terms:
                for sym, exp in mono_pairs(mono):
                    if sym.kind == KIND_XI:
                        entry[1] += max(0, exp - path.bound(i)) if sym.index == i else 0
                    elif sym.kind == left_kind:
                        entry[0] += exp
                    else:
                        entry[2] += exp
            settled = (len(poly.terms) == 1 and 1 in poly.terms.values()
                       and all(sym == xi_sym(i) and exp <= path.bound(i)
                               for mono in poly.terms for sym, exp in mono_pairs(mono)))
            if not settled:
                entry[3] = 1
    return tuple(tuple(t) for t in totals)


def relation_gens(ring, up):
    """The generators g_1, g_2, ... of a factor's monic xi relation."""
    if up:
        return [ring.upper.x(t) for t in range(1, ring.j + 2)]
    return [ring.lower.y(t) for t in range(1, ring.N - ring.j + 1)]


# (N, j, up, i) -> [xi^0, xi^1, ...] reduced, as ``reduce_xi_reference``
# extends it
_REFERENCE_POWERS: dict = {}


def reduce_xi_reference(poly: Polynomial, path, i) -> Polynomial:
    """``poly`` with the xi-powers of factor i of ``path`` above its bound
    reduced, term by term, with no factor record.

    Each term above the bound is multiplied by its reduced xi-power, from
    a table of its own filled by the recurrence of the monic relation,
    xi^d = sum_t (-1)^(t+1) g_t * xi^(d-t).
    """
    ring, up, bound = path.step_ring(i), path.is_up(i), path.bound(i)
    xi = xi_sym(i)
    powers = _REFERENCE_POWERS.setdefault(
        (path.N, ring.j, up, i), [Polynomial.gen(xi, d) for d in range(bound + 1)])
    signed = [g if t % 2 else -g for t, g in enumerate(relation_gens(ring, up), start=1)]
    exps = [dict(mono_pairs(mono)).get(xi, 0) for mono in poly.terms]
    for d in range(len(powers), max(exps, default=0) + 1):
        powers.append(sum_of_products((g, powers[d - t])
                                      for t, g in enumerate(signed, start=1)))
    return sum_of_products(
        (Polynomial({mono: coeff}).substitute({xi: Polynomial.one()}), powers[e])
        for (mono, coeff), e in zip(poly.terms.items(), exps))


def linear_sum_reference(path, parts):
    """``linear_sum`` in ``Polynomial`` arithmetic, one product per scaled
    coefficient and one ``+`` per repeated vector."""
    acc = {}
    for element, c in parts:
        if element.path != path:
            raise ValueError("elements live in different bimodules: %s vs %s"
                             % (path.render(), element.path.render()))
        terms = by_vector(element).items()
        if c != 1:
            terms = [(vec, coeff * c) for vec, coeff in terms]
        for vec, coeff in terms:
            prev = acc.get(vec)
            acc[vec] = coeff if prev is None else prev + coeff
    return BimElement(path, acc)


def series_invert(components, bound):
    """Invert a graded power series given by homogeneous components.

    ``components[d]`` is the degree-2d piece of a series with constant term
    1; the result lists the components ``b[0..bound]`` of the inverse, so
    that sum(components[i] * b[d-i] for i) vanishes for 0 < d <= bound.
    A reference for the special classes, which are the inverses of the
    generating series of the x's and y's; ``test_series_invert_matches_sympy``
    checks it against sympy.
    """
    comps = list(components)
    if not comps or comps[0] != Polynomial.one():
        raise ValueError("series inversion needs constant term 1")

    def comp(i):
        return comps[i] if i < len(comps) else Polynomial.zero()

    inverse = [Polynomial.one()]
    for d in range(1, bound + 1):
        inverse.append(-sum_of_products((comp(i), inverse[d - i])
                                        for i in range(1, d + 1)))
    return inverse


def bubble_product_reference(ctx, bound):
    """``check_series_identity(ctx, "bubble_product", bound)`` as the direct
    convolution: sum_i cw[i] * ccw[d-i] == delta(d, 0) degree by degree,
    the two dense bubble series multiplied out.  It reads the values
    through ``grassrings.bubble_value``, so a patched copy reaches it."""
    cw = [grassrings.bubble_value(ctx, "cw", a) for a in range(bound + 1)]
    ccw = [grassrings.bubble_value(ctx, "ccw", a) for a in range(bound + 1)]
    for d in range(bound + 1):
        acc = sum_of_products((cw[i], ccw[d - i]) for i in range(d + 1))
        if acc != (Polynomial.one() if d == 0 else Polynomial.zero()):
            return False, "bubble product failed at degree %d: %s" % (d, acc.render())
    return True, None


def broken_bubble_value(defect):
    """A copy of ``bubble_value`` with one defect from alpha = 1 on: its
    sign flipped at alpha = 1, its ``ell = alpha`` term dropped, or its
    class index off by one.  The value at alpha = 0 stays 1."""
    def broken(ctx, orientation, alpha):
        if alpha < 0:
            return Polynomial.zero()
        letter, family = grassrings._BUBBLE_SERIES[orientation]
        hit = alpha >= 1
        ells = range(alpha if defect == "dropped_term" and hit else alpha + 1)
        off = 1 if defect == "index_off_by_one" and hit else 0
        acc = sum_of_products((ctx.gen(letter, ell),
                               grassrings.special_class(ctx, family, alpha - ell + off))
                              for ell in ells)
        flip = alpha % 2 != (defect == "sign_at_1" and alpha == 1)
        return -acc if flip else acc
    return broken


def perturbed_bubble_value(seed, at_zero):
    """A copy of ``bubble_value`` that adds a seeded term c * m to one to
    three values per context: c a nonzero rational, m a product of up to
    three of the context's generators (or 1).  The choice depends only on
    ``seed``, N and k; with ``at_zero`` the first perturbed value is one
    of degree 0."""
    value = grassrings.bubble_value

    def hits(ctx):
        rng = random.Random("bubble/%d/%d/%d" % (seed, ctx.N, ctx.k))
        gens = ctx.gens("x")[1:] + ctx.gens("y")[1:]
        out = {}
        for i in range(rng.randint(1, 3)):
            alpha = 0 if at_zero and i == 0 else rng.randint(0, 2 * ctx.N)
            term = Polynomial.one() * rng.choice((-2, -1, Fraction(1, 2), 1, 3))
            for _ in range(rng.randint(0, 3) if gens else 0):
                term = term * rng.choice(gens)
            key = (rng.choice(("cw", "ccw")), alpha)
            out[key] = out.get(key, Polynomial.zero()) + term
        return out

    def perturbed(ctx, orientation, alpha):
        return value(ctx, orientation, alpha) + hits(ctx).get((orientation, alpha), 0)
    return perturbed


def sum_of_products_reference(pairs):
    """``sum_of_products`` as the loop it replaced: one ``Polynomial``
    product and one ``+`` per pair."""
    acc = Polynomial.zero()
    for a, b in pairs:
        acc = acc + a * b
    return acc


class SetdefaultOnly(dict):
    """A dict whose plain item assignment raises: a memo swapped for one
    shows that every entry is added with ``setdefault``, which keeps the
    first of two racing threads' entries (``dict.setdefault`` does not
    call ``__setitem__``)."""

    def __setitem__(self, key, value):
        raise AssertionError("plain assignment to a setdefault-only memo: %r" % (key,))


def call_in_threads(fn, indices, threads=4, timeout=60):
    """Call ``fn(i)`` for every i of ``indices`` in each of ``threads``
    threads at once, switching threads as often as the interpreter allows.

    Returns the ``(i, fn(i))`` pairs of every thread; raises if a thread
    did not finish within ``timeout`` seconds or did not return them all.
    """
    indices = list(indices)
    start = threading.Barrier(threads, timeout=timeout)
    got = [[] for _ in range(threads)]

    def run(out):
        start.wait()
        out.extend((i, fn(i)) for i in indices)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(out,)) for out in got]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers), "a thread did not finish"
    assert all(len(out) == len(indices) for out in got), "a thread failed"
    return [pair for out in got for pair in out]


def map_matrix(f):
    """Images of the domain basis under a map, as {(out_vec, in_vec): coefficient}."""
    return {(out_vec, vec): coeff
            for vec in basis(f.domain)
            for out_vec, coeff in by_vector(f.apply_vec(vec)).items()}


# The symmetry omega of the flag side (Grassmannian duality, the E <-> F
# symmetry on the diagram side): ring k becomes N - k, so up- and down-steps
# swap and every factor keeps its xi bound, and x[t]@n <-> y[t]@-n with every
# xi fixed.  It is an oracle for the rewriting, which never uses it.


def omega_path(path):
    return FlagPath(path.N, tuple(path.N - r for r in path.rings), path.shift)


def omega_poly(poly):
    swap = {KIND_X: y_sym, KIND_Y: x_sym}
    return poly.substitute({sym: Polynomial.gen(swap[sym.kind](sym.index, -sym.weight))
                            for sym in poly.symbols() if sym.kind in swap})


def all_paths(N, max_steps):
    """Every valid flag path with 1..max_steps unit steps inside [0, N]."""
    found = []

    def extend(rings):
        if len(rings) > 1:
            found.append(tuple(rings))
        if len(rings) == max_steps + 1:
            return
        for step in (1, -1):
            nxt = rings[-1] + step
            if 0 <= nxt <= N:
                extend(rings + [nxt])

    for k0 in range(N + 1):
        extend([k0])
    return [FlagPath(N, rings) for rings in found]


# Two walks of a diagram's layers that count the strands each token
# produces to find its factor, independent of the places the type check
# gives ``compile_diagram``.


def compile_by_layer_walk(ast):
    """``compile_diagram`` by counting produced strands: one chain of every
    layer's generators, bottom to top.

    Tokens address displayed strands left to right; with m factors on the
    current path, the strand after ``produced`` fixed output strands of its
    layer is factor ``m - produced`` and the insertion gap there is
    junction ``m - produced``.
    """
    path = compile_word(ast.domain, ast.N)
    gens = []
    for layer in ast.layers:
        produced = 0
        for tok in layer:
            cur = gens[-1].codomain if gens else path
            r = cur.num_factors - produced
            stem, _, letters = tok.kind.partition("_")
            if stem == "dot":
                gens.append(gen_dot(cur, r))
            elif stem == "cross":
                gens.append(gen_crossing(cur, r - 1))
            elif stem == "cup":
                gens.append(gen_cup(cur, r, letters))
            elif stem == "cap":
                gens.append(gen_cap(cur, r - 1))
            produced += len(TOKEN_SHAPES[tok.kind][1])
    return compose_chain(*gens) if gens else identity_map(path)


def table_degree_sum(ast):
    """Independent degree bookkeeping from the generator table."""
    current = compile_word(ast.domain, ast.N)
    total = 0
    for layer in ast.layers:
        produced = 0
        for token in layer:
            m = current.num_factors
            r = m - produced
            kind = token.kind
            if kind.startswith("id"):
                produced += 1
            elif kind.startswith("dot"):
                total += 2
                produced += 1
            elif kind.startswith("cross"):
                total -= 2
                produced += 2
            elif kind.startswith("cup"):
                n = 2 * current.rings[r] - ast.N
                total += n + 1 if kind == "cup_fe" else 1 - n
                mid = current.rings[r] + (1 if kind == "cup_fe" else -1)
                current = current.insert_excursion(r, mid, 1 - ast.N)
                produced += 2
            else:
                n = 2 * current.rings[r - 2] - ast.N
                total += n + 1 if kind == "cap_fe" else 1 - n
                current = current.remove_excursion(r - 1, -(1 - ast.N))
    return total


def random_factor_poly(path, i, rng):
    """A small random canonical-content polynomial for factor i."""
    syms = sorted(step_catalog(path.N, path.step_ring(i).j, i))
    poly = Polynomial.zero()
    for _ in range(rng.randrange(1, 3)):
        term = Polynomial.const(rng.choice((1, 1, 2, -1)))
        for _ in range(rng.randrange(0, 3)):
            sym = syms[rng.randrange(len(syms))]
            if sym.kind == KIND_XI:
                exp = rng.randrange(1, path.bound(i) + 3)
            else:
                exp = rng.randrange(1, 3)
            term = term * Polynomial.gen(sym, exp)
        poly = poly + term
    return poly


def random_raw_tensor(path, rng):
    return RawTensor(path, tuple(random_factor_poly(path, i, rng)
                                 for i in range(1, path.num_factors + 1)))


def random_high_factor_poly(path, i, rng):
    """A random content polynomial for factor i with 2-4 distinct
    xi-degrees up to bound + 6, each times a coefficient and 0-2
    non-xi generators, so the xi reduction meets several high degrees."""
    bound = path.bound(i)
    gens = sorted(s for s in step_catalog(path.N, path.step_ring(i).j, i)
                  if s.kind != KIND_XI)
    poly = Polynomial.zero()
    for e in rng.sample(range(bound + 7), rng.randrange(2, 5)):
        term = Polynomial.const(rng.choice((1, 1, 2, -1, -3))) * xigen(i, e)
        for _ in range(rng.randrange(0, 3) if gens else 0):
            term = term * Polynomial.gen(gens[rng.randrange(len(gens))],
                                         rng.randrange(1, 3))
        poly = poly + term
    return poly


def rewrite_torture(args):
    """500 random tensors on one path: measure decrease plus confluence.

    Returns (path description, first failure or None).  Shaped for use
    with a process pool; the seed depends only on the path.
    """
    N, rings, count = args
    path = FlagPath(N, rings)
    rng = random.Random("torture:%d:%s" % (N, rings))
    for case in range(count):
        raw = random_raw_tensor(path, rng)
        measures = [rewrite_measure(path, [(raw.factors, Polynomial.one())])]
        ltr = normalize(raw, order="ltr",
                        on_step=lambda terms: measures.append(
                            rewrite_measure(path, terms)))
        for before, after in zip(measures, measures[1:]):
            if not after < before:
                return (path.render(),
                        "case %d: measure did not decrease: %s -> %s"
                        % (case, before, after))
        rtl = normalize(raw, order="rtl")
        if ltr != rtl:
            return (path.render(),
                    "case %d: strategies disagree: %s vs %s"
                    % (case, ltr.render(), rtl.render()))
    return (path.render(), None)
