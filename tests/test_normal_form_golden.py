"""Pinned digests of normal forms: rewriting changes must not move them.

``DIGEST``: two seeded random raw tensors on every flag path with N <= 3
and at most four steps (192 tensors).  ``HIGH_DIGEST``: on every path
with N <= 4 and at most three steps, one tensor per factor (234 tensors)
in which that factor mixes 2-4 xi-degrees up to bound + 6 with generator
terms and every other factor is 1, so the xi reduction meets several
high degrees at once, which the xi-degrees of ``random_raw_tensor`` (at
most bound + 2) rarely give.  Each tensor is normalized left to right and
rendered, and the sha256 of the rendered lines is pinned, so a change to
the rewriting kernel, the polynomial core or the xi-power tables that
alters any normal form, its term order aside, fails here.  A change that alters normal forms on purpose (or the render
format) must say so and update the digests; print
``hashlib.sha256(_rendered().encode()).hexdigest()`` (or
``_rendered_high()``) to get the new one.
"""

import hashlib
import random

from catsl2.bimodules import RawTensor, normalize
from catsl2.exactpoly import Polynomial

from helpers import all_paths, random_high_factor_poly, random_raw_tensor

TENSORS_PER_PATH = 2
DIGEST = "147a86caa795665642cbcbe63eb24ef4361b1e2a8e0cd3de052934479c08c5b5"
HIGH_DIGEST = "06c9470561380574a22ae1577ba36fba2c6c0bae73ce2dc4f0a62116e04c87ec"


def _rendered():
    lines = []
    for N in (1, 2, 3):
        for path in all_paths(N, 4):
            rng = random.Random("golden:%d:%s" % (N, path.rings))
            for _ in range(TENSORS_PER_PATH):
                raw = random_raw_tensor(path, rng)
                lines.append("%s = %s" % (path.render(), normalize(raw).render()))
    assert len(lines) == 96 * TENSORS_PER_PATH
    return "\n".join(lines)


def _rendered_high():
    lines = []
    for N in (1, 2, 3, 4):
        for path in all_paths(N, 3):
            rng = random.Random("golden-high:%d:%s" % (N, path.rings))
            m = path.num_factors
            for high in range(1, m + 1):
                raw = RawTensor(path, tuple(
                    random_high_factor_poly(path, i, rng) if i == high
                    else Polynomial.one() for i in range(1, m + 1)))
                lines.append("%s = %s" % (path.render(), normalize(raw).render()))
    assert len(lines) == 234
    return "\n".join(lines)


def test_normal_forms_match_the_pinned_digest():
    assert hashlib.sha256(_rendered().encode()).hexdigest() == DIGEST


def test_high_xi_degree_normal_forms_match_the_pinned_digest():
    assert hashlib.sha256(_rendered_high().encode()).hexdigest() == HIGH_DIGEST
