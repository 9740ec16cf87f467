"""A pinned digest of normal forms: rewriting changes must not move them.

Two seeded random raw tensors on every flag path with N <= 3 and at most
four steps (192 tensors), each normalized left to right and rendered.  The
sha256 of the rendered lines is pinned, so a change to the rewriting
kernel, the polynomial core or the xi-power tables that alters any normal
form, its term order aside, fails here.  A change that alters normal forms
on purpose (or the render format) must say so and update ``DIGEST``; print
``hashlib.sha256(_rendered().encode()).hexdigest()`` to get the new one.
"""

import hashlib
import random

from catsl2.bimodules import normalize

from helpers import all_paths, random_raw_tensor

TENSORS_PER_PATH = 2
DIGEST = "147a86caa795665642cbcbe63eb24ef4361b1e2a8e0cd3de052934479c08c5b5"


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


def test_normal_forms_match_the_pinned_digest():
    assert hashlib.sha256(_rendered().encode()).hexdigest() == DIGEST
