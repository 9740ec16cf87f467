"""Pinned digests of generator images: kernel changes must not move them.

For every rank N <= 4 and ring index k, every generator map of
``relationsuite._context_generators`` at (N, k) (dots, cups, caps and
crossings) is applied to each vector of ``twomorphisms._decorated_vectors``
of its domain: the basis and its xi-excess bumps, the vectors that
``map_equals`` compares on.  Each image is rendered, and the sha256 of the
lines of one (N, k) is pinned.  A relation check that passes compares two
sides that agree, so a kernel change that moves both sides alike leaves
every report unchanged; it shows here.  A change that alters images on
purpose (or the render format) must say so and update the digests; print
``_digests()`` to get the new ones.
"""

import hashlib

from catsl2.relationsuite import _Context, _context_generators
from catsl2.twomorphisms import _decorated_vectors

DIGESTS = {
    "1/0": "2434cd47798c3be0372f437bf1554911523f28400f580f0e1dd0a91ddf62b444",
    "1/1": "d5f9f3a51728c000ed642b905638f0a98a121e1fbd9b0537dec63e82405ea1df",
    "2/0": "96b00ef85cc7cf9f4fd39e5fa442ac68b473a7b266fbf824123d73b582210983",
    "2/1": "cadf93c55460ee6404f5bebac93efd4c531ac3d9b60c9032924c83546927e3b2",
    "2/2": "de5184e2c6f81ce6adaa3b1305085500e104adb09cf7077fe350f06de267a03a",
    "3/0": "ac45fa75be48c13667c1473e5a41fd30e1638a5283f09aa5aaee9ce940642eba",
    "3/1": "fab0c10c351880368bc4f0ec4088225b08b496de25421139fa4a8acbfb9ca0d5",
    "3/2": "3c1c43bd8cae515e1f0aeaa038c042b29e7928648692cd2b5a000b4e3d32ee12",
    "3/3": "23a7683ea1aa85ae62396be9dddd604c2efd59ae4863b4875778dd13bba87b87",
    "4/0": "2b625f0f5c8ef03be5c6b88359961e4dc8614143e3a8afdd7664520feeb7c678",
    "4/1": "d7c87a3a01a79231cb564daef1258cbef4d53da9bb76b93722fee23ccb77b916",
    "4/2": "9fefa9dd083fd426c1715aad710fac5ea988eeb287803e427e6e58f8a94401df",
    "4/3": "c2f8d90d0914617cf916c1d8ffed6f360f4423cc5984d511e69324469847f963",
    "4/4": "309d636bc3dba0ed9f68a068b9568e4a1b32d216544b5e7962c2517a42e8f30b",
}


def _rendered(N, k):
    lines = []
    for gen in _context_generators(_Context(N, k)):
        for vec in _decorated_vectors(gen.domain):
            lines.append("%s %s -> %s %s = %s" % (
                gen.name, gen.domain.render(), gen.codomain.render(), vec,
                gen.apply_vec(vec).render()))
    return "\n".join(lines)


def _digests():
    return {"%d/%d" % (N, k): hashlib.sha256(_rendered(N, k).encode()).hexdigest()
            for N in range(1, 5) for k in range(N + 1)}


def test_generator_images_match_the_pinned_digests():
    assert sum(len(_rendered(N, k).splitlines())
               for N in range(1, 5) for k in range(N + 1)) == 582
    assert _digests() == DIGESTS
