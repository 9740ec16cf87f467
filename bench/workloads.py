"""The four benchmark workloads: input generators, timed bodies, oracles.

Every workload is a class with three steps, run inside one child
interpreter (see ``child.py``):

* ``prepare(seed, size, workdir)`` builds the inputs: ``size`` is "full"
  for the benchmark and "tiny" for the self-test.  It is part of set-up,
  not of the timed section.  The seed reaches the generators only.
* ``run(inputs)`` is the timed section.  It calls into ``catsl2`` through
  module attributes looked up at call time, so the tracer's patches apply.
  An item that raises is recorded as a failure, never propagated.
* ``check(inputs, outputs)`` runs after the timed section.  It applies the
  output oracle to every item and returns the attempted and failed counts,
  the lines that feed the output digest, and the report text (if any).

Oracles are plain functions of a query and its captured output, so the
harness self-test can hand them corrupted outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIAGRAM_DIR = ROOT / "docs" / "diagrams"

def _cli_call(argv):
    """Run ``catsl2 <argv>`` in process; return (exit code, stdout, error)."""
    from catsl2 import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:   # a raising query is a failed item
        return None, out.getvalue(), repr(exc)
    return code, out.getvalue(), None


# ---------------------------------------------------------------------------
# relation-suite workloads: verify_n5 and ring_n7
# ---------------------------------------------------------------------------


def strip_millis(report_text: str) -> str:
    """The report JSON with every timing field removed, canonically dumped."""
    payload = json.loads(report_text)
    for entry in payload.get("checks", []):
        entry.pop("millis", None)
    return json.dumps(payload, sort_keys=True)


def report_oracle(report_text, exit_code=0):
    """(attempted, failed) for a report: every check passes, exit code 0.

    A check the inventory skips for lack of an admissible context (only
    at ranks below 3) is neither a pass nor a failure.
    """
    try:
        checks = json.loads(report_text)["checks"]
    except (ValueError, KeyError, TypeError):
        return 1, 1
    failed = sum(1 for c in checks if c.get("status") not in ("pass", "skipped"))
    if exit_code != 0 and failed == 0:
        failed = 1
    return max(len(checks), 1), failed


def suite_seconds(report_text) -> dict:
    """Per-suite sums of the report's own per-check millis, in seconds."""
    try:
        from catsl2.relationsuite import MANIFEST
    except ImportError:
        return {}
    suite_of = {name: suite for suite, names in MANIFEST.items() for name in names}
    totals = {suite: 0.0 for suite in MANIFEST}
    for entry in json.loads(report_text).get("checks", []):
        suite = suite_of.get(entry.get("check"))
        if suite is not None:
            totals[suite] += entry.get("millis", 0.0) / 1000.0
    return totals


class VerifyN5:
    """``catsl2 verify --N 5 --max-N 5`` on the full inventory, via the CLI."""

    name = "verify_n5"

    def prepare(self, seed, size, workdir):
        n = 5 if size == "full" else 1
        return ["verify", "--N", str(n), "--max-N", str(n), "--format", "json"]

    def run(self, argv):
        return _cli_call(argv)

    def check(self, argv, outputs):
        code, text, error = outputs
        if error is not None:
            return 1, 1, [error], None
        attempted, failed = report_oracle(text, code)
        return attempted, failed, [strip_millis(text)], text


class RingN7:
    """``run_suite(7, suites=["ring_identities"], max_rank=7)`` via the API."""

    name = "ring_n7"

    def prepare(self, seed, size, workdir):
        return 7 if size == "full" else 1

    def run(self, n):
        from catsl2 import relationsuite
        try:
            return relationsuite.run_suite(n, suites=["ring_identities"],
                                           max_rank=n).to_json(), None
        except Exception as exc:
            return None, repr(exc)

    def check(self, n, outputs):
        text, error = outputs
        if error is not None:
            return 1, 1, [error], None
        attempted, failed = report_oracle(text)
        return attempted, failed, [strip_millis(text)], text


# ---------------------------------------------------------------------------
# rewrite_random
# ---------------------------------------------------------------------------


def flag_paths(N, max_steps):
    """Every unit-step ring sequence in [0, N] with 1..max_steps steps."""
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
    return found


def factor_catalog(N, rings, i):
    """Sorted generator symbols of factor i and its xi-exponent bound."""
    from catsl2.exactpoly import x_sym, xi_sym, y_sym
    a, b = rings[i - 1], rings[i]
    j = min(a, b)
    nu = 2 * j - N
    syms = [x_sym(t, nu) for t in range(1, j + 1)]
    syms += [y_sym(t, nu + 2) for t in range(1, N - j)]
    syms.append(xi_sym(i))
    bound = j if b > a else N - j - 1
    return sorted(syms), bound


def random_factor_poly(N, rings, i, rng):
    """A small random canonical-content polynomial for factor i.

    The distribution is that of the rewriting torture test: one or two
    terms, each a coefficient in {1, 1, 2, -1} times up to two generator
    powers; xi powers run up to two past the factor bound.
    """
    from catsl2.exactpoly import KIND_XI, Polynomial
    syms, bound = factor_catalog(N, rings, i)
    poly = Polynomial.zero()
    for _ in range(rng.randrange(1, 3)):
        term = Polynomial.const(rng.choice((1, 1, 2, -1)))
        for _ in range(rng.randrange(0, 3)):
            sym = syms[rng.randrange(len(syms))]
            exp = (rng.randrange(1, bound + 3) if sym.kind == KIND_XI
                   else rng.randrange(1, 3))
            term = term * Polynomial.gen(sym, exp)
        poly = poly + term
    return poly


def rewrite_oracle(ltr, rtl) -> bool:
    """Both junction orders must reach the same normal form."""
    return ltr is not None and ltr == rtl


class RewriteRandom:
    """``normalize`` in both orders on seeded random raw tensors.

    All 96 flag paths with N <= 3 and at most 4 steps, TENSORS_PER_PATH
    tensors each (the torture test uses 500).  The cost of a tensor is
    heavy-tailed (the ten dearest of 768 carry about a fifth of the work),
    so the work of a batch differs from seed to seed: by a quartile spread
    of 14% at 8 tensors per path and 9% at 24.  Stratifying the draws on a
    fitted cost predictor did not narrow it; the batch size is the lever.
    """

    name = "rewrite_random"
    TENSORS_PER_PATH = 16

    def prepare(self, seed, size, workdir):
        from catsl2.bimodules import FlagPath, RawTensor
        ranks, per_path = ((1, 2, 3), self.TENSORS_PER_PATH) if size == "full" else ((1, 2), 1)
        raws = []
        for N in ranks:
            for rings in flag_paths(N, 4):
                rng = random.Random("rewrite:%d:%d:%s" % (seed, N, rings))
                path = FlagPath(N, rings)
                for _ in range(per_path):
                    raws.append(RawTensor(path, tuple(
                        random_factor_poly(N, rings, i, rng)
                        for i in range(1, len(rings)))))
        return raws

    def run(self, raws):
        from catsl2 import bimodules
        out = []
        for raw in raws:
            try:
                out.append((bimodules.normalize(raw, order="ltr"),
                            bimodules.normalize(raw, order="rtl")))
            except Exception:
                out.append((None, None))
        return out

    def check(self, raws, outputs):
        failed = sum(1 for ltr, rtl in outputs if not rewrite_oracle(ltr, rtl))
        lines = [ltr.render() if ltr is not None else "error"
                 for ltr, _ in outputs]
        return len(raws), failed, lines, None


# ---------------------------------------------------------------------------
# query_session
# ---------------------------------------------------------------------------


def word_rings(N, letters, weight):
    """Rings and shift of a word's flag path (rightmost letter acts first)."""
    k = (weight + N) // 2
    rings, shift = [k], 0
    for letter in reversed(letters):
        cur = rings[-1]
        if letter == "E":
            shift += 1 - N + cur
            rings.append(cur + 1)
        else:
            shift += 1 - cur
            rings.append(cur - 1)
    return tuple(rings), shift


def rank_bounds(N, rings):
    """Per-factor xi-exponent bounds, or None for the zero bimodule."""
    if any(r < 0 or r > N for r in rings):
        return None
    return [min(a, b) if b > a else N - min(a, b) - 1
            for a, b in zip(rings, rings[1:])]


def closed_form_rank(N, letters, weight) -> dict:
    """q^shift * prod_i (1 + q^2 + ... + q^(2 b_i)), as {exponent: coeff}."""
    rings, shift = word_rings(N, letters, weight)
    bounds = rank_bounds(N, rings)
    if bounds is None:
        return {}
    poly = {shift: 1}
    for b in bounds:
        nxt: dict = {}
        for e, c in poly.items():
            for t in range(b + 1):
                nxt[e + 2 * t] = nxt.get(e + 2 * t, 0) + c
        poly = nxt
    return poly


_LAURENT_TERM = re.compile(r"^(?:(\d+)\*)?(?:q(?:\^(-?\d+))?|(\d+))$")


def parse_laurent(text: str) -> dict | None:
    """Parse a rendered Laurent polynomial ("q^3 + 2*q - 1") to a dict,
    or None if any piece of the text is not a term."""
    pieces = re.split(r" ([+-]) ", text.strip())
    if pieces == ["0"]:
        return {}
    out: dict = {}
    for sign, body in zip(["+"] + pieces[1::2], pieces[0::2]):
        if body.startswith("-"):
            sign, body = "-", body[1:]
        m = _LAURENT_TERM.match(body)
        if m is None:
            return None
        if m.group(3) is not None:
            exp, coeff = 0, int(m.group(3))
        else:
            exp = int(m.group(2)) if m.group(2) is not None else 1
            coeff = int(m.group(1)) if m.group(1) is not None else 1
        out[exp] = out.get(exp, 0) + (-coeff if sign == "-" else coeff)
    return out


def _read_header(path: Path):
    header = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        m = re.match(r"^\s*(N|weight|domain)\s*=\s*(.+?)\s*$", line)
        if m:
            header[m.group(1)] = m.group(2)
    letters = () if header["domain"] == "1" else tuple(header["domain"].split())
    return int(header["N"]), letters, int(header["weight"])


def random_element(N, rings, rng) -> str:
    """A random element expression following docs/grammars.md."""
    m = len(rings) - 1

    def atoms(i):
        if m == 0:
            k = rings[0]
            return (["x[%d]" % t for t in range(1, k + 1)]
                    + ["y[%d]" % t for t in range(1, N - k + 1)])
        j = min(rings[i - 1], rings[i])
        return (["x[%d]" % t for t in range(1, j + 1)]
                + ["y[%d]" % t for t in range(1, N - j)] + ["xi"])

    def factor(i):
        pieces = []
        for _ in range(rng.randrange(1, 4)):
            pool = atoms(i)
            if not pool or rng.random() < 0.2:
                pieces.append(rng.choice(("2", "3", "1/2", "5/3")))
                continue
            atom = rng.choice(pool)
            if rng.random() < 0.4:
                atom += "^%d" % rng.randrange(2, 4)
            pieces.append(atom)
        return "*".join(pieces)

    terms = []
    for t in range(rng.randrange(1, 4)):
        body = " | ".join(factor(i) for i in range(1, max(m, 1) + 1))
        terms.append(body if t == 0 else rng.choice(("+ ", "- ")) + body)
    return " ".join(terms)


def random_diagram(rng):
    """A random well-typed .cat diagram: N <= 3, a domain of <= 3 letters,
    <= 4 layers, no word longer than MAX_WORD letters.

    Returns (N, domain letters, weight, file text)."""
    N = rng.randrange(1, 4)
    weight = 2 * rng.randrange(0, N + 1) - N
    word = [rng.choice("EF") for _ in range(rng.randrange(0, 4))]
    domain = tuple(word)
    lines = ["N = %d" % N, "weight = %d" % weight,
             "domain = %s" % (" ".join(word) if word else "1")]
    for _ in range(rng.randrange(1, 5)):
        tokens, produced, pos = [], [], 0
        while True:
            # a cup adds two letters to the layer's output
            if len(produced) + len(word) - pos + 2 <= MAX_WORD and rng.random() < 0.15:
                kind = rng.choice(("cup_fe", "cup_ef"))
                tokens.append(kind)
                produced.extend(("F", "E") if kind == "cup_fe" else ("E", "F"))
                continue
            if pos >= len(word):
                break
            here = word[pos]
            options = ["id", "dot"]
            if pos + 1 < len(word):
                pair = (word[pos], word[pos + 1])
                if pair in (("E", "E"), ("F", "F")):
                    options.append("cross")
                if pair in (("F", "E"), ("E", "F")):
                    options.append("cap")
            pick = rng.choice(options)
            if pick in ("id", "dot"):
                tokens.append("%s_%s" % (pick, here.lower()))
                produced.append(here)
                pos += 1
            elif pick == "cross":
                tokens.append("cross_" + (here * 2).lower())
                produced.extend(word[pos:pos + 2])
                pos += 2
            else:
                tokens.append("cap_" + (word[pos] + word[pos + 1]).lower())
                pos += 2
        lines.append("layer: " + " ".join(tokens))
        word = produced
    return N, domain, weight, "\n".join(lines) + "\n"


# Cost classes of the special/bubble queries.  A query's cost is set by
# (rank N, number of variables m of its recursion, alpha); the schedule
# fixes these, so every seed does the same work.  The seed picks, per
# rank, one of the two mirror images (X at k <-> Y at N-k, cw at k <->
# ccw at N-k), which cost the same, and the order of the whole session.
# Per rank: (m, alpha) for two special and two bubble queries; contexts
# within one rank are distinct, so no query is a memo hit on another.
_SPECIAL_SCHEDULE = {
    1: ((1, 4), (0, 2)), 2: ((2, 8), (1, 5)), 3: ((3, 12), (1, 7)),
    4: ((4, 16), (2, 9)), 5: ((5, 20), (2, 12)), 6: ((5, 24), (3, 14)),
    7: ((6, 20), (2, 28)), 8: ((6, 18), (3, 32)),
}
_BUBBLE_SCHEDULE = {
    1: ((0, 4), (1, 3)), 2: ((0, 8), (2, 6)), 3: ((2, 12), (3, 5)),
    4: ((1, 16), (3, 10)), 5: ((1, 20), (3, 9)), 6: ((2, 24), (4, 11)),
    7: ((4, 28), (5, 13)), 8: ((5, 24), (7, 16)),
}

# Rank-query size bands: (count, max basis size).  Each query draws words
# until its basis size lies in (0.85 * max, max]; the smallest band takes
# any size up to its max, zero bimodules included.  Narrow bands keep the
# enumeration work of a session within about 2% across seeds.
_RANK_BANDS = ((32, 16), (28, 256), (20, 4096), (16, 16384))

# The "about 10^5 vectors" case: one fixed 8-letter word at N = 8 with
# 86,400 basis vectors; the seed picks only its mirror image, which costs
# the same.  Its basis list sets the session's peak memory.  Drawn per
# seed from (85,000, 100,000] vectors, the query's own peak ranged over
# 12-22 MB, and the session's peak RSS with it.
_LARGEST_RANK = (8, tuple("FFEEEFEE"), -4)

# How many queries of each other kind a session holds.  With the bands
# above a session has 209 queries, so its p95 has 10 queries beyond it.
DOC_EVALS_PER_FILE = 10
GENERATED_EVALS = 40
# No word of a generated diagram is longer than this.  At six letters one
# eval in a few seeds' sessions took up to 1.4 s, 80% of a whole session,
# so the session's time swung with the seed; at four the generated evals
# of twenty seeds cost within a quartile distance of 16 ms.
MAX_WORD = 4


def _mirror_word(letters, weight):
    return tuple("F" if ch == "E" else "E" for ch in letters), -weight


def _rank_query(rng, max_size):
    lo = max_size * 85 // 100
    while True:
        N = rng.randrange(1, 9)
        count = rng.randrange(0, 9)
        letters = tuple(rng.choice("EF") for _ in range(count))
        weight = 2 * rng.randrange(0, N + 1) - N
        bounds = rank_bounds(N, word_rings(N, letters, weight)[0])
        size = 0
        if bounds is not None:
            size = 1
            for b in bounds:
                size *= b + 1
        if lo < size <= max_size or (max_size <= 16 and size <= max_size):
            return N, letters, weight


class QuerySession:
    """One client, closed loop: each query is sent when the last returns.

    A session is a seeded list of CLI queries answered by
    ``catsl2.cli.main`` in one process, so caches stay warm across it:
    ``eval`` of the docs diagrams and of generated diagrams, ``special``
    and ``bubble`` at N <= 8 with alpha <= 4N, and ``rank`` of words
    whose basis has at most 10^5 vectors.  Left out on purpose: alpha of
    about 1000 and more (RecursionError) and rank of long words at large
    N (E x 20 at N = 30 enumerates for minutes).  Either turns a whole run
    into a crash or a timeout; both are robustness defects that belong to
    their own tests, not to a timing mix.
    """

    name = "query_session"

    def prepare(self, seed, size, workdir: Path):
        rng = random.Random("query_session:%d" % seed)
        queries = []
        doc_count = DOC_EVALS_PER_FILE if size == "full" else 1
        for path in sorted(DIAGRAM_DIR.glob("*.cat")):
            N, letters, weight = _read_header(path)
            rings, _ = word_rings(N, letters, weight)
            for _ in range(doc_count):
                element = random_element(N, rings, rng)
                queries.append({"kind": "doc", "doc": path.stem, "element": element,
                                "argv": ["eval", "--diagram",
                                         str(path.relative_to(ROOT)),
                                         "--element", element, "--format", "json"]})
        for idx in range(GENERATED_EVALS if size == "full" else 2):
            N, letters, weight, text = random_diagram(rng)
            rings, _ = word_rings(N, letters, weight)
            target = workdir / ("generated_%03d.cat" % idx)
            target.write_text(text, encoding="utf-8")
            element = (random_element(N, rings, rng)
                       if rank_bounds(N, rings) is not None else "1")
            queries.append({"kind": "eval", "label": target.name,
                            "argv": ["eval", "--diagram",
                                     str(target.relative_to(ROOT)),
                                     "--element", element]})
        ranks = range(1, 9) if size == "full" else (1, 2)
        for N in ranks:
            mirror = rng.random() < 0.5
            for m, alpha in _SPECIAL_SCHEDULE[N]:
                family, k = ("Y", m) if mirror else ("X", N - m)
                queries.append({"kind": "special", "N": N, "k": k, "family": family,
                                "alpha": alpha,
                                "argv": ["special", "--N", str(N), "--k", str(k),
                                         "--family", family, "--alpha", str(alpha)]})
            for m, alpha in _BUBBLE_SCHEDULE[N]:
                orient, k = ("ccw", N - m) if mirror else ("cw", m)
                queries.append({"kind": "bubble", "N": N, "k": k, "orient": orient,
                                "alpha": alpha,
                                "argv": ["bubble", "--N", str(N), "--k", str(k),
                                         "--orient", orient, "--alpha", str(alpha)]})
        bands = _RANK_BANDS if size == "full" else ((2, 16),)
        ranks = [_rank_query(rng, max_size) for count, max_size in bands
                 for _ in range(count)]
        if size == "full":
            ranks.append(_LARGEST_RANK)
        for N, letters, weight in ranks:
            if rng.random() < 0.5:
                letters, weight = _mirror_word(letters, weight)
            queries.append({"kind": "rank", "N": N, "letters": letters,
                            "weight": weight,
                            "argv": ["rank", "--N", str(N), "--word",
                                     " ".join(letters) or "1",
                                     "--weight", str(weight), "--format", "json"]})
        # The largest rank query closes the session: its basis list is the
        # biggest transient allocation, and where it falls against the
        # warm caches would otherwise move the peak RSS from seed to seed.
        last = queries.pop()
        rng.shuffle(queries)
        return queries + [last]

    def spans(self, outputs):
        """(start, end) of every query, on the clock of ``pace``."""
        return [span for span, _ in outputs]

    def run(self, queries):
        from pace import clock
        outputs = []
        for q in queries:
            started = clock()
            result = _cli_call(q["argv"])
            outputs.append(((started, clock()), result))
        return outputs

    def check(self, queries, outputs):
        failed = 0
        lines = []
        for q, (_, result) in zip(queries, outputs):
            try:
                ok = query_oracle(q, result)
            except (ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
            # generated diagrams live in a per-process directory: name them
            # by file name so the digest does not depend on where they are
            argv = [q.get("label", a) if a.endswith(".cat") else a
                    for a in q["argv"]]
            lines.append("%s -> %s %s" % (" ".join(argv), result[0], result[1]))
        return len(queries), failed, lines, None


def query_oracle(q, result) -> bool:
    """Exit code 0, plus a kind-specific check of the output."""
    code, text, error = result
    if error is not None or code != 0:
        return False
    kind = q["kind"]
    if kind == "rank":
        got = parse_laurent(json.loads(text)["rank"])
        return got == closed_form_rank(q["N"], q["letters"], q["weight"])
    if kind == "doc":
        return doc_oracle(q, json.loads(text))
    if kind == "bubble":
        return bubble_oracle(q, text.strip())
    if kind == "special":
        return special_oracle(q, text.strip())
    return True


def doc_oracle(q, payload) -> bool:
    """zigzag is the identity, bubble multiplies by bubble_value, the
    crossing square is zero; dot.cat is checked by its exit code only."""
    if q["doc"] == "zigzag":
        return payload["image"] == payload["element"]
    if q["doc"] == "crossing_square":
        return payload["image"] == "0"
    if q["doc"] == "bubble":
        from catsl2.bimodules import FlagPath
        from catsl2.diagramlang import parse_element
        from catsl2.grassrings import GrassContext, bubble_value
        element = parse_element(q["element"], FlagPath(1, (0,)))
        want = element.right_mul(bubble_value(GrassContext(1, 0), "ccw", 0))
        return payload["image"] == want.render()
    return True


def bubble_oracle(q, rendered) -> bool:
    """Output equals the API value, and cw * ccw = 1 holds at degree alpha."""
    from catsl2.exactpoly import Polynomial
    from catsl2.grassrings import GrassContext, bubble_value
    ctx = GrassContext(q["N"], q["k"])
    if rendered != bubble_value(ctx, q["orient"], q["alpha"]).render():
        return False
    alpha = q["alpha"]
    acc = Polynomial.zero()
    for i in range(alpha + 1):
        acc = acc + bubble_value(ctx, "cw", i) * bubble_value(ctx, "ccw", alpha - i)
    return acc == (Polynomial.one() if alpha == 0 else Polynomial.zero())


def special_oracle(q, rendered) -> bool:
    """Output equals the API value, and the defining recursion holds."""
    from catsl2.exactpoly import Polynomial
    from catsl2.grassrings import GrassContext, special_class
    ctx = GrassContext(q["N"], q["k"])
    family, alpha = q["family"], q["alpha"]
    if rendered != special_class(ctx, family, alpha).render():
        return False
    mult = ctx.y if family == "X" else ctx.x
    acc = Polynomial.zero()
    for j in range(alpha + 1):
        acc = acc + mult(j) * special_class(ctx, family, alpha - j)
    return acc == (Polynomial.one() if alpha == 0 else Polynomial.zero())


WORKLOADS = {w.name: w for w in (VerifyN5(), RewriteRandom(), RingN7(), QuerySession())}
