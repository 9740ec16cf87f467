"""Self-test of the benchmark harness, at tiny sizes (about a minute).

    python3 bench/selftest.py

1. Every oracle accepts the real outputs of a tiny run of its workload and
   rejects each of several corrupted copies of them.
2. ``run.py`` prints every metric named in ``BENCHMARK.json`` with its
   unit, for every workload, traced and untraced, and its last line is a
   result object with exactly the agreed keys.
3. In a directory that holds only ``BENCHMARK.json`` and ``bench/``,
   ``run.py`` exits non-zero without printing a result.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src path above)

FAILURES = []


def expect(ok, label):
    print("%s  %s" % ("PASS" if ok else "FAIL", label))
    if not ok:
        FAILURES.append(label)


def _tiny(name, workdir):
    spec = workloads.WORKLOADS[name]
    inputs = spec.prepare(1, "tiny", workdir)
    return spec, inputs, spec.run(inputs)


def check_report_oracles(workdir):
    for name in ("verify_n5", "ring_n7"):
        spec, inputs, outputs = _tiny(name, workdir)
        attempted, failed, _, report = spec.check(inputs, outputs)
        expect(attempted > 1 and failed == 0, "%s: real report passes" % name)
        payload = json.loads(report)
        first = next(c for c in payload["checks"] if c["status"] == "pass")
        first["status"] = "fail"
        expect(workloads.report_oracle(json.dumps(payload))[1] == 1,
               "%s: a failed check is caught" % name)
        expect(workloads.report_oracle(report, exit_code=1)[1] == 1,
               "%s: exit code 1 is caught" % name)
        expect(workloads.report_oracle("not json")[1] == 1,
               "%s: an unreadable report is caught" % name)


def check_rewrite_oracle(workdir):
    from catsl2.bimodules import BimElement
    spec, inputs, outputs = _tiny("rewrite_random", workdir)
    attempted, failed, _, _ = spec.check(inputs, outputs)
    expect(attempted > 1 and failed == 0, "rewrite_random: ltr and rtl agree")
    ltr, rtl = outputs[0]
    unit = BimElement.basis_vector(rtl.path, (0,) * rtl.path.num_factors)
    expect(not workloads.rewrite_oracle(ltr, rtl + unit),
           "rewrite_random: a disagreeing rtl form is caught")
    expect(not workloads.rewrite_oracle(None, None),
           "rewrite_random: a raising normalize is caught")


def _corruptions(q, result):
    """Corrupted copies of one query's captured output."""
    code, text, error = result
    yield "exit code 1", (1, text, error)
    yield "raised", (None, text, "RuntimeError()")
    kind = q["kind"]
    if kind == "rank":
        payload = json.loads(text)
        payload["rank"] = payload["rank"] + " + q^99"
        yield "wrong rank", (code, json.dumps(payload), error)
    elif kind == "doc" and q["doc"] in ("zigzag", "bubble", "crossing_square"):
        payload = json.loads(text)
        payload["image"] = "(x[1]@-1) * (xi)" if payload["image"] == "0" else "0"
        yield "wrong image", (code, json.dumps(payload), error)
    elif kind in ("special", "bubble"):
        yield "wrong polynomial", (code, text.strip() + " + 7", error)


def check_query_oracles(workdir):
    spec, queries, outputs = _tiny("query_session", workdir)
    attempted, failed, _, _ = spec.check(queries, outputs)
    expect(attempted > 1 and failed == 0, "query_session: real outputs pass")
    seen = set()
    for q, (_, result) in zip(queries, outputs):
        label = q["kind"] + ("/" + q["doc"] if q["kind"] == "doc" else "")
        for what, bad in _corruptions(q, result):
            key = (label, what)
            if key in seen:
                continue
            seen.add(key)
            expect(not workloads.query_oracle(copy.deepcopy(q), bad),
                   "query_session %s: %s is caught" % (label, what))
    kinds = {k for k, _ in seen}
    expect({"rank", "special", "bubble", "doc/zigzag", "doc/bubble",
            "doc/crossing_square"} <= kinds, "query_session: every oracle exercised")


def check_printing():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--size", "tiny"], cwd=ROOT, capture_output=True, text=True,
                timeout=170)
            lines = proc.stdout.strip().splitlines()
            label = "%s trace %d" % (workload, trace)
            expect(proc.returncode == 0, "%s: exit code 0" % label)
            result = json.loads(lines[-1]) if lines else {}
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["correct"] is True,
                   "%s: result line has the agreed keys and is correct" % label)
            expect(sorted(result.get("metrics", {})) == sorted(m["name"] for m in declared),
                   "%s: result carries every declared metric" % label)
            body = lines[:-1]
            missing = [m["name"] for m in declared
                       if not any(line.split()[:1] == [m["name"]]
                                  and m["unit"] in line.split()[2:3] for line in body)]
            expect(not missing, "%s: every metric printed with its unit %s"
                   % (label, missing or ""))


def check_bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify_n5", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
            text=True, timeout=170)
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               "bare directory: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    workdir = ROOT / ".bench_out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_report_oracles(workdir)
        check_rewrite_oracle(workdir)
        check_query_oracles(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_printing()
    check_bare_directory()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
