"""Benchmark of catsl2: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``BENCHMARK.json`` there names the
workloads and metrics.  Every repetition runs in a fresh interpreter
(``bench/child.py``), spawned one at a time from this process, so
catsl2's module-level memo tables start empty as they do for a user.

``--trace 0`` repeats the workload for about ``--seconds`` and reports
the end-to-end metrics as medians over the repetitions, plus set-up time
sampled by extra spawns that stop at the first timed call.  Times are in
reference seconds: wall time corrected for the speed of the shared host,
which a probe samples on the workload's own CPU while it runs (see
``pace.py``); the raw wall times are printed beside them.  ``--trace 1``
makes one untraced and two traced repetitions and reports the per-layer
metrics: calls and self time at each layer boundary, cache tables, per
suite time, and the tracing overhead.

The output oracle runs on every repetition, outside the timed section;
so does an output digest, which must be the same for every repetition.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit, the sampling details and the environment.  A full
record goes to ``.bench_out/``.  Exit code 0 when every oracle passed,
1 when one failed, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".bench_out"

MIN_REPS = 2            # timed repetitions per untraced run, at least
SETUP_SAMPLES = 11      # set-up samples per untraced run, at least
RUN_LIMIT_S = 170.0     # a run must end well inside 180 s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def preflight():
    """An error message if this directory cannot be benchmarked, else None."""
    for need in ("BENCHMARK.json", "src/catsl2/__init__.py", "docs/diagrams"):
        if not (ROOT / need).exists():
            return "missing %s under %s; run from a full checkout" % (need, ROOT)
    return None


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10, capture_output=True,
            text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def spawn(workload, seed, mode, size, deadline):
    """One child; returns its result dict with ``setup_s`` added, or an
    ``error`` entry.  The child is killed and reaped if it outlives the
    deadline."""
    started = _monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), workload, str(seed), mode, size],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return {"error": "%s repetition timed out" % mode}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return {"error": "child exited %d: %s" % (proc.returncode,
                                                   proc.stderr.strip()[-2000:])}
    result["raw_setup_s"] = result["t_first"] - started
    result["setup_s"] = ((result["raw_setup_s"] - result["setup_probe_s"])
                         * result["setup_speed"])
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return None


def _nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def timed_set(workload, seed, seconds, size, deadline):
    """Untraced repetitions for about ``seconds``, then set-up probes."""
    reps, errors = [], []
    begun = _monotonic()
    while True:
        rep = spawn(workload, seed, "run", size, deadline)
        (errors if "error" in rep else reps).append(rep)
        now = _monotonic()
        per_rep = (now - begun) / (len(reps) + len(errors))
        if now + per_rep > deadline - 20.0:
            break
        if len(reps) + len(errors) >= MIN_REPS and now - begun + per_rep > seconds:
            break
    setups = [(r["setup_s"], r["raw_setup_s"]) for r in reps]
    while len(setups) < SETUP_SAMPLES and _monotonic() < deadline - 20.0:
        probe = spawn(workload, seed, "setup", size, deadline)
        if "error" in probe:
            errors.append(probe)
            break
        setups.append((probe["setup_s"], probe["raw_setup_s"]))
    return reps, setups, errors


def end_to_end(reps, setups) -> tuple[dict, dict]:
    """The end-to-end metrics and a note on how each was sampled."""
    walls = [r["wall_s"] for r in reps]
    metrics = {"wall_s": _median(walls), "setup_s": _median([s for s, _ in setups]),
               "peak_rss_mb": _median([r["rss_mb"] for r in reps])}
    notes = {"wall_s": "reference s, median of %d repetitions; raw wall %.4g s, speed %.3g"
                       % (len(reps), _median([r["raw_wall_s"] for r in reps]),
                          _median([r["speed"] for r in reps])),
             "setup_s": "reference s, median of %d spawns; raw %.4g s"
                        % (len(setups), _median([raw for _, raw in setups])),
             "peak_rss_mb": "median ru_maxrss of %d repetitions" % len(reps)}
    sessions = [sorted(r["latencies_ms"]) for r in reps if r.get("latencies_ms")]
    if sessions:
        n = len(sessions[0])
        p = tail_percentile(n)
        metrics["query_ms.p50"] = _median([_median(s) for s in sessions])
        metrics["query_ms.tail"] = _median([_nearest_rank(s, p if p else 100.0)
                                            for s in sessions])
        notes["query_ms.p50"] = "median per repetition of %d queries, median of %d repetitions" % (
            n, len(sessions))
        notes["query_ms.tail"] = "p%s per repetition of %d queries, median of %d repetitions" % (
            p if p else 100, n, len(sessions))
    else:
        # a batch workload is one query: the command, answered by a verdict
        metrics["query_ms.p50"] = _median(walls) * 1000.0
        metrics["query_ms.tail"] = max(walls, default=0.0) * 1000.0
        notes["query_ms.p50"] = "one query per repetition: median of %d" % len(walls)
        notes["query_ms.tail"] = ("p100 (max) of %d repetitions; fewer than 11 "
                                  "samples leave no percentile with 10 beyond" % len(walls))
    return metrics, notes


def traced_set(workload, seed, size, deadline):
    """One untraced and two traced repetitions."""
    reps, errors = [], []
    for mode in ("run", "trace", "trace"):
        rep = spawn(workload, seed, mode, size, deadline)
        (errors if "error" in rep else reps).append(rep)
    return reps, errors


def per_layer(reps) -> tuple[dict, list]:
    """Per-layer metrics from [untraced, traced, traced] and any problems."""
    base, traced = reps[0], reps[1:]
    problems = []
    calls = [{k: v for k, v in t["trace"].items() if k.endswith(".calls")} for t in traced]
    if calls[0] != calls[1]:
        diff = sorted(k for k in calls[0] if calls[0][k] != calls[1].get(k))
        problems.append("traced calls counts differ between two runs: %s" % diff)
    metrics = dict(traced[0]["trace"])
    for key in metrics:
        if key.endswith(".self_s"):
            metrics[key] = _median([t["trace"][key] for t in traced])
    for table, info in base["caches"].items():
        for field in ("hit_ratio", "entries", "at_cap"):
            if field in info:
                metrics["%s.%s" % (table, field)] = info[field]
    for suite, secs in base["suite_s"].items():
        metrics["relationsuite.suite_s.%s" % suite] = secs
    metrics["trace_overhead_s"] = (_median([t["raw_wall_s"] for t in traced])
                                   - base["raw_wall_s"])
    return metrics, problems


def _fmt(value):
    return ("%.6g" % value) if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print("bench: %s" % problem, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("bench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    deadline = _monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    env = environment()
    env["loadavg_before"] = os.getloadavg()

    problems = []
    if args.trace:
        reps, errors = traced_set(args.workload, args.seed, args.size, deadline)
        values, notes = {}, {}
        if not errors:
            values, problems = per_layer(reps)
        declared = spec["per_layer"]
    else:
        reps, setups, errors = timed_set(args.workload, args.seed, args.seconds,
                                         args.size, deadline)
        values, notes = end_to_end(reps, setups) if reps else ({}, {})
        declared = spec["end_to_end"]
    env["loadavg_after"] = os.getloadavg()

    attempted = sum(r["attempted"] for r in reps) + len(errors)
    failed = sum(r["failed"] for r in reps) + len(errors)
    values["fail_ratio"] = failed / attempted if attempted else 1.0
    notes["fail_ratio"] = "%d failed of %d attempted items" % (failed, attempted)
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        problems.append("output digest differs between repetitions")
    problems.extend(e["error"] for e in errors)
    correct = bool(reps) and failed == 0 and not problems

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    print("workload %s  seed %d  trace %d  repetitions %d"
          % (args.workload, args.seed, args.trace, len(reps)))
    print("env %s" % json.dumps(env, sort_keys=True))
    print("digest %s  (%d repetitions)" % (",".join(digests) or "-", len(reps)))
    shown = [m["name"] for m in declared]
    if not args.trace:
        shown.append("fail_ratio")
    width = max(len(name) for name in shown)
    for name in shown:
        print("  %-*s  %-12s %-6s %s" % (width, name, _fmt(values.get(name, 0)),
                                        units[name], notes.get(name, "")))
    extra = sorted(set(values) - set(units))
    if extra:
        print("measured, not declared in BENCHMARK.json:")
        for name in extra:
            print("  %s  %s" % (name, _fmt(values[name])))
    for problem in problems:
        print("PROBLEM %s" % problem)

    record = {"args": vars(args), "env": env, "correct": correct,
              "attempted": attempted, "failed": failed, "digests": digests,
              "metrics": values, "notes": notes, "problems": problems,
              "repetitions": [{k: r[k] for k in ("wall_s", "raw_wall_s", "speed",
                                                  "setup_s", "raw_setup_s", "rss_mb",
                                                  "attempted", "failed")}
                              for r in reps]}
    out = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
