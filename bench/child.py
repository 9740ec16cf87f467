"""One repetition of one workload, in a fresh interpreter.

    python3 bench/child.py <workload> <seed> <mode> <size>

``mode`` is ``run`` (untraced), ``trace`` (layer spans on) or ``setup``
(stop at the first timed call, to sample set-up time alone).  ``size``
is ``full`` or ``tiny``.  The child prints one JSON object on its last
line of stdout; everything catsl2 prints is captured inside it.  It runs
with the checkout root as working directory.

Times are read from CLOCK_MONOTONIC, which every process on the machine
shares, so the parent can subtract its own spawn time from ``t_first``.
The speed probe (``pace.py``) runs from the start of the child through
set-up and, untraced, through the timed section; times reported in
reference seconds are rescaled by it, and raw wall times go alongside.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402  (a sibling module; imported before catsl2 to time its import)

QUERY_WINDOW_S = 0.25   # a query's speed is taken over this much time around it


def main(argv) -> int:
    workload, seed, mode, size = argv[0], int(argv[1]), argv[2], argv[3]
    probe = pace.Pace()
    probe.start()
    # Importing the package, the CLI included, is part of set-up; it also
    # puts every module in place before the tracer patches their bindings.
    import catsl2.cli  # noqa: F401
    import tracer
    import workloads

    spec = workloads.WORKLOADS[workload]
    workdir = ROOT / ".bench_out" / ("tmp-%d" % os.getpid())
    workdir.mkdir(parents=True)
    try:
        inputs = spec.prepare(seed, size, workdir)
        t_first = pace.clock()
        setup = {"t_first": t_first,
                 "setup_speed": probe.speed(0.0, t_first),
                 "setup_probe_s": sum(d for _, d in probe.samples)}
        if mode == "setup":
            probe.stop()
            print(json.dumps(setup))
            return 0
        trace = None
        if mode == "trace":
            probe.stop()
            trace = tracer.Tracer()
            trace.install()
        t_start = pace.clock()
        outputs = spec.run(inputs)
        t_end = pace.clock()
        probe.stop()
        if trace is not None:
            trace.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        caches = tracer.cache_stats()   # before the oracles touch the caches
        attempted, failed, lines, report = spec.check(inputs, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = getattr(spec, "spans", None)
    result = dict(setup, **{
        "raw_wall_s": t_end - t_start,
        "wall_s": (probe.reference_seconds(t_start, t_end) if trace is None
                   else t_end - t_start),
        "speed": probe.speed(t_start, t_end) if trace is None else None,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "latencies_ms": ([probe.reference_seconds(a, b, QUERY_WINDOW_S) * 1000.0
                          for a, b in spans(outputs)]
                         if spans and trace is None else None),
        "suite_s": workloads.suite_seconds(report) if report else {},
        "caches": caches,
        "trace": trace.metrics() if trace is not None else None,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
