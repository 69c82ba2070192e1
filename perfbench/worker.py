"""One repetition of one workload, in the interpreter it was spawned as.

``run.py`` spawns this script once per repetition, so every
repetition starts as a user's first invocation does: a fresh
interpreter, nothing imported, every program cache empty.  It prints
one JSON line: set-up and timed wall, the host-speed probe around the
call (``probe.py``), work units, peak memory, the output fingerprint
and any violated invariant.  With ``--trace`` the
program's layer seams are wrapped around the timed call only, the
per-layer metrics are added and the spans are written out at the end.

    PYTHONPATH=src python3 perfbench/worker.py --workload paper_repro --seed 1
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from typing import Any, Dict, Optional

import probe
from workloads import WORKLOADS

#: Spans written to the Chrome trace, in start order (the rest are only
#: aggregated, keeping the file small enough to open).
EXPORT_SPANS = 10000


def write_trace(tracer, path: str) -> None:
    """Write the first EXPORT_SPANS spans as a Chrome trace."""
    from repro.obs import Telemetry, write_chrome_trace

    hub = Telemetry(enabled=True)
    origin = tracer.starts[0]
    ids: Dict[int, int] = {}
    for index in range(min(EXPORT_SPANS, len(tracer.names))):
        ids[index] = hub.span(tracer.names[index], "host",
                              tracer.starts[index] - origin,
                              tracer.duration(index),
                              parent=ids.get(tracer.parents[index]))
    write_chrome_trace(hub, path)


def repetition(name: str, seed: int, spawned_ns: int, trace: bool,
               baseline_wall: float,
               trace_out: Optional[str]) -> Dict[str, Any]:
    """Set up, time and check one call of workload *name*."""
    workload = WORKLOADS[name]
    began = time.perf_counter()
    workload.load()
    loaded = time.perf_counter()
    inputs = workload.inputs(seed)
    built = time.perf_counter()
    result: Dict[str, Any] = {"import_s": loaded - began,
                              "inputs_s": built - loaded}
    if trace:
        from seams import install, layer_metrics
        from tracer import Tracer

        tracer = Tracer()
        result["missing_seams"] = install(tracer)
        try:
            with tracer.span(f"workload.{name}") as root:
                output = workload.run(inputs)
        finally:
            tracer.uninstall()
        wall = tracer.duration(root)
    else:
        result["setup_s"] = (time.monotonic_ns() - spawned_ns) / 1e9
        # The host's speed just before and just after the call.
        before = probe.measure()
        start = time.perf_counter()
        output = workload.run(inputs)
        wall = time.perf_counter() - start
        result["probe_s"] = (before + probe.measure()) / 2
    outcome = workload.check(inputs, output)
    result.update({
        "wall_s": wall,
        "units": outcome.units,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "fingerprint": outcome.fingerprint,
        "violations": outcome.violations,
    })
    if trace:
        result["layers"] = layer_metrics(tracer, root, outcome.stats,
                                         baseline_wall or wall)
        if trace_out:
            write_trace(tracer, trace_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-ns", type=int, default=None,
                        help="CLOCK_MONOTONIC ns at which the parent spawned "
                             "this process (default: now)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline-wall", type=float, default=0.0,
                        help="untraced median wall of the timed call (s)")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's spans to this file")
    args = parser.parse_args(argv)
    spawned = args.spawned_ns if args.spawned_ns is not None \
        else time.monotonic_ns()
    try:
        result = repetition(args.workload, args.seed, spawned, args.trace,
                            args.baseline_wall, args.trace_out)
    except Exception:  # the boundary: report the failure, never hang
        traceback.print_exc()
        result = {"error": traceback.format_exc(limit=-1).strip()}
    print(json.dumps(result, sort_keys=True))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
