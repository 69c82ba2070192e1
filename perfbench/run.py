"""Host-time benchmark of the reproduction: four user-facing workloads.

    python3 perfbench/run.py --workload chaos_sweep --seed 1 --seconds 35 --trace 0

Spawns one fresh interpreter (``worker.py``) per repetition for about
``--seconds`` seconds, checks every repetition's output against the pin
(or, on a non-default seed, against the invariants and the run's other
repetitions) and prints each metric by name with its unit.  The last
stdout line is the JSON result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics (medians
over the repetitions, throughput scaled by the host-speed probe of
``probe.py``); ``--trace 1`` adds one traced repetition and
reports the per-layer metrics instead.  Workloads, metrics and their
rationale are described in README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Tuple

from probe import REFERENCE_S
from seams import PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Repetitions a run makes even when --seconds is shorter than that.
MIN_REPS = 3
#: Host seconds a whole run may take; a repetition still running at
#: the end of them is killed and counted as failed.
RUN_BUDGET_S = 160.0

#: End-to-end metrics: name -> unit (see BENCHMARK.json for direction).
END_TO_END = {"throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # One caller on one thread: keep numpy's BLAS from fanning out.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(workload: str, seed: int, deadline: float,
          *extra: str) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter; its JSON result.

    The repetition is killed if it is still running at *deadline*
    (``time.monotonic()`` seconds).
    """
    command = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(seed), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic_ns()
    try:
        done = subprocess.run(command + ["--spawned-ns", str(spawned)],
                              cwd=ROOT, env=_worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"killed after {timeout:.0f} s",
                "elapsed_s": timeout}
    lines = done.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        rep = {"error": f"worker exited {done.returncode} without a result"}
    rep["elapsed_s"] = (time.monotonic_ns() - spawned) / 1e9
    return rep


def measure(workload: str, seed: int, seconds: float,
            deadline: float) -> List[Dict[str, Any]]:
    """Untraced repetitions until the next one would overrun *seconds*."""
    reps: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        reps.append(spawn(workload, seed, deadline))
        typical = statistics.median(rep["elapsed_s"] for rep in reps)
        if len(reps) >= MIN_REPS \
                and time.monotonic() - start + typical > seconds:
            return reps


def _canonical(fingerprint: Any) -> str:
    return json.dumps(fingerprint, sort_keys=True)


def judge(workload: str, seed: int, reps: List[Dict[str, Any]],
          pins: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over a run's repetitions.

    Operations are the workload's work units.  Every unit of a
    repetition that raised, broke an invariant or disagreed with the
    reference fingerprint counts as failed.  The reference is the pin
    where one applies (an unseeded workload, or the default seed) and
    otherwise the fingerprint most repetitions agree on.
    """
    finished = [rep for rep in reps if "error" not in rep]
    pinned = not WORKLOADS[workload].seeded or seed == DEFAULT_SEED
    if pinned:
        reference = _canonical(pins.get(workload))
    elif finished:
        votes = Counter(_canonical(rep["fingerprint"]) for rep in finished)
        reference = votes.most_common(1)[0][0]
    else:
        reference = None
    typical_units = statistics.median(
        [rep["units"] for rep in finished] or [1])
    attempted = failed = 0
    problems: List[str] = []
    for number, rep in enumerate(reps):
        units = int(rep.get("units", typical_units))
        attempted += units
        if "error" in rep:
            fault = rep["error"].splitlines()[-1]
        elif rep["violations"]:
            fault = "; ".join(rep["violations"])
        elif _canonical(rep["fingerprint"]) != reference:
            fault = (f"fingerprint {_canonical(rep['fingerprint'])} != "
                     f"{'pinned' if pinned else 'majority'} {reference}")
        else:
            continue
        failed += units
        problems.append(f"repetition {number}: {fault}")
    return attempted, failed, problems


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median end-to-end metrics over the finished repetitions.

    Times are in reference seconds: each repetition's wall and set-up
    are scaled by ``REFERENCE_S / probe_s``, which cancels the host speed
    drift common to them and the probe (see ``probe.py``).
    """
    finished = [rep for rep in reps if "error" not in rep]
    return {
        "throughput": statistics.median(
            rep["units"] * rep["probe_s"] / (rep["wall_s"] * REFERENCE_S)
            for rep in finished),
        "setup_s": statistics.median(
            rep["setup_s"] * REFERENCE_S / rep["probe_s"]
            for rep in finished),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in finished),
    }


def host_identity() -> Dict[str, Any]:
    """Who measured: recorded beside every result."""
    uname = platform.uname()
    return {"node": uname.node, "system": uname.system,
            "release": uname.release, "machine": uname.machine,
            "python": platform.python_version(), "cpus": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    # The build step: byte-compile once so no repetition's set-up pays it.
    compileall.compile_dir(str(SRC), quiet=1)
    pins = json.loads((HERE / "pins.json").read_text())

    host = host_identity()
    deadline = time.monotonic() + RUN_BUDGET_S
    reps = measure(args.workload, args.seed, args.seconds, deadline)
    finished = [rep for rep in reps if "error" not in rep]
    if not finished:
        for rep in reps:
            print(f"perfbench: {rep['error']}", file=sys.stderr)
        return 1
    if args.trace:
        OUT.mkdir(exist_ok=True)
        baseline = statistics.median(rep["wall_s"] for rep in finished)
        traced = spawn(args.workload, args.seed, deadline, "--trace",
                       "--baseline-wall", repr(baseline), "--trace-out",
                       str(OUT / f"{args.workload}-seed{args.seed}.trace.json"))
        reps.append(traced)
    attempted, failed, problems = judge(args.workload, args.seed, reps, pins)

    if args.trace:
        if "error" in traced:
            print(f"perfbench: traced repetition failed: {traced['error']}",
                  file=sys.stderr)
            return 1
        values = dict(traced["layers"])
        values["setup.import_s"] = statistics.median(
            rep["import_s"] for rep in finished)
        values["setup.inputs_s"] = statistics.median(
            rep["inputs_s"] for rep in finished)
        values["error_rate"] = failed / attempted
        units = PER_LAYER
    else:
        values = end_to_end(reps)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    workload = WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} host={host['node']} "
          f"loadavg={'/'.join(f'{x:.2f}' for x in host['loadavg'])}")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  work unit: {workload.unit}; {attempted - failed} of {attempted} "
          f"checked correct")
    for problem in problems:
        print(f"  FAILED {problem}")
    if args.trace:
        for seam in traced["missing_seams"]:
            print(f"  no seam {seam} in the program: its layer reads 0")
    print(json.dumps({"host": host, "problems": problems, "repetitions": [
        {key: rep.get(key) for key in ("elapsed_s", "setup_s", "wall_s",
                                       "probe_s", "units", "peak_rss_mb",
                                       "error")}
        for rep in reps]}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
