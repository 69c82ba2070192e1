"""Steadiness check: repeated benchmark runs, interleaved across workloads.

    python3 perfbench/sweep.py --runs 10 [--workloads serve_drain,dse_sweep]

Run ``i`` uses seed ``first_seed + i`` and visits the workloads in an
order rotated by ``i``, so host drift lands on every workload alike.
For each (workload, end-to-end metric) it prints the median over the
runs and the quartile spread ``(q3 - q1) / median`` next to the bound
in BENCHMARK.json; a spread above a third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")

    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in chosen}
    failures = 0
    for run in range(args.runs):
        seed = args.first_seed + run
        order = chosen[run % len(chosen):] + chosen[:run % len(chosen)]
        for workload in order:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            wrong = done.returncode != 0 or not result["correct"]
            failures += wrong
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {run} seed {seed} {workload}: " + ", ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in result["metrics"].items())
                + ("  INCORRECT" if wrong else ""), flush=True)

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    steady = True
    print(f"{'workload':14s} {'metric':14s} {'median':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload in chosen:
        for name, series in values[workload].items():
            share = spread(series) if len(series) > 1 else 0.0
            flag = share > bounds[name] / 3
            steady &= not flag
            print(f"{workload:14s} {name:14s} {statistics.median(series):12.6g} "
                  f"{share:8.4f} {bounds[name]:6.2f}{'  WIDE' if flag else ''}")
    print(f"{failures} incorrect run(s); "
          f"{'steady' if steady else 'not steady'}")
    return 0 if steady and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
