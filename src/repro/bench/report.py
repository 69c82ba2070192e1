"""``BENCH_<n>.json``: schema, trajectory numbering, and comparison.

One benchmark run produces a numbered, schema-validated document::

    {
      "schema": "repro.bench/v1",
      "bench_index": 7,
      "created": "...Z",              # wall-clock stamp (a timing field)
      "repeats": 5,
      "quick": false,
      "env": {"python": ..., "platform": ..., "machine": ...,
              "cpu_count": ...},
      "suites": {
        "sim": {
          "units": "cycles",
          "spec": {...pinned knobs and seeds...},
          "units_per_run": 20000.0,
          "fingerprint": {...deterministic engine output..., "digest": ...},
          "counters": {...telemetry counters of the instrumented pass...},
          "timing": {
            "wall_s": [...one entry per repeat...],
            "median_wall_s": ..., "min_wall_s": ...,
            "throughput": ...       # units_per_run / median_wall_s
          }
        }, ...
      }
    }

Everything outside ``created`` and the per-suite ``timing`` blocks is
deterministic: rerunning the same pinned workloads reproduces it bit
for bit (:func:`strip_timing` extracts exactly that projection, and the
test suite asserts it).  :func:`compare` matches two documents suite by
suite on the pinned ``spec`` and judges median throughput against the
20% regression threshold; ``repro bench --check`` turns that into CI's
perf gate.  Files are numbered ``BENCH_<n>.json`` starting at
:data:`FIRST_INDEX` — the PR that opened the trajectory — so the
results directory reads as a performance history of the repo.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import re
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import BenchmarkError

#: Schema identifier written into (and required of) every document.
SCHEMA = "repro.bench/v1"

#: The BENCH trajectory starts at the PR that introduced it.
FIRST_INDEX = 7

#: Where the tracked trajectory lives, relative to the repo root.
DEFAULT_RESULTS_DIR = os.path.join("benchmarks", "results")

#: Median-throughput loss beyond which ``--check`` fails the build.
REGRESSION_THRESHOLD = 0.20

_BENCH_FILE = re.compile(r"^BENCH_(\d+)\.json$")

#: Comparison row statuses that make ``--check`` exit nonzero.
REGRESSED = "regressed"


def environment() -> Dict[str, Any]:
    """The host fingerprint stored next to every timing number."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


# -- trajectory files -------------------------------------------------------------


def bench_indices(directory: str) -> List[int]:
    """Sorted indices of the ``BENCH_<n>.json`` files in *directory*."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    indices = []
    for name in names:
        match = _BENCH_FILE.match(name)
        if match:
            indices.append(int(match.group(1)))
    return sorted(indices)


def bench_path(directory: str, index: int) -> str:
    """The path of trajectory entry *index*."""
    return os.path.join(directory, f"BENCH_{index}.json")


def next_index(directory: str) -> int:
    """The next free trajectory index (:data:`FIRST_INDEX` when empty)."""
    indices = bench_indices(directory)
    return indices[-1] + 1 if indices else FIRST_INDEX


def latest_bench(directory: str) -> Optional[str]:
    """Path of the newest committed trajectory entry, if any."""
    indices = bench_indices(directory)
    return bench_path(directory, indices[-1]) if indices else None


# -- validation -------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchmarkError(f"invalid bench report: {message}")


_SUITE_KEYS = ("units", "spec", "units_per_run", "fingerprint", "counters",
               "timing")
_TIMING_KEYS = ("wall_s", "median_wall_s", "min_wall_s", "throughput")


def validate_report(doc: Any) -> Dict[str, Any]:
    """Check *doc* against the ``repro.bench/v1`` schema; return it."""
    _require(isinstance(doc, dict), "not a JSON object")
    _require(doc.get("schema") == SCHEMA,
             f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    _require(isinstance(doc.get("bench_index"), int)
             and doc["bench_index"] >= 0, "bench_index must be an int >= 0")
    _require(isinstance(doc.get("repeats"), int) and doc["repeats"] >= 1,
             "repeats must be an int >= 1")
    _require(isinstance(doc.get("quick"), bool), "quick must be a bool")
    env = doc.get("env")
    _require(isinstance(env, dict), "env must be an object")
    for key in ("python", "platform", "cpu_count"):
        _require(key in env, f"env.{key} is missing")
    suites = doc.get("suites")
    _require(isinstance(suites, dict) and suites,
             "suites must be a non-empty object")
    for name, suite in suites.items():
        _require(isinstance(suite, dict), f"suite {name!r} is not an object")
        for key in _SUITE_KEYS:
            _require(key in suite, f"suite {name!r} is missing {key!r}")
        _require(isinstance(suite["spec"], dict),
                 f"suite {name!r} spec must be an object")
        _require(isinstance(suite["fingerprint"], dict),
                 f"suite {name!r} fingerprint must be an object")
        _require(isinstance(suite["units_per_run"], (int, float))
                 and suite["units_per_run"] > 0,
                 f"suite {name!r} units_per_run must be > 0")
        timing = suite["timing"]
        _require(isinstance(timing, dict),
                 f"suite {name!r} timing must be an object")
        for key in _TIMING_KEYS:
            _require(key in timing, f"suite {name!r} timing.{key} is missing")
        wall = timing["wall_s"]
        _require(isinstance(wall, list) and len(wall) == doc["repeats"],
                 f"suite {name!r} needs one wall_s entry per repeat")
        _require(all(isinstance(w, (int, float)) and w > 0 for w in wall),
                 f"suite {name!r} wall_s entries must be > 0")
        _require(timing["throughput"] > 0,
                 f"suite {name!r} throughput must be > 0")
    return doc


def strip_timing(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic projection: identical across bit-exact reruns.

    Drops the wall-clock stamp, the repeat-count methodology fields and
    every per-suite ``timing`` block; keeps specs, units, fingerprints
    and counters.
    """
    projection = {key: value for key, value in doc.items()
                  if key not in ("created", "repeats", "quick", "suites")}
    projection["suites"] = {
        name: {key: value for key, value in suite.items() if key != "timing"}
        for name, suite in doc["suites"].items()
    }
    return projection


# -- document assembly ------------------------------------------------------------


def build_report(suites: Dict[str, Dict[str, Any]], *, repeats: int,
                 quick: bool, index: int = FIRST_INDEX) -> Dict[str, Any]:
    """Assemble and validate one trajectory document."""
    doc = {
        "schema": SCHEMA,
        "bench_index": index,
        "created": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "repeats": repeats,
        "quick": quick,
        "env": environment(),
        "suites": suites,
    }
    return validate_report(doc)


def suite_timing(wall_s: List[float], units: float) -> Dict[str, Any]:
    """The per-suite ``timing`` block from raw repeat measurements."""
    median = statistics.median(wall_s)
    return {
        "wall_s": [round(w, 9) for w in wall_s],
        "median_wall_s": round(median, 9),
        "min_wall_s": round(min(wall_s), 9),
        "throughput": round(units / median, 6),
    }


def load_report(path: str) -> Dict[str, Any]:
    """Read and validate a trajectory file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot load bench report {path}: {exc}")
    return validate_report(doc)


def write_report(doc: Dict[str, Any], directory: str) -> str:
    """Write *doc* as the next trajectory entry; returns the path."""
    validate_report(doc)
    os.makedirs(directory, exist_ok=True)
    path = bench_path(directory, doc["bench_index"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return path


# -- comparison -------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    """One suite's old-vs-new verdict."""

    suite: str
    status: str                     #: ok | improved | regressed |
    #: incomparable | added | removed
    old_throughput: Optional[float] = None
    new_throughput: Optional[float] = None
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        """new / old median throughput, when both exist."""
        if not self.old_throughput or self.new_throughput is None:
            return None
        return self.new_throughput / self.old_throughput

    def to_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "status": self.status,
            "old_throughput": self.old_throughput,
            "new_throughput": self.new_throughput,
            "ratio": None if self.ratio is None else round(self.ratio, 6),
            "note": self.note,
        }


@dataclass
class Comparison:
    """Suite-by-suite comparison of two trajectory documents."""

    threshold: float
    rows: List[ComparisonRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[str]:
        """Suites whose throughput regressed beyond the threshold."""
        return [row.suite for row in self.rows if row.status == REGRESSED]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "threshold": self.threshold,
            "ok": self.ok,
            "regressions": self.regressions,
            "rows": [row.to_dict() for row in self.rows],
        }


def compare(old: Dict[str, Any], new: Dict[str, Any],
            threshold: float = REGRESSION_THRESHOLD) -> Comparison:
    """Judge *new* against baseline *old*, suite by suite.

    A suite regresses when its median throughput drops by more than
    *threshold* relative to the baseline.  Suites whose pinned ``spec``
    differs between the documents are *incomparable* (the workload
    changed, so the numbers do not gate); a drifted fingerprint digest
    under an identical spec is annotated but still timed — it means the
    model's outputs changed, which the golden tests gate separately.
    """
    if not 0 < threshold < 1:
        raise BenchmarkError(f"threshold must be in (0, 1): {threshold}")
    validate_report(old)
    validate_report(new)
    result = Comparison(threshold=threshold)
    old_suites, new_suites = old["suites"], new["suites"]
    for name, new_suite in new_suites.items():
        old_suite = old_suites.get(name)
        if old_suite is None:
            result.rows.append(ComparisonRow(
                suite=name, status="added",
                new_throughput=new_suite["timing"]["throughput"],
                note="no baseline entry"))
            continue
        old_tp = old_suite["timing"]["throughput"]
        new_tp = new_suite["timing"]["throughput"]
        if old_suite["spec"] != new_suite["spec"]:
            result.rows.append(ComparisonRow(
                suite=name, status="incomparable", old_throughput=old_tp,
                new_throughput=new_tp, note="workload spec changed"))
            continue
        note = ""
        if old_suite["fingerprint"] != new_suite["fingerprint"]:
            note = "fingerprint drifted (model output changed)"
        ratio = new_tp / old_tp
        if ratio < 1.0 - threshold:
            status = REGRESSED
        elif ratio > 1.0 + threshold:
            status = "improved"
        else:
            status = "ok"
        result.rows.append(ComparisonRow(
            suite=name, status=status, old_throughput=old_tp,
            new_throughput=new_tp, note=note))
    for name, old_suite in old_suites.items():
        if name not in new_suites:
            result.rows.append(ComparisonRow(
                suite=name, status="removed",
                old_throughput=old_suite["timing"]["throughput"],
                note="suite missing from the new run"))
    return result


# -- rendering --------------------------------------------------------------------


def render_report(doc: Dict[str, Any]) -> str:
    """Human-readable summary of one trajectory document."""
    env = doc["env"]
    lines = [
        f"bench #{doc['bench_index']}: {len(doc['suites'])} suites, "
        f"median of {doc['repeats']}"
        f"{' (quick)' if doc['quick'] else ''} — "
        f"python {env['python']} on {env['machine']}, "
        f"{env['cpu_count']} cpus",
    ]
    name_width = max(len(name) for name in doc["suites"])
    lines.append(f"{'suite':<{name_width}} {'throughput':>16} "
                 f"{'units':<9} {'median':>12} {'spread':>8}")
    for name, suite in doc["suites"].items():
        timing = suite["timing"]
        spread = (max(timing["wall_s"]) - min(timing["wall_s"])) \
            / timing["median_wall_s"] if timing["median_wall_s"] else 0.0
        lines.append(
            f"{name:<{name_width}} {timing['throughput']:>16,.1f} "
            f"{suite['units'] + '/s':<9} {timing['median_wall_s']:>12.6f} "
            f"{spread:>7.1%}")
    return "\n".join(lines)


def render_comparison(comparison: Comparison, old_label: str = "baseline",
                      new_label: str = "new") -> str:
    """Human-readable comparison table plus the verdict line."""
    lines = [f"bench check: {new_label} vs {old_label} "
             f"(threshold {comparison.threshold:.0%})"]
    name_width = max([len(row.suite) for row in comparison.rows] + [5])
    lines.append(f"{'suite':<{name_width}} {'old/s':>16} {'new/s':>16} "
                 f"{'ratio':>8}  status")
    for row in comparison.rows:
        old_text = (f"{row.old_throughput:,.1f}"
                    if row.old_throughput is not None else "-")
        new_text = (f"{row.new_throughput:,.1f}"
                    if row.new_throughput is not None else "-")
        ratio_text = f"{row.ratio:.3f}" if row.ratio is not None else "-"
        note = f"  ({row.note})" if row.note else ""
        lines.append(f"{row.suite:<{name_width}} {old_text:>16} "
                     f"{new_text:>16} {ratio_text:>8}  {row.status}{note}")
    if comparison.ok:
        lines.append("verdict: OK — no suite regressed beyond the threshold")
    else:
        lines.append("verdict: REGRESSION in "
                     + ", ".join(comparison.regressions))
    return "\n".join(lines)
