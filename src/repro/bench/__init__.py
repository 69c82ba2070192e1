"""Performance observability: the tracked ``repro bench`` suite.

The paper's claims are throughput and energy numbers, so the repo
tracks its own speed the way it tracks correctness goldens: a pinned
workload per engine hot path that ``perfbench/`` does not time
(:mod:`repro.bench.workloads`), a runner that times them under the
shared monotonic clock with a determinism guard
(:mod:`repro.bench.runner`), and a numbered ``BENCH_<n>.json``
trajectory with schema validation and regression gating
(:mod:`repro.bench.report`).  ``python -m repro bench`` is the CLI
face; ``docs/BENCHMARKS.md`` documents the schema and the regression
policy.
"""

from repro.bench.report import (
    Comparison,
    ComparisonRow,
    DEFAULT_RESULTS_DIR,
    FIRST_INDEX,
    REGRESSION_THRESHOLD,
    SCHEMA,
    bench_indices,
    bench_path,
    build_report,
    compare,
    environment,
    latest_bench,
    load_report,
    next_index,
    render_comparison,
    render_report,
    strip_timing,
    validate_report,
    write_report,
)
from repro.bench.runner import (
    BenchOptions,
    BenchRunner,
    DEFAULT_REPEATS,
    QUICK_REPEATS,
)
from repro.bench.workloads import (
    BenchSuite,
    SUITE_TYPES,
    SuiteResult,
    default_suites,
    fingerprint_digest,
)

__all__ = [
    "BenchOptions",
    "BenchRunner",
    "BenchSuite",
    "Comparison",
    "ComparisonRow",
    "DEFAULT_REPEATS",
    "DEFAULT_RESULTS_DIR",
    "FIRST_INDEX",
    "QUICK_REPEATS",
    "REGRESSION_THRESHOLD",
    "SCHEMA",
    "SUITE_TYPES",
    "SuiteResult",
    "bench_indices",
    "bench_path",
    "build_report",
    "compare",
    "default_suites",
    "environment",
    "fingerprint_digest",
    "latest_bench",
    "load_report",
    "next_index",
    "render_comparison",
    "render_report",
    "strip_timing",
    "validate_report",
    "write_report",
]
