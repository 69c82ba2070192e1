"""The benchmark runner: timed repeats, determinism guard, profiling.

For every selected suite the runner:

1. runs ``repeats`` timed passes — each is ``prepare`` (off the clock),
   then ``execute`` between two reads of the shared monotonic clock —
   under a *disabled* telemetry hub, so the numbers measure the engine,
   not the instrumentation;
2. asserts the suite's deterministic fingerprint and unit count are
   bit-identical across repeats (a drift is a :class:`BenchmarkError`:
   the workload was not pinned);
3. runs one extra *instrumented* pass under an enabled hub, collecting
   the engine's telemetry counters and — when asked — a per-suite
   Chrome trace of the engine's own lanes through
   :mod:`repro.obs.export` (none for a suite whose pass recorded no
   spans and no counters: :attr:`BenchRunner.notes` says so).

The instrumented pass is excluded from the timing statistics but must
reproduce the timed passes' fingerprint, which doubles as the proof
that telemetry does not perturb results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import BenchmarkError, ObservabilityError
from repro.obs import Telemetry, monotonic, use_telemetry, write_chrome_trace

from repro.bench import report as _report
from repro.bench.workloads import BenchSuite, SuiteResult, default_suites

#: Default repeat counts: median-of-5, median-of-3 under ``--quick``.
DEFAULT_REPEATS = 5
QUICK_REPEATS = 3


@dataclass
class BenchOptions:
    """One runner invocation, fully specified."""

    repeats: int = DEFAULT_REPEATS
    quick: bool = False
    #: Suite-name subset (None = every registered suite).
    suites: Optional[Sequence[str]] = None
    #: Write one Chrome trace per suite, derived from this path.
    profile_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise BenchmarkError(f"repeats must be >= 1, got {self.repeats}")


class BenchRunner:
    """Times every suite and assembles one trajectory document."""

    def __init__(self, options: Optional[BenchOptions] = None):
        self.options = options if options is not None else BenchOptions()
        names = self.options.suites
        #: The selected suites, in report order.
        self.suites = default_suites(None if names is None else list(names))
        #: Paths of profile artifacts written by the last run.
        self.artifacts: List[str] = []
        #: Why the last run wrote no profile for a suite, one line each.
        self.notes: List[str] = []

    def profile_path(self, suite: str) -> Optional[str]:
        """Where *suite*'s Chrome trace goes (``bench.json`` ->
        ``bench.sim.json``); None when no profile was asked for."""
        base = self.options.profile_path
        if not base:
            return None
        stem, extension = os.path.splitext(base)
        return f"{stem}.{suite}{extension or '.json'}"

    def run(self, index: int = _report.FIRST_INDEX) -> Dict[str, Any]:
        """Execute the selected suites; returns the validated document."""
        self.artifacts = []
        self.notes = []
        suite_docs = {suite.name: self._run_suite(suite)
                      for suite in self.suites}
        return _report.build_report(suite_docs, repeats=self.options.repeats,
                                    quick=self.options.quick, index=index)

    # -- one suite ---------------------------------------------------------------

    def _run_suite(self, suite: BenchSuite) -> Dict[str, Any]:
        wall_s: List[float] = []
        reference: Optional[SuiteResult] = None
        # Timed passes: a disabled hub guarantees the engines run their
        # no-telemetry fast path, whatever hub the caller installed.
        with use_telemetry(Telemetry(enabled=False)):
            for _ in range(self.options.repeats):
                state = suite.prepare()
                try:
                    started = monotonic()
                    result = suite.execute(state)
                    wall_s.append(monotonic() - started)
                finally:
                    suite.cleanup(state)
                reference = self._checked(suite, reference, result)
        # Instrumented pass: the engine's counters and lanes.
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            state = suite.prepare()
            try:
                result = suite.execute(state)
            finally:
                suite.cleanup(state)
        self._checked(suite, reference, result)
        path = self.profile_path(suite.name)
        if path is not None:
            if hub.spans or hub.counters:
                self._export_profile(hub, path)
            else:
                self.notes.append(f"no profile for {suite.name}: its "
                                  "instrumented pass recorded no spans or "
                                  "counters")
        return {
            "units": suite.units,
            "spec": dict(suite.spec),
            "units_per_run": reference.units,
            "fingerprint": dict(reference.fingerprint),
            "counters": {name: counter.value for name, counter
                         in sorted(hub.counters.items())},
            "timing": _report.suite_timing(wall_s, reference.units),
        }

    def _checked(self, suite: BenchSuite, reference: Optional[SuiteResult],
                 result: SuiteResult) -> SuiteResult:
        """Enforce the bit-identical-fingerprint contract across passes."""
        if reference is None:
            return result
        if (result.fingerprint != reference.fingerprint
                or result.units != reference.units):
            raise BenchmarkError(
                f"suite {suite.name!r} is not deterministic: repeat "
                f"produced {result.fingerprint} != {reference.fingerprint}")
        return reference

    def _export_profile(self, hub: Telemetry, path: str) -> None:
        try:
            write_chrome_trace(hub, path)
        except ObservabilityError:
            # Engine spans that overlap on a lane (model-time streams
            # from repeated sub-runs) cannot serialize as B/E pairs;
            # fall back to the counters alone.
            hub.spans = []
            write_chrome_trace(hub, path)
        self.artifacts.append(path)
