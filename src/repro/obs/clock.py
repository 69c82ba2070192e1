"""One monotonic clock for every framework-time measurement.

Model time (seconds computed by the analytic layers, cycles counted by
the DES) is deterministic and never touches this module.  *Framework*
time — how long the tooling itself took: a DSE evaluation batch, a
benchmark repeat — must come from a single monotonic clock so the
numbers written into ``BENCH_<n>.json`` are comparable across engines.
``repro.dse.engine`` and :mod:`repro.bench` both read this clock and
nothing else.
"""

from __future__ import annotations

import time

#: Seconds on the process-wide monotonic performance clock.  An alias,
#: not a wrapper, so hot paths pay no extra call; patch this name (or
#: pass ``clock=`` where accepted) to make framework timing
#: deterministic in tests.
monotonic = time.perf_counter
