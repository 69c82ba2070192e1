"""Unified observability: telemetry hub, exporters, and analyzers.

The public surface of the telemetry subsystem:

- :class:`Telemetry`, :class:`Span`, :class:`Counter` — the event model
  (``Telemetry.timed`` wraps a block in a real-elapsed-time span);
- :func:`get_telemetry` / :func:`use_telemetry` — the active hub;
- :func:`monotonic` — the shared monotonic clock every framework-time
  measurement (DSE batches, benchmarks) reads;
- :func:`to_chrome_trace` / :func:`write_chrome_trace` — Perfetto export;
- :func:`collapsed_stacks` / :func:`write_flamegraph` — flamegraph
  export;
- :func:`metrics_snapshot` / :func:`render_metrics` — metrics surface;
- :class:`TraceAnalyzer` — utilization / critical path / overlap;
- :func:`render_span_timeline` — ASCII lanes of any domain.

Every layer emits into the active hub itself: the offload cost model,
the SPI link, the OpenMP runtime and the DES cluster (per-core,
per-bank and per-DMA-channel cycle-domain lanes).

See ``docs/OBSERVABILITY.md`` for the event model and formats, and
``docs/BENCHMARKS.md`` for how ``repro bench`` builds on this layer.
"""

from repro.obs.analyzer import LaneStats, TraceAnalyzer
from repro.obs.clock import monotonic
from repro.obs.export import (
    chrome_trace_events,
    collapsed_stacks,
    metrics_snapshot,
    render_metrics,
    to_chrome_trace,
    write_chrome_trace,
    write_flamegraph,
)
from repro.obs.render import render_span_timeline
from repro.obs.telemetry import (
    CYCLES,
    Counter,
    NOOP_CONTEXT,
    Span,
    Telemetry,
    WALL,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)

__all__ = [
    "CYCLES",
    "Counter",
    "LaneStats",
    "NOOP_CONTEXT",
    "Span",
    "Telemetry",
    "TraceAnalyzer",
    "WALL",
    "chrome_trace_events",
    "collapsed_stacks",
    "get_telemetry",
    "metrics_snapshot",
    "monotonic",
    "render_metrics",
    "render_span_timeline",
    "set_telemetry",
    "to_chrome_trace",
    "use_telemetry",
    "write_chrome_trace",
    "write_flamegraph",
]
