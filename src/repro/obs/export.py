"""Trace exporters: Chrome trace-event JSON, flamegraphs, metrics.

``to_chrome_trace`` serializes a :class:`~repro.obs.telemetry.Telemetry`
hub into the Chrome trace-event format (the JSON array flavour with
``B``/``E`` duration pairs, ``i`` instants, ``C`` counters and ``M``
metadata), loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  The two time domains map to two trace processes:

- pid 1 — "system (wall time)": analytic offload spans, seconds
  scaled to microsecond ticks;
- pid 2 — "PULP cluster (cycles)": DES/OpenMP spans, one cycle per
  microsecond tick (the cycle count *is* the timestamp).

``collapsed_stacks`` renders a :class:`~repro.machine.profiler.ProfiledRun`
in the flamegraph collapsed-stack text format (one ``frames count`` line
per stack, consumable by ``flamegraph.pl`` or speedscope).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.telemetry import CYCLES, Span, Telemetry, WALL

#: pid / process name / timestamp scale (to µs ticks) per time domain.
_DOMAIN_PROCESSES = {
    WALL: (1, "system (wall time)", 1e6),
    CYCLES: (2, "PULP cluster (cycles)", 1.0),
}


def _lane_threads(telemetry: Telemetry) -> Dict[Tuple[str, str], int]:
    """Stable (domain, lane) -> tid assignment, per-domain, 1-based."""
    threads: Dict[Tuple[str, str], int] = {}
    next_tid = {domain: 1 for domain in _DOMAIN_PROCESSES}
    for span in telemetry.spans:
        key = (span.domain, span.lane)
        if key not in threads:
            threads[key] = next_tid[span.domain]
            next_tid[span.domain] += 1
    return threads


def _span_args(span: Span) -> Dict[str, object]:
    args = {k: v for k, v in span.attrs.items()}
    if span.energy:
        args["energy_uj"] = span.energy * 1e6
    return args


def _lane_events(spans: List[Span], pid: int, tid: int,
                 scale: float) -> List[dict]:
    """B/E (or instant) events of one lane, in stack discipline.

    Spans of a lane must be sequential or properly nested; a partial
    overlap means the emitter placed spans incorrectly and is an error.
    """
    ordered = sorted(spans, key=lambda s: (s.start, -s.duration, s.span_id))
    events: List[dict] = []
    stack: List[Span] = []

    def epsilon(span: Span) -> float:
        return 1e-9 * max(1.0, abs(span.end))

    def emit_end(span: Span) -> None:
        events.append({"name": span.name, "cat": span.domain, "ph": "E",
                       "ts": span.end * scale, "pid": pid, "tid": tid})

    for span in ordered:
        if span.duration == 0:
            while stack and stack[-1].end <= span.start + epsilon(stack[-1]):
                emit_end(stack.pop())
            events.append({"name": span.name, "cat": span.domain, "ph": "i",
                           "ts": span.start * scale, "pid": pid, "tid": tid,
                           "s": "t", "args": _span_args(span)})
            continue
        while stack:
            top = stack[-1]
            eps = epsilon(top)
            if span.start >= top.end - eps:
                emit_end(stack.pop())        # previous span finished
            elif span.end <= top.end + eps:
                break                        # properly nested under top
            else:
                raise ObservabilityError(
                    f"spans {top.name!r} and {span.name!r} partially "
                    f"overlap on lane {span.lane!r} "
                    f"([{top.start}, {top.end}] vs "
                    f"[{span.start}, {span.end}])")
        events.append({"name": span.name, "cat": span.domain, "ph": "B",
                       "ts": span.start * scale, "pid": pid, "tid": tid,
                       "args": _span_args(span)})
        stack.append(span)
    while stack:
        emit_end(stack.pop())
    return events


def chrome_trace_events(telemetry: Telemetry) -> List[dict]:
    """All trace events (metadata first, then time-ordered)."""
    threads = _lane_threads(telemetry)
    metadata: List[dict] = []
    for domain, (pid, process_name, _) in _DOMAIN_PROCESSES.items():
        if any(d == domain for d, _ in threads):
            metadata.append({"name": "process_name", "ph": "M", "ts": 0,
                             "pid": pid, "tid": 0,
                             "args": {"name": process_name}})
    for (domain, lane), tid in threads.items():
        pid = _DOMAIN_PROCESSES[domain][0]
        metadata.append({"name": "thread_name", "ph": "M", "ts": 0,
                         "pid": pid, "tid": tid, "args": {"name": lane}})

    lanes: Dict[Tuple[str, str], List[Span]] = {key: [] for key in threads}
    for span in telemetry.spans:
        lanes[(span.domain, span.lane)].append(span)
    timed: List[dict] = []
    for (domain, lane), tid in threads.items():
        pid, _, scale = _DOMAIN_PROCESSES[domain]
        timed.extend(_lane_events(lanes[(domain, lane)], pid, tid, scale))
    for counter in telemetry.counters.values():
        pid, _, scale = _DOMAIN_PROCESSES[counter.domain]
        for ts, value in counter.samples:
            timed.append({"name": counter.name, "cat": "counters",
                          "ph": "C", "ts": ts * scale, "pid": pid, "tid": 0,
                          "args": {"value": value}})
    timed.sort(key=lambda event: event["ts"])     # stable: lane order kept
    return metadata + timed


def to_chrome_trace(telemetry: Telemetry) -> dict:
    """The complete Chrome trace-event JSON object."""
    return {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "domains": {domain: name for domain, (_, name, _)
                        in _DOMAIN_PROCESSES.items()},
        },
    }


def write_chrome_trace(telemetry: Telemetry, path: str) -> None:
    """Write the trace JSON to *path*: :func:`to_chrome_trace`'s object,
    one compact event per line.

    Each event goes through :func:`json.dumps` without an ``indent``,
    which keeps CPython on its C encoder (an indent forces the
    pure-Python one, several times slower on a large trace).
    """
    trace = to_chrome_trace(telemetry)
    events = ",\n".join(map(json.dumps, trace.pop("traceEvents")))
    rest = "".join(f",\n{json.dumps(key)}: {json.dumps(value)}"
                   for key, value in trace.items())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"traceEvents": [\n{events}\n]{rest}}}\n')


# -- flamegraph -------------------------------------------------------------------


def collapsed_stacks(profiled, root: str = "program") -> str:
    """Collapsed-stack flamegraph text from a per-PC profile.

    One line per program counter: ``root;pc_0007_mac 123`` — the frame
    is the PC plus its opcode mnemonic, the count its attributed cycles.
    """
    return "\n".join(profiled.collapsed(root=root))


def write_flamegraph(profiled, path: str, root: str = "program") -> None:
    """Write collapsed stacks to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        text = collapsed_stacks(profiled, root=root)
        handle.write(text + ("\n" if text else ""))


# -- metrics snapshot -------------------------------------------------------------


def metrics_snapshot(telemetry: Telemetry,
                     extra: Optional[dict] = None) -> dict:
    """A machine-readable snapshot: counters, lanes, phases, energy."""
    from repro.obs.analyzer import TraceAnalyzer

    analyzer = TraceAnalyzer(telemetry)
    snapshot = {
        "counters": {
            name: {"kind": c.kind, "value": c.value, "unit": c.unit,
                   "domain": c.domain}
            for name, c in sorted(telemetry.counters.items())
        },
        "lanes": {
            lane: {"domain": stats.domain, "spans": stats.span_count,
                   "busy": stats.busy, "extent": stats.extent,
                   "utilization": stats.utilization,
                   "energy_j": stats.energy}
            for lane, stats in analyzer.lane_stats().items()
        },
        "phases": analyzer.phase_totals(),
        "energy": {
            "total_j": telemetry.total_energy(),
            "by_phase_j": analyzer.energy_by_phase(),
        },
        "critical_phase": analyzer.critical_phase(),
        "overlap_efficiency": analyzer.overlap_efficiency(),
        "span_count": len(telemetry.spans),
    }
    if extra:
        snapshot.update(extra)
    return snapshot


def render_metrics(snapshot: dict) -> str:
    """Aligned-table rendering of a metrics snapshot."""
    lines: List[str] = []

    def section(title: str) -> None:
        if lines:
            lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    section("lanes")
    lane_width = max([len(name) for name in snapshot["lanes"]] + [4])
    lines.append(f"{'lane':<{lane_width}} {'domain':>7s} {'spans':>6s} "
                 f"{'busy':>12s} {'util':>7s} {'energy':>12s}")
    for lane, stats in snapshot["lanes"].items():
        lines.append(
            f"{lane:<{lane_width}} {stats['domain']:>7s} "
            f"{stats['spans']:>6d} {stats['busy']:>12.6g} "
            f"{stats['utilization']:>7.1%} {stats['energy_j']:>10.4g} J")

    if snapshot["phases"]:
        section("phases (time per phase)")
        name_width = max(len(name) for name in snapshot["phases"])
        for name, value in sorted(snapshot["phases"].items(),
                                  key=lambda item: -item[1]):
            lines.append(f"{name:<{name_width}} {value:>12.6g}")

    if snapshot["counters"]:
        section("counters")
        name_width = max(len(name) for name in snapshot["counters"])
        for name, counter in snapshot["counters"].items():
            unit = f" {counter['unit']}" if counter["unit"] else ""
            lines.append(f"{name:<{name_width}} {counter['value']:>14.6g}"
                         f"{unit} ({counter['kind']})")

    section("summary")
    phase, share = snapshot["critical_phase"]
    lines.append(f"critical phase     : {phase or '(none)'} "
                 f"({share:.1%} of phase time)")
    lines.append(f"overlap efficiency : {snapshot['overlap_efficiency']:.1%}")
    lines.append(f"attributed energy  : "
                 f"{snapshot['energy']['total_j']:.6g} J over "
                 f"{snapshot['span_count']} spans")
    return "\n".join(lines)
