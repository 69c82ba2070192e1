"""Edge cases of the telemetry analyzers, renderers, and fast paths.

Covers the degenerate hubs the engine round-trip tests never produce:
empty hubs, single-span lanes, overlapping spans, counter-only
telemetry — plus the disabled no-allocation fast path of
:meth:`Telemetry.timed`.
"""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    CYCLES,
    NOOP_CONTEXT,
    Telemetry,
    TraceAnalyzer,
    WALL,
    chrome_trace_events,
    metrics_snapshot,
    monotonic,
    render_metrics,
    render_span_timeline,
)


class FakeClock:
    """Deterministic clock: every read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestEmptyHub:
    def test_analyzer_on_empty_hub(self):
        analyzer = TraceAnalyzer(Telemetry(enabled=True))
        assert analyzer.lane_stats() == {}
        assert analyzer.phase_totals() == {}
        assert analyzer.critical_phase() == ("", 0.0)
        assert analyzer.overlap_efficiency() == 0.0
        assert analyzer.energy_by_phase() == {}
        assert analyzer.energy_by_lane() == {}

    def test_exports_on_empty_hub(self):
        hub = Telemetry(enabled=True)
        assert chrome_trace_events(hub) == []
        assert render_span_timeline(hub) == "(no spans recorded)"
        snapshot = metrics_snapshot(hub)
        assert snapshot["span_count"] == 0
        assert snapshot["critical_phase"] == ("", 0.0)
        text = render_metrics(snapshot)
        assert "critical phase     : (none)" in text


class TestSingleSpanLane:
    def test_one_span_is_fully_utilized(self):
        hub = Telemetry(enabled=True)
        hub.span("compute", "pulp", 2.0, 6.0)
        stats = TraceAnalyzer(hub).lane_stats()["pulp"]
        assert stats.span_count == 1
        assert stats.busy == pytest.approx(6.0)
        assert stats.extent == pytest.approx(6.0)
        assert stats.utilization == pytest.approx(1.0)

    def test_one_span_dominates_critical_phase(self):
        hub = Telemetry(enabled=True)
        hub.span("compute[3]", "pulp", 0.0, 4.0)
        assert TraceAnalyzer(hub).critical_phase() == ("compute", 1.0)

    def test_zero_duration_lane_has_zero_utilization(self):
        hub = Telemetry(enabled=True)
        hub.instant("marker", "host", 1.0)
        stats = TraceAnalyzer(hub).lane_stats()["host"]
        assert stats.extent == 0.0 and stats.utilization == 0.0

    def test_single_span_timeline(self):
        hub = Telemetry(enabled=True)
        hub.span("compute", "pulp", 0.0, 4.0)
        text = render_span_timeline(hub, width=20)
        assert text.splitlines()[0].startswith("pulp |####")
        assert "1 spans" in text


class TestOverlappingSpans:
    def test_busy_merges_overlap_on_one_lane(self):
        hub = Telemetry(enabled=True)
        hub.span("a", "host", 0.0, 10.0)
        hub.span("b", "host", 5.0, 10.0)      # overlaps a by 5
        stats = TraceAnalyzer(hub).lane_stats()["host"]
        assert stats.busy == pytest.approx(15.0)   # union, not 20
        assert stats.extent == pytest.approx(15.0)
        assert stats.utilization == pytest.approx(1.0)

    def test_gap_lowers_utilization(self):
        hub = Telemetry(enabled=True)
        hub.span("a", "host", 0.0, 2.0)
        hub.span("b", "host", 8.0, 2.0)
        stats = TraceAnalyzer(hub).lane_stats()["host"]
        assert stats.busy == pytest.approx(4.0)
        assert stats.extent == pytest.approx(10.0)
        assert stats.utilization == pytest.approx(0.4)

    def test_parent_span_does_not_inflate_busy(self):
        hub = Telemetry(enabled=True)
        root = hub.span("offload", "host", 0.0, 10.0)
        hub.span("input", "host", 0.0, 3.0, parent=root)
        hub.span("output", "host", 7.0, 3.0, parent=root)
        stats = TraceAnalyzer(hub).lane_stats()["host"]
        # The containing parent is not a leaf; only children count.
        assert stats.busy == pytest.approx(6.0)
        assert stats.extent == pytest.approx(10.0)

    def test_idle_spans_excluded_from_busy_but_rendered(self):
        hub = Telemetry(enabled=True)
        hub.span("compute", "pulp", 0.0, 5.0)
        hub.span("wait", "pulp", 5.0, 5.0, idle=True)
        stats = TraceAnalyzer(hub).lane_stats()["pulp"]
        assert stats.busy == pytest.approx(5.0)
        assert stats.utilization == pytest.approx(0.5)
        row = render_span_timeline(hub, width=20).splitlines()[0]
        assert "#" in row and "." in row

    def test_cross_lane_overlap_efficiency(self):
        hub = Telemetry(enabled=True)
        hub.span("compute", "pulp", 0.0, 10.0)
        hub.span("input", "spi", 0.0, 10.0)    # fully hidden behind compute
        assert TraceAnalyzer(hub).overlap_efficiency() \
            == pytest.approx(0.5)

    def test_partial_overlap_rejected_by_chrome_export_only(self):
        hub = Telemetry(enabled=True)
        hub.span("a", "x", 0.0, 5.0)
        hub.span("b", "x", 3.0, 5.0)
        # The analyzer tolerates it; the B/E serializer cannot.
        assert TraceAnalyzer(hub).lane_stats()["x"].busy \
            == pytest.approx(8.0)
        with pytest.raises(ObservabilityError, match="partially"):
            chrome_trace_events(hub)

    def test_domains_do_not_mix(self):
        hub = Telemetry(enabled=True)
        hub.span("compute", "core0", 0.0, 100.0, domain=CYCLES)
        hub.span("input", "spi", 0.0, 1e-3, domain=WALL)
        assert list(TraceAnalyzer(hub).lane_stats(CYCLES)) == ["core0"]
        assert list(TraceAnalyzer(hub).lane_stats(WALL)) == ["spi"]
        assert TraceAnalyzer(hub).phase_totals(CYCLES) \
            == {"compute": 100.0}


class TestCounterOnlyTelemetry:
    def filled(self):
        hub = Telemetry(enabled=True)
        hub.count("requests", 3.0, unit="req")
        hub.gauge("queue_depth", 7.0, ts=2.0)
        return hub

    def test_metrics_snapshot_without_spans(self):
        snapshot = metrics_snapshot(self.filled())
        assert snapshot["lanes"] == {}
        assert snapshot["counters"]["requests"]["value"] == 3.0
        assert snapshot["counters"]["queue_depth"]["kind"] == "gauge"
        text = render_metrics(snapshot)
        assert "requests" in text and "queue_depth" in text

    def test_chrome_export_emits_counter_events_only(self):
        events = chrome_trace_events(self.filled())
        assert events and all(e["ph"] == "C" for e in events)
        by_name = {e["name"]: e["args"]["value"] for e in events}
        assert by_name == {"requests": 3.0, "queue_depth": 7.0}

    def test_timeline_reports_no_spans(self):
        assert render_span_timeline(self.filled()) \
            == "(no spans recorded)"


class TestDisabledFastPath:
    def test_timed_returns_shared_noop_context(self):
        hub = Telemetry(enabled=False)
        assert hub.timed("a", "x") is NOOP_CONTEXT
        assert hub.timed("b", "y", domain=CYCLES) is NOOP_CONTEXT

    def test_disabled_timed_records_and_reads_nothing(self):
        hub = Telemetry(enabled=False)

        def forbidden_clock():
            raise AssertionError("clock read on disabled fast path")

        with hub.timed("a", "x", clock=forbidden_clock):
            pass
        assert not hub.spans and not hub.counters

    def test_enabled_timed_records_real_elapsed_span(self):
        hub = Telemetry(enabled=True)
        with hub.timed("batch", "dse", clock=FakeClock(0.5), jobs=4):
            pass
        (span,) = hub.spans
        assert span.name == "batch" and span.lane == "dse"
        assert span.duration == pytest.approx(0.5)
        assert span.attrs["jobs"] == 4

    def test_monotonic_clock_shared_and_increasing(self):
        first = monotonic()
        assert monotonic() >= first
