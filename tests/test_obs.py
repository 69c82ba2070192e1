"""Tests for the unified telemetry layer (src/repro/obs)."""

import json
from collections import defaultdict

import pytest

from repro.core.offload import OffloadCostModel, emit_offload_spans
from repro.errors import ObservabilityError
from repro.obs import (
    CYCLES,
    Telemetry,
    TraceAnalyzer,
    WALL,
    chrome_trace_events,
    collapsed_stacks,
    get_telemetry,
    metrics_snapshot,
    render_metrics,
    render_span_timeline,
    to_chrome_trace,
    use_telemetry,
)
from repro.power.activity import ActivityProfile
from repro.units import mhz


def offload_timing(double_buffered=False, iterations=3):
    model = OffloadCostModel()
    return model.offload_timing(
        binary_bytes=8000, input_bytes=4096, output_bytes=2048,
        compute_cycles=200e3, pulp_frequency=mhz(150), pulp_voltage=0.65,
        activity=ActivityProfile.matmul(), host_frequency=mhz(8),
        iterations=iterations, double_buffered=double_buffered)


class TestTelemetryHub:
    def test_span_emission_and_lanes(self):
        hub = Telemetry(enabled=True)
        root = hub.span("offload", "host", 0.0, 10.0)
        hub.span("compute[0]", "pulp", 1.0, 4.0, parent=root, energy=2e-6)
        hub.instant("done", "host", 10.0)
        assert hub.lanes() == ["host", "pulp"]
        assert len(hub.leaf_spans()) == 2
        assert hub.total_energy() == pytest.approx(2e-6)

    def test_disabled_hub_records_nothing(self):
        hub = Telemetry(enabled=False)
        assert hub.span("a", "x", 0.0, 1.0) == 0
        hub.count("n")
        hub.gauge("g", 3.0)
        assert not hub.spans and not hub.counters

    def test_invalid_domain_and_negative_duration(self):
        hub = Telemetry(enabled=True)
        with pytest.raises(ObservabilityError):
            hub.span("a", "x", 0.0, 1.0, domain="minutes")
        with pytest.raises(ObservabilityError):
            hub.span("a", "x", 0.0, -1.0)

    def test_monotonic_counter_rejects_decrease(self):
        hub = Telemetry(enabled=True)
        hub.count("n", 2.0)
        with pytest.raises(ObservabilityError):
            hub.count("n", -1.0)
        hub.gauge("g", 5.0)
        hub.gauge("g", 1.0)       # gauges may go down
        assert hub.counters["g"].value == 1.0

    def test_counter_kind_conflict(self):
        hub = Telemetry(enabled=True)
        hub.count("n")
        with pytest.raises(ObservabilityError):
            hub.gauge("n", 1.0)

    def test_use_telemetry_scoping(self):
        hub = Telemetry(enabled=True)
        default = get_telemetry()
        with use_telemetry(hub):
            assert get_telemetry() is hub
        assert get_telemetry() is default


class TestNoOpMode:
    """With telemetry disabled, instrumented paths change nothing."""

    def test_offload_timing_identical_with_hub_disabled(self):
        baseline = offload_timing()
        hub = Telemetry(enabled=False)
        with use_telemetry(hub):
            instrumented = offload_timing()
        assert not hub.spans and not hub.counters
        assert instrumented.total_time == baseline.total_time
        assert instrumented.energy.total_energy == \
            baseline.energy.total_energy
        assert [
            (p.label, p.duration, p.power)
            for p in instrumented.energy.phases
        ] == [(p.label, p.duration, p.power) for p in baseline.energy.phases]

    def test_offload_timing_values_unchanged_by_enabled_hub(self):
        baseline = offload_timing(double_buffered=True)
        with use_telemetry(Telemetry(enabled=True)):
            traced = offload_timing(double_buffered=True)
        assert traced.total_time == baseline.total_time
        assert traced.energy.total_energy == baseline.energy.total_energy


class TestEnergyAttribution:
    @pytest.mark.parametrize("double_buffered", [False, True])
    def test_span_energy_matches_account_total(self, double_buffered):
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            timing = offload_timing(double_buffered, iterations=5)
        account = timing.energy.total_energy
        assert hub.total_energy() == pytest.approx(account, rel=1e-9)

    def test_energy_by_phase_matches_account_labels(self):
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            timing = offload_timing()
        by_phase = TraceAnalyzer(hub).energy_by_phase()
        by_label = timing.energy.energy_by_label()
        for label in ("binary", "input", "compute", "output"):
            assert by_phase[label] == pytest.approx(by_label[label],
                                                    rel=1e-9)


class TestChromeTraceExport:
    def filled_hub(self, double_buffered=False):
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            offload_timing(double_buffered, iterations=4)
        return hub

    @pytest.mark.parametrize("double_buffered", [False, True])
    def test_schema_required_keys_and_monotonic_ts(self, double_buffered):
        events = chrome_trace_events(self.filled_hub(double_buffered))
        assert events, "no events exported"
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
            assert event["ph"] in ("B", "E", "i", "C", "M")
        timed = [e for e in events if e["ph"] != "M"]
        assert all(a["ts"] <= b["ts"] for a, b in zip(timed, timed[1:]))

    @pytest.mark.parametrize("double_buffered", [False, True])
    def test_balanced_begin_end_pairs(self, double_buffered):
        events = chrome_trace_events(self.filled_hub(double_buffered))
        stacks = defaultdict(list)
        for event in events:
            key = (event["pid"], event["tid"])
            if event["ph"] == "B":
                stacks[key].append(event["name"])
            elif event["ph"] == "E":
                assert stacks[key], f"E without B on {key}"
                assert stacks[key].pop() == event["name"]
        assert all(not stack for stack in stacks.values())

    def test_trace_object_is_json_serializable(self):
        trace = to_chrome_trace(self.filled_hub())
        payload = json.loads(json.dumps(trace))
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["generator"] == "repro.obs"
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"host", "spi", "pulp"} <= names

    def test_partial_overlap_rejected(self):
        hub = Telemetry(enabled=True)
        hub.span("a", "x", 0.0, 5.0)
        hub.span("b", "x", 3.0, 5.0)     # neither nested nor sequential
        with pytest.raises(ObservabilityError):
            chrome_trace_events(hub)

    def test_cycles_domain_maps_to_second_process(self):
        hub = Telemetry(enabled=True)
        hub.span("compute", "cluster.core0", 0.0, 10.0, domain=CYCLES)
        hub.span("input", "spi", 0.0, 1e-3, domain=WALL)
        pids = {e["pid"] for e in chrome_trace_events(hub)
                if e["ph"] in ("B", "E")}
        assert pids == {1, 2}


class TestRoundTripAnalyzer:
    def test_offload_round_trip(self):
        hub = Telemetry(enabled=True)
        timing = offload_timing(iterations=4)
        emit_offload_spans(hub, timing)
        analyzer = TraceAnalyzer(hub)
        stats = analyzer.lane_stats(WALL)
        assert {"host", "spi", "pulp"} <= set(stats)
        # Serial schedule: every lane fits in the offload extent.
        for lane_stats in stats.values():
            assert 0.0 <= lane_stats.utilization <= 1.0
        phases = analyzer.phase_totals()
        assert phases["compute"] == pytest.approx(
            timing.compute_time * timing.iterations, rel=1e-9)
        assert phases["input"] == pytest.approx(
            timing.input_time * timing.iterations, rel=1e-9)
        name, share = analyzer.critical_phase()
        assert name in phases and 0.0 < share <= 1.0
        # Serial schedule never overlaps; double buffering does.
        assert analyzer.overlap_efficiency() == 0.0
        db = Telemetry(enabled=True)
        emit_offload_spans(db, offload_timing(True, iterations=8))
        assert TraceAnalyzer(db).overlap_efficiency() > 0.0

    def test_des_recorder_round_trip(self):
        from repro.pulp.cluster import Cluster
        from repro.pulp.core import ComputeOp, MemOp

        streams = [[ComputeOp(5.0)] + [MemOp(4 * i) for i in range(10)]
                   for _ in range(4)]
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            run = Cluster().run(streams)
        analyzer = TraceAnalyzer(hub)
        stats = analyzer.lane_stats(CYCLES)
        assert {"cluster.core0", "cluster.core1", "cluster.core2",
                "cluster.core3"} <= set(stats)
        assert any(lane.startswith("tcdm.bank") for lane in stats)
        # A core's busy time is its compute plus granted-access cycles;
        # stalls are idle and do not count.
        for core, core_stats in enumerate(run.core_stats):
            lane = stats[f"cluster.core{core}"]
            assert lane.busy == \
                core_stats.compute_cycles + core_stats.memory_cycles
            assert 0.0 < lane.utilization <= 1.0
            assert lane.extent <= run.wall_cycles
        phases = analyzer.phase_totals(CYCLES)
        assert phases["compute"] == \
            sum(s.compute_cycles for s in run.core_stats)
        assert phases["memory"] == phases["bank"] == \
            sum(s.accesses for s in run.core_stats)
        assert phases.get("stall", 0.0) == \
            sum(s.stall_cycles for s in run.core_stats)
        # Exported events stay schema-valid.
        events = chrome_trace_events(hub)
        assert all(e["pid"] == 2 for e in events if e["ph"] in ("B", "E"))


class TestDesClusterLanes:
    """The DES cluster emits its lanes straight into the active hub."""

    @staticmethod
    def traced_run(streams, **kwargs):
        from repro.pulp.cluster import Cluster

        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            run = Cluster().run(streams, **kwargs)
        return run, hub

    def test_core_bank_and_barrier_events(self):
        from repro.pulp.core import ComputeOp, MemOp

        streams = [[ComputeOp(5.0)] + [MemOp(4 * i) for i in range(10)]
                   for _ in range(4)]
        run, hub = self.traced_run(streams)
        assert all(s.domain == CYCLES for s in hub.spans)
        lanes = hub.lanes(CYCLES)
        for core, stats in enumerate(run.core_stats):
            spans = hub.spans_in(f"cluster.core{core}")
            memory = [s for s in spans if s.name == "memory"]
            assert len(memory) == stats.accesses == 10
            assert all(s.duration == 1.0 for s in memory)
            barriers = [s for s in spans if s.name == "barrier"]
            assert len(barriers) == 1 and barriers[0].duration == 0.0
            assert barriers[0].attrs == {}
        assert {f"tcdm.bank{i}" for i in range(8)} <= set(lanes)
        bank_spans = [s for s in hub.spans if s.lane.startswith("tcdm.bank")]
        assert len(bank_spans) == sum(run.grants_by_bank) == 40
        assert all(s.name == "bank" for s in bank_spans)
        events = chrome_trace_events(hub)
        assert all(e["pid"] == 2 for e in events if e["ph"] in "BEi")

    def test_stalls_are_idle_spans_under_contention(self):
        from repro.pulp.core import MemOp

        streams = [[MemOp(0) for _ in range(10)] for _ in range(4)]
        run, hub = self.traced_run(streams)
        stalls = [s for s in hub.spans if s.name == "stall"]
        assert stalls and all(s.is_idle for s in stalls)
        assert all(s.attrs["detail"] == f"{s.duration:.0f}cy"
                   for s in stalls)
        assert sum(s.duration for s in stalls) == \
            sum(stats.stall_cycles for stats in run.core_stats)
        assert len(hub.spans_in("tcdm.bank0")) == 40

    def test_dma_channel_lanes(self):
        from repro.pulp.core import ComputeOp

        run, hub = self.traced_run(
            [[ComputeOp(10.0)]],
            dma_jobs=[(0, 0, 64, True), (0, 4096, 32, False)])
        dma = {s.lane: s for s in hub.spans if s.name == "dma"}
        assert set(dma) == {"dma.ch0", "dma.ch1"}
        assert dma["dma.ch0"].attrs == {"detail": "64B->tcdm"}
        assert dma["dma.ch1"].attrs == {"detail": "32B->l2"}
        assert sum(s.duration for s in dma.values()) == \
            run.dma_stats.busy_cycles
        events = chrome_trace_events(hub)
        threads = {e["args"]["name"]: e["pid"] for e in events
                   if e["name"] == "thread_name"}
        assert threads["dma.ch0"] == threads["dma.ch1"] == 2

    def test_disabled_hub_records_nothing_and_changes_nothing(self):
        from repro.pulp.cluster import Cluster
        from repro.pulp.core import ComputeOp, MemOp

        streams = [[ComputeOp(3.0)] + [MemOp(0) for _ in range(6)]
                   for _ in range(4)]
        dma_jobs = [(0, 0, 64, True)]
        quiet = Telemetry(enabled=False)
        with use_telemetry(quiet):
            plain = Cluster().run(streams, dma_jobs=dma_jobs)
        assert not quiet.spans and not quiet.counters
        traced, hub = self.traced_run(streams, dma_jobs=dma_jobs)
        assert hub.spans
        assert plain == traced

    @staticmethod
    def _digest(rows):
        import hashlib

        text = json.dumps(rows, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def _counter_rows(cls, hub):
        return sorted([c.name, c.kind, c.unit, c.domain, c.value,
                       [list(sample) for sample in c.samples]]
                      for c in hub.counters.values())

    # Captured before the cluster emitted into the hub itself, when a
    # recorder collected the events and a bridge routed them here.
    DES_LANE_DIGESTS = {
        "cnn": "0fed18e2c35c6142",
        "cnn (approx)": "dce49d7e50f394ff",
        "hog": "92148794b605b69c",
        "matmul": "8de2b92a9bd83b7b",
        "matmul (fixed)": "b559cd6e594ecff1",
        "matmul (short)": "574c90b3b639e102",
        "strassen": "def56eb1935f7481",
        "svm (RBF)": "cf3b84d01464815e",
        "svm (linear)": "542bca11da855937",
        "svm (poly)": "77eb00dfd730193a",
    }

    TRACED_OFFLOAD_DIGESTS = {
        "matmul": "9fe703df5cb9d38a",
        "hog": "58906d2ecdb5d256",
    }

    def test_replay_lanes_match_pinned_digests(self, monkeypatch):
        """Sorted cycle-domain spans and counters of the ``repro trace``
        DES replay, per builtin kernel, at a reduced cycle cap."""
        from repro import cli
        from repro.core.system import HeterogeneousSystem
        from repro.kernels import all_kernels

        monkeypatch.setattr(cli, "_DES_CYCLE_CAP", 2000.0)
        target = HeterogeneousSystem().target
        digests = {}
        for kernel in all_kernels():
            hub = Telemetry(enabled=True)
            with use_telemetry(hub):
                cli._des_cluster_lanes(hub, kernel, target)
            assert hub.counters["cluster.trace_events"].value == \
                len(hub.spans)
            spans = sorted([s.name, s.lane, s.start, s.duration,
                            sorted(s.attrs.items())]
                           for s in hub.spans if s.domain == CYCLES)
            digests[kernel.name] = self._digest(
                [spans, self._counter_rows(hub)])
        assert digests == self.DES_LANE_DIGESTS

    def test_traced_offload_hub_matches_pinned_digests(self):
        """Every span (parents by name) and counter of ``repro trace``'s
        hub at 8 MHz and two iterations."""
        import argparse

        from repro import cli

        digests = {}
        for name in self.TRACED_OFFLOAD_DIGESTS:
            args = argparse.Namespace(kernel=name, host_mhz=8.0,
                                      iterations=2, double_buffer=False)
            hub, _ = cli._traced_offload(args)
            by_id = {s.span_id: s for s in hub.spans}

            def parent(span):
                if span.parent is None:
                    return None
                owner = by_id[span.parent]
                return [owner.name, owner.lane, owner.start]

            spans = sorted([s.name, s.lane, s.start, s.duration, s.domain,
                            parent(s), s.energy, sorted(s.attrs.items())]
                           for s in hub.spans)
            digests[name] = self._digest([spans, self._counter_rows(hub)])
        assert digests == self.TRACED_OFFLOAD_DIGESTS


class TestRenderers:
    def test_metrics_snapshot_and_render(self):
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            offload_timing()
        snapshot = metrics_snapshot(hub, extra={"kernel": "matmul"})
        assert snapshot["kernel"] == "matmul"
        assert snapshot["span_count"] == len(hub.spans)
        text = render_metrics(snapshot)
        assert "lanes" in text and "critical phase" in text

    def test_span_timeline_renders_lanes(self):
        hub = Telemetry(enabled=True)
        emit_offload_spans(hub, offload_timing())
        text = render_span_timeline(hub, domain=WALL)
        assert "host" in text and "spi" in text and "pulp" in text
        with pytest.raises(ObservabilityError):
            render_span_timeline(hub, width=3)
        assert render_span_timeline(Telemetry(enabled=True)) \
            == "(no spans recorded)"

    def test_collapsed_stacks_format(self):
        from repro.machine.programs import profile_builtin

        profiled = profile_builtin("dot_product_i8")
        text = collapsed_stacks(profiled, root="dot")
        lines = text.splitlines()
        assert lines
        for line in lines:
            frames, count = line.rsplit(" ", 1)
            assert frames.startswith("dot;pc_")
            assert int(count) >= 1


class TestLegacyGanttEquivalence:
    """core.trace is now a renderer over unified events — the phase
    timelines must still be contiguous and sum to the model's totals."""

    def test_serial_phases_contiguous_and_complete(self):
        from repro.core.trace import trace_offload

        timing = offload_timing(iterations=2)
        phases = trace_offload(timing)
        labels = [p.label for p in phases]
        assert labels[0] == "binary"
        assert "in[0]" in labels and "compute[1]" in labels
        for previous, current in zip(phases, phases[1:]):
            assert current.start == pytest.approx(previous.end, rel=1e-12)
        assert phases[-1].end == pytest.approx(timing.total_time, rel=1e-9)

    def test_double_buffered_phase_structure(self):
        from repro.core.trace import trace_offload

        timing = offload_timing(double_buffered=True, iterations=3)
        phases = trace_offload(timing)
        labels = [p.label for p in phases]
        assert "prologue(in)" in labels
        assert "period[0]" in labels and "period[2]" in labels
        assert labels[-1] == "epilogue(out)"
        assert phases[-1].end == pytest.approx(timing.total_time, rel=1e-9)
