"""Tests for the multi-accelerator serving runtime (``repro.serve``)."""

import builtins
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import repro
from repro import errors
from repro.cli import main
from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.errors import ConfigurationError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.kernels import BENCHMARK_NAMES, all_kernels
from repro.obs import Telemetry, use_telemetry
from repro.serve import (
    AnalyticServiceBook,
    ClosedLoopWorkload,
    MmppWorkload,
    PoissonWorkload,
    Request,
    TraceWorkload,
)
from repro.serve import metrics
from repro.serve.engine import (
    ServeConfig,
    ServeEngine,
    default_power_budget,
)
from repro.serve.archetype import FleetSpec, NodeArchetype
from repro.serve.chaos import (
    pinned_campaign_config,
    pinned_campaign_plans,
    run_campaign,
)
from repro.serve.fleet import NodeState, PowerTracker, ServiceBook
from repro.serve.metrics import percentile
from repro.serve.resilience import ResilienceConfig, SloPolicy
from repro.serve.scheduler import (
    POWER_EPSILON,
    Policy,
    Scheduler,
    SchedulerConfig,
)
from repro.serve.workload import DEFAULT_MIX, Lcg
from repro.sim import Simulator
from repro.units import ordered_sum
from tests.invariants import assert_served


@pytest.fixture(scope="module")
def book():
    """One calibrated service book shared by the whole module."""
    return AnalyticServiceBook()


def _flat_estimate(kernel, iterations):
    return 1e-3 * iterations


class ExponentialBook(ServiceBook):
    """Synthetic memoryless-service book (for queueing-theory checks)."""

    idle_power = 0.0
    host_power = 0.0

    def __init__(self, mu, seed=1):
        self.mu = mu
        self.rng = Lcg(seed)

    def active_power(self, kernel, tier):
        return 0.0

    def cold_cost(self, kernel, tier):
        return (0.0, 0.0)

    def batch_compute(self, batch, tier, droop=1.0):
        return 0.0

    def batch_service(self, batch, tier, droop=1.0):
        return (ordered_sum([self.rng.exponential(self.mu) for _ in batch]),
                0.0)

    def estimate(self, request):
        return 1.0 / self.mu

    def host_time(self, request):
        return 1.0 / self.mu


class FixedBook(ServiceBook):
    """Deterministic per-request service time, zero power."""

    idle_power = 0.0
    host_power = 0.0

    def __init__(self, service_s=1e-3, cold_s=0.0):
        self.service_s = service_s
        self.cold_s = cold_s

    def active_power(self, kernel, tier):
        return 0.0

    def cold_cost(self, kernel, tier):
        return (self.cold_s, 0.0)

    def batch_compute(self, batch, tier, droop=1.0):
        return self.service_s * len(batch)

    def batch_service(self, batch, tier, droop=1.0):
        return (self.service_s * len(batch) / droop, 0.0)

    def estimate(self, request):
        return self.service_s

    def host_time(self, request):
        return self.service_s * 10


#: The seeded open-loop generators, each with its rate keywords.
GENERATORS = [(PoissonWorkload, {"rate": 100.0}), (MmppWorkload, {})]


class TestWorkloads:
    def test_poisson_stream_is_seeded(self):
        first = PoissonWorkload(rate=100.0, requests=50, seed=9)
        second = PoissonWorkload(rate=100.0, requests=50, seed=9)
        a = first.arrivals(_flat_estimate)
        b = second.arrivals(_flat_estimate)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
        other = PoissonWorkload(rate=100.0, requests=50, seed=10)
        assert [r.to_dict() for r in other.arrivals(_flat_estimate)] \
            != [r.to_dict() for r in a]

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ConfigurationError, match="must be finite"):
            PoissonWorkload(rate=rate, requests=10)
        with pytest.raises(ConfigurationError, match="must be finite"):
            MmppWorkload(rates=(100.0, rate), requests=10)

    @pytest.mark.parametrize("workload, rates", GENERATORS)
    @pytest.mark.parametrize("duration", [math.nan, math.inf, 0.0, -1.0,
                                          None])
    def test_stream_without_a_finite_bound_is_rejected(self, workload,
                                                       rates, duration):
        with pytest.raises(ConfigurationError, match="finite duration"):
            workload(**rates, duration=duration)

    @pytest.mark.parametrize("workload, rates", GENERATORS)
    def test_request_bound_must_be_positive(self, workload, rates):
        with pytest.raises(ConfigurationError, match=">= 1 requests"):
            workload(**rates, requests=0, duration=1.0)
        # A request bound needs no finite duration.
        stream = workload(**rates, requests=5, duration=math.inf) \
            .arrivals(_flat_estimate)
        assert len(stream) == 5

    def test_poisson_mean_rate(self):
        stream = PoissonWorkload(rate=200.0, requests=4000, seed=3) \
            .arrivals(_flat_estimate)
        measured = len(stream) / stream[-1].arrival_s
        assert measured == pytest.approx(200.0, rel=0.1)

    def test_deadlines_scale_with_estimate(self):
        stream = PoissonWorkload(rate=100.0, requests=20, seed=1,
                                 deadline_factor=10.0) \
            .arrivals(_flat_estimate)
        for request in stream:
            assert request.deadline_s == pytest.approx(
                request.arrival_s + 10.0 * 1e-3)

    def test_mmpp_is_burstier_than_poisson(self):
        poisson = PoissonWorkload(rate=300.0, requests=2000, seed=4) \
            .arrivals(_flat_estimate)
        mmpp = MmppWorkload(rates=(100.0, 1000.0), dwell_s=(0.1, 0.05),
                            requests=2000, seed=4).arrivals(_flat_estimate)

        def cv2(stream):
            gaps = [b.arrival_s - a.arrival_s
                    for a, b in zip(stream, stream[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean ** 2

        # Poisson gaps have CV^2 ~= 1; MMPP is over-dispersed.
        assert cv2(poisson) == pytest.approx(1.0, abs=0.3)
        assert cv2(mmpp) > cv2(poisson) * 1.5

    def test_trace_roundtrip(self, tmp_path):
        original = PoissonWorkload(rate=100.0, requests=25, seed=2) \
            .arrivals(_flat_estimate)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([r.to_dict() for r in original]))
        replayed = TraceWorkload.from_json(str(path)) \
            .arrivals(_flat_estimate)
        assert [r.to_dict() for r in replayed] \
            == [r.to_dict() for r in original]

    def test_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ConfigurationError):
            TraceWorkload.from_json(str(path))
        with pytest.raises(ConfigurationError):
            TraceWorkload([{"kernel": "matmul"}]).arrivals(_flat_estimate)

    def test_closed_loop_budget(self):
        workload = ClosedLoopWorkload(clients=3, think_s=0.01,
                                      requests_per_client=2, seed=5)
        wave = workload.arrivals(_flat_estimate)
        assert len(wave) == 3
        extra = [workload.next_request(0, 1.0, _flat_estimate)]
        assert extra[0] is not None
        assert workload.next_request(0, 2.0, _flat_estimate) is None
        assert workload.total_requests == 6


class TestScheduler:
    def _requests(self, spec):
        return [Request(request_id=i, kernel=k, arrival_s=0.0, deadline_s=d)
                for i, (k, d) in enumerate(spec)]

    def test_sjf_picks_shortest(self, book):
        scheduler = Scheduler(
            SchedulerConfig(policy=Policy.SJF, max_batch=1), book)
        for request in self._requests(
                [("cnn", None), ("svm (RBF)", None), ("matmul", None)]):
            scheduler.submit(request)
        batch, _ = scheduler.take_batch(0.0)
        # svm (RBF) has the shortest warm service time of the three.
        assert batch[0].kernel == "svm (RBF)"

    def test_edf_picks_earliest_deadline(self, book):
        scheduler = Scheduler(
            SchedulerConfig(policy=Policy.EDF, max_batch=1), book)
        for request in self._requests(
                [("matmul", 0.5), ("matmul", None), ("matmul", 0.1)]):
            scheduler.submit(request)
        batch, _ = scheduler.take_batch(0.0)
        assert batch[0].deadline_s == 0.1
        batch, _ = scheduler.take_batch(0.0)
        assert batch[0].deadline_s == 0.5  # deadline-less sorts last

    def test_admission_control_drops_over_capacity(self, book):
        scheduler = Scheduler(SchedulerConfig(queue_capacity=2), book)
        requests = self._requests([("matmul", None)] * 4)
        admitted = [scheduler.submit(r) for r in requests]
        assert admitted == [True, True, False, False]
        assert [reason for _, reason in scheduler.dropped] \
            == ["queue-full", "queue-full"]

    def test_batch_coalesces_same_kernel_only(self, book):
        scheduler = Scheduler(SchedulerConfig(max_batch=8), book)
        for request in self._requests(
                [("matmul", None), ("cnn", None), ("matmul", None),
                 ("matmul", None)]):
            scheduler.submit(request)
        batch, _ = scheduler.take_batch(0.0)
        assert [r.kernel for r in batch] == ["matmul"] * 3
        assert [r.request_id for r in batch] == [0, 2, 3]
        batch, _ = scheduler.take_batch(0.0)
        assert [r.kernel for r in batch] == ["cnn"]

    def test_max_batch_bounds_coalescing(self, book):
        scheduler = Scheduler(SchedulerConfig(max_batch=2), book)
        for request in self._requests([("matmul", None)] * 5):
            scheduler.submit(request)
        batch, _ = scheduler.take_batch(0.0)
        assert len(batch) == 2

    def test_requeue_goes_to_head(self, book):
        scheduler = Scheduler(SchedulerConfig(), book)
        for request in self._requests([("matmul", None), ("cnn", None)]):
            scheduler.submit(request)
        batch, _ = scheduler.take_batch(0.0)
        scheduler.requeue(batch)
        assert scheduler.queue[0].request_id == 0

    def test_drop_late_counts_misses(self, book):
        scheduler = Scheduler(SchedulerConfig(drop_late=True), book)
        for request in self._requests([("matmul", 0.1), ("matmul", 9.0)]):
            scheduler.submit(request)
        batch, late = scheduler.take_batch(now=1.0)
        assert [r.request_id for r in late] == [0]
        assert [r.request_id for r in batch] == [1]

    def test_power_cap_needs_budget(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(policy=Policy.POWER_CAP)

    def test_tier_selection_under_budget(self, book):
        config = SchedulerConfig(policy=Policy.POWER_CAP,
                                 power_budget_w=10e-3)
        scheduler = Scheduler(config, book)
        assert scheduler.tier_for(4e-3, 1e-3, 6e-3, 3e-3) == "fast"
        assert scheduler.tier_for(6e-3, 1e-3, 6e-3, 3e-3) == "eco"
        assert scheduler.tier_for(9e-3, 1e-3, 6e-3, 3e-3) is None


def _landing(target, current_w, idle_w):
    """A draw with ``current_w - idle_w + draw == target`` exactly."""
    base = current_w - idle_w
    draw = target - base
    for _ in range(8):
        if base + draw == target:
            return draw
        draw = math.nextafter(draw, math.inf if base + draw < target
                              else -math.inf)
    raise AssertionError(f"no draw lands on {target!r}")


class TestPowerGateEdge:
    """``tier_for`` decides as ``power_allows`` around the gate's limit.

    Draws land exactly on ``budget * (1 + POWER_EPSILON)``, one ulp
    below and one ulp above it, at both tiers; the limit itself passes.
    """

    BUDGET_W = 0.0123

    @pytest.mark.parametrize("policy,budget", [
        (Policy.FIFO, BUDGET_W), (Policy.POWER_CAP, BUDGET_W),
        (Policy.FIFO, None)], ids=["fifo-budget", "power-cap", "no-budget"])
    @pytest.mark.parametrize("current_w,idle_w",
                             [(0.0, 0.0), (4.1e-3, 1.3e-3)])
    def test_tier_matches_power_allows(self, policy, budget, current_w,
                                       idle_w):
        scheduler = Scheduler(
            SchedulerConfig(policy=policy, power_budget_w=budget), None)
        limit = self.BUDGET_W * (1.0 + POWER_EPSILON)
        targets = (math.nextafter(limit, 0.0), limit,
                   math.nextafter(limit, math.inf))
        draws = [_landing(target, current_w, idle_w) for target in targets]
        allows = [scheduler.power_allows(current_w, idle_w, draw)
                  for draw in draws]
        assert allows == ([True, True, False] if budget is not None
                          else [True, True, True])
        for fast_w, fast_ok in zip(draws, allows):
            for eco_w, eco_ok in zip(draws, allows):
                expected = "fast" if fast_ok else (
                    "eco" if eco_ok and policy is Policy.POWER_CAP
                    else None)
                assert scheduler.tier_for(current_w, idle_w, fast_w,
                                          eco_w) == expected


class TestNodeAvailability:
    def test_available_follows_state_writes_and_assignments(self, book):
        config = ServeConfig(
            workload=PoissonWorkload(rate=100.0, requests=4, seed=1),
            nodes=2, book=book)
        engine = ServeEngine(config)
        node, host = engine.fleet.nodes[0], engine.fleet.host
        assert node.available and host.available
        node.state = NodeState.REBOOTING
        assert node.alive and not node.available
        node.state = NodeState.IDLE
        assert node.available
        for backend in (node, host):
            backend.assign([Request(0, "matmul", 0.0, None, 1)], "fast")
            assert backend.state is NodeState.BUSY
            assert not backend.available
        served = ServeEngine(config)
        served.run()
        assert all(backend.available for backend in
                   served.fleet.nodes + [served.fleet.host])


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50.0) == 50
        assert percentile(values, 95.0) == 95
        assert percentile(values, 99.0) == 99
        assert percentile(values, 100.0) == 100
        assert percentile([7.0], 99.0) == 7.0

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101.0)


class TestQueueingTheory:
    def test_mm1_mean_wait_matches_analytic(self):
        lam, mu = 60.0, 100.0
        config = ServeConfig(
            workload=PoissonWorkload(rate=lam, requests=20000,
                                     deadline_factor=None, seed=1),
            nodes=1,
            scheduler=SchedulerConfig(max_batch=1),
            book=ExponentialBook(mu, seed=18))
        report = ServeEngine(config).run()
        analytic = lam / (mu * (mu - lam))    # Wq of M/M/1
        assert report.mean_wait_s() == pytest.approx(analytic, rel=0.10)

    def test_conservation_at_drain(self):
        config = ServeConfig(
            workload=PoissonWorkload(rate=400.0, requests=300, seed=11),
            nodes=2,
            scheduler=SchedulerConfig(queue_capacity=16),
            fault_plans=[FaultPlan.kernel_hang(3), FaultPlan.boot_failure(3)],
            seed=11, book=FixedBook(service_s=2e-3, cold_s=1e-3))
        report = ServeEngine(config).run()
        # The engine itself asserts queue and in-flight are empty; the
        # report must balance the books.
        assert_served(report, 300)


class TestFleetResilience:
    def test_node_death_requeues_without_loss(self):
        # Every accelerator dies on its first batch (three boot
        # failures exhaust the ladder); the host serves everything.
        config = ServeConfig(
            workload=PoissonWorkload(rate=500.0, requests=40, seed=3),
            nodes=2,
            fault_plans=[FaultPlan.boot_failure(99)],
            seed=3, book=FixedBook(service_s=1e-3))
        report = ServeEngine(config).run()
        assert report.dead_nodes == 2
        assert report.completed == 40
        assert not report.dropped
        assert report.requeues > 0
        assert report.fallbacks == 40
        assert all(record.tier == "host" for record in report.records)

    def test_transient_faults_recover_in_place(self):
        config = ServeConfig(
            workload=PoissonWorkload(rate=200.0, requests=60, seed=5),
            nodes=2,
            fault_plans=[FaultPlan.kernel_hang(2), FaultPlan.clean()],
            seed=5, book=FixedBook(service_s=1e-3))
        report = ServeEngine(config).run()
        assert report.completed == 60
        assert report.dead_nodes == 0
        assert report.fallbacks == 0
        summary = report.metrics()
        assert summary["fault_attempts"] > 0
        assert summary["wasted_time_ms"] > 0

    def test_brownout_stretches_service(self):
        base = ServeConfig(
            workload=PoissonWorkload(rate=50.0, requests=30, seed=7),
            nodes=1, book=FixedBook(service_s=2e-3))
        slow = ServeConfig(
            workload=PoissonWorkload(rate=50.0, requests=30, seed=7),
            nodes=1, fault_plans=[FaultPlan.brownout(0.8)],
            seed=7, book=FixedBook(service_s=2e-3))
        healthy = ServeEngine(base).run()
        drooped = ServeEngine(slow).run()
        assert drooped.latency_percentiles()["p50"] \
            > healthy.latency_percentiles()["p50"]


class TestBatching:
    def test_coalescing_amortizes_cold_starts(self):
        def run(max_batch):
            # Two kernels: every switch of the resident binary costs a
            # cold start, so coalescing visibly amortizes it.
            config = ServeConfig(
                workload=PoissonWorkload(rate=2000.0, requests=200,
                                         mix={"matmul": 1.0, "cnn": 1.0},
                                         seed=13),
                nodes=1,
                scheduler=SchedulerConfig(max_batch=max_batch),
                book=FixedBook(service_s=1e-3, cold_s=5e-3))
            return ServeEngine(config).run()

        batched = run(8)
        serial = run(1)
        assert batched.completed == serial.completed == 200
        assert sum(batched.node_batches.values()) \
            < sum(serial.node_batches.values())
        # Cold start paid per batch, not per request: less busy time.
        assert sum(batched.node_busy_s.values()) \
            < sum(serial.node_busy_s.values())
        assert batched.latency_percentiles()["p95"] \
            < serial.latency_percentiles()["p95"]


class TestPowerCap:
    def test_peak_power_stays_under_budget(self, book):
        budget = default_power_budget(book, 4)
        config = ServeConfig(
            workload=PoissonWorkload(rate=400.0, requests=300, seed=7),
            nodes=4,
            scheduler=SchedulerConfig(policy=Policy.POWER_CAP,
                                      power_budget_w=budget),
            seed=7, book=book)
        report = ServeEngine(config).run()
        assert report.completed == 300
        assert report.power_peak_w <= budget * (1.0 + 1e-6)
        assert report.power_budget_w == budget

    def test_tight_budget_throttles_to_eco(self, book):
        # Room for one fast dispatch but not two: the second concurrent
        # dispatch must run at the throttled eco envelope point.
        fast_w = max(book.active_power(k, "fast")
                     for k in ("matmul", "svm (RBF)", "cnn"))
        budget = book.host_power + 2 * book.idle_power \
            + (fast_w - book.idle_power) * 1.6
        config = ServeConfig(
            workload=PoissonWorkload(rate=500.0, requests=200, seed=9),
            nodes=2,
            scheduler=SchedulerConfig(policy=Policy.POWER_CAP,
                                      power_budget_w=budget),
            seed=9, book=book)
        report = ServeEngine(config).run()
        assert report.completed == 200
        assert report.power_peak_w <= budget * (1.0 + 1e-6)
        tiers = {record.tier for record in report.records}
        assert "eco" in tiers

    def test_fifo_with_budget_defers_instead_of_throttling(self, book):
        fast_w = max(book.active_power(k, "fast")
                     for k in ("matmul", "svm (RBF)", "cnn"))
        budget = book.host_power + 2 * book.idle_power \
            + (fast_w - book.idle_power) * 1.6
        config = ServeConfig(
            workload=PoissonWorkload(rate=500.0, requests=100, seed=9),
            nodes=2,
            scheduler=SchedulerConfig(policy=Policy.FIFO,
                                      power_budget_w=budget),
            seed=9, book=book)
        report = ServeEngine(config).run()
        assert report.completed == 100
        assert report.power_peak_w <= budget * (1.0 + 1e-6)
        assert {record.tier for record in report.records} == {"fast"}


class TestDeterminism:
    def _run(self, seed):
        config = ServeConfig(
            workload=MmppWorkload(requests=150, seed=seed),
            nodes=3,
            scheduler=SchedulerConfig(policy=Policy.SJF),
            fault_plans=[FaultPlan.kernel_hang(1), FaultPlan.clean(),
                         FaultPlan.brownout(0.9)],
            seed=seed, book=FixedBook(service_s=1.5e-3, cold_s=1e-3))
        return ServeEngine(config).run()

    def test_same_seed_bit_identical_report(self):
        assert self._run(21).to_json() == self._run(21).to_json()

    def test_different_seed_differs(self):
        assert self._run(21).to_json() != self._run(22).to_json()


class TestServeCli:
    def test_miss_threshold_exit_code(self, capsys):
        # One node, heavy overload, tight deadlines: misses guaranteed.
        argv = ["serve", "--nodes", "1", "--arrival-rate", "2000",
                "--requests", "120", "--deadline-factor", "2",
                "--seed", "3", "--miss-threshold", "0.01"]
        assert main(argv) == 3
        payload_text = capsys.readouterr().out
        assert "missed" in payload_text

    def test_replay_trace(self, tmp_path, capsys):
        rows = PoissonWorkload(rate=200.0, requests=30, seed=2) \
            .arrivals(_flat_estimate)
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([r.to_dict() for r in rows]))
        argv = ["serve", "--replay", str(path), "--nodes", "2", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 30

    def test_bad_replay_trace_is_a_clean_error(self, tmp_path):
        path = tmp_path / "requests.json"
        replay = ["serve", "--replay", str(path)]
        closed = ["--workload", "closed", "--clients", "0", "--requests", "10"]
        cases = [
            ("not json", replay, "serve: cannot load trace"),
            ('{"t": 0}', replay, "serve: trace .* is not a JSON"),
            ('[{"bogus": 1}]', replay, "serve: bad trace row 0"),
            (None, ["serve", *closed], "serve: need >= 1 clients"),
            (None, ["chaos", "--empty", *closed],
             "chaos: need >= 1 clients")]
        # A closed-loop run serves exactly --requests or refuses: each
        # client issues the same count, so it must be a multiple.
        for clients, requests, extra in (("3", "10", []), ("8", "3", []),
                                         ("4", "0", ["--duration", "5"])):
            flags = ["--workload", "closed", "--clients", clients,
                     "--requests", requests, *extra]
            message = (f"--requests {requests} must be a positive multiple "
                       f"of --clients {clients}")
            cases += [(None, ["serve", *flags], f"serve: {message}"),
                      (None, ["chaos", "--empty", *flags],
                       f"chaos: {message}")]
        for text, argv, message in cases:
            if text is not None:
                path.write_text(text)
            with pytest.raises(SystemExit, match=message):
                main(argv)

    @pytest.mark.parametrize("command", [["serve"], ["chaos", "--empty"]])
    def test_spec_errors_name_the_command(self, command, tmp_path):
        name = command[0]
        cases = [
            (["--requests", "0"],
             f"{name}: PoissonWorkload needs >= 1 requests or a finite "
             f"duration > 0, got duration=None"),
            (["--scheduler", "bogus"],
             f"{name}: unknown --scheduler 'bogus'; registered: "),
            (["--scheduler", "predicted"],
             f"{name}: --scheduler predicted needs --model "),
            (["--model", str(tmp_path / "missing.json")],
             f"{name}: cannot use model "),
        ]
        for flags, message in cases:
            with pytest.raises(SystemExit) as info:
                main([*command, *flags])
            assert str(info.value.code).startswith(message), flags

    def test_closed_loop_serves_exactly_the_requests_asked_for(self, capsys):
        argv = ["serve", "--workload", "closed", "--clients", "3",
                "--requests", "12", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["arrivals"] == payload["completed"] == 12


class TieredBook(FixedBook):
    """FixedBook with a fast and an eco tier of fixed draws per kernel."""

    idle_power = 1.0
    host_power = 0.5

    def __init__(self, fast_w, eco_w):
        super().__init__()
        self.fast_w = fast_w
        self.eco_w = eco_w

    def tiers(self):
        return ("fast", "eco")

    def active_power(self, kernel, tier):
        return (self.fast_w if tier == "fast" else self.eco_w)[kernel]


class TestPowerBudgetFailsFast:
    """A budget some kernel fits on no idle node is rejected up front."""

    @staticmethod
    def _config(policy, budget_w, workload=None):
        # Two idle nodes and the host: the idle fleet draws 2.5 W, so
        # matmul needs 3.5 W fast / 3.0 W eco and cnn 4.5 W / 3.5 W.
        return ServeConfig(
            workload=workload or TraceWorkload(
                [{"t": 0.001 * i, "kernel": kernel}
                 for i, kernel in enumerate(["matmul", "cnn"] * 3)]),
            nodes=2, book=TieredBook({"matmul": 2.0, "cnn": 3.0},
                                     {"matmul": 1.5, "cnn": 2.0}),
            scheduler=SchedulerConfig(policy=policy, power_budget_w=budget_w))

    def test_eco_fit_runs_under_power_cap(self):
        report = ServeEngine(self._config(Policy.POWER_CAP, 3.6)).run()
        assert report.completed == 6

    def test_no_tier_fits(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "power budget 3400.000 mW cannot run 'cnn' on an idle "
                "fleet (needs 3500.000 mW)")):
            ServeEngine(self._config(Policy.POWER_CAP, 3.4)).run()

    def test_only_power_cap_may_throttle(self):
        # FIFO under a budget gates the fast tier only.
        with pytest.raises(ConfigurationError, match=re.escape(
                "cannot run 'cnn' on an idle fleet (needs 4500.000 mW)")):
            ServeEngine(self._config(Policy.FIFO, 4.0)).run()
        assert ServeEngine(self._config(Policy.FIFO, 4.5)).run() \
            .completed == 6

    def test_closed_loop_checks_the_whole_mix(self):
        workload = ClosedLoopWorkload(clients=1, think_s=0.001,
                                      requests_per_client=3, seed=1,
                                      mix={"matmul": 1.0, "cnn": 1e-9})
        first_wave = workload.arrivals(_flat_estimate)
        assert {request.kernel for request in first_wave} == {"matmul"}
        with pytest.raises(ConfigurationError, match="cannot run 'cnn'"):
            ServeEngine(self._config(Policy.POWER_CAP, 3.4, workload)).run()

    def test_plain_serve_exits_1_with_one_line(self):
        with pytest.raises(SystemExit, match=re.escape(
                "serve: power budget 0.500 mW cannot run 'cnn' on an idle "
                "fleet (needs 8.543 mW)")):
            main(["serve", "--policy", "power-cap", "--power-budget", "0.5",
                  "--requests", "20"])

    def test_resilient_chaos_exits_1_instead_of_hanging(self):
        # In a child under a timeout: a regression that re-arms the
        # health probe forever fails here instead of hanging the suite.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--empty",
             "--resilience", "on", "--policy", "power-cap",
             "--power-budget", "0.5", "--requests", "30"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr == (
            "chaos: power budget 0.500 mW cannot run 'cnn' on an idle "
            "fleet (needs 8.543 mW)\n")


class TestRegressions:
    def test_timeout_error_is_builtin_timeout(self):
        # The driver-facing TimeoutError must be catchable both as a
        # repro error and as the builtin.
        assert issubclass(errors.TimeoutError, builtins.TimeoutError)
        assert issubclass(errors.TimeoutError, errors.ReproError)
        try:
            raise errors.TimeoutError("watchdog tripped")
        except builtins.TimeoutError:
            pass

    def test_offload_result_metrics_degraded_fields(self):
        system = HeterogeneousSystem()
        from repro.kernels import kernel_by_name

        result = system.offload(kernel_by_name("matmul"))
        summary = result.metrics()
        for key in ("degraded", "fault_attempts", "wasted_time_s",
                    "wasted_energy_j"):
            assert key in summary
        assert summary["degraded"] is False
        assert summary["fault_attempts"] == 0

    def test_requeue_preserves_arrival_order_across_repeats(self, book):
        # Batches requeued out of order (and more than once) must land
        # back at the head sorted by their ORIGINAL enqueue time, with
        # those arrival stamps untouched.
        scheduler = Scheduler(SchedulerConfig(max_batch=2), book)
        requests = [Request(request_id=i, kernel="matmul",
                            arrival_s=i * 0.01) for i in range(6)]
        for request in requests:
            assert scheduler.submit(request)
        batches = [scheduler.take_batch(1.0)[0] for _ in range(3)]
        assert not scheduler.queue
        for batch in (batches[1], batches[2], batches[0]):
            scheduler.requeue(batch)
        assert [r.request_id for r in scheduler.queue] == [0, 1, 2, 3, 4, 5]
        # A second round of out-of-order deaths still cannot invert it.
        rebatches = [scheduler.take_batch(2.0)[0] for _ in range(3)]
        for batch in (rebatches[2], rebatches[0], rebatches[1]):
            scheduler.requeue(batch)
        assert [r.request_id for r in scheduler.queue] == [0, 1, 2, 3, 4, 5]
        assert [r.arrival_s for r in scheduler.queue] \
            == [i * 0.01 for i in range(6)]

    def test_power_tracker_timeline_stays_compact(self):
        simulator = Simulator()
        tracker = PowerTracker(simulator, base_w=1.0)

        def flap(watts):
            tracker.set_draw("node1", watts)

        # An unchanged draw is a no-op, even at a new timestamp.
        simulator.schedule(0.1, flap, 2.0)
        simulator.schedule(0.2, flap, 2.0)
        simulator.schedule(0.2, flap, 2.0)
        # Offsetting updates at one instant pop their redundant entry.
        simulator.schedule(0.3, flap, 4.0)
        simulator.schedule(0.3, flap, 2.0)
        simulator.run()
        assert tracker.timeline == [(0.0, 1.0), (0.1, 3.0)]
        assert tracker.current_w == 3.0
        assert tracker.peak_w == 5.0

    def test_power_tracker_timeline_length_bounded_by_changes(self):
        simulator = Simulator()
        tracker = PowerTracker(simulator, base_w=0.01)
        # A node flapping between the same two levels for 100 probe
        # ticks yields one entry per actual change — not per call.
        for tick in range(100):
            simulator.schedule(0.01 * (tick + 1), tracker.set_draw,
                               "node1", 0.05 if tick % 10 == 0 else 0.0)
        simulator.run()
        changes = 20  # ten rises, ten falls
        assert len(tracker.timeline) == 1 + changes


#: Every ServiceProfile of the default mix x {fast, eco}, as the offload
#: stack priced it before service books moved onto the staged pipeline
#: (dataclasses.astuple order).
PINNED_PROFILES = [
    ('matmul', 'fast', 0.002902596121314089, 1.4427809182016891e-05,
     0.0031215, 0.0013787423239632127, 1.5387423194013463e-05,
     1.0277079057936657e-05, 0.007499951967177637, 173229654.3121338,
     0.6746055618859828),
    ('matmul', 'eco', 0.002920601192319305, 1.2230857408152903e-05,
     0.0031215, 0.002152180123438293, 1.3053999506967987e-05,
     8.509641564940485e-06, 0.003999963458851018, 110975402.83203125,
     0.594382795970887),
    ('svm (RBF)', 'fast', 0.003109030872440332, 1.5049563770503401e-05,
     0.0021855, 0.0010072263983062512, 1.0473388898571523e-05,
     7.50783611532202e-06, 0.007499970753692689, 163381059.64660645,
     0.6627587336115539),
    ('svm (RBF)', 'eco', 0.003128282946719087, 1.2895418176017063e-05,
     0.0021855, 0.0015770383380299265, 8.982874845509088e-06,
     6.235605030226412e-06, 0.003999997109554151, 104348583.22143555,
     0.585000570397824),
    ('cnn', 'fast', 0.012197287158946843, 5.860643071275405e-05,
     0.0005715, 0.0044309656679416875, 2.694804118777139e-06,
     3.302837618822285e-05, 0.007499990543683334, 162159833.90808105,
     0.6612714496441185),
    ('cnn', 'eco', 0.012216706087236243, 5.030759199923154e-05,
     0.0005715, 0.0069404942261973536, 2.316741330872325e-06,
     2.7442561315035674e-05, 0.003999977976302021, 103526439.66674805,
     0.5838255058042705),
]

#: matmul at {fast, eco} on archetypes that each differ from the default
#: node in one pricing input: the host MCU, the cluster size, the link.
PINNED_ARCHETYPE_PROFILES = {
    "apollo": [
        ('matmul', 'fast', 0.002898775362160551, 1.0853277054587794e-05,
         0.0031215, 0.0012146152538072027, 1.1477944067275759e-05,
         1.0971484742647008e-05, 0.009082388981310722, 196637622.83325195,
         0.7018736307509243),
        ('matmul', 'eco', 0.002909820163328924, 8.693620047115356e-06,
         0.0031215, 0.00168906307513664, 9.181326309414845e-06,
         9.34539388704413e-06, 0.005582386263757863, 141403278.35083008,
         0.6352876215241849),
    ],
    "x2": [
        ('matmul', 'fast', 0.002895438750184728, 1.6469587454532726e-05,
         0.0031215, 0.002128052732207759, 1.7655168897053942e-05,
         1.586244895971531e-05, 0.0074999736349760145, 222946216.58325195,
         0.7314746067859232),
        ('matmul', 'eco', 0.0029090265952193255, 1.3272009077446471e-05,
         0.0031215, 0.0032875194471194886, 1.4230466404216034e-05,
         1.2998828493896072e-05, 0.003999992882167007, 144315893.17321777,
         0.639019915368408),
    ],
    "single": [
        ('matmul', 'fast', 0.011469096121314089, 5.3502312720644624e-05,
         0.012352499999999999, 0.0013787423239632127, 5.749292044085553e-05,
         1.0277079057936657e-05, 0.007499951967177637, 173229654.3121338,
         0.6746055618859828),
        ('matmul', 'eco', 0.011487101192319304, 4.487173557984304e-05,
         0.012352499999999999, 0.002152180123438293, 4.8226817624387197e-05,
         8.509641564940485e-06, 0.003999963458851018, 110975402.83203125,
         0.594382795970887),
    ],
}

_ARCHETYPES = (NodeArchetype(name="apollo", mcu="Ambiq Apollo"),
               NodeArchetype(name="x2", cluster_size=2),
               NodeArchetype(name="single", spi_mode="single"))


def _prices(book, kernels=("matmul",)):
    return [dataclasses.astuple(book.profile(kernel, tier))
            for kernel in kernels for tier in ("fast", "eco")]


class TestPricing:
    def test_default_mix_profiles_pinned(self):
        pricing.clear()
        assert _prices(AnalyticServiceBook(), tuple(DEFAULT_MIX)) \
            == PINNED_PROFILES

    @pytest.mark.parametrize("default_first", [True, False])
    def test_archetype_books_get_their_own_prices(self, default_first):
        # Shared stage memos must never hand one system another's entry,
        # whichever book warms them first.
        pricing.clear()
        if default_first:
            assert _prices(AnalyticServiceBook()) == PINNED_PROFILES[:2]
        for archetype in _ARCHETYPES:
            assert _prices(archetype.build_book()) \
                == PINNED_ARCHETYPE_PROFILES[archetype.name], archetype.name
        assert _prices(AnalyticServiceBook()) == PINNED_PROFILES[:2]

    def test_book_build_never_runs_kernel_compute(self, monkeypatch):
        def forbidden(kernel, inputs):
            raise AssertionError(f"{kernel.name}: compute while pricing")

        for kernel_class in {type(kernel) for kernel in all_kernels()}:
            monkeypatch.setattr(kernel_class, "compute", forbidden)
        pricing.clear()
        book = AnalyticServiceBook()
        for index, kernel in enumerate(BENCHMARK_NAMES):
            for tier in book.tiers():
                assert book.profile(kernel, tier).unit_compute_time > 0
            request = Request(request_id=index, kernel=kernel, arrival_s=0.0)
            assert book.host_time(request) > 0


# -- serving-stack goldens ------------------------------------------------------

def _golden_trace_rows():
    rows = []
    for request in PoissonWorkload(rate=600.0, requests=160, seed=4) \
            .arrivals(_flat_estimate):
        row = request.to_dict()
        row["iterations"] = 1 + request.request_id % 3
        rows.append(row)
    return rows


def _tight_budget(book, nodes, headroom=1.6):
    """Room for about *headroom* fast dispatches above an idle fleet."""
    fast_w = max(book.active_power(kernel, "fast") for kernel in DEFAULT_MIX)
    return book.host_power + nodes * book.idle_power \
        + (fast_w - book.idle_power) * headroom


#: One hang up front, then about one kernel run in twelve hangs.
_HANGS = FaultPlan("hangs", (FaultSpec(FaultKind.KERNEL_HANG, count=1,
                                       rate=0.08),))


def _routed_fleet():
    """Two default nodes and two x2 nodes; cnn and svm route to x2."""
    small = NodeArchetype(name="x2", cluster_size=2)
    return FleetSpec(groups=((NodeArchetype(), 2), (small, 2)),
                     routing={"cnn": "x2", "svm (RBF)": "x2"})


def _golden_config(name):
    """The pinned ServeConfig of golden scenario *name* (fresh objects)."""
    book = AnalyticServiceBook()
    poisson = PoissonWorkload(rate=450.0, requests=300, seed=7)
    if name in ("fifo", "sjf", "edf"):
        # Overloaded: admission drops everywhere, late drops under EDF.
        return ServeConfig(
            workload=PoissonWorkload(rate=1200.0, requests=300, seed=7,
                                     deadline_factor=8.0),
            nodes=2, seed=7, book=book,
            scheduler=SchedulerConfig(policy=Policy(name), max_batch=4,
                                      queue_capacity=40,
                                      drop_late=name == "edf"))
    if name == "power-cap":
        return ServeConfig(
            workload=poisson, nodes=3, seed=7, book=book,
            scheduler=SchedulerConfig(policy=Policy.POWER_CAP,
                                      power_budget_w=_tight_budget(book, 3)))
    if name == "power-cap-resilience":
        return ServeConfig(
            workload=PoissonWorkload(rate=500.0, requests=400, seed=8),
            nodes=3, seed=8, book=book,
            fault_plans=[_HANGS, FaultPlan.clean(), FaultPlan.brownout(0.8)],
            scheduler=SchedulerConfig(policy=Policy.POWER_CAP, max_batch=4,
                                      power_budget_w=_tight_budget(book, 3,
                                                                   2.7)),
            resilience=ResilienceConfig(queue_high=16, queue_low=4,
                                        hedge_margin_s=0.001))
    if name == "transient":
        return ServeConfig(
            workload=poisson, nodes=2, seed=5, book=book,
            fault_plans=[FaultPlan.kernel_hang(2), FaultPlan.boot_failure(1)])
    if name == "node-death":
        return ServeConfig(
            workload=poisson, nodes=3, seed=3, book=book,
            fault_plans=[FaultPlan.clean(), FaultPlan.boot_failure(99)])
    if name == "brownout":
        return ServeConfig(
            workload=poisson, nodes=2, seed=9, book=book,
            fault_plans=[FaultPlan.brownout(0.7), FaultPlan.clean()])
    if name == "routed":
        return ServeConfig(workload=poisson, seed=7, fleet=_routed_fleet())
    if name == "routed-resilient-edf":
        # The routed archetype dies (both x2 nodes never boot), so cnn
        # and svm spill to the survivors; EDF late drops, overload
        # sheds, hedges and host fallbacks all happen under routing.
        return ServeConfig(
            workload=PoissonWorkload(rate=450.0, requests=300, seed=7,
                                     deadline_factor=6.0),
            seed=7, fleet=_routed_fleet(),
            scheduler=SchedulerConfig(policy=Policy.EDF, drop_late=True,
                                      queue_capacity=60, max_batch=3),
            fault_plans=[FaultPlan.clean(), FaultPlan.clean(),
                         FaultPlan.boot_failure(99),
                         FaultPlan.boot_failure(99)],
            resilience=ResilienceConfig(queue_high=12, queue_low=3,
                                        hedge_margin_s=0.0005))
    if name == "routed-closed-loop":
        # Power-gate deferrals, hedges (one lost) and the host-assist
        # rung, under routing and closed-loop backpressure.
        return ServeConfig(
            workload=ClosedLoopWorkload(clients=5, think_s=0.001,
                                        requests_per_client=20, seed=6),
            seed=6, fleet=_routed_fleet(),
            scheduler=SchedulerConfig(
                policy=Policy.POWER_CAP, max_batch=3,
                power_budget_w=default_power_budget(book, 4, 0.5)),
            fault_plans=[_HANGS, FaultPlan.clean(), FaultPlan.brownout(0.7),
                         _HANGS],
            resilience=ResilienceConfig(queue_high=2, queue_low=1,
                                        hedge_margin_s=0.0002))
    if name == "closed-loop":
        return ServeConfig(
            workload=ClosedLoopWorkload(clients=6, think_s=0.004,
                                        requests_per_client=40, seed=6),
            nodes=2, seed=6, book=book,
            scheduler=SchedulerConfig(max_batch=3))
    if name == "resilience-branches":
        # Two nodes die on their first batch: each death trips a
        # one-failure breaker, a hedge covers one of them, and the
        # batches no hedge covers find a zero retry budget and are shed
        # (their closed-loop clients think again).
        return ServeConfig(
            workload=ClosedLoopWorkload(clients=6, think_s=0.002,
                                        requests_per_client=30, seed=7),
            nodes=4, seed=7, book=book,
            scheduler=SchedulerConfig(max_batch=3),
            fault_plans=[FaultPlan.kernel_hang(99), FaultPlan.clean(),
                         FaultPlan.boot_failure(99), FaultPlan.clean()],
            resilience=ResilienceConfig(breaker_failures=1, retry_budget=0,
                                        retry_ratio=0.0,
                                        hedge_margin_s=0.0005))
    if name == "mmpp":
        return ServeConfig(
            workload=MmppWorkload(requests=300, seed=12), nodes=3, seed=12,
            book=book, scheduler=SchedulerConfig(policy=Policy.SJF))
    if name == "trace":
        return ServeConfig(
            workload=TraceWorkload(_golden_trace_rows()), nodes=2, seed=4,
            book=book, scheduler=SchedulerConfig(policy=Policy.EDF))
    if name == "mm1-exponential":
        return ServeConfig(
            workload=PoissonWorkload(rate=60.0, requests=1500,
                                     deadline_factor=None, seed=1),
            nodes=1, scheduler=SchedulerConfig(max_batch=1),
            book=ExponentialBook(100.0, seed=18))
    if name == "exponential-hedged":
        # Hedging prices every launch's expected end through the RNG
        # drawing batch_service: one extra or missing call shifts every
        # later service time.
        return ServeConfig(
            workload=PoissonWorkload(rate=120.0, requests=400,
                                     deadline_factor=None, seed=2),
            nodes=3, seed=2, book=ExponentialBook(80.0, seed=5),
            fault_plans=[_HANGS, FaultPlan.clean()],
            resilience=ResilienceConfig(hedge_margin_s=0.001))
    raise KeyError(name)


#: sha256 of ``ServeReport.to_json()`` per golden scenario.
GOLDEN_SERVE = {
    "fifo":
        "86696ed8a58a6f38cd18c74bce835a62f168ad113d6ed2d6a84720e3caf5df59",
    "sjf":
        "b031a5f52349e5d5ca82978197294aaab2b0f217b1297a9e6ff6b3184781f84d",
    "edf":
        "e7739a877375136ab6ee0386380e4418435aa36663325ae2fed4d7a84f614732",
    "power-cap":
        "554040fe26b57ddbb535e04a0e2590294990ca984d1a1f6cad08a3d3cbaeb74c",
    "power-cap-resilience":
        "cb7f31bb6337d582f4cf65f772eb5e40e95ac126ebc3a2e712f96c88212ebda9",
    "transient":
        "3c761ad1be40eb05a3bec03ea7eecbe24b0a2e1d60adc70af4542585c35d7cee",
    "node-death":
        "e2283cf8844efec4c6fce50a4bf821457dd45a46d7e1bc64461f22c0cc372b79",
    "brownout":
        "6a57aa9ea1c8f0ef196575e3419d2e0c207309e77cd6c8f79381da6e7589f48a",
    "routed":
        "5e027d5f8bda594ceb1db09aac937d965eb2b07a5622c1e642216208e09ab491",
    "routed-resilient-edf":
        "81caf6c1a6eac08285140380d52b64649ee21dc95c7e4fbfb5365f52b86e4f7f",
    "routed-closed-loop":
        "93f7819a95c3e7cdc54d06abe6d307d0fb71b5cd27856bd1322345b88f4ea24d",
    "closed-loop":
        "50ffe109f58e1756d41aeeb7a02f39286d5e81a733eaaf147afc0d9b36dee67f",
    "resilience-branches":
        "585fa706842d54553eea5ff4804e6baa61546c13b5568dd13594189c15095c24",
    "mmpp":
        "8b9e6ed4b1ceafe1c1b3f3b21d00751f21656ca23b42372e00c14ba797c9c88a",
    "trace":
        "c35388a57bef5e4fe42ff6bcc0dab0f61ed4b2d72f39a3d181a070566ed9694c",
    "mm1-exponential":
        "69fc2b18c637ad619ba440720f522df9b1c08af5a5ec51840698ae534836b6d1",
    "exponential-hedged":
        "7814f7c5eca5d5ccc8b9847a8a24e18684c4e9863e554fe0872cd9f1ba3690a8",
}


class TestServeGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SERVE))
    def test_report_digest_pinned(self, name):
        report = ServeEngine(_golden_config(name)).run()
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == GOLDEN_SERVE[name], name

    def test_resilience_branches_are_covered(self):
        # The pinned chaos campaign and the other goldens never trip a
        # breaker, deny a retry token or cover a failure with a hedge;
        # this golden must keep doing all three.
        report = ServeEngine(_golden_config("resilience-branches")).run()
        res = report.resilience
        assert res["breakers"]["trips"] > 0
        assert res["retry_budget"]["denied"] > 0
        assert res["hedging"]["covered_failures"] > 0
        assert report.dropped and all(reason == "retry-budget"
                                      for _, reason in report.dropped)


class TestSloEstimates:
    def test_each_request_meets_its_own_iterations_estimate(self, book):
        # Batches of four same-kernel requests mixing 1, 2 and 3
        # iterations: each completion is judged against the estimate of
        # its own iteration count, not its batch lead's.
        rows = [{"t": 0.05 * (index // 4), "kernel": "matmul",
                 "iterations": 1 + (index * 2) % 3} for index in range(24)]
        factor = 4.0
        config = ServeConfig(
            workload=TraceWorkload(rows), nodes=1, book=book,
            scheduler=SchedulerConfig(max_batch=4),
            resilience=ResilienceConfig(slo=SloPolicy(
                latency_factor=factor, min_samples=1)))
        report = ServeEngine(config).run()
        batches = {}
        for record in report.records:
            batches.setdefault(record.start_s, set()).add(
                record.request.iterations)
        assert all(len(counts) > 1 for counts in batches.values())
        expected = sum(1 for record in report.records
                       if record.latency_s
                       > factor * book.estimate(record.request))
        slo = report.resilience["slo"]["kernels"]["matmul"]
        assert slo["latency_violations"] == expected
        assert 0 < expected < report.completed


class TestOrderedSum:
    def test_adds_left_to_right_without_compensation(self):
        # A compensated sum() (CPython 3.12+) gives 1.0 for both; the
        # pinned timeline needs the plain left-to-right totals.
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
        assert ordered_sum([]) == 0.0

    def test_batch_service_totals_left_to_right(self):
        book = AnalyticServiceBook()
        batch = [Request(index, "matmul", 0.0, iterations=1 + index % 3)
                 for index in range(8)]
        time, energy = book.batch_service(batch, "fast", 0.9)
        profile = book.profile("matmul", "fast")
        assert time == ordered_sum([profile.request_time(r.iterations, 0.9)
                                    for r in batch])
        assert energy == ordered_sum(
            [profile.request_energy(r.iterations, 0.9) for r in batch])

    def test_batch_span_energy_ignores_builtin_sum(self, monkeypatch):
        # A compensated sum() of the node-death golden's request energies
        # rounds 22 of its 71 batch spans differently.
        def compensated_sum(values, start=0):
            values = list(values)
            if all(isinstance(value, int) for value in values):
                return builtins.sum(values, start)
            total, compensation = float(start), 0.0
            for value in values:
                step = total + value
                compensation += ((total - step) + value
                                 if abs(total) >= abs(value)
                                 else (value - step) + total)
                total = step
            return total + compensation

        def span_energies():
            hub = Telemetry(enabled=True)
            with use_telemetry(hub):
                report.emit_telemetry()
            return [span.energy for span in hub.spans]

        report = ServeEngine(_golden_config("node-death")).run()
        plain = span_energies()
        monkeypatch.setattr(metrics, "sum", compensated_sum, raising=False)
        assert span_energies() == plain


class TestHedgeOrder:
    def test_expected_end_tie_hedges_lower_request_id_first(self):
        # Requests 0 and 1 launch together with equal service times, so
        # their flights tie on expected_end; both hang and turn overdue
        # at once.  One hedge per wake: request 0 goes at the arrival of
        # request 2, request 1 at the next wake.
        rows = [{"t": 0.1, "kernel": "matmul"}, {"t": 0.1, "kernel": "cnn"},
                {"t": 0.108, "kernel": "svm (RBF)"}]
        config = ServeConfig(
            workload=TraceWorkload(rows), nodes=4,
            book=FixedBook(service_s=1e-3),
            fault_plans=[FaultPlan.kernel_hang(2), FaultPlan.kernel_hang(2),
                         FaultPlan.clean(), FaultPlan.clean()],
            resilience=ResilienceConfig())
        report = ServeEngine(config).run()
        served = {record.request.request_id: (record.node, record.start_s)
                  for record in report.records}
        assert served == {0: ("node3", 0.108), 1: ("node2", 0.109),
                          2: ("node2", 0.108)}
        assert report.resilience["hedging"]["issued"] == 2


class CountingBook(ServiceBook):
    """Delegates to an analytic book and counts every method call."""

    def __init__(self, inner):
        self.inner = inner
        self.idle_power = inner.idle_power
        self.host_power = inner.host_power
        self.calls = {}

    def _count(self, method):
        self.calls[method] = self.calls.get(method, 0) + 1
        return getattr(self.inner, method)

    def tiers(self):
        return self._count("tiers")()

    def active_power(self, kernel, tier):
        return self._count("active_power")(kernel, tier)

    def estimate(self, request):
        return self._count("estimate")(request)

    def cold_cost(self, kernel, tier):
        return self._count("cold_cost")(kernel, tier)

    def batch_compute(self, batch, tier, droop=1.0):
        return self._count("batch_compute")(batch, tier, droop)

    def batch_service(self, batch, tier, droop=1.0):
        return self._count("batch_service")(batch, tier, droop)

    def host_time(self, request):
        return self._count("host_time")(request)

    def host_energy(self, request):
        return self._count("host_energy")(request)


#: Per-method calls the golden power-cap resilience run makes on its
#: book.  Stateful methods must be called exactly this often; the
#: cacheable ones at most this often.
BOOK_CALLS_STATEFUL = {"batch_service": 335, "cold_cost": 228,
                       "batch_compute": 7, "host_time": 8, "host_energy": 4}
BOOK_CALLS_CACHEABLE = {"tiers": 176, "active_power": 672, "estimate": 783}


class TestServiceBookContract:
    def test_power_cap_resilience_call_counts(self):
        book = CountingBook(AnalyticServiceBook())
        config = dataclasses.replace(
            _golden_config("power-cap-resilience"), book=book)
        report = ServeEngine(config).run()
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == GOLDEN_SERVE["power-cap-resilience"]
        for method, count in BOOK_CALLS_STATEFUL.items():
            assert book.calls.get(method, 0) == count, method
        for method, bound in BOOK_CALLS_CACHEABLE.items():
            assert book.calls.get(method, 0) <= bound, method
        assert set(book.calls) <= set(BOOK_CALLS_STATEFUL) \
            | set(BOOK_CALLS_CACHEABLE)


@pytest.fixture
def event_streams(monkeypatch):
    """Per simulator built: [schedule calls, cancel calls, process names]."""
    streams = {}
    init, schedule, cancel, add_process = (
        Simulator.__init__, Simulator.schedule, Simulator.cancel,
        Simulator.add_process)

    def counted_init(self):
        init(self)
        streams[self] = [0, 0, []]

    def counted_schedule(self, delay, callback, *args):
        streams[self][0] += 1
        return schedule(self, delay, callback, *args)

    def counted_cancel(self, handle):
        streams[self][1] += 1
        return cancel(self, handle)

    def counted_add_process(self, generator, name=""):
        streams[self][2].append(name)
        return add_process(self, generator, name)

    monkeypatch.setattr(Simulator, "__init__", counted_init)
    monkeypatch.setattr(Simulator, "schedule", counted_schedule)
    monkeypatch.setattr(Simulator, "cancel", counted_cancel)
    monkeypatch.setattr(Simulator, "add_process", counted_add_process)
    return streams


#: ``(Simulator.schedule calls, Simulator.cancel calls, final now)`` of
#: every simulation a scenario runs.  The engine schedules exactly one
#: callback wherever a generator dispatcher, arrival stream or client
#: would take one resume, so these equal the counts of the process-based
#: engine they were recorded on, and every heap sequence number with
#: them.
EVENT_STREAMS = {
    "power-cap-resilience": [(1709, 1, 1.229125086643976)],
    "closed-loop": [(1225, 0, 0.7989267033299684)],
    "routed": [(1362, 0, 0.7369526873071469)],
    "routed-resilient-edf": [(1272, 1, 0.7657347510123476)],
    "routed-closed-loop": [(731, 1, 0.5996595781008189)],
    "resilience-branches": [(1124, 1, 0.5704136153787851)],
    # The pinned chaos campaign at seed 6, one entry per scenario.
    "chaos-seed-6": [(1117, 1, 0.5568069388759728),
                     (1161, 7, 0.8319030807692411),
                     (1052, 3, 0.5800034164055585),
                     (1145, 15, 0.5635007269718897),
                     (1057, 3, 1.4022301459620554)],
}

#: The only generator processes of a serving run: fleet nodes, the host
#: backend and the ``.r<n>`` process of each chaos recovery.
_NODE_PROCESS = re.compile(r"(node\d+(\.r\d+)?|host-fallback)")


class TestEventStreamContract:
    @pytest.mark.parametrize("name", sorted(EVENT_STREAMS))
    def test_schedule_cancel_counts_and_clock(self, name, event_streams):
        if name == "chaos-seed-6":
            run_campaign(pinned_campaign_config(seed=6),
                         pinned_campaign_plans(), chaos_seed=6)
        else:
            report = ServeEngine(_golden_config(name)).run()
            digest = hashlib.sha256(report.to_json().encode()).hexdigest()
            assert digest == GOLDEN_SERVE[name]
        assert [(schedules, cancels, simulator.now)
                for simulator, (schedules, cancels, _)
                in event_streams.items()] == EVENT_STREAMS[name]
        for _, _, processes in event_streams.values():
            assert processes, "the fleet starts its node processes"
            assert all(_NODE_PROCESS.fullmatch(process)
                       for process in processes), processes
