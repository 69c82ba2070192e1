"""Tests for the analytic capacity fast path (``repro.capacity``)."""

import json
import math

import pytest

from repro.capacity import (
    CapacityInputs,
    CapacityModel,
    Composition,
    CompositionSpace,
    FleetPlanner,
    MMkQueue,
    VALIDATION_GRID,
    allen_cunneen_factor,
    batch_drain_factor,
    erlang_b,
    erlang_c,
    routing_for,
    run_validation,
)
from repro.capacity.composition import DEFAULT_CATALOG
from repro.capacity.validation import GridPoint, fault_plans
from repro.cli import main
from repro.dse.pareto import pareto_frontier
from repro.errors import ConfigurationError
from repro.serve import AnalyticServiceBook
from repro.serve.archetype import NodeArchetype
from repro.units import mw


@pytest.fixture(scope="module")
def book():
    """One calibrated service book shared by the whole module."""
    return AnalyticServiceBook()


@pytest.fixture(scope="module")
def model(book):
    return CapacityModel(book)


# -- closed-form queueing pins ---------------------------------------------------

class TestErlang:
    def test_erlang_b_textbook_pin(self):
        # B(3, 2) = (2^3/3!) / (1 + 2 + 2 + 4/3) = 4/3 / (19/3) = 4/19.
        assert erlang_b(3, 2.0) == pytest.approx(4.0 / 19.0, rel=1e-12)

    def test_erlang_c_textbook_pin(self):
        # C(3, 2) = 3B / (3 - 2(1 - B)) with B = 4/19  ->  4/9.
        assert erlang_c(3, 2.0) == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_erlang_b_recurrence_matches_factorial_form(self):
        servers, offered = 7, 4.5
        terms = [offered ** j / math.factorial(j)
                 for j in range(servers + 1)]
        assert erlang_b(servers, offered) == pytest.approx(
            terms[-1] / sum(terms), rel=1e-12)

    def test_erlang_c_saturated_waits_surely(self):
        assert erlang_c(2, 2.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0

    def test_zero_load_never_blocks(self):
        assert erlang_b(4, 0.0) == 0.0
        assert erlang_c(4, 0.0) == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            erlang_b(0, 1.0)
        with pytest.raises(ConfigurationError):
            erlang_b(2, -0.5)


class TestMMk:
    def test_mm1_reduction(self):
        # M/M/1: Wq = rho / (mu - lambda).
        queue = MMkQueue(arrival_rate=3.0, service_rate=5.0, servers=1)
        rho = 3.0 / 5.0
        assert queue.wait_probability == pytest.approx(rho, rel=1e-12)
        assert queue.mean_wait == pytest.approx(rho / (5.0 - 3.0),
                                                rel=1e-12)
        assert queue.mean_sojourn == pytest.approx(
            queue.mean_wait + 0.2, rel=1e-12)

    def test_little_law_consistency(self):
        queue = MMkQueue(arrival_rate=8.0, service_rate=3.0, servers=4)
        assert queue.mean_queue_length == pytest.approx(
            8.0 * queue.mean_wait, rel=1e-12)

    def test_wait_percentile_inverts_survival(self):
        queue = MMkQueue(arrival_rate=8.0, service_rate=3.0, servers=4)
        for q in (0.5, 0.9, 0.99):
            t = queue.wait_percentile(q)
            if t > 0:
                assert queue.wait_survival(t) == pytest.approx(1.0 - q,
                                                               rel=1e-9)

    def test_unstable_queue_reports_infinities(self):
        queue = MMkQueue(arrival_rate=10.0, service_rate=2.0, servers=4)
        assert not queue.stable
        assert queue.mean_wait == math.inf
        assert queue.wait_percentile(0.5) == math.inf

    def test_allen_cunneen_mm_is_identity(self):
        assert allen_cunneen_factor(1.0, 1.0) == 1.0
        assert allen_cunneen_factor(1.0, 0.0) == 0.5

    def test_drain_factor_bounds(self):
        for servers in (1, 2, 4, 6):
            for rho in (0.0, 0.3, 0.7, 0.95):
                factor = batch_drain_factor(servers, rho)
                assert 0.0 < factor <= 1.0
        assert batch_drain_factor(4, 1.2) == 1.0   # saturated: no scaling
        # More servers coalesce harder, so the factor shrinks.
        assert batch_drain_factor(6, 0.5) < batch_drain_factor(2, 0.5)


# -- the model -------------------------------------------------------------------

class TestModel:
    def test_prediction_is_deterministic(self, model):
        inputs = CapacityInputs(arrival_rate=350.0, requests=500, nodes=4)
        first = model.predict(inputs).to_json_dict()
        second = model.predict(inputs).to_json_dict()
        assert first == second

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ConfigurationError, match="must be finite"):
            CapacityInputs(arrival_rate=rate)
        with pytest.raises(ConfigurationError, match="must be finite"):
            FleetPlanner(CompositionSpace(), arrival_rate=rate)

    def test_latency_grows_with_load(self, model):
        latencies = [model.predict(CapacityInputs(
            arrival_rate=rate, requests=500, nodes=4)).mean_latency_s
            for rate in (100.0, 300.0, 500.0)]
        assert latencies[0] < latencies[1] < latencies[2]

    def test_saturation_beyond_full_batch_capacity(self, model):
        prediction = model.predict(CapacityInputs(
            arrival_rate=5000.0, requests=500, nodes=2))
        assert not prediction.stable
        assert prediction.mean_latency_s == math.inf
        assert prediction.throughput_rps > 0.0   # the capacity limit

    def test_metastable_batching_regime_stays_stable(self, model):
        # 650 rps on 4 nodes is unstable at singleton batches but the
        # fleet coalesces its way out — the model must agree.
        prediction = model.predict(CapacityInputs(
            arrival_rate=650.0, requests=500, nodes=4))
        assert prediction.stable
        assert prediction.mean_batch > 1.5

    def test_percentiles_are_ordered(self, model):
        prediction = model.predict(CapacityInputs(
            arrival_rate=450.0, requests=500, nodes=4))
        assert 0.0 < prediction.latency_p50_s < prediction.latency_p95_s
        assert prediction.survival(prediction.latency_p95_s) \
            == pytest.approx(0.05, abs=1e-6)

    def test_dead_fleet_is_saturated(self, model):
        plans = fault_plans("dead")
        prediction = model.predict(CapacityInputs(
            arrival_rate=300.0, requests=500, nodes=4,
            fault_plans=plans))
        assert prediction.dead_nodes == 1
        assert prediction.servers == 3


# -- analytic vs DES -------------------------------------------------------------

class TestValidation:
    def test_pinned_grid_passes_the_gate(self):
        report = run_validation()
        assert report["passed"], json.dumps(report["points"], indent=2)
        assert len(report["points"]) >= 10
        assert report["worst_error"]["mean_latency_ms"] <= 0.10
        assert report["worst_error"]["throughput_rps"] <= 0.10

    def test_grid_covers_the_correction_paths(self):
        names = {point.name for point in VALIDATION_GRID}
        assert any(point.power_fraction is not None
                   for point in VALIDATION_GRID)
        fault_kinds = {point.faults for point in VALIDATION_GRID
                       if point.faults}
        assert fault_kinds == {"hang", "brownout", "dead"}
        assert len(names) == len(VALIDATION_GRID)

    def test_impossible_tolerance_fails(self):
        grid = (GridPoint("one", arrival_rate=250.0, nodes=4,
                          requests=300, seed=7),)
        report = run_validation(tolerance=1e-9, grid=grid)
        assert not report["passed"]

    def test_unknown_fault_set_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_plans("meteor")

    def test_seeded_fuzz_within_tolerance(self, model, book):
        # Off-grid scenarios away from the calibration points: the model
        # must hold near its gated tolerance there too (800 requests so
        # a single seed's arrival-stream noise stays a minor term).
        from repro.serve.engine import ServeConfig, ServeEngine
        from repro.serve.workload import PoissonWorkload

        for rate, nodes, seed in ((180.0, 2, 17), (320.0, 4, 11),
                                  (520.0, 6, 13)):
            prediction = model.predict(CapacityInputs(
                arrival_rate=rate, requests=800, nodes=nodes))
            config = ServeConfig(
                workload=PoissonWorkload(rate=rate, requests=800,
                                         seed=seed, deadline_factor=None),
                nodes=nodes, seed=seed, book=book)
            des = ServeEngine(config).run().metrics()
            lat_err = (prediction.mean_latency_s * 1e3
                       / des["mean_latency_ms"] - 1.0)
            thr_err = prediction.throughput_rps / des["throughput_rps"] - 1.0
            assert abs(lat_err) <= 0.12, (rate, nodes, seed, lat_err)
            assert abs(thr_err) <= 0.12, (rate, nodes, seed, thr_err)


# -- compositions and the planner ------------------------------------------------

class TestComposition:
    def test_space_enumeration_respects_bounds(self):
        space = CompositionSpace(max_nodes=3, max_per_archetype=2)
        compositions = list(space.compositions())
        assert compositions
        for composition in compositions:
            assert 1 <= composition.nodes <= 3
            for _, count in composition.groups:
                assert 1 <= count <= 2

    def test_power_budget_filters(self):
        unbounded = len(list(CompositionSpace(max_nodes=4).compositions()))
        bounded = len(list(CompositionSpace(
            max_nodes=4, power_budget_w=mw(25.0)).compositions()))
        assert 0 < bounded < unbounded

    def test_config_hash_is_routing_sensitive(self):
        archetype = DEFAULT_CATALOG[0]
        bare = Composition(groups=((archetype, 2),))
        routed = Composition(groups=((archetype, 2),),
                             routing={"matmul": archetype.name})
        assert bare.config_hash() != routed.config_hash()

    def test_routing_targets_must_exist(self):
        archetype = DEFAULT_CATALOG[0]
        with pytest.raises(ConfigurationError):
            Composition(groups=((archetype, 1),),
                        routing={"matmul": "nonesuch"})

    def test_routing_for_is_deterministic(self):
        books = {a.name: a.build_book() for a in DEFAULT_CATALOG[:2]}
        kernels = ("matmul", "cnn", "svm (RBF)")
        assert routing_for(books, kernels) == routing_for(
            dict(reversed(list(books.items()))), kernels)

    def test_archetype_validation(self):
        with pytest.raises(ConfigurationError):
            NodeArchetype(name="bad", cluster_size=9)
        with pytest.raises(ConfigurationError):
            NodeArchetype(name="bad", spi_mode="sideways")


class TestPlanner:
    @pytest.fixture(scope="class")
    def planned(self):
        space = CompositionSpace(power_budget_w=mw(40.0), max_nodes=4)
        planner = FleetPlanner(space, arrival_rate=300.0)
        return planner, planner.plan()

    def test_every_composition_gets_a_record(self, planned):
        planner, result = planned
        assert result.stats.compositions == len(list(
            planner.space.compositions()))
        assert result.stats.feasible + result.stats.infeasible \
            == result.stats.compositions

    def test_frontier_is_feasible_and_nondominated(self, planned):
        _, result = planned
        assert result.frontier
        for record in result.frontier:
            assert record["feasible"]
            assert record["metrics"]["throughput_rps"] > 0

    def test_plan_rerun_is_bit_identical(self, planned):
        planner, result = planned
        again = planner.plan()
        assert json.dumps(result.records, sort_keys=True) \
            == json.dumps(again.records, sort_keys=True)
        assert json.dumps(result.frontier, sort_keys=True) \
            == json.dumps(again.frontier, sort_keys=True)

    def test_headroom_rejects_the_saturation_edge(self):
        space = CompositionSpace(power_budget_w=mw(40.0), max_nodes=4)
        tight = FleetPlanner(space, arrival_rate=300.0, headroom=0.05)
        result = tight.plan()
        assert result.stats.feasible == 0
        reasons = {record["error"].split(":")[0]
                   for record in result.records if record["error"]}
        assert "no headroom" in reasons

    def test_saturated_class_is_infeasible_not_fatal(self):
        space = CompositionSpace(power_budget_w=mw(40.0), max_nodes=2)
        planner = FleetPlanner(space, arrival_rate=5000.0)
        result = planner.plan()
        assert result.stats.feasible == 0

    def test_verified_frontier_within_tolerance(self, planned):
        planner, result = planned
        planner.verify_frontier(result, seed=7, requests=500,
                                tolerance=0.15)
        assert result.verify
        assert result.verified_ok, result.verify


# -- generalized pareto ----------------------------------------------------------

class TestParetoGeneralized:
    @staticmethod
    def _record(name, **metrics):
        return {"config": {"name": name}, "config_hash": name,
                "feasible": True, "metrics": metrics}

    def test_custom_objectives(self):
        records = [
            self._record("aa", throughput_rps=100.0, energy=5.0),
            self._record("bb", throughput_rps=120.0, energy=5.0),
            self._record("cc", throughput_rps=90.0, energy=3.0),
            self._record("dd", throughput_rps=80.0, energy=9.0),
        ]
        frontier = pareto_frontier(records,
                                   maximize=("throughput_rps",),
                                   minimize=("energy",))
        names = [record["config_hash"] for record in frontier]
        assert names == ["bb", "cc"]   # dd dominated, aa dominated by bb

    def test_tie_break_collapses_to_smallest_hash(self):
        records = [
            self._record("zz", throughput_rps=100.0, energy=5.0),
            self._record("aa", throughput_rps=100.0, energy=5.0),
            self._record("mm", throughput_rps=100.0, energy=5.0),
        ]
        frontier = pareto_frontier(records,
                                   maximize=("throughput_rps",),
                                   minimize=("energy",))
        assert [record["config_hash"] for record in frontier] == ["aa"]

    def test_order_independence(self):
        records = [
            self._record("aa", throughput_rps=100.0, energy=5.0),
            self._record("bb", throughput_rps=120.0, energy=6.0),
            self._record("cc", throughput_rps=110.0, energy=4.0),
        ]
        forward = pareto_frontier(records, maximize=("throughput_rps",),
                                  minimize=("energy",))
        backward = pareto_frontier(list(reversed(records)),
                                   maximize=("throughput_rps",),
                                   minimize=("energy",))
        assert forward == backward


# -- the CLI ---------------------------------------------------------------------

class TestCapacityCli:
    def test_sweep_json_is_deterministic(self, capsys):
        argv = ["capacity", "sweep", "--rates", "100,300", "--nodes", "2",
                "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert len(payload["points"]) == 2

    def test_bad_rates_are_clean_errors(self):
        sweep = ["capacity", "sweep"]
        fraction = r"capacity: active fraction {} outside \(0, 1\]"
        for argv, message in (
                ([*sweep, "--rates", "50,abc"],
                 "capacity --rates: bad value"),
                ([*sweep, "--rates", ""], "capacity --rates: empty value list"),
                ([*sweep, "--rates", " , "],
                 "capacity --rates: empty value list"),
                ([*sweep, "--rates", "a:b:c"], "capacity: bad --rates"),
                ([*sweep, "--rates", "100:50:10"], "capacity: bad --rates"),
                ([*sweep, "--rates", "50:700"], "capacity: bad --rates"),
                ([*sweep, "--power-fraction", "-1"], fraction.format("-1.0")),
                ([*sweep, "--power-fraction", "0"], fraction.format("0.0")),
                ([*sweep, "--power-fraction", "5"], fraction.format("5.0"))):
            with pytest.raises(SystemExit, match=message):
                main(argv)

    def test_validate_gate_exit_codes(self, capsys):
        assert main(["capacity", "validate"]) == 0
        capsys.readouterr()
        assert main(["capacity", "validate", "--tolerance", "0.0001"]) == 3

    def test_plan_verify_and_json_shape(self, capsys):
        argv = ["capacity", "plan", "--arrival-rate", "300",
                "--power-budget", "40", "--max-nodes", "5", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frontier"]
        assert payload["verify"]
        assert all(row["verified"] for row in payload["verify"])
        assert "elapsed_s" not in payload["stats"]   # deterministic doc

    def test_plan_renders_human_table(self, capsys):
        assert main(["capacity", "plan", "--arrival-rate", "300",
                     "--power-budget", "40", "--max-nodes", "4",
                     "--no-verify", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "fleet-composition plan" in out
        assert "frontier" in out
