"""Tests for the design-space exploration subsystem (``repro.dse``)."""

import json
import random

import pytest

from repro.core import pricing
from repro.dse import (
    Configuration,
    ExplorationEngine,
    ParameterSpace,
    ResultCache,
    canonicalize,
    config_hash,
    evaluate_config,
    pareto_frontier,
    sensitivity,
)
from repro.dse import evaluate as dse_evaluate
from repro.errors import ConfigurationError, ReproError
from repro.kernels import BENCHMARK_NAMES, kernel_by_name
from repro.units import mhz


def tiny_space(**overrides):
    grid = {"kernel": ["matmul"], "host_mhz": [4.0, 8.0],
            "budget_mw": [5.0, 10.0]}
    grid.update(overrides)
    return ParameterSpace(grid=grid)


class TestSpace:
    def test_defaults_fill_missing_knobs(self):
        canonical = canonicalize({})
        assert canonical["kernel"] == "matmul"
        assert canonical["host_mhz"] == 8.0
        assert canonical["cluster_size"] == 4
        assert canonical["double_buffered"] is False

    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigurationError):
            canonicalize({"voltage": 1.2})

    def test_bad_values_rejected(self):
        for knobs in ({"kernel": "nonesuch"}, {"host_mhz": -1},
                      {"budget_mw": 0}, {"spi_mode": "octal"},
                      {"link_tying": "loose"}, {"cluster_size": 3.5},
                      {"cluster_size": 99}, {"iterations": 0},
                      {"double_buffered": "maybe"}):
            with pytest.raises(ConfigurationError):
                canonicalize(knobs)

    def test_hash_is_key_order_independent(self):
        a = canonicalize({"host_mhz": 4, "budget_mw": 5})
        b = canonicalize({"budget_mw": 5.0, "host_mhz": 4.0})
        assert config_hash(a) == config_hash(b)

    def test_tied_configs_ignore_untied_clock(self):
        a = Configuration.from_knobs({"link_tying": "tied",
                                      "untied_clock_mhz": 8})
        b = Configuration.from_knobs({"link_tying": "tied",
                                      "untied_clock_mhz": 48})
        assert a.hash == b.hash
        c = Configuration.from_knobs({"link_tying": "untied",
                                      "untied_clock_mhz": 8})
        d = Configuration.from_knobs({"link_tying": "untied",
                                      "untied_clock_mhz": 48})
        assert c.hash != d.hash

    def test_grid_expansion_counts_and_dedups(self):
        space = ParameterSpace(
            grid={"host_mhz": [2, 4], "budget_mw": [5, 10]},
            points=[{"host_mhz": 2, "budget_mw": 5},   # duplicate of grid
                    {"host_mhz": 16}])
        configs = space.expand()
        assert len(configs) == 5
        assert len({c.hash for c in configs}) == 5

    def test_empty_space_is_the_default_point(self):
        configs = ParameterSpace().expand()
        assert len(configs) == 1
        assert configs[0].as_dict() == canonicalize({})

    def test_spec_roundtrip(self):
        space = tiny_space()
        clone = ParameterSpace.from_dict(space.to_dict())
        assert [c.hash for c in clone.expand()] \
            == [c.hash for c in space.expand()]

    def test_bad_specs_rejected(self):
        for spec in ([1, 2], {"mesh": {}}, {"grid": []},
                     {"grid": {"host_mhz": []}}):
            with pytest.raises(ConfigurationError):
                ParameterSpace.from_dict(spec)


class TestEvaluate:
    def test_feasible_record(self):
        record = evaluate_config({"kernel": "matmul", "host_mhz": 8})
        assert record["feasible"]
        assert record["error"] is None
        metrics = record["metrics"]
        assert metrics["verified"] is True
        assert metrics["effective_speedup"] > 1
        assert metrics["energy_per_iteration_j"] > 0
        assert record["config_hash"] == config_hash(record["config"])

    def test_deterministic_bit_identical(self):
        knobs = {"kernel": "cnn", "host_mhz": 4, "iterations": 8,
                 "double_buffered": True}
        assert evaluate_config(knobs) == evaluate_config(knobs)

    def test_infeasible_point_is_a_result(self):
        # 32 MHz host power alone exceeds a 1 mW envelope.
        record = evaluate_config({"host_mhz": 32, "budget_mw": 1})
        assert not record["feasible"]
        assert record["error"]
        assert record["metrics"] is None

    def test_untied_link_beats_tied_at_slow_host(self):
        tied = evaluate_config({"host_mhz": 2, "iterations": 32})
        untied = evaluate_config({"host_mhz": 2, "iterations": 32,
                                  "link_tying": "untied"})
        assert untied["metrics"]["efficiency"] \
            > tied["metrics"]["efficiency"]


def _oracle_record(knobs):
    """The record a fresh system's full offload gives: the reference the
    staged, memoized pricing path must reproduce bit for bit."""
    canonical = canonicalize(knobs)
    record = {"config": canonical, "config_hash": config_hash(canonical),
              "model_version": dse_evaluate.MODEL_VERSION,
              "feasible": False, "error": None, "metrics": None}
    try:
        result = dse_evaluate.build_system(canonical).offload(
            kernel_by_name(canonical["kernel"]),
            host_frequency=mhz(canonical["host_mhz"]),
            iterations=canonical["iterations"],
            double_buffered=canonical["double_buffered"])
    except ReproError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["feasible"] = True
    record["metrics"] = result.metrics()
    return record


def _random_knobs(rng):
    knobs = {"kernel": rng.choice(BENCHMARK_NAMES),
             "host_mhz": rng.choice([2.0, 8.0, 16.0, 26.0]),
             "budget_mw": rng.choice([5.0, 6.5, 10.0, 20.0]),
             "spi_mode": rng.choice(["single", "quad"]),
             "cluster_size": rng.choice([1, 2, 4]),
             "iterations": rng.choice([1, 3, 16]),
             "double_buffered": rng.choice([False, True])}
    if rng.random() < 0.4:
        knobs["link_tying"] = "untied"
        knobs["untied_clock_mhz"] = rng.choice([24.0, 48.0])
    return knobs


class TestStagedPricingMatchesOracle:
    """Seeded differential fuzz: staged pipeline vs full offload."""

    def test_fuzz_records_bit_identical_in_shuffled_order(self):
        rng = random.Random(1302)
        configs = [_random_knobs(rng) for _ in range(40)]
        configs += [
            # No accelerator budget left: infeasible through the envelope.
            {"kernel": "hog", "host_mhz": 16.0, "budget_mw": 5.0},
            {"kernel": "svm (poly)", "host_mhz": 16.0, "budget_mw": 5.0,
             "link_tying": "untied", "untied_clock_mhz": 48.0},
            # More cores than the power model carries: a model error.
            {"kernel": "cnn", "cluster_size": 8},
        ]
        drawn = configs[:40]
        assert {c["cluster_size"] for c in drawn} == {1, 2, 4}
        assert {c.get("untied_clock_mhz") for c in drawn} >= {24.0, 48.0}
        assert {c["spi_mode"] for c in drawn} == {"single", "quad"}
        assert {c["double_buffered"] for c in drawn} == {False, True}
        expected = [_oracle_record(knobs) for knobs in configs]
        assert any(not record["feasible"] for record in expected)
        assert any(record["feasible"] for record in expected)
        order = list(range(len(configs)))
        rng.shuffle(order)
        pricing.clear()
        for index in order:
            staged = evaluate_config(configs[index])
            assert json.dumps(staged, sort_keys=True) \
                == json.dumps(expected[index], sort_keys=True), configs[index]

    def test_parallel_matches_serial_across_stage_keys(self):
        space = ParameterSpace(
            grid={"kernel": ["matmul", "cnn (approx)"],
                  "cluster_size": [1, 4], "host_mhz": [8.0, 16.0],
                  "budget_mw": [5.0, 10.0]},
            points=[{"kernel": "svm (linear)", "link_tying": "untied",
                     "untied_clock_mhz": 48.0, "iterations": 16,
                     "double_buffered": True}])
        pricing.clear()
        serial = ExplorationEngine(jobs=1).run(space)
        parallel = ExplorationEngine(jobs=2).run(space)
        assert parallel.records == serial.records
        assert serial.stats.infeasible > 0


class TestSharedSystems:
    """Evaluation prices on one system per hardware tuple."""

    def test_one_system_per_hardware_tuple(self, monkeypatch):
        monkeypatch.setattr(dse_evaluate, "_SYSTEMS", {})
        space = ParameterSpace(
            grid={"kernel": ["matmul", "svm (linear)"],
                  "host_mhz": [8.0, 16.0], "iterations": [1, 16],
                  "budget_mw": [5.0, 10.0]})
        configs = [c.as_dict() for c in space.expand()]
        records = [evaluate_config(knobs) for knobs in configs]
        assert len(dse_evaluate._SYSTEMS) == 2
        assert records == [_oracle_record(knobs) for knobs in configs]

    def test_build_system_reads_only_the_shared_key(self):
        canonical = canonicalize({"link_tying": "untied",
                                  "untied_clock_mhz": 48.0,
                                  "spi_mode": "single", "cluster_size": 2,
                                  "budget_mw": 6.5})
        hardware = {knob: canonical[knob]
                    for knob in dse_evaluate._SYSTEM_KNOBS}
        system = dse_evaluate.build_system(hardware)
        assert system.omp.threads == 2
        assert system.envelope.budget == pytest.approx(6.5e-3)

    def test_build_system_stays_fresh(self):
        canonical = canonicalize({})
        assert dse_evaluate.build_system(canonical) \
            is not dse_evaluate.build_system(canonical)


class TestColdSweepDoesNoRepeatWork:
    """A cold sweep canonicalizes and hashes each configuration once
    and constructs each kernel once."""

    SPACE = {"grid": {"kernel": ["matmul", "hog", "cnn (approx)"],
                      "host_mhz": [8.0, 16.0], "budget_mw": [5.0, 10.0],
                      "cluster_size": [2, 4]},
             "points": [{"kernel": "svm (RBF)", "link_tying": "untied",
                         "untied_clock_mhz": 48.0, "iterations": 16,
                         "double_buffered": True}]}

    @staticmethod
    def _counted(monkeypatch, calls, module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def test_each_configuration_and_kernel_is_prepared_once(self,
                                                            monkeypatch):
        from repro.dse import space as dse_space

        calls = {"canonicalize": 0, "config_hash": 0, "kernel_by_name": 0}
        for module in (dse_space, dse_evaluate):
            for name in ("canonicalize", "config_hash"):
                self._counted(monkeypatch, calls, module, name)
        self._counted(monkeypatch, calls, dse_evaluate, "kernel_by_name")
        monkeypatch.setattr(dse_evaluate, "_SYSTEMS", {})
        monkeypatch.setattr(dse_evaluate, "_KERNELS", {})
        pricing.clear()
        space = ParameterSpace.from_dict(self.SPACE)
        configs = space.expand()
        assert calls == {"canonicalize": 25, "config_hash": 25,
                         "kernel_by_name": 0}
        serial = ExplorationEngine(jobs=1).run(space)
        assert calls == {"canonicalize": 50, "config_hash": 50,
                         "kernel_by_name": 4}
        assert serial.stats.infeasible > 0
        # A mapping still goes through canonicalize and config_hash, and
        # gives the record the engine's Configuration hand-off gave.
        assert serial.records == [evaluate_config(config.as_dict())
                                  for config in configs]
        assert calls["canonicalize"] == calls["config_hash"] == 75
        parallel = ExplorationEngine(jobs=2).run(space)
        assert parallel.records == serial.records

    def test_configuration_and_mapping_give_one_record(self):
        config = Configuration.from_knobs({"kernel": "hog", "host_mhz": 4})
        record = evaluate_config(config)
        assert record == evaluate_config({"kernel": "hog", "host_mhz": 4})
        assert record["config"] == config.as_dict()
        assert record["config_hash"] == config.hash


class TestCache:
    def test_put_get_roundtrip_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = evaluate_config({"host_mhz": 4})
        cache.put(record)
        assert cache.get(record["config_hash"],
                         record["model_version"]) == record
        assert len(cache) == 1

    def test_model_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = evaluate_config({"host_mhz": 4})
        cache.put(record)
        assert cache.get(record["config_hash"], "other-version") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = evaluate_config({"host_mhz": 4})
        cache.put(record)
        (tmp_path / f"{record['config_hash']}.json").write_text("not json")
        assert cache.get(record["config_hash"],
                         record["model_version"]) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(evaluate_config({"host_mhz": 4}))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestEngine:
    def test_cold_run_all_misses(self, tmp_path):
        engine = ExplorationEngine(cache=ResultCache(tmp_path), jobs=1)
        result = engine.run(tiny_space())
        assert result.stats.configurations == 4
        assert result.stats.cache_misses == 4
        assert result.stats.cache_hits == 0

    def test_warm_rerun_full_hits_and_identical_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = ExplorationEngine(cache=cache, jobs=1).run(tiny_space())
        warm = ExplorationEngine(cache=cache, jobs=1).run(tiny_space())
        assert warm.stats.cache_hits == warm.stats.configurations
        assert warm.stats.hit_rate == 1.0
        assert warm.records == cold.records
        assert pareto_frontier(warm.records) == pareto_frontier(cold.records)

    def test_model_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        ExplorationEngine(cache=cache, jobs=1).run(tiny_space())
        monkeypatch.setattr(dse_evaluate, "MODEL_VERSION", "dse-next")
        bumped = ExplorationEngine(cache=cache, jobs=1).run(tiny_space())
        assert bumped.stats.cache_hits == 0
        assert bumped.stats.cache_misses == 4
        assert bumped.model_version == "dse-next"

    def test_changed_knob_misses_overlap_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExplorationEngine(cache=cache, jobs=1).run(tiny_space())
        widened = ExplorationEngine(cache=cache, jobs=1).run(
            tiny_space(host_mhz=[4.0, 8.0, 16.0]))
        assert widened.stats.configurations == 6
        assert widened.stats.cache_hits == 4     # the overlapping points
        assert widened.stats.cache_misses == 2   # only the new host_mhz

    def test_parallel_matches_serial(self, tmp_path):
        space = tiny_space()
        serial = ExplorationEngine(jobs=1).run(space)
        parallel = ExplorationEngine(jobs=2).run(space)
        assert parallel.records == serial.records
        assert pareto_frontier(parallel.records) \
            == pareto_frontier(serial.records)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplorationEngine(jobs=0)

    def test_telemetry_counters_emitted(self, tmp_path):
        from repro.obs import Telemetry, use_telemetry
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            ExplorationEngine(cache=ResultCache(tmp_path), jobs=1) \
                .run(tiny_space())
        assert hub.counters["dse.cache.misses"].value == 4
        assert hub.counters["dse.evaluations"].value == 4
        lanes = {span.lane for span in hub.spans}
        assert "dse" in lanes


def _record(h, speedup, energy, power, feasible=True, **knobs):
    return {"config": canonicalize(knobs), "config_hash": h,
            "model_version": "t", "feasible": feasible, "error": None,
            "metrics": None if not feasible else {
                "effective_speedup": speedup,
                "energy_per_iteration_j": energy,
                "total_power_w": power,
            }}


class TestPareto:
    def test_dominated_points_drop(self):
        records = [_record("a", 10.0, 1e-5, 0.01),
                   _record("b", 5.0, 2e-5, 0.01),    # dominated by a
                   _record("c", 8.0, 0.5e-5, 0.01)]  # trades speed for energy
        frontier = pareto_frontier(records)
        assert [r["config_hash"] for r in frontier] == ["a", "c"]

    def test_infeasible_never_on_frontier(self):
        records = [_record("a", 10.0, 1e-5, 0.01),
                   _record("b", None, None, None, feasible=False)]
        assert len(pareto_frontier(records)) == 1

    def test_identical_vectors_collapse_to_first_hash(self):
        records = [_record("bbb", 10.0, 1e-5, 0.01),
                   _record("aaa", 10.0, 1e-5, 0.01)]
        frontier = pareto_frontier(records)
        assert len(frontier) == 1
        assert frontier[0]["config_hash"] == "aaa"

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_quadratic_scan(self, seed):
        rng = random.Random(seed)
        # Few distinct values per objective: exact ties, +-0.0 and
        # infinities turn up often, and so do whole-vector ties.
        values = [0.0, -0.0, 1.0, 2.5, -3.0, float("inf"), float("-inf")]
        keys = ("a", "b", "c", "d")
        for size in (0, 1, 2, 7, 40, 160):
            records = []
            for index in rng.sample(range(10 * size + 1), size):
                feasible = rng.random() > 0.15
                records.append({
                    "config_hash": f"{index:05x}", "feasible": feasible,
                    "metrics": {key: rng.choice(values) for key in keys}
                    if feasible else None})
            for maximize, minimize in (((), keys), (("a",), ("b", "c")),
                                       (("d", "a"), ("b",)), (keys, ())):
                got = pareto_frontier(records, maximize, minimize)
                assert got == _quadratic_frontier(records, maximize,
                                                  minimize)
                assert all(type(r) is dict for r in got)
                assert not any(r is original for r in got
                               for original in records)

    def test_sensitivity_ranks_the_moving_knob(self):
        records = [
            _record("a", 2.0, 1e-5, 0.01, host_mhz=2, budget_mw=5),
            _record("b", 9.0, 1e-5, 0.01, host_mhz=8, budget_mw=5),
            _record("c", 2.1, 1e-5, 0.01, host_mhz=2, budget_mw=10),
            _record("d", 9.2, 1e-5, 0.01, host_mhz=8, budget_mw=10),
        ]
        summary = sensitivity(records)
        assert summary["host_mhz"]["mean_spread"] \
            > summary["budget_mw"]["mean_spread"]
        assert summary["host_mhz"]["values"] == 2

    def test_sensitivity_groups_like_json_text(self):
        # 8, 8.0 and True are one value to ==, three to JSON text.
        records = [
            _record("a", 2.0, 1e-5, 0.01, host_mhz=2, budget_mw=5),
            _record("b", 9.0, 1e-5, 0.01, host_mhz=8, budget_mw=5),
            _record("c", 2.5, 1e-5, 0.01, host_mhz=2, budget_mw=10),
            _record("d", 7.0, 1e-5, 0.01, host_mhz=8, budget_mw=10),
            _record("e", 3.0, 1e-5, 0.01, host_mhz=4, budget_mw=10,
                    iterations=4),
            _record("f", 5.0, 1e-5, 0.01, host_mhz=8, budget_mw=10,
                    iterations=4),
        ]
        records[1]["config"]["host_mhz"] = 8
        records[3]["config"]["budget_mw"] = 10
        records[5]["config"]["iterations"] = 4.0
        records[4]["config"]["double_buffered"] = 0
        records.append(dict(records[0], config=dict(
            records[0]["config"], cluster_size=True)))
        assert sensitivity(records) == _json_keyed_sensitivity(records)
        assert sensitivity(records)["host_mhz"]["values"] == 4


def _quadratic_frontier(records, maximize, minimize):
    """The frontier by comparing every feasible record with every other:
    the reference the one-pass scan must reproduce."""
    from repro.dse.pareto import objective_vector

    def dominates(a, b):
        return all(x >= y for x, y in zip(a, b)) and a != b

    feasible = [r for r in records if r.get("feasible")]
    vectors = {r["config_hash"]: objective_vector(r, maximize, minimize)
               for r in feasible}
    frontier = []
    seen_vectors = set()
    for record in sorted(feasible, key=lambda r: r["config_hash"]):
        vector = vectors[record["config_hash"]]
        if vector in seen_vectors:
            continue
        if any(dominates(vectors[other["config_hash"]], vector)
               for other in feasible):
            continue
        seen_vectors.add(vector)
        frontier.append(dict(record))
    frontier.sort(key=lambda r: (
        tuple(-v for v in vectors[r["config_hash"]]), r["config_hash"]))
    return frontier


def _json_keyed_sensitivity(records, objective="effective_speedup"):
    """The sensitivity summary with groups keyed on JSON text: the
    reference the typed tuple keys must reproduce."""
    from repro.dse.space import KNOB_ORDER
    from repro.units import ordered_sum

    feasible = [r for r in records if r.get("feasible")]
    overall_mean = (ordered_sum([r["metrics"][objective] for r in feasible])
                    / len(feasible))
    summary = {}
    for knob in KNOB_ORDER:
        values = {json.dumps(r["config"][knob]) for r in feasible}
        if len(values) < 2:
            continue
        groups = {}
        for record in feasible:
            rest = {k: v for k, v in record["config"].items() if k != knob}
            key = json.dumps(rest, sort_keys=True)
            groups.setdefault(key, {})[json.dumps(record["config"][knob])] \
                = record["metrics"][objective]
        spreads = [max(group.values()) - min(group.values())
                   for group in groups.values() if len(group) >= 2]
        if not spreads:
            continue
        mean_spread = ordered_sum(spreads) / len(spreads)
        summary[knob] = {
            "values": len(values), "groups": len(spreads),
            "mean_spread": mean_spread, "max_spread": max(spreads),
            "relative_effect": (mean_spread / overall_mean
                                if overall_mean else 0.0)}
    return summary


class TestToRows:
    def test_every_record_exports_flat(self):
        from repro.dse import to_rows

        result = ExplorationEngine().run(tiny_space())
        rows = to_rows(result)
        assert len(rows) == len(result.records)
        hashes = [row["config_hash"] for row in rows]
        assert hashes == sorted(hashes)
        for row in rows:
            assert json.dumps(row)    # flat and JSON-serializable
            assert not any(isinstance(value, dict)
                           for value in row.values())
            assert row["knob.kernel"] == "matmul"
            assert row["model_version"] == result.model_version
            if row["feasible"]:
                assert row["metric.energy_per_iteration_j"] > 0
                assert row["metric.time_per_iteration_s"] > 0

    def test_infeasible_rows_kept_without_metrics(self):
        from repro.dse import to_rows

        # 0.5 mW cannot power the accelerator: infeasible by design.
        result = ExplorationEngine().run(
            tiny_space(budget_mw=[0.5], host_mhz=[8.0]))
        rows = to_rows(result)
        assert rows and not any(row["feasible"] for row in rows)
        for row in rows:
            assert not any(key.startswith("metric.") for key in row)


class TestCliDse:
    def test_parser_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["dse", "--host-mhz", "2,4"])
        assert args.command == "dse"
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.json

    def test_requires_some_space(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["dse"])

    def test_json_run_and_warm_cache(self, tmp_path, capsys):
        from repro.cli import main
        argv = ["dse", "--host-mhz", "4,8", "--budget-mw", "5,10",
                "--cache-dir", str(tmp_path / "cache"), "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["stats"]["cache_misses"] == 4
        assert warm["stats"]["cache_hits"] == 4
        assert warm["stats"]["hit_rate"] == 1.0
        assert warm["pareto"] == cold["pareto"]
        assert warm["records"] == cold["records"]

    def test_spec_file(self, tmp_path, capsys):
        from repro.cli import main
        spec = tmp_path / "space.json"
        spec.write_text(json.dumps(
            {"grid": {"host_mhz": [8]},
             "points": [{"host_mhz": 16, "budget_mw": 20}]}))
        assert main(["dse", "--spec", str(spec), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["stats"]["configurations"] == 2

    def test_bad_spec_exits(self, tmp_path):
        from repro.cli import main
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"grid": {"voltage": [1.2]}}))
        with pytest.raises(SystemExit):
            main(["dse", "--spec", str(spec)])

    def test_text_render(self, capsys):
        from repro.cli import main
        assert main(["dse", "--host-mhz", "8"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "explored 1 configuration(s)" in out
