"""Tests for repro.learn: datasets, models, regret, and the
predicted serving backend."""

import json

import pytest

from repro.analysis import FEATURES_VERSION, feature_schema, features, mix_features
from repro.cli import main
from repro.errors import ConfigurationError
from repro.learn import (
    CORPUS,
    Dataset,
    build_dataset,
    evaluate,
    load_dataset,
    load_model,
    loko_folds,
    model_from_dict,
    save_dataset,
    save_model,
    train_model,
)
from repro.learn.dataset import (
    config_label,
    corpus_features,
    dataset_feature_names,
    label_knobs,
)
from repro.learn.service import (
    BENCHMARK_TWINS,
    PredictedServiceBook,
    predictor_from_file,
)
from repro.machine.programs import BUILTIN_PROGRAMS
from repro.obs import Telemetry, use_telemetry
from repro.serve import (
    PoissonWorkload,
    Policy,
    SchedulerConfig,
    ServeConfig,
    ServeEngine,
)
from tests.invariants import assert_served


@pytest.fixture(scope="session")
def tiny_dataset():
    """The reduced-grid dataset, built once for the whole session."""
    return build_dataset(tiny=True)


# -- feature schema (the learning contract) --------------------------------------


class TestFeatureSchema:
    def test_version_stamp(self, tiny_dataset):
        # The version rides on datasets/models, not in the vector
        # itself (a constant column would be noise to every learner).
        assert FEATURES_VERSION == 2
        assert tiny_dataset.features_version == FEATURES_VERSION
        fitted = train_model(tiny_dataset, kind="dummy")
        assert fitted.features_version == FEATURES_VERSION

    def test_schema_is_sorted_and_stable(self):
        schema = feature_schema()
        assert list(schema) == sorted(schema)
        assert feature_schema(cores=1) == feature_schema()

    def test_builtin_keys_pinned_exactly(self):
        # The exact single-core key set: any drift must bump
        # FEATURES_VERSION and retrain shipped models.
        program = BUILTIN_PROGRAMS["memcpy_words"]
        out = features(program.unit, name="memcpy_words",
                       entry_regs=program.entry_regs)
        assert tuple(sorted(out)) == feature_schema(cores=1)

    def test_multicore_schema_adds_concurrency_keys(self):
        extra = set(feature_schema(cores=4)) - set(feature_schema(cores=1))
        assert extra
        assert all(key.startswith("concurrency.") for key in extra)

    def test_mix_separates_compute_from_io(self):
        def intensity(name):
            program = BUILTIN_PROGRAMS[name]
            return mix_features(program.unit)["mix.ops_per_mem"]

        for io_name in ("memcpy_words", "vector_add_i8", "dot_product_i8"):
            for compute_name in ("dwconv3_i8", "fir8_i32", "mag_hist_i32"):
                assert intensity(compute_name) > 2 * intensity(io_name)

    def test_mix_counts_on_fir(self):
        out = mix_features(BUILTIN_PROGRAMS["fir8_i32"].unit)
        assert out["mix.mac"] == 8
        assert out["mix.loads"] == 1
        assert out["mix.stores"] == 1
        assert out["mix.loop_depth_max"] == 1


# -- dataset ---------------------------------------------------------------------


class TestDataset:
    def test_labels_and_columns(self, tiny_dataset):
        assert tiny_dataset.feature_names == dataset_feature_names()
        assert "context.iterations" in tiny_dataset.feature_names
        for row in tiny_dataset.rows:
            assert row.label in row.candidates
            assert row.candidates[row.label]["feasible"]
            assert row.oracle["label"] == row.label
            assert set(row.features) == set(tiny_dataset.feature_names)

    def test_oracle_is_edp_min(self, tiny_dataset):
        for row in tiny_dataset.rows:
            best = min(entry["edp"] for entry in row.candidates.values()
                       if entry["feasible"])
            assert row.oracle["edp"] == pytest.approx(best)

    def test_deterministic_digest(self, tiny_dataset):
        again = build_dataset(tiny=True)
        assert again.digest == tiny_dataset.digest

    def test_roundtrip_and_tamper_detection(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(tiny_dataset, path)
        loaded = load_dataset(path)
        assert loaded.digest == tiny_dataset.digest
        doc = json.loads(path.read_text())
        doc["results"]["rows"][0]["label"] = "b32/c1/sbuf"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            load_dataset(path)

    def test_label_knobs_roundtrip(self):
        label = config_label(12.0, 4, True)
        assert label == "b12/c4/dbuf"
        assert label_knobs(label) == {"budget_mw": 12.0, "cluster_size": 4,
                                      "double_buffered": True}
        with pytest.raises(ConfigurationError):
            label_knobs("nonsense")

    def test_unknown_program_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown corpus"):
            corpus_features("nonesuch", 1)


# -- models ----------------------------------------------------------------------


class TestModels:
    @pytest.mark.parametrize("kind", ["tree", "ridge", "dummy"])
    def test_json_roundtrip_preserves_predictions(self, tiny_dataset, kind):
        fitted = train_model(tiny_dataset, kind=kind)
        clone = model_from_dict(fitted.to_dict())
        for row in tiny_dataset.rows:
            assert clone.predict(row.features) == fitted.predict(row.features)
            assert clone.ranked(row.features) == fitted.ranked(row.features)

    def test_tree_fits_training_set_well(self, tiny_dataset):
        fitted = train_model(tiny_dataset, kind="tree")
        hits = sum(fitted.predict(row.features) == row.label
                   for row in tiny_dataset.rows)
        assert hits >= 0.9 * len(tiny_dataset.rows)

    def test_importances_name_real_features(self, tiny_dataset):
        fitted = train_model(tiny_dataset, kind="tree")
        importances = fitted.importances()
        assert importances
        assert set(importances) <= set(tiny_dataset.feature_names)
        assert sum(importances.values()) == pytest.approx(1.0)

    def test_save_load(self, tiny_dataset, tmp_path):
        fitted = train_model(tiny_dataset, kind="tree")
        path = tmp_path / "model.json"
        save_model(fitted, path)
        loaded = load_model(path)
        assert loaded.kind == "tree"
        assert loaded.dataset_digest == tiny_dataset.digest
        row = tiny_dataset.rows[0]
        assert loaded.predict(row.features) == fitted.predict(row.features)

    def test_unknown_kind_rejected(self, tiny_dataset):
        with pytest.raises(ConfigurationError):
            train_model(tiny_dataset, kind="forest")


# -- leave-one-kernel-out evaluation ---------------------------------------------


class TestEvaluation:
    def test_folds_partition_by_benchmark(self, tiny_dataset):
        folds = loko_folds(tiny_dataset)
        assert len(folds) == len({row.benchmark
                                  for row in tiny_dataset.rows})
        for group, train, test in folds:
            assert not set(train) & set(test)
            assert all(tiny_dataset.rows[i].benchmark == group
                       for i in test)
            assert all(tiny_dataset.rows[i].benchmark != group
                       for i in train)

    def test_acceptance_tree_beats_dummy_within_regret(self, tiny_dataset):
        report = evaluate(tiny_dataset)
        tree = report.model("tree")
        dummy = report.model("dummy")
        assert tree.top1_accuracy > dummy.top1_accuracy
        assert tree._mean("energy") <= 0.15
        # The dummy's one-class answer cannot track the oracle on EDP.
        assert tree._mean("edp") < dummy._mean("edp")

    def test_report_is_deterministic(self, tiny_dataset):
        a = evaluate(tiny_dataset).to_dict()
        b = evaluate(tiny_dataset).to_dict()
        assert a == b

    def test_regret_nonnegative_and_zero_on_hits(self, tiny_dataset):
        report = evaluate(tiny_dataset)
        for evaluation in report.models.values():
            for prediction in evaluation.predictions:
                regret = prediction["regret"]
                assert all(value >= 0.0 for value in regret.values())
                if prediction["correct"]:
                    assert regret["edp"] == 0.0


# -- the predicted serving backend -----------------------------------------------


class TestPredictedServiceBook:
    def test_twins_cover_the_corpus(self):
        assert set(BENCHMARK_TWINS.values()) <= set(CORPUS)
        assert set(BENCHMARK_TWINS) == {twin for _, twin in CORPUS.values()}

    def test_decisions_and_counters(self, tiny_dataset):
        book = PredictedServiceBook(train_model(tiny_dataset, kind="tree"))
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            predicted = book.profile("cnn", "fast")
            book.profile("svm (poly)", "fast")   # not in the corpus
        assert book.decisions["cnn"] is not None
        assert book.decisions["svm (poly)"] is None
        assert hub.counters["learn.predictions"].value == 1
        assert hub.counters["learn.fallbacks"].value == 1
        # The predicted point prices through the same stack: a real
        # operating point with positive costs.
        assert predicted.active_power > 0
        assert predicted.unit_compute_time > 0

    def test_low_confidence_falls_back(self, tiny_dataset):
        fitted = train_model(tiny_dataset, kind="dummy")
        threshold = fitted.confidence(tiny_dataset.rows[0].features) + 0.01
        book = PredictedServiceBook(fitted, confidence=min(threshold, 1.0))
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            book.profile("cnn", "fast")
        assert book.decisions["cnn"] is None
        assert "learn.predictions" not in hub.counters

    def test_fallback_matches_analytic_pricing(self, tiny_dataset):
        from repro.serve import AnalyticServiceBook

        book = PredictedServiceBook(train_model(tiny_dataset, kind="tree"))
        analytic = AnalyticServiceBook()
        assert book.profile("svm (poly)", "fast") == \
            analytic.profile("svm (poly)", "fast")
        # The eco tier stays analytic even for predicted kernels.
        assert book.profile("cnn", "eco") == analytic.profile("cnn", "eco")

    def test_predictor_from_file_checks_version(self, tiny_dataset,
                                                tmp_path):
        fitted = train_model(tiny_dataset, kind="tree")
        path = tmp_path / "model.json"
        save_model(fitted, path)
        assert predictor_from_file(path).kind == "tree"
        doc = json.loads(path.read_text())
        doc["results"]["features_version"] = FEATURES_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="feature schema"):
            predictor_from_file(path)

    def test_serve_end_to_end_with_predicted_policy(self, tiny_dataset):
        book = PredictedServiceBook(train_model(tiny_dataset, kind="tree"))
        config = ServeConfig(
            workload=PoissonWorkload(rate=250.0, requests=80, seed=7),
            nodes=2,
            scheduler=SchedulerConfig(policy="predicted"),
            seed=7, book=book)
        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            report = ServeEngine(config).run()
        assert report.policy == "predicted"
        assert len(report.records) == 80
        assert hub.counters["learn.predictions"].value > 0
        assert any(label is not None
                   for label in book.decisions.values())


# -- serve plug points -----------------------------------------------------------


class TestServePlugPoints:
    def test_builtin_policy_accepted_as_string(self):
        config = SchedulerConfig(policy="sjf")
        assert config.policy is Policy.SJF

    def test_unknown_policy_rejected_at_scheduler(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            SchedulerConfig(policy="nonesuch")


# -- the CLI ---------------------------------------------------------------------


class TestLearnCli:
    @pytest.fixture()
    def dataset_path(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(tiny_dataset, path)
        return path

    def test_dataset_subset_build(self, tmp_path, capsys):
        out = tmp_path / "subset.json"
        assert main(["learn", "dataset", "--tiny", "--out", str(out),
                     "--programs", "memcpy_words,dwconv3_i8",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 4    # 2 programs x 2 tiny contexts
        assert load_dataset(out).digest == payload["digest"]

    def test_train_then_predict(self, dataset_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["learn", "train", "--dataset", str(dataset_path),
                     "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["learn", "predict", "--model", str(model_path),
                     "--program", "dwconv3_i8", "--iterations", "64",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranked"]
        assert "budget_mw" in payload["ranked"][0]

    def test_eval_gate_exit_codes(self, dataset_path, capsys):
        assert main(["learn", "eval", "--dataset", str(dataset_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["primary"] == "tree"
        from repro.cli import LEARN_EXIT_REGRET

        assert main(["learn", "eval", "--dataset", str(dataset_path),
                     "--max-regret", "0.0"]) == LEARN_EXIT_REGRET

    def test_missing_dataset_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load dataset"):
            main(["learn", "train", "--dataset", "/nonexistent.json"])
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        for argv, message in (
                (["learn", "train", "--dataset", str(garbage)],
                 "learn: cannot load dataset"),
                (["learn", "eval", "--dataset", str(garbage)],
                 "learn: cannot load dataset"),
                (["learn", "predict", "--model", str(garbage),
                  "--program", "dwconv3_i8"], "learn: cannot load model"),
                (["serve", "--scheduler", "predicted", "--model",
                  str(garbage), "--requests", "40"],
                 "serve: cannot use model")):
            with pytest.raises(SystemExit,
                               match=f"^{message} .*garbage.json is not JSON"):
                main(argv)

    def test_serve_predicted_without_model_errors(self):
        with pytest.raises(SystemExit, match="needs --model"):
            main(["serve", "--scheduler", "predicted",
                  "--requests", "40"])

    def test_serve_with_predicted_model(self, dataset_path, tiny_dataset,
                                        tmp_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(train_model(tiny_dataset, kind="tree"), model_path)
        assert main(["serve", "--scheduler", "predicted",
                     "--model", str(model_path), "--nodes", "2",
                     "--requests", "60", "--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "predicted"
        assert_served(payload, 60)
