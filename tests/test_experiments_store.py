"""Tests for the experiment result store."""

import dataclasses
import enum

import pytest

from repro.errors import ConfigurationError
from repro.experiments import figure3, table1
from repro.experiments.store import load_results, save_results


class TestSaveLoad:
    def test_roundtrip_table1(self, tmp_path):
        rows = table1.run()
        path = tmp_path / "table1.json"
        save_results(rows, path, metadata={"experiment": "table1"})
        document = load_results(path)
        assert document["metadata"]["experiment"] == "table1"
        assert len(document["results"]) == 10
        assert document["results"][0]["name"] == "matmul"

    def test_roundtrip_figure3(self, tmp_path):
        result = figure3.run()
        path = tmp_path / "figure3.json"
        save_results(result, path)
        document = load_results(path)
        assert len(document["results"]["points"]) == 13

    def test_enum_flattening(self, tmp_path):
        class Placement(enum.Enum):
            HOST = "host"

        @dataclasses.dataclass(frozen=True)
        class StageReport:
            name: str
            placement: Placement
            time_per_item: float

        report = StageReport(name="x", placement=Placement.HOST,
                             time_per_item=1.0)
        path = tmp_path / "stage.json"
        save_results(report, path)
        assert load_results(path)["results"]["placement"] == "host"

    def test_unserializable_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_results(object(), tmp_path / "bad.json")

    def test_sets_serialize_sorted(self, tmp_path):
        path = tmp_path / "sets.json"
        save_results({"regs": {3, 1, 2}, "names": frozenset({"b", "a"})},
                     path)
        results = load_results(path)["results"]
        assert results["regs"] == [1, 2, 3]
        assert results["names"] == ["a", "b"]

    def test_set_order_is_deterministic_across_insertions(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_results({"s": {"x", "y", "z"}}, a)
        save_results({"s": {"z", "x", "y"}}, b)
        assert a.read_text() == b.read_text()

    def test_paths_serialize_as_strings(self, tmp_path):
        import pathlib
        path = tmp_path / "paths.json"
        save_results({"out": pathlib.Path("/tmp/run1")}, path)
        assert load_results(path)["results"]["out"] == "/tmp/run1"

    def test_load_rejects_non_store(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            load_results(path)

