"""Regression check: headline numbers versus pinned golden values.

``benchmarks/results/golden.json`` pins the Table I per-kernel numbers
and the Figure 4 aggregates.  Any model change that moves them fails
here, so drift is a conscious decision, not an accident.  To re-pin
after an intentional change::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.experiments import table1, figure4
    rows, f4 = table1.run(), figure4.run()
    golden = json.load(open("benchmarks/results/golden.json"))
    golden["table1"] = {r.name: {
        "risc_ops": r.risc_ops, "binary_bytes": r.binary_bytes,
        "input_bytes": r.input_bytes, "output_bytes": r.output_bytes,
    } for r in rows}
    golden["figure4"] = {
        "mean_parallel_speedup": f4.mean_parallel_speedup,
        "mean_runtime_overhead": f4.mean_runtime_overhead,
        "rows": {r.name: {
            "or10n_cycles": r.or10n_cycles,
            "parallel_speedup": r.parallel_speedup,
            "arch_speedup_vs_m4": r.arch_speedup_vs_m4,
        } for r in f4.rows}}
    json.dump(golden, open("benchmarks/results/golden.json", "w"), indent=2)
    PY
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import figure3, figure4, figure5, table1

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "benchmarks" / "results" / "golden.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestTable1Golden:
    def test_all_kernels_pinned(self, golden):
        measured = {row.name for row in table1.run()}
        assert measured == set(golden["table1"])

    def test_rows_match_pinned_values(self, golden):
        for row in table1.run():
            pinned = golden["table1"][row.name]
            assert row.risc_ops == pytest.approx(pinned["risc_ops"],
                                                 rel=1e-9), row.name
            assert row.binary_bytes == pinned["binary_bytes"], row.name
            assert row.input_bytes == pinned["input_bytes"], row.name
            assert row.output_bytes == pinned["output_bytes"], row.name


class TestFigure4Golden:
    @pytest.fixture(scope="class")
    def result(self):
        return figure4.run()

    def test_aggregates_match(self, golden, result):
        assert result.mean_parallel_speedup == pytest.approx(
            golden["figure4"]["mean_parallel_speedup"], rel=1e-9)
        assert result.mean_runtime_overhead == pytest.approx(
            golden["figure4"]["mean_runtime_overhead"], rel=1e-9)

    def test_per_row_values_match(self, golden, result):
        pinned_rows = golden["figure4"]["rows"]
        assert {row.name for row in result.rows} == set(pinned_rows)
        for row in result.rows:
            pinned = pinned_rows[row.name]
            assert row.or10n_cycles == pytest.approx(
                pinned["or10n_cycles"], rel=1e-9), row.name
            assert row.parallel_speedup == pytest.approx(
                pinned["parallel_speedup"], rel=1e-9), row.name
            assert row.arch_speedup_vs_m4 == pytest.approx(
                pinned["arch_speedup_vs_m4"], rel=1e-9), row.name


#: sha256 of each experiment's ``--json`` dict (sorted-key JSON).  These
#: carry full-precision floats, where the report rounds them and
#: golden.json pins Table I and Figure 4 to a relative 1e-9.  Re-pin
#: with ``hashlib.sha256(json.dumps(d, sort_keys=True).encode())``.
FIGURE_DIGESTS = {
    "table1":
        "5e6289aa58eda36f663f1ec788092cdcd422a8902576f7cc7463d65b4d977931",
    "figure3":
        "1d6dc9a1f42ef3a1d5a9b6bd882205d42ad2d8b0247a74883a82ab8d3f92e16a",
    "figure4":
        "1d604af1c17fbf6009209c97f42b6f287349f2e2081ef92706390f7d2262c32f",
    "figure5a":
        "a9ae3cb10becd9bb5630f138255424fc76858f56d9e8d9cc17f89d10104ae626",
    "figure5b":
        "834151e24dede1f51746f4110ca5618d1b6f514df8f74349efff77cdd20f902a",
}

_FIGURE_JSON = {
    "table1": table1.to_json_dict,
    "figure3": figure3.to_json_dict,
    "figure4": figure4.to_json_dict,
    "figure5a": figure5.figure5a_to_json_dict,
    "figure5b": figure5.figure5b_to_json_dict,
}


@pytest.mark.parametrize("name", sorted(FIGURE_DIGESTS))
def test_figure_json_digest_pinned(name):
    payload = json.dumps(_FIGURE_JSON[name](), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() \
        == FIGURE_DIGESTS[name], name


class TestDsePareto:
    """The pinned small-grid Pareto frontier (see benchmarks/results/
    golden.json, key ``dse_pareto``).  Re-pin with::

        PYTHONPATH=src python - <<'EOF'
        import json
        from repro.dse import ParameterSpace, ExplorationEngine, \
            pareto_frontier
        golden = json.load(open("benchmarks/results/golden.json"))
        space = ParameterSpace.from_dict(golden["dse_pareto"]["spec"])
        result = ExplorationEngine(jobs=1).run(space)
        golden["dse_pareto"]["frontier"] = [{
            "config_hash": r["config_hash"], "config": r["config"],
            "effective_speedup": r["metrics"]["effective_speedup"],
            "energy_per_iteration_j":
                r["metrics"]["energy_per_iteration_j"],
            "total_power_w": r["metrics"]["total_power_w"],
        } for r in pareto_frontier(result.records)]
        json.dump(golden, open("benchmarks/results/golden.json", "w"),
                  indent=2)
        EOF
    """

    @pytest.fixture(scope="class")
    def frontier(self, request):
        from repro.dse import ExplorationEngine, ParameterSpace, \
            pareto_frontier
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        space = ParameterSpace.from_dict(golden["dse_pareto"]["spec"])
        result = ExplorationEngine(jobs=1).run(space)
        return golden["dse_pareto"]["frontier"], \
            pareto_frontier(result.records)

    def test_frontier_membership_matches(self, frontier):
        pinned, measured = frontier
        assert [r["config_hash"] for r in measured] \
            == [r["config_hash"] for r in pinned]

    def test_frontier_objectives_match(self, frontier):
        pinned, measured = frontier
        for pin, got in zip(pinned, measured):
            metrics = got["metrics"]
            for key in ("effective_speedup", "energy_per_iteration_j",
                        "total_power_w"):
                assert metrics[key] == pytest.approx(pin[key], rel=1e-9), \
                    pin["config_hash"]
