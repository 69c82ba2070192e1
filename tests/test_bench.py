"""Tests for the tracked benchmark suite (src/repro/bench)."""

import copy
import itertools
import json
import os

import pytest

from repro.bench import runner as bench_runner
from repro.bench import (
    BenchOptions,
    BenchRunner,
    BenchSuite,
    FIRST_INDEX,
    SUITE_TYPES,
    SuiteResult,
    bench_indices,
    bench_path,
    compare,
    default_suites,
    fingerprint_digest,
    latest_bench,
    load_report,
    next_index,
    render_comparison,
    render_report,
    strip_timing,
    validate_report,
    write_report,
)
from repro.cli import BENCH_EXIT_REGRESSION, main
from repro.errors import BenchmarkError
from repro.obs import get_telemetry

#: The hot paths the trajectory covers: those perfbench does not time.
REQUIRED_SUITES = {"sim", "dse_cached", "faults", "analysis", "learn",
                   "capacity"}
#: Suites of the committed trajectory that perfbench's serve_drain,
#: dse_sweep and chaos_sweep workloads time instead.
RETIRED_SUITES = {"serve", "dse_cold", "chaos"}
#: The committed trajectory, and the entry CI's ``--check`` gates on.
RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "results")
BASELINE_INDEX = 11


@pytest.fixture(scope="module")
def full_report():
    """One quick full run shared by the read-only assertions."""
    return BenchRunner(BenchOptions(repeats=2, quick=True)).run()


class TestSuites:
    def test_registry_covers_every_engine(self):
        assert {t.name for t in SUITE_TYPES} == REQUIRED_SUITES

    def test_unknown_suite_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown bench suites"):
            default_suites(["sim", "nope"])

    def test_specs_pin_their_seeds(self):
        faults, capacity = default_suites(["faults", "capacity"])
        assert "seed" in faults.spec
        assert "seed" in capacity.spec["reference"]

    def test_fingerprint_digest_is_stable(self):
        assert (fingerprint_digest({"b": 2, "a": 1})
                == fingerprint_digest({"a": 1, "b": 2}))
        assert fingerprint_digest({"a": 1}) != fingerprint_digest({"a": 2})


class TestRunner:
    def test_report_validates_and_covers_all_suites(self, full_report):
        validate_report(full_report)
        assert set(full_report["suites"]) == REQUIRED_SUITES
        assert len(full_report["suites"]) >= 5

    def test_throughput_and_phases(self, full_report):
        for name, suite in full_report["suites"].items():
            timing = suite["timing"]
            assert timing["throughput"] > 0, name
            assert len(timing["wall_s"]) == 2, name

    def test_environment_metadata(self, full_report):
        env = full_report["env"]
        assert env["cpu_count"] >= 1
        assert env["python"] and env["platform"]

    def test_dse_suites_are_cold_and_cached(self, full_report):
        warm = full_report["suites"]["dse_cached"]
        assert warm["counters"]["dse.cache.hits"] == warm["units_per_run"]

    def test_engine_counters_recorded(self, full_report):
        assert full_report["suites"]["capacity"]["counters"]
        assert full_report["suites"]["faults"]["counters"]

    def test_kept_suites_match_the_baseline(self, full_report):
        baseline = load_report(bench_path(RESULTS_DIR, BASELINE_INDEX))
        for name, suite in full_report["suites"].items():
            pinned = baseline["suites"][name]
            assert suite["spec"] == pinned["spec"], name
            assert suite["fingerprint"] == pinned["fingerprint"], name

    def test_rerun_non_timing_fields_identical(self, full_report):
        rerun = BenchRunner(BenchOptions(repeats=1)).run()
        assert strip_timing(rerun) == strip_timing(full_report)

    def test_bad_repeats_rejected(self):
        with pytest.raises(BenchmarkError, match="repeats"):
            BenchOptions(repeats=0)


class TestReportSchema:
    def test_validate_rejects_missing_suite_key(self, full_report):
        broken = copy.deepcopy(full_report)
        del broken["suites"]["sim"]["timing"]["throughput"]
        with pytest.raises(BenchmarkError, match="timing.throughput"):
            validate_report(broken)

    def test_validate_rejects_wrong_schema(self, full_report):
        broken = copy.deepcopy(full_report)
        broken["schema"] = "repro.bench/v0"
        with pytest.raises(BenchmarkError, match="schema"):
            validate_report(broken)

    def test_validate_rejects_empty_suites(self, full_report):
        broken = copy.deepcopy(full_report)
        broken["suites"] = {}
        with pytest.raises(BenchmarkError, match="suites"):
            validate_report(broken)

    def test_committed_trajectory_loads(self):
        indices = bench_indices(RESULTS_DIR)
        assert indices[0] == FIRST_INDEX and BASELINE_INDEX in indices
        for index in indices:
            assert load_report(bench_path(RESULTS_DIR, index))[
                "bench_index"] == index

    def test_trajectory_numbering(self, tmp_path, full_report):
        directory = str(tmp_path)
        assert next_index(directory) == FIRST_INDEX
        assert latest_bench(directory) is None
        path = write_report(copy.deepcopy(full_report), directory)
        assert path.endswith(f"BENCH_{FIRST_INDEX}.json")
        assert next_index(directory) == FIRST_INDEX + 1
        assert latest_bench(directory) == path
        assert strip_timing(load_report(path)) == strip_timing(full_report)


class TestCompare:
    def _slowed(self, report, suite, factor):
        doc = copy.deepcopy(report)
        timing = doc["suites"][suite]["timing"]
        timing["throughput"] = round(timing["throughput"] / factor, 6)
        timing["median_wall_s"] = round(timing["median_wall_s"] * factor, 9)
        timing["wall_s"] = [round(w * factor, 9) for w in timing["wall_s"]]
        return doc

    def test_identical_reports_pass(self, full_report):
        comparison = compare(full_report, full_report)
        assert comparison.ok
        assert {row.status for row in comparison.rows} == {"ok"}

    def test_injected_slowdown_detected(self, full_report):
        slow = self._slowed(full_report, "faults", 2.0)
        comparison = compare(full_report, slow)
        assert comparison.regressions == ["faults"]
        row = next(r for r in comparison.rows if r.suite == "faults")
        assert row.status == "regressed" and row.ratio == pytest.approx(0.5)
        assert "REGRESSION in faults" in render_comparison(comparison)

    def test_within_threshold_slowdown_passes(self, full_report):
        slow = self._slowed(full_report, "faults", 1.1)
        assert compare(full_report, slow).ok

    def test_speedup_is_not_a_regression(self, full_report):
        fast = self._slowed(full_report, "faults", 0.25)
        comparison = compare(full_report, fast)
        assert comparison.ok
        row = next(r for r in comparison.rows if r.suite == "faults")
        assert row.status == "improved"

    def test_spec_change_is_incomparable_not_regressed(self, full_report):
        changed = self._slowed(full_report, "faults", 10.0)
        changed["suites"]["faults"]["spec"] = dict(
            changed["suites"]["faults"]["spec"], scenarios=999)
        comparison = compare(full_report, changed)
        assert comparison.ok
        row = next(r for r in comparison.rows if r.suite == "faults")
        assert row.status == "incomparable"

    def test_added_and_removed_suites_annotated(self, full_report):
        pruned = copy.deepcopy(full_report)
        del pruned["suites"]["faults"]
        statuses = {row.suite: row.status
                    for row in compare(full_report, pruned).rows}
        assert statuses["faults"] == "removed"
        statuses = {row.suite: row.status
                    for row in compare(pruned, full_report).rows}
        assert statuses["faults"] == "added"

    def test_gate_on_the_baseline_lists_retired_suites_as_removed(
            self, full_report):
        baseline = load_report(bench_path(RESULTS_DIR, BASELINE_INDEX))
        run = copy.deepcopy(full_report)
        # Judge the rows, not this host's speed: equal throughputs.
        for name, suite in run["suites"].items():
            suite["timing"]["throughput"] = \
                baseline["suites"][name]["timing"]["throughput"]
        comparison = compare(baseline, run)
        statuses = {row.suite: (row.status, row.note)
                    for row in comparison.rows}
        assert statuses == {
            **{name: ("ok", "") for name in REQUIRED_SUITES},
            **{name: ("removed", "suite missing from the new run")
               for name in RETIRED_SUITES}}
        assert comparison.ok

    def test_bad_threshold_rejected(self, full_report):
        with pytest.raises(BenchmarkError, match="threshold"):
            compare(full_report, full_report, threshold=1.5)

    def test_render_report(self, full_report):
        text = render_report(full_report)
        for name in REQUIRED_SUITES:
            assert name in text


class TestBenchCli:
    def _run(self, out_dir, *extra):
        return main(["bench", "--repeats", "1", "--suites", "analysis",
                     "--out-dir", str(out_dir), *extra])

    def test_run_writes_schema_valid_trajectory_entry(self, tmp_path,
                                                      capsys):
        assert self._run(tmp_path) == 0
        path = tmp_path / f"BENCH_{FIRST_INDEX}.json"
        assert path.exists()
        doc = load_report(str(path))
        assert doc["bench_index"] == FIRST_INDEX
        assert "analysis" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        assert self._run(tmp_path, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["suites"]["analysis"]
        assert payload["path"].endswith(f"BENCH_{FIRST_INDEX}.json")

    def test_check_passes_against_own_rerun(self, tmp_path, capsys,
                                            monkeypatch):
        # Both runs read a stub clock on which every timed pass lasts
        # 0.25 s, so this checks the comparison and exit-code path rather
        # than the host's speed between two single-repetition runs.
        ticks = itertools.count()
        monkeypatch.setattr(bench_runner, "monotonic",
                            lambda: next(ticks) * 0.25)
        assert self._run(tmp_path) == 0
        assert self._run(tmp_path, "--check") == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_check_detects_injected_slowdown(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        path = tmp_path / f"BENCH_{FIRST_INDEX}.json"
        doc = json.loads(path.read_text())
        doc["suites"]["analysis"]["timing"]["throughput"] *= 100.0
        path.write_text(json.dumps(doc))
        assert self._run(tmp_path, "--check") == BENCH_EXIT_REGRESSION
        assert "REGRESSION in analysis" in capsys.readouterr().out

    def test_compare_exit_codes(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        base = tmp_path / f"BENCH_{FIRST_INDEX}.json"
        doc = json.loads(base.read_text())
        doc["suites"]["analysis"]["timing"]["throughput"] /= 100.0
        doc["bench_index"] += 1
        slow = tmp_path / f"BENCH_{FIRST_INDEX + 1}.json"
        slow.write_text(json.dumps(doc))
        assert main(["bench", "--compare", str(base), str(base)]) == 0
        assert main(["bench", "--compare", str(base), str(slow)]) \
            == BENCH_EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "regressed" in out

    def test_cli_reruns_identical_non_timing_fields(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert self._run(first) == 0
        assert self._run(second) == 0
        a = load_report(str(first / f"BENCH_{FIRST_INDEX}.json"))
        b = load_report(str(second / f"BENCH_{FIRST_INDEX}.json"))
        assert strip_timing(a) == strip_timing(b)

    def test_profile_and_flame_artifacts(self, tmp_path):
        profile = tmp_path / "profile.json"
        assert main(["bench", "--repeats", "1", "--suites", "faults",
                     "--no-write", "--profile", str(profile)]) == 0
        trace = json.loads((tmp_path / "profile.faults.json").read_text())
        lanes = {event["args"]["name"] for event in trace["traceEvents"]
                 if event["name"] == "thread_name"}
        assert {"campaign", "resilient", "spi"} <= lanes
        assert any(event["ph"] == "C" for event in trace["traceEvents"])

    def test_overlapping_spans_profile_the_counters(self, tmp_path):
        class Overlapping(BenchSuite):
            name, units = "overlapping", "spans"

            def execute(self, state):
                hub = get_telemetry()
                hub.span("a", "lane", 0.0, 5.0)
                hub.span("b", "lane", 3.0, 5.0)
                hub.count("spans", 2.0)
                return SuiteResult(units=2.0, fingerprint={})

        runner = BenchRunner(BenchOptions(
            repeats=1, profile_path=str(tmp_path / "p.json")))
        runner.suites = [Overlapping()]
        runner.run()
        (path,) = runner.artifacts
        events = json.loads(open(path).read())["traceEvents"]
        assert [(e["ph"], e["name"]) for e in events] == [("C", "spans")]

    def test_silent_suite_writes_no_profile(self, tmp_path, capsys):
        # The analysis suite emits no telemetry: an empty trace would
        # hold nothing, so none is written or listed, and a line says why.
        assert main(["bench", "--repeats", "1", "--suites", "analysis",
                     "--no-write", "--profile",
                     str(tmp_path / "p.json")]) == 0
        out = capsys.readouterr().out
        assert not list(tmp_path.iterdir())
        assert "wrote" not in out
        assert "no profile for analysis: its instrumented pass recorded " \
            "no spans or counters" in out

    def test_missing_baseline_is_not_an_error(self, tmp_path, capsys):
        assert self._run(tmp_path, "--no-write", "--check") == 0
        assert "nothing to gate against" in capsys.readouterr().out

    def test_bad_suite_name_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown bench suites"):
            main(["bench", "--suites", "warp-drive",
                  "--out-dir", str(tmp_path)])
