"""Self-tests of the benchmark: tracing arithmetic, clean unpatching,
failure accounting and the names in BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import seams
import tracer as tracer_module
from probe import REFERENCE_S
from seams import PER_LAYER, Seam, install, layer_metrics, tail_percentile
from tracer import Tracer, self_times
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((BENCH / "pins.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")

#: Names the benchmark must report, as its specification lists them
#: (``serve_drain`` stays runnable but is left out of BENCHMARK.json;
#: see README.md).
SPEC_WORKLOADS = {"dse_sweep", "chaos_sweep", "paper_repro"}
SPEC_END_TO_END = {"throughput", "setup_s", "peak_rss_mb"}
SPEC_PER_LAYER = {
    "setup.import_s", "setup.inputs_s",
    "kernels.build.calls", "kernels.build.self_s", "kernels.reference.calls",
    "kernels.reference.self_s", "isa.lower.calls", "isa.lower.self_s",
    "runtime.omp.calls", "runtime.omp.self_s", "runtime.omp.repeat_share",
    "runtime.frames.self_s", "pulp.binary.calls", "pulp.binary.self_s",
    "pulp.soc.self_s", "link.frames.calls", "link.frames.self_s",
    "link.frames.bytes", "power.model.calls", "power.model.self_s",
    "core.envelope.calls", "core.envelope.self_s",
    "core.envelope.repeat_share", "core.offload_cost.calls",
    "core.offload_cost.self_s", "core.system.calls", "core.system.self_s",
    "dse.evaluate.calls", "dse.evaluate.self_s", "dse.report.self_s",
    "dse.useful_ratio", "dse.infeasible_s", "dse.config_p50_ms",
    "dse.config_tail_ms", "experiments.table1.self_s",
    "experiments.figure3.self_s", "experiments.figure4.self_s",
    "experiments.figure5a.self_s", "experiments.figure5b.self_s",
    "experiments.anchors.self_s", "sim.loop.self_s", "sim.events",
    "sim.events_per_request", "sim.us_per_event", "sim.cancels",
    "sim.interrupts", "serve.workload.self_s", "serve.engine.self_s",
    "serve.fleet.self_s", "serve.fleet.assign.calls",
    "serve.power.set_draw.calls", "serve.scheduler.calls",
    "serve.scheduler.self_s", "serve.scheduler.batch_mean",
    "serve.book.calls", "serve.book.miss_ratio", "serve.book.build_s",
    "serve.resilience.calls", "serve.resilience.self_s",
    "serve.retry_amplification", "serve.hedge_waste_ratio",
    "serve.report.self_s", "trace.coverage", "trace.overhead",
    # The two outcome metrics that read 0 when all is well, so they are
    # reported per layer rather than end to end; see README.md.
    "error_rate", "anchors_missed",
}
#: Per-layer metrics the parent adds from the untraced repetitions.
PARENT_METRICS = {"setup.import_s", "setup.inputs_s", "error_rate"}


class FakeClock:
    """A clock that only moves when the synthetic program says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_a_synthetic_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    calls = {}

    def leaf(cost):
        clock.now += cost

    def middle():
        clock.now += 1.0
        calls["leaf"](2.0)
        clock.now += 0.5
        calls["leaf"](3.0)

    def recurse(depth):
        clock.now += 1.0
        if depth:
            calls["recurse"](depth - 1)

    def top():
        clock.now += 4.0
        calls["middle"]()
        calls["recurse"](2)
        clock.now += 0.25

    for name, fn in (("leaf", leaf), ("middle", middle),
                     ("recurse", recurse), ("top", top)):
        calls[name] = tracer.wrap(fn, name, name)
    with tracer.span("root") as root:
        calls["top"]()

    assert tracer.self_times() == {"root": 0.0, "top": 4.25, "middle": 1.5,
                                   "leaf": 5.0, "recurse": 3.0}
    assert tracer.duration(root) == 13.75
    assert tracer.outer_total("recurse") == 3.0
    assert tracer.counts == {"leaf": 2, "middle": 1, "recurse": 3, "top": 1}
    assert self_times(["a", "b", "b"], [0.0, 1.0, 2.0], [10.0, 2.0, 5.0],
                      [-1, 0, 0]) == {"a": 6.0, "b": 4.0}


def test_repeat_keys_and_count_only_wrappers():
    tracer = Tracer()
    square = tracer.wrap(lambda x: x * x, None, "square",
                         key=lambda x: x)
    assert [square(x) for x in (2, 3, 2, 2)] == [4, 9, 4, 4]
    assert tracer.counts["square"] == 4 and tracer.repeats["square"] == 2
    assert tracer.names == []


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(50) == 50.0
    assert tail_percentile(10) == 0.0


def _wrappers_left():
    """Every program function or method still carrying a wrapper."""
    left = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            members = vars(value).items() if inspect.isclass(value) else ()
            for label, member in [(attr, value), *members]:
                fn = getattr(member, "__func__", member)
                if inspect.isfunction(fn) \
                        and getattr(fn, "__perfbench_wrapper__", False):
                    left.append(f"{name}.{attr}.{label}")
    return left


def test_wrappers_are_gone_after_a_traced_run():
    workload = WORKLOADS["paper_repro"]
    workload.load()
    tracer = Tracer()
    assert install(tracer) == []
    patches = tracer.patches
    assert len(patches) > 50 and _wrappers_left()
    try:
        with tracer.span("workload.paper_repro") as root:
            traced = workload.run(None)
    finally:
        tracer.uninstall()
    assert all(vars(target)[attr] is original
               for target, attr, original in patches)
    assert _wrappers_left() == []

    visited = set()

    def profile(frame, event, arg):
        if event == "call":
            visited.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        untraced = workload.run(None)
    finally:
        sys.setprofile(None)
    assert tracer_module.__file__ not in visited
    assert any("repro" in path for path in visited)

    fingerprints = [workload.check(None, output).fingerprint
                    for output in (traced, untraced)]
    assert fingerprints == [PINS["paper_repro"]] * 2
    outcome = workload.check(None, traced)
    metrics = layer_metrics(tracer, root, outcome.stats, 1.0)
    assert set(metrics) == set(PER_LAYER) - PARENT_METRICS
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["experiments.figure5a.self_s"] > 0
    assert metrics["anchors_missed"] == 0


def test_a_seam_the_program_lacks_is_skipped(monkeypatch):
    monkeypatch.setattr(seams, "SEAMS", (
        Seam("repro.no_such_module", None, ("run",), "gone"),
        Seam("repro.sim.engine", "Simulator", ("no_such_method",), "gone"),
        Seam("repro.sim.engine", "Simulator", ("run",), "sim.loop")))
    tracer = Tracer()
    missing = install(tracer)
    patched = len(tracer.patches)
    tracer.uninstall()
    assert missing == ["repro.no_such_module.run",
                       "repro.sim.engine.Simulator.no_such_method"]
    assert patched == 1


def _rep(fingerprint, units=200.0):
    return {"units": units, "wall_s": 1.0, "probe_s": REFERENCE_S,
            "setup_s": 0.2, "peak_rss_mb": 40.0, "fingerprint": fingerprint,
            "violations": []}


def test_times_cancel_the_host_speed_seen_by_the_probe():
    rep = _rep(PINS["dse_sweep"])
    slower_host = dict(rep, wall_s=1.5, setup_s=0.3,
                       probe_s=1.5 * REFERENCE_S)
    faster_program = dict(rep, wall_s=0.5, setup_s=0.1)
    for reps, throughput, setup in (([rep], 200.0, 0.2),
                                    ([slower_host], 200.0, 0.2),
                                    ([faster_program], 400.0, 0.1)):
        metrics = run.end_to_end(reps)
        assert metrics["throughput"] == pytest.approx(throughput)
        assert metrics["setup_s"] == pytest.approx(setup)


def test_fingerprint_mismatch_fails_every_operation():
    pin = PINS["dse_sweep"]
    forged = dict(pin, records_digest="0" * 16)
    attempted, failed, problems = run.judge(
        "dse_sweep", 7, [_rep(forged), _rep(forged), _rep(forged)], PINS)
    assert (attempted, failed / attempted, len(problems)) == (600, 1.0, 3)
    assert run.judge("dse_sweep", 7, [_rep(pin)] * 3, PINS)[1] == 0


def test_unpinned_seed_checks_agreement_errors_and_invariants():
    good = PINS["serve_drain"]
    odd = dict(good, report_digest="f" * 16)
    broken = dict(_rep(good), violations=["conservation"])
    reps = [_rep(good), _rep(good), _rep(odd), {"error": "boom"}, broken]
    attempted, failed, problems = run.judge("serve_drain", 99, reps, PINS)
    assert (attempted, failed, len(problems)) == (1000, 600, 3)


def _bench_copy(tmp_path, with_program=True):
    """A checkout holding the benchmark (and, optionally, the program)."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _run(checkout, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=checkout,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def test_forced_mismatch_reports_error_rate_one(tmp_path):
    checkout = _bench_copy(tmp_path)
    pins_file = checkout / "perfbench" / "pins.json"
    pins = json.loads(pins_file.read_text())
    pins["paper_repro"]["report_digest"] = "0" * 16
    pins_file.write_text(json.dumps(pins))
    done = _run(checkout, "--workload", "paper_repro", "--seed", "3",
                "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 4
    assert result["metrics"]["error_rate"] == {"value": 1.0, "unit": "ratio"}
    assert set(result["metrics"]) == set(PER_LAYER)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    checkout = _bench_copy(tmp_path, with_program=False)
    done = _run(checkout, "--workload", "serve_drain", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_names_match_the_specification():
    workloads = [w["name"] for w in SPEC["workloads"]]
    end_to_end = {m["name"]: m for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m for m in SPEC["per_layer"]}
    names = workloads + list(end_to_end) + list(per_layer)
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert set(workloads) == SPEC_WORKLOADS == set(WORKLOADS) - {"serve_drain"}
    assert set(end_to_end) == SPEC_END_TO_END == set(run.END_TO_END)
    assert set(per_layer) == SPEC_PER_LAYER | {
        "dse.config_tail_pct", "dse.config_samples", "trace.spans"}
    assert {name: m["unit"] for name, m in per_layer.items()} == PER_LAYER
    assert {name: m["unit"] for name, m in end_to_end.items()} \
        == run.END_TO_END
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values())
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())

