"""The command-line contracts, run through the real ``python -m repro``, one row
``(command, exit code, check)`` each.  Exit 1 must print one stderr line naming the command.
A JSON row runs under ``PYTHONHASHSEED`` 0 and 1, which must print and write (``--out``) the
same bytes, ``WALL_CLOCK`` aside.  A string check must be in the output (exit 1: stderr); a
function check gets the parsed JSON."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import build_parser
from tests.invariants import assert_served

SRC = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
INPUTS = {"plan-one.json": "[1]", "plan-empty.json": "[]", "outage.json": json.dumps({
    "name": "total-outage", "events": [{"kind": "crash-storm", "nodes": 4, "start_s": 0.1,
                                        "window_s": 0.1, "recover_s": 0.4}]})}
#: The only bytes two runs may differ in: dse's and capacity validate's wall-clock seconds.
WALL_CLOCK = re.compile(r'"elapsed_s": [^,\n]+|"timing": \{[^}]*\}')


def _acceptance(report):
    assert report["completed"] >= 500
    assert_served(report, 600)                 # serve's default --requests


def _pinned_campaign(campaign):
    assert (campaign["verdict"], len(campaign["scenarios"])) == ("slo-exhausted", 5)
    for run in campaign["scenarios"]:
        assert run["scorecard"]["availability"] == 1.0, run["scenario"]
        assert_served(run["scorecard"], 240)   # the pinned request count
    storm = next(run["scorecard"] for run in campaign["scenarios"] if "storm" in run["scenario"])
    assert storm["slo_worst_burn"] >= 1.0 and storm["requeues"] > 0, storm


def _learned_beats_dummy(evaluation):
    tree, dummy = evaluation["models"]["tree"], evaluation["models"]["dummy"]
    assert tree["top1_accuracy"] > dummy["top1_accuracy"]
    # The dummy meets the energy ceiling at 0.0; the label is the EDP-best configuration.
    assert tree["mean_energy_regret"] <= 0.15
    assert tree["mean_edp_regret"] < dummy["mean_edp_regret"]


def _predicted_serve(report):
    assert report["policy"] == "predicted"
    assert_served(report, 120)


def _nan_rows(parser, path=()):
    """A row per float option of every command: ``nan`` exits 1."""
    needed = [f"{action.option_strings[0]} x" for action in parser._actions
              if action.required and action.option_strings]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from _nan_rows(subparser, path + (name,))
        elif action.type is float:
            flag = action.option_strings[0]
            yield " ".join([*path, *needed, flag, "nan"]), 1, f"{flag} must be a number, got nan"


BAD_INPUT = [  # exit 1 with one line, never a traceback
    "capacity sweep --rates 50,abc", "capacity sweep --power-fraction -1",
    "serve --workload closed --clients 0 --requests 10",
    "serve --workload closed --clients 3 --requests 10",
    "chaos --workload closed --clients -2 --requests 10", "chaos --empty --requests 0",
    "chaos --plan plan-one.json",
    "chaos --plan plan-empty.json --serve-json plan-empty-serve.json",
    "trace matmul --out /missing/t.json", "learn dataset --tiny --out /missing/d.json",
    "learn train --dataset D --out /missing/m.json"]
ROWS = [
    ("serve --nodes 4 --policy power-cap --faults on --seed 7 --json", 0, _acceptance),
    ("serve --nodes 1 --arrival-rate 2000 --requests 120 --deadline-factor 2 --seed 3 "
     "--miss-threshold 0.01", 3, "missed"),
    ("chaos --json", 3, _pinned_campaign),
    ("chaos --plan outage.json --policy power-cap --arrival-rate 400 --requests 240 "
     "--max-batch 4", 4, "collapsed"),
    ("faults --scenarios 11 --seed 1 --json", 3, None),
    ("dse --kernel 'matmul,hog,cnn (approx)' --host-mhz 2,4,8,16 --budget-mw 5,10 "
     "--spi single,quad --jobs 2 --json", 0, None),
    ("learn dataset --tiny --out ds.json --json", 0, None),
    ("learn train --dataset ds.json --out model.json --json", 0, None),
    ("learn eval --dataset ds.json --json", 0, _learned_beats_dummy),
    ("learn eval --dataset ds.json --max-regret 0.0 --json", 3, None),
    ("serve --scheduler predicted --model model.json --nodes 2 --requests 120 --seed 7 "
     "--json", 0, _predicted_serve),
    ("serve --scheduler predicted --requests 40", 1, "needs --model"),
    ("capacity validate --json", 0, None),
    ("capacity validate --tolerance 0.0001", 3, None),
    ("capacity plan --arrival-rate 300 --power-budget 40 --max-nodes 5 --json", 0, None),
    ("lint --all-builtin --strict", 0, None),
    ("lint --all-builtin --format sarif", 0, '"id": "OR014"'),   # the SPMD pass ran
    ("--help", 0, "usage: repro"),
    *[(command, 1, None) for command in BAD_INPUT],
    *[(f"capacity sweep --rates 1:{bad}:1", 1, "bad --rates") for bad in ("nan", "inf")],
    *[(f"{command} --arrival-rate inf", 1, "arrival rate must be finite")
      for command in ("serve", "chaos --empty", "capacity plan")],
    *[(f"{command} --requests 0 --duration inf", 1, "finite duration")
      for command in ("serve", "chaos --empty")],
    *[(f"bench --suites analysis {flags}", 1, "bench: cannot write")
      for flags in ("--no-write --profile /missing/p.json", "--out-dir plan-one.json/sub")],
    ("serve --policy power-cap --power-budget 0.5 --requests 20", 1, "power budget 0.500 mW"),
    ("chaos --empty --resilience on --policy power-cap --power-budget 0.5 --requests 30", 1,
     "power budget 0.500 mW"),
    *_nan_rows(build_parser()),
]
JSON_ROWS = [row[0] for row in ROWS if {"--json", "--format"} & set(row[0].split())]


def _run(command, cwd, hash_seed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed),
               PYTHONPYCACHEPREFIX=str(cwd.parent / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # compile once, not once per row
    done = subprocess.run([sys.executable, "-m", "repro", *shlex.split(command)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{(command, hash seed): (exit code, stdout, stderr)}, and the two directories."""
    dirs = [tmp_path_factory.mktemp(f"hashseed{seed}") for seed in (0, 1)]
    for cwd in dirs:
        for name, text in INPUTS.items():
            (cwd / name).write_text(text)
    # A chain per seed runs the JSON rows in order (one may read a file an earlier one
    # wrote); every other row runs alone.
    chains = [[(command, seed) for command in JSON_ROWS] for seed in (0, 1)]
    chains += [[(row[0], 0)] for row in ROWS if row[0] not in JSON_ROWS]

    def run_chain(chain):
        return [((command, seed), _run(command, dirs[seed], seed)) for command, seed in chain]

    with ThreadPoolExecutor(max_workers=2) as pool:
        return {key: run for chain in pool.map(run_chain, chains) for key, run in chain}, dirs


@pytest.mark.parametrize("command, code, check", ROWS, ids=[row[0] for row in ROWS])
def test_contract(command, code, check, runs):
    (status, out, err), (seed0, seed1) = runs[0][command, 0], runs[1]
    assert status == code, err[-2000:]
    if code == 1:
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert re.match(rf"{re.escape(command.split()[0])}[: ]", err), err
        out = err
    if command in JSON_ROWS:
        rerun_status, rerun, _ = runs[0][command, 1]
        assert (rerun_status, WALL_CLOCK.sub("", rerun)) == (status, WALL_CLOCK.sub("", out))
        for path in re.findall(r"--out (\S+)", command):
            assert (seed1 / path).read_bytes() == (seed0 / path).read_bytes(), path
    if isinstance(check, str):
        assert check in out
    elif check is not None:
        check(json.loads(out))
