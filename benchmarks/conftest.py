"""Shared helpers for the paper harness.

Every harness test regenerates one of the paper's tables/figures (or a
supplementary one) once, checks the rendered text against its committed
record in ``results/`` next to this directory, so a change that moves
any reproduced number fails here, and asserts its claims: a figure of
the reproduction report asserts the report's own checks
(:func:`assert_anchors`).  Tier-1 collects this directory.
"""

from __future__ import annotations

import difflib
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def assert_anchors(checks) -> None:
    """Fail on every report check whose values leave its open band,
    naming the values, the band and the margin."""
    failed = [check for check in checks if not check.passed]
    if failed:
        pytest.fail("\n".join(
            f"{check.claim}: values {check.values} not all inside the open "
            f"band {check.band} (margin {check.margin:+.1%})"
            for check in failed))


def save_result(name: str, text: str) -> None:
    """Echo one rendered table/figure and check it against its record
    ``results/<name>.txt`` (see :func:`check_record`)."""
    path = RESULTS_DIR / f"{name}.txt"
    print(f"\n=== {name} (recorded in {path}) ===")
    print(text)
    check_record(path, text + "\n")


def check_record(path: pathlib.Path, rendered: str) -> None:
    """Check this run's *rendered* text against its committed record.

    A rendering that differs from *path* by one byte fails, with the
    diff.  A missing record is written from this run, which fails until
    the file is committed; to re-record a deliberate change, delete the
    file and run again.
    """
    if not path.exists():
        path.write_text(rendered, encoding="utf-8")
        pytest.fail(f"{path.name} had no committed record; this run's "
                    f"rendering was written there, commit it")
    recorded = path.read_text(encoding="utf-8")
    if rendered != recorded:
        diff = "".join(difflib.unified_diff(
            recorded.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            f"{path.name} (committed)", f"{path.name} (this run)"))
        pytest.fail(f"{path.name} differs from its committed record:\n"
                    f"{diff}")
