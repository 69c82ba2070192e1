"""Harness: regenerate Figure 5a (speedup within the 10 mW envelope)."""

from repro.experiments import figure5, report

from .conftest import assert_anchors, save_result


def test_figure5a():
    result = figure5.run_figure5a()
    save_result("figure5a", figure5.render_figure5a(result))
    assert_anchors(report._check_figure5a(result))
