"""Harness: regenerate Figure 4 (architectural + parallel speedups)."""

from repro.experiments import figure4, report

from .conftest import assert_anchors, save_result


def test_figure4():
    result = figure4.run()
    save_result("figure4", figure4.render(result))
    assert_anchors(report._check_figure4(result))
