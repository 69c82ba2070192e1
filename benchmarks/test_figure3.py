"""Harness: regenerate Figure 3 (GOPS vs power, PULP vs MCUs)."""

from repro.experiments import figure3, report

from .conftest import assert_anchors, save_result


def test_figure3():
    result = figure3.run()
    save_result("figure3", figure3.render(result))
    assert_anchors(report._check_figure3(result))
