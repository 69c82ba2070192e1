"""Harness: calibration sensitivity of the headline anchors."""

from repro.experiments import sensitivity

from .conftest import save_result


def test_sensitivity():
    rows = sensitivity.run()
    save_result("sensitivity", sensitivity.render(rows))

    # The structural conclusions survive +/-25% perturbation of any
    # single knob: PULP stays >1 order of magnitude above the <5 GOPS/W
    # MCU cloud, and the integer architectural speedup stays > 1.8x.
    for row in rows:
        assert row.peak_efficiency > 150
        assert row.arch_speedup > 1.8
