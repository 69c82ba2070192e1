"""Harness: regenerate Figure 5b (efficiency vs iterations/offload)."""

from repro.experiments import figure5, report
from repro.kernels.matmul import MatmulKernel
from repro.units import mhz

from .conftest import assert_anchors, save_result


def test_figure5b():
    result = figure5.run_figure5b()
    save_result("figure5b", figure5.render_figure5b(result))
    assert_anchors(report._check_figure5b(result))


def test_figure5b_transfer_bound_counterpoint():
    """The same experiment on matmul: 12 kB of data per iteration makes
    the link the bottleneck at every slow operating point."""
    result = figure5.run_figure5b(MatmulKernel("char"))
    save_result("figure5b_matmul", figure5.render_figure5b(result))
    # Transfer-bound: even 256 iterations cannot recover full efficiency
    # at the slow host clocks without double buffering.
    assert result.plateau(mhz(8), double_buffered=False) < 0.5
    assert result.plateau(mhz(26), double_buffered=True) > \
        result.plateau(mhz(26), double_buffered=False)
