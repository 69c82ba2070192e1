"""Bench: the Figure-5b plateau matrix across all ten benchmarks.

The paper shows one benchmark's curves; this supplementary matrix shows
every kernel's serial-efficiency plateau per host clock, separating the
compute-dense kernels (cnn, hog, svm — high plateaus) from the
transfer-bound linear-algebra ones.
"""


from repro.experiments import figure5
from repro.kernels.registry import all_kernels
from repro.units import mhz

from .conftest import save_result

_FREQUENCIES = (mhz(2), mhz(8), mhz(26))


def test_figure5b_matrix():
    rows = {}
    for kernel in all_kernels():
        result = figure5.run_figure5b(
            kernel=kernel, host_frequencies=_FREQUENCIES,
            iteration_counts=(1, 32, 256))
        rows[kernel.name] = {
            frequency: result.plateau(frequency, double_buffered=False)
            for frequency in _FREQUENCIES}
    lines = ["serial-efficiency plateau (256 iterations/offload):",
             f"  {'kernel':16s}" + "".join(
                 f" {f / 1e6:5.0f}MHz" for f in _FREQUENCIES)]
    for name, row in rows.items():
        lines.append(f"  {name:16s}" + "".join(
            f" {row[f]:7.1%}" for f in _FREQUENCIES))
    save_result("figure5b_matrix", "\n".join(lines))

    # Compute-dense kernels approach full efficiency at the fast host;
    # the transfer-heavy matmuls stay link-bound there.
    assert rows["cnn"][mhz(26)] > 0.95
    assert rows["hog"][mhz(26)] > 0.8
    assert rows["matmul (short)"][mhz(26)] < 0.7
    # Every kernel degrades monotonically as the host (and the SPI
    # clock tied to it) slows down.
    for name, row in rows.items():
        assert row[mhz(2)] <= row[mhz(8)] <= row[mhz(26)], name
