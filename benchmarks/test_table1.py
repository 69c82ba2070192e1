"""Benchmark: regenerate Table I (benchmark kernel summary)."""

import pytest

from repro.experiments import table1

from .conftest import check_record, save_result


def test_table1(benchmark, results_dir, tmp_path):
    rows = benchmark(table1.run)
    save_result(results_dir, "table1", table1.render(rows))
    from repro.experiments.store import save_results
    document = tmp_path / "table1.json"
    save_results(rows, document, metadata={"experiment": "table1"})
    check_record(results_dir / "table1.json",
                 document.read_text(encoding="utf-8"))

    by_name = {row.name: row for row in rows}
    # RISC-op anchors from the paper (hog is the documented deviation).
    assert by_name["matmul"].risc_ops == pytest.approx(2.4e6, rel=0.05)
    assert by_name["matmul (short)"].risc_ops == pytest.approx(2.4e6, rel=0.05)
    assert by_name["matmul (fixed)"].risc_ops == pytest.approx(2.7e6, rel=0.05)
    assert by_name["strassen"].risc_ops == pytest.approx(2.3e6, rel=0.05)
    assert by_name["svm (linear)"].risc_ops == pytest.approx(650e3, rel=0.08)
    assert by_name["svm (poly)"].risc_ops == pytest.approx(684e3, rel=0.08)
    assert by_name["svm (RBF)"].risc_ops == pytest.approx(781e3, rel=0.08)
    assert by_name["cnn"].risc_ops == pytest.approx(3.3e6, rel=0.08)
    assert by_name["cnn (approx)"].risc_ops == pytest.approx(2.6e6, rel=0.08)
    assert 0.6 * 31e6 < by_name["hog"].risc_ops < 1.1 * 31e6

    # I/O sizes match the paper exactly (within rounding of its kB units).
    for row in rows:
        assert row.input_bytes == pytest.approx(row.paper_input_bytes,
                                                rel=0.05)
        assert row.output_bytes == pytest.approx(row.paper_output_bytes,
                                                 rel=0.05)
