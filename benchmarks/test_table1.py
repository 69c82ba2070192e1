"""Harness: regenerate Table I (benchmark kernel summary)."""

from repro.experiments import report, table1
from repro.experiments.store import save_results

from .conftest import RESULTS_DIR, assert_anchors, check_record, save_result


def test_table1(tmp_path):
    rows = table1.run()
    save_result("table1", table1.render(rows))
    document = tmp_path / "table1.json"
    save_results(rows, document, metadata={"experiment": "table1"})
    check_record(RESULTS_DIR / "table1.json",
                 document.read_text(encoding="utf-8"))
    assert_anchors(report._check_table1(rows))
