"""The serving invariants every run must keep, checked in one place."""

from repro.serve.metrics import ServeReport


def assert_served(report, requested: int) -> None:
    """Each of *requested* requests completed or dropped (``arrivals`` is that very sum),
    power peak within a set budget, no negative wait, latency or energy.  *report* is a
    ServeReport, its JSON payload or a chaos scorecard."""
    if isinstance(report, ServeReport):
        assert all(min(record.wait_s, record.latency_s, record.energy_j) >= 0
                   for record in report.records)
        assert min(report.fleet_energy_j, *report.node_energy_j.values()) >= 0
        report = report.metrics()
    assert report["completed"] + report["dropped"] == requested, report
    budget = report.get("power_budget_mw")
    assert budget is None or report["power_peak_mw"] <= budget * (1 + 1e-6)
    assert min(value for key, value in report.items() if any(
        word in key for word in ("wait", "latency", "energy"))) >= 0, report
