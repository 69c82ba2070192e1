"""Pareto frontiers, per-knob sensitivity and exports for DSE results.

The frontier itself is :func:`repro.records.pareto_frontier`, which the
fleet-composition planner shares; this module re-exports it with its
objectives and :func:`~repro.records.objective_vector`.

Sensitivity: for each knob that takes more than one value, group the
records that agree on every *other* knob and measure how much the
objective moves within each group when only that knob changes.  The
reported spread is that within-group movement (mean and max), plus its
size relative to the overall mean objective — a quick ranking of which
knob is worth an architect's attention.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.dse.space import KNOB_ORDER
from repro.records import (  # noqa: F401  (part of this module's API)
    MAXIMIZE,
    MINIMIZE,
    objective_vector,
    pareto_frontier,
)
from repro.units import ordered_sum

#: Default objective for sensitivity ranking.
DEFAULT_OBJECTIVE = "effective_speedup"


def sensitivity(records: List[Mapping[str, Any]],
                objective: str = DEFAULT_OBJECTIVE) -> Dict[str, Dict[str, Any]]:
    """Per-knob effect on *objective* across the feasible records.

    Records carry canonical configurations: every knob of
    :data:`~repro.dse.space.KNOB_ORDER` and no other.
    """
    feasible = [r for r in records if r.get("feasible")]
    if not feasible:
        return {}
    overall_mean = (ordered_sum([r["metrics"][objective] for r in feasible])
                    / len(feasible))
    # (knob, type, value) tells 1, 1.0 and True apart, as JSON text does.
    # Each record's items are built once, in KNOB_ORDER; a knob's groups
    # key on the items either side of it.
    keyed = [tuple([(knob, type(config[knob]), config[knob])
                    for knob in KNOB_ORDER])
             for config in (r["config"] for r in feasible)]
    summary: Dict[str, Dict[str, Any]] = {}
    for index, knob in enumerate(KNOB_ORDER):
        values = {items[index] for items in keyed}
        if len(values) < 2:
            continue
        groups: Dict[Tuple, Dict[Tuple, float]] = {}
        for record, items in zip(feasible, keyed):
            rest = items[:index] + items[index + 1:]
            groups.setdefault(rest, {})[items[index]] \
                = record["metrics"][objective]
        spreads = [max(group.values()) - min(group.values())
                   for group in groups.values() if len(group) >= 2]
        if not spreads:
            continue
        mean_spread = ordered_sum(spreads) / len(spreads)
        summary[knob] = {
            "values": len(values),
            "groups": len(spreads),
            "mean_spread": mean_spread,
            "max_spread": max(spreads),
            "relative_effect": (mean_spread / overall_mean
                                if overall_mean else 0.0),
        }
    return summary


# -- exports --------------------------------------------------------------------

def to_rows(result) -> List[Dict[str, Any]]:
    """Every evaluated configuration as one flat JSON row.

    One row per record — feasible or not, no Pareto filtering — in
    deterministic config-hash order.  Knobs spread to ``knob.<name>``
    columns and metrics to ``metric.<name>`` columns so the rows land
    in a dataframe or a ``repro.learn`` dataset without unpacking
    nested dicts.  This is the full-sweep export surface; callers never
    need to reach into :class:`~repro.dse.engine.ExplorationResult`
    internals.
    """
    rows: List[Dict[str, Any]] = []
    for record in sorted(result.records, key=lambda r: r["config_hash"]):
        row: Dict[str, Any] = {
            "config_hash": record["config_hash"],
            "model_version": record.get("model_version",
                                        result.model_version),
            "feasible": bool(record.get("feasible")),
            "error": record.get("error"),
        }
        for knob in KNOB_ORDER:
            row[f"knob.{knob}"] = record["config"][knob]
        for key, value in sorted((record.get("metrics") or {}).items()):
            row[f"metric.{key}"] = value
        rows.append(row)
    return rows


def to_json_dict(result, objective: str = DEFAULT_OBJECTIVE) -> Dict[str, Any]:
    """The machine-readable exploration document (the ``--json`` surface)."""
    return {
        "spec": result.spec,
        "model_version": result.model_version,
        "stats": result.stats.to_dict(),
        "pareto": [_frontier_entry(r) for r in pareto_frontier(result.records)],
        "sensitivity": sensitivity(result.records, objective),
        "records": result.records,
    }


def _frontier_entry(record: Mapping[str, Any]) -> Dict[str, Any]:
    metrics = record["metrics"]
    return {
        "config": dict(record["config"]),
        "config_hash": record["config_hash"],
        "effective_speedup": metrics["effective_speedup"],
        "energy_per_iteration_j": metrics["energy_per_iteration_j"],
        "total_power_w": metrics["total_power_w"],
    }


def render(result, objective: str = DEFAULT_OBJECTIVE) -> str:
    """Human-readable exploration summary: stats, frontier, sensitivity."""
    stats = result.stats
    lines = [
        f"explored {stats.configurations} configuration(s) with "
        f"{stats.jobs} job(s) in {stats.elapsed_s:.2f} s",
        f"  cache: {stats.cache_hits} hit(s), {stats.cache_misses} miss(es) "
        f"({stats.hit_rate:.0%} hit rate); "
        f"{stats.infeasible} infeasible point(s)",
        "",
        "Pareto frontier (max speedup, min energy/iter, min power):",
    ]
    frontier = pareto_frontier(result.records)
    if not frontier:
        lines.append("  (empty — no feasible points)")
    for record in frontier:
        metrics = record["metrics"]
        knobs = record["config"]
        label = (f"{knobs['kernel']} host={knobs['host_mhz']:g}MHz "
                 f"budget={knobs['budget_mw']:g}mW {knobs['spi_mode']} "
                 f"{knobs['link_tying']} x{knobs['cluster_size']} "
                 f"i{knobs['iterations']}"
                 + (" dbuf" if knobs["double_buffered"] else ""))
        lines.append(f"  {label:58s} speedup {metrics['effective_speedup']:7.2f}x  "
                     f"energy/iter {metrics['energy_per_iteration_j']:.3e} J  "
                     f"power {metrics['total_power_w'] * 1e3:6.2f} mW")
    knob_summary = sensitivity(result.records, objective)
    if knob_summary:
        lines.append("")
        lines.append(f"sensitivity of {objective} (within-group spread):")
        ranked = sorted(knob_summary.items(),
                        key=lambda item: -item[1]["relative_effect"])
        for knob, info in ranked:
            lines.append(f"  {knob:18s} {info['values']} value(s), "
                         f"mean spread {info['mean_spread']:9.3f}, "
                         f"max {info['max_spread']:9.3f} "
                         f"({info['relative_effect']:.0%} of mean)")
    return "\n".join(lines)
