"""Pareto frontiers, per-knob sensitivity and exports for DSE results.

Pareto semantics: over the *feasible* records, maximize end-to-end
speedup while minimizing energy per iteration and total system power.
A point survives if no other point is at least as good on every
objective and strictly better on one.  Ties collapse — of several
points with identical objective vectors, the one whose configuration
hash sorts first represents the group — so the frontier is a canonical,
order-independent set.

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
from repro.units import ordered_sum

#: Objectives to maximize / minimize, as keys into ``record["metrics"]``.
MAXIMIZE: Tuple[str, ...] = ("effective_speedup",)
MINIMIZE: Tuple[str, ...] = ("energy_per_iteration_j", "total_power_w")

#: Default objective for sensitivity ranking.
DEFAULT_OBJECTIVE = "effective_speedup"


def objective_vector(record: Mapping[str, Any],
                     maximize: Tuple[str, ...] = MAXIMIZE,
                     minimize: Tuple[str, ...] = MINIMIZE,
                     ) -> Tuple[float, ...]:
    """The record's objectives, sign-folded so larger is always better."""
    metrics = record["metrics"]
    return tuple([metrics[key] for key in maximize]
                 + [-metrics[key] for key in minimize])


def _dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    """Whether folded vector *a* Pareto-dominates *b*."""
    return all(x >= y for x, y in zip(a, b)) and a != b


def pareto_frontier(records: List[Mapping[str, Any]],
                    maximize: Tuple[str, ...] = MAXIMIZE,
                    minimize: Tuple[str, ...] = MINIMIZE,
                    ) -> List[Dict[str, Any]]:
    """The non-dominated feasible records, in canonical order.

    Objectives default to the offload-DSE triple (maximize speedup,
    minimize energy and power); callers with different metrics — the
    fleet-composition planner maximizes throughput while minimizing
    energy/request and p95 — pass their own *maximize*/*minimize* keys.

    Canonical order: the folded objective vector, best first, then
    ascending configuration hash — identical for serial, parallel and
    cached runs over the same space.  Ties collapse deterministically:
    of several points with identical objective vectors, the smallest
    configuration hash represents the group.

    One pass after a sort: each distinct vector keeps its first holder
    in hash order, and the vectors are visited in descending
    lexicographic order, where anything that dominates a vector comes
    before it.  A dominated vector is therefore dominated by a frontier
    point already found, so each is tested against the frontier alone.
    """
    holders: Dict[Tuple[float, ...], Mapping[str, Any]] = {}
    for record in sorted((r for r in records if r.get("feasible")),
                         key=lambda r: r["config_hash"]):
        holders.setdefault(objective_vector(record, maximize, minimize),
                           record)
    kept: List[Tuple[float, ...]] = []
    frontier = []
    for vector in sorted(holders, reverse=True):
        if any(_dominates(other, vector) for other in kept):
            continue
        kept.append(vector)
        frontier.append(dict(holders[vector]))
    return frontier


def sensitivity(records: List[Mapping[str, Any]],
                objective: str = DEFAULT_OBJECTIVE) -> Dict[str, Dict[str, Any]]:
    """Per-knob effect on *objective* across the feasible records."""
    feasible = [r for r in records if r.get("feasible")]
    if not feasible:
        return {}
    overall_mean = (ordered_sum([r["metrics"][objective] for r in feasible])
                    / len(feasible))
    # (knob, type, value) tells 1, 1.0 and True apart, as JSON text does.
    keyed = [{knob: (knob, type(value), value)
              for knob, value in sorted(r["config"].items())}
             for r in feasible]
    summary: Dict[str, Dict[str, Any]] = {}
    for knob in KNOB_ORDER:
        values = {items[knob] for items in keyed}
        if len(values) < 2:
            continue
        groups: Dict[Tuple, Dict[Tuple, float]] = {}
        for record, items in zip(feasible, keyed):
            rest = tuple(item for name, item in items.items() if name != knob)
            groups.setdefault(rest, {})[items[knob]] \
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
