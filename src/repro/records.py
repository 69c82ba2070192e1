"""Content hashes and Pareto frontiers of result records.

A result record is a mapping with a ``config``, its ``config_hash``, a
``feasible`` flag and a ``metrics`` mapping.  The design-space
exploration (:mod:`repro.dse`) and the fleet-composition planner
(:mod:`repro.capacity.planner`) both produce them; these two helpers
serve both.  They live outside either package, so the planner imports
them without running ``repro/dse/__init__.py``, which loads numpy with
the DSE's evaluator.  :mod:`repro.dse` re-exports both.

Pareto semantics: over the *feasible* records, maximize end-to-end
speedup while minimizing energy per iteration and total system power
(or the caller's own objectives).  A point survives if no other point
is at least as good on every objective and strictly better on one.
Ties collapse — of several points with identical objective vectors,
the one whose configuration hash sorts first represents the group — so
the frontier is a canonical, order-independent set.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Tuple

#: Objectives to maximize / minimize, as keys into ``record["metrics"]``.
MAXIMIZE: Tuple[str, ...] = ("effective_speedup",)
MINIMIZE: Tuple[str, ...] = ("energy_per_iteration_j", "total_power_w")


def config_hash(canonical: Mapping[str, Any]) -> str:
    """Stable content hash of a canonical configuration."""
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
