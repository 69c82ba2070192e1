"""Cycle breakdown: where each target spends its time, per benchmark.

A drill-down companion to Figure 4: for every kernel and target, the
share of cycles in memory accesses, multiply/accumulate arithmetic,
other ALU work, software-emulated 64-bit operations, and loop control.
It makes the *mechanisms* behind the speedups visible — e.g. hog's wide
ops dominating OR10N but not the M4, or loop overhead vanishing under
hardware loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import pricing
from repro.isa.cortexm import CortexM3Target, CortexM4Target
from repro.isa.or10n import Or10nTarget
from repro.isa.target import Target
from repro.isa.vop import OpKind
from repro.kernels.registry import all_kernels

#: Cycle categories and the op kinds they aggregate.
CATEGORIES: Dict[str, tuple] = {
    "memory": (OpKind.LOAD.value, OpKind.STORE.value),
    "mul/mac": (OpKind.MUL.value, OpKind.MAC.value),
    "wide64": (OpKind.MUL64.value, OpKind.ADD64.value,
               OpKind.MAC64.value, OpKind.SHIFT64.value),
    "loop": ("loop_overhead", "loop_setup"),
}


@dataclass(frozen=True)
class BreakdownRow:
    """Cycle shares of one (kernel, target) pair."""

    kernel: str
    target: str
    total_cycles: float
    shares: Dict[str, float]    #: category -> fraction of cycles

    def share(self, category: str) -> float:
        """One category's fraction (0 if absent)."""
        return self.shares.get(category, 0.0)


def _categorize(cycles_by_kind: Dict[str, float],
                total: float) -> Dict[str, float]:
    shares: Dict[str, float] = {}
    accounted = 0.0
    for category, keys in CATEGORIES.items():
        value = sum(cycles_by_kind.get(key, 0.0) for key in keys)
        shares[category] = value / total if total else 0.0
        accounted += value
    shares["other-alu"] = max(0.0, (total - accounted) / total) if total else 0.0
    return shares


def run(targets: Optional[Dict[str, Target]] = None) -> List[BreakdownRow]:
    """Compute the breakdown grid."""
    if targets is None:
        targets = {
            "or10n": Or10nTarget(),
            "cortex-m4": CortexM4Target(),
            "cortex-m3": CortexM3Target(),
        }
    rows: List[BreakdownRow] = []
    for kernel in all_kernels():
        program = pricing.program(kernel)
        for name, target in targets.items():
            report = target.lower(program)
            rows.append(BreakdownRow(
                kernel=kernel.name,
                target=name,
                total_cycles=report.cycles,
                shares=_categorize(report.cycles_by_kind, report.cycles)))
    return rows


def render(rows: Optional[List[BreakdownRow]] = None,
           target: str = "or10n") -> str:
    """Text table for one target."""
    if rows is None:
        rows = run()
    selected = [row for row in rows if row.target == target]
    categories = list(CATEGORIES) + ["other-alu"]
    header = f"{'kernel':16s} {'cycles':>12s} |" + "".join(
        f" {c:>9s}" for c in categories)
    lines = [f"cycle breakdown on {target}:", header, "-" * len(header)]
    for row in selected:
        cells = "".join(f" {row.share(c):9.1%}" for c in categories)
        lines.append(f"{row.kernel:16s} {row.total_cycles:12,.0f} |{cells}")
    return "\n".join(lines)
