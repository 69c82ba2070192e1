"""Table I: summary of the benchmark kernels.

Regenerates, for every kernel: description, field, input size, output
size, binary size and RISC ops — next to the paper-reported values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.isa.baseline import BaselineRiscTarget
from repro.kernels.registry import PAPER_TABLE1, all_kernels
from repro.units import format_bytes


@dataclass(frozen=True)
class Table1Row:
    """One measured row of Table I, with the paper values alongside."""

    name: str
    description: str
    field: str
    input_bytes: int
    output_bytes: int
    binary_bytes: int
    risc_ops: float
    paper_input_bytes: float
    paper_output_bytes: float
    paper_binary_bytes: float
    paper_risc_ops: float

    @property
    def risc_ops_ratio(self) -> float:
        """Measured over paper RISC ops."""
        return self.risc_ops / self.paper_risc_ops


def run() -> List[Table1Row]:
    """Compute Table I."""
    system = HeterogeneousSystem()
    baseline = BaselineRiscTarget()
    rows: List[Table1Row] = []
    for kernel in all_kernels():
        sizes = pricing.characterize(system, kernel)
        paper_in, paper_out, paper_bin, paper_ops = PAPER_TABLE1[kernel.name]
        rows.append(Table1Row(
            name=kernel.name,
            description=kernel.description,
            field=kernel.field,
            input_bytes=sizes.input_bytes,
            output_bytes=sizes.output_bytes,
            binary_bytes=sizes.binary_bytes,
            risc_ops=baseline.risc_ops(sizes.program),
            paper_input_bytes=paper_in * 1024,
            paper_output_bytes=paper_out,
            paper_binary_bytes=paper_bin * 1024,
            paper_risc_ops=paper_ops,
        ))
    return rows


def to_json_dict(rows: Optional[List[Table1Row]] = None) -> dict:
    """Machine-readable Table I (the ``--json`` surface)."""
    if rows is None:
        rows = run()
    return {
        "experiment": "table1",
        "rows": [
            {
                "name": row.name,
                "description": row.description,
                "field": row.field,
                "input_bytes": row.input_bytes,
                "output_bytes": row.output_bytes,
                "binary_bytes": row.binary_bytes,
                "risc_ops": row.risc_ops,
                "paper": {
                    "input_bytes": row.paper_input_bytes,
                    "output_bytes": row.paper_output_bytes,
                    "binary_bytes": row.paper_binary_bytes,
                    "risc_ops": row.paper_risc_ops,
                },
                "risc_ops_ratio": row.risc_ops_ratio,
            }
            for row in rows
        ],
    }


def render(rows: Optional[List[Table1Row]] = None) -> str:
    """Text rendering in the paper's column order (ours vs paper)."""
    if rows is None:
        rows = run()
    header = (f"{'Benchmark':16s} {'Field':18s} {'Input':>9s} {'Output':>9s} "
              f"{'Binary':>9s} {'RISC ops':>9s} | {'paper ops':>9s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:16s} {row.field:18s} "
            f"{format_bytes(row.input_bytes):>9s} "
            f"{format_bytes(row.output_bytes):>9s} "
            f"{format_bytes(row.binary_bytes):>9s} "
            f"{row.risc_ops / 1e6:8.2f}M | {row.paper_risc_ops / 1e6:8.2f}M")
    return "\n".join(lines)
