"""User-facing entry points of the OR10N-mini static analyzer.

``lint_source`` takes assembly text; ``lint_instructions`` takes an
already-assembled list (register presets become *entry_regs*).  Both
return an :class:`AnalysisReport` bundling the findings with the CFG
and stall data, renderable as text or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.errors import IsaError
from repro.isa.validate import Finding, Severity, render_findings
from repro.machine.assembler import AssemblyUnit, assemble_unit
from repro.machine.encoding import Instruction

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import ALL_REGISTERS
from repro.analysis.rules import check_targets, run_rules
from repro.analysis.stalls import stalls_by_block


@dataclass
class AnalysisReport:
    """Everything one lint run produced."""

    name: str
    findings: List[Finding]
    cfg: Optional[CFG] = None
    lines: Optional[Sequence[int]] = None
    #: Static load-use stall sites per basic block (block index -> count).
    stalls: Dict[int, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        """Only the ERROR-severity findings."""
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when no ERROR finding exists."""
        return not self.errors

    def render(self) -> str:
        """Human-readable report (shared pretty-printer)."""
        blocks = len(self.cfg.blocks) if self.cfg is not None else 0
        title = (f"{self.name}: {blocks} basic block(s), "
                 f"{sum(self.stalls.values())} static stall site(s)")
        return render_findings(self.findings, title=title)

    def to_json(self) -> str:
        """Machine-readable report."""
        payload = {
            "name": self.name,
            "ok": self.ok,
            "blocks": len(self.cfg.blocks) if self.cfg is not None else 0,
            "stall_sites": sum(self.stalls.values()),
            "findings": [
                {
                    "code": f.code,
                    "severity": f.severity.value,
                    "location": f.location,
                    "line": f.line,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }
        return json.dumps(payload, indent=2)

    def raise_on_error(self) -> "AnalysisReport":
        """Strict mode: raise :class:`IsaError` when any ERROR exists."""
        if not self.ok:
            raise IsaError(
                f"program {self.name!r} failed static analysis: "
                + "; ".join(str(f) for f in self.errors))
        return self


def lint_instructions(program: Sequence[Instruction],
                      name: str = "program",
                      lines: Optional[Sequence[int]] = None,
                      entry_regs: FrozenSet[int] = frozenset(),
                      exit_live: FrozenSet[int] = ALL_REGISTERS
                      ) -> AnalysisReport:
    """Analyze an assembled instruction list."""
    findings = check_targets(program, lines)
    if any(f.severity is Severity.ERROR for f in findings):
        # No CFG exists for a program with out-of-bounds edges.
        return AnalysisReport(name=name, findings=findings, lines=lines)
    cfg = build_cfg(program)
    findings = findings + run_rules(cfg, lines=lines, entry_regs=entry_regs,
                                    exit_live=exit_live)
    return AnalysisReport(name=name, findings=findings, cfg=cfg,
                          lines=lines, stalls=stalls_by_block(cfg))


def lint_unit(unit: AssemblyUnit,
              name: str = "program",
              entry_regs: FrozenSet[int] = frozenset(),
              exit_live: FrozenSet[int] = ALL_REGISTERS) -> AnalysisReport:
    """Analyze an :class:`~repro.machine.assembler.AssemblyUnit`."""
    return lint_instructions(unit.instructions, name=name, lines=unit.lines,
                             entry_regs=entry_regs, exit_live=exit_live)


def lint_source(source: str,
                name: str = "program",
                entry_regs: FrozenSet[int] = frozenset(),
                exit_live: FrozenSet[int] = ALL_REGISTERS
                ) -> AnalysisReport:
    """Assemble *source* and analyze it with line-accurate findings."""
    return lint_unit(assemble_unit(source), name=name,
                     entry_regs=entry_regs, exit_live=exit_live)


def lint_builtin_programs(cores: int = 4) -> List[AnalysisReport]:
    """Lint every built-in machine program, in registry order.

    Each :data:`~repro.machine.programs.BUILTIN_PROGRAMS` entry is
    linted against its own ``exit_live``.  Each
    :data:`~repro.machine.parallel.PARALLEL_PROGRAMS` entry is linted,
    then run through the SPMD concurrency analysis on *cores* cores,
    with those findings appended to its report.  ``repro lint
    --all-builtin`` and the ``analysis`` bench suite both run this pass.
    """
    from repro.analysis.concurrency import analyze_spmd
    from repro.machine.parallel import PARALLEL_PROGRAMS
    from repro.machine.programs import BUILTIN_PROGRAMS

    reports = [
        lint_source(program.source, name=program.name,
                    entry_regs=program.entry_regs,
                    exit_live=program.exit_live
                    if program.exit_live is not None else ALL_REGISTERS)
        for program in BUILTIN_PROGRAMS.values()]
    for parallel in PARALLEL_PROGRAMS.values():
        unit = parallel.unit
        report = lint_instructions(unit.instructions, name=parallel.name,
                                   lines=unit.lines,
                                   entry_regs=parallel.entry_regs)
        report.findings.extend(analyze_spmd(
            unit.instructions, cores=cores, presets=parallel.presets(cores),
            lines=unit.lines, dma_out=parallel.dma_out).findings)
        reports.append(report)
    return reports
