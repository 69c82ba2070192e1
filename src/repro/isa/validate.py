"""Static validation of kernel loop-nest programs.

A linter for kernel authors: checks the structural invariants the rest
of the stack assumes but cannot always enforce at construction time.
Returns findings rather than raising, so it can report everything at
once; ``strict`` mode turns any ERROR finding into an exception.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import IsaError
from repro.isa.program import Block, Loop, Program
from repro.isa.vop import MEMORY_KINDS, OpKind


class Severity(enum.Enum):
    """Finding severities."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One validation finding.

    ``code`` identifies the rule that fired — ``VPnnn`` for the
    loop-nest IR checks in this module, ``ORnnn`` for the machine-level
    analyzer in :mod:`repro.analysis.rules`.  ``line`` is the 1-based
    source line for findings produced from assembled text, ``None``
    when no source mapping exists.
    """

    severity: Severity
    location: str
    message: str
    code: str = ""
    line: Optional[int] = None

    def __str__(self) -> str:
        prefix = f"{self.code} " if self.code else ""
        where = self.location
        if self.line is not None:
            where = f"line {self.line} ({self.location})"
        return f"{prefix}[{self.severity.value}] {where}: {self.message}"


def render_findings(findings: Iterable[Finding],
                    title: str = "") -> str:
    """Pretty-print *findings*, errors first, as one text block.

    Shared by the IR validator and the machine-code linter so both
    surfaces read identically in the CLI.
    """
    ordered = sorted(
        findings,
        key=lambda f: (-list(Severity).index(f.severity),
                       f.line if f.line is not None else -1))
    lines = []
    if title:
        lines.append(title)
    if not ordered:
        lines.append("  no findings")
        return "\n".join(lines)
    counts = {severity: 0 for severity in Severity}
    for finding in ordered:
        counts[finding.severity] += 1
        lines.append(f"  {finding}")
    summary = ", ".join(f"{count} {severity.value}(s)"
                        for severity, count in counts.items() if count)
    lines.append(f"  -- {summary}")
    return "\n".join(lines)


def validate_program(program: Program, strict: bool = False) -> List[Finding]:
    """Validate *program*; raises :class:`IsaError` in strict mode when
    any ERROR-severity finding exists."""
    findings: List[Finding] = []
    _check_top_level(program, findings)
    _check_loops(program, findings)
    _check_footprints(program, findings)
    if strict:
        errors = [f for f in findings if f.severity is Severity.ERROR]
        if errors:
            raise IsaError(
                f"program {program.name!r} failed validation: "
                + "; ".join(str(f) for f in errors))
    return findings


def _check_top_level(program: Program, findings: List[Finding]) -> None:
    if not program.body:
        findings.append(Finding(Severity.ERROR, program.name,
                                "program has no body", code="VP001"))
    if not program.parallel_loops():
        findings.append(Finding(
            Severity.WARNING, program.name,
            "no top-level parallel loop: the kernel cannot use the team",
            code="VP002"))
    # Nested parallel loops are silently ignored by the OpenMP model.
    top = set(id(node) for node in program.body)
    for node in program.walk():
        if isinstance(node, Loop) and node.parallelizable \
                and id(node) not in top:
            findings.append(Finding(
                Severity.ERROR, node.name or "loop",
                "parallelizable loop is nested; only top-level loops are "
                "split across the team", code="VP003"))


def _check_loops(program: Program, findings: List[Finding]) -> None:
    for node in program.walk():
        if not isinstance(node, Loop):
            continue
        location = node.name or "loop"
        if node.trips == 0:
            findings.append(Finding(Severity.WARNING, location,
                                    "zero-trip loop costs only setup",
                                    code="VP004"))
        if node.vectorizable:
            ops = _vector_ops(node)
            if not ops:
                findings.append(Finding(
                    Severity.ERROR, location,
                    "vectorizable loop contains no vector-marked ops",
                    code="VP005"))
            elif all(op.dtype.bits >= 32 for op in ops):
                findings.append(Finding(
                    Severity.WARNING, location,
                    "vectorizable loop has only 32-bit ops: no target "
                    "will pack it", code="VP006"))
        has_memory = any(op.kind in MEMORY_KINDS
                         for op in _direct_ops(node))
        has_addr = any(op.kind is OpKind.ADDR and op.foldable
                       for op in _direct_ops(node))
        if has_addr and not has_memory and node.depth == 1:
            findings.append(Finding(
                Severity.WARNING, location,
                "foldable ADDR ops without memory ops in the same body: "
                "post-increment folding may be optimistic", code="VP007"))


def _check_footprints(program: Program, findings: List[Finding]) -> None:
    for name, value in (("input_bytes", program.input_bytes),
                        ("output_bytes", program.output_bytes),
                        ("const_bytes", program.const_bytes),
                        ("buffer_bytes", program.buffer_bytes)):
        if value < 0:
            findings.append(Finding(Severity.ERROR, program.name,
                                    f"negative {name}", code="VP008"))
    counts = program.dynamic_op_counts()
    loads = counts.get(OpKind.LOAD, 0.0)
    if program.input_bytes and loads == 0:
        findings.append(Finding(
            Severity.WARNING, program.name,
            "program declares input bytes but performs no loads",
            code="VP009"))
    stores = counts.get(OpKind.STORE, 0.0)
    if program.output_bytes and stores == 0:
        findings.append(Finding(
            Severity.WARNING, program.name,
            "program declares output bytes but performs no stores",
            code="VP010"))


def _vector_ops(loop: Loop):
    ops = []
    stack = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, Block):
            ops.extend(op for op in node.ops
                       if op.vector and op.kind is not OpKind.ADDR)
        else:
            stack.extend(node.body)
    return ops


def _direct_ops(loop: Loop):
    for node in loop.body:
        if isinstance(node, Block):
            yield from node.ops
