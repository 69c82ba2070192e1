"""Target base class: lowers loop-nest programs to cycles/instructions.

The lowering walk is shared by every target; behaviour differences come
entirely from the :class:`~repro.isa.costs.TargetCosts` table:

* **SIMD vectorization** — a loop marked ``vectorizable`` whose
  vector-marked ops are all SIMD-supported for the loop's ``simd_dtype``
  executes ``ceil(trips / lanes)`` times, with body cycles scaled by the
  lane overhead factor.  Non-vector ops inside are replicated per lane.
* **Hardware loops** — the innermost ``hardware_loops`` nesting levels
  lose their per-iteration compare/branch overhead.
* **Address folding** — foldable ADDR ops are free on targets with
  post-increment addressing.
* **Unaligned accesses** — memory ops flagged ``unaligned`` pay the
  target's penalty once the loop is vectorized (scalar sub-word accesses
  are always aligned).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.isa.costs import SimdSpec, TargetCosts
from repro.isa.program import Block, Loop, Program
from repro.isa.report import LoweredReport
from repro.isa.vop import MEMORY_KINDS, DType, OpKind

#: What the walk reads of one op kind on one target: its report key,
#: cycles, instructions and whether it touches memory.
OpCost = Tuple[str, float, float, bool]

#: A body's lowering before it is scaled and merged: cycles,
#: instructions, memory accesses and cycles per report key.
_Sums = Tuple[float, float, float, Dict[str, float]]

#: Every op kind with its report key and whether it touches memory.
_KINDS = tuple((kind, kind.value, kind in MEMORY_KINDS) for kind in OpKind)


class Target:
    """A concrete instruction-set target defined by a cost table.

    The table is resolved once, at construction: one :data:`OpCost` per
    op kind the table prices, and per SIMD element type the spec for
    loops with and without a multiply.  Treat ``costs`` as read-only;
    build a new target for a modified table.
    """

    def __init__(self, costs: TargetCosts):
        self.costs = costs
        cycles, instructions = costs.op_cycles, costs.op_instructions
        self._op_costs: Dict[OpKind, OpCost] = {
            kind: (key, cycles[kind], instructions[kind], memory)
            for kind, key, memory in _KINDS
            if kind in cycles and kind in instructions}
        self._simd_plans: Dict[DType, Tuple[SimdSpec, SimdSpec]] = {
            dtype: (spec, spec if spec.pure_alu_overhead is None else replace(
                spec, overhead_factor=spec.pure_alu_overhead))
            for dtype, spec in costs.simd.items() if spec.lanes > 1}

    @property
    def name(self) -> str:
        """Target name from the cost table."""
        return self.costs.name

    # -- public API ----------------------------------------------------------

    def lower(self, program: Program) -> LoweredReport:
        """Lower *program* and return its cycle/instruction report."""
        return self.lower_nodes(program.body)

    def lower_nodes(self, nodes) -> LoweredReport:
        """Lower a bare sequence of IR nodes (used by the OpenMP model to
        cost per-thread chunks and serial regions)."""
        cycles, instructions, memory, by_kind = self._lower_body(nodes, None)
        scale = self.costs.cycle_scale
        if scale != 1.0:
            cycles *= scale
            for key in by_kind:
                by_kind[key] *= scale
        return LoweredReport(target_name=self.costs.name, cycles=cycles,
                             instructions=instructions,
                             cycles_by_kind=by_kind, memory_accesses=memory)

    def vector_plan(self, loop: Loop) -> Optional[SimdSpec]:
        """The SIMD spec applied to *loop*, or ``None`` if the loop cannot
        be vectorized on this target.

        Loops whose vector ops contain no multiply use the lighter
        ``pure_alu_overhead`` factor: add/logic lanes never widen."""
        if not loop.vectorizable:
            return None
        plans = self._simd_plans.get(loop.simd_dtype)
        if plans is None:
            return None
        kinds = loop.vector_kinds
        if not kinds.issubset(self.costs.simd_kinds):
            return None
        multiply, pure_alu = plans
        if OpKind.MUL in kinds or OpKind.MAC in kinds:
            return multiply
        return pure_alu

    # -- lowering walk -------------------------------------------------------
    #
    # Each body accumulates into local sums in program order, exactly as
    # a sequence of ``LoweredReport.add``/``merge_scaled`` calls would:
    # every float is added in the same order, so the results are the
    # same bits.

    def _lower_body(self, nodes, simd: Optional[SimdSpec]) -> _Sums:
        cycles = instructions = memory = 0.0
        by_kind: Dict[str, float] = {}
        for node in nodes:
            lower = self._lower_ops if isinstance(node, Block) \
                else self._lower_loop
            cycles, instructions, memory = lower(
                node, simd, cycles, instructions, memory, by_kind)
        return cycles, instructions, memory, by_kind

    def _lower_loop(self, loop: Loop, simd: Optional[SimdSpec],
                    cycles: float, instructions: float, memory: float,
                    by_kind: Dict[str, float]) -> Tuple[float, float, float]:
        """Add *loop* to the running sums: its body times its trips, then
        its per-iteration overhead and its setup."""
        costs = self.costs
        plan = self.vector_plan(loop) if simd is None else None
        if plan is None:
            trips = loop.trips
            body_cycles, body_instructions, body_memory, body_by_kind = \
                self._lower_body(loop.body, simd)
            extra_cycles = extra_instructions = 0.0
        else:
            trips = math.ceil(loop.trips / plan.lanes)
            body_cycles, body_instructions, body_memory, body_by_kind = \
                self._lower_body(loop.body, plan)
            # The overhead factor applies only to this loop's direct
            # costs; nested loops were already lowered in the vector
            # context.  For simplicity (and because the paper's
            # vectorized loops are innermost or wrap only an innermost
            # reduction) we scale the whole body.
            factor = plan.overhead_factor
            body_cycles *= factor
            for key in body_by_kind:
                body_by_kind[key] *= factor
            extra_cycles = plan.extra_cycles_per_iter
            extra_instructions = plan.extra_instructions_per_iter

        cycles += body_cycles * trips
        instructions += body_instructions * trips
        memory += body_memory * trips
        for key, value in body_by_kind.items():
            by_kind[key] = by_kind.get(key, 0.0) + value * trips

        if loop.depth <= costs.hardware_loops:
            iter_cycles = iter_instructions = 0.0
            setup = costs.hwloop_setup_cycles
        else:
            iter_cycles = costs.loop_iter_cycles
            iter_instructions = costs.loop_iter_instructions
            setup = costs.loop_setup_cycles
        overhead = (iter_cycles + extra_cycles) * trips
        cycles += overhead
        instructions += (iter_instructions + extra_instructions) * trips
        if overhead:
            by_kind["loop_overhead"] = by_kind.get("loop_overhead", 0.0) \
                + overhead
        cycles += setup
        instructions += 1.0
        if setup:
            by_kind["loop_setup"] = by_kind.get("loop_setup", 0.0) + setup
        return cycles, instructions, memory

    def _lower_ops(self, block: Block, simd: Optional[SimdSpec],
                   cycles: float, instructions: float, memory: float,
                   by_kind: Dict[str, float]) -> Tuple[float, float, float]:
        """Add *block*'s ops to the running sums."""
        costs = self.costs
        op_costs = self._op_costs
        fold_addr = costs.addr_folded
        for op in block.ops:
            kind = op.kind
            if kind is OpKind.ADDR and op.foldable and fold_addr:
                continue  # folded into a post-increment addressing mode
            entry = op_costs.get(kind)
            if entry is None:
                # Missing from a table: its own lookup raises the error.
                entry = (kind.value, costs.cycles_for(kind),
                         costs.instructions_for(kind), kind in MEMORY_KINDS)
            key, op_cycles, op_instructions, is_memory = entry
            count = op.count
            if simd is not None and not op.vector:
                # Per-element work inside a vectorized loop replicates
                # per lane.
                count *= simd.lanes
            if is_memory:
                if op.unaligned and simd is not None:
                    op_cycles += costs.unaligned_penalty_cycles
                    op_instructions += costs.unaligned_penalty_instructions
                memory += count
            op_cycles *= count
            cycles += op_cycles
            instructions += op_instructions * count
            if op_cycles:
                by_kind[key] = by_kind.get(key, 0.0) + op_cycles
        return cycles, instructions, memory
