"""Per-target cost tables.

Each target is parameterized by a :class:`TargetCosts` table: cycles and
machine instructions per VOp kind, loop-control costs, addressing-mode and
hardware-loop capabilities, and SIMD lane specifications.

The numeric values are *calibration parameters*.  They start from the
published microarchitectural facts (e.g. single-cycle ``MLA`` on the
Cortex-M4 vs two cycles on the M3, single-cycle TCDM loads on OR10N,
``UMLAL``-style native 64-bit accumulation on the M-series vs software
emulation on OR10N) and are tuned, as documented in DESIGN.md §4, so the
resulting *ratios* reproduce the paper's Figure 4 / Table I anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.isa.vop import DType, OpKind


@dataclass(frozen=True)
class SimdSpec:
    """SIMD capability for one element type.

    ``lanes`` iterations of a vectorizable loop pack into one pass whose
    body cycles are multiplied by ``overhead_factor`` (>= 1).  The factor
    models everything that keeps sub-word SIMD away from its ideal
    speedup: pack/unpack sequences, widening of products that do not fit
    the lane width (e.g. char x char products need 16 bits), horizontal
    reductions and occasional strided operands.
    """

    lanes: int
    overhead_factor: float = 1.0
    extra_cycles_per_iter: float = 0.0
    extra_instructions_per_iter: float = 0.0
    #: Overhead factor for loops whose vector ops contain no multiply:
    #: pure add/logic lanes never widen, so sub-word SIMD packs almost
    #: ideally there (used by strassen's submatrix addition passes).
    pure_alu_overhead: float = None

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ConfigurationError(f"lanes must be >= 1, got {self.lanes}")
        if self.overhead_factor < 1.0:
            raise ConfigurationError(
                f"overhead factor must be >= 1, got {self.overhead_factor}")
        if self.pure_alu_overhead is not None and self.pure_alu_overhead < 1.0:
            raise ConfigurationError(
                f"pure-ALU overhead must be >= 1, got {self.pure_alu_overhead}")

    @property
    def net_speedup(self) -> float:
        """Effective speedup over scalar execution of the loop body."""
        return self.lanes / self.overhead_factor


#: Op kinds a SIMD unit can pack (SHIFT is deliberately absent: neither
#: OR10N nor the M-series has a vector fixed-point renormalization, which
#: is exactly why the paper's fixed-point kernels cannot exploit SIMD).
DEFAULT_SIMD_KINDS: FrozenSet[OpKind] = frozenset({
    OpKind.LOAD, OpKind.STORE, OpKind.ADD, OpKind.SUB, OpKind.MUL,
    OpKind.MAC, OpKind.LOGIC, OpKind.CMP, OpKind.SELECT, OpKind.ABS,
    OpKind.MINMAX, OpKind.MOVE,
})


@dataclass(frozen=True)
class TargetCosts:
    """Complete cost table for one target."""

    name: str
    op_cycles: Mapping[OpKind, float]
    op_instructions: Mapping[OpKind, float]
    loop_iter_cycles: float
    loop_iter_instructions: float
    loop_setup_cycles: float
    hardware_loops: int = 0
    hwloop_setup_cycles: float = 0.0
    addr_folded: bool = False
    unaligned_penalty_cycles: float = 0.0
    unaligned_penalty_instructions: float = 0.0
    simd: Mapping[DType, SimdSpec] = field(default_factory=dict)
    simd_kinds: FrozenSet[OpKind] = DEFAULT_SIMD_KINDS
    #: Multiplier on total cycles modeling instruction-fetch stalls.  The
    #: MCU hosts execute from embedded flash with wait states (the ART
    #: cache hides only part of them), while PULP fetches from its shared
    #: I$ backed by on-chip SRAM; this factor captures that difference.
    cycle_scale: float = 1.0

    @cached_property
    def memo_key(self) -> Tuple:
        """Value identity of the table, built once per table: its fields,
        each mapping as the frozenset of its items, so two tables share a
        memo entry exactly when they are equal."""
        values = (getattr(self, item.name) for item in fields(self))
        return tuple(frozenset(value.items()) if isinstance(value, Mapping)
                     else value for value in values)

    def cycles_for(self, kind: OpKind) -> float:
        """Cycles for one instance of *kind*."""
        try:
            return self.op_cycles[kind]
        except KeyError:
            raise ConfigurationError(
                f"target {self.name!r} has no cycle cost for {kind}") from None

    def instructions_for(self, kind: OpKind) -> float:
        """Machine instructions for one instance of *kind*."""
        try:
            return self.op_instructions[kind]
        except KeyError:
            raise ConfigurationError(
                f"target {self.name!r} has no instruction cost for {kind}") from None

    def with_overrides(self, **changes) -> "TargetCosts":
        """A modified copy, for ablation studies."""
        return replace(self, **changes)


def _table(common: float, **overrides: float) -> Dict[OpKind, float]:
    table = {kind: common for kind in OpKind}
    for key, value in overrides.items():
        table[OpKind[key]] = value
    return table


def baseline_costs() -> TargetCosts:
    """The "RISC ops" reference: OR10N with every enhancement deactivated.

    A simple single-issue 5-stage pipeline with a reduced instruction set
    "comparable to that of the original MIPS" (paper, footnote 1).  The
    instruction counts of this target define the paper's RISC-op metric.
    """
    instructions = _table(
        1.0,
        MAC=2.0,       # no fused MAC: mul + add
        MUL64=4.0,     # mul-lo, mul-hi cross terms
        ADD64=4.0,     # add, carry compare, two high-word adds
        MAC64=6.0,     # wide product (2) + 64-bit accumulate (4)
        SHIFT64=3.0,   # two shifts + or
        DIV=32.0,      # software division loop
    )
    return TargetCosts(
        name="baseline-risc",
        op_cycles=dict(instructions),  # CPI = 1 on the simple pipeline
        op_instructions=instructions,
        loop_iter_cycles=2.0,
        loop_iter_instructions=2.0,
        loop_setup_cycles=2.0,
    )


def or10n_costs() -> TargetCosts:
    """OR10N: the PULP core with all enhancements enabled.

    Register-register MAC (1 cycle), two hardware loops (zero-overhead
    innermost iteration), post-increment addressing (folds induction
    updates into loads/stores), HW-supported unaligned accesses, and
    sub-word SIMD for char/short.  Wide 64-bit arithmetic remains
    software-emulated (this is what slows ``hog`` down relative to the
    M-series, which has UMLAL/SMLAL).

    Loads cost 2 cycles: the TCDM responds in a single cycle but the
    load-use delay slot stalls the tight kernel loops about once per
    load.  The char SIMD overhead factor is high because 8x8-bit products
    need 16-bit lanes, so multiplies/MACs run at half the nominal lane
    count plus pack/unpack work.
    """
    cycles = _table(
        1.0,
        LOAD=2.0,
        MAC=1.0,
        MUL64=2.0,
        ADD64=4.0,
        MAC64=6.0,
        SHIFT64=3.0,
        DIV=32.0,
    )
    instructions = _table(
        1.0,
        MUL64=2.0,
        ADD64=4.0,
        MAC64=6.0,
        SHIFT64=3.0,
        DIV=32.0,
    )
    return TargetCosts(
        name="or10n",
        op_cycles=cycles,
        op_instructions=instructions,
        loop_iter_cycles=2.0,
        loop_iter_instructions=2.0,
        loop_setup_cycles=1.0,
        hardware_loops=2,
        hwloop_setup_cycles=2.0,
        addr_folded=True,
        unaligned_penalty_cycles=0.0,
        simd={
            DType.I8: SimdSpec(lanes=4, overhead_factor=2.8,
                               pure_alu_overhead=1.15),
            DType.I16: SimdSpec(lanes=2, overhead_factor=1.5,
                                pure_alu_overhead=1.15),
        },
    )


def cortex_m4_costs() -> TargetCosts:
    """ARM Cortex-M4 with DSP extensions active.

    Single-cycle MLA, native 64-bit MAC (SMLAL/UMLAL), saturation (SSAT),
    hardware divide, pre/post-indexed addressing; loads cost ~1.5 cycles
    (2-cycle LDR partially pipelined with neighbours); taken branches
    refill the pipeline, charged on every loop iteration.

    No SIMD table: the paper's benchmarks are *fully portable C* and the
    ARM GCC 4.8 toolchain it uses does not auto-vectorize to the M4 DSP
    packing intrinsics (SXTB16/SMLAD), so the M4 advantage over the M3 is
    limited to the single-cycle MAC, the wide multiplies and saturation —
    which matches the small M3/M4 gap visible in Figure 4.

    ``cycle_scale`` models execution from embedded flash with wait states
    (partially hidden by the ART accelerator), which PULP does not pay as
    it fetches from on-chip SRAM through the shared I$.
    """
    cycles = _table(
        1.0,
        LOAD=1.5,
        MAC=1.0,
        MUL64=1.0,     # SMULL
        ADD64=2.0,     # ADDS + ADC
        MAC64=1.5,     # SMLAL (1-2 cycles)
        SHIFT64=2.0,
        DIV=6.0,       # SDIV, data-dependent 2..12
    )
    instructions = _table(1.0, ADD64=2.0, SHIFT64=2.0)
    return TargetCosts(
        name="cortex-m4",
        op_cycles=cycles,
        op_instructions=instructions,
        loop_iter_cycles=3.0,
        loop_iter_instructions=2.0,
        loop_setup_cycles=1.0,
        addr_folded=True,
        unaligned_penalty_cycles=1.0,
        simd={},
        cycle_scale=1.2,
    )


def cortex_m3_costs() -> TargetCosts:
    """ARM Cortex-M3: as the M4 but without the DSP extensions.

    MLA takes 2 cycles, long multiplies are multi-cycle, saturation needs
    a compare/select pair, and there is no sub-word SIMD.  The paper
    estimated M3 numbers by disabling all M4-specific flags on the
    STM32-L476, which corresponds exactly to dropping the SIMD table and
    de-rating the multiply/accumulate costs.
    """
    cycles = _table(
        1.0,
        LOAD=1.5,
        MAC=2.0,       # MLA is 2 cycles on the M3
        MUL64=3.0,     # SMULL 3..5
        ADD64=2.0,
        MAC64=4.0,     # SMLAL 4..7
        SHIFT64=2.0,
        SELECT=2.0,    # no SSAT: compare + conditional move
        DIV=6.0,
    )
    instructions = _table(1.0, MAC=1.0, ADD64=2.0, SELECT=2.0, SHIFT64=2.0)
    return TargetCosts(
        name="cortex-m3",
        op_cycles=cycles,
        op_instructions=instructions,
        loop_iter_cycles=3.0,
        loop_iter_instructions=2.0,
        loop_setup_cycles=1.0,
        addr_folded=True,
        unaligned_penalty_cycles=1.0,
        simd={},
        cycle_scale=1.2,
    )
