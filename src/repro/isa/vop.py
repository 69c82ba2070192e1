"""The virtual micro-operation (VOp) vocabulary.

A :class:`VOp` is one abstract operation executed per loop iteration of a
kernel's inner body — close to what a compiler sees after address-code
generation but before target lowering.  Targets decide how many machine
instructions and cycles each VOp costs (and whether a vectorizable loop
containing it can be SIMD-packed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import IsaError


class OpKind(enum.Enum):
    """Abstract operation kinds understood by all targets."""

    LOAD = "load"            #: memory read of one element (or one vector)
    STORE = "store"          #: memory write of one element (or one vector)
    ADD = "add"              #: integer add/sub-like ALU op
    SUB = "sub"
    MUL = "mul"              #: integer multiply (low part)
    MAC = "mac"              #: multiply-accumulate (fusable on OR10N/M4)
    SHIFT = "shift"          #: shift (incl. fixed-point renormalization)
    LOGIC = "logic"          #: and/or/xor
    CMP = "cmp"              #: compare / set-flag
    SELECT = "select"        #: conditional select / saturation clamp
    ABS = "abs"
    MINMAX = "minmax"        #: min or max
    MOVE = "move"            #: register move / immediate load
    ADDR = "addr"            #: address/induction update (foldable into LS)
    MUL64 = "mul64"          #: 32x32 -> 64-bit multiply
    ADD64 = "add64"          #: 64-bit accumulate on a 32-bit datapath
    MAC64 = "mac64"          #: 32x32 + 64 -> 64-bit multiply-accumulate
    SHIFT64 = "shift64"      #: 64-bit shift
    DIV = "div"              #: integer division
    BRANCH = "branch"        #: data-dependent branch inside a body

    # Members are singletons and Enum compares them by identity, so an
    # identity hash agrees with equality.  It keeps the per-op dict and
    # set lookups of the lowering walk free of a Python-level
    # ``hash(self._name_)`` call.
    __hash__ = object.__hash__


class DType(enum.Enum):
    """Element data types (fixed-point formats map onto the integer widths)."""

    I8 = 8
    I16 = 16
    I32 = 32

    # Identity hash, as for :class:`OpKind`.
    __hash__ = object.__hash__

    @property
    def bits(self) -> int:
        """Element width in bits."""
        return self.value

    @property
    def bytes(self) -> int:
        """Element width in bytes."""
        return self.value // 8


#: Op kinds that touch memory.
MEMORY_KINDS = frozenset({OpKind.LOAD, OpKind.STORE})

#: Op kinds that operate on 64-bit software-emulated values.
WIDE_KINDS = frozenset({OpKind.MUL64, OpKind.ADD64, OpKind.MAC64, OpKind.SHIFT64})


@dataclass(frozen=True)
class VOp:
    """One abstract operation, possibly repeated ``count`` times per iteration.

    Parameters
    ----------
    kind:
        The abstract operation.
    dtype:
        Element type the op works on; drives SIMD lane width.
    count:
        Repetitions per loop iteration (may be fractional for costs
        amortized over several iterations, e.g. a spill every 4th pass).
    vector:
        Whether the op applies element-wise along a vectorizable loop and
        therefore packs into one SIMD instruction per vector iteration.
        ``vector=False`` ops are per-element and get replicated when the
        surrounding loop is vectorized.
    unaligned:
        For memory ops: the access may be misaligned once vectorized.
    foldable:
        For :attr:`OpKind.ADDR` ops: the update can be folded into a
        post-increment addressing mode on targets that have one.
    """

    kind: OpKind
    dtype: DType = DType.I32
    count: float = 1.0
    vector: bool = True
    unaligned: bool = False
    foldable: bool = True

    def __post_init__(self) -> None:
        if self.count < 0:
            raise IsaError(f"negative op count: {self.count}")
        if self.unaligned and self.kind not in MEMORY_KINDS:
            raise IsaError(f"unaligned flag only valid on memory ops, got {self.kind}")

    def scaled(self, factor: float) -> "VOp":
        """A copy with ``count`` multiplied by *factor*."""
        return replace(self, count=self.count * factor)

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.kind in MEMORY_KINDS

    @property
    def is_wide(self) -> bool:
        """True for 64-bit software-emulated operations."""
        return self.kind in WIDE_KINDS


# ---------------------------------------------------------------------------
# Convenience constructors used throughout the kernel definitions
# ---------------------------------------------------------------------------


def load(dtype: DType = DType.I32, count: float = 1.0, *, vector: bool = True,
         unaligned: bool = False) -> VOp:
    """A memory load."""
    return VOp(OpKind.LOAD, dtype, count, vector=vector, unaligned=unaligned)


def store(dtype: DType = DType.I32, count: float = 1.0, *, vector: bool = True,
          unaligned: bool = False) -> VOp:
    """A memory store."""
    return VOp(OpKind.STORE, dtype, count, vector=vector, unaligned=unaligned)


def alu(kind: OpKind, dtype: DType = DType.I32, count: float = 1.0, *,
        vector: bool = True) -> VOp:
    """A generic ALU op of the given *kind*."""
    return VOp(kind, dtype, count, vector=vector)


def mac(dtype: DType = DType.I32, count: float = 1.0, *, vector: bool = True) -> VOp:
    """An integer multiply-accumulate."""
    return VOp(OpKind.MAC, dtype, count, vector=vector)


def addr(count: float = 1.0, *, foldable: bool = True) -> VOp:
    """An address/induction update."""
    return VOp(OpKind.ADDR, DType.I32, count, vector=True, foldable=foldable)
