"""Loop-nest program IR.

A :class:`Program` is a named tree of :class:`Loop` and :class:`Block`
nodes.  It is the single description of a kernel's computation from which
every target derives executed instructions and cycles, the Table-I RISC-op
count is computed, and the OpenMP model derives per-thread work.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple, Union

from repro.errors import IsaError
from repro.isa.vop import DType, OpKind, VOp

Node = Union["Block", "Loop"]


@dataclass(frozen=True)
class Block:
    """Straight-line code: a bag of VOps executed once per entry."""

    ops: Tuple[VOp, ...]

    def __init__(self, ops):
        object.__setattr__(self, "ops", tuple(ops))

    def total_count(self) -> float:
        """Sum of op counts in the block."""
        return sum(op.count for op in self.ops)


@dataclass(frozen=True)
class Loop:
    """A counted loop.

    Parameters
    ----------
    trips:
        Iteration count (must be >= 0; zero-trip loops cost only setup).
    body:
        Child nodes executed once per iteration.
    vectorizable:
        Iterations apply the same ops to contiguous elements, so a SIMD
        target may pack ``lanes`` iterations into one.
    simd_dtype:
        Element type that determines the SIMD lane count when the loop is
        vectorized (defaults to I32, i.e. no packing).
    parallelizable:
        The loop is an OpenMP ``for`` candidate: iterations are
        independent and may be split across threads.
    reduction:
        If parallelized, threads produce partial results that must be
        combined (adds an O(threads) combine cost in the OpenMP model).
    name:
        Diagnostic label.
    """

    trips: int
    body: Tuple[Node, ...]
    vectorizable: bool = False
    simd_dtype: DType = DType.I32
    parallelizable: bool = False
    reduction: bool = False
    name: str = ""

    def __init__(self, trips, body, vectorizable=False, simd_dtype=DType.I32,
                 parallelizable=False, reduction=False, name=""):
        if trips < 0:
            raise IsaError(f"negative trip count: {trips}")
        object.__setattr__(self, "trips", int(trips))
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "vectorizable", bool(vectorizable))
        object.__setattr__(self, "simd_dtype", simd_dtype)
        object.__setattr__(self, "parallelizable", bool(parallelizable))
        object.__setattr__(self, "reduction", bool(reduction))
        object.__setattr__(self, "name", name)

    def with_trips(self, trips: int) -> "Loop":
        """A copy of the loop with a different trip count (used by the
        OpenMP model to carve per-thread chunks)."""
        return dataclasses.replace(self, trips=int(trips))

    def chunk_bounds(self, core: int, cores: int) -> Tuple[int, int]:
        """Half-open iteration range ``[start, stop)`` of *core* under
        the OpenMP static schedule (larger chunks go to the lowest core
        ids, matching :func:`repro.pulp.timing.chunk_trips`).

        This is the ground truth the SPMD analyzer's per-core register
        presets encode; exposing it here keeps the runtime, the DES
        streams and the static concurrency model on one schedule.
        """
        if not 0 <= core < cores:
            raise IsaError(f"core {core} outside 0..{cores - 1}")
        base, extra = divmod(self.trips, cores)
        start = core * base + min(core, extra)
        return start, start + base + (1 if core < extra else 0)

    # The loop is frozen, so its shape is computed once per node, from
    # its children's cached values, and kept in the instance dict.

    @cached_property
    def depth(self) -> int:
        """Nesting depth below this loop (1 for an innermost loop)."""
        return 1 + max((node.depth for node in self.body
                        if isinstance(node, Loop)), default=0)

    @cached_property
    def vector_kinds(self) -> FrozenSet[OpKind]:
        """Kinds of the vector-marked ops in this loop's subtree that a
        SIMD unit must pack (foldable address updates excluded)."""
        kinds = set()
        for node in self.body:
            if isinstance(node, Loop):
                kinds.update(node.vector_kinds)
            else:
                kinds.update(op.kind for op in node.ops if op.vector and not (
                    op.kind is OpKind.ADDR and op.foldable))
        return frozenset(kinds)


@dataclass(frozen=True)
class Program:
    """A named loop-nest program plus data-footprint metadata.

    ``input_bytes``/``output_bytes`` are the amounts marshalled over the
    host-accelerator link per kernel invocation; ``const_bytes`` are
    read-only tables shipped inside the binary (models, weights, LUTs);
    ``buffer_bytes`` are scratch/bss buffers counted in the binary image.
    """

    name: str
    body: Tuple[Node, ...]
    input_bytes: int = 0
    output_bytes: int = 0
    const_bytes: int = 0
    buffer_bytes: int = 0

    def __init__(self, name, body, input_bytes=0, output_bytes=0,
                 const_bytes=0, buffer_bytes=0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "input_bytes", int(input_bytes))
        object.__setattr__(self, "output_bytes", int(output_bytes))
        object.__setattr__(self, "const_bytes", int(const_bytes))
        object.__setattr__(self, "buffer_bytes", int(buffer_bytes))

    # -- traversal ----------------------------------------------------------

    def walk(self) -> Iterator[Node]:
        """Pre-order traversal of every node in the program."""
        yield from _walk_nodes(self.body)

    def loops(self) -> Iterator[Loop]:
        """All loops, pre-order."""
        for node in self.walk():
            if isinstance(node, Loop):
                yield node

    def parallel_loops(self) -> List[Loop]:
        """Top-level parallelizable loops (OpenMP ``for`` candidates).

        Only loops at the outermost level are considered: the paper's
        kernels parallelize a single outer loop per phase.
        """
        return [node for node in self.body
                if isinstance(node, Loop) and node.parallelizable]

    def parallel_region_metadata(self, cores: int = 4) -> List[dict]:
        """Core-id/parallel-region metadata for SPMD analysis.

        One dict per top-level parallelizable loop, in program order:
        region index, loop name, trip count, reduction flag, and the
        static-schedule ``chunks`` (per-core half-open iteration
        bounds).  The concurrency analyzer and the learned-scheduler
        feature export consume this instead of re-deriving schedules.
        """
        regions: List[dict] = []
        for loop in self.parallel_loops():
            regions.append({
                "region": len(regions),
                "name": loop.name,
                "trips": loop.trips,
                "reduction": loop.reduction,
                "chunks": [loop.chunk_bounds(core, cores)
                           for core in range(cores)],
            })
        return regions

    # -- aggregate op counting ----------------------------------------------

    def dynamic_op_counts(self) -> dict:
        """Dynamic (executed) VOp counts per kind, ignoring loop overhead.

        This is the *architecture-independent* work metric used by tests
        and by workload characterization; targets add their own overheads.
        """
        counts: dict = {}
        _accumulate_ops(self.body, 1.0, counts)
        return counts

    def total_dynamic_ops(self) -> float:
        """Total executed VOps (again without loop/branch overhead)."""
        return sum(self.dynamic_op_counts().values())

    def static_instruction_estimate(self) -> int:
        """Rough static code size in instructions: each VOp appears once,
        each loop adds a small amount of control code."""
        ops = 0
        loops = 0
        for node in self.walk():
            if isinstance(node, Block):
                ops += len(node.ops)
            else:
                loops += 1
        return ops + 4 * loops + 16  # prologue/epilogue

    def map_loops(self, fn: Callable[[Loop], Optional[Loop]]) -> "Program":
        """Structurally rebuild the program, replacing each loop with
        ``fn(loop)`` (return ``None`` to keep the original)."""
        return dataclasses.replace(self, body=_map_nodes(self.body, fn))


def _walk_nodes(nodes) -> Iterator[Node]:
    for node in nodes:
        yield node
        if isinstance(node, Loop):
            yield from _walk_nodes(node.body)


def _accumulate_ops(nodes, multiplier: float, counts: dict) -> None:
    for node in nodes:
        if isinstance(node, Block):
            for op in node.ops:
                counts[op.kind] = counts.get(op.kind, 0.0) + op.count * multiplier
        else:
            _accumulate_ops(node.body, multiplier * node.trips, counts)


def _map_nodes(nodes, fn) -> Tuple[Node, ...]:
    result = []
    for node in nodes:
        if isinstance(node, Loop):
            replacement = fn(node)
            if replacement is None:
                replacement = node
            replacement = dataclasses.replace(
                replacement, body=_map_nodes(replacement.body, fn))
            result.append(replacement)
        else:
            result.append(node)
    return tuple(result)
