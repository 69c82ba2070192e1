"""Library offload: keeping multiple kernel binaries resident.

Section III-A: "A general mechanism of code offload can therefore
consist in the offload of an entire collection of kernels (a library) at
the same time, or of the strictly required kernel alone.  Due to the
limited amount of memory available in typical ULP systems ... we chose
to restrict our analysis to this second case."

This module quantifies the road not taken: given a working set of
kernels with invocation frequencies, which binaries should stay resident
in the L2 left over after the largest kernel's data buffers?  Resident
binaries skip their re-offload cost on every invocation; the selection
is a 0/1 knapsack on saved link traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.kernels.base import Kernel
from repro.link.spi import SpiLink
from repro.pulp.binary import KernelBinary
from repro.pulp.l2 import L2Memory
from repro.units import mhz


@dataclass(frozen=True)
class LibraryEntry:
    """One kernel in the working set."""

    kernel_name: str
    binary_bytes: int
    data_bytes: int              #: max(in, out) marshalling footprint
    invocations_per_second: float

    @property
    def saved_bytes_per_second(self) -> float:
        """Link traffic avoided if this binary stays resident."""
        return self.binary_bytes * self.invocations_per_second


@dataclass
class LibraryPlan:
    """The chosen resident set and its consequences."""

    resident: List[LibraryEntry]
    evicted: List[LibraryEntry]
    l2_budget: int
    data_reservation: int

    @property
    def resident_bytes(self) -> int:
        """Bytes of resident binaries."""
        return sum(entry.binary_bytes for entry in self.resident)

    @property
    def saved_traffic(self) -> float:
        """Link bytes/second avoided by residency."""
        return sum(entry.saved_bytes_per_second for entry in self.resident)

    def offload_seconds_saved(self, link: SpiLink, spi_clock: float) -> float:
        """Link seconds/second saved (i.e. duty-cycle reduction)."""
        if self.saved_traffic == 0:
            return 0.0
        throughput = link.throughput(spi_clock)
        return self.saved_traffic / throughput


class LibraryPlanner:
    """Chooses the resident binary set for a kernel working set."""

    def __init__(self, l2: Optional[L2Memory] = None):
        self.l2_size = (l2 if l2 is not None else L2Memory()).size

    def entries_for(self, workload: Sequence[Tuple[Kernel, float]]
                    ) -> List[LibraryEntry]:
        """Build library entries from (kernel, invocations/s) pairs."""
        entries = []
        for kernel, rate in workload:
            if rate < 0:
                raise ConfigurationError(
                    f"negative invocation rate for {kernel.name}")
            program = kernel.build_program()
            binary = KernelBinary.from_program(program)
            entries.append(LibraryEntry(
                kernel_name=kernel.name,
                binary_bytes=binary.image_bytes,
                data_bytes=max(program.input_bytes, program.output_bytes),
                invocations_per_second=rate))
        return entries

    def plan(self, entries: Sequence[LibraryEntry]) -> LibraryPlan:
        """Knapsack the binaries into the L2 space left after data.

        The data reservation is the largest marshalling footprint in the
        set (any kernel must still be runnable).  Weights are binary
        sizes; values are saved link bytes/second.  Sizes are in the
        hundreds of entries at most, so the classic DP over bytes at a
        16-byte granularity is cheap.
        """
        if not entries:
            raise ConfigurationError("empty kernel working set")
        data_reservation = max(entry.data_bytes for entry in entries)
        budget = self.l2_size - data_reservation
        if budget <= 0:
            return LibraryPlan(resident=[], evicted=list(entries),
                               l2_budget=0, data_reservation=data_reservation)
        granularity = 16
        slots = budget // granularity
        weights = [-(-entry.binary_bytes // granularity) for entry in entries]
        values = [entry.saved_bytes_per_second for entry in entries]
        # 0/1 knapsack.
        table = [0.0] * (slots + 1)
        keep: List[List[bool]] = []
        for index, (weight, value) in enumerate(zip(weights, values)):
            chosen_row = [False] * (slots + 1)
            for capacity in range(slots, weight - 1, -1):
                candidate = table[capacity - weight] + value
                if candidate > table[capacity]:
                    table[capacity] = candidate
                    chosen_row[capacity] = True
            keep.append(chosen_row)
        # Backtrack.
        resident_indices = []
        capacity = slots
        for index in range(len(entries) - 1, -1, -1):
            if keep[index][capacity]:
                resident_indices.append(index)
                capacity -= weights[index]
        resident_indices.reverse()
        resident = [entries[i] for i in resident_indices]
        evicted = [entry for i, entry in enumerate(entries)
                   if i not in resident_indices]
        return LibraryPlan(resident=resident, evicted=evicted,
                           l2_budget=budget,
                           data_reservation=data_reservation)


def render_plan(plan: LibraryPlan, link: Optional[SpiLink] = None,
                spi_clock: float = mhz(8)) -> str:
    """Text rendering of a library plan."""
    link = link if link is not None else SpiLink()
    lines = [f"library plan: {plan.resident_bytes:,} B resident of "
             f"{plan.l2_budget:,} B budget "
             f"(data reservation {plan.data_reservation:,} B)"]
    for entry in plan.resident:
        lines.append(f"  resident  {entry.kernel_name:16s} "
                     f"{entry.binary_bytes:7,} B  saves "
                     f"{entry.saved_bytes_per_second / 1024:8.1f} kB/s")
    for entry in plan.evicted:
        lines.append(f"  evicted   {entry.kernel_name:16s} "
                     f"{entry.binary_bytes:7,} B  costs "
                     f"{entry.saved_bytes_per_second / 1024:8.1f} kB/s")
    saved = plan.offload_seconds_saved(link, spi_clock)
    lines.append(f"  link duty cycle saved: {saved:.1%}")
    return "\n".join(lines)
