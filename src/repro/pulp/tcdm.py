"""The tightly-coupled data memory: multi-banked shared L1 scratchpad.

The PULP cores "share a L1 multi-banked tightly coupled data memory
(TCDM) acting as a shared data scratchpad" with "a word-level
interleaving scheme to reduce access contention".  In the discrete-event
model each bank is a single-server resource with one-cycle service; the
word-interleaved address mapping spreads consecutive words across banks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.obs.telemetry import CYCLES, Telemetry
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.units import kib

WORD_BYTES = 4


class Tcdm:
    """Multi-banked L1 data scratchpad."""

    DEFAULT_SIZE = kib(48)
    DEFAULT_BANKS = 8

    def __init__(self, simulator: Simulator, size: int = DEFAULT_SIZE,
                 banks: int = DEFAULT_BANKS,
                 telemetry: Optional[Telemetry] = None):
        if banks < 1 or size <= 0 or size % (banks * WORD_BYTES) != 0:
            raise ConfigurationError(
                f"invalid TCDM geometry: size={size}, banks={banks}")
        self.size = int(size)
        self.banks = int(banks)
        self.telemetry = telemetry
        self._data = bytearray(self.size)
        self._bank_resources: List[Resource] = [
            Resource(simulator, capacity=1, name=f"tcdm-bank{i}")
            for i in range(banks)
        ]
        self.accesses = 0

    # -- address mapping -------------------------------------------------------

    def bank_of(self, address: int) -> int:
        """Bank index of a word address (word-level interleaving)."""
        self._check_range(address, 1)
        return (address // WORD_BYTES) % self.banks

    def bank_resource(self, address: int) -> Resource:
        """The DES resource guarding the bank serving *address*."""
        return self._bank_resources[self.bank_of(address)]

    def note_access(self, time: float, address: int) -> None:
        """Emit a granted bank access into the telemetry hub.

        Called by initiators (cores, DMA) at grant time; one single-cycle
        cycle-domain ``bank`` span on the serving bank's
        ``tcdm.bank<N>`` lane.  No-op without a hub.
        """
        if self.telemetry is not None:
            self.telemetry.span("bank", f"tcdm.bank{self.bank_of(address)}",
                                time, 1.0, domain=CYCLES,
                                detail=f"@{address:#x}")

    # -- functional storage ------------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """Functional write."""
        self._check_range(address, len(data))
        self._data[address:address + len(data)] = data
        self.accesses += -(-len(data) // WORD_BYTES)

    def read(self, address: int, length: int) -> bytes:
        """Functional read."""
        self._check_range(address, length)
        self.accesses += -(-length // WORD_BYTES)
        return bytes(self._data[address:address + length])

    # -- statistics ----------------------------------------------------------------

    def conflicts_by_bank(self) -> List[int]:
        """Queued (stalled) accesses per bank, in bank order."""
        return [r.waits for r in self._bank_resources]

    def grants_by_bank(self) -> List[int]:
        """Granted accesses per bank, in bank order."""
        return [r.grants for r in self._bank_resources]

    @property
    def total_conflicts(self) -> int:
        """Accesses that had to queue behind a busy bank."""
        return sum(r.waits for r in self._bank_resources)

    @property
    def total_grants(self) -> int:
        """Accesses granted."""
        return sum(r.grants for r in self._bank_resources)

    def conflict_rate(self) -> float:
        """Fraction of DES accesses that stalled."""
        grants = self.total_grants
        if grants == 0:
            return 0.0
        return self.total_conflicts / grants

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size:
            raise SimulationError(
                f"TCDM access out of range: {length} bytes at {address:#x} "
                f"(size {self.size:#x})")
