"""The lightweight multi-channel cluster DMA.

"A lightweight multi-channel DMA enables fast communication with the L2
memory and external peripherals.  The DMA features a direct connection
to the TCDM to reduce power consumption by eliminating the need for an
internal buffer."  The model moves one word per cycle per channel
between L2 and TCDM, arbitrating for TCDM banks like any other
initiator (its direct port still contends at the banks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, SimulationError
from repro.obs.telemetry import CYCLES, Telemetry
from repro.pulp.l2 import L2Memory
from repro.pulp.tcdm import WORD_BYTES, Tcdm
from repro.sim.engine import Simulator, Timeout


@dataclass
class DmaStats:
    """Per-controller transfer statistics."""

    transfers: int = 0
    bytes_moved: int = 0
    busy_cycles: float = 0.0
    stall_cycles: float = 0.0


class DmaController:
    """Multi-channel L2 <-> TCDM DMA.

    Given an enabled *telemetry* hub, each transfer emits one
    cycle-domain ``dma`` span on its channel's ``dma.ch<N>`` lane when
    it ends.
    """

    def __init__(self, simulator: Simulator, l2: L2Memory, tcdm: Tcdm,
                 channels: int = 4, setup_cycles: float = 8.0,
                 telemetry: Optional[Telemetry] = None):
        if channels < 1:
            raise ConfigurationError(f"need >= 1 channel, got {channels}")
        self.simulator = simulator
        self.l2 = l2
        self.tcdm = tcdm
        self.channels = channels
        self.setup_cycles = setup_cycles
        self.telemetry = telemetry
        self._free_channels = list(range(channels))
        self.stats = DmaStats()

    def transfer(self, l2_address: int, tcdm_address: int, length: int,
                 to_tcdm: bool = True):
        """Generator process moving *length* bytes (word granularity).

        Functionally copies the data and costs ``setup + words`` cycles
        plus any TCDM bank stalls.
        """
        if length < 0:
            raise SimulationError(f"negative DMA length {length}")
        if not self._free_channels:
            raise SimulationError("all DMA channels busy")
        channel = self._free_channels.pop(0)
        start = self.simulator.now
        try:
            yield Timeout(self.setup_cycles)
            words = -(-length // WORD_BYTES)
            for index in range(words):
                offset = index * WORD_BYTES
                chunk = min(WORD_BYTES, length - offset)
                resource = self.tcdm.bank_resource(tcdm_address + offset)
                requested = self.simulator.now
                yield resource.request()
                self.stats.stall_cycles += self.simulator.now - requested
                self.tcdm.note_access(self.simulator.now,
                                      tcdm_address + offset)
                yield Timeout(1.0)
                resource.release()
                if to_tcdm:
                    data = self.l2.read(l2_address + offset, chunk)
                    self.tcdm.write(tcdm_address + offset, data)
                else:
                    data = self.tcdm.read(tcdm_address + offset, chunk)
                    self.l2.write(l2_address + offset, data)
            self.stats.transfers += 1
            self.stats.bytes_moved += length
        finally:
            self._free_channels.append(channel)
            self._free_channels.sort()
            elapsed = self.simulator.now - start
            self.stats.busy_cycles += elapsed
            if self.telemetry is not None:
                direction = "->tcdm" if to_tcdm else "->l2"
                self.telemetry.span("dma", f"dma.ch{channel}", start,
                                    elapsed, domain=CYCLES,
                                    detail=f"{length}B{direction}")

    def ideal_cycles(self, length: int) -> float:
        """Contention-free transfer cycles for *length* bytes."""
        return self.setup_cycles + -(-length // WORD_BYTES)
