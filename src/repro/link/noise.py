"""Link noise and the retransmission protocol.

The system-on-board wiring of the prototype ("simple wires connecting
the dedicated SPI pins of the Nucleo with a set of pins on the
programmable logic") is exactly the kind of link where occasional bit
errors happen.  The frame checksum of :mod:`repro.link.protocol` exists
to catch them; this module supplies the other half of a robust driver:

* :class:`NoisyChannel` — a deterministic bit-error injector (seeded
  LCG; a given seed always corrupts the same bits), used by the failure-
  injection tests;
* :class:`RetransmittingSender` — send/verify/retransmit on top of the
  frame layer, with attempt accounting and a cost model hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import LinkError, ProtocolError
from repro.link.protocol import Frame, decode_frames, encode_frame
from repro.units import Lcg


class NoisyChannel:
    """Flips each transmitted bit with probability ``bit_error_rate``.

    Deterministic: corruption positions come from a seeded
    :class:`repro.units.Lcg` (started from its own seed mix), so every
    failure-injection test is reproducible.  Flip positions are sampled
    *geometrically* (one LCG draw per flip, not per bit): the gap to the
    next flipped bit is ``floor(log(1-u) / log(1-p))``, which makes
    transmitting an N-byte payload O(flips) instead of O(8N) — MB-scale
    fault campaigns stay fast at realistic error rates.
    """

    def __init__(self, bit_error_rate: float = 0.0, seed: int = 1):
        if not 0.0 <= bit_error_rate < 1.0:
            raise LinkError(f"invalid bit error rate {bit_error_rate}")
        self.bit_error_rate = bit_error_rate
        self._rng = Lcg.from_state(seed * 0x9E3779B9 + 1)
        self.bits_transferred = 0
        self.bits_flipped = 0

    def transmit(self, data: bytes) -> bytes:
        """Pass *data* through the channel, possibly corrupting it."""
        total_bits = 8 * len(data)
        self.bits_transferred += total_bits
        if self.bit_error_rate == 0.0 or total_bits == 0:
            return data
        log_miss = math.log1p(-self.bit_error_rate)
        corrupted: Optional[bytearray] = None
        position = -1
        while True:
            # Geometric gap: number of clean bits before the next flip.
            gap = int(math.log(1.0 - self._rng.uniform()) / log_miss)
            position += 1 + gap
            if position >= total_bits:
                break
            if corrupted is None:
                corrupted = bytearray(data)
            corrupted[position >> 3] ^= 1 << (position & 7)
            self.bits_flipped += 1
        return bytes(corrupted) if corrupted is not None else data

    @property
    def observed_error_rate(self) -> float:
        """Measured bit error rate so far."""
        if self.bits_transferred == 0:
            return 0.0
        return self.bits_flipped / self.bits_transferred


@dataclass
class TransmissionLog:
    """What one reliable frame delivery cost."""

    attempts: int
    wire_bytes: int


class RetransmittingSender:
    """Reliable frame delivery over a noisy channel.

    The receiver-side validation is the checksum check of
    :func:`repro.link.protocol.decode_frames`; a corrupted frame raises,
    the sender retransmits, up to ``max_attempts``.
    """

    def __init__(self, channel: NoisyChannel, max_attempts: int = 8,
                 deliver: Optional[Callable[[Frame], None]] = None):
        if max_attempts < 1:
            raise LinkError(f"max_attempts must be >= 1, got {max_attempts}")
        self.channel = channel
        self.max_attempts = max_attempts
        self.deliver = deliver
        self.log: List[TransmissionLog] = []

    def send(self, frame: Frame) -> Frame:
        """Deliver *frame* reliably; returns the received copy.

        Raises :class:`~repro.errors.LinkError` when ``max_attempts``
        consecutive transmissions are corrupted.
        """
        encoded = encode_frame(frame)
        wire_bytes = 0
        for attempt in range(1, self.max_attempts + 1):
            received = self.channel.transmit(encoded)
            # The host clocks the full frame onto the wire every attempt,
            # whatever mangled form the receiver ends up seeing.
            wire_bytes += len(encoded)
            try:
                frames = decode_frames(received)
            except ProtocolError:
                continue
            if len(frames) != 1:
                # A dropped (zero frames) or duplicated (several frames)
                # delivery is ambiguous at the receiver: discard and
                # retransmit rather than risk executing a frame twice.
                continue
            decoded = frames[0]
            self.log.append(TransmissionLog(attempts=attempt,
                                            wire_bytes=wire_bytes))
            if self.deliver is not None:
                self.deliver(decoded)
            return decoded
        raise LinkError(
            f"frame delivery failed after {self.max_attempts} attempts "
            f"(BER {self.channel.bit_error_rate:g})")

    @property
    def total_attempts(self) -> int:
        """Transmissions performed across all delivered frames."""
        return sum(entry.attempts for entry in self.log)

    @property
    def retransmission_overhead(self) -> float:
        """Extra wire traffic caused by retransmissions (0 = none)."""
        if not self.log:
            return 0.0
        frames = len(self.log)
        return self.total_attempts / frames - 1.0
