"""The byte-level offload wire protocol.

The paper builds "a lightweight software abstraction for host (MCU) to
accelerator (PULP) communication" on top of the SPI channel.  This module
defines that abstraction's wire format.  Every transaction is one frame::

    +------+---------+---------+-------------+-------+
    | CMD  | ADDRESS | LENGTH  |   PAYLOAD   | CKSUM |
    | 1 B  |   4 B   |   4 B   | LENGTH B    |  1 B  |
    +------+---------+---------+-------------+-------+

giving 10 bytes of overhead per frame (the default
``frame_overhead_bytes`` of :class:`repro.link.spi.SpiLink`).  The
checksum is a simple additive complement over header and payload,
``(~sum(bytes)) & 0xFF``, summed in numpy rather than byte by byte in
Python: a kernel binary or input map is tens of kilobytes per frame.

Commands:

``LOAD_BINARY``  write the kernel binary into accelerator L2;
``WRITE_DATA``   marshal input data into L2 (the OpenMP ``map(to:)``);
``READ_DATA``    read results back (the ``map(from:)``) — the payload of
                 the *request* frame is empty, data returns on the wire;
``START``        set the kernel entry point / trigger boot;
``STATUS``       poll the accelerator state.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.errors import ProtocolError

_HEADER = struct.Struct("<BII")

#: Frame overhead: header (9 bytes) + checksum (1 byte).
FRAME_OVERHEAD_BYTES = _HEADER.size + 1


class Command(enum.Enum):
    """Frame command codes."""

    LOAD_BINARY = 0x01
    WRITE_DATA = 0x02
    READ_DATA = 0x03
    START = 0x04
    STATUS = 0x05


@dataclass(frozen=True)
class Frame:
    """One decoded protocol frame."""

    command: Command
    address: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.address < 2 ** 32:
            raise ProtocolError(f"address out of range: {self.address:#x}")
        if len(self.payload) >= 2 ** 32:
            raise ProtocolError("payload too large")

    @property
    def wire_size(self) -> int:
        """Total bytes on the wire for this frame."""
        return FRAME_OVERHEAD_BYTES + len(self.payload)


def frame_overhead_bytes() -> int:
    """Protocol overhead per frame in bytes."""
    return FRAME_OVERHEAD_BYTES


def _checksum(data: bytes, offset: int = 0, count: int = -1) -> int:
    """Additive complement of *count* bytes of *data* from *offset*
    (``count=-1``: to the end), read in place."""
    total = np.frombuffer(data, np.uint8, count, offset).sum(dtype=np.uint64)
    return ~int(total) & 0xFF


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to wire bytes."""
    header = _HEADER.pack(frame.command.value, frame.address, len(frame.payload))
    body = header + frame.payload
    return body + bytes([_checksum(body)])


def decode_frames(data: bytes) -> List[Frame]:
    """Parse a byte stream into frames, validating checksums.

    Raises :class:`~repro.errors.ProtocolError` on truncated frames,
    unknown commands, or checksum mismatches.
    """
    return list(iter_frames(data))


def iter_frames(data: bytes) -> Iterator[Frame]:
    """Incrementally parse frames out of *data*."""
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < FRAME_OVERHEAD_BYTES:
            raise ProtocolError(
                f"truncated frame header at offset {offset} ({total - offset} bytes left)")
        command_code, address, length = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if end + 1 > total:
            raise ProtocolError(
                f"truncated frame payload at offset {offset} "
                f"(need {length} bytes, have {total - offset - _HEADER.size - 1})")
        try:
            command = Command(command_code)
        except ValueError:
            raise ProtocolError(f"unknown command code {command_code:#x}") from None
        expected = _checksum(data, offset, end - offset)
        actual = data[end]
        if actual != expected:
            raise ProtocolError(
                f"checksum mismatch at offset {offset}: "
                f"got {actual:#04x}, expected {expected:#04x}")
        yield Frame(command, address, bytes(data[offset + _HEADER.size:end]))
        offset = end + 1
