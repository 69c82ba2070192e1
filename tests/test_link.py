"""Tests for the SPI link, GPIO event lines and the wire protocol."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LinkError, ProtocolError
from repro.link import (
    Command,
    EventLine,
    Frame,
    SpiLink,
    SpiMode,
    decode_frames,
    encode_frame,
    frame_overhead_bytes,
)
from repro.link.protocol import FRAME_OVERHEAD_BYTES, _checksum
from repro.units import mhz


class TestSpiLink:
    def test_quad_is_four_times_single(self):
        single = SpiLink(SpiMode.SINGLE)
        quad = SpiLink(SpiMode.QUAD)
        assert quad.throughput(mhz(10)) == 4 * single.throughput(mhz(10))

    def test_throughput_bytes_per_second(self):
        link = SpiLink(SpiMode.SINGLE)
        assert link.throughput(mhz(8)) == pytest.approx(1e6)  # 1 MB/s

    def test_transfer_includes_framing(self):
        link = SpiLink(SpiMode.SINGLE, frame_overhead_bytes=10)
        transfer = link.transfer(100, mhz(1))
        assert transfer.wire_bytes == 110
        assert transfer.time == pytest.approx(110 * 8 / 1e6)

    def test_zero_payload_free(self):
        link = SpiLink()
        assert link.transfer(0, mhz(1)).time == 0.0

    def test_energy_scales_with_time(self):
        link = SpiLink()
        small = link.transfer(100, mhz(4))
        large = link.transfer(1000, mhz(4))
        assert large.energy > small.energy

    def test_active_power_reasonable(self):
        # The link must remain a small consumer inside the 10 mW budget.
        link = SpiLink(SpiMode.QUAD)
        assert link.active_power(mhz(13)) < 1e-3

    def test_transfer_throughput_property(self):
        transfer = SpiLink(SpiMode.QUAD).transfer(4096, mhz(10))
        assert transfer.throughput == pytest.approx(
            4096 / transfer.time)

    def test_invalid_clock(self):
        with pytest.raises(LinkError):
            SpiLink().throughput(0)

    def test_negative_payload(self):
        with pytest.raises(LinkError):
            SpiLink().transfer(-1, mhz(1))


class TestEventLine:
    def test_pulse_sequence(self):
        line = EventLine("eoc")
        seen = line.pulse(1.0)
        assert seen == pytest.approx(1.0 + line.propagation_delay)
        assert line.edge_count == 2
        assert not line.level

    def test_raise_then_clear(self):
        line = EventLine("fe")
        line.raise_event(0.0)
        assert line.level
        line.clear_event(1.0)
        assert not line.level

    def test_double_raise_rejected(self):
        line = EventLine("fe")
        line.raise_event(0.0)
        with pytest.raises(LinkError):
            line.raise_event(1.0)

    def test_time_travel_rejected(self):
        line = EventLine("fe")
        line.raise_event(5.0)
        with pytest.raises(LinkError):
            line.clear_event(1.0)

    def test_energy_accounting(self):
        line = EventLine("fe")
        line.pulse(0.0)
        line.pulse(1.0)
        assert line.total_energy == pytest.approx(4 * line.energy_per_edge)

    def test_edge_log(self):
        line = EventLine("fe")
        line.raise_event(1.0)
        line.clear_event(2.0)
        assert line.edges == [(1.0, True), (2.0, False)]


class TestProtocol:
    def test_roundtrip_simple(self):
        frame = Frame(Command.WRITE_DATA, 0x1000, b"payload")
        decoded, = decode_frames(encode_frame(frame))
        assert decoded == frame

    def test_empty_payload(self):
        frame = Frame(Command.START, 0x0)
        decoded, = decode_frames(encode_frame(frame))
        assert decoded.payload == b""
        assert decoded.wire_size == FRAME_OVERHEAD_BYTES

    def test_multiple_frames(self):
        frames = [Frame(Command.LOAD_BINARY, 0, b"\x01\x02"),
                  Frame(Command.WRITE_DATA, 64, b"abc"),
                  Frame(Command.START, 0)]
        stream = b"".join(encode_frame(f) for f in frames)
        assert decode_frames(stream) == frames

    def test_overhead_constant(self):
        assert frame_overhead_bytes() == FRAME_OVERHEAD_BYTES == 10

    def test_checksum_detects_corruption(self):
        data = bytearray(encode_frame(Frame(Command.WRITE_DATA, 0, b"abcd")))
        data[10] ^= 0xFF
        with pytest.raises(ProtocolError):
            decode_frames(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(ProtocolError):
            decode_frames(b"\x01\x00\x00")

    def test_truncated_payload(self):
        encoded = encode_frame(Frame(Command.WRITE_DATA, 0, b"abcd"))
        with pytest.raises(ProtocolError):
            decode_frames(encoded[:-3])

    def test_unknown_command(self):
        data = bytearray(encode_frame(Frame(Command.STATUS, 0)))
        data[0] = 0x7F
        # Fix the checksum so only the command is wrong.
        body = bytes(data[:-1])
        data[-1] = (~sum(body)) & 0xFF
        with pytest.raises(ProtocolError):
            decode_frames(bytes(data))

    def test_address_out_of_range(self):
        with pytest.raises(ProtocolError):
            Frame(Command.START, 1 << 32)

    def test_zero_length_payload_roundtrip(self):
        frame = Frame(Command.WRITE_DATA, 0x2000, b"")
        stream = encode_frame(frame)
        assert len(stream) == FRAME_OVERHEAD_BYTES
        decoded, = decode_frames(stream)
        assert decoded == frame

    def test_bad_checksum_mid_stream(self):
        # First frame intact, second corrupted: the decoder must reject
        # the stream (offset in the message points at the bad frame).
        good = encode_frame(Frame(Command.WRITE_DATA, 0, b"aaaa"))
        bad = bytearray(encode_frame(Frame(Command.WRITE_DATA, 64, b"bbbb")))
        bad[-1] ^= 0x01
        with pytest.raises(ProtocolError, match=r"offset 14"):
            decode_frames(good + bytes(bad))

    def test_duplicated_frame_decodes_to_two(self):
        # Duplication is NOT a protocol error at this layer — both copies
        # are well-formed.  Deduplication is the sender's job (it treats
        # a multi-frame delivery as failed and retransmits).
        encoded = encode_frame(Frame(Command.START, 0x10))
        frames = decode_frames(encoded + encoded)
        assert len(frames) == 2
        assert frames[0] == frames[1]

    def test_truncated_header_mid_stream(self):
        good = encode_frame(Frame(Command.STATUS, 0))
        with pytest.raises(ProtocolError, match="truncated frame header"):
            decode_frames(good + b"\x05\x00")

    def test_truncated_payload_reports_need(self):
        encoded = encode_frame(Frame(Command.WRITE_DATA, 0, b"abcdefgh"))
        with pytest.raises(ProtocolError, match="truncated frame payload"):
            decode_frames(encoded[:-1])

    @given(st.sampled_from(list(Command)),
           st.integers(0, 2**32 - 1),
           st.binary(max_size=512))
    def test_roundtrip_property(self, command, address, payload):
        frame = Frame(command, address, payload)
        decoded, = decode_frames(encode_frame(frame))
        assert decoded.command is command
        assert decoded.address == address
        assert decoded.payload == payload

    @given(st.lists(st.binary(max_size=64), min_size=1, max_size=8))
    def test_multi_frame_roundtrip(self, payloads):
        frames = [Frame(Command.WRITE_DATA, i * 64, p)
                  for i, p in enumerate(payloads)]
        stream = b"".join(encode_frame(f) for f in frames)
        assert decode_frames(stream) == frames


def _sum_checksum(data) -> int:
    """The frame checksum as a byte-by-byte Python sum: the oracle."""
    return (~sum(bytes(data))) & 0xFF


class TestChecksum:
    """The numpy checksum against the Python-sum oracle."""

    @staticmethod
    def _payloads(length):
        rng = random.Random(length)
        return (b"\xff" * length,                       # carries every lane
                bytes(i & 0xFF for i in range(length)),  # every byte value
                rng.randbytes(length))

    @pytest.mark.parametrize("length", [0, 1, 255, 256, 257, 65536])
    def test_matches_sum_on_every_buffer_type(self, length):
        for data in self._payloads(length):
            expected = _sum_checksum(data)
            for buffer in (data, bytearray(data), memoryview(data)):
                assert _checksum(buffer) == expected, (length, type(buffer))

    def test_matches_sum_at_random_sizes(self):
        rng = random.Random(22)
        for _ in range(64):
            data = rng.randbytes(rng.randrange(0, 70_000))
            assert _checksum(data) == _sum_checksum(data), len(data)

    def test_offset_and_count_select_the_slice(self):
        data = random.Random(5).randbytes(1000)
        for offset, count in ((0, 0), (0, 1), (3, 255), (17, 700),
                              (999, 1), (0, 1000)):
            assert _checksum(data, offset, count) \
                == _sum_checksum(data[offset:offset + count])
        assert _checksum(data, 300) == _sum_checksum(data[300:])

    def test_frame_at_nonzero_offset_checks_only_its_bytes(self):
        # Frames whose neighbours do not sum to 0 mod 256: a checksum
        # that read bytes before the frame (or after it) would differ.
        first = encode_frame(Frame(Command.LOAD_BINARY, 0, b"\x07" * 300))
        second = encode_frame(Frame(Command.WRITE_DATA, 64, b"\x01\x02\x03"))
        third = encode_frame(Frame(Command.START, 0x40))
        stream = first + second + third
        assert second[-1] != _sum_checksum(first + second[:-1])
        assert first[-1] != _sum_checksum(first[:-1] + second)
        frames = decode_frames(stream)
        assert [frame.address for frame in frames] == [0, 64, 0x40]
        assert frames[1].payload == b"\x01\x02\x03"
        assert decode_frames(memoryview(stream)) == frames
        # A bad checksum in the middle frame is reported at its offset.
        broken = bytearray(stream)
        broken[len(first) + len(second) - 1] ^= 0x10
        with pytest.raises(ProtocolError, match=f"offset {len(first)}"):
            decode_frames(bytes(broken))
