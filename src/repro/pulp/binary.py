"""Kernel binary model.

The paper offloads "the strictly required kernel alone" — one binary per
kernel, whose size (Table I, "Binary Size") directly prices the code
offload of Figure 5b.  A :class:`KernelBinary` models that image as the
sum of its link-map segments:

* ``.text`` — code, estimated at 4 bytes per static instruction of the
  kernel program plus the OpenMP device runtime stub and boot code;
* ``.rodata`` — constants shipped with the kernel (SVM model, CNN
  weights, LUTs);
* ``.bss/.data`` — the working buffers the linker reserves in L2.

``to_bytes`` renders a deterministic fake image so the offload path can
actually push real bytes through the wire protocol into L2.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.isa.program import Program

#: Device-side OpenMP runtime stub linked into every binary.
RUNTIME_STUB_BYTES = 2560
#: Boot/startup code.
BOOT_BYTES = 512
#: Bytes per encoded instruction.
INSTRUCTION_BYTES = 4


@dataclass(frozen=True)
class KernelBinary:
    """One offloadable kernel image."""

    name: str
    code_bytes: int
    const_bytes: int = 0
    buffer_bytes: int = 0
    entry_offset: int = 0

    def __post_init__(self) -> None:
        if min(self.code_bytes, self.const_bytes, self.buffer_bytes) < 0:
            raise ConfigurationError(f"negative segment in binary {self.name!r}")

    @classmethod
    def from_program(cls, program: Program,
                     extra_code_bytes: int = 0) -> "KernelBinary":
        """Build the image descriptor for a kernel program."""
        code = (program.static_instruction_estimate() * INSTRUCTION_BYTES
                + RUNTIME_STUB_BYTES + BOOT_BYTES + extra_code_bytes)
        return cls(
            name=program.name,
            code_bytes=code,
            const_bytes=program.const_bytes,
            buffer_bytes=program.buffer_bytes,
        )

    @property
    def image_bytes(self) -> int:
        """Bytes that must actually travel over the link (.text + .rodata)."""
        return self.code_bytes + self.const_bytes

    @property
    def footprint_bytes(self) -> int:
        """Total L2 footprint, including buffers (Table I's binary size)."""
        return self.code_bytes + self.const_bytes + self.buffer_bytes

    def to_bytes(self) -> bytes:
        """A deterministic stand-in image of ``image_bytes`` length."""
        # Block i is sha256(seed + i as 4 little-endian bytes); the seed
        # is hashed once and each block continues a copy of that state.
        seeded = hashlib.sha256(
            hashlib.sha256(self.name.encode("utf-8")).digest())
        blocks = []
        for counter in range((self.image_bytes + 31) // 32):
            block = seeded.copy()
            block.update(counter.to_bytes(4, "little"))
            blocks.append(block.digest())
        return b"".join(blocks)[:self.image_bytes]
