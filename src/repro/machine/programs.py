"""Hand-written OR10N-mini assembly kernels, with numpy-facing runners.

These are the instruction-level counterparts of the analytic kernels:
``run_matmul_i8`` computes exactly what
:meth:`repro.kernels.matmul.MatmulKernel.compute` computes (char
variant), instruction by instruction, so the two abstraction levels can
be validated against each other — both functionally and in cycles.

Every built-in program is gated through the static analyzer at import
time (:func:`repro.analysis.lint_unit` in strict mode): an
uninitialized-register read, an illegal hardware-loop shape, or
unreachable code in any kernel below is an :class:`~repro.errors.IsaError`
before anything can run it.  ``BUILTIN_PROGRAMS`` exposes the registry
(source text, entry registers, output registers) that both the gate and
``python -m repro lint --all-builtin`` use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.errors import KernelError
from repro.machine.assembler import AssemblyUnit, assemble_unit
from repro.machine.interpreter import ExecutionResult, Machine


@dataclass(frozen=True)
class BuiltinProgram:
    """One registered assembly kernel plus its register contract."""

    name: str
    unit: AssemblyUnit
    #: Registers the runner presets before execution (kernel arguments).
    entry_regs: FrozenSet[int]
    #: Registers the runner reads back afterwards; ``None`` = memory
    #: results only (every register is then treated as observable).
    exit_live: Optional[FrozenSet[int]] = None

    @property
    def source(self) -> str:
        """The assembly source text."""
        return self.unit.source

    @property
    def instructions(self) -> Tuple:
        """The assembled instruction tuple."""
        return self.unit.instructions


#: Registry of built-in programs by name, filled by :func:`_builtin`.
BUILTIN_PROGRAMS: Dict[str, BuiltinProgram] = {}


def _builtin(name: str, source: str, entry_regs: FrozenSet[int],
             exit_live: Optional[FrozenSet[int]] = None) -> List:
    """Assemble, statically verify, and register a built-in program.

    Returns the instruction list (module-level constants keep their
    historical ``List[Instruction]`` shape).  Analysis runs in strict
    mode: any ERROR finding aborts the import.
    """
    from repro.analysis.dataflow import ALL_REGISTERS
    from repro.analysis.linter import lint_unit

    unit = assemble_unit(source)
    lint_unit(unit, name=name, entry_regs=entry_regs,
              exit_live=exit_live if exit_live is not None
              else ALL_REGISTERS).raise_on_error()
    BUILTIN_PROGRAMS[name] = BuiltinProgram(
        name=name, unit=unit, entry_regs=entry_regs, exit_live=exit_live)
    return list(unit.instructions)


#: Copy r3 words from [r1] to [r2].
MEMCPY_WORDS = _builtin("memcpy_words", """
        hwloop r3, copy_end
        lw   r4, 0(r1)
        addi r1, r1, 4
        sw   r4, 0(r2)
        addi r2, r2, 4
copy_end:
        halt
""", entry_regs=frozenset({1, 2, 3}))

#: Lane-wise int8 vector add: r4 words from [r1] + [r2] -> [r3].
VECTOR_ADD_I8 = _builtin("vector_add_i8", """
        hwloop r4, add_end
        lw   r5, 0(r1)
        lw   r6, 0(r2)
        add4 r7, r5, r6
        sw   r7, 0(r3)
        addi r1, r1, 4
        addi r2, r2, 4
        addi r3, r3, 4
add_end:
        halt
""", entry_regs=frozenset({1, 2, 3, 4}))

#: int8 dot product of r3 elements at [r1], [r2]; result in r10.
DOT_PRODUCT_I8 = _builtin("dot_product_i8", """
        addi r10, r0, 0
        hwloop r3, dot_end
        lb   r4, 0(r1)
        lb   r5, 0(r2)
        mac  r10, r4, r5
        addi r1, r1, 1
        addi r2, r2, 1
dot_end:
        halt
""", entry_regs=frozenset({1, 2, 3}), exit_live=frozenset({10}))

#: char matmul: C = sat8((A @ B + 64) >> 7); bases in r1/r2/r3, n in r4.
MATMUL_I8 = _builtin("matmul_i8", """
        addi r5, r0, 0            ; i = 0
i_loop:
        addi r6, r0, 0            ; j = 0
j_loop:
        addi r8, r0, 0            ; acc = 0
        mul  r9, r5, r4
        add  r9, r9, r1           ; &A[i*n]
        add  r11, r2, r6          ; &B[0*n + j]
        hwloop r4, k_end
        lb   r12, 0(r9)
        lb   r13, 0(r11)
        mac  r8, r12, r13
        addi r9, r9, 1
        add  r11, r11, r4
k_end:
        addi r8, r8, 64           ; round-half-up
        srai r8, r8, 7
        addi r14, r0, 127
        min  r8, r8, r14
        addi r14, r0, -128
        max  r8, r8, r14
        mul  r15, r5, r4
        add  r15, r15, r6
        add  r15, r15, r3
        sb   r8, 0(r15)
        addi r6, r6, 1
        blt  r6, r4, j_loop
        addi r5, r5, 1
        blt  r5, r4, i_loop
        halt
""", entry_regs=frozenset({1, 2, 3, 4}))

#: Row-partitioned char matmul for the multicore cluster: as MATMUL_I8,
#: but computing rows [r5, r16) — each core gets its static chunk, the
#: OpenMP schedule written out in assembly.
MATMUL_ROWS_I8 = _builtin("matmul_rows_i8", """
i_loop:
        addi r6, r0, 0            ; j = 0
j_loop:
        addi r8, r0, 0            ; acc = 0
        mul  r9, r5, r4
        add  r9, r9, r1           ; &A[i*n]
        add  r11, r2, r6          ; &B[0*n + j]
        hwloop r4, k_end
        lb   r12, 0(r9)
        lb   r13, 0(r11)
        mac  r8, r12, r13
        addi r9, r9, 1
        add  r11, r11, r4
k_end:
        addi r8, r8, 64
        srai r8, r8, 7
        addi r14, r0, 127
        min  r8, r8, r14
        addi r14, r0, -128
        max  r8, r8, r14
        mul  r15, r5, r4
        add  r15, r15, r6
        add  r15, r15, r3
        sb   r8, 0(r15)
        addi r6, r6, 1
        blt  r6, r4, j_loop
        addi r5, r5, 1
        blt  r5, r16, i_loop
        halt
""", entry_regs=frozenset({1, 2, 3, 4, 5, 16}))

#: 3-tap int8 depthwise convolution (binomial 1-2-1 blur) with
#: round/shift/saturate requantization: r3 outputs from [r1] -> [r2].
#: The sliding window lives in registers, so each output costs one load
#: and one store against ~11 ALU ops — a compute-dense TinyAI building
#: block, unlike the streaming copy/add kernels above.
DWCONV3_I8 = _builtin("dwconv3_i8", """
        addi r12, r0, 1           ; taps 1 2 1
        addi r13, r0, 2
        addi r14, r0, 1
        addi r20, r0, 0           ; window: x[i-2], x[i-1]
        addi r21, r0, 0
        addi r15, r0, 127
        addi r16, r0, -128
        hwloop r3, conv_end
        lb   r4, 0(r1)
        addi r1, r1, 1
        addi r5, r0, 0
        mac  r5, r4, r12
        mac  r5, r21, r13
        mac  r5, r20, r14
        add  r20, r21, r0
        add  r21, r4, r0
        addi r5, r5, 2            ; round-half-up for >> 2
        srai r5, r5, 2
        min  r5, r5, r15
        max  r5, r5, r16
        sb   r5, 0(r2)
        addi r2, r2, 1
conv_end:
        halt
""", entry_regs=frozenset({1, 2, 3}))

#: 8-tap int32 FIR (binomial-ish 1 2 4 8 8 4 2 1 smoothing kernel):
#: r3 outputs from [r1] -> [r2].  Taps and the sample history both live
#: in registers; each output is one load + one store against 8 MACs
#: plus the window shift.
FIR8_I32 = _builtin("fir8_i32", """
        addi r12, r0, 1           ; taps 1 2 4 8 8 4 2 1
        addi r13, r0, 2
        addi r14, r0, 4
        addi r15, r0, 8
        addi r16, r0, 8
        addi r17, r0, 4
        addi r18, r0, 2
        addi r19, r0, 1
        addi r20, r0, 0           ; history x[i-1] .. x[i-7]
        addi r21, r0, 0
        addi r22, r0, 0
        addi r23, r0, 0
        addi r24, r0, 0
        addi r25, r0, 0
        addi r26, r0, 0
        hwloop r3, fir_end
        lw   r4, 0(r1)
        addi r1, r1, 4
        addi r5, r0, 0
        mac  r5, r4, r12
        mac  r5, r20, r13
        mac  r5, r21, r14
        mac  r5, r22, r15
        mac  r5, r23, r16
        mac  r5, r24, r17
        mac  r5, r25, r18
        mac  r5, r26, r19
        add  r26, r25, r0         ; shift the history window
        add  r25, r24, r0
        add  r24, r23, r0
        add  r23, r22, r0
        add  r22, r21, r0
        add  r21, r20, r0
        add  r20, r4, r0
        srai r5, r5, 5            ; normalize by the tap sum (30 -> >>5)
        sw   r5, 0(r2)
        addi r2, r2, 4
fir_end:
        halt
""", entry_regs=frozenset({1, 2, 3}))

#: Soft 4-bin orientation response (HOG-style cell descriptor): r3
#: packed gradient words ((gy << 16) | gx) at [r1], one response word
#: each -> [r2].  Each input costs a single load against ~26 ALU ops
#: (unpack + 4 projections with rectification) — the most arithmetic-
#: intense builtin.
MAG_HIST_I32 = _builtin("mag_hist_i32", """
        addi r12, r0, 4           ; bin 0: (4, 0)
        addi r13, r0, 0
        addi r14, r0, 3           ; bin 1: (3, 3)
        addi r15, r0, 3
        addi r16, r0, 0           ; bin 2: (0, 4)
        addi r17, r0, 4
        addi r18, r0, -3          ; bin 3: (-3, 3)
        addi r19, r0, 3
        hwloop r3, hist_end
        lw   r4, 0(r1)            ; packed (gy << 16) | gx
        addi r1, r1, 4
        slli r5, r4, 16
        srai r5, r5, 16           ; gx, sign-extended
        srai r6, r4, 16           ; gy
        addi r9, r0, 0            ; response accumulator
        addi r7, r0, 0
        mac  r7, r5, r12
        mac  r7, r6, r13
        max  r7, r7, r0
        add  r9, r9, r7
        addi r7, r0, 0
        mac  r7, r5, r14
        mac  r7, r6, r15
        max  r7, r7, r0
        add  r9, r9, r7
        addi r7, r0, 0
        mac  r7, r5, r16
        mac  r7, r6, r17
        max  r7, r7, r0
        add  r9, r9, r7
        addi r7, r0, 0
        mac  r7, r5, r18
        mac  r7, r6, r19
        max  r7, r7, r0
        add  r9, r9, r7
        srai r9, r9, 2
        sw   r9, 0(r2)
        addi r2, r2, 4
hist_end:
        halt
""", entry_regs=frozenset({1, 2, 3}))


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_memcpy(data: bytes, machine: Optional[Machine] = None
               ) -> Tuple[bytes, ExecutionResult]:
    """Copy *data* (a multiple of 4 bytes) through MEMCPY_WORDS."""
    if len(data) % 4:
        raise KernelError("memcpy operates on whole words")
    machine = machine if machine is not None else Machine()
    src, dst = 0x100, 0x100 + len(data) + 64
    machine.write_block(src, data)
    machine.registers[1] = src
    machine.registers[2] = dst
    machine.registers[3] = len(data) // 4
    result = machine.run(MEMCPY_WORDS)
    return machine.read_block(dst, len(data)), result


def run_vector_add_i8(a: np.ndarray, b: np.ndarray,
                      machine: Optional[Machine] = None
                      ) -> Tuple[np.ndarray, ExecutionResult]:
    """Lane-wise int8 add of two equal-length arrays (length % 4 == 0)."""
    a = np.asarray(a, dtype=np.int8)
    b = np.asarray(b, dtype=np.int8)
    if a.shape != b.shape or a.ndim != 1 or len(a) % 4:
        raise KernelError("vector add needs equal 1-D int8 arrays, len % 4 == 0")
    machine = machine if machine is not None else Machine()
    base_a, base_b, base_c = 0x100, 0x1100, 0x2100
    machine.write_block(base_a, a.tobytes())
    machine.write_block(base_b, b.tobytes())
    machine.registers[1] = base_a
    machine.registers[2] = base_b
    machine.registers[3] = base_c
    machine.registers[4] = len(a) // 4
    result = machine.run(VECTOR_ADD_I8)
    out = np.frombuffer(machine.read_block(base_c, len(a)), dtype=np.int8)
    return out.copy(), result


def run_dot_product_i8(a: np.ndarray, b: np.ndarray,
                       machine: Optional[Machine] = None
                       ) -> Tuple[int, ExecutionResult]:
    """int8 dot product; returns the 32-bit accumulator."""
    a = np.asarray(a, dtype=np.int8)
    b = np.asarray(b, dtype=np.int8)
    if a.shape != b.shape or a.ndim != 1:
        raise KernelError("dot product needs equal 1-D int8 arrays")
    machine = machine if machine is not None else Machine()
    base_a, base_b = 0x100, 0x1100
    machine.write_block(base_a, a.tobytes())
    machine.write_block(base_b, b.tobytes())
    machine.registers[1] = base_a
    machine.registers[2] = base_b
    machine.registers[3] = len(a)
    result = machine.run(DOT_PRODUCT_I8)
    return result.registers[10], result


def run_matmul_i8_parallel(a: np.ndarray, b: np.ndarray, cores: int = 4,
                           banks: int = 8):
    """Row-partitioned char matmul on the lockstep multicore cluster.

    Returns ``(c, MulticoreResult)``; the result's per-core statistics
    expose the instruction-level bank-conflict behaviour the analytic
    contention model abstracts.
    """
    from repro.machine.multicore import SharedMemoryCluster
    from repro.pulp.timing import chunk_trips

    a = np.asarray(a, dtype=np.int8)
    b = np.asarray(b, dtype=np.int8)
    if a.ndim != 2 or a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise KernelError("matmul needs two equal square int8 matrices")
    n = a.shape[0]
    cluster = SharedMemoryCluster(cores=cores, banks=banks)
    base_a, base_b, base_c = 0x100, 0x100 + n * n + 64, 0x100 + 2 * (n * n + 64)
    cluster.write_block(base_a, a.tobytes())
    cluster.write_block(base_b, b.tobytes())
    chunks = chunk_trips(n, cores)
    presets = []
    row = 0
    for chunk in chunks:
        presets.append({1: base_a, 2: base_b, 3: base_c,
                        4: n, 5: row, 16: row + chunk})
        row += chunk
    result = cluster.run([MATMUL_ROWS_I8] * len(chunks),
                         register_presets=presets)
    out = np.frombuffer(cluster.read_block(base_c, n * n), dtype=np.int8)
    return out.reshape(n, n).copy(), result


def profile_builtin(name: str):
    """Profile one built-in kernel on canonical deterministic inputs.

    Returns a :class:`~repro.machine.profiler.ProfiledRun` whose per-PC
    cycle attribution feeds the flamegraph exporter
    (:func:`repro.obs.export.collapsed_stacks`).
    """
    from repro.machine.profiler import ProfilingMachine

    if name not in BUILTIN_PROGRAMS:
        raise KernelError(
            f"unknown builtin {name!r}; have {sorted(BUILTIN_PROGRAMS)}")
    machine = ProfilingMachine()
    n = 8
    pattern = np.arange(64, dtype=np.int8)
    square = (np.arange(n * n, dtype=np.int32) % 13 - 6).astype(np.int8)
    if name == "memcpy_words":
        data = pattern.tobytes()
        src, dst = 0x100, 0x100 + len(data) + 64
        machine.write_block(src, data)
        machine.registers[1] = src
        machine.registers[2] = dst
        machine.registers[3] = len(data) // 4
        program = MEMCPY_WORDS
    elif name == "vector_add_i8":
        base_a, base_b, base_c = 0x100, 0x1100, 0x2100
        machine.write_block(base_a, pattern.tobytes())
        machine.write_block(base_b, pattern[::-1].copy().tobytes())
        machine.registers[1] = base_a
        machine.registers[2] = base_b
        machine.registers[3] = base_c
        machine.registers[4] = len(pattern) // 4
        program = VECTOR_ADD_I8
    elif name == "dot_product_i8":
        base_a, base_b = 0x100, 0x1100
        machine.write_block(base_a, pattern.tobytes())
        machine.write_block(base_b, pattern[::-1].copy().tobytes())
        machine.registers[1] = base_a
        machine.registers[2] = base_b
        machine.registers[3] = len(pattern)
        program = DOT_PRODUCT_I8
    elif name in ("dwconv3_i8", "fir8_i32", "mag_hist_i32"):
        base_a, base_b = 0x100, 0x1100
        machine.write_block(base_a, pattern.astype(np.int32).tobytes())
        machine.registers[1] = base_a
        machine.registers[2] = base_b
        machine.registers[3] = len(pattern)
        program = {"dwconv3_i8": DWCONV3_I8, "fir8_i32": FIR8_I32,
                   "mag_hist_i32": MAG_HIST_I32}[name]
    else:
        base_a = 0x100
        base_b = 0x100 + n * n + 64
        base_c = 0x100 + 2 * (n * n + 64)
        machine.write_block(base_a, square.tobytes())
        machine.write_block(base_b, square[::-1].copy().tobytes())
        machine.registers[1] = base_a
        machine.registers[2] = base_b
        machine.registers[3] = base_c
        machine.registers[4] = n
        if name == "matmul_rows_i8":
            machine.registers[5] = 0
            machine.registers[16] = n
            program = MATMUL_ROWS_I8
        else:
            program = MATMUL_I8
    return machine.run_profiled(program)


def run_matmul_i8(a: np.ndarray, b: np.ndarray,
                  machine: Optional[Machine] = None
                  ) -> Tuple[np.ndarray, ExecutionResult]:
    """char matmul, matching ``MatmulKernel("char").compute`` exactly."""
    a = np.asarray(a, dtype=np.int8)
    b = np.asarray(b, dtype=np.int8)
    if a.ndim != 2 or a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise KernelError("matmul needs two equal square int8 matrices")
    n = a.shape[0]
    machine = machine if machine is not None else Machine()
    base_a, base_b, base_c = 0x100, 0x100 + n * n + 64, 0x100 + 2 * (n * n + 64)
    machine.write_block(base_a, a.tobytes())
    machine.write_block(base_b, b.tobytes())
    machine.registers[1] = base_a
    machine.registers[2] = base_b
    machine.registers[3] = base_c
    machine.registers[4] = n
    result = machine.run(MATMUL_I8)
    out = np.frombuffer(machine.read_block(base_c, n * n), dtype=np.int8)
    return out.reshape(n, n).copy(), result
