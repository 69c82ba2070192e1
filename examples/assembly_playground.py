#!/usr/bin/env python3
"""Assembly playground: the OR10N-mini ISS next to the analytic model.

Shows the library's two lowest abstraction levels agreeing with each
other: a hand-written assembly matmul runs instruction-by-instruction on
the OR10N-mini machine and reproduces `MatmulKernel("char")` bit-exactly,
and the ISS's cycles are set against the analytic OR10N cost table.

Run:  python examples/assembly_playground.py
"""

import numpy as np

from repro.kernels import MatmulKernel
from repro.machine import MATMUL_I8, Machine, assemble
from repro.machine.assembler import disassemble
from repro.machine.programs import run_dot_product_i8, run_matmul_i8


def matmul_bit_exactness() -> None:
    print("1) assembly matmul vs the analytic kernel (bit-exact)")
    kernel = MatmulKernel("char", n=12)
    inputs = kernel.generate_inputs(seed=42)
    expected = kernel.compute(inputs)["c"]
    out, result = run_matmul_i8(inputs["a"], inputs["b"])
    print(f"   12x12 matmul: outputs equal = {np.array_equal(out, expected)}")
    print(f"   {result.instructions:,} instructions, "
          f"{result.cycles:,.0f} cycles "
          f"({result.cycles / 12 ** 3:.2f} cycles/element, scalar code)")
    print()


def disassembly_sample() -> None:
    print("2) the matmul inner loop, disassembled")
    for line in disassemble(MATMUL_I8).splitlines()[7:13]:
        print(f"   {line}")
    print()


def custom_kernel() -> None:
    print("3) write your own: saturating absolute-difference sum")
    source = """
        ; r1 = a base, r2 = b base, r3 = n, result in r10
        addi r10, r0, 0
        hwloop r3, end
        lb   r4, 0(r1)
        lb   r5, 0(r2)
        sub  r6, r4, r5
        addi r7, r0, -1
        mul  r7, r6, r7          ; -diff
        max  r6, r6, r7          ; |diff|
        add  r10, r10, r6
        addi r1, r1, 1
        addi r2, r2, 1
    end:
        halt
    """
    program = assemble(source)
    rng = np.random.default_rng(7)
    a = rng.integers(-100, 100, 64).astype(np.int8)
    b = rng.integers(-100, 100, 64).astype(np.int8)
    machine = Machine()
    machine.write_block(0x100, a.tobytes())
    machine.write_block(0x800, b.tobytes())
    machine.registers[1] = 0x100
    machine.registers[2] = 0x800
    machine.registers[3] = len(a)
    result = machine.run(program)
    expected = int(np.abs(a.astype(np.int32) - b).sum())
    print(f"   SAD of 64 elements: {result.registers[10]} "
          f"(numpy: {expected}) in {result.cycles:.0f} cycles")
    print()


def iss_vs_model() -> None:
    print("4) ISS cycles vs the analytic cost table (dot product)")
    a = np.ones(256, dtype=np.int8)
    _, result = run_dot_product_i8(a, a)
    per_element = result.cycles / 256
    print(f"   ISS: {per_element:.2f} cycles/element "
          "(lb+lb+mac+2 explicit pointer adds)")
    print("   model: 5.00 cycles/element (address updates folded into "
          "post-increment loads)")
    print("   difference = the 2 addressing instructions the mini-ISA "
          "spends explicitly")


def main() -> None:
    matmul_bit_exactness()
    disassembly_sample()
    custom_kernel()
    iss_vs_model()


if __name__ == "__main__":
    main()
