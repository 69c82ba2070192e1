"""Tests for the OR10N-mini ISS: encoding, assembler, interpreter,
assembly kernels, and the cross-check against the analytic cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IsaError, KernelError, SimulationError
from repro.isa.costs import or10n_costs
from repro.isa.vop import OpKind
from repro.machine import (
    Machine,
    Opcode,
    SharedMemoryCluster,
    assemble,
    decode,
    encode,
)
from repro.machine.assembler import disassemble
from repro.machine.encoding import BRANCHES, I_TYPE, LOADS, STORES, Instruction
from repro.machine.programs import (
    run_dot_product_i8,
    run_matmul_i8,
    run_memcpy,
    run_vector_add_i8,
)


class TestEncoding:
    def test_r_type_roundtrip(self):
        instruction = Instruction(Opcode.MAC, rd=5, ra=12, rb=31)
        assert decode(encode(instruction)) == instruction

    def test_i_type_roundtrip_negative_imm(self):
        instruction = Instruction(Opcode.ADDI, rd=1, ra=2, imm=-1234)
        assert decode(encode(instruction)) == instruction

    def test_hwloop_roundtrip(self):
        instruction = Instruction(Opcode.HWLOOP, ra=3, imm=17)
        assert decode(encode(instruction)) == instruction

    def test_unknown_opcode_rejected(self):
        with pytest.raises(IsaError):
            decode(0x3A << 26)

    def test_register_range_validated(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.ADD, rd=32)

    def test_immediate_range_validated(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.ADDI, rd=1, ra=1, imm=1 << 20)

    @given(st.sampled_from(list(Opcode)),
           st.integers(0, 31), st.integers(0, 31), st.integers(0, 31),
           st.integers(-(1 << 11), (1 << 11) - 1))
    @settings(max_examples=200)
    def test_roundtrip_property(self, opcode, rd, ra, rb, imm):
        if opcode in I_TYPE:
            instruction = Instruction(opcode, rd=rd, ra=ra, imm=imm)
        elif opcode is Opcode.HWLOOP:
            instruction = Instruction(opcode, ra=ra, rb=rb,
                                      imm=abs(imm) & 0x7FF)
        else:
            instruction = Instruction(opcode, rd=rd, ra=ra, rb=rb)
        assert decode(encode(instruction)) == instruction


class TestAssembler:
    def test_basic_program(self):
        program = assemble("""
            addi r1, r0, 5
            add  r2, r1, r1
            halt
        """)
        assert [i.opcode for i in program] == [Opcode.ADDI, Opcode.ADD,
                                               Opcode.HALT]

    def test_comments_and_blank_lines(self):
        program = assemble("""
            ; leading comment

            addi r1, r0, 1   # trailing comment
            halt
        """)
        assert len(program) == 2

    def test_label_branch_resolution(self):
        program = assemble("""
        top:
            addi r1, r1, 1
            bne  r1, r2, top
            halt
        """)
        # Branch at index 1 targets index 0: offset relative to pc+1 = -2.
        assert program[1].imm == -2

    def test_forward_label(self):
        program = assemble("""
            beq r0, r0, done
            addi r1, r0, 1
        done:
            halt
        """)
        assert program[0].imm == 1

    def test_memory_operand_syntax(self):
        program = assemble("lw r4, -8(r2)\nhalt")
        assert program[0].ra == 2
        assert program[0].imm == -8

    def test_duplicate_label_rejected(self):
        with pytest.raises(IsaError):
            assemble("x:\nhalt\nx:\nhalt")

    def test_unknown_mnemonic(self):
        with pytest.raises(IsaError):
            assemble("frobnicate r1, r2, r3")

    def test_unknown_label(self):
        with pytest.raises(IsaError):
            assemble("jump nowhere")

    def test_operand_count_enforced(self):
        with pytest.raises(IsaError):
            assemble("add r1, r2")

    def test_hwloop_body_required(self):
        with pytest.raises(IsaError):
            assemble("end:\nhwloop r1, end\nhalt")

    def test_disassemble_reparses(self):
        source = """
            addi r1, r0, 3
            lw   r2, 4(r1)
            mac  r3, r2, r2
            sb   r3, 0(r1)
            halt
        """
        program = assemble(source)
        again = assemble(disassemble(program))
        assert again == program

    def test_disassemble_reparses_hwloop(self):
        """hwloop operands are absolute end positions in assembly but
        body lengths in Instruction.imm; disassemble must bridge the
        two with synthetic end labels."""
        program = assemble("""
            hwloop r3, copy_end
            lw   r4, 0(r1)
            sw   r4, 0(r2)
        copy_end:
            halt
        """)
        again = assemble(disassemble(program))
        assert again == program


class TestAssemblerDiagnostics:
    def test_errors_carry_line_numbers(self):
        with pytest.raises(IsaError, match="line 3"):
            assemble("addi r1, r0, 1\nhalt\nfrobnicate r1")

    def test_bad_operand_line_number(self):
        with pytest.raises(IsaError, match="line 2"):
            assemble("halt\nadd r1, r2")

    def test_duplicate_label_line_number(self):
        with pytest.raises(IsaError, match="line 3"):
            assemble("x:\nhalt\nx:\nhalt")

    def test_assemble_unit_maps_lines(self):
        from repro.machine.assembler import assemble_unit
        unit = assemble_unit("""
            addi r1, r0, 1

            addi r2, r0, 2
            halt
        """)
        assert unit.lines == (2, 4, 5)
        assert len(unit) == 3
        assert unit.labels == {}

    def test_branch_target_past_end_rejected(self):
        with pytest.raises(IsaError, match="outside program"):
            assemble("beq r1, r2, 5\nhalt")

    def test_negative_jump_target_rejected(self):
        with pytest.raises(IsaError, match="outside program"):
            assemble("halt\njump -10\nhalt")

    def test_branch_to_program_end_is_allowed(self):
        # Falling off the end terminates cleanly; the analyzer warns
        # (OR005) but the assembler accepts it.
        program = assemble("beq r1, r2, 1\nhalt")
        assert program[0].imm == 1

    def test_hwloop_end_past_last_instruction_rejected(self):
        with pytest.raises(IsaError, match="past the last"):
            assemble("hwloop r1, 5\naddi r2, r2, 1\nhalt")


class TestInterpreter:
    def _run(self, source, setup=None):
        machine = Machine()
        if setup:
            setup(machine)
        return machine, machine.run(assemble(source))

    def test_alu_basics(self):
        _, result = self._run("""
            addi r1, r0, 7
            addi r2, r0, 5
            sub  r3, r1, r2
            mul  r4, r1, r2
            halt
        """)
        assert result.registers[3] == 2
        assert result.registers[4] == 35

    def test_r0_hardwired_zero(self):
        _, result = self._run("""
            addi r0, r0, 99
            add  r1, r0, r0
            halt
        """)
        assert result.registers[0] == 0
        assert result.registers[1] == 0

    def test_mac_accumulates(self):
        _, result = self._run("""
            addi r1, r0, 3
            addi r2, r0, 4
            addi r3, r0, 10
            mac  r3, r1, r2
            mac  r3, r1, r2
            halt
        """)
        assert result.registers[3] == 10 + 12 + 12

    def test_wrapping_arithmetic(self):
        _, result = self._run("""
            addi r1, r0, 1
            slli r1, r1, 31
            addi r1, r1, -1
            addi r1, r1, 1
            halt
        """)
        assert result.registers[1] == -(1 << 31)

    def test_memory_roundtrip_and_sign_extension(self):
        def setup(machine):
            machine.write_block(0x10, (200).to_bytes(1, "little"))
        _, result = self._run("""
            lb r1, 16(r0)
            halt
        """, setup)
        assert result.registers[1] == 200 - 256

    def test_simd_add4_lanes(self):
        machine = Machine()
        machine.registers[1] = int.from_bytes(
            np.array([1, -2, 127, -128], dtype=np.int8).tobytes(),
            "little", signed=False)
        machine.registers[2] = int.from_bytes(
            np.array([1, -2, 1, -1], dtype=np.int8).tobytes(),
            "little", signed=False)
        result = machine.run(assemble("add4 r3, r1, r2\nhalt"))
        lanes = np.frombuffer(
            (result.registers[3] & 0xFFFFFFFF).to_bytes(4, "little"),
            dtype=np.int8)
        assert list(lanes) == [2, -4, -128, 127]  # lanes wrap

    def test_branch_loop(self):
        _, result = self._run("""
            addi r1, r0, 0
            addi r2, r0, 10
        loop:
            addi r1, r1, 1
            blt  r1, r2, loop
            halt
        """)
        assert result.registers[1] == 10

    def test_hwloop_zero_trips_skips_body(self):
        _, result = self._run("""
            addi r1, r0, 0
            addi r2, r0, 0
            hwloop r1, end
            addi r2, r2, 1
        end:
            halt
        """)
        assert result.registers[2] == 0

    def test_hwloop_iterates_without_branch_cost(self):
        machine = Machine()
        machine.registers[1] = 100
        result = machine.run(assemble("""
            hwloop r1, end
            addi r2, r2, 1
        end:
            halt
        """))
        assert result.registers[2] == 100
        # setup(2) + 100 adds (1 each) + halt(1): back edges free.
        assert result.cycles == 2 + 100 + 1

    def test_nested_hwloops(self):
        machine = Machine()
        machine.registers[1] = 5
        machine.registers[2] = 4
        result = machine.run(assemble("""
            hwloop r1, outer_end
            addi r4, r2, 0
            hwloop r4, inner_end
            addi r3, r3, 1
        inner_end:
            addi r5, r5, 1
        outer_end:
            halt
        """))
        assert result.registers[3] == 20
        assert result.registers[5] == 5

    def test_hwloop_nesting_limit(self):
        machine = Machine()
        for reg in (1, 2, 3):
            machine.registers[reg] = 2
        with pytest.raises(SimulationError):
            machine.run(assemble("""
                hwloop r1, e1
                hwloop r2, e2
                hwloop r3, e3
                addi r4, r4, 1
            e3:
                addi r5, r5, 1
            e2:
                addi r6, r6, 1
            e1:
                halt
            """))

    def test_runaway_detection(self):
        with pytest.raises(SimulationError):
            Machine().run(assemble("jump -1\nhalt"), max_steps=1000)

    def test_memory_bounds_checked(self):
        with pytest.raises(SimulationError):
            Machine(memory_size=64).run(assemble("lw r1, 100(r0)\nhalt"))

    def test_load_costs_two_cycles(self):
        _, result = self._run("lw r1, 0(r0)\nhalt")
        assert result.cycles == 2 + 1


class TestAssemblyKernels:
    def test_memcpy(self):
        data = bytes(range(256)) * 2
        out, result = run_memcpy(data)
        assert out == data
        assert result.loads == len(data) // 4
        assert result.stores == len(data) // 4

    def test_vector_add_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.integers(-128, 128, 64).astype(np.int8)
        b = rng.integers(-128, 128, 64).astype(np.int8)
        out, _ = run_vector_add_i8(a, b)
        expected = (a.astype(np.int16) + b).astype(np.int8)  # wrapping
        assert np.array_equal(out, expected)

    def test_dot_product_matches_numpy(self):
        rng = np.random.default_rng(2)
        a = rng.integers(-128, 128, 100).astype(np.int8)
        b = rng.integers(-128, 128, 100).astype(np.int8)
        value, _ = run_dot_product_i8(a, b)
        assert value == int(a.astype(np.int64) @ b.astype(np.int64))

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_matmul_matches_analytic_kernel(self, n):
        from repro.kernels.matmul import MatmulKernel
        kernel = MatmulKernel("char", n=n)
        inputs = kernel.generate_inputs(5)
        expected = kernel.compute(inputs)["c"]
        out, result = run_matmul_i8(inputs["a"], inputs["b"])
        assert np.array_equal(out, expected)
        assert result.halted

    def test_matmul_shape_validation(self):
        with pytest.raises(KernelError):
            run_matmul_i8(np.zeros((4, 4), dtype=np.int8),
                          np.zeros((8, 8), dtype=np.int8))

    def test_vector_add_simd_speedup(self):
        """The instruction-level counterpart of the SIMD model: lanewise
        add4 processes 4 elements per iteration."""
        rng = np.random.default_rng(3)
        a = rng.integers(-100, 100, 64).astype(np.int8)
        b = rng.integers(-100, 100, 64).astype(np.int8)
        _, vectorized = run_vector_add_i8(a, b)
        # A scalar equivalent touches each byte individually.
        scalar = Machine()
        scalar.write_block(0x100, a.tobytes())
        scalar.write_block(0x1100, b.tobytes())
        scalar.registers[1] = 0x100
        scalar.registers[2] = 0x1100
        scalar.registers[3] = 0x2100
        scalar.registers[4] = len(a)
        scalar_result = scalar.run(assemble("""
            hwloop r4, end
            lb   r5, 0(r1)
            lb   r6, 0(r2)
            add  r7, r5, r6
            sb   r7, 0(r3)
            addi r1, r1, 1
            addi r2, r2, 1
            addi r3, r3, 1
        end:
            halt
        """))
        assert vectorized.cycles < scalar_result.cycles / 2.5


class TestIssVsAnalyticModel:
    def test_dot_product_cycles_track_cost_table(self):
        """The ISS inner loop (lb, lb, mac, addi, add under a hwloop)
        costs 8 cycles/element; the analytic model's equivalent body
        (LOAD, LOAD, MAC with folded address updates) costs 5.  The
        difference is exactly the two explicit pointer bumps the
        mini-ISA lacks post-increment addressing for, plus the wider
        second add."""
        from repro.isa.or10n import Or10nTarget
        from repro.isa.program import Block, Loop, Program
        from repro.isa.vop import DType, addr, load, mac

        n = 200
        a = np.ones(n, dtype=np.int8)
        _, iss = run_dot_product_i8(a, a)
        iss_per_element = (iss.cycles - 5) / n  # minus setup/halt-ish

        program = Program("dot", [Loop(n, [Block([
            load(DType.I8), load(DType.I8), mac(DType.I8), addr(count=2),
        ])])])
        analytic = Or10nTarget().lower(program)
        analytic_per_element = analytic.cycles / n
        # ISS pays 2 extra explicit address adds per element.
        assert iss_per_element == pytest.approx(analytic_per_element + 2,
                                                abs=0.3)


#: The OR10N cost-table entry of every opcode the ISS charges a fixed
#: cost for: memory, scalar ALU and sub-word SIMD lanes (ADD4/SUB4 add
#: and subtract four int8 lanes in one instruction).
_TABLE_KINDS = {
    **{opcode: OpKind.LOAD for opcode in LOADS},
    **{opcode: OpKind.STORE for opcode in STORES},
    Opcode.ADD: OpKind.ADD, Opcode.ADDI: OpKind.ADD, Opcode.ADD4: OpKind.ADD,
    Opcode.SUB: OpKind.SUB, Opcode.SUB4: OpKind.SUB,
    Opcode.MUL: OpKind.MUL, Opcode.MULI: OpKind.MUL, Opcode.MAC: OpKind.MAC,
    Opcode.AND: OpKind.LOGIC, Opcode.OR: OpKind.LOGIC,
    Opcode.XOR: OpKind.LOGIC, Opcode.ANDI: OpKind.LOGIC,
    Opcode.SLL: OpKind.SHIFT, Opcode.SRA: OpKind.SHIFT,
    Opcode.SLLI: OpKind.SHIFT, Opcode.SRAI: OpKind.SHIFT,
    Opcode.MIN: OpKind.MINMAX, Opcode.MAX: OpKind.MINMAX,
}
_CHARGED = sorted(_TABLE_KINDS) + [Opcode.HWLOOP]


def _table_cycles(opcode):
    costs = or10n_costs()
    if opcode is Opcode.HWLOOP:
        return costs.hwloop_setup_cycles
    return costs.op_cycles[_TABLE_KINDS[opcode]]


def _one_instruction(opcode):
    """*opcode* alone, then HALT; a zero-trip hardware loop, memory at
    a valid address."""
    if opcode is Opcode.HWLOOP:
        instruction = Instruction(opcode, ra=0, imm=0)
    elif opcode in LOADS or opcode in STORES:
        instruction = Instruction(opcode, rd=1, ra=0, imm=0x100)
    elif opcode in I_TYPE:
        instruction = Instruction(opcode, rd=1, ra=2, imm=3)
    else:
        instruction = Instruction(opcode, rd=1, ra=2, rb=3)
    return [instruction, Instruction(Opcode.HALT)]


class TestIssChargesMatchCostTable:
    """The ISS charges each instruction the cycles the analytic OR10N
    table (:func:`~repro.isa.costs.or10n_costs`) gives its op kind, so
    the two models agree by test, not by docstring."""

    def test_every_opcode_is_charged_or_control_flow(self):
        control = BRANCHES | {Opcode.HWLOOP, Opcode.BARRIER, Opcode.HALT}
        assert set(_TABLE_KINDS) | control == set(Opcode)

    @pytest.mark.parametrize("opcode", _CHARGED, ids=lambda op: op.name)
    def test_interpreter_charge(self, opcode):
        halt = Machine().run([Instruction(Opcode.HALT)]).cycles
        cycles = Machine().run(_one_instruction(opcode)).cycles
        assert cycles - halt == _table_cycles(opcode)

    @pytest.mark.parametrize("opcode", _CHARGED, ids=lambda op: op.name)
    def test_lockstep_charge(self, opcode):
        halt = SharedMemoryCluster(cores=1).run(
            [[Instruction(Opcode.HALT)]]).wall_cycles
        cycles = SharedMemoryCluster(cores=1).run(
            [_one_instruction(opcode)]).wall_cycles
        assert cycles - halt == _table_cycles(opcode)

