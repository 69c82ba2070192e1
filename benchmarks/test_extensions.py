"""Benches for the extension models: DES executor validation, noisy-link
overhead, the multicore ISS, the MCU efficiency grid, and the ISS-vs-model
bridge."""

import numpy as np

from repro.isa.or10n import Or10nTarget
from repro.kernels.matmul import MatmulKernel
from repro.kernels.svm import SvmKernel
from repro.link.noise import NoisyChannel, RetransmittingSender
from repro.link.protocol import Command, Frame
from repro.machine.programs import run_matmul_i8
from repro.pulp.executor import CycleLevelExecutor

from .conftest import save_result


def test_des_executor_validation():
    """Cycle-level cluster vs analytic model on scaled-down kernels."""

    rows = []
    for kernel in (MatmulKernel("char", n=16),
                   MatmulKernel("fixed", n=16),
                   SvmKernel("linear", dimensions=32, support_vectors=8,
                             test_vectors=8, classes=4)):
        executor = CycleLevelExecutor(Or10nTarget(), threads=4)
        result = executor.execute(kernel.build_program())
        rows.append((kernel.name, result.wall_cycles,
                     result.analytic_cycles, result.deviation))
    lines = ["DES cluster vs analytic timing (4 threads, small configs):",
             f"  {'kernel':16s} {'DES':>10s} {'analytic':>10s} {'dev':>7s}"]
    for name, des, analytic, deviation in rows:
        lines.append(f"  {name:16s} {des:10,.0f} {analytic:10,.0f} "
                     f"{deviation:6.1%}")
    save_result("extension_des_validation", "\n".join(lines))
    for name, _, _, deviation in rows:
        assert deviation < 0.05, name


def test_noisy_link_overhead():
    """Retransmission overhead vs bit error rate (failure injection)."""

    rows = []
    for ber in (1e-6, 1e-5, 1e-4, 5e-4):
        sender = RetransmittingSender(NoisyChannel(ber, seed=13),
                                      max_attempts=256)
        for index in range(12):
            frame = Frame(Command.WRITE_DATA, index * 512, bytes(512))
            sender.send(frame)
        rows.append((ber, sender.retransmission_overhead))
    lines = ["retransmission overhead vs BER (512-byte frames):"]
    for ber, overhead in rows:
        lines.append(f"  BER {ber:8.0e}: +{overhead:6.1%} wire traffic")
    save_result("extension_noisy_link", "\n".join(lines))
    overheads = [overhead for _, overhead in rows]
    assert overheads[0] <= overheads[-1]
    assert overheads[0] < 0.05


def test_multicore_iss_parallel_speedup():
    """Instruction-level Figure 4 (right): the lockstep 4-core cluster
    on a row-partitioned assembly matmul."""
    from repro.machine.programs import run_matmul_i8_parallel

    kernel = MatmulKernel("char", n=16)
    inputs = kernel.generate_inputs(4)
    expected = kernel.compute(inputs)["c"]
    _, single = run_matmul_i8(inputs["a"], inputs["b"])

    out, multi = run_matmul_i8_parallel(inputs["a"], inputs["b"])
    assert np.array_equal(out, expected)
    speedup = single.cycles / multi.wall_cycles
    save_result("extension_multicore_iss",
                f"lockstep 4-core ISS, 16x16 char matmul:\n"
                f"  single-core {single.cycles:,.0f} cycles, "
                f"4-core wall {multi.wall_cycles:,} cycles\n"
                f"  parallel speedup {speedup:.2f}x "
                f"(analytic model: ~3.9x)\n"
                f"  bank conflict rate {multi.conflict_rate:.1%} over "
                f"{multi.bank_accesses:,} accesses")
    assert 3.4 < speedup <= 4.0


def test_mcu_efficiency_grid():
    """Figure 3's comparison extended to all ten kernels (its claims:
    tests/test_profiler_grid.py::TestMcuGrid)."""
    from repro.experiments import mcu_grid

    save_result("extension_mcu_grid", mcu_grid.render(mcu_grid.run()))


def test_iss_bridge():
    """The ISS executes the real matmul and matches the kernel bit-exactly."""
    kernel = MatmulKernel("char", n=12)
    inputs = kernel.generate_inputs(3)
    expected = kernel.compute(inputs)["c"]

    out, result = run_matmul_i8(inputs["a"], inputs["b"])
    assert np.array_equal(out, expected)
    save_result("extension_iss_bridge",
                f"OR10N-mini ISS, 12x12 char matmul:\n"
                f"  bit-exact vs analytic kernel: "
                f"{np.array_equal(out, expected)}\n"
                f"  {result.instructions:,} instructions, "
                f"{result.cycles:,.0f} cycles "
                f"({result.cycles / 12 ** 3:.2f} cycles/element)")
