"""The staged, memoized pricing pipeline.

Pricing an offload (Section IV-B) runs four stages, and each reads only
part of a configuration.  Every stage is memoized on exactly the inputs
it reads (its key, in parentheses), so a sweep over host clock, budget,
link, cluster size, iterations and schedule characterizes each kernel
once and looks the rest up:

* :func:`verify` (kernel) — the functional round trip of
  :meth:`~repro.core.system.HeterogeneousSystem.round_trip`: inputs,
  ``compute``, serialization, frame encode/decode and the byte check;
* :func:`characterize` (kernel, threads, OR10N cost table) — binary
  size, the system's ``DeviceOpenMp.execute`` and the activity profile
  of the kernel's program; :func:`host_run` (kernel, host device)
  memoizes the host-only baseline lowering of
  ``HeterogeneousSystem.run_on_host`` alongside, and :func:`risc_ops`
  (kernel) Table I's RISC-op count, the program's instructions on the
  baseline RISC target.  These three and :func:`verify` read one
  program per kernel, :func:`program`, built once by
  ``Kernel.build_program`` and memoized on the kernel (programs are
  frozen, so sharing one is safe);
* :func:`operating_point` (budget, link reserve, host device, power
  model, host clock, activity fractions) — ``PowerEnvelopeSolver.solve``;
* :func:`price` (link, tying, iterations, buffering) —
  ``OffloadCostModel.offload_timing``; cheap, so not memoized.

Kernels key on :meth:`~repro.kernels.base.Kernel.memo_key`; cost
tables, host devices, power models and activities on flat tuples of
their values, built once per object
(:attr:`~repro.isa.costs.TargetCosts.memo_key`,
:attr:`~repro.mcu.device.McuDevice.memo_key`,
:attr:`~repro.power.pulp_model.PulpPowerModel.memo_key` and
:attr:`~repro.power.activity.ActivityProfile.fractions_key`, which
leaves out the activity's name), so a warm envelope lookup hashes and
compares its key without calling Python code.  Two callers share an
entry exactly when every input the stage reads is equal: kernels whose
activities differ only in name share their envelope solves.  Every
:class:`~repro.core.system.HeterogeneousSystem` runs the static OpenMP
runtime on an OR10N target, so its thread count and the target's cost
table are all characterization reads of it.  Systems built without a
target share one, so the paper, the DSE and serving get one entry per
kernel and thread count; a system on a perturbed table gets its own.
Verification runs on a fresh default system, whose round trip reads
nothing but the kernel.

Every caller that prices a kernel goes through these stages:

* the paper's experiments (Table I, Figures 3, 4, 5a and 5b), and,
  through Figure 3's sweep, the all-kernel MCU grid and the calibration
  sensitivity;
* the DSE and serving layers;
* the dual-task and sensor models and the fault-tolerant offload of
  :class:`~repro.faults.resilient.ResilientDriver`, which take their
  execution, activity, timing and host baseline from here;
* the cycle breakdown, the binary library planner, ``repro trace``'s
  DES lanes and the ``sim`` bench suite, which read :func:`program`.

The memos live for the process: they start empty, are filled on
demand and are never written to disk.  Stage results are shared between
callers and must be treated as read-only (verified output arrays are
write-protected).  Under an enabled telemetry hub, a stage's spans
appear once per memo miss.

:func:`offload` composes the stages into the
:class:`~repro.core.system.OffloadResult` a fresh system's
:meth:`~repro.core.system.HeterogeneousSystem.offload` returns, bit for
bit and error for error; that method stays the reference oracle the
staged path is differential-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.envelope import EnvelopePoint, PowerEnvelopeSolver
from repro.core.offload import OffloadCostModel, OffloadTiming
from repro.core.system import (HeterogeneousSystem, HostRun, OffloadResult,
                               require_accelerator)
from repro.isa.baseline import BaselineRiscTarget
from repro.isa.program import Program
from repro.kernels.base import Arrays, Kernel
from repro.mcu.stm32l476 import Stm32L476
from repro.power.activity import ActivityProfile
from repro.pulp.binary import KernelBinary
from repro.runtime.omp import ParallelExecution
from repro.units import mhz


@dataclass(frozen=True)
class Verification:
    """Outcome of one functional round trip."""

    outputs: Arrays             #: write-protected arrays
    verified: bool


@dataclass(frozen=True)
class Characterization:
    """What an offload of one kernel costs, independent of clocks,
    budget, link and schedule."""

    program: Program
    binary_bytes: int
    input_bytes: int
    output_bytes: int
    execution: ParallelExecution
    activity: ActivityProfile


_VERIFIED: Dict[Tuple, Verification] = {}
_PROGRAMS: Dict[Tuple, Program] = {}
_CHARACTERIZED: Dict[Tuple, Characterization] = {}
_HOST_CYCLES: Dict[Tuple, float] = {}
_RISC_OPS: Dict[Tuple, float] = {}
_OPERATING_POINTS: Dict[Tuple, EnvelopePoint] = {}

_BASELINE = BaselineRiscTarget()


def clear() -> None:
    """Empty every stage memo (the next calls recompute)."""
    for memo in (_VERIFIED, _PROGRAMS, _CHARACTERIZED, _HOST_CYCLES,
                 _RISC_OPS, _OPERATING_POINTS):
        memo.clear()


# -- the stages ------------------------------------------------------------------


def verify(kernel: Kernel) -> Verification:
    """Push *kernel*'s bytes through the wire protocol and check them.

    The round trip runs on a fresh default system, as a cold
    :meth:`~repro.core.system.HeterogeneousSystem.offload` would, with
    the inputs of seed 0 and the kernel's memoized program.
    """
    key = kernel.memo_key()
    found = _VERIFIED.get(key)
    if found is None:
        trip = HeterogeneousSystem().round_trip(kernel,
                                                program=program(kernel))
        for array in trip.outputs.values():
            array.setflags(write=False)
        found = _VERIFIED[key] = Verification(outputs=trip.outputs,
                                              verified=trip.verified)
    return found


def program(kernel: Kernel) -> Program:
    """*kernel*'s loop-nest program, built once per kernel."""
    key = kernel.memo_key()
    found = _PROGRAMS.get(key)
    if found is None:
        found = _PROGRAMS[key] = kernel.build_program()
    return found


def characterize(system: HeterogeneousSystem,
                 kernel: Kernel) -> Characterization:
    """Binary size, cluster execution and activity of *kernel* on
    *system*'s OpenMP runtime and OR10N target."""
    key = (kernel.memo_key(), system.omp.threads,
           system.target.costs.memo_key)
    found = _CHARACTERIZED.get(key)
    if found is None:
        loop_nest = program(kernel)
        binary = KernelBinary.from_program(loop_nest)
        execution = system.omp.execute(loop_nest)
        activity = ActivityProfile.compute(
            cores_active=system.omp.threads,
            memory_intensity=execution.memory_intensity,
            name=kernel.name)
        found = _CHARACTERIZED[key] = Characterization(
            program=loop_nest,
            binary_bytes=binary.image_bytes,
            input_bytes=loop_nest.input_bytes,
            output_bytes=loop_nest.output_bytes,
            execution=execution,
            activity=activity)
    return found


def host_run(system: HeterogeneousSystem, kernel: Kernel,
             frequency: float = Stm32L476.BASELINE_FREQUENCY) -> HostRun:
    """*kernel* on *system*'s host alone, as
    :meth:`~repro.core.system.HeterogeneousSystem.run_on_host` runs it;
    the lowering is memoized."""
    key = (kernel.memo_key(), system.host.device.memo_key)
    cycles = _HOST_CYCLES.get(key)
    if cycles is None:
        cycles = _HOST_CYCLES[key] = system.host.device.lower(
            program(kernel)).cycles
    return HostRun(frequency=frequency, cycles=cycles,
                   time=cycles / frequency,
                   power=system.host.active_power(frequency))


def risc_ops(kernel: Kernel) -> float:
    """Table I's RISC ops of *kernel*: the instructions its program
    executes on the baseline RISC target, lowered once per kernel."""
    key = kernel.memo_key()
    found = _RISC_OPS.get(key)
    if found is None:
        found = _RISC_OPS[key] = _BASELINE.risc_ops(program(kernel))
    return found


def operating_point(solver: PowerEnvelopeSolver, host_frequency: float,
                    activity: ActivityProfile) -> EnvelopePoint:
    """The envelope's best accelerator point for *activity*."""
    key = (solver.budget, solver.link_reserve, solver.host_device.memo_key,
           solver.pulp_power.memo_key, host_frequency, activity.fractions_key)
    found = _OPERATING_POINTS.get(key)
    if found is None:
        found = _OPERATING_POINTS[key] = solver.solve(host_frequency,
                                                      activity)
    return found


def price(cost_model: OffloadCostModel, characterization: Characterization,
          point: EnvelopePoint, host_frequency: float, iterations: int = 1,
          double_buffered: bool = False) -> OffloadTiming:
    """Latency and energy of a cold offload at *point* (binary included)."""
    return cost_model.offload_timing(
        binary_bytes=characterization.binary_bytes,
        input_bytes=characterization.input_bytes,
        output_bytes=characterization.output_bytes,
        compute_cycles=characterization.execution.wall_cycles,
        pulp_frequency=point.pulp_frequency,
        pulp_voltage=point.pulp_voltage,
        activity=characterization.activity,
        host_frequency=host_frequency,
        iterations=iterations,
        double_buffered=double_buffered,
        include_binary=True,
    )


# -- composed -------------------------------------------------------------------


def offload(system: HeterogeneousSystem, kernel: Kernel,
            host_frequency: float = mhz(8), iterations: int = 1,
            double_buffered: bool = False) -> OffloadResult:
    """Staged twin of ``system.offload(kernel)`` (seed 0) on a system
    with no resident binary: the same result (or the same error), from
    the memos."""
    verification = verify(kernel)
    characterization = characterize(system, kernel)
    point = require_accelerator(operating_point(
        system.envelope, host_frequency, characterization.activity))
    timing = price(system.cost_model, characterization, point,
                   host_frequency, iterations, double_buffered)
    return OffloadResult(
        kernel_name=kernel.name,
        outputs=verification.outputs,
        verified=verification.verified,
        execution=characterization.execution,
        envelope=point,
        timing=timing,
        host_baseline=host_run(system, kernel),
    )
