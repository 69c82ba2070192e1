"""The heterogeneous system facade.

:class:`HeterogeneousSystem` is the public entry point of the library:
an STM32-L476 host coupled to the PULP accelerator model over a (Q)SPI
link.  ``offload`` runs an OpenMP ``target`` region end to end —
*functionally* (real bytes travel through the wire protocol into the L2
model, the kernel computes, results come back and are verified) and
*analytically* (cycles, power and energy from the calibrated models).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import OffloadError
from repro.core.envelope import EnvelopePoint, PowerEnvelopeSolver
from repro.core.offload import OffloadCostModel, OffloadTiming
from repro.isa.or10n import Or10nTarget
from repro.isa.program import Program
from repro.kernels.base import Arrays, Kernel
from repro.link.protocol import encode_frame, decode_frames
from repro.link.spi import SpiLink, SpiMode
from repro.mcu.stm32l476 import Stm32L476
from repro.pulp.binary import KernelBinary
from repro.pulp.soc import PulpSoc
from repro.power.activity import ActivityProfile
from repro.runtime.host import MapClause, MapDirection, TargetRegion
from repro.runtime.omp import DeviceOpenMp, ParallelExecution
from repro.units import format_seconds, format_watts, mhz


@dataclass
class HostRun:
    """Baseline execution of a kernel on the host MCU."""

    frequency: float
    cycles: float
    time: float
    power: float

    @property
    def energy(self) -> float:
        """Energy of the host run."""
        return self.time * self.power


@dataclass
class OffloadResult:
    """Everything one offload produced.

    The degraded-mode fields are written by the resilient runtime
    (:mod:`repro.faults`): ``degraded`` marks a result computed by the
    OpenMP host fallback on the Cortex-M cost model after the recovery
    ladder was exhausted; ``recovery_actions`` lists the ladder steps
    taken (``re-arm``, ``reboot``, ``watchdog`` ...); ``fault_attempts``
    counts failed offload attempts; ``wasted_time_s`` /
    ``wasted_energy_j`` are the latency and energy of those failed
    attempts (retransmissions, watchdog waits, backoff) — already folded
    into ``timing.total_time`` and ``timing.energy``.
    """

    kernel_name: str
    outputs: Arrays
    verified: bool
    execution: ParallelExecution
    envelope: EnvelopePoint
    timing: OffloadTiming
    host_baseline: HostRun
    degraded: bool = False
    fallback_reason: Optional[str] = None
    recovery_actions: Tuple[str, ...] = ()
    fault_attempts: int = 0
    wasted_time_s: float = 0.0
    wasted_energy_j: float = 0.0

    @property
    def compute_speedup(self) -> float:
        """Pure accelerator-vs-host speedup (Figure 5a, no offload cost)."""
        if self.timing.compute_time == 0:
            return 0.0
        return self.host_baseline.time / self.timing.compute_time

    @property
    def effective_speedup(self) -> float:
        """Speedup including binary/data offload costs (Figure 5b view)."""
        per_iteration = self.timing.total_time / self.timing.iterations
        if per_iteration == 0:
            return 0.0
        return self.host_baseline.time / per_iteration

    @property
    def efficiency(self) -> float:
        """Fraction of the ideal speedup retained."""
        return self.timing.efficiency

    def metrics(self) -> dict:
        """Flat numeric metrics of this offload.

        The analysis-friendly projection of the result: one flat dict of
        JSON-safe scalars, consumed by the design-space exploration layer
        (:mod:`repro.dse`) and usable as a generic objective surface.
        """
        timing = self.timing
        return {
            "verified": self.verified,
            "compute_speedup": self.compute_speedup,
            "effective_speedup": self.effective_speedup,
            "efficiency": self.efficiency,
            "compute_cycles": self.execution.wall_cycles,
            "total_time_s": timing.total_time,
            "time_per_iteration_s": timing.total_time / timing.iterations,
            "energy_j": timing.energy.total_energy,
            "energy_per_iteration_j":
                timing.energy.total_energy / timing.iterations,
            "average_power_w": timing.average_power,
            "total_power_w": self.envelope.total_power,
            "pulp_frequency_hz": self.envelope.pulp_frequency,
            "pulp_voltage_v": self.envelope.pulp_voltage,
            "host_power_w": self.envelope.host_power,
            "host_baseline_time_s": self.host_baseline.time,
            "host_baseline_energy_j": self.host_baseline.energy,
            "degraded": self.degraded,
            "fault_attempts": self.fault_attempts,
            "wasted_time_s": self.wasted_time_s,
            "wasted_energy_j": self.wasted_energy_j,
        }

    def to_json_dict(self) -> dict:
        """Machine-readable summary (the ``--json`` surface)."""
        timing = self.timing
        return {
            "kernel": self.kernel_name,
            "verified": self.verified,
            "schedule": ("double-buffered" if timing.double_buffered
                         else "serial"),
            "iterations": timing.iterations,
            "envelope": {
                "host_frequency_hz": self.envelope.host_frequency,
                "host_power_w": self.envelope.host_power,
                "pulp_frequency_hz": self.envelope.pulp_frequency,
                "pulp_voltage_v": self.envelope.pulp_voltage,
                "pulp_power_w": self.envelope.pulp_power,
            },
            "timing_s": {
                "binary": timing.binary_time,
                "boot": timing.boot_time,
                "input_per_iteration": timing.input_time,
                "compute_per_iteration": timing.compute_time,
                "sync_per_iteration": timing.sync_time,
                "output_per_iteration": timing.output_time,
                "total": timing.total_time,
                "ideal": timing.ideal_time,
            },
            "bytes": {
                "binary": timing.binary_bytes,
                "input": timing.input_bytes,
                "output": timing.output_bytes,
            },
            "efficiency": self.efficiency,
            "compute_speedup": self.compute_speedup,
            "effective_speedup": self.effective_speedup,
            "host_baseline": {
                "frequency_hz": self.host_baseline.frequency,
                "cycles": self.host_baseline.cycles,
                "time_s": self.host_baseline.time,
                "power_w": self.host_baseline.power,
                "energy_j": self.host_baseline.energy,
            },
            "energy": self.timing.energy.to_dict(),
            "resilience": {
                "degraded": self.degraded,
                "fallback_reason": self.fallback_reason,
                "recovery_actions": list(self.recovery_actions),
                "fault_attempts": self.fault_attempts,
                "wasted_time_s": self.wasted_time_s,
                "wasted_energy_j": self.wasted_energy_j,
            },
        }

    def report(self) -> str:
        """Human-readable summary."""
        lines = [
            f"offload of {self.kernel_name!r} "
            f"({self.timing.iterations} iteration(s), "
            f"{'double-buffered' if self.timing.double_buffered else 'serial'})",
            f"  host @ {self.envelope.host_frequency / 1e6:.0f} MHz "
            f"({format_watts(self.envelope.host_power)}), "
            f"PULP @ {self.envelope.pulp_frequency / 1e6:.0f} MHz / "
            f"{self.envelope.pulp_voltage:.2f} V "
            f"({format_watts(self.envelope.pulp_power)})",
            f"  compute {format_seconds(self.timing.compute_time)}/iter, "
            f"offload total {format_seconds(self.timing.total_time)}, "
            f"efficiency {self.efficiency:.1%}",
            f"  speedup vs host: {self.compute_speedup:.1f}x compute, "
            f"{self.effective_speedup:.1f}x end-to-end",
            f"  outputs verified: {self.verified}",
        ]
        if self.degraded:
            lines.append(
                f"  DEGRADED: host fallback ({self.fallback_reason}) after "
                f"{self.fault_attempts} failed attempt(s), "
                f"{format_seconds(self.wasted_time_s)} / "
                f"{self.wasted_energy_j:.3g} J wasted")
        elif self.recovery_actions:
            lines.append(
                f"  recovered via {' -> '.join(self.recovery_actions)} "
                f"({self.fault_attempts} failed attempt(s), "
                f"{format_seconds(self.wasted_time_s)} wasted)")
        return "\n".join(lines)


@dataclass(frozen=True)
class RoundTrip:
    """The functional half of one offload: what crossed the link."""

    program: Program
    binary_bytes: int           #: 0 when the binary was already resident
    include_binary: bool
    input_bytes: int
    output_bytes: int
    outputs: Arrays
    verified: bool


def require_accelerator(point: EnvelopePoint) -> EnvelopePoint:
    """*point*, or the :class:`OffloadError` of an offload whose host
    leaves no accelerator power budget."""
    if not point.accelerator_usable:
        raise OffloadError(
            f"no accelerator power budget left with the host at "
            f"{point.host_frequency / 1e6:.0f} MHz")
    return point


class HeterogeneousSystem:
    """STM32-L476 + PULP over (Q)SPI: the paper's system."""

    def __init__(self, host: Optional[Stm32L476] = None,
                 soc: Optional[PulpSoc] = None,
                 link: Optional[SpiLink] = None,
                 threads: int = 4,
                 budget: Optional[float] = None):
        self.host = host if host is not None else Stm32L476()
        self.soc = soc if soc is not None else PulpSoc()
        self.link = link if link is not None else SpiLink(SpiMode.QUAD)
        self.target = Or10nTarget()
        self.omp = DeviceOpenMp(self.target, threads=threads)
        self.cost_model = OffloadCostModel(self.host, self.link,
                                           self.soc.power_model)
        solver_kwargs = {} if budget is None else {"budget": budget}
        self.envelope = PowerEnvelopeSolver(
            host_device=self.host.device,
            pulp_power=self.soc.power_model, **solver_kwargs)
        self._resident_binary: Optional[str] = None
        self._event_clock = 0.0

    def _next_event_time(self) -> float:
        """Monotonic timestamps for the GPIO event lines across offloads."""
        self._event_clock += 1e-6
        return self._event_clock

    # -- baseline -----------------------------------------------------------------

    def run_on_host(self, kernel: Kernel,
                    frequency: float = Stm32L476.BASELINE_FREQUENCY) -> HostRun:
        """Run the kernel on the host alone (the paper's baseline)."""
        program = kernel.build_program()
        report = self.host.device.lower(program)
        time = report.cycles / frequency
        return HostRun(frequency=frequency, cycles=report.cycles, time=time,
                       power=self.host.active_power(frequency))

    # -- the offload --------------------------------------------------------------

    def round_trip(self, kernel: Kernel, seed: int = 0) -> RoundTrip:
        """The functional half of :meth:`offload`.

        Marshals real bytes through the wire protocol into the
        accelerator's L2, runs the kernel, reads the results back and
        verifies them against a direct computation.  The binary travels
        only if it is not already resident, and stays resident after.
        """
        program = kernel.build_program()
        inputs = kernel.generate_inputs(seed)
        input_payload = kernel.serialize_inputs(inputs)
        if len(input_payload) != program.input_bytes:
            raise OffloadError(
                f"{kernel.name}: serialized input is {len(input_payload)} B "
                f"but the program declares {program.input_bytes} B")

        binary = KernelBinary.from_program(program)
        region = TargetRegion(binary=binary, maps=[
            MapClause("inputs", MapDirection.TO, data=input_payload),
            MapClause("outputs", MapDirection.FROM,
                      size=program.output_bytes),
        ])
        region.place(self.soc.l2)

        include_binary = self._resident_binary != binary.name
        pre_frames, post_frames = region.to_frames(include_binary=include_binary)
        self.soc.reset()
        if include_binary:
            self.soc.register_binary(binary, region.addresses["__binary__"])
            self._resident_binary = binary.name
        for frame in pre_frames:
            # Encode/decode round-trip: the exact bytes a QSPI slave sees.
            decoded, = decode_frames(encode_frame(frame))
            self.soc.handle_frame(decoded)
        self.soc.trigger_fetch_enable(time=self._next_event_time())
        outputs = kernel.compute(inputs)
        output_payload = kernel.serialize_outputs(outputs)
        if len(output_payload) != program.output_bytes:
            raise OffloadError(
                f"{kernel.name}: serialized output is {len(output_payload)} B "
                f"but the program declares {program.output_bytes} B")
        self.soc.l2.write(region.addresses["outputs"], output_payload)
        self.soc.computation_done(time=self._next_event_time())
        read_back = b""
        for frame in post_frames:
            decoded, = decode_frames(encode_frame(frame))
            read_back += self.soc.handle_frame(decoded)
        return RoundTrip(
            program=program,
            binary_bytes=binary.image_bytes if include_binary else 0,
            include_binary=include_binary,
            input_bytes=len(input_payload),
            output_bytes=len(output_payload),
            outputs=outputs,
            verified=read_back == output_payload)

    def offload(self, kernel: Kernel, seed: int = 0,
                host_frequency: float = mhz(8), iterations: int = 1,
                double_buffered: bool = False) -> OffloadResult:
        """Offload *kernel* end to end and price it.

        The functional path (:meth:`round_trip`) pushes real bytes
        through the protocol and verifies the results; the analytic
        path prices the same sequence with the calibrated models.
        """
        trip = self.round_trip(kernel, seed)
        execution = self.omp.execute(trip.program)
        activity = ActivityProfile.compute(
            cores_active=self.omp.threads,
            memory_intensity=execution.memory_intensity,
            name=kernel.name)
        point = require_accelerator(
            self.envelope.solve(host_frequency, activity))
        timing = self.cost_model.offload_timing(
            binary_bytes=trip.binary_bytes,
            input_bytes=trip.input_bytes,
            output_bytes=trip.output_bytes,
            compute_cycles=execution.wall_cycles,
            pulp_frequency=point.pulp_frequency,
            pulp_voltage=point.pulp_voltage,
            activity=activity,
            host_frequency=host_frequency,
            iterations=iterations,
            double_buffered=double_buffered,
            include_binary=trip.include_binary,
        )
        return OffloadResult(
            kernel_name=kernel.name,
            outputs=trip.outputs,
            verified=trip.verified,
            execution=execution,
            envelope=point,
            timing=timing,
            host_baseline=self.run_on_host(kernel),
        )
