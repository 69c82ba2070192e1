"""The resilient offload runtime: timeouts, a watchdog, and a ladder.

:class:`ResilientDriver` extends the reliable session driver of
:mod:`repro.core.driver` with everything a fielded host needs when the
accelerator — or the wire to it — misbehaves:

- **per-operation timeouts**: every frame delivery has a wire-time
  budget; blowing it raises :class:`repro.errors.TimeoutError`;
- **a watchdog on RUNNING**: the EOC wait runs as a two-process
  discrete-event simulation (:mod:`repro.sim.engine`); a hung kernel
  surfaces as a clean :class:`~repro.errors.DeadlockError`, which the
  watchdog converts into a timed recovery instead of an infinite wait;
- **bounded retries with exponential backoff**, whose wire time and
  energy are charged through the existing cost models;
- **the escalation ladder**: retransmit frame (inside the sender) →
  re-arm inputs → reboot + reload binary → **host fallback**, executing
  the kernel on the Cortex-M cost model with the result marked degraded
  and the failed attempts' latency/energy included.

The ladder's cost accounting is explicit: every failed attempt's wire
traffic, every watchdog/boot timeout and every backoff sleep becomes a
``recovery`` phase in the result's :class:`~repro.power.energy.EnergyAccount`
and is added to ``timing.total_time`` — a recovered offload is never
reported cheaper than a clean one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro import errors
from repro.core import pricing
from repro.core.driver import OffloadDriver, SessionState
from repro.core.offload import OffloadTiming
from repro.core.system import (HeterogeneousSystem, OffloadResult,
                               require_accelerator)
from repro.errors import (
    DeadlockError,
    DegradedExecutionError,
    FaultInjectionError,
    LinkError,
    OffloadError,
    ProtocolError,
    SimulationError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.kernels.base import Kernel
from repro.link.protocol import Command, Frame
from repro.obs.telemetry import get_telemetry
from repro.power.activity import ActivityProfile
from repro.power.energy import EnergyAccount
from repro.pulp.binary import KernelBinary
from repro.pulp.soc import SocState
from repro.sim.engine import Simulator, Timeout
from repro.units import mhz

#: The ladder's session modes, tried in order (then host fallback).
LADDER = ("initial", "re-arm", "reboot")

#: Exceptions the ladder recovers from (everything else propagates).
RECOVERABLE = (LinkError, ProtocolError, errors.TimeoutError,
               FaultInjectionError, OffloadError, SimulationError)


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the resilient runtime."""

    #: Wire-time budget per frame delivery (retransmissions included).
    op_timeout_s: float = 0.25
    #: How long the host waits for the accelerator to come up after START.
    boot_timeout_s: float = 5e-3
    #: Watchdog = max(floor, factor x expected compute time).
    watchdog_factor: float = 4.0
    watchdog_floor_s: float = 1e-3
    #: Exponential backoff between ladder attempts.
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    #: STATUS polls before declaring the control plane unreachable.
    status_polls: int = 4
    #: Frame retransmissions per delivery (the ladder's lowest rung).
    max_frame_attempts: int = 32

    def backoff_s(self, failure_index: int) -> float:
        """Backoff sleep after the ``failure_index``-th failed attempt."""
        return self.backoff_base_s * self.backoff_factor ** failure_index


def await_end_of_computation(compute_time: float, hang: bool) -> float:
    """Wait for EOC as a two-process DES; returns the wait duration.

    The host process blocks on the EOC event; the accelerator process
    triggers it after *compute_time* — unless *hang* is set, in which
    case the accelerator blocks forever on an event nobody triggers and
    the drained queue surfaces as a clean
    :class:`~repro.errors.DeadlockError` (never an infinite loop).
    """
    simulator = Simulator()
    eoc = simulator.event("end-of-computation")
    stuck = simulator.event("never-triggered")

    def accelerator():
        if hang:
            yield stuck  # deadlocked barrier: EOC never raised
        yield Timeout(compute_time)
        eoc.trigger()

    def host():
        yield eoc

    simulator.add_process(accelerator(), "accelerator")
    simulator.add_process(host(), "host-eoc-wait")
    return simulator.run_all()


class ResilientDriver(OffloadDriver):
    """An :class:`OffloadDriver` that survives injected faults.

    ``offload`` runs the full functional wire path (bytes through the
    protocol into L2, kernel computes, results verified) under a
    :class:`~repro.faults.injector.FaultInjector`, recovering through
    the escalation ladder and pricing every recovery action through the
    calibrated cost models.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, seed: int = 1,
                 policy: Optional[RetryPolicy] = None,
                 system: Optional[HeterogeneousSystem] = None,
                 fallback_enabled: bool = True):
        self.system = system if system is not None else HeterogeneousSystem()
        self.policy = policy if policy is not None else RetryPolicy()
        self.injector = FaultInjector(
            plan if plan is not None else FaultPlan.clean(), seed=seed)
        super().__init__(soc=self.system.soc, host=self.system.host,
                         link=self.system.link,
                         max_attempts=self.policy.max_frame_attempts,
                         channel=self.injector.channel())
        self.fallback_enabled = fallback_enabled
        self.recovery_actions: List[str] = []
        self._host_frequency = mhz(8)
        self._pulp_idle_power = 0.0
        self._attempt_extra_bytes = 0
        self._model_time = 0.0

    # -- cost helpers ------------------------------------------------------------

    def _wire_seconds(self, wire_bytes: int) -> float:
        clock = self.host.spi_clock(self._host_frequency)
        return wire_bytes * 8.0 / (self.link.width * clock)

    def _wire_power(self) -> float:
        clock = self.host.spi_clock(self._host_frequency)
        return (self.host.active_power(self._host_frequency)
                + self.link.active_power(clock) + self._pulp_idle_power)

    def _wait_power(self) -> float:
        """Host asleep, accelerator sitting at its idle floor."""
        return self.host.sleep_power + self._pulp_idle_power

    # -- hardened frame delivery --------------------------------------------------

    def _account(self, frame: Frame) -> None:
        super()._account(frame)
        entry = self._sender.log[-1]
        self._attempt_extra_bytes += max(0, entry.wire_bytes
                                         - frame.wire_size)
        if self._wire_seconds(entry.wire_bytes) > self.policy.op_timeout_s:
            raise errors.TimeoutError(
                f"frame delivery blew its {self.policy.op_timeout_s:g} s "
                f"budget ({entry.attempts} transmissions, "
                f"{entry.wire_bytes} wire bytes)")

    def _poll_status(self, expected: SocState) -> None:
        """Poll STATUS until the control plane reports *expected*."""
        frame = Frame(Command.STATUS, 0)
        states = list(SocState)
        for poll in range(self.policy.status_polls):
            delivered = self._sender.send(frame)
            self._account(frame)
            reply = self.injector.corrupt_status(
                self.soc.handle_frame(delivered))
            if len(reply) == 1 and reply[0] < len(states) \
                    and states[reply[0]] is expected:
                return
            if poll == 0:
                self.recovery_actions.append("status-retry")
        raise FaultInjectionError(
            f"STATUS never reported {expected.value} "
            f"after {self.policy.status_polls} polls")

    # -- the resilient offload ----------------------------------------------------

    def offload(self, kernel: Kernel, seed: int = 0,
                host_frequency: float = mhz(8), iterations: int = 1,
                double_buffered: bool = False) -> OffloadResult:
        """Offload *kernel* end to end, surviving the injected faults.

        Returns a normal :class:`~repro.core.system.OffloadResult` when
        the offload (eventually) succeeds, or a degraded one computed on
        the host model after the ladder is exhausted.  Raises
        :class:`~repro.errors.DegradedExecutionError` instead of falling
        back when ``fallback_enabled`` is False.
        """
        system = self.system
        self._host_frequency = host_frequency
        program = kernel.build_program()
        inputs = kernel.generate_inputs(seed)
        input_payload = kernel.serialize_inputs(inputs)
        outputs = kernel.compute(inputs)
        output_payload = kernel.serialize_outputs(outputs)
        binary = KernelBinary.from_program(program)

        # Analytic operating point (needed to price waits and waste).
        execution = system.omp.execute(program)
        activity = ActivityProfile.compute(
            cores_active=system.omp.threads,
            memory_intensity=execution.memory_intensity,
            name=kernel.name)
        point = require_accelerator(pricing.operating_point(
            system.envelope, host_frequency, activity))
        power_model = self.soc.power_model
        self._pulp_idle_power = power_model.total_power(
            point.pulp_frequency, point.pulp_voltage, ActivityProfile.idle())

        # Brownout droops the operating point for the whole offload: the
        # FLL re-locks at a lower clock, compute stretches accordingly.
        droop = self.injector.brownout_droop()
        if droop < 1.0:
            pulp_frequency = point.pulp_frequency * droop
            pulp_voltage = power_model.table.voltage_for(pulp_frequency)
            point = replace(
                point, pulp_frequency=pulp_frequency,
                pulp_voltage=pulp_voltage,
                pulp_power=power_model.total_power(
                    pulp_frequency, pulp_voltage, activity))
            self.recovery_actions.append("dvfs-ride-through")
        compute_time = execution.wall_cycles / point.pulp_frequency
        watchdog_s = max(self.policy.watchdog_floor_s,
                         self.policy.watchdog_factor * compute_time)

        telemetry = get_telemetry()
        wasted_time = 0.0
        wasted_energy = 0.0
        failures = 0
        for mode in LADDER:
            start_wire_bytes = self.stats.wire_bytes
            start_time = self._model_time
            self._attempt_extra_bytes = 0
            try:
                read_back = self._attempt(
                    mode, binary, input_payload, output_payload,
                    compute_time, watchdog_s)
            except RECOVERABLE as exc:
                failures += 1
                attempt_bytes = self.stats.wire_bytes - start_wire_bytes
                lost_time = self._wire_seconds(attempt_bytes)
                lost_energy = lost_time * self._wire_power()
                # The timed waits an attempt charged (watchdog, boot
                # timeout) were already added to _model_time by _charge.
                lost_time += self._model_time - start_time
                lost_energy += (self._model_time - start_time) \
                    * self._wait_power()
                backoff = self.policy.backoff_s(failures - 1)
                lost_time += backoff
                lost_energy += backoff * self._wait_power()
                wasted_time += lost_time
                wasted_energy += lost_energy
                self._model_time = start_time + lost_time
                if telemetry.enabled:
                    telemetry.span(
                        f"attempt[{mode}]", "resilient", start_time,
                        lost_time, energy=lost_energy, outcome="failed",
                        error=type(exc).__name__, detail=str(exc))
                    telemetry.count("faults.attempts_failed")
                continue
            # Success: price the offload at the (possibly drooped)
            # operating point, then fold the recovery costs in.
            if self.stats.transmissions > self.stats.frames_sent \
                    and "retransmit" not in self.recovery_actions:
                self.recovery_actions.append("retransmit")
            retry_time = self._wire_seconds(self._attempt_extra_bytes)
            if retry_time > 0:
                wasted_time += retry_time
                wasted_energy += retry_time * self._wire_power()
            timing = system.cost_model.offload_timing(
                binary_bytes=binary.image_bytes,
                input_bytes=len(input_payload),
                output_bytes=len(output_payload),
                compute_cycles=execution.wall_cycles,
                pulp_frequency=point.pulp_frequency,
                pulp_voltage=point.pulp_voltage,
                activity=activity,
                host_frequency=host_frequency,
                iterations=iterations,
                double_buffered=double_buffered)
            if wasted_time > 0:
                timing.total_time += wasted_time
                timing.energy.add("recovery", wasted_time,
                                  wasted_energy / wasted_time)
            if telemetry.enabled:
                telemetry.span(
                    f"attempt[{mode}]", "resilient", self._model_time,
                    timing.total_time - wasted_time, outcome="success")
                telemetry.count("faults.attempts_succeeded")
            self._model_time += timing.total_time - wasted_time
            return OffloadResult(
                kernel_name=kernel.name,
                outputs=outputs,
                verified=read_back == output_payload,
                execution=execution,
                envelope=point,
                timing=timing,
                host_baseline=system.run_on_host(kernel),
                recovery_actions=tuple(self.recovery_actions),
                fault_attempts=failures,
                wasted_time_s=wasted_time,
                wasted_energy_j=wasted_energy)

        # Ladder exhausted.
        self.recovery_actions.append("host-fallback")
        if not self.fallback_enabled:
            raise DegradedExecutionError(
                f"{kernel.name}: recovery ladder exhausted after "
                f"{failures} attempts and host fallback is disabled")
        return self._host_fallback(
            kernel, outputs, execution, point, iterations,
            host_frequency, failures, wasted_time, wasted_energy)

    # -- one ladder attempt -------------------------------------------------------

    def _charge(self, duration: float) -> None:
        """Advance model time across a timed wait inside an attempt."""
        self._model_time += duration

    def _attempt(self, mode: str, binary: KernelBinary,
                 input_payload: bytes, output_payload: bytes,
                 compute_time: float, watchdog_s: float) -> bytes:
        """One pass through the session; raises on any injected failure."""
        if mode == "re-arm":
            # Keep the resident binary; resend inputs and START.
            self.recovery_actions.append("re-arm")
            self.soc.reset()
            if self.state is not SessionState.IDLE and self._region is not None:
                self.state = SessionState.LOADED
            else:
                self.state = SessionState.IDLE
        elif mode == "reboot":
            self.recovery_actions.append("reboot")
            self.soc.power_cycle()
            self.state = SessionState.IDLE
            self._region = None
        if self.state is SessionState.IDLE:
            self.load(binary, input_payload, len(output_payload))
        self.arm(input_payload)
        if self.injector.boot_fails():
            # The host polls for RUNNING until the boot timeout expires.
            self._charge(self.policy.boot_timeout_s)
            self.state = SessionState.LOADED
            self.soc.reset()
            raise FaultInjectionError(
                f"accelerator never booted within "
                f"{self.policy.boot_timeout_s:g} s of START")
        self.start()
        self._poll_status(SocState.RUNNING)
        if self.injector.kernel_hangs():
            try:
                await_end_of_computation(compute_time, hang=True)
            except DeadlockError as exc:
                # The watchdog fires after its full period.
                self._charge(watchdog_s)
                self.recovery_actions.append("watchdog")
                self.state = SessionState.LOADED
                self.soc.reset()
                raise errors.TimeoutError(
                    f"watchdog fired after {watchdog_s:g} s "
                    f"(RUNNING, no EOC): {exc}") from exc
        else:
            await_end_of_computation(compute_time, hang=False)
        return self.complete(output_payload)

    # -- host fallback ------------------------------------------------------------

    def _host_fallback(self, kernel: Kernel, outputs, execution, point,
                       iterations: int, host_frequency: float,
                       failures: int, wasted_time: float,
                       wasted_energy: float) -> OffloadResult:
        """Execute the region on the host (OpenMP ``target`` fallback).

        OpenMP 4.0 semantics: when the device is unavailable the target
        region executes on the host.  Latency and energy come from the
        Cortex-M cost model at the current host clock; the wasted
        offload attempts stay on the bill.
        """
        host_run = self.system.run_on_host(kernel, frequency=host_frequency)
        energy = EnergyAccount()
        energy.add("host-compute", iterations * host_run.time, host_run.power)
        if wasted_time > 0:
            energy.add("recovery", wasted_time, wasted_energy / wasted_time)
        timing = OffloadTiming(
            iterations=iterations,
            double_buffered=False,
            binary_time=0.0,
            boot_time=0.0,
            input_time=0.0,
            output_time=0.0,
            compute_time=host_run.time,
            sync_time=0.0,
            total_time=iterations * host_run.time + wasted_time,
            ideal_time=iterations * host_run.time,
            energy=energy)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.span(
                "host-fallback", "resilient", self._model_time,
                timing.total_time - wasted_time,
                energy=iterations * host_run.time * host_run.power,
                outcome="host-fallback")
            telemetry.count("faults.fallbacks")
        self._model_time += timing.total_time - wasted_time
        return OffloadResult(
            kernel_name=kernel.name,
            outputs=outputs,
            verified=True,  # computed directly on the host
            execution=execution,
            envelope=point,
            timing=timing,
            host_baseline=host_run,
            degraded=True,
            fallback_reason=self.injector.events[-1]
            if self.injector.events else "recovery exhausted",
            recovery_actions=tuple(self.recovery_actions),
            fault_attempts=failures,
            wasted_time_s=wasted_time,
            wasted_energy_j=wasted_energy)
