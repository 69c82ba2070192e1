"""Offload cost model: latency and energy of a complete offload.

"Offloading computation from the MCU to PULP is not for free, in terms
of both performance (latency) and energy.  We have two limiting factors
to take into consideration: the impact of the accelerator binary
offload, and that of the input/output data transfer between the host MCU
and the accelerator."  This module prices both, for a configurable
number of benchmark iterations per offload, serially or with the
"traditional double buffering schemes ... to overlap data transfers with
useful computation" of the paper's rightmost Figure 5b plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from repro.errors import OffloadError
from repro.link.spi import SpiLink
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.mcu.stm32l476 import Stm32L476
from repro.power.activity import ActivityProfile
from repro.power.energy import EnergyAccount
from repro.power.pulp_model import PulpPowerModel
from repro.pulp.icache import SharedICache

#: Device-side runtime initialization after a fresh binary boots
#: (clear .bss, set up the OpenMP team structures, install handlers).
RUNTIME_INIT_CYCLES = 3000.0

#: The accelerator's activity while it waits on a transfer.
_IDLE = ActivityProfile.idle()


@dataclass(frozen=True)
class TransferCost:
    """Time and energy of one link transfer, host-side costs included."""

    time: float
    energy: float
    payload_bytes: int


@dataclass
class OffloadTiming:
    """Complete cost breakdown of one offload of ``iterations`` runs."""

    iterations: int
    double_buffered: bool
    binary_time: float
    boot_time: float           #: I$ warm-up + runtime init (fresh binary)
    input_time: float          #: per iteration
    output_time: float         #: per iteration
    compute_time: float        #: per iteration
    sync_time: float           #: per iteration
    total_time: float
    ideal_time: float
    energy: EnergyAccount
    binary_bytes: int = 0      #: payloads, for telemetry span attributes
    input_bytes: int = 0
    output_bytes: int = 0

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the ideal (compute-only) speedup — the
        y-axis of Figure 5b."""
        if self.total_time == 0:
            return 0.0
        return self.ideal_time / self.total_time

    @property
    def average_power(self) -> float:
        """Average system power over the offload."""
        return self.energy.average_power


class _Phases(NamedTuple):
    """What an offload costs at one point, whatever its iteration count."""

    pulp_idle: float            #: accelerator power while it waits
    pulp_active: float          #: accelerator power while it computes
    host_active: float          #: host power while it runs
    binary: TransferCost
    data_in: TransferCost       #: per iteration
    data_out: TransferCost      #: per iteration
    compute_time: float         #: per iteration
    sync_time: float            #: per iteration
    boot_time: float


class OffloadCostModel:
    """Prices offloads for a given host/link/accelerator configuration.

    The host, link, power model and I$ are read-only after construction:
    the model keeps the phases of the last point it priced (see
    :meth:`offload_timing`).
    """

    def __init__(self, host: Optional[Stm32L476] = None,
                 link: Optional[SpiLink] = None,
                 pulp_power: Optional[PulpPowerModel] = None,
                 icache: Optional[SharedICache] = None):
        self.host = host if host is not None else Stm32L476()
        self.link = link if link is not None else SpiLink()
        self.pulp_power = pulp_power if pulp_power is not None else PulpPowerModel()
        self.icache = icache if icache is not None else SharedICache()
        #: The last point priced: every input of offload_timing but the
        #: iteration count, and its phases.
        self._point: Optional[Tuple] = None
        self._phases: Optional[_Phases] = None

    # -- elementary costs -------------------------------------------------------

    def transfer_cost(self, payload_bytes: int, host_frequency: float,
                      pulp_idle_power: float) -> TransferCost:
        """One DMA-driven link transfer at the given host clock.

        The host core is active (it programs and supervises the DMA), the
        link is clocking, and the accelerator sits idle waiting.
        """
        if payload_bytes == 0:
            return TransferCost(0.0, 0.0, 0)
        clock = self.host.spi_clock(host_frequency)
        transfer = self.link.transfer(payload_bytes, clock)
        time = transfer.time + self.host.dma_setup_time(host_frequency)
        energy = (transfer.energy
                  + time * self.host.active_power(host_frequency)
                  + time * pulp_idle_power)
        return TransferCost(time=time, energy=energy,
                            payload_bytes=payload_bytes)

    # -- the full offload --------------------------------------------------------

    def offload_timing(self, binary_bytes: int, input_bytes: int,
                       output_bytes: int, compute_cycles: float,
                       pulp_frequency: float, pulp_voltage: float,
                       activity: ActivityProfile, host_frequency: float,
                       iterations: int = 1, double_buffered: bool = False,
                       include_binary: bool = True) -> OffloadTiming:
        """Cost ``iterations`` kernel runs per one binary offload.

        The phases (:class:`_Phases`) read every input but *iterations*,
        so they are costed once per point: the model keeps the last
        point's, and a sweep over iterations at one point, such as
        Figure 5b's, costs them once.  Each call assembles the schedule,
        the energy account and the telemetry spans.  Under an enabled
        telemetry hub the phases are costed on every call, so the link's
        transfer counters are too.
        """
        if iterations < 1:
            raise OffloadError(f"iterations must be >= 1, got {iterations}")
        if compute_cycles <= 0 or pulp_frequency <= 0:
            raise OffloadError("compute cycles and PULP frequency must be positive")
        point = (binary_bytes, input_bytes, output_bytes, compute_cycles,
                 pulp_frequency, pulp_voltage, activity.fractions_key,
                 host_frequency, double_buffered, include_binary)
        telemetry = get_telemetry()
        if point != self._point or telemetry.enabled:
            self._phases = self._cost_phases(
                binary_bytes, input_bytes, output_bytes, compute_cycles,
                pulp_frequency, pulp_voltage, activity, host_frequency,
                double_buffered, include_binary)
            self._point = point
        phases = self._phases
        binary, data_in, data_out = phases.binary, phases.data_in, \
            phases.data_out

        energy = EnergyAccount()
        if binary.time:
            energy.add("binary", binary.time, binary.energy / binary.time)
        if phases.boot_time:
            energy.add("boot", phases.boot_time,
                       phases.pulp_active + self.host.sleep_power)

        if double_buffered:
            total = self._double_buffered(phases, iterations, energy)
        else:
            total = self._serial(phases, iterations, energy)
        total += phases.boot_time

        timing = OffloadTiming(
            iterations=iterations,
            double_buffered=double_buffered,
            binary_time=binary.time,
            boot_time=phases.boot_time,
            input_time=data_in.time,
            output_time=data_out.time,
            compute_time=phases.compute_time,
            sync_time=phases.sync_time,
            total_time=total,
            ideal_time=iterations * phases.compute_time,
            energy=energy,
            binary_bytes=binary.payload_bytes,
            input_bytes=data_in.payload_bytes,
            output_bytes=data_out.payload_bytes,
        )
        if telemetry.enabled:
            emit_offload_spans(telemetry, timing)
        return timing

    def _cost_phases(self, binary_bytes: int, input_bytes: int,
                     output_bytes: int, compute_cycles: float,
                     pulp_frequency: float, pulp_voltage: float,
                     activity: ActivityProfile, host_frequency: float,
                     double_buffered: bool, include_binary: bool) -> _Phases:
        pulp_idle = self.pulp_power.total_power(
            pulp_frequency, pulp_voltage, _IDLE)
        pulp_active = self.pulp_power.total_power(
            pulp_frequency, pulp_voltage, activity)

        binary = self.transfer_cost(binary_bytes if include_binary else 0,
                                    host_frequency, pulp_idle)
        # In the double-buffered schedule transfers overlap compute, so
        # the accelerator's power during them is already accounted by the
        # compute/wait phases — charging its idle floor inside the
        # transfer energy too would double count it.
        transfer_pulp_idle = 0.0 if double_buffered else pulp_idle
        data_in = self.transfer_cost(input_bytes, host_frequency,
                                     transfer_pulp_idle)
        data_out = self.transfer_cost(output_bytes, host_frequency,
                                      transfer_pulp_idle)
        compute_time = compute_cycles / pulp_frequency
        sync_time = (2 * self.host.gpio_event_time(host_frequency)
                     + self.host.wakeup_time)
        # A freshly offloaded binary boots once: the shared I$ streams
        # the code in from L2 and the device runtime initializes.
        boot_time = 0.0
        if include_binary and binary_bytes:
            boot_cycles = (self.icache.warmup_cycles(binary_bytes)
                           + RUNTIME_INIT_CYCLES)
            boot_time = boot_cycles / pulp_frequency
        return _Phases(pulp_idle, pulp_active,
                       self.host.active_power(host_frequency), binary,
                       data_in, data_out, compute_time, sync_time, boot_time)

    def _serial(self, phases: _Phases, iterations: int,
                energy: EnergyAccount) -> float:
        data_in, data_out = phases.data_in, phases.data_out
        per_iteration = (data_in.time + phases.compute_time
                         + phases.sync_time + data_out.time)
        if data_in.time:
            energy.add("input", iterations * data_in.time,
                       data_in.energy / data_in.time)
        if data_out.time:
            energy.add("output", iterations * data_out.time,
                       data_out.energy / data_out.time)
        # During compute the host sleeps in stop mode.
        energy.add("compute", iterations * phases.compute_time,
                   phases.pulp_active + self.host.sleep_power)
        energy.add("sync", iterations * phases.sync_time, phases.host_active)
        return phases.binary.time + iterations * per_iteration

    def _double_buffered(self, phases: _Phases, iterations: int,
                         energy: EnergyAccount) -> float:
        """Transfers overlap compute: while iteration *k* computes, the
        host streams iteration *k+1* in and iteration *k-1* out.  The
        steady-state period is the slower of the two pipelines."""
        data_in, data_out = phases.data_in, phases.data_out
        compute_time, sync_time = phases.compute_time, phases.sync_time
        transfer_time = data_in.time + data_out.time
        period = max(compute_time + sync_time, transfer_time)
        total = phases.binary.time + data_in.time \
            + iterations * period + data_out.time
        # Energy: transfers happen regardless; compute happens regardless;
        # the overlap means the host is active (driving DMA) during the
        # accelerator's compute when the link is the bottleneck.
        if data_in.time:
            energy.add("input", iterations * data_in.time,
                       data_in.energy / data_in.time)
        if data_out.time:
            energy.add("output", iterations * data_out.time,
                       data_out.energy / data_out.time)
        energy.add("compute", iterations * compute_time, phases.pulp_active)
        idle_gap = iterations * max(0.0, period - compute_time - sync_time)
        if idle_gap > 0:
            energy.add("accelerator-wait", idle_gap, phases.pulp_idle)
        host_sleep = iterations * max(0.0, period - transfer_time)
        if host_sleep > 0:
            energy.add("host-sleep", host_sleep, self.host.sleep_power)
        energy.add("sync", iterations * sync_time, phases.host_active)
        return total


# ---------------------------------------------------------------------------
# Telemetry emission
# ---------------------------------------------------------------------------


def emit_offload_spans(telemetry: Telemetry,
                       timing: OffloadTiming) -> Optional[int]:
    """Emit the offload schedule into *telemetry* as unified spans.

    Lanes: ``host`` (root ``offload`` span plus per-iteration ``sync``),
    ``spi`` (``binary`` / ``input[k]`` / ``output[k]`` transfers with
    byte and throughput attributes), ``pulp`` (``boot`` / ``compute[k]``
    and, double-buffered, ``period[k]`` containers with ``wait[k]`` idle
    filler), ``host:idle`` (double-buffered ``host-sleep[k]``).

    Every span carries the energy its phase contributes to the
    :class:`~repro.power.energy.EnergyAccount`: span energy is duration
    times the account's per-phase power, so the sum over all spans
    equals the account's total energy (the envelope roll-up) exactly.

    The offload starts where the hub's previous offload ended (at 0 in
    a hub that holds none), so the offloads of one run share the lanes
    back to back.

    Returns the root span id, or ``None`` when the hub is disabled.
    """
    if not telemetry.enabled:
        return None
    power = timing.energy.power_by_label()

    def energy_of(label: str, duration: float) -> float:
        return duration * power.get(label, 0.0)

    schedule = "double-buffered" if timing.double_buffered else "serial"
    clock = _previous_offload_end(telemetry)
    root = telemetry.span(
        "offload", "host", clock, timing.total_time,
        schedule=schedule, iterations=timing.iterations)
    if timing.binary_time > 0:
        telemetry.span(
            "binary", "spi", clock, timing.binary_time, parent=root,
            energy=energy_of("binary", timing.binary_time),
            bytes=timing.binary_bytes,
            throughput_bps=timing.binary_bytes / timing.binary_time)
        clock += timing.binary_time
    if timing.boot_time > 0:
        telemetry.span("boot", "pulp", clock, timing.boot_time, parent=root,
                       energy=energy_of("boot", timing.boot_time))
        clock += timing.boot_time

    def transfer_attrs(payload: int, duration: float) -> dict:
        return {"bytes": payload,
                "throughput_bps": payload / duration if duration else 0.0}

    if timing.double_buffered:
        _emit_double_buffered(telemetry, timing, root, clock, energy_of,
                              transfer_attrs)
    else:
        _emit_serial(telemetry, timing, root, clock, energy_of,
                     transfer_attrs)
    telemetry.gauge("offload.total_time_s", timing.total_time)
    telemetry.gauge("offload.efficiency", timing.efficiency)
    telemetry.gauge("offload.energy_j", timing.energy.total_energy)
    return root


def _previous_offload_end(telemetry: Telemetry) -> float:
    """End of the last offload emitted into *telemetry*, or 0.

    Each offload starts where the one before ended, so the latest root
    ``offload`` span ends last; the search walks back from the newest
    span and stops at it."""
    for span in reversed(telemetry.spans):
        if span.name == "offload" and span.parent is None:
            return span.end
    return 0.0


def _emit_serial(telemetry, timing, root, clock, energy_of,
                 transfer_attrs) -> None:
    for k in range(timing.iterations):
        if timing.input_time > 0:
            telemetry.span(
                f"input[{k}]", "spi", clock, timing.input_time, parent=root,
                energy=energy_of("input", timing.input_time), iteration=k,
                **transfer_attrs(timing.input_bytes, timing.input_time))
            clock += timing.input_time
        telemetry.span(f"compute[{k}]", "pulp", clock, timing.compute_time,
                       parent=root, iteration=k,
                       energy=energy_of("compute", timing.compute_time))
        clock += timing.compute_time
        if timing.sync_time > 0:
            telemetry.span(f"sync[{k}]", "host", clock, timing.sync_time,
                           parent=root, iteration=k,
                           energy=energy_of("sync", timing.sync_time))
            clock += timing.sync_time
        if timing.output_time > 0:
            telemetry.span(
                f"output[{k}]", "spi", clock, timing.output_time, parent=root,
                energy=energy_of("output", timing.output_time), iteration=k,
                **transfer_attrs(timing.output_bytes, timing.output_time))
            clock += timing.output_time


def _emit_double_buffered(telemetry, timing, root, clock, energy_of,
                          transfer_attrs) -> None:
    """While iteration *k* computes, the SPI streams iteration *k+1* in
    and *k-1* out; ``wait``/``host-sleep`` idle filler carries the
    account's ``accelerator-wait``/``host-sleep`` energy."""
    transfer = timing.input_time + timing.output_time
    period = max(timing.compute_time + timing.sync_time, transfer)
    gap = max(0.0, period - timing.compute_time - timing.sync_time)
    host_sleep = max(0.0, period - transfer)
    if timing.input_time > 0:
        telemetry.span(
            "input[0]", "spi", clock, timing.input_time, parent=root,
            energy=energy_of("input", timing.input_time), iteration=0,
            **transfer_attrs(timing.input_bytes, timing.input_time))
    clock += timing.input_time
    for k in range(timing.iterations):
        period_span = telemetry.span(f"period[{k}]", "pulp", clock, period,
                                     parent=root, iteration=k)
        telemetry.span(f"compute[{k}]", "pulp", clock, timing.compute_time,
                       parent=period_span, iteration=k,
                       energy=energy_of("compute", timing.compute_time))
        if gap > 0:
            telemetry.span(f"wait[{k}]", "pulp",
                           clock + timing.compute_time, gap,
                           parent=period_span, iteration=k, idle=True,
                           energy=energy_of("accelerator-wait", gap))
        if timing.sync_time > 0:
            telemetry.span(f"sync[{k}]", "host",
                           clock + timing.compute_time, timing.sync_time,
                           parent=period_span, iteration=k,
                           energy=energy_of("sync", timing.sync_time))
        if host_sleep > 0:
            telemetry.span(f"host-sleep[{k}]", "host:idle",
                           clock + transfer, host_sleep,
                           parent=period_span, iteration=k, idle=True,
                           energy=energy_of("host-sleep", host_sleep))
        wire_clock = clock
        if k >= 1 and timing.output_time > 0:
            telemetry.span(
                f"output[{k - 1}]", "spi", wire_clock, timing.output_time,
                parent=period_span, iteration=k - 1,
                energy=energy_of("output", timing.output_time),
                **transfer_attrs(timing.output_bytes, timing.output_time))
            wire_clock += timing.output_time
        if k + 1 < timing.iterations and timing.input_time > 0:
            telemetry.span(
                f"input[{k + 1}]", "spi", wire_clock, timing.input_time,
                parent=period_span, iteration=k + 1,
                energy=energy_of("input", timing.input_time),
                **transfer_attrs(timing.input_bytes, timing.input_time))
        clock += period
    if timing.output_time > 0:
        telemetry.span(
            f"output[{timing.iterations - 1}]", "spi", clock,
            timing.output_time, parent=root,
            iteration=timing.iterations - 1,
            energy=energy_of("output", timing.output_time),
            **transfer_attrs(timing.output_bytes, timing.output_time))
