"""Sensor data paths: through the host, or directly to the accelerator.

Figure 1 of the paper routes sensor data through the host MCU, which
"marshals data to/from the accelerator through the low-power coupling
link by means of a DMA controller".  Section V proposes the variation
this module also models: "bring data from the sensor directly to the
internal memory of the accelerator.  This requires a dedicated (and
more expensive) interface between the sensor and the accelerator, but
it also reduces the pressure on the coupling link".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, OffloadError
from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.kernels.base import Kernel
from repro.units import mhz, uw_per_mhz


class SensorPath(enum.Enum):
    """How sensor frames reach the accelerator's memory."""

    THROUGH_HOST = "through-host"   #: sensor -> MCU -> SPI -> PULP (Fig. 1)
    DIRECT = "direct"               #: sensor -> dedicated IF -> PULP (Sec. V)


@dataclass(frozen=True)
class SensorInterface:
    """A sensor front-end (e.g. a low-power camera interface).

    ``bandwidth`` is the sustained payload rate; ``active_power`` the
    power while streaming; ``extra_idle_power`` the standing cost of the
    *dedicated* accelerator-side interface the paper calls "more
    expensive" (zero for the through-host path, which reuses existing
    peripherals).
    """

    bandwidth: float = 2e6            # bytes/s
    active_power: float = 350e-6      # W while streaming
    extra_idle_power: float = 0.0     # W, standing cost of a dedicated port

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.active_power < 0 \
                or self.extra_idle_power < 0:
            raise ConfigurationError(f"invalid sensor interface: {self}")

    def acquisition_time(self, frame_bytes: int) -> float:
        """Seconds to stream one frame out of the sensor."""
        if frame_bytes < 0:
            raise ConfigurationError(f"negative frame size {frame_bytes}")
        return frame_bytes / self.bandwidth


#: A dedicated accelerator-side sensor port (the Section V variation).
DEDICATED_SENSOR_PORT = SensorInterface(
    bandwidth=8e6, active_power=500e-6,
    extra_idle_power=uw_per_mhz(4) * mhz(10))


@dataclass
class SensorPipelineReport:
    """Per-frame cost of one sensing-and-processing configuration."""

    path: SensorPath
    frame_time: float
    frame_energy: float
    link_bytes_per_frame: int
    compute_time: float

    @property
    def frame_rate(self) -> float:
        """Achievable frames per second."""
        if self.frame_time == 0:
            return 0.0
        return 1.0 / self.frame_time


class SensorPipeline:
    """Prices the steady-state per-frame cost of both sensor paths."""

    def __init__(self, system: Optional[HeterogeneousSystem] = None,
                 sensor: Optional[SensorInterface] = None,
                 direct_port: SensorInterface = DEDICATED_SENSOR_PORT):
        self.system = system if system is not None else HeterogeneousSystem()
        self.sensor = sensor if sensor is not None else SensorInterface()
        self.direct_port = direct_port

    def evaluate(self, kernel: Kernel, path: SensorPath,
                 host_frequency: float = mhz(8)) -> SensorPipelineReport:
        """Steady-state per-frame cost of *kernel* on *path*.

        Both paths double-buffer: acquisition and transfers overlap the
        previous frame's compute.  Binary offload is amortized away
        (steady state).
        """
        characterization = pricing.characterize(self.system, kernel)
        program, activity = characterization.program, characterization.activity
        point = pricing.operating_point(self.system.envelope,
                                        host_frequency, activity)
        if not point.accelerator_usable:
            raise OffloadError("no accelerator budget at this host clock")
        compute_time = characterization.execution.wall_cycles / point.pulp_frequency
        pulp_active = self.system.soc.power_model.total_power(
            point.pulp_frequency, point.pulp_voltage, activity)

        sensor_iface = self.sensor if path is SensorPath.THROUGH_HOST \
            else self.direct_port
        acquisition = sensor_iface.acquisition_time(program.input_bytes)

        if path is SensorPath.THROUGH_HOST:
            # Frame crosses the SPI link twice-ish: input in, results out.
            clock = self.system.host.spi_clock(host_frequency)
            in_transfer = self.system.link.transfer(program.input_bytes, clock)
            out_transfer = self.system.link.transfer(program.output_bytes, clock)
            link_time = in_transfer.time + out_transfer.time
            link_bytes = program.input_bytes + program.output_bytes
            link_energy = in_transfer.energy + out_transfer.energy
        else:
            # Only the (small) results cross the link; input streams into
            # the accelerator directly.
            clock = self.system.host.spi_clock(host_frequency)
            out_transfer = self.system.link.transfer(program.output_bytes, clock)
            link_time = out_transfer.time
            link_bytes = program.output_bytes
            link_energy = out_transfer.energy

        # Steady-state pipeline period: the slowest stage wins.
        frame_time = max(compute_time, acquisition + link_time)
        energy = (compute_time * pulp_active
                  + acquisition * sensor_iface.active_power
                  + link_energy
                  + frame_time * sensor_iface.extra_idle_power
                  + frame_time * self.system.host.active_power(host_frequency)
                  * 0.2   # host supervises transfers ~20% of the period
                  + frame_time * self.system.host.sleep_power)
        return SensorPipelineReport(
            path=path,
            frame_time=frame_time,
            frame_energy=energy,
            link_bytes_per_frame=link_bytes,
            compute_time=compute_time,
        )

    def compare(self, kernel: Kernel,
                host_frequency: float = mhz(8)):
        """Both paths side by side."""
        return {path: self.evaluate(kernel, path, host_frequency)
                for path in SensorPath}
