"""repro — a reproduction of "Enabling the Heterogeneous Accelerator
Model on Ultra-Low Power Microcontroller Platforms" (DATE 2016).

The paper couples an STM32-L476 microcontroller with PULP, a
programmable ultra-low-power parallel accelerator, over a (Q)SPI link
and an OpenMP ``target`` offload runtime, demonstrating order-of-
magnitude speedups within a 10 mW system power envelope.  This library
rebuilds the full system as a calibrated simulation/modeling stack (see
DESIGN.md for the substitution inventory).

Top-level entry points:

>>> from repro import HeterogeneousSystem, MatmulKernel, mhz
>>> system = HeterogeneousSystem()
>>> result = system.offload(MatmulKernel("char"), host_frequency=mhz(8))
>>> result.verified
True

The experiment harness lives in :mod:`repro.experiments`; each of the
paper's tables/figures has a ``run()``/``render()`` pair and a benchmark
under ``benchmarks/`` that asserts the published anchors.
"""

from repro.core import HeterogeneousSystem, OffloadCostModel, PowerEnvelopeSolver
from repro.kernels import (
    CnnKernel,
    HogKernel,
    Kernel,
    MatmulKernel,
    StrassenKernel,
    SvmKernel,
    all_kernels,
    kernel_by_name,
)
from repro.mcu import MCU_CATALOG, Stm32L476, mcu_by_name
from repro.power import ActivityProfile, PulpPowerModel
from repro.pulp import Cluster, PulpSoc
from repro.units import ghz, khz, mhz, mw, uw

__version__ = "1.0.0"

__all__ = [
    "HeterogeneousSystem",
    "OffloadCostModel",
    "PowerEnvelopeSolver",
    "Kernel",
    "MatmulKernel",
    "StrassenKernel",
    "SvmKernel",
    "CnnKernel",
    "HogKernel",
    "all_kernels",
    "kernel_by_name",
    "Stm32L476",
    "MCU_CATALOG",
    "mcu_by_name",
    "PulpPowerModel",
    "ActivityProfile",
    "PulpSoc",
    "Cluster",
    "khz",
    "mhz",
    "ghz",
    "uw",
    "mw",
    "__version__",
]
