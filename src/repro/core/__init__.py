"""The heterogeneous accelerator model — the paper's core contribution.

* :class:`~repro.core.offload.OffloadCostModel` — prices a complete
  offload (binary + data transfers over SPI, synchronization events,
  accelerator compute), serially or double-buffered (Figure 5b);
* :class:`~repro.core.envelope.PowerEnvelopeSolver` — splits a shared
  power budget between host, link and accelerator and finds the best
  accelerator operating point (Figure 5a);
* :class:`~repro.core.system.HeterogeneousSystem` — the user-facing
  facade: functionally executes OpenMP ``target`` offloads through the
  wire protocol into the PULP model and reports time/energy/speedup;
* :mod:`repro.core.pricing` — the same pricing as staged, memoized
  steps (verify, characterize, operating point, price), shared by the
  design-space exploration and the serving/capacity service books.
"""

from repro.core.envelope import EnvelopePoint, PowerEnvelopeSolver
from repro.core.offload import OffloadCostModel, OffloadTiming, TransferCost
from repro.core.system import HeterogeneousSystem, OffloadResult

__all__ = [
    "TransferCost",
    "OffloadTiming",
    "OffloadCostModel",
    "EnvelopePoint",
    "PowerEnvelopeSolver",
    "HeterogeneousSystem",
    "OffloadResult",
]
