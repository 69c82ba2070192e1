"""Evaluate one design-space configuration with the analytic models.

:func:`evaluate_config` is a pure module-level function over a knob
mapping or an expanded :class:`~repro.dse.space.Configuration`, so it
is picklable and can run inside ``ProcessPoolExecutor`` workers.  A
mapping is canonicalized and hashed here.  A ``Configuration`` already
was, by :meth:`~repro.dse.space.Configuration.from_knobs`, so its knobs
and hash are used as they are; the engine hands over its expanded
configurations, so each is canonicalized and hashed once per sweep.
It prices the configuration through the staged pipeline of
:mod:`repro.core.pricing`: the functional check and the cluster
characterization run once per kernel (and cluster size) per process,
the envelope solve once per operating point, and only the offload
timing per configuration.  Configurations that agree on the hardware
knobs :func:`build_system` reads price on one system per process, and
configurations of one kernel on one kernel object per process; pricing
only reads both.  The record equals the one a fresh
:meth:`~repro.core.system.HeterogeneousSystem.offload` of
:func:`build_system` would give, bit for bit — that slow path is the
reference oracle of the tests.  The evaluation is deterministic — the
same configuration always produces a bit-identical record — which is
what makes content-addressed caching (:mod:`repro.dse.cache`) sound.

``MODEL_VERSION`` names the behaviour of the underlying models.  It is
part of every record and every cache key: bump it whenever a model
change may move any metric, and all previously cached results become
stale automatically.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple, Union

from repro import __version__
from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.errors import ReproError
from repro.kernels import Kernel, kernel_by_name
from repro.link.spi import SpiLink, SpiMode
from repro.mcu.stm32l476 import Stm32L476, UntiedSpiHost
from repro.units import mhz, mw

from repro.dse.space import Configuration, canonicalize, config_hash

#: Version of the evaluation semantics; part of every cache key.
MODEL_VERSION = f"repro-{__version__}/dse-1"

_SPI_MODES = {"single": SpiMode.SINGLE, "quad": SpiMode.QUAD}


#: The knobs :func:`build_system` reads.
_SYSTEM_KNOBS = ("link_tying", "untied_clock_mhz", "spi_mode", "cluster_size",
                "budget_mw")

_SYSTEMS: Dict[Tuple, HeterogeneousSystem] = {}
_KERNELS: Dict[str, Kernel] = {}


def build_system(knobs: Mapping[str, Any]) -> HeterogeneousSystem:
    """Construct the heterogeneous system a canonical config describes."""
    if knobs["link_tying"] == "untied":
        host = UntiedSpiHost(serial_clock=mhz(knobs["untied_clock_mhz"]))
    else:
        host = Stm32L476()
    return HeterogeneousSystem(
        host=host,
        link=SpiLink(_SPI_MODES[knobs["spi_mode"]]),
        threads=knobs["cluster_size"],
        budget=mw(knobs["budget_mw"]),
    )


def _shared_system(canonical: Mapping[str, Any]) -> HeterogeneousSystem:
    """The process's one :func:`build_system` result for *canonical*'s
    hardware knobs."""
    key = tuple(canonical[knob] for knob in _SYSTEM_KNOBS)
    system = _SYSTEMS.get(key)
    if system is None:
        system = _SYSTEMS[key] = build_system(canonical)
    return system


def _shared_kernel(name: str) -> Kernel:
    """The process's one :func:`kernel_by_name` result for *name*."""
    kernel = _KERNELS.get(name)
    if kernel is None:
        kernel = _KERNELS[name] = kernel_by_name(name)
    return kernel


def evaluate_config(knobs: Union[Mapping[str, Any], Configuration],
                    model_version: str = None) -> Dict[str, Any]:
    """Run one configuration end to end and return its result record.

    *knobs* is a knob mapping, canonicalized and hashed here, or a
    :class:`~repro.dse.space.Configuration`, whose canonical knobs and
    hash are used as they are.  Infeasible points (e.g. a host
    frequency whose own power exhausts the budget) are *results*, not
    errors: the record comes back with ``feasible`` false and the
    failure message, so sweeps that cross the feasibility boundary
    still complete and cache cleanly.
    """
    if isinstance(knobs, Configuration):
        canonical, digest = knobs.as_dict(), knobs.hash
    else:
        canonical = canonicalize(knobs)
        digest = config_hash(canonical)
    record: Dict[str, Any] = {
        "config": canonical,
        "config_hash": digest,
        "model_version": (MODEL_VERSION if model_version is None
                          else model_version),
        "feasible": False,
        "error": None,
        "metrics": None,
    }
    try:
        result = pricing.offload(
            _shared_system(canonical),
            _shared_kernel(canonical["kernel"]),
            host_frequency=mhz(canonical["host_mhz"]),
            iterations=canonical["iterations"],
            double_buffered=canonical["double_buffered"],
        )
    except ReproError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["feasible"] = True
    record["metrics"] = result.metrics()
    return record
