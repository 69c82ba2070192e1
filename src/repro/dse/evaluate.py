"""Evaluate one design-space configuration with the analytic models.

:func:`evaluate_config` is a pure module-level function over a canonical
knob dict, so it is picklable and can run inside
``ProcessPoolExecutor`` workers.  It prices the configuration through
the staged pipeline of :mod:`repro.core.pricing`: the functional check
and the cluster characterization run once per kernel (and cluster size)
per process, the envelope solve once per operating point, and only the
offload timing per configuration.  Configurations that agree on the
hardware knobs :func:`build_system` reads price on one system per
process, which pricing only reads.  The record equals the one a fresh
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

from typing import Any, Dict, Mapping, Tuple

from repro import __version__
from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.errors import ReproError
from repro.kernels import kernel_by_name
from repro.link.spi import SpiLink, SpiMode
from repro.mcu.stm32l476 import Stm32L476, UntiedSpiHost
from repro.units import mhz, mw

from repro.dse.space import canonicalize, config_hash

#: Version of the evaluation semantics; part of every cache key.
MODEL_VERSION = f"repro-{__version__}/dse-1"

_SPI_MODES = {"single": SpiMode.SINGLE, "quad": SpiMode.QUAD}


#: The knobs :func:`build_system` reads.
_SYSTEM_KNOBS = ("link_tying", "untied_clock_mhz", "spi_mode", "cluster_size",
                "budget_mw")

_SYSTEMS: Dict[Tuple, HeterogeneousSystem] = {}


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


def evaluate_config(knobs: Mapping[str, Any],
                    model_version: str = None) -> Dict[str, Any]:
    """Run one configuration end to end and return its result record.

    Infeasible points (e.g. a host frequency whose own power exhausts
    the budget) are *results*, not errors: the record comes back with
    ``feasible`` false and the failure message, so sweeps that cross the
    feasibility boundary still complete and cache cleanly.
    """
    canonical = canonicalize(knobs)
    record: Dict[str, Any] = {
        "config": canonical,
        "config_hash": config_hash(canonical),
        "model_version": (MODEL_VERSION if model_version is None
                          else model_version),
        "feasible": False,
        "error": None,
        "metrics": None,
    }
    try:
        result = pricing.offload(
            _shared_system(canonical),
            kernel_by_name(canonical["kernel"]),
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
