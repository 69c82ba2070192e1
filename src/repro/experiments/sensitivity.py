"""Sensitivity analysis: how robust are the anchors to the calibration?

DESIGN.md section 4 admits that constants the paper does not print are
synthetic.  This experiment perturbs each calibration knob by a
configurable factor and re-measures the headline anchors, quantifying
which conclusions are calibration-fragile and which are structural.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.experiments import figure3
from repro.isa.costs import or10n_costs
from repro.isa.or10n import Or10nTarget
from repro.kernels.matmul import MatmulKernel
from repro.power.operating_point import OperatingPoint, OperatingPointTable
from repro.power.pulp_model import (
    PULP3_DENSITIES,
    PULP3_TABLE,
    ComponentDensity,
    PulpPowerModel,
)
from repro.pulp.soc import PulpSoc


@dataclass(frozen=True)
class SensitivityRow:
    """One perturbed configuration and the anchors it produces."""

    knob: str
    factor: float
    peak_efficiency: float      #: GOPS/W (paper: 304)
    arch_speedup: float         #: matmul vs M4 (paper: ~2.4)


def _measure(power_model: PulpPowerModel,
             or10n: Or10nTarget) -> Dict[str, float]:
    """Figure 3's matmul peak and Figure 4's matmul speedup over the M4,
    on a system built from the perturbed power model and target."""
    kernel = MatmulKernel("char")
    system = HeterogeneousSystem(soc=PulpSoc(power_model), target=or10n)
    single = HeterogeneousSystem(threads=1, target=or10n)
    m4_cycles = pricing.host_run(system, kernel).cycles
    or10n_cycles = pricing.characterize(single, kernel).execution.wall_cycles
    peak = figure3.run(kernel=kernel, system=system).pulp_peak
    return {"peak_efficiency": peak.gops_per_watt,
            "arch_speedup": m4_cycles / or10n_cycles}


def _scaled_densities(factor: float):
    return {component: ComponentDensity(d.idle * factor, d.run * factor,
                                        d.dma * factor)
            for component, d in PULP3_DENSITIES.items()}


def _scaled_leakage(factor: float) -> OperatingPointTable:
    return OperatingPointTable([
        OperatingPoint(p.voltage, p.fmax, p.leakage * factor)
        for p in PULP3_TABLE.points])


def _scaled_simd_overhead(factor: float) -> Or10nTarget:
    base = or10n_costs()
    simd = {dtype: replace(spec, overhead_factor=max(1.0,
                                                     spec.overhead_factor
                                                     * factor))
            for dtype, spec in base.simd.items()}
    return Or10nTarget(base.with_overrides(simd=simd))


def run(factors=(0.8, 1.0, 1.25)) -> List[SensitivityRow]:
    """Perturb each knob by each factor; return the anchor grid."""
    rows: List[SensitivityRow] = []
    knobs: Dict[str, Callable[[float], Dict[str, float]]] = {
        "dynamic densities": lambda f: _measure(
            PulpPowerModel(densities=_scaled_densities(f)), Or10nTarget()),
        "leakage": lambda f: _measure(
            PulpPowerModel(table=_scaled_leakage(f)), Or10nTarget()),
        "simd overhead": lambda f: _measure(
            PulpPowerModel(), _scaled_simd_overhead(f)),
    }
    for knob, evaluate in knobs.items():
        for factor in factors:
            measured = evaluate(factor)
            rows.append(SensitivityRow(
                knob=knob, factor=factor,
                peak_efficiency=measured["peak_efficiency"],
                arch_speedup=measured["arch_speedup"]))
    return rows


def render(rows=None) -> str:
    """Text table of the sensitivity grid."""
    if rows is None:
        rows = run()
    lines = ["calibration sensitivity (paper anchors: 304 GOPS/W, ~2.4x):",
             f"  {'knob':18s} {'factor':>6s} {'GOPS/W':>8s} {'arch x':>7s}"]
    for row in rows:
        lines.append(f"  {row.knob:18s} {row.factor:6.2f} "
                     f"{row.peak_efficiency:8.0f} {row.arch_speedup:7.2f}")
    return "\n".join(lines)
