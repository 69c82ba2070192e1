"""Power and energy models.

Implements the paper's Section IV-A methodology:

* a PULP3 operating-point table (voltage, f_max, leakage, per-component
  dynamic power densities) with polynomial f_max interpolation;
* the activity-weighted dynamic power equation
  ``P_d = f_clk * sum_i (chi_idle*rho_idle + chi_run*rho_run + chi_dma*rho_dma)``;
* the three reference power-analysis input vectors (*idle*, *matmul*,
  *dma*) the paper back-annotates against;
* energy integration helpers and the shared power-budget arithmetic used
  by the 10 mW envelope experiments.
"""

from repro.power.activity import ActivityProfile, PulpComponent
from repro.power.interpolation import PolynomialInterpolator
from repro.power.operating_point import OperatingPoint, OperatingPointTable
from repro.power.pulp_model import PULP3_TABLE, PulpPowerModel
from repro.power.energy import EnergyAccount

__all__ = [
    "PulpComponent",
    "ActivityProfile",
    "OperatingPoint",
    "OperatingPointTable",
    "PolynomialInterpolator",
    "PulpPowerModel",
    "PULP3_TABLE",
    "EnergyAccount",
]
