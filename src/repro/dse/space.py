"""Declarative parameter-space specification for design-space exploration.

A :class:`ParameterSpace` names the knobs the paper's Section V argues
about — host frequency, power budget, link width and tying, cluster
size, kernel, schedule — as a *grid* (cross product of per-knob value
lists) plus optional *explicit points*.  Every expanded
:class:`Configuration` is validated, normalized to a canonical form and
given a stable content hash, so overlapping sweeps, cache lookups and
stored results all agree on configuration identity.

Canonicalization rules that matter for hashing:

* every knob is present (defaults fill the gaps) with a normalized type;
* ``untied_clock_mhz`` is forced to its default while ``link_tying`` is
  ``"tied"`` — the knob is inert there, and two specs that differ only
  in an inert knob must hash identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.kernels import BENCHMARK_NAMES
from repro.records import config_hash

#: Knob names in canonical (display and expansion) order.
KNOB_ORDER: Tuple[str, ...] = (
    "kernel", "host_mhz", "budget_mw", "spi_mode", "link_tying",
    "untied_clock_mhz", "cluster_size", "iterations", "double_buffered",
)

#: Default value of every knob (the paper's prototype configuration).
DEFAULTS: Dict[str, Any] = {
    "kernel": "matmul",
    "host_mhz": 8.0,
    "budget_mw": 10.0,
    "spi_mode": "quad",
    "link_tying": "tied",
    "untied_clock_mhz": 24.0,
    "cluster_size": 4,
    "iterations": 1,
    "double_buffered": False,
}

_SPI_MODES = ("single", "quad")
_TYINGS = ("tied", "untied")


def _norm_kernel(value: Any) -> str:
    if value not in BENCHMARK_NAMES:
        known = ", ".join(BENCHMARK_NAMES)
        raise ConfigurationError(f"unknown kernel {value!r}; known: {known}")
    return str(value)


def _norm_positive_float(name: str):
    def norm(value: Any) -> float:
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ConfigurationError(f"{name} must be a number, got {value!r}")
        if number <= 0 or number != number:
            raise ConfigurationError(f"{name} must be positive, got {value!r}")
        return number
    return norm


def _norm_choice(name: str, choices: Sequence[str]):
    def norm(value: Any) -> str:
        text = str(value).lower()
        if text not in choices:
            raise ConfigurationError(
                f"{name} must be one of {', '.join(choices)}; got {value!r}")
        return text
    return norm


def _norm_int(name: str, lo: int, hi: int):
    def norm(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or int(value) != value:
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        number = int(value)
        if not lo <= number <= hi:
            raise ConfigurationError(
                f"{name} must be in [{lo}, {hi}], got {number}")
        return number
    return norm


def _norm_bool(name: str):
    def norm(value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigurationError(f"{name} must be a boolean, got {value!r}")
    return norm


_NORMALIZERS = {
    "kernel": _norm_kernel,
    "host_mhz": _norm_positive_float("host_mhz"),
    "budget_mw": _norm_positive_float("budget_mw"),
    "spi_mode": _norm_choice("spi_mode", _SPI_MODES),
    "link_tying": _norm_choice("link_tying", _TYINGS),
    "untied_clock_mhz": _norm_positive_float("untied_clock_mhz"),
    "cluster_size": _norm_int("cluster_size", 1, 8),
    "iterations": _norm_int("iterations", 1, 1_000_000),
    "double_buffered": _norm_bool("double_buffered"),
}


def canonicalize(knobs: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate *knobs* and return the complete canonical configuration."""
    unknown = set(knobs) - set(KNOB_ORDER)
    if unknown:
        raise ConfigurationError(
            f"unknown knob(s) {sorted(unknown)}; known: {list(KNOB_ORDER)}")
    canonical: Dict[str, Any] = {}
    for name in KNOB_ORDER:
        value = knobs.get(name, DEFAULTS[name])
        canonical[name] = _NORMALIZERS[name](value)
    if canonical["link_tying"] == "tied":
        canonical["untied_clock_mhz"] = DEFAULTS["untied_clock_mhz"]
    return canonical


@dataclass(frozen=True)
class Configuration:
    """One validated point of the design space."""

    knobs: Tuple[Tuple[str, Any], ...]
    hash: str

    @classmethod
    def from_knobs(cls, knobs: Mapping[str, Any]) -> "Configuration":
        canonical = canonicalize(knobs)
        return cls(knobs=tuple(canonical.items()),
                   hash=config_hash(canonical))

    def as_dict(self) -> Dict[str, Any]:
        """The canonical knob dict (KNOB_ORDER key order)."""
        return dict(self.knobs)

    def label(self) -> str:
        """Compact human-readable identity for tables and spans."""
        knobs = self.as_dict()
        parts = [knobs["kernel"], f"{knobs['host_mhz']:g}MHz",
                 f"{knobs['budget_mw']:g}mW", knobs["spi_mode"],
                 knobs["link_tying"], f"x{knobs['cluster_size']}",
                 f"i{knobs['iterations']}"]
        if knobs["double_buffered"]:
            parts.append("dbuf")
        return "/".join(parts)


@dataclass
class ParameterSpace:
    """A grid plus explicit points over the exploration knobs."""

    grid: Dict[str, List[Any]] = field(default_factory=dict)
    points: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name, values in self.grid.items():
            if name not in KNOB_ORDER:
                raise ConfigurationError(
                    f"unknown grid knob {name!r}; known: {list(KNOB_ORDER)}")
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"grid knob {name!r} needs a non-empty value list, "
                    f"got {values!r}")

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "ParameterSpace":
        """Build a space from a spec document ``{"grid": ..., "points": ...}``."""
        if not isinstance(spec, Mapping):
            raise ConfigurationError(f"spec must be a mapping, got {spec!r}")
        unknown = set(spec) - {"grid", "points"}
        if unknown:
            raise ConfigurationError(
                f"unknown spec key(s) {sorted(unknown)}; "
                f"expected 'grid' and/or 'points'")
        grid = spec.get("grid", {})
        points = spec.get("points", [])
        if not isinstance(grid, Mapping):
            raise ConfigurationError("spec 'grid' must be a mapping")
        if not isinstance(points, (list, tuple)):
            raise ConfigurationError("spec 'points' must be a list")
        return cls(grid={k: list(v) for k, v in grid.items()},
                   points=[dict(p) for p in points])

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-safe spec document this space was built from."""
        return {"grid": {k: list(v) for k, v in self.grid.items()},
                "points": [dict(p) for p in self.points]}

    def expand(self) -> List[Configuration]:
        """All configurations: grid cross product, then explicit points.

        Deterministic order; duplicates (by content hash) keep only
        their first occurrence, so overlapping grids and points are
        evaluated once.
        """
        configs: List[Configuration] = []
        seen: set = set()

        def add(knobs: Mapping[str, Any]) -> None:
            config = Configuration.from_knobs(knobs)
            if config.hash not in seen:
                seen.add(config.hash)
                configs.append(config)

        names = [name for name in KNOB_ORDER if name in self.grid]
        if names:
            for combo in itertools.product(*(self.grid[n] for n in names)):
                add(dict(zip(names, combo)))
        elif not self.points:
            add({})
        for point in self.points:
            add(point)
        return configs

    def __len__(self) -> int:
        return len(self.expand())
