"""Unit helpers and human-readable formatting.

The library uses **base SI units everywhere**: seconds, hertz, volts,
watts, joules, bytes, bits.  These helpers exist so that call sites can
say ``mhz(32)`` instead of ``32e6`` and so that reports can render
``1.48 mW`` instead of ``0.00148``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import ConfigurationError

# ---------------------------------------------------------------------------
# Constructors (value in conventional engineering unit -> base SI unit)
# ---------------------------------------------------------------------------


def khz(value: float) -> float:
    """Kilohertz to hertz."""
    return float(value) * 1e3


def mhz(value: float) -> float:
    """Megahertz to hertz."""
    return float(value) * 1e6


def ghz(value: float) -> float:
    """Gigahertz to hertz."""
    return float(value) * 1e9


def uw(value: float) -> float:
    """Microwatts to watts."""
    return float(value) * 1e-6


def mw(value: float) -> float:
    """Milliwatts to watts."""
    return float(value) * 1e-3


def ua(value: float) -> float:
    """Microamperes to amperes."""
    return float(value) * 1e-6


def ma(value: float) -> float:
    """Milliamperes to amperes."""
    return float(value) * 1e-3


def us(value: float) -> float:
    """Microseconds to seconds."""
    return float(value) * 1e-6

def ms(value: float) -> float:
    """Milliseconds to seconds."""
    return float(value) * 1e-3


def kib(value: float) -> int:
    """Kibibytes to bytes."""
    return int(round(float(value) * 1024))


def ua_per_mhz(value: float) -> float:
    """Datasheet current density (µA/MHz) to amperes-per-hertz."""
    return float(value) * 1e-6 / 1e6


def uw_per_mhz(value: float) -> float:
    """Power density (µW/MHz) to watts-per-hertz."""
    return float(value) * 1e-6 / 1e6


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def ordered_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float total, starting from 0.0.

    Pricing and serving totals are reproducible bit for bit.  Built-in
    ``sum()`` of floats compensates its rounding (Neumaier) from Python
    3.12 on, so it would round differently across the supported
    interpreters; this is the 3.10/3.11 ``sum()`` everywhere.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class Lcg:
    """The repo's seeded 32-bit LCG, one deterministic uniform stream.

    Serving workloads, the fault and fleet injectors and the noisy SPI
    channel all draw from it, so a seed fixes every random choice bit
    for bit on every interpreter.
    """

    def __init__(self, seed: int):
        self._state = (seed * 0x9E3779B9 + 0x7F4A7C15) & 0xFFFFFFFF

    @classmethod
    def from_state(cls, state: int) -> "Lcg":
        """A generator started from a raw 32-bit *state* (no seed mixing)."""
        lcg = cls(0)
        lcg._state = state & 0xFFFFFFFF
        return lcg

    def uniform(self) -> float:
        """Uniform in [0, 1): the top 24 bits of the next state."""
        self._state = (self._state * 1664525 + 1013904223) & 0xFFFFFFFF
        return (self._state >> 8) / float(1 << 24)

    def exponential(self, rate: float) -> float:
        """Exponentially distributed with mean ``1/rate``."""
        if rate <= 0:
            raise ConfigurationError(f"exponential rate must be > 0: {rate}")
        # 1 - u is in (0, 1]: log never sees zero.
        return -math.log(1.0 - self.uniform()) / rate

    def weighted_choice(self, items: Sequence[str],
                        weights: Sequence[float]) -> str:
        """One item drawn with probability proportional to its weight."""
        total = ordered_sum(weights)
        if total <= 0:
            raise ConfigurationError("weights must sum to > 0")
        mark = self.uniform() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if mark < acc:
                return item
        return items[-1]


def gops(ops: float, seconds: float) -> float:
    """Throughput in giga-operations per second."""
    if seconds <= 0:
        raise ConfigurationError(f"non-positive duration: {seconds!r}")
    return ops / seconds / 1e9


def gops_per_watt(ops: float, seconds: float, watts: float) -> float:
    """Energy efficiency in GOPS/W."""
    if watts <= 0:
        raise ConfigurationError(f"non-positive power: {watts!r}")
    return gops(ops, seconds) / watts


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

_SI_PREFIXES = (
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
)


def si_format(value: float, unit: str, digits: int = 3) -> str:
    """Format *value* with an SI prefix, e.g. ``si_format(1.48e-3, 'W')``
    gives ``'1.48 mW'``.
    """
    if value == 0:
        return f"0 {unit}"
    if math.isnan(value) or math.isinf(value):
        return f"{value} {unit}"
    magnitude = abs(value)
    for scale, prefix in _SI_PREFIXES:
        if magnitude >= scale:
            return f"{value / scale:.{digits}g} {prefix}{unit}"
    scale, prefix = _SI_PREFIXES[-1]
    return f"{value / scale:.{digits}g} {prefix}{unit}"


def format_hz(value: float) -> str:
    """Format a frequency, e.g. ``'32 MHz'``."""
    return si_format(value, "Hz")


def format_watts(value: float) -> str:
    """Format a power, e.g. ``'1.48 mW'``."""
    return si_format(value, "W")


def format_bytes(value: int) -> str:
    """Format a byte count in binary units, e.g. ``'8 kB'``."""
    value = int(value)
    if abs(value) >= 1024 * 1024:
        return f"{value / (1024 * 1024):.3g} MB"
    if abs(value) >= 1024:
        return f"{value / 1024:.3g} kB"
    return f"{value} B"


def format_seconds(value: float) -> str:
    """Format a duration, e.g. ``'1.2 ms'``."""
    return si_format(value, "s")
