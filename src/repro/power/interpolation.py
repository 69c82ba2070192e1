"""Polynomial interpolation of f_max over voltage.

The paper: "To estimate maximum frequency at operating points not covered
by timing analysis, we used a simple polynomial interpolation model."
This module provides that model, plus its (numerically bracketed)
inverse used to find the minimum voltage sustaining a target frequency.

Evaluation runs Horner's rule in pure Python over the coefficients.  It
performs exactly the multiply-adds ``np.polyval`` performs, in the same
order, so every value is bit-identical to it — without numpy's
per-call overhead on a scalar, which dominated the envelope solve.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import OperatingPointError


class PolynomialInterpolator:
    """Least-squares polynomial fit through (x, y) anchors.

    Used for f_max(V); monotonicity over the fitted range is validated at
    construction so the inverse is well defined.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float], degree: int = 2):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < degree + 1:
            raise OperatingPointError("need at least degree+1 matching anchors")
        if np.any(np.diff(xs) <= 0):
            raise OperatingPointError("anchor x values must be strictly increasing")
        self.x_min = float(xs[0])
        self.x_max = float(xs[-1])
        self.coefficients = np.polyfit(xs, ys, degree)
        self._horner = tuple(float(c) for c in self.coefficients)
        probe = np.linspace(self.x_min, self.x_max, 256)
        values = np.polyval(self.coefficients, probe)
        if np.any(np.diff(values) <= 0):
            raise OperatingPointError(
                "fitted polynomial is not monotonically increasing over the range")
        self._y_lo = self._eval(self.x_min)
        self._y_hi = self._eval(self.x_max)

    def _eval(self, x: float) -> float:
        """Horner's rule in ``np.polyval``'s operation order."""
        y = 0.0
        for coefficient in self._horner:
            y = y * x + coefficient
        return y

    def __call__(self, x: float) -> float:
        """Evaluate the fit at *x* (must lie within the anchored range)."""
        if x < self.x_min - 1e-12 or x > self.x_max + 1e-12:
            raise OperatingPointError(
                f"{x} outside interpolation range [{self.x_min}, {self.x_max}]")
        return float(self._eval(min(max(x, self.x_min), self.x_max)))

    def inverse(self, y: float, tolerance: float = 1e-9) -> float:
        """Find x such that f(x) = y by bisection (monotonic fit)."""
        lo, hi = self.x_min, self.x_max
        y_lo, y_hi = self._y_lo, self._y_hi
        y_tol = 1e-9 * max(abs(y_lo), abs(y_hi), 1.0)
        if y < y_lo - y_tol or y > y_hi + y_tol:
            raise OperatingPointError(
                f"{y} outside invertible range [{y_lo}, {y_hi}]")
        y = min(max(y, y_lo), y_hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._eval(mid) < y:
                lo = mid
            else:
                hi = mid
            if hi - lo < tolerance:
                break
        return 0.5 * (lo + hi)
