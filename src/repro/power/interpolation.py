"""Polynomial interpolation of f_max over voltage.

The paper: "To estimate maximum frequency at operating points not covered
by timing analysis, we used a simple polynomial interpolation model."
This module provides that model, plus its inverse used to find the
minimum voltage sustaining a target frequency.

The fit is ``np.polyfit``'s.  For the anchor set the package ships
(PULP3's f_max table) its float64 coefficients are stored here, so
building the power model loads no numpy and does not depend on the
installed LAPACK build; any other anchors are fitted by ``np.polyfit``,
which loads numpy then.  Everything else runs in pure Python in numpy's
operation order, so every value is bit-identical to numpy's: evaluation
is Horner's rule with exactly the multiply-adds ``np.polyval``
performs, derivatives are ``np.polyder``'s products and probe grids are
``np.linspace``'s and ``lo + width * np.arange(n)``'s points.

The inverse is *defined* by a bisection (:meth:`PolynomialInterpolator.bisect`)
and computed, where the interpolator has certified it, by a direct
root that returns the same bits (:meth:`PolynomialInterpolator.inverse`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import OperatingPointError

#: Unit roundoff of IEEE-754 binary64.
UNIT_ROUNDOFF = 2.0 ** -53
#: Start-table cells of a certified inverse (also the slope bound's cells).
_START_CELLS = 256
#: Newton steps before a root counts as not found.
_NEWTON_STEPS = 8
#: Points of the monotonicity probe (``np.linspace``'s *num*).
_PROBE_POINTS = 256

#: ``np.polyfit``'s float64 coefficients for the anchor sets the package
#: ships, keyed by (xs, ys, degree): PULP3's f_max(V) table
#: (:data:`repro.power.pulp_model.PULP3_TABLE`).  The tests hold them
#: equal to a fresh fit, bit for bit.
_STORED_FITS: Dict[Tuple[Tuple[float, ...], Tuple[float, ...], int],
                   Tuple[float, ...]] = {
    ((0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
     (46e6, 115e6, 195e6, 285e6, 370e6, 450e6), 5):
        (24166666666.798832, -90416666667.17354, 132208333334.10228,
         -94145833333.91002, 33370500000.213703, -4733000000.031283),
}


def _horner(coefficients: Sequence[float], x: float) -> float:
    """The polynomial at *x* in ``np.polyval``'s operation order."""
    y = 0.0
    for coefficient in coefficients:
        y = y * x + coefficient
    return y


def _derivative(coefficients: Sequence[float]) -> Tuple[float, ...]:
    """``np.polyder``'s coefficients: each one times its power."""
    degree = len(coefficients) - 1
    return tuple(coefficient * (degree - i)
                 for i, coefficient in enumerate(coefficients[:-1]))


def _grid(lo: float, hi: float, cells: int) -> Tuple[float, List[float]]:
    """Cell width and the points ``lo + width * np.arange(cells + 1)``."""
    width = (hi - lo) / cells
    return width, [lo + width * i for i in range(cells + 1)]


def _linspace(lo: float, hi: float, num: int) -> List[float]:
    """``np.linspace(lo, hi, num)`` (num >= 2), in its operation order."""
    div = num - 1
    delta = hi - lo
    step = delta / div
    if step == 0:       # numpy's path for a subnormal step
        points = [i / div * delta + lo for i in range(num)]
    else:
        points = [i * step + lo for i in range(num)]
    points[-1] = hi
    return points


def bisection_cell(lo: float, hi: float, halvings: int) -> Optional[float]:
    """Width of the last cell of *halvings* bisection steps on [lo, hi],
    when every point such a bisection computes is exact; else None.

    Each midpoint ``0.5 * (lo + hi)`` of a bisection lies, in exact
    arithmetic, on the grid ``lo + j * cell`` with ``cell = (hi - lo) /
    2**halvings``.  If lo, hi and cell are integer multiples of one power
    of two q, and |lo|, |hi| < 2**52 q, then every grid point, every sum
    and difference of two of them and every half-sum is a multiple of q/2
    below 2**53 q in magnitude, so the float operations are exact: the
    float bisection walks this grid, and ``lo + j * cell`` computes its
    points bit for bit.  (Checked in integers, in units of 1/scale.)
    """
    (lo_n, lo_d), (hi_n, hi_d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    scale = max(lo_d, hi_d) << halvings
    lo_m, hi_m = lo_n * (scale // lo_d), hi_n * (scale // hi_d)
    cell_m = (hi_m - lo_m) >> halvings
    if cell_m <= 0:
        return None
    # q = 2**zeros / scale: the largest power of two all three share.
    zeros = min((m & -m).bit_length() - 1 for m in (lo_m, hi_m, cell_m) if m)
    if max(abs(lo_m), abs(hi_m)) >> zeros >= 2 ** 52:
        return None
    return cell_m / scale


def _horner_error_bound(coefficients: Sequence[float], radius: float) -> float:
    """Bound on |Horner(p, x) - p(x)| for exact |x| <= *radius*.

    Higham, *Accuracy and Stability of Numerical Algorithms*, eq. (5.3):
    ``gamma_2n * sum |a_i| |x|**i`` with ``gamma_k = k u / (1 - k u)``;
    ``4 n u`` is used for gamma, which also covers the rounding of the
    bound itself.
    """
    degree = len(coefficients) - 1
    magnitude = 0.0
    for coefficient in coefficients:
        magnitude = magnitude * radius + abs(coefficient)
    return 4 * max(degree, 1) * UNIT_ROUNDOFF * magnitude


def _slope_floor(coefficients: Sequence[float], lo: float, hi: float,
                cells: int = _START_CELLS) -> float:
    """A lower bound of p' over [lo, hi].

    About each of ``cells + 1`` points s spaced d apart from lo to hi,
    p' is exactly its finite Taylor expansion, so ``p'(s + t) >= p'(s) -
    sum_k |p^(k+1)(s)| d**k / k!`` for |t| <= d.  These neighbourhoods
    overlap, so they cover [lo, hi] even with the points rounded.  Each
    derivative value is lowered by its Horner error bound.
    """
    radius = max(abs(lo), abs(hi))
    width, starts = _grid(lo, hi, cells)
    derivative = _derivative(coefficients)
    bound = _horner_error_bound(derivative, radius)
    floor = [_horner(derivative, x) - bound for x in starts]
    for order in range(1, len(coefficients) - 1):
        derivative = _derivative(derivative)
        bound = _horner_error_bound(derivative, radius)
        scale, factorial = width ** order, math.factorial(order)
        floor = [low - (abs(_horner(derivative, x)) + bound) * scale / factorial
                 for low, x in zip(floor, starts)]
    return min(floor)


class _Certificate(NamedTuple):
    """What a certified inverse needs: the bisection's grid, and a start
    table and the derivative for Newton's method."""

    cell: float                     #: width of the bisection's last cell
    last: int                       #: index of the last cell
    starts: Tuple[float, ...]       #: start-table points (on the grid)
    spacing: float
    values: Tuple[float, ...]       #: Horner's f at the start points
    slope: Tuple[float, ...]        #: coefficients of f'
    #: Newton step below which the next step moves the root by a small
    #: fraction of a cell (quadratic convergence).
    settle: float


class PolynomialInterpolator:
    """Least-squares polynomial fit through (x, y) anchors.

    Used for f_max(V); monotonicity over the fitted range is validated at
    construction so the inverse is well defined.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float], degree: int = 2):
        try:
            xs, ys = tuple(map(float, xs)), tuple(map(float, ys))
        except TypeError:   # not flat sequences of numbers
            xs = ys = None
        if xs is None or len(xs) != len(ys) or len(xs) < degree + 1:
            raise OperatingPointError("need at least degree+1 matching anchors")
        if any(b - a <= 0 for a, b in zip(xs, xs[1:])):
            raise OperatingPointError("anchor x values must be strictly increasing")
        self.x_min = xs[0]
        self.x_max = xs[-1]
        coefficients = _STORED_FITS.get((xs, ys, degree))
        if coefficients is None:
            import numpy as np

            coefficients = tuple(float(c) for c in np.polyfit(xs, ys, degree))
        #: The fit's coefficients, highest power first (``np.polyfit``'s).
        self.coefficients: Tuple[float, ...] = coefficients
        values = [self._eval(x)
                  for x in _linspace(self.x_min, self.x_max, _PROBE_POINTS)]
        if any(b - a <= 0 for a, b in zip(values, values[1:])):
            raise OperatingPointError(
                "fitted polynomial is not monotonically increasing over the range")
        self._y_lo = self._eval(self.x_min)
        self._y_hi = self._eval(self.x_max)
        #: tolerance -> certificate (None: not certified); filled lazily.
        self._certificates: Dict[float, Optional[_Certificate]] = {}

    def _eval(self, x: float) -> float:
        """Horner's rule in ``np.polyval``'s operation order."""
        return _horner(self.coefficients, x)

    def __call__(self, x: float) -> float:
        """Evaluate the fit at *x* (must lie within the anchored range)."""
        if x < self.x_min - 1e-12 or x > self.x_max + 1e-12:
            raise OperatingPointError(
                f"{x} outside interpolation range [{self.x_min}, {self.x_max}]")
        return float(self._eval(min(max(x, self.x_min), self.x_max)))

    def inverse(self, y: float, tolerance: float = 1e-9) -> float:
        """Find x such that f(x) = y: :meth:`bisect`'s result, bit for bit.

        The bisection halves [x_min, x_max] a fixed number of times and
        returns the midpoint of its last cell.  Once :meth:`certify` has
        certified *tolerance*, that cell is found directly: Newton's
        method from a start table gives the root, the root is snapped to
        the grid cell [lo, lo + cell] holding it, and two Horner
        evaluations confirm the cell (``f(lo) < y`` unless lo is x_min,
        ``f(lo + cell) >= y`` unless lo + cell is x_max).  An unconfirmed
        cell falls back to the bisection.

        A confirmed cell is the bisection's.  The certificate proves that
        every point the bisection computes is exact, so its probes lie on
        the grid ``x_min + j * cell``, and that Horner's f is strictly
        increasing along that grid.  The bisection's test ``f(x) < y`` is
        then true up to one grid index and false after it, and a
        bisection over such a test ends on the one cell whose lower end
        passes and whose upper end fails — the confirmed cell.
        """
        y_lo, y_hi = self._y_lo, self._y_hi
        y_tol = 1e-9 * max(abs(y_lo), abs(y_hi), 1.0)
        if y < y_lo - y_tol or y > y_hi + y_tol:
            raise OperatingPointError(
                f"{y} outside invertible range [{y_lo}, {y_hi}]")
        y = min(max(y, y_lo), y_hi)
        certificate = self.certify(tolerance)
        if certificate is not None:
            lo = self._snap(y, certificate)
            if lo is not None:
                return 0.5 * (lo + (lo + certificate.cell))
        return self.bisect(y, tolerance)

    def bisect(self, y: float, tolerance: float = 1e-9) -> float:
        """The reference inverse: bisection of the monotonic fit for a
        target *y* already inside [f(x_min), f(x_max)]."""
        lo, hi = self.x_min, self.x_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._eval(mid) < y:
                lo = mid
            else:
                hi = mid
            if hi - lo < tolerance:
                break
        return 0.5 * (lo + hi)

    def certify(self, tolerance: float = 1e-9) -> Optional[_Certificate]:
        """Certify that :meth:`inverse` may snap at *tolerance*; None if not.

        Two conditions, checked once per tolerance:

        * the bisection's points are exact (:func:`bisection_cell` over
          the number of halvings :meth:`bisect` makes at *tolerance*);
        * Horner's f is strictly increasing along the grid: the exact
          polynomial rises by at least ``cell`` times a lower bound of f'
          (:func:`_slope_floor`) from one grid point to the next, and
          Horner moves each value by at most its error bound
          (:func:`_horner_error_bound`), so a rise above twice the bound
          suffices (it is required to exceed four times the bound).
        """
        if tolerance in self._certificates:
            return self._certificates[tolerance]
        # The bisection's widths; exact whenever its grid is.
        width, halvings = self.x_max - self.x_min, 0
        while halvings < 200:
            width *= 0.5
            halvings += 1
            if width < tolerance:
                break
        cell = bisection_cell(self.x_min, self.x_max, halvings)
        certificate = None
        if cell is not None:
            radius = max(abs(self.x_min), abs(self.x_max))
            floor = _slope_floor(self.coefficients, self.x_min, self.x_max)
            if floor * cell > 4 * _horner_error_bound(self.coefficients, radius):
                # Start points on the grid, so their values increase too.
                width, starts = _grid(self.x_min, self.x_max,
                                      min(_START_CELLS, 2 ** halvings))
                slope = _derivative(self.coefficients)
                curvature = _derivative(slope)
                bend = max(abs(_horner(curvature, x)) for x in starts)
                certificate = _Certificate(
                    cell, 2 ** halvings - 1, tuple(starts), width,
                    tuple(self._eval(x) for x in starts), slope,
                    math.sqrt(cell * floor / (8 * bend)) if bend else cell)
        self._certificates[tolerance] = certificate
        return certificate

    def _snap(self, y: float, certificate: _Certificate) -> Optional[float]:
        """Lower end of the bisection's last cell for *y*, or None if the
        cell holding Newton's root does not pass the check."""
        values, starts = certificate.values, certificate.starts
        index = min(max(bisect_right(values, y) - 1, 0), len(values) - 2)
        low = values[index]
        x = starts[index] + (y - low) * (certificate.spacing
                                          / (values[index + 1] - low))
        x_min, x_max, cell = self.x_min, self.x_max, certificate.cell
        for _ in range(_NEWTON_STEPS):
            step = (self._eval(x) - y) / _horner(certificate.slope, x)
            x = min(max(x - step, x_min), x_max)
            if abs(step) < certificate.settle:
                break
        else:
            return None
        j = min(int((x - x_min) / cell), certificate.last)
        lo = x_min + j * cell
        if (j == 0 or self._eval(lo) < y) and \
                (j == certificate.last or not self._eval(lo + cell) < y):
            return lo
        return None
