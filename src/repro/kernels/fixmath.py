"""Fixed-point math routines shared by the learning/vision kernels.

These are the software building blocks an embedded fixed-point port
actually ships: a negative-exponential via table lookup with linear
interpolation (SVM RBF kernel), an integer cube with renormalization
(SVM polynomial kernel), a tanh lookup table (CNN activation), CORDIC
vectoring for magnitude/angle (HOG gradients) and a Newton-iteration
reciprocal square root (HOG block normalization).  All are vectorized
over numpy int64 arrays but perform only the integer operations a 32-bit
core would (apart from table construction, which the build process does
offline in floating point).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import FixedPointError

#: Q1.15 scale used for signals.
Q15_ONE = 1 << 15
#: Q16.16 scale used for wide values.
Q16_ONE = 1 << 16

# ---------------------------------------------------------------------------
# exp(-x) lookup table (Q3.13 input domain [0, 8), Q1.15 output)
# ---------------------------------------------------------------------------

_EXP_TABLE_BITS = 8
_EXP_TABLE_SIZE = 1 << _EXP_TABLE_BITS
_EXP_INPUT_RANGE = 8.0

_EXP_TABLE = np.array(
    [int(round(math.exp(-_EXP_INPUT_RANGE * i / _EXP_TABLE_SIZE) * Q15_ONE))
     for i in range(_EXP_TABLE_SIZE + 1)],
    dtype=np.int64)


def exp_neg_q(x_q16: np.ndarray) -> np.ndarray:
    """``exp(-x)`` for non-negative Q16.16 inputs, Q1.15 output.

    Table lookup with linear interpolation; inputs beyond the table
    domain (x >= 8) underflow to zero, as in the embedded port.
    """
    x = np.asarray(x_q16, dtype=np.int64)
    if np.any(x < 0):
        raise FixedPointError("exp_neg_q requires non-negative inputs")
    max_q = int(_EXP_INPUT_RANGE * Q16_ONE) - 1
    clipped = np.minimum(x, max_q)
    # Index into the table: x / 8 * 256 in Q16.16 -> top bits.
    step_q16 = int(_EXP_INPUT_RANGE * Q16_ONE) // _EXP_TABLE_SIZE
    index = clipped // step_q16
    frac = (clipped - index * step_q16) * Q15_ONE // step_q16
    lo = _EXP_TABLE[index]
    hi = _EXP_TABLE[index + 1]
    value = lo + ((hi - lo) * frac >> 15)
    return np.where(x > max_q, 0, value)


# ---------------------------------------------------------------------------
# Integer cube with Q1.15 renormalization (polynomial SVM kernel)
# ---------------------------------------------------------------------------

def cube_q15(x: np.ndarray) -> np.ndarray:
    """``x**3`` in Q1.15 with per-step renormalization and saturation."""
    x = np.asarray(x, dtype=np.int64)
    square = np.clip((x * x) >> 15, -(1 << 31), (1 << 31) - 1)
    cube = np.clip((square * x) >> 15, -(1 << 31), (1 << 31) - 1)
    return cube


# ---------------------------------------------------------------------------
# tanh lookup table (Q1.15 -> Q1.15)
# ---------------------------------------------------------------------------

_TANH_BITS = 9
_TANH_SIZE = 1 << _TANH_BITS
_TANH_RANGE = 4.0

_TANH_TABLE = np.array(
    [int(round(math.tanh(_TANH_RANGE * (i / _TANH_SIZE)) * (Q15_ONE - 1)))
     for i in range(_TANH_SIZE + 1)],
    dtype=np.int64)

#: Bytes of the tanh table as shipped in a kernel binary (int16 entries).
TANH_TABLE_BYTES = 2 * (_TANH_SIZE + 1)


def tanh_q15(x: np.ndarray) -> np.ndarray:
    """``tanh(x)`` for Q4.15-ish inputs (int32 accumulator values scaled
    to Q1.15 domain), odd-symmetric table lookup with interpolation."""
    x = np.asarray(x, dtype=np.int64)
    sign = np.sign(x)
    magnitude = np.abs(x)
    max_q = int(_TANH_RANGE * Q15_ONE) - 1
    clipped = np.minimum(magnitude, max_q)
    step = int(_TANH_RANGE * Q15_ONE) // _TANH_SIZE
    index = clipped // step
    frac = (clipped - index * step) * Q15_ONE // step
    lo = _TANH_TABLE[index]
    hi = _TANH_TABLE[index + 1]
    value = lo + ((hi - lo) * frac >> 15)
    return sign * value


def hardtanh_q15(x: np.ndarray) -> np.ndarray:
    """The approximated activation: clip to [-1, 1) in Q1.15 (2 ops)."""
    x = np.asarray(x, dtype=np.int64)
    return np.clip(x, -Q15_ONE, Q15_ONE - 1)


# ---------------------------------------------------------------------------
# CORDIC vectoring: (x, y) -> (magnitude, angle)
# ---------------------------------------------------------------------------

#: CORDIC iteration count: the textbook word-width configuration for a
#: 32-bit integer CORDIC (iterations past ~17 no longer move the Q16.16
#: angle, but fixed-count loops are how the embedded ports are written —
#: and how the paper's hog pays for its dynamic-range requirements).
CORDIC_ITERATIONS = 32
_CORDIC_GAIN = float(np.prod([1.0 / math.sqrt(1 + 2.0 ** (-2 * i))
                              for i in range(CORDIC_ITERATIONS)]))
#: Inverse gain in Q1.15 used to de-scale magnitudes.
CORDIC_INV_GAIN_Q15 = int(round(_CORDIC_GAIN * Q15_ONE))

_CORDIC_ANGLES_Q16 = np.array(
    [int(round(math.atan(2.0 ** (-i)) * Q16_ONE))
     for i in range(CORDIC_ITERATIONS)],
    dtype=np.int64)


def cordic_vectoring(x: np.ndarray, y: np.ndarray,
                     iterations: int = CORDIC_ITERATIONS
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectoring-mode CORDIC.

    Inputs are integer vectors (e.g. Q16.16 gradients).  Returns
    ``(magnitude, angle_q16)`` where magnitude is in the input scale
    (gain-corrected) and the angle is radians in Q16.16, in [-pi, pi].
    """
    x, y, angle = _cordic_prerotate(x, y, iterations)
    for i in range(iterations):
        # +1 rotates clockwise (y >= 0), -1 counter-clockwise.
        sign = (y >= 0).astype(np.int64) * 2 - 1
        x, y = x + sign * (y >> i), y - sign * (x >> i)
        angle = angle + sign * _CORDIC_ANGLES_Q16[i]
    magnitude = (x * CORDIC_INV_GAIN_Q15) >> 15
    return magnitude, angle


def cordic_vectoring_select(x: np.ndarray, y: np.ndarray,
                            iterations: int = CORDIC_ITERATIONS
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Reference twin of :func:`cordic_vectoring`: each iteration picks
    both rotations' results with ``np.where`` instead of multiplying by
    the rotation sign.  The tests hold the two equal bit for bit."""
    x, y, angle = _cordic_prerotate(x, y, iterations)
    for i in range(iterations):
        shift_x = x >> i
        shift_y = y >> i
        rotate_down = y >= 0
        x = np.where(rotate_down, x + shift_y, x - shift_y)
        y = np.where(rotate_down, y - shift_x, y + shift_x)
        angle = np.where(rotate_down,
                         angle + _CORDIC_ANGLES_Q16[i],
                         angle - _CORDIC_ANGLES_Q16[i])
    magnitude = (x * CORDIC_INV_GAIN_Q15) >> 15
    return magnitude, angle


def _cordic_prerotate(x: np.ndarray, y: np.ndarray, iterations: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate, then rotate into the right half plane by +-pi/2."""
    if iterations < 1 or iterations > CORDIC_ITERATIONS:
        raise FixedPointError(f"unsupported iteration count {iterations}")
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    half_pi_q16 = int(round(math.pi / 2 * Q16_ONE))
    negative_x = x < 0
    y_positive = y >= 0
    new_x = np.where(negative_x, np.where(y_positive, y, -y), x)
    new_y = np.where(negative_x, np.where(y_positive, -x, x), y)
    angle = np.where(negative_x,
                     np.where(y_positive, half_pi_q16, -half_pi_q16),
                     0)
    return new_x, new_y, angle


# ---------------------------------------------------------------------------
# Reciprocal square root (Q16.16) via Newton iterations
# ---------------------------------------------------------------------------

_POWERS_OF_TWO = np.left_shift(np.int64(1), np.arange(63, dtype=np.int64))


def bit_length(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each non-negative int64 value: the count of
    powers of two not above it.  Exact over the whole int64 range,
    unlike ``np.frexp``, whose float64 conversion rounds above 2**53."""
    return np.searchsorted(_POWERS_OF_TWO, values, side="right")


def rsqrt_q16(values: np.ndarray, iterations: int = 4) -> np.ndarray:
    """``1/sqrt(v)`` for positive Q16.16 inputs, Q16.16 output.

    Seeds from the float estimate's exponent (a bit-trick stand-in) and
    refines with Newton steps performed entirely in integer arithmetic —
    exactly the structure the embedded port uses for HOG normalization.
    """
    v = np.asarray(values, dtype=np.int64)
    if np.any(v <= 0):
        raise FixedPointError("rsqrt_q16 requires positive inputs")
    # Seed from the exponent: v ~ 2^(bits-17) in real value, so
    # rsqrt(v) ~ 2^(-(bits-17)/2).  The odd-exponent correction by
    # 1/sqrt(2) keeps the seed within ~29 % of the true value, safely
    # inside the Newton convergence basin (v*y^2 < 3).
    shift = bit_length(v) - 17
    half = np.floor_divide(shift, 2)
    y = np.where(half >= 0,
                 Q16_ONE >> np.clip(half, 0, 31),
                 Q16_ONE << np.clip(-half, 0, 15))
    odd = np.mod(shift, 2) == 1
    inv_sqrt2 = 46341  # 1/sqrt(2) in Q16.16
    y = np.where(odd, (y * inv_sqrt2) >> 16, y)
    y = np.maximum(y, 1)
    for _ in range(iterations):
        # y = y * (3 - v*y*y) / 2, all Q16.16.  v*y goes first: squaring
        # a small y would underflow the Q16.16 intermediate to zero.
        vy = (v * y) >> 16
        vy2 = (vy * y) >> 16
        y = (y * ((3 << 16) - vy2)) >> 17
        y = np.maximum(y, 1)
    return y
