"""Fixed-point math routines shared by the learning/vision kernels.

These are the software building blocks an embedded fixed-point port
actually ships: a negative-exponential via table lookup with linear
interpolation (SVM RBF kernel), an integer cube with renormalization
(SVM polynomial kernel), a tanh lookup table (CNN activation), CORDIC
vectoring for magnitude/angle (HOG gradients) and a Newton-iteration
reciprocal square root (HOG block normalization).  All are vectorized
over numpy int64 arrays but perform only the integer operations a 32-bit
core would (apart from table construction, which the build process does
offline in floating point).  Each table is built on first use and
shared write-protected, so importing this module loads no numpy.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Tuple

from repro.errors import FixedPointError

if TYPE_CHECKING:
    import numpy as np

#: Q1.15 scale used for signals.
Q15_ONE = 1 << 15
#: Q16.16 scale used for wide values.
Q16_ONE = 1 << 16


def _table(values) -> np.ndarray:
    """*values* as a write-protected int64 array."""
    import numpy as np

    table = np.array(values, dtype=np.int64)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# exp(-x) lookup table (Q3.13 input domain [0, 8), Q1.15 output)
# ---------------------------------------------------------------------------

_EXP_TABLE_BITS = 8
_EXP_TABLE_SIZE = 1 << _EXP_TABLE_BITS
_EXP_INPUT_RANGE = 8.0


@functools.cache
def _exp_table() -> np.ndarray:
    return _table([
        int(round(math.exp(-_EXP_INPUT_RANGE * i / _EXP_TABLE_SIZE) * Q15_ONE))
        for i in range(_EXP_TABLE_SIZE + 1)])


def exp_neg_q(x_q16: np.ndarray) -> np.ndarray:
    """``exp(-x)`` for non-negative Q16.16 inputs, Q1.15 output.

    Table lookup with linear interpolation; inputs beyond the table
    domain (x >= 8) underflow to zero, as in the embedded port.
    """
    import numpy as np

    x = np.asarray(x_q16, dtype=np.int64)
    if np.any(x < 0):
        raise FixedPointError("exp_neg_q requires non-negative inputs")
    max_q = int(_EXP_INPUT_RANGE * Q16_ONE) - 1
    clipped = np.minimum(x, max_q)
    # Index into the table: x / 8 * 256 in Q16.16 -> top bits.
    step_q16 = int(_EXP_INPUT_RANGE * Q16_ONE) // _EXP_TABLE_SIZE
    index = clipped // step_q16
    frac = (clipped - index * step_q16) * Q15_ONE // step_q16
    table = _exp_table()
    lo = table[index]
    hi = table[index + 1]
    value = lo + ((hi - lo) * frac >> 15)
    return np.where(x > max_q, 0, value)


# ---------------------------------------------------------------------------
# Integer cube with Q1.15 renormalization (polynomial SVM kernel)
# ---------------------------------------------------------------------------

def cube_q15(x: np.ndarray) -> np.ndarray:
    """``x**3`` in Q1.15 with per-step renormalization and saturation."""
    import numpy as np

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


@functools.cache
def _tanh_table() -> np.ndarray:
    return _table([
        int(round(math.tanh(_TANH_RANGE * (i / _TANH_SIZE)) * (Q15_ONE - 1)))
        for i in range(_TANH_SIZE + 1)])


#: Bytes of the tanh table as shipped in a kernel binary (int16 entries).
TANH_TABLE_BYTES = 2 * (_TANH_SIZE + 1)


def tanh_q15(x: np.ndarray) -> np.ndarray:
    """``tanh(x)`` for Q4.15-ish inputs (int32 accumulator values scaled
    to Q1.15 domain), odd-symmetric table lookup with interpolation."""
    import numpy as np

    x = np.asarray(x, dtype=np.int64)
    sign = np.sign(x)
    magnitude = np.abs(x)
    max_q = int(_TANH_RANGE * Q15_ONE) - 1
    clipped = np.minimum(magnitude, max_q)
    step = int(_TANH_RANGE * Q15_ONE) // _TANH_SIZE
    index = clipped // step
    frac = (clipped - index * step) * Q15_ONE // step
    table = _tanh_table()
    lo = table[index]
    hi = table[index + 1]
    value = lo + ((hi - lo) * frac >> 15)
    return sign * value


def hardtanh_q15(x: np.ndarray) -> np.ndarray:
    """The approximated activation: clip to [-1, 1) in Q1.15 (2 ops)."""
    import numpy as np

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
_CORDIC_GAIN = math.prod([1.0 / math.sqrt(1 + 2.0 ** (-2 * i))
                          for i in range(CORDIC_ITERATIONS)])
#: Inverse gain in Q1.15 used to de-scale magnitudes.
CORDIC_INV_GAIN_Q15 = int(round(_CORDIC_GAIN * Q15_ONE))
_HALF_PI_Q16 = int(round(math.pi / 2 * Q16_ONE))


@functools.cache
def _cordic_angles_q16() -> np.ndarray:
    return _table([int(round(math.atan(2.0 ** (-i)) * Q16_ONE))
                   for i in range(CORDIC_ITERATIONS)])


@functools.cache
def cordic_angle_steps() -> int:
    """Iterations that still move a Q16.16 angle.

    The angle table is zero from this step on (``atan(2**-17)`` rounds
    to 0), so later iterations refine only the magnitude: a caller that
    needs only the angle runs this many and gets the angle of all
    :data:`CORDIC_ITERATIONS`."""
    return int(_cordic_angles_q16().nonzero()[0][-1]) + 1


def cordic_vectoring(x: np.ndarray, y: np.ndarray,
                     iterations: int = CORDIC_ITERATIONS
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectoring-mode CORDIC.

    Inputs are integer vectors (e.g. Q16.16 gradients).  Returns
    ``(magnitude, angle_q16)`` where magnitude is in the input scale
    (gain-corrected, int64) and the angle is radians in Q16.16, in
    [-pi, pi].  Two int32 inputs are rotated in int32 lanes, which
    hold every rotation exactly while ``|x|, |y| < 2**29`` (the
    rotations grow the vector by less than 2.4x); anything else runs in
    int64.
    """
    import numpy as np

    x, y = _cordic_lanes(x, y, iterations)
    sign_bit = 8 * x.dtype.itemsize - 1
    # Rotate the left half plane by +-pi/2 onto the right one: +1
    # rotates clockwise (y >= 0), -1 counter-clockwise.
    sign = (y >> sign_bit) | 1
    left = x < 0
    x, y = np.where(left, sign * y, x), np.where(left, -sign * x, y)
    angle = sign * left * _HALF_PI_Q16
    # Python int steps keep the angle arithmetic in the lanes' width.
    for i, step in enumerate(_cordic_angles_q16()[:iterations].tolist()):
        sign = (y >> sign_bit) | 1
        x, y = x + sign * (y >> i), y - sign * (x >> i)
        angle += sign * step
    magnitude = (x.astype(np.int64) * CORDIC_INV_GAIN_Q15) >> 15
    return magnitude, angle


def cordic_vectoring_select(x: np.ndarray, y: np.ndarray,
                            iterations: int = CORDIC_ITERATIONS
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Reference twin of :func:`cordic_vectoring`: the pre-rotation and
    each iteration pick both rotations' results with ``np.where``
    instead of multiplying by the rotation sign.  The tests hold the two
    equal bit for bit."""
    import numpy as np

    x, y = _cordic_lanes(x, y, iterations)
    negative_x = x < 0
    y_positive = y >= 0
    x, y = (np.where(negative_x, np.where(y_positive, y, -y), x),
            np.where(negative_x, np.where(y_positive, -x, x), y))
    angle = np.where(negative_x,
                     np.where(y_positive, _HALF_PI_Q16, -_HALF_PI_Q16),
                     0).astype(x.dtype)
    for i, step in enumerate(_cordic_angles_q16()[:iterations].tolist()):
        shift_x = x >> i
        shift_y = y >> i
        rotate_down = y >= 0
        x = np.where(rotate_down, x + shift_y, x - shift_y)
        y = np.where(rotate_down, y - shift_x, y + shift_x)
        angle = np.where(rotate_down, angle + step, angle - step)
    magnitude = (x.astype(np.int64) * CORDIC_INV_GAIN_Q15) >> 15
    return magnitude, angle


def _cordic_lanes(x: np.ndarray, y: np.ndarray, iterations: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Validate; *x* and *y* as arrays of the lanes they rotate in."""
    import numpy as np

    if iterations < 1 or iterations > CORDIC_ITERATIONS:
        raise FixedPointError(f"unsupported iteration count {iterations}")
    x = np.asarray(x)
    y = np.asarray(y)
    lanes = np.int32 if x.dtype == y.dtype == np.int32 else np.int64
    return x.astype(lanes, copy=False), y.astype(lanes, copy=False)


# ---------------------------------------------------------------------------
# Reciprocal square root (Q16.16) via Newton iterations
# ---------------------------------------------------------------------------

@functools.cache
def _powers_of_two() -> np.ndarray:
    return _table([1 << i for i in range(63)])


def bit_length(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each non-negative int64 value.

    Read off the float64 exponent, which is exact below 2**53; values
    holding a larger one, whose conversion may round up to the next
    power of two, count the powers of two not above each value instead.
    Exact over the whole int64 range."""
    import numpy as np

    values = np.asarray(values, dtype=np.int64)
    if values.size and values.max() >= 1 << 53:
        return _powers_of_two().searchsorted(values, side="right")
    return np.frexp(values)[1]


#: 1/sqrt(2) in Q16.16.
_INV_SQRT2_Q16 = 46341


@functools.cache
def _rsqrt_seeds() -> np.ndarray:
    """The Newton seed of :func:`rsqrt_q16` per input bit length.

    An input of bit length ``b`` is about ``2**(b - 17)`` in real value,
    so its seed is ``2**(-(b - 17) / 2)`` in Q16.16; the odd-exponent
    correction by 1/sqrt(2) keeps it within ~29 % of the true value,
    safely inside the Newton convergence basin (v*y^2 < 3)."""
    seeds = []
    for bits in range(64):
        shift = bits - 17
        half = shift // 2
        seed = (Q16_ONE >> min(half, 31) if half >= 0
                else Q16_ONE << min(-half, 15))
        if shift % 2:
            seed = (seed * _INV_SQRT2_Q16) >> 16
        seeds.append(max(seed, 1))
    return _table(seeds)


def rsqrt_q16(values: np.ndarray, iterations: int = 4) -> np.ndarray:
    """``1/sqrt(v)`` for positive Q16.16 inputs, Q16.16 output.

    Seeds from the input's exponent (a bit-trick stand-in, looked up per
    bit length) and refines with Newton steps performed entirely in
    integer arithmetic — exactly the structure the embedded port uses
    for HOG normalization.
    """
    import numpy as np

    v = np.asarray(values, dtype=np.int64)
    if np.any(v <= 0):
        raise FixedPointError("rsqrt_q16 requires positive inputs")
    y = _rsqrt_seeds()[bit_length(v)]
    for _ in range(iterations):
        # y = y * (3 - v*y*y) / 2, all Q16.16.  v*y goes first: squaring
        # a small y would underflow the Q16.16 intermediate to zero.
        vy = (v * y) >> 16
        vy2 = (vy * y) >> 16
        y = (y * ((3 << 16) - vy2)) >> 17
        y = np.maximum(y, 1)
    return y
