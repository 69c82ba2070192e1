"""Tests for the shared fixed-point math routines."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FixedPointError
from repro.kernels import fixmath
from repro.kernels.fixmath import (
    CORDIC_INV_GAIN_Q15,
    CORDIC_ITERATIONS,
    Q15_ONE,
    Q16_ONE,
    bit_length,
    cordic_angle_steps,
    cordic_vectoring,
    cordic_vectoring_select,
    cube_q15,
    exp_neg_q,
    hardtanh_q15,
    rsqrt_q16,
    tanh_q15,
)


#: sha256 of each table's int64 bytes, and its length, as the tables
#: were when numpy built them at import.
TABLE_DIGESTS = {
    "_exp_table": (257, "3c79d00fbbfef0e03eb0a96a26f02f3a"
                        "1d771e2ca769c11d1de717944209658b"),
    "_tanh_table": (513, "4a5d948560c7de0cf57548d1e5937db9"
                         "501cf4a7cc5ced8c21e8b08ab2f3ad7a"),
    "_cordic_angles_q16": (32, "18955bcded638d7e7c6a96a474ed92f5"
                               "6c898d8137e46dbad449ca3e697b8ec9"),
    "_powers_of_two": (63, "a56ac43bbedc7b3de4239ad670338972"
                           "1b2f8e75d661778765069de8831d0dbc"),
}


class TestTables:
    @pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
    def test_values_unchanged(self, name):
        table = getattr(fixmath, name)()
        length, digest = TABLE_DIGESTS[name]
        assert table.dtype == np.int64 and table.shape == (length,)
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
    def test_built_once_shared_and_write_protected(self, name):
        build = getattr(fixmath, name)
        table = build()
        assert build() is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = table[0]

    def test_cordic_gain_unchanged(self):
        assert CORDIC_INV_GAIN_Q15 == 19898
        assert fixmath._CORDIC_GAIN.hex() == "0x1.36e9db5086bcdp-1"


class TestExpNeg:
    def test_exp_zero_is_one(self):
        assert exp_neg_q(np.array([0]))[0] == pytest.approx(Q15_ONE, abs=64)

    def test_matches_float_exp(self):
        xs = np.linspace(0.0, 6.0, 50)
        raw = exp_neg_q((xs * Q16_ONE).astype(np.int64))
        expected = np.exp(-xs)
        assert np.allclose(raw / Q15_ONE, expected, atol=2e-3)

    def test_underflow_to_zero(self):
        assert exp_neg_q(np.array([20 * Q16_ONE]))[0] == 0

    def test_monotone_decreasing(self):
        xs = (np.linspace(0, 7.9, 100) * Q16_ONE).astype(np.int64)
        values = exp_neg_q(xs)
        assert np.all(np.diff(values) <= 0)

    def test_negative_input_rejected(self):
        with pytest.raises(FixedPointError):
            exp_neg_q(np.array([-1]))


class TestCube:
    def test_matches_float(self):
        xs = np.linspace(-0.9, 0.9, 30)
        raw = cube_q15((xs * Q15_ONE).astype(np.int64))
        assert np.allclose(raw / Q15_ONE, xs ** 3, atol=2e-3)

    def test_odd_symmetry_within_shift_floor(self):
        # Arithmetic >> floors toward -inf, so the fixed-point cube is
        # odd only to within one LSB (faithful to the embedded code).
        x = np.array([12345])
        assert abs(cube_q15(x)[0] + cube_q15(-x)[0]) <= 2


class TestTanh:
    def test_matches_float_tanh(self):
        xs = np.linspace(-3.5, 3.5, 100)
        raw = tanh_q15((xs * Q15_ONE).astype(np.int64))
        assert np.allclose(raw / Q15_ONE, np.tanh(xs), atol=4e-3)

    def test_saturates_at_extremes(self):
        big = tanh_q15(np.array([100 * Q15_ONE]))[0]
        assert big / Q15_ONE == pytest.approx(1.0, abs=1e-3)

    def test_odd(self):
        x = np.array([7777])
        assert tanh_q15(x)[0] == -tanh_q15(-x)[0]

    def test_hardtanh_clips(self):
        xs = np.array([-3 * Q15_ONE, 0, 3 * Q15_ONE])
        out = hardtanh_q15(xs)
        assert out[0] == -Q15_ONE
        assert out[1] == 0
        assert out[2] == Q15_ONE - 1


class TestCordic:
    def test_angle_matches_atan2(self):
        rng = np.random.default_rng(1)
        dx = rng.integers(-255, 256, 500) << 16
        dy = rng.integers(-255, 256, 500) << 16
        mask = (dx != 0) | (dy != 0)
        _, angle = cordic_vectoring(dx, dy)
        expected = np.arctan2(dy[mask], dx[mask])
        assert np.allclose(angle[mask] / Q16_ONE, expected, atol=2e-3)

    def test_magnitude_matches_hypot(self):
        rng = np.random.default_rng(2)
        dx = rng.integers(-255, 256, 500) << 16
        dy = rng.integers(-255, 256, 500) << 16
        magnitude, _ = cordic_vectoring(dx, dy)
        expected = np.hypot(dx.astype(float), dy.astype(float))
        nonzero = expected > 0
        assert np.allclose(magnitude[nonzero], expected[nonzero], rtol=5e-3)

    def test_axis_cases(self):
        mag, ang = cordic_vectoring(np.array([100 << 16]), np.array([0]))
        assert ang[0] == pytest.approx(0, abs=200)
        mag, ang = cordic_vectoring(np.array([0]), np.array([100 << 16]))
        assert ang[0] / Q16_ONE == pytest.approx(math.pi / 2, abs=1e-3)
        mag, ang = cordic_vectoring(np.array([-100 << 16]), np.array([0]))
        assert abs(ang[0]) / Q16_ONE == pytest.approx(math.pi, abs=1e-2)

    def test_invalid_iterations(self):
        for vectoring in (cordic_vectoring, cordic_vectoring_select):
            with pytest.raises(FixedPointError):
                vectoring(np.array([1]), np.array([1]), iterations=0)
            with pytest.raises(FixedPointError):
                vectoring(np.array([1]), np.array([1]),
                          iterations=CORDIC_ITERATIONS + 1)

    @pytest.mark.parametrize("iterations", [1, 2, 17, CORDIC_ITERATIONS])
    def test_sign_multiply_matches_select_twin(self, iterations):
        rng = np.random.default_rng(iterations)
        # HOG's Q16.16 gradients, every axis and diagonal, and wide words.
        gradients = rng.integers(-255, 256, (2, 20_000)) << 16
        axes = np.array([(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]).T
        wide = rng.integers(-(1 << 40), 1 << 40, (2, 5_000))
        x, y = np.concatenate([gradients, axes * (255 << 16), wide], axis=1)
        fast = cordic_vectoring(x, y, iterations)
        twin = cordic_vectoring_select(x, y, iterations)
        for got, expected in zip(fast, twin):
            assert got.dtype == expected.dtype == np.int64
            assert np.array_equal(got, expected)

    def test_angle_steps_end_where_the_angle_table_turns_zero(self):
        angles = fixmath._cordic_angles_q16()
        steps = cordic_angle_steps()
        assert steps == 17
        assert angles[steps - 1] != 0
        assert not angles[steps:].any()

    @pytest.mark.parametrize("lanes", [np.int64, np.int32])
    def test_angle_steps_give_the_full_angle_on_every_uint8_gradient(
            self, lanes):
        # Every central difference of a uint8 image, in Q16.16:
        # 511**2 = 261 121 (dx, dy) pairs, axes and diagonals included.
        dx, dy = np.meshgrid(np.arange(-255, 256), np.arange(-255, 256))
        x, y = dx.ravel() << 16, dy.ravel() << 16
        assert x.size == 261_121
        _, full = cordic_vectoring(x, y)
        _, angle = cordic_vectoring(x.astype(lanes), y.astype(lanes),
                                    cordic_angle_steps())
        assert angle.dtype == lanes
        assert np.array_equal(angle, full)

    @pytest.mark.parametrize("iterations", [1, 17, CORDIC_ITERATIONS])
    def test_int32_lanes_match_int64_lanes_below_the_bound(self, iterations):
        rng = np.random.default_rng(iterations)
        bound = 1 << 29
        edges = np.array([-bound + 1, -1, 0, 1, bound - 1])
        x, y = np.concatenate([
            rng.integers(-bound + 1, bound, (2, 20_000)),
            np.stack(np.meshgrid(edges, edges)).reshape(2, -1)], axis=1)
        wide = cordic_vectoring(x, y, iterations)
        for vectoring in (cordic_vectoring, cordic_vectoring_select):
            magnitude, angle = vectoring(x.astype(np.int32),
                                         y.astype(np.int32), iterations)
            assert magnitude.dtype == np.int64 and angle.dtype == np.int32
            assert np.array_equal(magnitude, wide[0])
            assert np.array_equal(angle, wide[1])

    def test_sign_multiply_matches_select_twin_on_planes(self):
        rng = np.random.default_rng(7)
        x, y = rng.integers(-255, 256, (2, 128, 128)) << 16
        for got, expected in zip(cordic_vectoring(x, y),
                                 cordic_vectoring_select(x, y)):
            assert got.shape == (128, 128)
            assert np.array_equal(got, expected)


class TestBitLength:
    def test_matches_int_bit_length(self):
        rng = np.random.default_rng(3)
        powers = [1 << k for k in range(63)]
        edges = powers + [p - 1 for p in powers] + [p + 1 for p in powers]
        values = np.concatenate([
            np.array(edges + [np.iinfo(np.int64).max], dtype=np.int64),
            rng.integers(0, 1 << 20, 50_000),
            # Log-uniform magnitudes cover every bit length.
            (2.0 ** rng.uniform(0, 62.9, 50_000)).astype(np.int64),
        ])
        assert values.size >= 100_000
        expected = [int(v).bit_length() for v in values.tolist()]
        assert bit_length(values).tolist() == expected

    def test_exact_above_float_precision(self):
        # float64 rounds 2**53 + 1 .. 2**63 - 1 onto powers of two.
        for k in range(53, 63):
            value = np.array([(1 << k) - 1, 1 << k], dtype=np.int64)
            assert bit_length(value).tolist() == [k, k + 1]


class TestRsqrt:
    @staticmethod
    def _closed_form_seeded(values, iterations):
        """Reference twin: the Newton iteration from its closed-form
        seed, with Python's ``int.bit_length``."""
        v = np.asarray(values, dtype=np.int64)
        shift = np.array([int(x).bit_length() for x in v.tolist()]) - 17
        half = np.floor_divide(shift, 2)
        y = np.where(half >= 0,
                     Q16_ONE >> np.clip(half, 0, 31),
                     Q16_ONE << np.clip(-half, 0, 15))
        y = np.where(np.mod(shift, 2) == 1, (y * 46341) >> 16, y)
        y = np.maximum(y, 1)
        for _ in range(iterations):
            vy = (v * y) >> 16
            vy2 = (vy * y) >> 16
            y = (y * ((3 << 16) - vy2)) >> 17
            y = np.maximum(y, 1)
        return y

    @pytest.mark.parametrize("iterations", [0, 4, 5])
    def test_seed_table_matches_the_closed_form_seed(self, iterations):
        rng = np.random.default_rng(iterations)
        powers = [1 << k for k in range(63)]
        values = np.concatenate([
            # HOG's squared gradient norms: every (dx^2 + dy^2) << 16.
            np.arange(1, 2 * 255 ** 2 + 1, dtype=np.int64) << 16,
            np.array(powers + [p - 1 for p in powers[1:]]
                     + [p + 1 for p in powers[:-1]]
                     + [np.iinfo(np.int64).max], dtype=np.int64),
            (2.0 ** rng.uniform(0, 62.9, 20_000)).astype(np.int64) + 1,
        ])
        assert np.array_equal(rsqrt_q16(values, iterations),
                              self._closed_form_seeded(values, iterations))

    @pytest.mark.parametrize("value", [0.01, 0.5, 1.0, 7.0, 100.0, 5e4, 2e6])
    def test_matches_float(self, value):
        raw = int(value * Q16_ONE)
        got = rsqrt_q16(np.array([raw]), iterations=5)[0] / Q16_ONE
        assert got == pytest.approx(value ** -0.5, rel=0.03)

    def test_positive_required(self):
        with pytest.raises(FixedPointError):
            rsqrt_q16(np.array([0]))

    @given(st.floats(0.01, 1e5))
    @settings(max_examples=60)
    def test_sqrt_identity(self, value):
        raw = int(value * Q16_ONE)
        rsqrt = rsqrt_q16(np.array([raw]), iterations=5)[0]
        sqrt = (raw * rsqrt) >> 16
        assert sqrt / Q16_ONE == pytest.approx(math.sqrt(value), rel=0.05)
