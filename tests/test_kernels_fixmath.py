"""Tests for the shared fixed-point math routines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FixedPointError
from repro.kernels.fixmath import (
    CORDIC_ITERATIONS,
    Q15_ONE,
    Q16_ONE,
    bit_length,
    cordic_vectoring,
    cordic_vectoring_select,
    cube_q15,
    exp_neg_q,
    hardtanh_q15,
    rsqrt_q16,
    tanh_q15,
)


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
