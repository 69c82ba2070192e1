"""Kernel outputs: pinned digests, and the fast paths against their twins.

DSE records and the perfbench pins carry only ``verified``, so nothing
else sees what ``compute`` returns.  These digests do: a fast path that
moves one output bit, or one byte of a stand-in binary, fails here.
The whole-array HOG and batched CNN paths are also held equal to their
per-block and per-map reference twins on seeded and edge inputs.
"""

import hashlib

import numpy as np
import pytest

from repro.kernels import BENCHMARK_NAMES, kernel_by_name
from repro.kernels.hog import (BLOCK_PIXELS, BLOCKS, BINS, IMAGE, HogKernel,
                               gaussian_window_q15)
from repro.kernels.matmul import MatmulKernel
from repro.pulp.binary import KernelBinary

INT16_MIN = int(np.iinfo(np.int16).min)
INT16_MAX = int(np.iinfo(np.int16).max)


def output_digest(outputs):
    """Digest of a kernel's output arrays: names, dtypes, shapes, bytes."""
    digest = hashlib.sha256()
    for name in sorted(outputs):
        array = np.ascontiguousarray(outputs[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}:".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def hog_edge_images():
    """Degenerate and worst-case HOG inputs.  Period-4 stripes give
    central differences of +-255 at every interior pixel, the largest
    gradients a uint8 image has."""
    ys, xs = np.mgrid[0:IMAGE, 0:IMAGE]

    def stripe(phase):
        return np.where((phase // 2) % 2 == 1, 255, 0)

    images = {
        "zero": np.zeros((IMAGE, IMAGE)),
        "full": np.full((IMAGE, IMAGE), 255),
        "step": np.where(xs >= IMAGE // 2, 255, 0),
        "diagonal_step": np.where(xs > ys, 255, 0),
        "stripes_x": stripe(xs),
        "stripes_xy": stripe(xs + ys),
    }
    return {name: image.astype(np.uint8) for name, image in images.items()}


def cnn_extreme_inputs(kernel):
    """Every CNN input array (image, weights, biases) at int16 extremes."""
    shapes = {name: array.shape
              for name, array in kernel.generate_inputs(0).items()}

    def fill(value_of):
        return {name: value_of(name, shape).astype(np.int16)
                for name, shape in shapes.items()}

    def checker(name, shape):
        parity = np.indices(shape).sum(axis=0) % 2
        return np.where(parity == 0, INT16_MAX, INT16_MIN)

    return {
        "all_min": fill(lambda name, shape: np.full(shape, INT16_MIN)),
        "all_max": fill(lambda name, shape: np.full(shape, INT16_MAX)),
        "image_max_weights_min": fill(lambda name, shape: np.full(
            shape, INT16_MAX if name == "image" else INT16_MIN)),
        "checker": fill(checker),
    }


#: ``compute`` outputs at seeds 0-3.  matmul and strassen compute the
#: same char product, so they share digests.
SEEDED = {
    "matmul": ("1885cdf2e7a4f841", "0aef3ee7fcf71d2f",
               "a8d8583e34e8f183", "69aa97dc49a249b9"),
    "matmul (short)": ("2d20ae8b08ea1f62", "0191238cd8731cdb",
                       "7c320a276c37f3bb", "8a383ba693ea6f44"),
    "matmul (fixed)": ("bd806babdce0abc5", "a4972cbcc2fb825f",
                       "9ed895ca765da687", "aebec6bbcdee31ef"),
    "strassen": ("1885cdf2e7a4f841", "0aef3ee7fcf71d2f",
                 "a8d8583e34e8f183", "69aa97dc49a249b9"),
    "svm (linear)": ("debe4a841c454256", "2ebbd31a040a8b33",
                     "ebf72547c17d3d0b", "48f4d833ca4cb89d"),
    "svm (poly)": ("f5769b8f46f2e2d7", "07fa98789b93395a",
                   "fefd9abc109e3711", "eb5465d8c158bc63"),
    "svm (RBF)": ("376961c0206d4d94", "4e1e1f214dc3a8c3",
                  "5967921c197f25f5", "26dcebe51ce56b61"),
    "cnn": ("dbf551fe1c840c5b", "6e31a8c17ae6a8f0",
            "ae0840fb4c51e995", "9731734941ffe87a"),
    "cnn (approx)": ("2503cf6cd174c6a8", "2d608c408ec8104a",
                     "e68ee688dcd3431d", "d728f86bf0f9c444"),
    "hog": ("c5941eee0193fdfe", "502ffd3f76b0b8cb",
            "3a7c7b2029f10985", "762df2aceefb7e58"),
}

#: HOG on :func:`hog_edge_images` (flat images have no gradient, so
#: their descriptors are all zero and share a digest).
HOG_EDGES = {
    "zero": "f9129e4948e5a2fd",
    "full": "f9129e4948e5a2fd",
    "step": "9f7128db59931b78",
    "diagonal_step": "35ac6e016150254e",
    "stripes_x": "1655034d20960aa9",
    "stripes_xy": "f425432dd2f619a8",
}

#: Both CNN variants on :func:`cnn_extreme_inputs`.
CNN_EXTREMES = {
    "cnn": {
        "all_min": "7e283ea856f5a2a3",
        "all_max": "1221485705428d6f",
        "image_max_weights_min": "640d287122537521",
        "checker": "bf2411ed4f0b6547",
    },
    "cnn (approx)": {
        "all_min": "4dee8a944210de60",
        "all_max": "2bbd3a2520ed387b",
        "image_max_weights_min": "7b1a9db51d7ce5df",
        "checker": "eb5e0c94dcabf8db",
    },
}

#: sha256 of each builtin kernel's ``KernelBinary.to_bytes`` image.
BINARY_IMAGES = {
    "matmul": "6dafc75a48845687",
    "matmul (short)": "64c031cb40ecd3a5",
    "matmul (fixed)": "9ef03d38d7d0857e",
    "strassen": "bbd7d0b519527fe2",
    "svm (linear)": "cc63bbcc2ab44252",
    "svm (poly)": "77f7dc5cf52f19f8",
    "svm (RBF)": "fa9eb48b8ad59308",
    "cnn": "61d7f119bc7f2332",
    "cnn (approx)": "111c52bb974cef36",
    "hog": "f88f8eb981cbfcc2",
}


def test_every_builtin_kernel_is_pinned():
    assert set(SEEDED) == set(BINARY_IMAGES) == set(BENCHMARK_NAMES)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_seeded_outputs(name):
    kernel = kernel_by_name(name)
    digests = tuple(output_digest(kernel.compute(kernel.generate_inputs(seed)))
                    for seed in range(4))
    assert digests == SEEDED[name]


@pytest.mark.parametrize("case", sorted(HOG_EDGES))
def test_hog_edge_images(case):
    image = hog_edge_images()[case]
    outputs = HogKernel().compute({"image": image})
    assert output_digest(outputs) == HOG_EDGES[case]


@pytest.mark.parametrize("name", sorted(CNN_EXTREMES))
def test_cnn_int16_extremes(name):
    kernel = kernel_by_name(name)
    digests = {case: output_digest(kernel.compute(inputs))
               for case, inputs in cnn_extreme_inputs(kernel).items()}
    assert digests == CNN_EXTREMES[name]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_binary_images(name):
    binary = KernelBinary.from_program(kernel_by_name(name).build_program())
    image = binary.to_bytes()
    assert len(image) == binary.image_bytes
    assert hashlib.sha256(image).hexdigest()[:16] == BINARY_IMAGES[name]


def test_binary_image_is_the_chained_block_hash():
    for name, image_bytes in (("x", 0), ("x", 1), ("kernel", 31),
                              ("kernel", 32), ("kernel", 33), ("hog", 100)):
        binary = KernelBinary(name, code_bytes=image_bytes)
        seed = hashlib.sha256(name.encode("utf-8")).digest()
        blocks = b"".join(
            hashlib.sha256(seed + counter.to_bytes(4, "little")).digest()
            for counter in range(image_bytes // 32 + 1))
        assert binary.to_bytes() == blocks[:image_bytes]


# -- fast paths vs their reference twins -------------------------------------


def _assert_same_outputs(got, expected):
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name].dtype == expected[name].dtype
        assert np.array_equal(got[name], expected[name]), name


class TestHogWholeArray:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_block_twin_on_seeded_images(self, seed):
        kernel = HogKernel()
        inputs = kernel.generate_inputs(seed)
        _assert_same_outputs(kernel.compute(inputs),
                             kernel.compute_per_block(inputs))

    @pytest.mark.parametrize("case", sorted(HOG_EDGES))
    def test_matches_per_block_twin_on_edge_images(self, case):
        kernel = HogKernel()
        inputs = {"image": hog_edge_images()[case]}
        _assert_same_outputs(kernel.compute(inputs),
                             kernel.compute_per_block(inputs))

    def test_block_histograms_match_each_block(self):
        kernel = HogKernel()
        image = kernel.generate_inputs(2)["image"]
        magnitude, angle = kernel._gradients(image)
        histograms = kernel._block_histograms(magnitude, angle)
        assert histograms.shape == (BLOCKS, BLOCKS, 4, BINS)
        for block_y in range(BLOCKS):
            for block_x in range(BLOCKS):
                assert np.array_equal(
                    histograms[block_y, block_x],
                    kernel._block_histogram(magnitude, angle,
                                            block_y, block_x))

    def test_scatter_sums_stay_far_inside_int64(self):
        # |dx| + |dy| <= 510 bounds every pixel's Q16.16 gradient norm.
        # The orientation split and the spatial weights are fractions,
        # so one histogram entry sums at most a block's weighted norms.
        max_norm_q16 = (2 * 255) << 16
        max_weighted = (max_norm_q16 * int(gaussian_window_q15().max())) >> 15
        bound = BLOCK_PIXELS * max_weighted
        assert bound < 1 << 33          # far below 2**63
        kernel = HogKernel()
        images = hog_edge_images()
        largest = {}
        for case in ("step", "stripes_x", "stripes_xy"):
            magnitude, angle = kernel._gradients(images[case])
            assert 0 <= magnitude.min() and magnitude.max() <= max_norm_q16
            histograms = kernel._block_histograms(magnitude, angle)
            assert 0 <= histograms.min() and histograms.max() <= bound
            largest[case] = int(histograms.max())
        # Measured: the stripes' largest entry is about 2**29.8, so even
        # the normalization's squares stay inside int64.
        assert 1 << 29 < largest["stripes_xy"] < 1 << 31


class TestCnnBatched:
    @pytest.mark.parametrize("name", sorted(CNN_EXTREMES))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_map_twin_on_seeded_inputs(self, name, seed):
        kernel = kernel_by_name(name)
        inputs = kernel.generate_inputs(seed)
        _assert_same_outputs(kernel.compute(inputs),
                             kernel.compute_per_map(inputs))

    @pytest.mark.parametrize("name", sorted(CNN_EXTREMES))
    def test_matches_per_map_twin_at_int16_extremes(self, name):
        kernel = kernel_by_name(name)
        for inputs in cnn_extreme_inputs(kernel).values():
            _assert_same_outputs(kernel.compute(inputs),
                                 kernel.compute_per_map(inputs))

    def test_batched_convolutions_match_each_map(self):
        kernel = kernel_by_name("cnn")
        inputs = kernel.generate_inputs(4)
        image = inputs["image"].astype(np.int64)
        assert np.array_equal(kernel._conv1(image, inputs["w1"]),
                              kernel._conv1_per_map(image, inputs["w1"]))
        rng = np.random.default_rng(4)
        pool1 = rng.integers(-(1 << 15), 1 << 15, (8, 14, 14))
        assert np.array_equal(kernel._conv2(pool1, inputs["w2"]),
                              kernel._conv2_per_map(pool1, inputs["w2"]))


class TestMatmulFixedInt32:
    """The fixed-point matmul multiplies and renormalizes in int32; the
    int64 formula it replaced is the oracle, at the int16 extremes where
    a product plus its rounding term comes closest to 2**31."""

    @staticmethod
    def _int64_formula(a, b):
        products = (a.astype(np.int64)[:, :, None]
                    * b.astype(np.int64)[None, :, :])
        renormalized = (products + (1 << 14)) >> 15
        acc = renormalized.sum(axis=1)
        return np.clip(acc, INT16_MIN, INT16_MAX).astype(np.int16)

    @staticmethod
    def _cases(n):
        def full(value):
            return np.full((n, n), value, dtype=np.int16)

        parity = np.indices((n, n)).sum(axis=0) % 2
        alternating = np.where(parity == 0, INT16_MAX,
                               INT16_MIN).astype(np.int16)
        column = np.where(np.arange(n) % 2 == 0, INT16_MIN, INT16_MAX)
        rows = np.broadcast_to(column[:, None], (n, n)).astype(np.int16)
        return {
            "all_min": (full(INT16_MIN), full(INT16_MIN)),
            "all_max": (full(INT16_MAX), full(INT16_MAX)),
            "mixed_signs": (full(INT16_MIN), full(INT16_MAX)),
            "alternating": (alternating, alternating),
            "alternating_rows": (rows, rows.T),
        }

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_int16_extremes_match_the_int64_formula(self, n):
        kernel = MatmulKernel("fixed", n=n)
        for case, (a, b) in self._cases(n).items():
            got = kernel.compute({"a": a, "b": b})["c"]
            assert got.dtype == np.int16
            assert np.array_equal(got, self._int64_formula(a, b)), (n, case)
