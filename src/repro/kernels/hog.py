"""Histogram of Oriented Gradients feature descriptor.

A fixed-point port of the VLFeat/Dalal-Triggs HOG pipeline on a 128x128
8-bit image, cell size 8, 2x2-cell blocks, 9 unsigned orientation bins:

1. **gradients** — central differences, then CORDIC vectoring (24
   iterations, on software 64-bit words) gives magnitude and angle in
   Q16.16;
2. **blocks** — every 2x2-cell block (15x15 of them, 16x16 pixels each)
   re-accumulates its Gaussian-weighted cell histograms with bilinear
   orientation interpolation, the accumulators being the paper's
   "SW-emulated 64-bit variables";
3. **normalization** — per block: L2 energy, Newton reciprocal square
   root, scaling and the 0.2 clipping of Dalal-Triggs;
4. **descriptor** — each cell emits the four block-normalized copies of
   its 9 bins (36 values), 16x16x36 Q16.16 words = the 36 kB output of
   Table I (boundary cells replicate their nearest available copy).

HOG "has the interesting property of needing a very high dynamic range,
and is thus ill-suited to fixed-point implementation; to ensure accuracy
is kept at an acceptable level, we had to employ 32-bit fixed-point
numbers and SW-emulated 64-bit variables for accumulation" — the source
of its architectural *slowdown* in Figure 4, which this kernel's
MUL64/ADD64-heavy IR reproduces.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import KernelError
from repro.isa.program import Block, Loop, Program
from repro.isa.vop import DType, OpKind, VOp, addr, alu, load, store
from repro.kernels.base import Arrays, Kernel
from repro.kernels.fixmath import (
    CORDIC_ITERATIONS,
    Q15_ONE,
    Q16_ONE,
    cordic_vectoring,
    rsqrt_q16,
)

IMAGE = 128
CELL = 8
BINS = 9
CELLS = IMAGE // CELL              # 16
BLOCKS = CELLS - 1                 # 15
BLOCK_PIXELS = (2 * CELL) ** 2     # 256
DESCRIPTOR_DIMS = 4 * BINS         # 36
#: Dalal-Triggs clipping threshold (0.2) in Q16.16.
CLIP_Q16 = int(0.2 * Q16_ONE)
#: Normalization epsilon in Q16.16.
EPSILON_Q16 = 1 << 8

_PI_Q16 = int(round(math.pi * Q16_ONE))


def gaussian_window_q15() -> np.ndarray:
    """16x16 Gaussian block window, sigma = half block width, Q1.15."""
    side = 2 * CELL
    center = (side - 1) / 2.0
    sigma = side / 2.0
    ys, xs = np.mgrid[0:side, 0:side]
    window = np.exp(-((ys - center) ** 2 + (xs - center) ** 2)
                    / (2 * sigma ** 2))
    return np.round(window * Q15_ONE).astype(np.int64)


class HogKernel(Kernel):
    """HOG feature extraction in 32-bit fixed point."""

    name = "hog"
    description = "Histogram of Oriented Gradients feature descriptor"
    field = "vision"

    def __init__(self):
        self._window = gaussian_window_q15()

    # -- functional path ---------------------------------------------------------

    def generate_inputs(self, seed: int = 0) -> Arrays:
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, size=(IMAGE, IMAGE))
        # Low-pass the noise a little so gradients have structure.
        smooth = (base
                  + np.roll(base, 1, axis=0) + np.roll(base, -1, axis=0)
                  + np.roll(base, 1, axis=1) + np.roll(base, -1, axis=1)) // 5
        return {"image": smooth.astype(np.uint8)}

    def _gradients(self, image: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Magnitude and angle (Q16.16) per pixel, zero at the border.

        The angle comes from CORDIC vectoring; the magnitude from an
        integer Newton square root of the 64-bit squared norm (the
        CORDIC gain-correction path loses too much precision at the
        dynamic range HOG needs — this is the paper's "SW-emulated
        64-bit" hotspot).
        """
        img = image.astype(np.int64)
        dx = np.zeros_like(img)
        dy = np.zeros_like(img)
        dx[:, 1:-1] = img[:, 2:] - img[:, :-2]
        dy[1:-1, :] = img[2:, :] - img[:-2, :]
        _, angle = cordic_vectoring(dx << 16, dy << 16, CORDIC_ITERATIONS)
        norm_q16 = (dx * dx + dy * dy) << 16
        positive = norm_q16 > 0
        magnitude = np.zeros_like(norm_q16)
        if np.any(positive):
            values = norm_q16[positive]
            # sqrt(v) = v * rsqrt(v), all Q16.16 Newton arithmetic.
            magnitude[positive] = (values * rsqrt_q16(values, iterations=5)) >> 16
        border = np.zeros_like(img, dtype=bool)
        border[0, :] = border[-1, :] = True
        border[:, 0] = border[:, -1] = True
        magnitude = np.where(border, 0, magnitude)
        angle = np.where(border, 0, angle)
        return magnitude, angle

    @staticmethod
    def _cell_weights_q16() -> np.ndarray:
        """Bilinear weight (Q16.16) of each block pixel towards each of
        the block's cells, ``[2 * cell_y + cell_x, pixel_y, pixel_x]``.

        Cell centers sit at 3.5 and 11.5 pixels inside the 16-pixel
        block; weight ramps linearly between them and clamps outside
        (Dalal-Triggs per-block trilinear interpolation).
        """
        position_q16 = (np.arange(2 * CELL, dtype=np.int64) << 16) + (1 << 15)
        low_center = (7 << 16) >> 1          # 3.5 in Q16.16
        t = (position_q16 - low_center) >> 3  # divide by the 8-pixel pitch
        w_high = np.clip(t, 0, Q16_ONE)
        towards = (Q16_ONE - w_high, w_high)  # the low and the high cell
        return np.stack([(towards[cell_y][:, None]
                          * towards[cell_x][None, :]) >> 16
                         for cell_y in range(2) for cell_x in range(2)])

    @staticmethod
    def _orientation_q16(angle: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Lower orientation bin and the Q16.16 fraction towards the next
        bin, per pixel (unsigned orientations: angles fold into [0, pi))."""
        folded = np.where(angle < 0, angle + _PI_Q16, angle)
        folded = np.where(folded >= _PI_Q16, folded - _PI_Q16, folded)
        # t = angle * BINS / pi in Q16.16.
        t = (folded * BINS << 16) // _PI_Q16
        return (t >> 16) % BINS, t & (Q16_ONE - 1)

    def _block_histograms(self, magnitude: np.ndarray, angle: np.ndarray
                          ) -> np.ndarray:
        """The 2x2x9 histograms of all 15x15 blocks, ``[by, bx, cell, bin]``.

        Each plane is viewed, without a copy, as its overlapping 16x16
        blocks; every row of 15 blocks is then scatter-added at once, so
        no temporary grows past 4 cells x 15 blocks x 256 pixels.  The
        sums are exact int64: at most 256 pixels of at most 2**24.5.
        """
        side = 2 * CELL

        def blocks(plane: np.ndarray) -> np.ndarray:
            return sliding_window_view(plane, (side, side))[::CELL, ::CELL]

        bin_low, frac = self._orientation_q16(angle)
        bin_low, frac, magnitude = blocks(bin_low), blocks(frac), \
            blocks(magnitude)
        spatial = self._cell_weights_q16()[:, None]      # [cell, 1, y, x]
        # Offset of bin 0 of each cell of each block in a row of blocks.
        offsets = (np.arange(4).reshape(4, 1, 1, 1) * BINS
                   + np.arange(BLOCKS).reshape(BLOCKS, 1, 1) * (4 * BINS))
        histograms = np.zeros((BLOCKS, BLOCKS * 4 * BINS), dtype=np.int64)
        for block_y in range(BLOCKS):
            weighted = (magnitude[block_y] * self._window) >> 15
            fraction = frac[block_y]
            low = bin_low[block_y]
            for bins, contribution in (
                    (low, (weighted * (Q16_ONE - fraction)) >> 16),
                    ((low + 1) % BINS, (weighted * fraction) >> 16)):
                np.add.at(histograms[block_y], (bins + offsets).ravel(),
                          ((contribution * spatial) >> 16).ravel())
        return histograms.reshape(BLOCKS, BLOCKS, 4, BINS)

    def compute(self, inputs: Arrays) -> Arrays:
        magnitude, angle = self._gradients(self._image(inputs))
        histograms = self._block_histograms(magnitude, angle)
        energy = ((histograms * histograms) >> 16).sum(axis=(2, 3)) \
            + EPSILON_Q16
        norm = rsqrt_q16(energy)[:, :, None, None]
        normalized = np.minimum((histograms * norm) >> 16, CLIP_Q16)
        # descriptor[cy, cx, slot, bin]; slot = cell position in block.
        descriptor = np.zeros((CELLS, CELLS, 4, BINS), dtype=np.int64)
        filled = np.zeros((CELLS, CELLS, 4), dtype=bool)
        for slot in range(4):
            # Block (by, bx) holds cell (by + slot // 2, bx + slot % 2);
            # the cell's position inside the block indexes the
            # descriptor slot (top-left block -> slot 3, etc).
            rows = slice(slot // 2, slot // 2 + BLOCKS)
            cols = slice(slot % 2, slot % 2 + BLOCKS)
            descriptor[rows, cols, 3 - slot] = normalized[:, :, slot]
            filled[rows, cols, 3 - slot] = True
        self._fill_boundary(descriptor, filled)
        return {"descriptor": descriptor.astype(np.int32)}

    # -- per-block reference twin ------------------------------------------------

    def _block_histogram(self, magnitude: np.ndarray, angle: np.ndarray,
                         block_y: int, block_x: int) -> np.ndarray:
        """Gaussian-weighted, trilinearly interpolated 2x2x9 histogram of
        one block (software 64-bit accumulators)."""
        y0 = block_y * CELL
        x0 = block_x * CELL
        side = 2 * CELL
        mag = magnitude[y0:y0 + side, x0:x0 + side]
        ang = angle[y0:y0 + side, x0:x0 + side]
        bin_low, frac = self._orientation_q16(ang)
        weighted = (mag * self._window) >> 15
        spatial = self._cell_weights_q16()
        histogram = np.zeros((4, BINS), dtype=np.int64)
        for bins, contribution in (
                (bin_low, (weighted * (Q16_ONE - frac)) >> 16),
                ((bin_low + 1) % BINS, (weighted * frac) >> 16)):
            for cell in range(4):
                value = (contribution * spatial[cell]) >> 16
                np.add.at(histogram[cell], bins.ravel(), value.ravel())
        return histogram

    def compute_per_block(self, inputs: Arrays) -> Arrays:
        """Reference twin of :meth:`compute`: histogram and normalize one
        block at a time, the device's loop order.  The tests hold the
        two equal bit for bit."""
        magnitude, angle = self._gradients(self._image(inputs))
        descriptor = np.zeros((CELLS, CELLS, 4, BINS), dtype=np.int64)
        filled = np.zeros((CELLS, CELLS, 4), dtype=bool)
        for block_y in range(BLOCKS):
            for block_x in range(BLOCKS):
                histogram = self._block_histogram(magnitude, angle,
                                                  block_y, block_x)
                energy = ((histogram * histogram) >> 16).sum() + EPSILON_Q16
                norm = rsqrt_q16(np.array([energy]))[0]
                normalized = np.minimum((histogram * norm) >> 16, CLIP_Q16)
                for slot in range(4):
                    cy = block_y + slot // 2
                    cx = block_x + slot % 2
                    descriptor[cy, cx, 3 - slot] = normalized[slot]
                    filled[cy, cx, 3 - slot] = True
        self._fill_boundary(descriptor, filled)
        return {"descriptor": descriptor.astype(np.int32)}

    def _image(self, inputs: Arrays) -> np.ndarray:
        """The input image, checked to be 128x128 uint8."""
        image = inputs["image"]
        self._check_shape(image, (IMAGE, IMAGE), "image")
        if image.dtype != np.uint8:
            raise KernelError("hog expects a uint8 image")
        return image

    @staticmethod
    def _fill_boundary(descriptor: np.ndarray, filled: np.ndarray) -> None:
        """Boundary cells belong to fewer than four blocks; replicate the
        nearest available normalized copy into the empty slots."""
        for cy in range(CELLS):
            for cx in range(CELLS):
                available = [s for s in range(4) if filled[cy, cx, s]]
                if not available:
                    continue
                source = descriptor[cy, cx, available[0]]
                for slot in range(4):
                    if not filled[cy, cx, slot]:
                        descriptor[cy, cx, slot] = source

    def reference(self, inputs: Arrays) -> Arrays:
        """Floating-point HOG with the same block structure."""
        image = inputs["image"].astype(np.float64)
        dx = np.zeros_like(image)
        dy = np.zeros_like(image)
        dx[:, 1:-1] = image[:, 2:] - image[:, :-2]
        dy[1:-1, :] = image[2:, :] - image[:-2, :]
        magnitude = np.hypot(dx, dy)
        angle = np.arctan2(dy, dx)
        magnitude[0, :] = magnitude[-1, :] = 0
        magnitude[:, 0] = magnitude[:, -1] = 0
        window = gaussian_window_q15() / Q15_ONE
        descriptor = np.zeros((CELLS, CELLS, 4, BINS))
        filled = np.zeros((CELLS, CELLS, 4), dtype=bool)
        side = 2 * CELL
        positions = np.arange(side) + 0.5
        w_high_1d = np.clip((positions - 3.5) / 8.0, 0.0, 1.0)
        w_low_1d = 1.0 - w_high_1d
        wy = np.stack([w_low_1d, w_high_1d])
        wx = np.stack([w_low_1d, w_high_1d])
        for block_y in range(BLOCKS):
            for block_x in range(BLOCKS):
                y0, x0 = block_y * CELL, block_x * CELL
                mag = magnitude[y0:y0 + side, x0:x0 + side] * window
                ang = angle[y0:y0 + side, x0:x0 + side] % math.pi
                t = ang * BINS / math.pi
                bin_low = np.floor(t).astype(int) % BINS
                frac = t - np.floor(t)
                histogram = np.zeros((4, BINS))
                for bins, contribution in ((bin_low, mag * (1 - frac)),
                                           ((bin_low + 1) % BINS, mag * frac)):
                    for cell_y in range(2):
                        for cell_x in range(2):
                            spatial = wy[cell_y][:, None] * wx[cell_x][None, :]
                            np.add.at(histogram[2 * cell_y + cell_x],
                                      bins.ravel(),
                                      (contribution * spatial).ravel())
                energy = (histogram ** 2).sum() + EPSILON_Q16 / Q16_ONE
                normalized = np.minimum(histogram / math.sqrt(energy), 0.2)
                for slot in range(4):
                    cy = block_y + slot // 2
                    cx = block_x + slot % 2
                    descriptor[cy, cx, 3 - slot] = normalized[slot]
                    filled[cy, cx, 3 - slot] = True
        for cy in range(CELLS):
            for cx in range(CELLS):
                available = [s for s in range(4) if filled[cy, cx, s]]
                if available:
                    for slot in range(4):
                        if not filled[cy, cx, slot]:
                            descriptor[cy, cx, slot] = \
                                descriptor[cy, cx, available[0]]
        return {"descriptor": descriptor}

    # -- marshalling ---------------------------------------------------------------

    def serialize_inputs(self, inputs: Arrays) -> bytes:
        return inputs["image"].tobytes()

    def serialize_outputs(self, outputs: Arrays) -> bytes:
        return outputs["descriptor"].tobytes()

    # -- architectural path -----------------------------------------------------------

    def build_program(self) -> Program:
        # Phase 1: gradients + CORDIC per pixel (parallel rows).
        cordic_iteration = Block([
            VOp(OpKind.SHIFT64, DType.I32, count=2),
            VOp(OpKind.ADD64, DType.I32, count=3),   # x, y, angle updates
            alu(OpKind.CMP, DType.I32),
            alu(OpKind.SELECT, DType.I32),
            load(DType.I32),                         # angle table
            addr(),
        ])
        newton_iteration = Block([
            # y = y * (3 - v*y*y) / 2 on software 64-bit words.
            VOp(OpKind.MUL64, DType.I32, count=2),
            VOp(OpKind.SHIFT64, DType.I32, count=2),
            VOp(OpKind.ADD64, DType.I32),
        ])
        pixel_gradient = [
            Block([
                load(DType.I8, count=4),
                alu(OpKind.SUB, DType.I32, count=2),
                VOp(OpKind.SHIFT64, DType.I32, count=2),   # promote to Q16.16
                addr(count=2),
            ]),
            Loop(CORDIC_ITERATIONS, [cordic_iteration], name="cordic"),
            # Magnitude: 64-bit squared norm + Newton reciprocal sqrt.
            Block([
                VOp(OpKind.MUL64, DType.I32, count=2),     # dx^2, dy^2
                VOp(OpKind.ADD64, DType.I32),
                alu(OpKind.CMP, DType.I32),                # rsqrt seed
                alu(OpKind.SHIFT, DType.I32, count=2),
            ]),
            Loop(5, [newton_iteration], name="newton-sqrt"),
            Block([
                VOp(OpKind.MUL64, DType.I32),              # v * rsqrt(v)
                VOp(OpKind.SHIFT64, DType.I32),
                store(DType.I32, count=2),                 # mag, angle
                addr(count=2),
            ]),
        ]
        # The device loop runs over every pixel (borders are computed
        # with clamped neighbours and later masked), parallel over rows.
        gradients = Loop(IMAGE, [Loop(IMAGE, pixel_gradient,
                                      name="grad-cols")],
                         parallelizable=True, name="gradients")
        # Phase 2: block histogramming (parallel over block rows).
        pixel_binning = Block([
            load(DType.I32, count=2),                      # mag, angle
            load(DType.I16),                               # gaussian weight
            alu(OpKind.CMP, DType.I32), alu(OpKind.SELECT, DType.I32),
            alu(OpKind.ADD, DType.I32),                    # angle fold
            VOp(OpKind.MUL64, DType.I32, count=2),         # t, weighted mag
            VOp(OpKind.SHIFT64, DType.I32, count=2),
            alu(OpKind.SUB, DType.I32, count=3),           # 1-frac, 1-wy, 1-wx
            # Spatial bilinear weights (wy, wx per coordinate).
            VOp(OpKind.MUL64, DType.I32, count=2),
            VOp(OpKind.SHIFT64, DType.I32, count=2),
            alu(OpKind.MINMAX, DType.I32, count=2),        # clamp to [0, 1]
            # 2 orientation x 4 spatial contributions, each a Q16.16
            # multiply chain plus a software 64-bit accumulate.
            VOp(OpKind.MUL64, DType.I32, count=8),
            VOp(OpKind.SHIFT64, DType.I32, count=8),
            VOp(OpKind.ADD64, DType.I32, count=8),
            load(DType.I32, count=8), store(DType.I32, count=8),
            addr(count=5),
        ])
        blocks = Loop(BLOCKS, [
            Loop(BLOCKS, [
                Block([alu(OpKind.MOVE, DType.I32, count=8)]),
                Loop(BLOCK_PIXELS, [pixel_binning], name="block-pixels"),
                # Normalization: energy, rsqrt, scale + clip 36 values.
                Loop(DESCRIPTOR_DIMS, [Block([
                    load(DType.I32),
                    VOp(OpKind.MAC64, DType.I32),
                    addr(),
                ])], name="energy"),
                Block([
                    # 4 Newton iterations of rsqrt on 64-bit words.
                    VOp(OpKind.MUL64, DType.I32, count=8),
                    VOp(OpKind.SHIFT64, DType.I32, count=8),
                    VOp(OpKind.ADD64, DType.I32, count=4),
                    alu(OpKind.MOVE, DType.I32, count=6),
                ]),
                Loop(DESCRIPTOR_DIMS, [Block([
                    load(DType.I32),
                    VOp(OpKind.MUL64, DType.I32),
                    VOp(OpKind.SHIFT64, DType.I32),
                    alu(OpKind.MINMAX, DType.I32),
                    store(DType.I32),
                    addr(count=2),
                ])], name="scale"),
            ], name="block-cols"),
        ], parallelizable=True, name="blocks")
        # Phase 3: boundary replication (parallel over cell rows).
        boundary = Loop(CELLS, [Loop(CELLS * BINS, [Block([
            load(DType.I32), store(DType.I32), addr(count=2),
        ])], name="copy")], parallelizable=True, name="boundary")
        output_bytes = CELLS * CELLS * DESCRIPTOR_DIMS * 4
        # The device implementation is strip-mined: gradients and blocks
        # are processed in 16-row strips so the working set stays small
        # and the descriptor can overwrite the input region (the 64 kB L2
        # cannot hold binary + input + full gradient planes + output at
        # once — see OffloadManager's overlapped layout).
        strip_workspace = 2 * IMAGE * (2 * CELL) * 4 + BLOCKS * 4 * BINS * 8
        return Program(
            name=self.name,
            body=[gradients, blocks, boundary],
            input_bytes=IMAGE * IMAGE,
            output_bytes=output_bytes,
            const_bytes=(2 * CELL) ** 2 * 2        # gaussian window
            + CORDIC_ITERATIONS * 4                 # angle table
            + 20 * 1024,                            # atan/orientation LUTs
            buffer_bytes=strip_workspace,
        )
