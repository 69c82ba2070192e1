"""Convolutional neural network kernel (and its approximated variant).

A CConvNet-style fixed-point ConvNet on a 32x32 Q1.15 input image:

* conv1: 5x5, 1 -> 8 maps (28x28), tanh;
* pool1: 2x2 average (14x14);
* conv2: 5x5, 8 -> 16 maps with a LeNet-style sparse connection table
  (60 % of input connections), tanh, (10x10);
* pool2: 2x2 average (5x5);
* fc1: 400 -> 48, tanh;
* fc2: 48 -> 10 class scores in Q16.16 (the 40-byte output of Table I).

The **approximated** variant applies the two standard embedded
approximations of the CConvNet line: conv2 perforation (40 % of output
pixels are skipped and filled from their left neighbour) and a
hard-tanh (clip) activation replacing the tanh lookup.
"""

from __future__ import annotations

from typing import List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.isa.program import Block, Loop, Program
from repro.isa.vop import DType, OpKind, addr, alu, load, store
from repro.kernels.base import Arrays, Kernel
from repro.kernels.fixmath import (
    Q15_ONE,
    TANH_TABLE_BYTES,
    hardtanh_q15,
    tanh_q15,
)

IMAGE = 32
CONV1_MAPS = 8
CONV2_MAPS = 16
KERNEL_SIZE = 5
FC_HIDDEN = 48
CLASSES = 10
#: LeNet-style sparse connectivity of conv2 (fraction of input maps each
#: output map connects to).
CONV2_CONNECTIVITY = 0.6
#: Fraction of conv2 output pixels skipped by the approximated variant.
PERFORATION = 0.4

_CONV1_OUT = IMAGE - KERNEL_SIZE + 1            # 28
_POOL1_OUT = _CONV1_OUT // 2                    # 14
_CONV2_OUT = _POOL1_OUT - KERNEL_SIZE + 1       # 10
_POOL2_OUT = _CONV2_OUT // 2                    # 5
_FC_IN = CONV2_MAPS * _POOL2_OUT * _POOL2_OUT   # 400


def _conv2d_valid(image: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact integer 'valid' correlation of one 2-D map."""
    out_h = image.shape[0] - weights.shape[0] + 1
    out_w = image.shape[1] - weights.shape[1] + 1
    acc = np.zeros((out_h, out_w), dtype=np.result_type(image, weights))
    for dy in range(weights.shape[0]):
        for dx in range(weights.shape[1]):
            acc += weights[dy, dx] * image[dy:dy + out_h, dx:dx + out_w]
    return acc


def _avg_pool(maps: np.ndarray) -> np.ndarray:
    """2x2 average pooling with a right shift (maps: [m, h, w])."""
    return (maps[:, 0::2, 0::2] + maps[:, 0::2, 1::2]
            + maps[:, 1::2, 0::2] + maps[:, 1::2, 1::2]) >> 2


def conv2_connection_table() -> np.ndarray:
    """Deterministic sparse connection table: [out_map, in_map] booleans
    with CONV2_CONNECTIVITY of the entries set, LeNet-style."""
    table = np.zeros((CONV2_MAPS, CONV1_MAPS), dtype=bool)
    keep = int(round(CONV1_MAPS * CONV2_CONNECTIVITY))
    for out_map in range(CONV2_MAPS):
        for offset in range(keep):
            table[out_map, (out_map + offset) % CONV1_MAPS] = True
    return table


def perforation_mask() -> np.ndarray:
    """Deterministic conv2 perforation mask ([h, w] booleans, True =
    computed). A 2-in-5 diagonal skip pattern gives PERFORATION = 0.4."""
    ys, xs = np.mgrid[0:_CONV2_OUT, 0:_CONV2_OUT]
    return ((ys * _CONV2_OUT + xs) % 5) >= 2


class CnnKernel(Kernel):
    """Fixed-point ConvNet classifier."""

    field = "learning / vision"

    def __init__(self, approximate: bool = False):
        self.approximate = bool(approximate)
        self.name = "cnn (approx)" if approximate else "cnn"
        self.description = ("Convolutional Neural Network (approximated)"
                            if approximate else "Convolutional Neural Network")
        self._connections = conv2_connection_table()
        self._mask = perforation_mask()

    # -- functional path ---------------------------------------------------------

    def generate_inputs(self, seed: int = 0) -> Arrays:
        rng = np.random.default_rng(seed)
        image = rng.integers(-Q15_ONE // 2, Q15_ONE // 2,
                             size=(IMAGE, IMAGE)).astype(np.int16)
        scale = Q15_ONE // 8
        weights = {
            "w1": rng.integers(-scale, scale,
                               size=(CONV1_MAPS, KERNEL_SIZE, KERNEL_SIZE)
                               ).astype(np.int16),
            "b1": rng.integers(-scale, scale, size=CONV1_MAPS).astype(np.int16),
            "w2": rng.integers(-scale, scale,
                               size=(CONV2_MAPS, CONV1_MAPS,
                                     KERNEL_SIZE, KERNEL_SIZE)).astype(np.int16),
            "b2": rng.integers(-scale, scale, size=CONV2_MAPS).astype(np.int16),
            "w3": rng.integers(-scale, scale,
                               size=(FC_HIDDEN, _FC_IN)).astype(np.int16),
            "b3": rng.integers(-scale, scale, size=FC_HIDDEN).astype(np.int16),
            "w4": rng.integers(-scale, scale,
                               size=(CLASSES, FC_HIDDEN)).astype(np.int16),
            "b4": rng.integers(-scale, scale, size=CLASSES).astype(np.int16),
        }
        return {"image": image, **weights}

    def _activation(self, x: np.ndarray) -> np.ndarray:
        if self.approximate:
            return hardtanh_q15(x)
        return tanh_q15(x)

    def _conv1(self, image: np.ndarray, w1: np.ndarray) -> np.ndarray:
        """conv1 accumulators of all maps: one contraction over every
        5x5 window of the image (exact int64 sums)."""
        windows = sliding_window_view(image, (KERNEL_SIZE, KERNEL_SIZE))
        return np.einsum("yxij,mij->myx", windows, w1.astype(np.int64))

    def _conv2(self, pool1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """conv2 accumulators of all maps in one contraction; weights
        the connection table drops are masked to zero, so they add
        exact zeros."""
        windows = sliding_window_view(pool1, (KERNEL_SIZE, KERNEL_SIZE),
                                      axis=(1, 2))
        weights = w2.astype(np.int64) * self._connections[:, :, None, None]
        return np.einsum("cyxij,ocij->oyx", windows, weights)

    def _conv1_per_map(self, image: np.ndarray,
                       w1: np.ndarray) -> np.ndarray:
        """Reference twin of :meth:`_conv1`, one output map at a time."""
        return np.stack([_conv2d_valid(image, w1[m].astype(np.int64))
                         for m in range(CONV1_MAPS)])

    def _conv2_per_map(self, pool1: np.ndarray,
                       w2: np.ndarray) -> np.ndarray:
        """Reference twin of :meth:`_conv2`: one output map at a time,
        visiting only the connected input maps."""
        conv2 = np.zeros((CONV2_MAPS, _CONV2_OUT, _CONV2_OUT), dtype=np.int64)
        for out_map in range(CONV2_MAPS):
            for in_map in range(CONV1_MAPS):
                if not self._connections[out_map, in_map]:
                    continue
                conv2[out_map] += _conv2d_valid(
                    pool1[in_map], w2[out_map, in_map].astype(np.int64))
        return conv2

    def _classify(self, inputs: Arrays, conv1, conv2) -> Arrays:
        """The forward pass with the given conv1/conv2 accumulators."""
        self._check_shape(inputs["image"], (IMAGE, IMAGE), "image")
        activation = self._activation
        image = inputs["image"].astype(np.int64)
        # conv1 + activation
        act1 = activation((conv1(image, inputs["w1"]) >> 15)
                          + inputs["b1"][:, None, None])
        pool1 = _avg_pool(act1)
        # conv2 over the sparse connection table
        maps = (conv2(pool1, inputs["w2"]) >> 15) + inputs["b2"][:, None, None]
        if self.approximate:
            maps = self._perforate(maps)
        act2 = activation(maps)
        pool2 = _avg_pool(act2)
        # fully connected layers
        flat = pool2.reshape(-1)
        hidden = ((inputs["w3"].astype(np.int64) @ flat) >> 15) \
            + inputs["b3"].astype(np.int64)
        hidden = activation(hidden)
        scores = (((inputs["w4"].astype(np.int64) @ hidden) >> 15)
                  + inputs["b4"].astype(np.int64)) << 1  # Q16.16
        return {"scores": scores.astype(np.int32),
                "label": np.array([int(np.argmax(scores))], dtype=np.int32)}

    def _perforate(self, conv2: np.ndarray) -> np.ndarray:
        """Fill skipped pixels from their left neighbour (first column
        pixels fall back to the value above, then to zero)."""
        result = conv2.copy()
        mask = self._mask
        for y in range(_CONV2_OUT):
            for x in range(_CONV2_OUT):
                if mask[y, x]:
                    continue
                if x > 0:
                    result[:, y, x] = result[:, y, x - 1]
                elif y > 0:
                    result[:, y, x] = result[:, y - 1, x]
                else:
                    result[:, y, x] = 0
        return result

    def compute(self, inputs: Arrays) -> Arrays:
        return self._classify(inputs, self._conv1, self._conv2)

    def compute_per_map(self, inputs: Arrays) -> Arrays:
        """Reference twin of :meth:`compute` with per-map convolutions.
        The tests hold the two equal bit for bit."""
        return self._classify(inputs, self._conv1_per_map,
                              self._conv2_per_map)

    def reference(self, inputs: Arrays) -> Arrays:
        """Float forward pass with the exact (non-LUT) activations."""
        float_inputs = {k: v.astype(np.float64) / Q15_ONE
                        for k, v in inputs.items()}
        image = float_inputs["image"]

        def activation(x):
            if self.approximate:
                return np.clip(x, -1.0, 1.0)
            return np.tanh(x)

        conv1 = np.stack([
            _conv2d_valid(image, float_inputs["w1"][m]) + float_inputs["b1"][m]
            for m in range(CONV1_MAPS)])
        act1 = activation(conv1)
        pool1 = (act1[:, 0::2, 0::2] + act1[:, 0::2, 1::2]
                 + act1[:, 1::2, 0::2] + act1[:, 1::2, 1::2]) / 4
        conv2 = np.zeros((CONV2_MAPS, _CONV2_OUT, _CONV2_OUT))
        for out_map in range(CONV2_MAPS):
            for in_map in range(CONV1_MAPS):
                if self._connections[out_map, in_map]:
                    conv2[out_map] += _conv2d_valid(
                        pool1[in_map], float_inputs["w2"][out_map, in_map])
            conv2[out_map] += float_inputs["b2"][out_map]
        act2 = activation(conv2)
        pool2 = (act2[:, 0::2, 0::2] + act2[:, 0::2, 1::2]
                 + act2[:, 1::2, 0::2] + act2[:, 1::2, 1::2]) / 4
        flat = pool2.reshape(-1)
        hidden = activation(float_inputs["w3"] @ flat + float_inputs["b3"])
        scores = float_inputs["w4"] @ hidden + float_inputs["b4"]
        return {"scores": scores,
                "label": np.array([int(np.argmax(scores))], dtype=np.int32)}

    # -- marshalling ---------------------------------------------------------------

    def serialize_inputs(self, inputs: Arrays) -> bytes:
        return inputs["image"].tobytes()

    def serialize_outputs(self, outputs: Arrays) -> bytes:
        return outputs["scores"].tobytes()

    # -- architectural path -----------------------------------------------------------

    def weight_bytes(self) -> int:
        """Model constants shipped in the binary."""
        conv1 = CONV1_MAPS * (KERNEL_SIZE ** 2 + 1) * 2
        kept = int(round(CONV1_MAPS * CONV2_CONNECTIVITY))
        conv2 = CONV2_MAPS * kept * KERNEL_SIZE ** 2 * 2 + CONV2_MAPS * 2
        fc1 = FC_HIDDEN * (_FC_IN + 1) * 2
        fc2 = CLASSES * (FC_HIDDEN + 1) * 2
        lut = 0 if self.approximate else TANH_TABLE_BYTES
        return conv1 + conv2 + fc1 + fc2 + lut

    def _tap_block(self) -> Block:
        """One convolution tap: per-product renormalizing fixed MAC."""
        return Block([
            load(DType.I16), load(DType.I16),
            alu(OpKind.MUL, DType.I16),
            alu(OpKind.SHIFT, DType.I32),
            alu(OpKind.ADD, DType.I32),
            addr(count=2),
        ])

    def _activation_block(self) -> Block:
        if self.approximate:
            return Block([alu(OpKind.MINMAX, DType.I32, count=2),
                          store(DType.I16), addr()])
        return Block([
            alu(OpKind.ABS, DType.I32), alu(OpKind.SHIFT, DType.I32, count=2),
            load(DType.I16, count=2),
            alu(OpKind.SUB, DType.I32), alu(OpKind.MUL, DType.I32),
            alu(OpKind.ADD, DType.I32), alu(OpKind.SELECT, DType.I32),
            store(DType.I16), addr(),
        ])

    def _pool_row(self, columns: int) -> Loop:
        return Loop(columns, [Block([
            load(DType.I16, count=4),
            alu(OpKind.ADD, DType.I32, count=3),
            alu(OpKind.SHIFT, DType.I32),
            store(DType.I16), addr(count=2),
        ])], name="pool-cols")

    def build_program(self) -> Program:
        taps = KERNEL_SIZE ** 2
        kept = int(round(CONV1_MAPS * CONV2_CONNECTIVITY))
        conv2_keep = 1.0 - (PERFORATION if self.approximate else 0.0)
        conv1 = Loop(CONV1_MAPS * _CONV1_OUT, [
            Loop(_CONV1_OUT, [
                Block([alu(OpKind.MOVE, DType.I32)]),
                Loop(taps, [self._tap_block()], name="taps"),
                self._activation_block(),
            ], name="conv1-cols"),
        ], parallelizable=True, name="conv1")
        pool1 = Loop(CONV1_MAPS * _POOL1_OUT, [self._pool_row(_POOL1_OUT)],
                     parallelizable=True, name="pool1")
        conv2_cols = max(1, int(round(_CONV2_OUT * conv2_keep)))
        conv2_body: List = [
            Block([alu(OpKind.MOVE, DType.I32)]),
            Loop(int(taps * kept), [self._tap_block()], name="taps-x-maps"),
            self._activation_block(),
        ]
        conv2 = Loop(CONV2_MAPS * _CONV2_OUT, [
            Loop(conv2_cols, conv2_body, name="conv2-cols"),
        ], parallelizable=True, name="conv2")
        if self.approximate:
            # Neighbour-fill for the perforated pixels.
            fill = Loop(CONV2_MAPS * _CONV2_OUT, [
                Loop(_CONV2_OUT - conv2_cols, [Block([
                    load(DType.I16), store(DType.I16), addr(count=2),
                ])], name="fill-cols"),
            ], parallelizable=True, name="perforation-fill")
            conv2_nodes = [conv2, fill]
        else:
            conv2_nodes = [conv2]
        pool2 = Loop(CONV2_MAPS * _POOL2_OUT, [self._pool_row(_POOL2_OUT)],
                     parallelizable=True, name="pool2")
        fc1 = Loop(FC_HIDDEN, [
            Block([alu(OpKind.MOVE, DType.I32)]),
            Loop(_FC_IN, [self._tap_block()], name="fc1-inner"),
            self._activation_block(),
        ], parallelizable=True, name="fc1")
        fc2 = Loop(CLASSES, [
            Block([alu(OpKind.MOVE, DType.I32)]),
            Loop(FC_HIDDEN, [self._tap_block()], name="fc2-inner"),
            Block([alu(OpKind.SHIFT, DType.I32), store(DType.I32), addr()]),
        ], parallelizable=True, name="fc2")
        body = [conv1, pool1, *conv2_nodes, pool2, fc1, fc2]
        buffers = (IMAGE * IMAGE * 2
                   + CONV1_MAPS * _CONV1_OUT ** 2 * 2
                   + CONV1_MAPS * _POOL1_OUT ** 2 * 2
                   + CONV2_MAPS * _CONV2_OUT ** 2 * 2
                   + CONV2_MAPS * _POOL2_OUT ** 2 * 2
                   + FC_HIDDEN * 2 + CLASSES * 4)
        return Program(
            name=self.name,
            body=body,
            input_bytes=IMAGE * IMAGE * 2,
            output_bytes=CLASSES * 4,
            const_bytes=self.weight_bytes(),
            buffer_bytes=buffers,
        )
