"""Matrix multiplication kernels (char / short / 16-bit fixed-point).

The three Table-I ``matmul`` variants share one loop nest (i over rows,
j over columns — vectorizable for the integer variants — k reduction
innermost) and differ in element type and inner-product arithmetic:

* **char**: 8-bit operands, 32-bit accumulation, final rescale ``>> 7``
  and saturation to int8;
* **short**: 16-bit operands, 32-bit accumulation, rescale ``>> 15`` and
  saturation to int16;
* **fixed**: Q1.15 operands with *per-product renormalization* (multiply,
  shift, add — there is no multiply-shift-add instruction, which is the
  paper's explanation for the lower fixed-point architectural speedup).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.isa.program import Block, Loop, Program
from repro.isa.vop import DType, OpKind, addr, alu, load, mac, store
from repro.kernels.base import Arrays, Kernel

if TYPE_CHECKING:
    import numpy as np

#: Per variant: IR element type, numpy element type (by name, so the
#: table needs no numpy), rescale shift, element size, constant bytes.
_VARIANTS = {
    "char": dict(dtype=DType.I8, np_dtype="int8", shift=7,
                 element_bytes=1, embedded_const=8192),
    "short": dict(dtype=DType.I16, np_dtype="int16", shift=15,
                  element_bytes=2, embedded_const=8192),
    "fixed": dict(dtype=DType.I16, np_dtype="int16", shift=15,
                  element_bytes=2, embedded_const=10240),
}


def _saturate(values: np.ndarray, np_dtype) -> np.ndarray:
    import numpy as np

    info = np.iinfo(np_dtype)
    return np.clip(values, info.min, info.max).astype(np_dtype)


class MatmulKernel(Kernel):
    """C = A x B with per-variant fixed-point discipline."""

    field = "linear algebra"

    def __init__(self, variant: str = "char", n: int = 64):
        if variant not in _VARIANTS:
            raise KernelError(f"unknown matmul variant {variant!r}")
        if n < 1:
            raise KernelError(f"invalid matrix size {n}")
        self.variant = variant
        self.n = int(n)
        self._spec = _VARIANTS[variant]
        self.name = "matmul" if variant == "char" else f"matmul ({variant})"
        self.description = {
            "char": "Matrix multiplication on char data",
            "short": "Matrix multiplication on short data",
            "fixed": "Matrix multiplication on 16-bit fixed-point data",
        }[variant]

    # -- functional path ---------------------------------------------------------

    def generate_inputs(self, seed: int = 0) -> Arrays:
        import numpy as np

        rng = np.random.default_rng(seed)
        np_dtype = self._spec["np_dtype"]
        info = np.iinfo(np_dtype)
        shape = (self.n, self.n)
        a = rng.integers(info.min, info.max + 1, size=shape).astype(np_dtype)
        b = rng.integers(info.min, info.max + 1, size=shape).astype(np_dtype)
        return {"a": a, "b": b}

    def compute(self, inputs: Arrays) -> Arrays:
        import numpy as np

        a = inputs["a"]
        b = inputs["b"]
        self._check_shape(a, (self.n, self.n), "a")
        self._check_shape(b, (self.n, self.n), "b")
        np_dtype = self._spec["np_dtype"]
        shift = self._spec["shift"]
        if self.variant == "fixed":
            # Per-product renormalization with round-half-up, then a
            # 32-bit accumulate and a final saturation (the sequence the
            # fixed-point C kernel executes).
            # products[k, i, j] = a[i, k] * b[k, j]; with int16 operands
            # |a * b| <= 2**30, so product plus rounding term stays below
            # 2**31 and int32 holds them exactly.  They are renormalized
            # in place, and k-major order makes the int64 k sum add
            # whole contiguous (i, j) planes.
            products = (a.T.astype(np.int32)[:, :, None]
                        * b.astype(np.int32)[:, None, :])
            products += 1 << (shift - 1)
            products >>= shift
            acc = products.sum(axis=0, dtype=np.int64)
            return {"c": _saturate(acc, np_dtype)}
        acc = a.astype(np.int64) @ b.astype(np.int64)
        rescaled = (acc + (1 << (shift - 1))) >> shift
        return {"c": _saturate(rescaled, np_dtype)}

    def reference(self, inputs: Arrays) -> Arrays:
        a = inputs["a"].astype("float64")
        b = inputs["b"].astype("float64")
        return {"c": (a @ b) / (1 << self._spec["shift"])}

    # -- marshalling ---------------------------------------------------------------

    def serialize_inputs(self, inputs: Arrays) -> bytes:
        return inputs["a"].tobytes() + inputs["b"].tobytes()

    def serialize_outputs(self, outputs: Arrays) -> bytes:
        return outputs["c"].tobytes()

    # -- architectural path -----------------------------------------------------------

    def build_program(self) -> Program:
        n = self.n
        dtype = self._spec["dtype"]
        element_bytes = self._spec["element_bytes"]
        if self.variant == "fixed":
            inner_body = Block([
                load(dtype), load(dtype),
                alu(OpKind.MUL, dtype), alu(OpKind.SHIFT, dtype),
                alu(OpKind.ADD, DType.I32),
                addr(count=3),
            ])
            vectorizable = False
        else:
            inner_body = Block([
                load(dtype), load(dtype),
                mac(dtype),
                addr(count=3),
            ])
            vectorizable = True
        k_loop = Loop(n, [inner_body], name="k")
        j_body = [
            Block([alu(OpKind.MOVE, DType.I32)]),
            k_loop,
            Block([
                # Scalar shifts of the 32-bit accumulators, then one
                # packed saturating store (vectorizable on OR10N).
                alu(OpKind.SHIFT, DType.I32, vector=False),
                alu(OpKind.SELECT, DType.I32),
                store(dtype),
                addr(),
            ]),
        ]
        j_loop = Loop(n, j_body, vectorizable=vectorizable,
                      simd_dtype=dtype, name="j")
        i_loop = Loop(n, [j_loop], parallelizable=True, name="i")
        in_bytes = 2 * n * n * element_bytes
        out_bytes = n * n * element_bytes
        return Program(
            name=self.name,
            body=[i_loop],
            input_bytes=in_bytes,
            output_bytes=out_bytes,
            const_bytes=self._spec["embedded_const"],
            buffer_bytes=in_bytes + out_bytes,
        )
