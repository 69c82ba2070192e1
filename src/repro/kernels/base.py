"""Kernel abstract base class.

A kernel binds together everything the system needs to offload and
evaluate one benchmark: input generation, the functional fixed-point
computation, a floating-point reference, the loop-nest IR program, and
the serialized input/output marshalling used by the offload path.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import KernelError
from repro.isa.program import Program

Arrays = Dict[str, np.ndarray]


@dataclass(frozen=True)
class KernelResult:
    """Functional outputs plus marshalling metadata."""

    outputs: Arrays
    output_payload: bytes

    @property
    def output_bytes(self) -> int:
        """Serialized output size."""
        return len(self.output_payload)


class Kernel(abc.ABC):
    """One benchmark kernel."""

    #: Paper name, e.g. ``"matmul (fixed)"``.
    name: str = ""
    #: One-line description (Table I column 2).
    description: str = ""
    #: Application field (Table I column 3).
    field: str = ""

    # -- functional path ---------------------------------------------------------

    @abc.abstractmethod
    def generate_inputs(self, seed: int = 0) -> Arrays:
        """Deterministic synthetic inputs for *seed*."""

    @abc.abstractmethod
    def compute(self, inputs: Arrays) -> Arrays:
        """The fixed-point computation the accelerator would run."""

    @abc.abstractmethod
    def reference(self, inputs: Arrays) -> Arrays:
        """Floating-point reference for accuracy validation."""

    def run(self, seed: int = 0) -> KernelResult:
        """Generate inputs, compute, and serialize the outputs."""
        inputs = self.generate_inputs(seed)
        outputs = self.compute(inputs)
        return KernelResult(outputs=outputs,
                            output_payload=self.serialize_outputs(outputs))

    # -- marshalling ---------------------------------------------------------------

    @abc.abstractmethod
    def serialize_inputs(self, inputs: Arrays) -> bytes:
        """Input payload as marshalled over the link (``map(to:)``)."""

    @abc.abstractmethod
    def serialize_outputs(self, outputs: Arrays) -> bytes:
        """Output payload as marshalled back (``map(from:)``)."""

    # -- architectural path -----------------------------------------------------------

    @abc.abstractmethod
    def build_program(self) -> Program:
        """The loop-nest IR of the kernel."""

    # -- identity -----------------------------------------------------------------------

    def memo_key(self) -> Tuple:
        """Value identity: the kernel class and its public parameters.

        Private attributes are derived from the public ones at
        construction; a subclass whose behaviour depends on other state
        must override this.
        """
        params = tuple(sorted((key, value) for key, value in vars(self).items()
                              if not key.startswith("_")))
        return (type(self).__module__, type(self).__qualname__, params)

    # -- shared helpers -----------------------------------------------------------------

    def _check_shape(self, array: np.ndarray, shape, label: str) -> None:
        if tuple(array.shape) != tuple(shape):
            raise KernelError(
                f"{self.name}: {label} has shape {array.shape}, expected {shape}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
