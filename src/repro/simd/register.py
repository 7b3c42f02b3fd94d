"""Vector register abstraction for the simulated SIMD machine.

A :class:`VectorRegister` is a fixed-width bundle of lanes backed by a small
NumPy array.  Kernels never touch raw NumPy between instructions; every value
flowing through Algorithm 1 or 2 lives in a register produced by the engine.
This keeps lane-width discipline honest: mixing a 4-lane YMM value into an
8-lane ZMM operation is a bug in a real intrinsics kernel, and it is a
:class:`LaneMismatchError` here.
"""

from __future__ import annotations

import numpy as np


class LaneMismatchError(ValueError):
    """Raised when an instruction mixes registers of different widths."""


class VectorRegister:
    """A SIMD register holding ``lanes`` elements of one dtype.

    Instances are created by :class:`~repro.simd.engine.SimdEngine` methods;
    user code treats them as opaque.  The lane data is exposed read-only via
    :attr:`data` for assertions in tests.
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray):
        arr = data if type(data) is np.ndarray else np.asarray(data)
        if arr.ndim != 1:
            raise ValueError("vector register data must be one-dimensional")
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        """Lane contents (a NumPy view; do not mutate)."""
        return self._data

    @property
    def lanes(self) -> int:
        """Number of lanes in this register."""
        return self._data.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the lanes."""
        return self._data.dtype

    def copy(self) -> "VectorRegister":
        """An independent copy (registers are otherwise shared views)."""
        return VectorRegister(self._data.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorRegister(lanes={self.lanes}, dtype={self.dtype}, data={self._data!r})"


class MaskRegister:
    """An AVX-512-style predicate register: one boolean per lane.

    Masks are immutable: the bits are a private read-only copy, so the
    population count is taken once, and an engine may hand the same mask
    object out again.
    """

    __slots__ = ("_bits", "_popcount")

    def __init__(self, bits: np.ndarray):
        arr = np.array(bits, dtype=bool)
        if arr.ndim != 1:
            raise ValueError("mask register data must be one-dimensional")
        arr.flags.writeable = False
        self._bits = arr
        self._popcount = int(np.count_nonzero(arr))

    @property
    def bits(self) -> np.ndarray:
        """Per-lane predicate bits (read-only)."""
        return self._bits

    @property
    def lanes(self) -> int:
        return self._bits.shape[0]

    @property
    def popcount(self) -> int:
        """Number of active lanes."""
        return self._popcount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaskRegister({''.join('1' if b else '0' for b in self._bits)})"


def check_lanes(*regs: VectorRegister) -> int:
    """Validate that all registers share one lane count and return it."""
    lanes = regs[0]._data.shape[0]
    for r in regs:
        if r._data.shape[0] != lanes:
            raise LaneMismatchError(
                f"register lane mismatch: {[reg.lanes for reg in regs]}"
            )
    return lanes
