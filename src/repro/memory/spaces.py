"""Aligned allocation: the model of PETSc's ``--with-mem-align``.

The paper's AVX-512 SELL kernel stores to its output vector with aligned
instructions, and PETSc built with 16-byte alignment hung on KNL until
the heap aligned to 64 bytes (Section 3.1).  :func:`aligned_alloc`
returns NumPy views whose data pointer is genuinely aligned, so the
engine's aligned loads behave exactly as they would on hardware;
:func:`misaligned_alloc` is its deterministic fault-injection
counterpart.  Where data lives (flat MCDRAM, flat DRAM or cache mode) is
priced by :class:`~repro.machine.perf_model.PerfModel`, not modeled here.
"""

from __future__ import annotations

import ctypes

import numpy as np


def aligned_alloc(
    n: int, dtype: np.dtype | type = np.float64, alignment: int = 64
) -> np.ndarray:
    """Allocate ``n`` elements whose base address is ``alignment``-aligned.

    Implemented by over-allocating a byte buffer and slicing to the first
    aligned offset — the standard trick, and the behaviour of PETSc's
    ``PetscMalloc`` under ``--with-mem-align=<n>``.  The buffer's address
    is read once, through ``ctypes.addressof`` (a third of the cost of
    ``ndarray.ctypes``), and the view's start address is asserted
    aligned; tests read the returned view's own address for 16, 32, 64,
    and 128-byte requests.
    """
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError("alignment must be a positive power of two")
    dt = np.dtype(dtype)
    nbytes = n * dt.itemsize
    raw = np.zeros(nbytes + alignment, dtype=np.uint8)
    base = ctypes.addressof(ctypes.c_char.from_buffer(raw))
    offset = (-base) % alignment
    assert (base + offset) % alignment == 0
    return raw[offset : offset + nbytes].view(dt)


def misaligned_alloc(
    n: int,
    dtype: np.dtype | type = np.float64,
    alignment: int = 64,
    offset: int = 8,
) -> np.ndarray:
    """Allocate ``n`` elements whose base address is deliberately misaligned.

    The returned view's data pointer satisfies
    ``ptr % alignment == offset`` (``offset`` must be a nonzero multiple of
    the element size below ``alignment``).  This is the deterministic
    fault-injection counterpart of :func:`aligned_alloc`: tests that need
    an engine to take an :class:`~repro.simd.alignment.AlignmentFault`
    build their arrays here instead of re-allocating in a loop and hoping
    the heap misaligns one.
    """
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError("alignment must be a positive power of two")
    dt = np.dtype(dtype)
    if not 0 < offset < alignment:
        raise ValueError(f"offset must lie in (0, {alignment})")
    if offset % dt.itemsize:
        raise ValueError(
            f"offset {offset} is not a multiple of the {dt.itemsize}-byte "
            "element size"
        )
    nbytes = n * dt.itemsize
    raw = np.zeros(nbytes + 2 * alignment, dtype=np.uint8)
    start = (-raw.ctypes.data) % alignment + offset
    view = raw[start : start + nbytes].view(dt)
    assert nbytes == 0 or view.ctypes.data % alignment == offset
    return view
