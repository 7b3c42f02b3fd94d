"""Memory kinds and allocation: DRAM, MCDRAM, and aligned heaps.

KNL exposes two physical memories (paper Section 2.6): off-package DDR4
DRAM and 16 GB of on-package MCDRAM.  In *flat* mode both are visible and
the application chooses placement per allocation — via ``numactl`` or via
the ``memkind`` heap manager, both of which PETSc supports (Section 3.4).
This module models that machinery:

* :class:`MemoryKind` — a named memory with a capacity and a relative
  bandwidth class; the actual GB/s numbers live with the machine models.
* :func:`aligned_alloc` — a real aligned allocator (the model of PETSc's
  ``--with-mem-align``): it returns NumPy views whose data pointer is
  genuinely aligned, so the engine's aligned loads behave exactly as they
  would on hardware.
* :class:`MemkindAllocator` — a memkind-style bookkeeping heap: real small
  buffers for computation, plus capacity accounting for the paper-scale
  working sets we only model (a 16384x16384 grid does not fit in this
  interpreter, but its footprint must still overflow a 16 GB MCDRAM).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np


class MemoryKindExhausted(MemoryError):
    """An allocation exceeded the capacity of its memory kind."""


@dataclass(frozen=True)
class MemoryKind:
    """A class of physical memory with finite capacity.

    ``bandwidth_class`` is a symbolic label (``"high"`` or ``"normal"``)
    resolved to GB/s by the machine model for a given process count and
    vectorization level.
    """

    name: str
    capacity_bytes: int
    bandwidth_class: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


GiB = 1024**3

#: On-package high-bandwidth memory (16 GB on all KNL SKUs in the paper).
MCDRAM = MemoryKind(name="MCDRAM", capacity_bytes=16 * GiB, bandwidth_class="high")

#: Off-package DDR4; capacity chosen to match Theta nodes (192 GB).
DRAM = MemoryKind(name="DRAM", capacity_bytes=192 * GiB, bandwidth_class="normal")

KINDS: dict[str, MemoryKind] = {k.name: k for k in (MCDRAM, DRAM)}


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


@dataclass
class Allocation:
    """One tracked allocation: its kind, size, and optional real buffer."""

    kind: MemoryKind
    nbytes: int
    buffer: np.ndarray | None = None
    label: str = ""


@dataclass
class MemkindAllocator:
    """A memkind-style multi-heap with per-kind capacity enforcement.

    Two entry points:

    * :meth:`allocate` returns a real aligned NumPy buffer *and* records the
      footprint — used for everything the tests and kernels actually touch;
    * :meth:`reserve` records a footprint without materializing memory —
      used by the machine models for paper-scale working sets.

    Both raise :class:`MemoryKindExhausted` when a kind's capacity would be
    exceeded, which is how the Figure 7 harness knows a 4096x4096-grid
    simulation still fits in MCDRAM while a multi-node-scale one would not.
    """

    alignment: int = 64
    _used: dict[str, int] = field(default_factory=dict)
    _allocations: list[Allocation] = field(default_factory=list)

    def used_bytes(self, kind: MemoryKind) -> int:
        """Bytes currently accounted against ``kind``."""
        return self._used.get(kind.name, 0)

    def _charge(self, kind: MemoryKind, nbytes: int) -> None:
        used = self.used_bytes(kind)
        if used + nbytes > kind.capacity_bytes:
            raise MemoryKindExhausted(
                f"{kind.name}: requested {nbytes} bytes on top of {used}, "
                f"capacity {kind.capacity_bytes}"
            )
        self._used[kind.name] = used + nbytes

    def allocate(
        self,
        n: int,
        dtype: np.dtype | type = np.float64,
        kind: MemoryKind = DRAM,
        label: str = "",
    ) -> np.ndarray:
        """Allocate a real, aligned, capacity-tracked buffer."""
        dt = np.dtype(dtype)
        nbytes = n * dt.itemsize
        self._charge(kind, nbytes)
        buf = aligned_alloc(n, dt, self.alignment)
        self._allocations.append(Allocation(kind, nbytes, buf, label))
        return buf

    def reserve(self, nbytes: int, kind: MemoryKind = DRAM, label: str = "") -> Allocation:
        """Account for a modeled working set without materializing it."""
        if nbytes < 0:
            raise ValueError("cannot reserve a negative footprint")
        self._charge(kind, nbytes)
        alloc = Allocation(kind, nbytes, None, label)
        self._allocations.append(alloc)
        return alloc

    def free(self, obj: np.ndarray | Allocation) -> None:
        """Release a tracked buffer or reservation.

        memkind's advantage (Section 3.4) is that the caller need not
        remember which heap an allocation came from; mirroring that, we
        locate the record ourselves.
        """
        for i, alloc in enumerate(self._allocations):
            match = (
                alloc is obj
                if isinstance(obj, Allocation)
                else alloc.buffer is not None
                and isinstance(obj, np.ndarray)
                and alloc.buffer.base is obj.base
                and alloc.buffer.ctypes.data == obj.ctypes.data
            )
            if match:
                self._used[alloc.kind.name] -= alloc.nbytes
                del self._allocations[i]
                return
        raise KeyError("buffer was not allocated by this allocator")

    def footprint(self) -> dict[str, int]:
        """Current usage per kind name, in bytes."""
        return dict(self._used)
