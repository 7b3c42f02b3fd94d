"""ESB-style sliced ELLPACK with a bit array (Liu et al., paper Section 5.3).

The ELLPACK-Sparse-Block format masks out padded slots with one bit per
stored element, letting the SpMV kernel skip the padding entirely via
masked vector instructions.  The paper implements both variants and keeps
the maskless one: the bit array costs ~1/64 of the value storage, adds a
mask load + materialization per column, and loses aligned access to the
value array — a measured ~10% slowdown (Section 5.3).  This class exists
so the ablation benchmark can reproduce that comparison.
"""

from __future__ import annotations

import numpy as np

from .sell import SellMat
from ..mat.aij import AijMat
from ..mat.base import register_format


class EsbMat(SellMat):
    """Sliced ELLPACK plus a per-element validity bit array."""

    format_name = "ESB"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: One boolean per stored slot: True for real nonzeros.
        self.bits = self._real_slots()
        # Packed mask bytes, precomputed once at conversion: the kernel
        # reads one byte per column strip, so packing in the inner loop
        # would allocate per strip (and did, before this cache).
        self.packed = np.packbits(self.bits)

    @classmethod
    def from_csr(
        cls,
        csr: AijMat,
        slice_height: int = 8,
        sigma: int = 1,
        alignment: int = 64,
    ) -> "EsbMat":
        """Convert from CSR; identical layout to SELL plus the bit array."""
        sell = SellMat.from_csr(csr, slice_height, sigma, alignment)
        return cls(
            sell.shape,
            sell.slice_height,
            sell.sliceptr,
            sell.val,
            sell.colidx,
            sell.rlen,
            perm=sell.perm,
            sigma=sell.sigma,
            alignment=alignment,
        )

    @property
    def bit_array_bytes(self) -> int:
        """Packed size of the bit array: one bit per stored slot."""
        return int((self.val.shape[0] + 7) // 8)

    def packed_bits(self) -> np.ndarray:
        """The bit array as packed bytes (what the real format stores)."""
        return self.packed

    def memory_bytes(self) -> int:
        return super().memory_bytes() + self.bit_array_bytes


@register_format("ESB")
def _esb_from_csr(csr: AijMat, *, slice_height: int = 8, sigma: int = 1) -> EsbMat:
    return EsbMat.from_csr(csr, slice_height=slice_height, sigma=sigma)
