"""The analytic minimum-memory-traffic model of paper Section 6.

SpMV is memory-bandwidth bound, so the paper compares kernels by the least
traffic each format *must* move, assuming 8-byte floats and 4-byte column
indices, for an m x n matrix with nnz nonzeros:

* **CSR**: ``12 nnz + 24 m + 8 n`` bytes — values + indices (12/nnz), the
  output vector (8 m), the row-pointer arrays of the diagonal *and*
  off-diagonal blocks (8 m each, 16 m total), and the input vector (8 n),
  counting each input element once (no redundancy);
* **SELL**: ``12 nnz + 10 m + 8 n`` bytes — the row pointers are replaced
  by slice pointers, one 8-byte entry per C=8 rows per block (2 m/8 = m/4
  bytes ~ rounded as 2 m in the paper's accounting together with the
  output), giving 8 m (y) + 2 m (slice pointers of both blocks).

Padded zeros are deliberately *excluded* (the paper: "extra memory
overhead contributed by padded zeros are not counted in order to eliminate
artifacts...") — padding-inclusive numbers are available separately for
the ablation studies.

The arithmetic intensity this model yields for the Gray-Scott matrices
(10 nonzeros/row, square) is 20/152 ~ 0.132 flop/byte for CSR — the exact
figure quoted with Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mat.base import Mat
from .beta import BetaMat
from .sell import SellMat

FLOAT_BYTES = 8
INDEX_BYTES = 4


@dataclass(frozen=True)
class TrafficEstimate:
    """Minimum bytes moved by one SpMV, split by contribution."""

    matrix_bytes: int     #: values + column indices
    row_meta_bytes: int   #: row pointers (CSR) or slice pointers (SELL)
    vector_bytes: int     #: input (8n) + output (8m)
    flops: int            #: useful flops, 2 per nonzero

    @property
    def total_bytes(self) -> int:
        """All traffic, the Section 6 quantity."""
        return self.matrix_bytes + self.row_meta_bytes + self.vector_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte — the roofline x-coordinate."""
        return self.flops / self.total_bytes if self.total_bytes else 0.0


def csr_traffic(
    m: int, n: int, nnz: int, index_bytes: int = INDEX_BYTES
) -> TrafficEstimate:
    """Section 6 CSR model: 12 nnz + 24 m + 8 n bytes (32-bit indices).

    ``index_bytes=8`` models a 64-bit-index PETSc build — needed once the
    global dimension approaches 2^31, which is why the paper caps its
    multinode grid at 16384^2 ("close to the largest case that does not
    require 64-bit integers for indexing"): the column-index traffic grows
    to 16 bytes/nnz.
    """
    _validate(m, n, nnz)
    return TrafficEstimate(
        matrix_bytes=(FLOAT_BYTES + index_bytes) * nnz,
        row_meta_bytes=16 * m,  # 8m per block's rowptr, diag + off-diag blocks
        vector_bytes=8 * m + 8 * n,
        flops=2 * nnz,
    )


def sell_traffic(
    m: int,
    n: int,
    nnz: int,
    slice_height: int = 8,
    index_bytes: int = INDEX_BYTES,
) -> TrafficEstimate:
    """Section 6 SELL model: 12 nnz + 10 m + 8 n bytes (32-bit indices).

    The 10 m splits as 8 m for the output vector and 2 m for the slice
    pointers of the diagonal and off-diagonal blocks (the paper counts
    m/8 integer values per block at 8 bytes each, i.e. m per block).
    ``index_bytes=8`` models a 64-bit-index build, as for
    :func:`csr_traffic`.
    """
    _validate(m, n, nnz)
    del slice_height  # the paper's accounting fixes C = 8
    return TrafficEstimate(
        matrix_bytes=(FLOAT_BYTES + index_bytes) * nnz,
        row_meta_bytes=2 * m,
        vector_bytes=8 * m + 8 * n,
        flops=2 * nnz,
    )


def beta_traffic(
    m: int,
    n: int,
    nnz: int,
    nblocks: int,
    nbands: int,
    index_bytes: int = INDEX_BYTES,
) -> TrafficEstimate:
    """β(r,c) model: ``8 nnz + 12 nblocks + 8 (nbands+1) + 8 m + 8 n``.

    The format stores exactly ``nnz`` values — no padding exists to
    stream, the Bramas & Kus argument in traffic terms — plus one
    12-byte descriptor per block (the 64-bit presence mask and the
    32-bit anchor column).  Row pointers are replaced by the per-band
    block pointer, one 8-byte entry per ``r`` rows.  Whether this beats
    SELL's ``12 nnz`` depends entirely on how many nonzeros each block
    captures: below ~3 nonzeros per block the descriptors cost more
    than the column indices they replace.
    """
    _validate(m, n, nnz)
    return TrafficEstimate(
        matrix_bytes=FLOAT_BYTES * nnz + (8 + index_bytes) * nblocks,
        row_meta_bytes=8 * (nbands + 1),
        vector_bytes=8 * m + 8 * n,
        flops=2 * nnz,
    )


def _validate(m: int, n: int, nnz: int) -> None:
    if m < 0 or n < 0 or nnz < 0:
        raise ValueError("matrix dimensions and nnz must be non-negative")


def traffic_for(mat: Mat, include_padding: bool = False) -> TrafficEstimate:
    """Traffic estimate for a concrete matrix object.

    ``include_padding`` adds the padded slots of a SELL matrix to the
    matrix traffic (what the hardware actually streams), for the ablation
    benchmarks; the default matches the paper's padding-free accounting.
    The estimate depends only on the matrix's structure, which a matrix
    object never changes, so the default one is computed once per object
    and kept on it (a :class:`TrafficEstimate` is frozen): a warm
    ``ExecutionContext.measure`` reads it back.
    """
    if include_padding:
        return _estimate(mat, include_padding=True)
    est = mat.__dict__.get("_traffic")
    if est is None:
        est = mat.__dict__["_traffic"] = _estimate(mat, include_padding=False)
    return est


def _estimate(mat: Mat, include_padding: bool) -> TrafficEstimate:
    m, n = mat.shape
    nnz = mat.nnz
    if isinstance(mat, BetaMat):
        # No padding exists in the format, so ``include_padding`` is a
        # no-op by construction.
        return beta_traffic(m, n, nnz, mat.nblocks, mat.nbands)
    if isinstance(mat, SellMat):
        est = sell_traffic(m, n, nnz, mat.slice_height)
        if include_padding:
            extra = (FLOAT_BYTES + INDEX_BYTES) * mat.padded_entries
            est = TrafficEstimate(
                matrix_bytes=est.matrix_bytes + extra,
                row_meta_bytes=est.row_meta_bytes,
                vector_bytes=est.vector_bytes,
                flops=est.flops,
            )
        return est
    return csr_traffic(m, n, nnz)


def gray_scott_intensity(fmt: str = "CSR") -> float:
    """Arithmetic intensity of the Gray-Scott operator (10 nnz/row, square).

    Returns the per-row closed form; ``"CSR"`` gives the paper's 0.132.
    """
    nnz_per_row = 10
    if fmt.upper() in ("CSR", "AIJ"):
        est = csr_traffic(1, 1, nnz_per_row)
    elif fmt.upper() == "SELL":
        est = sell_traffic(1, 1, nnz_per_row)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return est.arithmetic_intensity


def largest_grid_with_32bit_indices(dof: int = 2) -> int:
    """Largest power-of-two square grid indexable with 32-bit integers.

    A 32-bit PETSc build requires the global dimension ``dof * grid^2`` to
    stay below 2^31.  For the Gray-Scott system (dof = 2) the bound sits
    exactly at 32768^2 (2 * 32768^2 = 2^31), so 16384 is the largest
    power-of-two grid with headroom — the paper's Section 7.3 choice
    ("close to the largest case that does not require 64-bit integers").
    """
    if dof < 1:
        raise ValueError("dof must be positive")
    grid = 1
    while dof * (2 * grid) ** 2 < 2**31:
        grid *= 2
    return grid
