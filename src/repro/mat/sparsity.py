"""Sparsity-structure statistics driving the format design decisions.

The paper's format choices hinge on measurable properties of the matrix:
row-length spread decides SELL padding; slice height trades padding
against vector efficiency (Section 5.1); sorting windows trade padding
against input-vector locality (Section 5.4).  This module computes those
quantities so the ablation benchmarks can report them alongside timing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .aij import AijMat


@dataclass(frozen=True)
class SparsityProfile:
    """Row-length statistics of one matrix."""

    rows: int
    cols: int
    nnz: int
    min_row: int
    max_row: int
    mean_row: float
    std_row: float

    @property
    def is_regular(self) -> bool:
        """True when every row has the same number of nonzeros."""
        return self.min_row == self.max_row


def profile(csr: AijMat) -> SparsityProfile:
    """Compute the row-length profile of a CSR matrix."""
    lengths = csr.row_lengths()
    m, n = csr.shape
    if lengths.size == 0:
        return SparsityProfile(m, n, 0, 0, 0, 0.0, 0.0)
    return SparsityProfile(
        rows=m,
        cols=n,
        nnz=csr.nnz,
        min_row=int(lengths.min()),
        max_row=int(lengths.max()),
        mean_row=float(lengths.mean()),
        std_row=float(lengths.std()),
    )


def signature(csr: AijMat, include_values: bool = False) -> str:
    """Stable hash of the sparsity structure (optionally the values too).

    Two matrices share a signature exactly when they have the same shape,
    row pointer, and column indices — the quantities every instruction
    count, padding figure, and traffic estimate in this package is a pure
    function of.  That makes the signature the natural memoization key for
    autotuning: an operator reassembled with new coefficients on the same
    stencil keeps its signature, so repeated solves never re-sweep.

    ``include_values=True`` additionally hashes the stored values, for
    caches whose payload depends on the numbers (e.g. matvec results).

    The digest is memoized on the matrix instance: hashing is O(nnz) and
    the serving front door computes a signature per request, while the
    repo treats matrices as immutable once assembled (reassembly builds
    a new object).  Mutating a matrix's buffers in place after its first
    signature would leave the memo stale — don't.
    """
    cache = getattr(csr, "_signature_cache", None)
    if cache is None:
        cache = {}
        try:
            csr._signature_cache = cache
        except AttributeError:  # slotted/frozen matrix: hash every call
            cache = None
    if cache is not None and include_values in cache:
        return cache[include_values]
    h = hashlib.sha1()
    m, n = csr.shape
    h.update(f"{m}x{n}:".encode())
    h.update(np.ascontiguousarray(csr.rowptr).tobytes())
    h.update(np.ascontiguousarray(csr.colidx).tobytes())
    if include_values:
        if cache is not None:
            # The structure signature hashes a prefix of these bytes, so
            # one pass yields both keys of a new operator.
            cache.setdefault(False, h.copy().hexdigest())
        h.update(b"+vals:")
        h.update(np.ascontiguousarray(csr.val).tobytes())
    digest = h.hexdigest()
    if cache is not None:
        cache[include_values] = digest
    return digest


def carry_signature(mat: AijMat, structure) -> AijMat:
    """Give ``mat`` the structure signature of the plan that built it.

    ``structure`` is an assembly or product plan with the same ``shape``,
    ``rowptr`` and int32 ``colidx`` as ``mat``, so both hash to the same
    digest.  The plan memoizes its own signature, so a Newton loop
    reassembling over one plan hashes the structure once, not once per
    matrix.  Returns ``mat``.
    """
    mat._signature_cache = {False: signature(structure)}
    return mat


def sliced_padding(csr: AijMat, slice_height: int, sigma: int = 1) -> int:
    """Padded slots sliced ELLPACK stores at height C with a sort window.

    ``sigma == 1`` means no sorting (the paper's production choice,
    Section 5.4); larger windows sort rows by length within blocks of
    ``sigma`` rows before slicing (SELL-C-sigma), shrinking the padding.
    The final partial slice is padded to full height, matching the
    implementation (Section 5.5).
    """
    if slice_height < 1:
        raise ValueError("slice height must be positive")
    if sigma < 1:
        raise ValueError("sort window must be positive")
    lengths = csr.row_lengths().astype(np.int64)
    m = lengths.size
    if m == 0:
        return 0
    if sigma > 1:
        lengths = lengths.copy()
        for start in range(0, m, sigma):
            window = lengths[start : start + sigma]
            window[::-1].sort()  # descending within the window
            lengths[start : start + sigma] = window
    padded = 0
    for start in range(0, m, slice_height):
        chunk = lengths[start : start + slice_height]
        width = int(chunk.max())
        padded += width * slice_height - int(chunk.sum())
    return padded


def padding_ratio(csr: AijMat, slice_height: int, sigma: int = 1) -> float:
    """Padding as a fraction of stored slots (0 = perfectly compact)."""
    pad = sliced_padding(csr, slice_height, sigma)
    total = csr.nnz + pad
    return pad / total if total else 0.0


def locality_span(csr: AijMat, perm: np.ndarray | None = None) -> float:
    """Mean column span per row — a proxy for input-vector locality.

    Sorting rows (pJDS-style) can scatter neighbouring rows apart; the
    input-vector accesses of adjacent rows then cover a wider index range,
    degrading cache reuse.  This measures the mean, over consecutive row
    pairs (in storage order or ``perm`` order), of the union span of their
    column indices.
    """
    m, _ = csr.shape
    order = np.arange(m) if perm is None else np.asarray(perm, dtype=np.int64)
    if m < 2:
        return 0.0
    spans = []
    for a, b in zip(order[:-1], order[1:], strict=True):
        ca, _ = csr.get_row(int(a))
        cb, _ = csr.get_row(int(b))
        if ca.size == 0 and cb.size == 0:
            continue
        both = np.concatenate([ca, cb])
        spans.append(float(both.max() - both.min()))
    return float(np.mean(spans)) if spans else 0.0
