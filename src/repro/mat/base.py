"""The Mat interface shared by every sequential matrix format.

PETSc's Mat object is format-polymorphic — the solver stack calls
``MatMult`` without knowing whether the operator is AIJ, BAIJ, AIJPERM, or
SELL (that polymorphism is what lets the paper swap ``-dm_mat_type sell``
into an unchanged application).  This base class is that contract:

* :meth:`multiply` / :meth:`multiply_multi` / :meth:`diagonal` — concrete
  here, not per format: they run on one SciPy handle cached per matrix
  (CSR built through :meth:`to_csr`, or a zero-copy view a format
  supplies), so solvers, smoothers, ABFT and serve all get the same
  sequential-row-sum answer whatever ``-dm_mat_type`` says;
* :meth:`to_csr` / conversion hooks — every format round-trips through CSR,
  which is both how PETSc converts and how the tests establish equivalence;
* :meth:`memory_bytes` — the storage footprint, feeding the Section 6
  traffic analysis and the MCDRAM capacity checks.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .aij import AijMat

#: A format converter: assembled CSR in, format-specific Mat out.  The two
#: keyword parameters are the SELL-C-sigma tuning knobs; converters for
#: formats without those knobs simply ignore them.
FormatConverter = Callable[..., "Mat"]

_FORMAT_CONVERTERS: dict[str, FormatConverter] = {}

#: Format names whose converters accept the ``block_shape`` tuning knob
#: (the β(r,c) block family).  :meth:`KernelVariant.prepare` consults this
#: set so formats without the knob never see the keyword.
BLOCK_SHAPE_FORMATS: set[str] = set()


class MatrixShapeError(ValueError):
    """A vector did not conform to the matrix dimensions."""


class UnknownFormatError(KeyError):
    """No converter is registered under the requested format name."""


def register_format(
    *names: str, block_shape: bool = False
) -> Callable[[FormatConverter], FormatConverter]:
    """Register a CSR-to-format converter under one or more format names.

    This is PETSc's ``MatConvert`` dispatch table in miniature: the
    :meth:`KernelVariant.prepare` step looks converters up by the variant's
    ``fmt`` string instead of hard-coding an if-chain, so adding a format is
    one decorated definition next to the Mat subclass it builds::

        @register_format("SELL")
        def _sell_from_csr(csr, *, slice_height=8, sigma=1):
            return SellMat.from_csr(csr, slice_height=slice_height, sigma=sigma)

    Converters take the assembled CSR operator plus the keyword tuning
    knobs ``slice_height`` and ``sigma`` (ignored by formats without them)
    and return the converted :class:`Mat`.  Converters registered with
    ``block_shape=True`` additionally accept a ``block_shape=(r, c)``
    keyword (the β(r,c) block-dimension knob); the names are published in
    :data:`BLOCK_SHAPE_FORMATS` so prepare paths know when to pass it.
    """
    if not names:
        raise ValueError("register_format needs at least one format name")

    def deco(converter: FormatConverter) -> FormatConverter:
        for name in names:
            existing = _FORMAT_CONVERTERS.get(name)
            if existing is not None and existing is not converter:
                raise ValueError(f"format {name!r} is already registered")
            _FORMAT_CONVERTERS[name] = converter
            if block_shape:
                BLOCK_SHAPE_FORMATS.add(name)
        return converter

    return deco


def converter_for(fmt: str) -> FormatConverter:
    """Look up the registered converter for a format name."""
    try:
        return _FORMAT_CONVERTERS[fmt]
    except KeyError:
        raise UnknownFormatError(
            f"unknown format {fmt!r}; registered: {sorted(_FORMAT_CONVERTERS)}"
        ) from None


def registered_formats() -> tuple[str, ...]:
    """The format names currently in the converter registry, sorted."""
    return tuple(sorted(_FORMAT_CONVERTERS))


class Mat(abc.ABC):
    """Abstract sequential sparse matrix."""

    #: Format name as it appears in benchmark tables ("CSR", "SELL", ...).
    format_name: str = "abstract"

    # -- shape -----------------------------------------------------------
    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """(rows, columns)."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Stored nonzeros, excluding any format padding."""

    # -- operations --------------------------------------------------------
    def multiply(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """y = A @ x on the cached SciPy handle (allocating y when not supplied).

        Every solver, MG smoother, ABFT check and serve product runs here,
        whatever the format: each output entry is the sequential row sum
        SciPy's CSR product computes, so the answer does not depend on the
        format the operator was converted to.  The format-specific SIMD
        kernels (:mod:`repro.core`) are the reproduction, not this path.
        """
        m, n = self.shape
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != n:
            raise MatrixShapeError(
                f"input vector of length {x.shape if x.ndim != 1 else x.shape[0]} "
                f"does not conform to matrix {m}x{n}"
            )
        if y is not None and (y.ndim != 1 or y.shape[0] != m):
            raise MatrixShapeError(
                f"output vector of length {y.shape[0]} does not conform to "
                f"matrix {m}x{n}"
            )
        product = self._spmm_handle() @ x
        if y is None:
            return product
        y[:] = product
        return y

    def multiply_multi(
        self, xs: np.ndarray, ys: np.ndarray | None = None
    ) -> np.ndarray:
        """One multi-vector pass ``Y = A @ [x1 ... xk]`` (``xs`` is n-by-k).

        The amortization the serving layer's request batcher banks on:
        the matrix (values, indices, row structure) streams through memory
        once for the whole batch instead of once per vector, on the same
        handle as :meth:`multiply`.

        Column ``j`` of the result is *batch-size invariant* — the same
        bits whether ``x_j`` was multiplied alone, alongside any other
        columns, or through :meth:`multiply` — which is what lets a server
        batch requests without changing any tenant's answer.  Matrices are
        treated as immutable once multiplied: reassembling values must
        build a new matrix, not mutate this one's buffers.
        """
        m, n = self.shape
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[0] != n:
            raise MatrixShapeError(
                f"input block of shape {xs.shape} does not conform to "
                f"matrix {m}x{n}"
            )
        if ys is not None and ys.shape != (m, xs.shape[1]):
            raise MatrixShapeError(
                f"output block of shape {ys.shape} does not conform to "
                f"({m}, {xs.shape[1]})"
            )
        product = self._spmm_handle() @ xs
        if ys is None:
            return np.asarray(product, dtype=np.float64)
        ys[:] = product
        return ys

    def diagonal(self) -> np.ndarray:
        """The main diagonal (zero where no entry is stored)."""
        return self._spmm_handle().diagonal()

    def _spmm_handle(self):
        """The SciPy matrix every product runs on, built once per matrix."""
        handle = getattr(self, "_spmm_handle_cache", None)
        if handle is None:
            handle = self._scipy_view()
            self._spmm_handle_cache = handle
        return handle

    def _scipy_view(self) -> sp.spmatrix:
        """SciPy CSR over :meth:`to_csr`'s arrays (values shared, not copied).

        Formats whose storage SciPy can read directly override this to
        skip the CSR round-trip.
        """
        csr = self.to_csr()
        return sp.csr_matrix((csr.val, csr.colidx, csr.rowptr), shape=csr.shape)

    @abc.abstractmethod
    def to_csr(self) -> "AijMat":
        """Convert to the CSR reference format."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Bytes of storage the format occupies (values + all index arrays)."""

    # -- ABFT checksums ------------------------------------------------------
    def abft_checksums(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, wabs) = (Aᵀ·1, |A|ᵀ·1), computed once per matrix and cached.

        These are the row-checksum vectors of the ABFT verification
        (:mod:`repro.faults.abft`): ``w·x = Σ(A·x)`` exactly in real
        arithmetic, and ``wabs`` bounds the rounding of that identity.
        Formats whose storage permits it override
        :meth:`_compute_abft_checksums` to avoid the CSR round-trip.
        """
        cached = getattr(self, "_abft_checksum_cache", None)
        if cached is None:
            cached = self._compute_abft_checksums()
            self._abft_checksum_cache = cached
        return cached

    def _compute_abft_checksums(self) -> tuple[np.ndarray, np.ndarray]:
        csr = self.to_csr()
        n = self.shape[1]
        w = np.bincount(csr.colidx, weights=csr.val, minlength=n)[:n]
        wabs = np.bincount(csr.colidx, weights=np.abs(csr.val), minlength=n)[:n]
        return w, wabs

    def to_dense(self) -> np.ndarray:
        """Dense copy, for tests on small matrices only."""
        csr = self.to_csr()
        m, n = csr.shape
        dense = np.zeros((m, n), dtype=np.float64)
        for i in range(m):
            lo, hi = csr.rowptr[i], csr.rowptr[i + 1]
            # np.add.at accumulates duplicate column entries; fancy-index
            # += would silently keep only the last one.
            np.add.at(dense[i], csr.colidx[lo:hi], csr.val[lo:hi])
        return dense

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        m, n = self.shape
        return f"{type(self).__name__}(shape=({m}, {n}), nnz={self.nnz})"
