"""The Mat interface shared by every sequential matrix format.

PETSc's Mat object is format-polymorphic — the solver stack calls
``MatMult`` without knowing whether the operator is AIJ, BAIJ, AIJPERM, or
SELL (that polymorphism is what lets the paper swap ``-dm_mat_type sell``
into an unchanged application).  This base class is that contract:

* :meth:`multiply` / :meth:`multiply_multi` / :meth:`diagonal` —
  concrete here, not per format: they call SciPy's compiled CSR routines
  on one ``(indptr, indices, data)`` triple cached per matrix (over
  :meth:`to_csr`'s arrays), so solvers, smoothers, ABFT and serve all
  get the same answer whatever ``-dm_mat_type`` says;
* :meth:`to_csr` / conversion hooks — every format round-trips through CSR,
  which is both how PETSc converts and how the tests establish equivalence;
* :meth:`memory_bytes` — the storage footprint, feeding the Section 6
  traffic analysis and the working set the cache-mode blend prices.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable

import numpy as np
from scipy.sparse._sparsetools import csr_diagonal, csr_matvec, csr_matvecs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .aij import AijMat

#: A format converter: assembled CSR in, format-specific Mat out.  The two
#: keyword parameters are the SELL-C-sigma tuning knobs; converters for
#: formats without those knobs simply ignore them.
FormatConverter = Callable[..., "Mat"]

_FORMAT_CONVERTERS: dict[str, FormatConverter] = {}

#: Structure plans of the formats registered with one (see
#: :func:`register_format`'s ``plan``).
_FORMAT_PLANS: dict[str, Callable[..., Any]] = {}

#: Format names whose converters accept the ``block_shape`` tuning knob
#: (the β(r,c) block family).  :meth:`KernelVariant.prepare` consults this
#: set so formats without the knob never see the keyword.
BLOCK_SHAPE_FORMATS: set[str] = set()

#: Format names whose converters consume the SELL-C-sigma knobs
#: ``slice_height`` and ``sigma``; every other converter ignores them, so
#: a tuning sweep measures those formats once instead of once per knob.
SLICE_FORMATS = frozenset({"SELL", "ESB"})

#: Nonzero count from which the product arrays switch to int64 indices:
#: an int32 ``rowptr`` holds offsets up to ``2**31 - 1``.
_INT32_NNZ = 2**31


class MatrixShapeError(ValueError):
    """A vector did not conform to the matrix dimensions."""


class UnknownFormatError(KeyError):
    """No converter is registered under the requested format name."""


def register_format(
    *names: str, block_shape: bool = False, plan: Callable[..., Any] | None = None
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

    ``plan`` is the format's structure plan, if it has one: called like
    the converter, it does the structure half of the conversion once, and
    its ``refill(csr)`` converts any CSR of that structure (PETSc's
    ``MatConvert(..., MAT_REUSE_MATRIX)``).  The registry's ``prepare``
    namespace keeps one per sparsity structure
    (:class:`~repro.core.dispatch.ConversionPlan`).
    """
    if not names:
        raise ValueError("register_format needs at least one format name")

    def deco(converter: FormatConverter) -> FormatConverter:
        for name in names:
            existing = _FORMAT_CONVERTERS.get(name)
            if existing is not None and existing is not converter:
                raise ValueError(f"format {name!r} is already registered")
            _FORMAT_CONVERTERS[name] = converter
            if plan is not None:
                _FORMAT_PLANS[name] = plan
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


def plan_for(fmt: str) -> Callable[..., Any] | None:
    """The registered structure plan of a format, or None."""
    return _FORMAT_PLANS.get(fmt)


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
        """y = A @ x on :meth:`to_csr`'s arrays (allocating y when not supplied).

        Every solver, MG smoother, ABFT check and serve product runs here,
        whatever the format: each output entry is the sequential row sum
        SciPy's CSR product computes, so the answer does not depend on the
        format the operator was converted to.  The format-specific SIMD
        kernels (:mod:`repro.core`) are the reproduction, not this path.

        After the shape checks it calls SciPy's compiled ``csr_matvec`` on
        the cached :meth:`_csr_arrays`, into a zeroed output: the call
        ``csr_matrix @ x`` ends in, minus the sparse-matrix object and the
        operator dispatch in front of it, so the bits are the same.
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
        product = np.zeros(m)
        csr_matvec(m, n, *self._csr_arrays(), x, product)
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
        arrays as :meth:`multiply`.  It runs SciPy's ``csr_matvecs`` (a
        single column runs ``csr_matvec``, as ``csr_matrix @ xs`` does).

        Column ``j`` of the result is *batch-size invariant* — the same
        bits whether ``x_j`` was multiplied alone, alongside any other
        columns, or through :meth:`multiply` — which is what lets a server
        batch requests without changing any tenant's answer.  Matrices are
        treated as immutable once multiplied: the products read the
        matrix's own value array, so reassembling values must build a new
        matrix, not mutate this one's buffers.
        """
        m, n = self.shape
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[0] != n:
            raise MatrixShapeError(
                f"input block of shape {xs.shape} does not conform to "
                f"matrix {m}x{n}"
            )
        k = xs.shape[1]
        if ys is not None and ys.shape != (m, k):
            raise MatrixShapeError(
                f"output block of shape {ys.shape} does not conform to "
                f"({m}, {k})"
            )
        product = np.zeros((m, k))
        if k == 1:
            csr_matvec(m, n, *self._csr_arrays(), xs.ravel(), product.ravel())
        else:
            csr_matvecs(m, n, k, *self._csr_arrays(), xs.ravel(), product.ravel())
        if ys is None:
            return product
        ys[:] = product
        return ys

    def diagonal(self) -> np.ndarray:
        """The main diagonal (zero where no entry is stored; duplicates summed)."""
        m, n = self.shape
        diag = np.empty(min(m, n))
        if diag.size:
            csr_diagonal(0, m, n, *self._csr_arrays(), diag)
        return diag

    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` of :meth:`to_csr`, built once per matrix.

        SciPy's compiled routines take one index type for both index
        arrays and convert a mismatched one on every call.  While the
        nonzeros fit in int32 the triple is an int32 copy of ``rowptr``
        with the matrix's own int32 ``colidx`` and ``val`` (shared, not
        copied); beyond that, ``rowptr`` with an int64 copy of ``colidx``.
        A format whose ``to_csr`` returns a stored CSR — a converted
        :class:`~repro.core.sell.SellMat` returns its source — shares that
        matrix's triple, so an operator and its conversions keep one.
        """
        arrays = getattr(self, "_csr_arrays_cache", None)
        if arrays is None:
            csr = self.to_csr()
            if csr is not self:
                arrays = csr._csr_arrays()
            elif csr.nnz < _INT32_NNZ:
                arrays = (csr.rowptr.astype(np.int32), csr.colidx, csr.val)
            else:
                arrays = (csr.rowptr, csr.colidx.astype(np.int64), csr.val)
            self._csr_arrays_cache = arrays
        return arrays

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
        They are read off :meth:`to_csr`, so a converted matrix whose
        ``to_csr`` returns its source has its source's checksum bits.
        """
        cached = getattr(self, "_abft_checksum_cache", None)
        if cached is None:
            csr = self.to_csr()
            n = self.shape[1]
            w = np.bincount(csr.colidx, weights=csr.val, minlength=n)[:n]
            wabs = np.bincount(csr.colidx, weights=np.abs(csr.val), minlength=n)[:n]
            cached = self._abft_checksum_cache = (w, wabs)
        return cached

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
