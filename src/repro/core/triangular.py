"""Triangular solves and ILU(0) for sliced ELLPACK — the paper's future work.

The conclusion of the paper names the open problem this module implements:
"In future work we will investigate further optimization opportunities for
the sliced ELLPACK format for other kernels such as (possibly incomplete)
LU decomposition and triangular solves ... It may be particularly
challenging to balance the higher generality of the CSR format with the
SpMV-centric nature of the sliced ELLPACK format."

The difficulty is structural: a triangular solve carries a dependency from
every row to the rows its off-diagonal entries reference, so rows cannot be
processed in arbitrary slice order.  The classical answer is **level
scheduling** (Saad, ch. 11): partition the rows into levels such that every
row depends only on rows in strictly earlier levels; rows *within* a level
are mutually independent and can be solved simultaneously — i.e. SELL-style,
C at a time, with gathers into the already-solved prefix of the solution.

:class:`SellTriangular` stores a triangular factor in exactly that form:
rows permuted level-major, sliced within levels (slices never straddle a
level boundary), the diagonal held separately as reciprocals so the kernel
multiplies instead of divides.  The instruction-level kernel
(:func:`solve_sell_triangular`) mirrors Algorithm 2's memory behaviour:
contiguous aligned loads of the factor, gathers into the solution vector.

The honest caveat the benchmarks quantify: for the banded matrices of the
paper's PDE regime the dependency chains are long, so levels are thin and
the achievable slice occupancy is far below SpMV's — precisely why the
paper shipped SpMV first and left the triangular kernels as future work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mat.aij import AijMat
from ..memory.spaces import aligned_alloc
from ..simd.engine import SimdEngine


# ---------------------------------------------------------------------------
# ILU(0) factorization into explicit L and U factors.
# ---------------------------------------------------------------------------

def ilu0_factor(csr: AijMat) -> tuple[np.ndarray, np.ndarray]:
    """Zero-fill ILU in place of the CSR values: returns ``(lu, diag_pos)``.

    The IKJ variant over the existing pattern.  ``lu`` holds L's strictly
    lower entries (unit diagonal implied) and U's upper ones in ``csr``'s
    slots; ``diag_pos[i]`` is the slot of row ``i``'s diagonal.  The one
    factorization behind both :func:`ilu0` and
    :class:`repro.ksp.pc.ilu.ILU0PC`.
    """
    m, n = csr.shape
    if m != n:
        raise ValueError("ILU needs a square operator")
    rowptr, colidx = csr.rowptr, csr.colidx
    lu = csr.val.copy()
    diag_pos = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        lo, hi = int(rowptr[i]), int(rowptr[i + 1])
        hits = np.nonzero(colidx[lo:hi] == i)[0]
        if hits.size == 0:
            raise ValueError(f"ILU(0) needs a stored diagonal (row {i})")
        diag_pos[i] = lo + int(hits[0])

    for i in range(1, m):
        lo, hi = int(rowptr[i]), int(rowptr[i + 1])
        row_cols = colidx[lo:hi]
        for kk in range(lo, hi):
            k = int(colidx[kk])
            if k >= i:
                break
            piv = lu[diag_pos[k]]
            if piv == 0.0:
                raise ZeroDivisionError(f"zero pivot at row {k}")
            lik = lu[kk] / piv
            lu[kk] = lik
            # Subtract lik * U[k, j] for j in the pattern of row i.
            klo, khi = int(rowptr[k]), int(rowptr[k + 1])
            for jj in range(klo, khi):
                j = int(colidx[jj])
                if j <= k:
                    continue
                hit = np.searchsorted(row_cols, j)
                if hit < row_cols.shape[0] and row_cols[hit] == j:
                    lu[lo + hit] -= lik * lu[jj]
    return lu, diag_pos


def ilu0(csr: AijMat) -> tuple[AijMat, AijMat]:
    """Zero-fill ILU: returns (L, U) with L unit-lower and U upper.

    :func:`ilu0_factor`'s result split into separate matrices, so the
    factors can be converted to the level-scheduled SELL representation.
    """
    lu, _ = ilu0_factor(csr)
    m = csr.shape[0]
    rows = np.repeat(np.arange(m, dtype=np.int64), csr.row_lengths())
    cols = csr.colidx.astype(np.int64)
    low = cols < rows
    diag = np.arange(m, dtype=np.int64)
    lower = AijMat.from_coo(
        (m, m),
        np.concatenate([rows[low], diag]),
        np.concatenate([cols[low], diag]),
        np.concatenate([lu[low], np.ones(m)]),
        sum_duplicates=False,
    )
    upper = AijMat.from_coo(
        (m, m), rows[~low], cols[~low], lu[~low], sum_duplicates=False
    )
    return lower, upper


# ---------------------------------------------------------------------------
# Level scheduling.
# ---------------------------------------------------------------------------

def level_schedule(tri: AijMat, lower: bool) -> list[np.ndarray]:
    """Group the rows of a triangular matrix into dependency levels.

    Row ``i`` lands in level ``1 + max(level of rows it references)``;
    rows with no off-diagonal references form level 0.  For an upper
    factor the dependencies point to *larger* row indices, so the sweep
    runs backwards; the returned levels are always in solve order.
    """
    m, n = tri.shape
    if m != n:
        raise ValueError("level scheduling needs a square triangular matrix")
    level = np.zeros(m, dtype=np.int64)
    order = range(m) if lower else range(m - 1, -1, -1)
    for i in order:
        cols, _ = tri.get_row(i)
        deps = cols[cols < i] if lower else cols[cols > i]
        if deps.size:
            level[i] = int(level[deps].max()) + 1
    nlevels = int(level.max()) + 1 if m else 0
    return [np.nonzero(level == lvl)[0].astype(np.int64) for lvl in range(nlevels)]


# ---------------------------------------------------------------------------
# The SELL-packed triangular factor.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LevelSlices:
    """Slice geometry of one level: [start, end) into the packed rows."""

    first_slice: int
    nslices: int


class SellTriangular:
    """A triangular factor packed level-major in sliced-ELLPACK layout.

    Off-diagonal entries only; the diagonal is stored as reciprocals in
    ``inv_diag`` (unit-diagonal factors store ones).  ``perm`` maps packed
    position -> original row.  Slices are padded to the slice height with
    zero coefficients whose column index points at the row itself — a safe,
    already-solved location by the time the slice executes, mirroring the
    SpMV padding rule of Section 5.5.
    """

    def __init__(self, tri: AijMat, lower: bool, slice_height: int = 8):
        m, n = tri.shape
        if m != n:
            raise ValueError("triangular solves need a square matrix")
        if slice_height < 1:
            raise ValueError("slice height must be positive")
        self.shape = (m, n)
        self.lower = lower
        self.slice_height = slice_height
        self.levels = level_schedule(tri, lower)

        diag = tri.diagonal()
        if np.any(diag == 0.0):
            raise ZeroDivisionError("triangular factor has a zero diagonal")
        self.inv_diag = 1.0 / diag

        c = slice_height
        perm_parts: list[np.ndarray] = []
        self.level_slices: list[_LevelSlices] = []
        slice_widths: list[int] = []
        slice_rows: list[np.ndarray] = []  # padded to C with -1 sentinels
        for rows in self.levels:
            first = len(slice_widths)
            for start in range(0, rows.size, c):
                chunk = rows[start : start + c]
                padded = np.full(c, -1, dtype=np.int64)
                padded[: chunk.size] = chunk
                lengths = [
                    self._offdiag_count(tri, int(r)) for r in chunk
                ]
                slice_widths.append(max(lengths) if lengths else 0)
                slice_rows.append(padded)
            perm_parts.append(rows)
            self.level_slices.append(
                _LevelSlices(first, len(slice_widths) - first)
            )
        self.perm = (
            np.concatenate(perm_parts) if perm_parts else np.zeros(0, np.int64)
        )

        self.sliceptr = np.zeros(len(slice_widths) + 1, dtype=np.int64)
        for s, width in enumerate(slice_widths):
            self.sliceptr[s + 1] = self.sliceptr[s] + width * c
        total = int(self.sliceptr[-1])
        self.val = aligned_alloc(total, np.float64, 64)
        self.colidx = aligned_alloc(total, np.int32, 64)
        self.slice_rows = slice_rows

        for s, padded_rows in enumerate(slice_rows):
            base = int(self.sliceptr[s])
            width = slice_widths[s]
            for lane, row in enumerate(padded_rows):
                if row < 0:
                    # Padding lane: zero coefficients, self-referencing
                    # columns (column 0 is always solved or irrelevant).
                    self.colidx[base + np.arange(width) * c + lane] = 0
                    continue
                cols, vals = tri.get_row(int(row))
                off = cols != row
                cols, vals = cols[off], vals[off]
                slots = base + np.arange(cols.size) * c + lane
                self.val[slots] = vals
                self.colidx[slots] = cols
                pad = base + np.arange(cols.size, width) * c + lane
                self.colidx[pad] = row  # solved by construction

    @staticmethod
    def _offdiag_count(tri: AijMat, row: int) -> int:
        cols, _ = tri.get_row(row)
        return int((cols != row).sum())

    # -- diagnostics the benchmarks report -------------------------------
    @property
    def nlevels(self) -> int:
        """Length of the dependency chain: the serial bottleneck."""
        return len(self.levels)

    @property
    def mean_level_width(self) -> float:
        """Average rows per level: the available SELL parallelism."""
        if not self.levels:
            return 0.0
        return float(np.mean([r.size for r in self.levels]))

    @property
    def slice_occupancy(self) -> float:
        """Fraction of slice lanes holding real rows (1.0 = SpMV-like)."""
        total_lanes = len(self.slice_rows) * self.slice_height
        if total_lanes == 0:
            return 0.0
        real = sum(int((rows >= 0).sum()) for rows in self.slice_rows)
        return real / total_lanes

    # -- fast path ----------------------------------------------------------
    def solve(self, b: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        """x = T^-1 b by level sweeps (vectorized within each level)."""
        m = self.shape[0]
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (m,):
            raise ValueError("right-hand side does not conform")
        if x is None:
            x = np.zeros(m, dtype=np.float64)
        c = self.slice_height
        for level in self.level_slices:
            for s in range(level.first_slice, level.first_slice + level.nslices):
                base, end = int(self.sliceptr[s]), int(self.sliceptr[s + 1])
                rows = self.slice_rows[s]
                live = rows >= 0
                acc = np.zeros(c)
                for idx in range(base, end, c):
                    vals = self.val[idx : idx + c]
                    cols = self.colidx[idx : idx + c]
                    acc += vals * x[cols]
                out_rows = rows[live]
                x[out_rows] = (b[out_rows] - acc[live]) * self.inv_diag[out_rows]
        return x


def solve_sell_triangular(
    engine: SimdEngine, tri: SellTriangular, b: np.ndarray, x: np.ndarray
) -> None:
    """Instruction-level level-scheduled triangular solve.

    Per slice: Algorithm-2-style aligned loads of the factor columns,
    gathers into the solved prefix of ``x``, one FMA per column; then the
    combined subtract-and-scale ``x = (b - acc) * inv_diag`` as a load,
    a subtract (vector add of the negated accumulator), and a multiply,
    scatter-stored to the level's rows.
    """
    c = tri.slice_height
    lanes = engine.lanes
    if not engine.isa.is_vector:
        x[:] = tri.solve(b)
        # Scalar accounting: one load+fma per stored slot, one store per row.
        counters = engine.counters
        slots = int(tri.sliceptr[-1])
        counters.scalar_load += 3 * slots
        counters.scalar_fma += slots
        counters.scalar_store += tri.shape[0]
        return
    if c % lanes:
        raise ValueError(
            f"slice height {c} must be a multiple of the vector length {lanes}"
        )
    counters = engine.counters
    for level in tri.level_slices:
        for s in range(level.first_slice, level.first_slice + level.nslices):
            base = int(tri.sliceptr[s])
            end = int(tri.sliceptr[s + 1])
            width = (end - base) // c
            rows = tri.slice_rows[s]
            for strip in range(0, c, lanes):
                acc = engine.setzero()
                idx = base + strip
                for _ in range(width):
                    vec_vals = engine.load_aligned(tri.val, idx)
                    vec_idx = engine.load_index(tri.colidx, idx)
                    vec_x = engine.gather_auto(x, vec_idx)
                    acc = engine.fmadd_auto(vec_vals, vec_x, acc)
                    idx += c
                    counters.body_iterations += 1
                # x[rows] = (b[rows] - acc) * inv_diag[rows]: the scatter
                # side of the solve is scalar (rows are level-permuted).
                for lane in range(lanes):
                    row = int(rows[strip + lane])
                    if row < 0:
                        continue
                    rhs = engine.scalar_load_indep(b, row)
                    diag = engine.scalar_load_indep(tri.inv_diag, row)
                    value = engine.scalar_fma_indep(
                        rhs - float(acc.data[lane]), diag, 0.0
                    )
                    engine.scalar_store(x, row, value)


class SellILU0PC:
    """ILU(0) preconditioning with both triangular solves in SELL form.

    Drop-in alternative to :class:`repro.ksp.pc.ilu.ILU0PC`: identical
    factors (a test pins the applied results together to rounding), but
    the forward/backward sweeps run over level-scheduled sliced-ELLPACK
    factors — the future-work kernel, made concrete.
    """

    def __init__(self, slice_height: int = 8):
        self.slice_height = slice_height
        self._lower: SellTriangular | None = None
        self._upper: SellTriangular | None = None

    def setup(self, op) -> None:
        """Factor and pack both triangles."""
        csr = op.to_csr() if hasattr(op, "to_csr") else None
        if csr is None:
            raise TypeError("SellILU0PC needs an operator exposing to_csr()")
        lower, upper = ilu0(csr)
        self._lower = SellTriangular(lower, lower=True,
                                     slice_height=self.slice_height)
        self._upper = SellTriangular(upper, lower=False,
                                     slice_height=self.slice_height)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """z = U^-1 L^-1 r via the two level-scheduled sweeps."""
        if self._lower is None or self._upper is None:
            raise RuntimeError("SellILU0PC.apply before setup")
        y = self._lower.solve(r)
        return self._upper.solve(y)
