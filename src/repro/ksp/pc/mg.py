"""Geometric multigrid preconditioning (the paper's ``-pc_type mg``).

The Gray-Scott solves use a V-cycle with damped-Jacobi smoothing on every
level and a Jacobi-preconditioned coarse solve (paper Section 7.2's exact
option set), so that SpMV dominates on *all* levels — the coarsened
operators have the same 10-nonzeros-per-row structure at smaller sizes,
which is why Figure 7 finds performance insensitive to the grid size.

Pieces:

* :func:`bilinear_prolongation` — periodic bilinear interpolation between
  factor-2 grids, per degree of freedom (the DMDA interpolation);
* :class:`ProductPlan` — the symbolic phase of a CSR x CSR product
  (Gustavson's expansion and one stable sort, as index arrays); its
  ``numeric`` replays new values over the same structures, and
  :func:`csr_matmul` is a one-off plan;
* :class:`ValueMap` — a product plan with one operand's values fixed,
  as a CSR matrix mapping the other operand's values to the product's;
* :class:`GalerkinPlan` — per coarse level the transfers ``P`` and
  ``R = P^T/4`` and the value maps of ``R A`` (``R`` fixed) and
  ``(R A) P`` (``P`` fixed): all of a set-up that depends on the grids
  and the fine structure, never on the fine values (PETSc's
  ``MatPtAP(..., MAT_REUSE_MATRIX)``), so a reassembled Jacobian's
  coarse operators cost two compiled products per level;
* :class:`MGPC` — the V/W-cycle preconditioner; each set-up fetches its
  Galerkin plan from the context's registry (``"galerkin"`` namespace), so
  fresh preconditioners over every Newton Jacobian run only the value
  maps.  Each level holds its operator behind a
  :class:`~repro.ksp.base.CountingOperator` so the benchmarks can
  attribute every matvec, level by level, as -log_view does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from ...mat.aij import AijMat, sort_coo
from ...mat.base import Mat
from ...mat.sparsity import carry_signature
from ...obs.observer import obs_counter
from ...pde.grid import Grid2D
from ..base import CountingOperator, LinearOperator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...core.context import ExecutionContext


class ProductPlan:
    """The symbolic phase of C = A @ B for fixed operand structures.

    The constructor reads only shapes, row pointers and column indices —
    of an :class:`AijMat` or of another plan, whose output structure it
    exposes under the same names, so ``ProductPlan(ProductPlan(r, a), p)``
    plans a triple product.  It expands every A entry into the B row it
    multiplies (the classic Gustavson formulation flattened into NumPy
    index arithmetic) and sorts the triplets with
    :func:`~repro.mat.aij.sort_coo`, the sort-and-merge of
    :meth:`AijMat.from_coo`.  What it keeps, already in sorted order:
    ``ia``/``ib``, the A and B slot of each expanded product, and
    ``group``, the output slot each product sums into.  The plan holds no
    operand values, so it serves every reassembly on the same structures
    (PETSc's ``MatPtAP(..., MAT_REUSE_MATRIX)``), and every product it
    builds carries the plan's structure signature.
    """

    def __init__(self, a, b):
        ma, ka = a.shape
        kb, nb = b.shape
        if ka != kb:
            raise ValueError(f"inner dimensions differ: {ka} vs {kb}")
        self.shape = (ma, nb)
        self.operand_nnz = (int(a.rowptr[-1]), int(b.rowptr[-1]))
        a_cols = np.asarray(a.colidx, dtype=np.int64)
        reps = np.diff(b.rowptr)[a_cols]
        # Product t of A slot s reads B slot rowptr[col(s)] + (t - first(s)).
        ib = np.arange(int(reps.sum()), dtype=np.int64) + np.repeat(
            b.rowptr[a_cols] - (np.cumsum(reps) - reps), reps
        )
        ia = np.repeat(np.arange(a_cols.size, dtype=np.int64), reps)
        a_rows = np.repeat(np.arange(ma, dtype=np.int64), np.diff(a.rowptr))
        rows = np.repeat(a_rows, reps)
        cols = np.asarray(b.colidx, dtype=np.int64)[ib]
        order, self.group, self.rowptr, colidx = sort_coo(self.shape, rows, cols)
        self.colidx = colidx.astype(np.int32)
        self.ia, self.ib = ia[order], ib[order]

    def numeric(self, a_val: np.ndarray, b_val: np.ndarray) -> AijMat:
        """C for new operand values over the planned structures.

        The same elementwise products as a fresh product, summed in the
        same order, so the result is bit-identical to one.
        """
        vals = np.bincount(
            self.group, weights=a_val[self.ia] * b_val[self.ib],
            minlength=self.colidx.shape[0],
        )
        # AijMat keeps ``rowptr`` as passed; the copy keeps every result
        # from aliasing the plan.
        mat = AijMat(self.shape, self.rowptr.copy(), self.colidx, vals)
        return carry_signature(mat, self)

    def left_fixed(self, a_val: np.ndarray) -> "ValueMap":
        """C's values as a linear map of B's, for A's values fixed."""
        return ValueMap(self, self.ib, a_val[self.ia], self.operand_nnz[1])

    def right_fixed(self, b_val: np.ndarray) -> "ValueMap":
        """C's values as a linear map of A's, for B's values fixed."""
        return ValueMap(self, self.ia, b_val[self.ib], self.operand_nnz[0])


class ValueMap:
    """A product's values as a linear map ``C.val = M @ v`` of one operand's.

    With one operand's values fixed, each expanded product of a
    :class:`ProductPlan` is a fixed coefficient times one value ``v[k]``
    of the other, so ``M`` has a row per output slot and the plan's sorted
    products as entries.  SciPy's ``csr_matvec`` sums each row from zero
    in entry order, as ``numeric``'s ``bincount`` does, so the values
    have the same bits.  The map exposes the output structure under the
    plan's names, so it can plan a further product and sign its results.
    """

    def __init__(
        self, plan: ProductPlan, cols: np.ndarray, coef: np.ndarray, n_values: int
    ):
        self.shape, self.rowptr, self.colidx = plan.shape, plan.rowptr, plan.colidx
        self.n_values = n_values
        nnz = self.colidx.shape[0]
        self.indptr = np.zeros(nnz + 1, dtype=np.int64)
        np.cumsum(np.bincount(plan.group, minlength=nnz), out=self.indptr[1:])
        self.indices, self.coef = cols, coef

    def values(self, v: np.ndarray) -> np.ndarray:
        """``M @ v``: the product's values for operand values ``v``."""
        # csr_matvec reads v[k] unchecked: an operand of another structure
        # must fail here, not read past the end of v.
        if v.shape != (self.n_values,):
            raise ValueError(
                f"{v.shape} operand values for a map planned over {self.n_values}"
            )
        out = np.zeros(self.colidx.shape[0])
        csr_matvec(out.shape[0], v.shape[0], self.indptr, self.indices, self.coef, v, out)
        return out

    def numeric(self, v: np.ndarray) -> AijMat:
        """The product for operand values ``v``, as :meth:`ProductPlan.numeric`.

        The structure was built by the plan's sort, so it is not checked
        again.
        """
        mat = AijMat(self.shape, self.rowptr.copy(), self.colidx, self.values(v),
                     check=False)
        return carry_signature(mat, self)


def csr_matmul(a: AijMat, b: AijMat) -> AijMat:
    """C = A @ B for CSR operands: a one-off :class:`ProductPlan`."""
    return ProductPlan(a, b).numeric(a.val, b.val)


def bilinear_prolongation(coarse: Grid2D, fine: Grid2D) -> AijMat:
    """Periodic bilinear interpolation from ``coarse`` to ``fine``.

    Fine points coincident with coarse points copy them; edge midpoints
    average two coarse neighbours; cell centers average four.  Each DOF
    component interpolates independently (the operator is block-diagonal
    over components).
    """
    if fine.nx != 2 * coarse.nx or fine.ny != 2 * coarse.ny:
        raise ValueError("prolongation expects exact factor-2 grids")
    if fine.dof != coarse.dof:
        raise ValueError("grids must share the DOF count")
    dof = fine.dof
    nxf, nyf = fine.nx, fine.ny
    nxc, nyc = coarse.nx, coarse.ny

    fi, fj = np.meshgrid(np.arange(nxf), np.arange(nyf))  # fj rows = j
    fi = fi.ravel()
    fj = fj.ravel()
    fine_pt = fj * nxf + fi

    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []

    ci0 = fi // 2
    cj0 = fj // 2
    ci1 = (ci0 + 1) % nxc
    cj1 = (cj0 + 1) % nyc
    odd_i = (fi % 2).astype(bool)
    odd_j = (fj % 2).astype(bool)

    # The four coarse corners and their bilinear weights per fine point.
    corners = (
        (ci0, cj0, np.where(odd_i, 0.5, 1.0) * np.where(odd_j, 0.5, 1.0)),
        (ci1, cj0, np.where(odd_i, 0.5, 0.0) * np.where(odd_j, 0.5, 1.0)),
        (ci0, cj1, np.where(odd_i, 0.5, 1.0) * np.where(odd_j, 0.5, 0.0)),
        (ci1, cj1, np.where(odd_i, 0.5, 0.0) * np.where(odd_j, 0.5, 0.0)),
    )
    for ci, cj, w in corners:
        nzmask = w != 0.0
        coarse_pt = cj[nzmask] * nxc + ci[nzmask]
        for c in range(dof):
            rows_parts.append(fine_pt[nzmask] * dof + c)
            cols_parts.append(coarse_pt * dof + c)
            vals_parts.append(w[nzmask])

    return AijMat.from_coo(
        (fine.ndof, coarse.ndof),
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
        sum_duplicates=True,
    )


def full_weighting_restriction(prolongation: AijMat) -> AijMat:
    """R = P^T / 4: the adjoint restriction, scaled for 2D factor-2 grids."""
    r = prolongation.transpose()
    r.val *= 0.25
    return r


class GalerkinPlan:
    """Everything an MG set-up needs that does not depend on values.

    Per coarse level: the prolongation ``P`` and restriction ``R = P^T/4``
    (functions of the grids alone) and, when built over a fine structure,
    the :class:`ValueMap` of ``R A`` with ``R``'s values fixed and of
    ``(R A) P`` with ``P``'s.  The product plans they come from are
    dropped once the maps are built.  :meth:`MGPC.setup` memoizes one plan
    per (grids, fine structure) in the context's registry, so a Newton
    reassembly runs only the two maps per level.  With ``fine=None``
    (rediscretized coarse operators) the plan holds the transfers only.
    The plan never holds a fine operator's values.
    """

    def __init__(self, grids: list[Grid2D], fine: AijMat | None):
        self.prolongations: list[AijMat] = []
        self.restrictions: list[AijMat] = []
        self.value_maps: list[tuple[ValueMap, ValueMap]] = []
        structure = fine
        for fine_grid, coarse_grid in zip(grids, grids[1:]):
            p = bilinear_prolongation(coarse_grid, fine_grid)
            r = full_weighting_restriction(p)
            self.prolongations.append(p)
            self.restrictions.append(r)
            if structure is not None:
                ra = ProductPlan(r, structure)
                structure = ProductPlan(ra, p).right_fixed(p.val)
                self.value_maps.append((ra.left_fixed(r.val), structure))

    def coarse_operators(self, fine: AijMat) -> list[AijMat]:
        """The Galerkin operators ``R A P``, coarsest last, for ``fine``'s values."""
        current = fine
        out = []
        for ra, rap in self.value_maps:
            current = rap.numeric(ra.values(current.val))
            out.append(current)
        return out


@dataclass
class MGLevel:
    """One multigrid level: operator, damped inverse diagonal, transfer down."""

    op: CountingOperator
    damped_inv_diag: np.ndarray  #: ``omega / diag``, the Jacobi sweep's scale
    prolongation: AijMat | None  #: from the next-coarser level (None at the bottom)
    restriction: AijMat | None
    #: Why a sweep from x = 0 must run its ``A·0`` (``"opaque"``: the
    #: operator is not a :class:`~repro.mat.base.Mat`, so its product may
    #: verify or inject; ``"nonfinite"``: ``inf·0`` is NaN), or None when
    #: that product is exactly +0.0 and is skipped.
    zero_product_reason: str | None


class MGPC:
    """Geometric multigrid V/W-cycle preconditioner.

    Parameters
    ----------
    grids:
        The hierarchy, finest first (``Grid2D.hierarchy``); only needed
        when operators are rediscretized or transfers must be built.
    operator_factory:
        Optional callback ``grid -> AijMat`` rediscretizing the operator
        per level (PETSc's DMDA default).  When omitted, coarse operators
        are Galerkin triple products ``R A P``.
    levels:
        Level count when ``grids`` is omitted (Galerkin on implied grids is
        impossible then, so ``grids`` is required for levels > 1).
    smooth_down / smooth_up:
        Damped-Jacobi sweeps before/after coarse correction.
    omega:
        Jacobi damping (2/3 is the 2D heuristic optimum).
    coarse_sweeps:
        Jacobi sweeps standing in for the coarse solve (the paper's
        ``-mg_coarse_pc_type jacobi``).
    cycle:
        ``"v"`` or ``"w"``.
    context:
        Optional :class:`~repro.core.context.ExecutionContext`, whose
        registry memoizes the :class:`GalerkinPlan` per (grids, fine
        structure); without a context each set-up builds the plan and
        uses it once.  Every level multiplies the operator it holds: the
        finest the caller's, each coarser its CSR Galerkin product.
        Format choice lives in the context's ``measure``, ``best_plan``
        and ``reformat``, not here.
    """

    def __init__(
        self,
        grids: list[Grid2D] | None = None,
        operator_factory: Callable[[Grid2D], AijMat] | None = None,
        smooth_down: int = 2,
        smooth_up: int = 2,
        omega: float = 2.0 / 3.0,
        coarse_sweeps: int = 8,
        cycle: str = "v",
        context: "ExecutionContext | None" = None,
    ):
        if cycle not in ("v", "w"):
            raise ValueError("cycle must be 'v' or 'w'")
        if grids is not None and len(grids) < 1:
            raise ValueError("need at least one grid")
        self.grids = grids
        self.operator_factory = operator_factory
        self.smooth_down = smooth_down
        self.smooth_up = smooth_up
        self.omega = omega
        self.coarse_sweeps = coarse_sweeps
        self.cycle = cycle
        self.context = context
        self.levels: list[MGLevel] = []

    # -- setup ----------------------------------------------------------
    def setup(self, op: LinearOperator) -> None:
        """Build the level hierarchy under the given fine operator."""
        self.levels = []
        fine_csr = op.to_csr() if hasattr(op, "to_csr") else None
        if self.grids is None or len(self.grids) == 1:
            self.levels.append(self._make_level(op, None, None))
            return
        if fine_csr is None:
            raise TypeError("MGPC needs a fine operator exposing to_csr()")

        if self.operator_factory is None:
            plan = self._plan(fine_csr)
            coarse_ops = plan.coarse_operators(fine_csr)
        else:
            plan = self._plan(None)
            coarse_ops = [self.operator_factory(g) for g in self.grids[1:]]

        # Level 0 wraps the caller's operator so its matvecs are counted
        # with whatever format (CSR or SELL) the caller configured.
        self.levels.append(self._make_level(op, None, None))
        for coarse_op, p, r in zip(coarse_ops, plan.prolongations, plan.restrictions):
            self.levels.append(self._make_level(coarse_op, p, r))

    def _plan(self, fine: AijMat | None) -> GalerkinPlan:
        """The set-up plan for ``fine``'s structure, memoized per context."""
        def build() -> GalerkinPlan:
            return GalerkinPlan(self.grids, fine)

        if self.context is None:
            return build()
        registry = self.context.registry
        return registry.get_or_compute(
            "galerkin", registry.galerkin_key(self.grids, fine), build
        )

    def _make_level(
        self,
        op: LinearOperator,
        p: AijMat | None,
        r: AijMat | None,
    ) -> MGLevel:
        diag = np.array(op.diagonal(), dtype=np.float64, copy=True)
        inv_diag = 1.0 / np.where(diag != 0.0, diag, 1.0)
        counting = op if isinstance(op, CountingOperator) else CountingOperator(op)
        inner = counting.inner
        if not isinstance(inner, Mat):
            reason: str | None = "opaque"
        elif not np.isfinite(inner._csr_arrays()[2]).all():
            reason = "nonfinite"
        else:
            reason = None
        return MGLevel(op=counting, damped_inv_diag=self.omega * inv_diag,
                       prolongation=p, restriction=r, zero_product_reason=reason)

    # -- cycling -----------------------------------------------------------
    def _smooth(
        self, level: MGLevel, x: np.ndarray, b: np.ndarray, sweeps: int
    ) -> np.ndarray:
        # ``omega * inv_diag * r`` multiplies left to right, so scaling
        # once at set-up leaves every sweep's bits unchanged.  Each sweep
        # is ``x + d * (b - A x)``, computed in the product's fresh array.
        for _ in range(sweeps):
            t = level.op.multiply(x)
            np.subtract(b, t, out=t)
            np.multiply(level.damped_inv_diag, t, out=t)
            x = np.add(x, t, out=t)
        return x

    def _smooth_from_zero(
        self, level: MGLevel, b: np.ndarray, sweeps: int
    ) -> np.ndarray:
        """:meth:`_smooth` from x = 0, skipping the first sweep's ``A·0``.

        A :class:`~repro.mat.base.Mat` with finite values returns +0.0 in
        every entry of ``A·0`` (each row sum starts at +0.0, and
        ``+0.0 + -0.0`` is +0.0), and ``b - +0.0`` is ``b`` bit for bit,
        so the first sweep is ``+0.0 + d * b``: the ``+0.0`` keeps a
        ``-0.0`` in ``d * b`` from surviving.  The skipped product still
        counts as a MatMult (:meth:`CountingOperator.count_skipped`); a
        level that must run it counts in ``mg.zero_guess_fallbacks``.
        """
        if not sweeps:
            return np.zeros_like(b)
        if level.zero_product_reason is not None:
            obs_counter("mg.zero_guess_fallbacks",
                        labels={"reason": level.zero_product_reason})
            return self._smooth(level, np.zeros_like(b), b, sweeps)
        level.op.count_skipped()
        t = level.damped_inv_diag * b
        return self._smooth(level, np.add(0.0, t, out=t), b, sweeps - 1)

    def _cycle(self, lvl: int, b: np.ndarray) -> np.ndarray:
        level = self.levels[lvl]
        if lvl == len(self.levels) - 1:
            # Coarse "solve": Jacobi sweeps, per the paper's options.
            sweeps = self.coarse_sweeps if len(self.levels) > 1 else max(
                self.coarse_sweeps, 1
            )
            return self._smooth_from_zero(level, b, sweeps)
        x = self._smooth_from_zero(level, b, self.smooth_down)
        coarse = self.levels[lvl + 1]
        r = level.op.multiply(x)
        np.subtract(b, r, out=r)
        rc = coarse.restriction.multiply(r)
        ec = self._cycle(lvl + 1, rc)
        if self.cycle == "w" and lvl + 1 < len(self.levels) - 1:
            rc2 = rc - self.levels[lvl + 1].op.multiply(ec)
            ec = ec + self._cycle(lvl + 1, rc2)
        x += coarse.prolongation.multiply(ec)
        return self._smooth(level, x, b, self.smooth_up)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """One multigrid cycle from a zero initial guess (a linear PC)."""
        if not self.levels:
            raise RuntimeError("MGPC.apply before setup")
        if r.shape[0] != self.levels[0].op.shape[0]:
            raise ValueError("residual does not conform to the operator")
        return self._cycle(0, r)

    # -- accounting ---------------------------------------------------------
    def matvec_counts(self) -> list[int]:
        """MatMults executed per level since setup (finest first)."""
        return [level.op.matvecs for level in self.levels]

    def rows_processed(self) -> list[int]:
        """Rows streamed per level — proportional to SpMV volume."""
        return [level.op.rows_processed for level in self.levels]
