"""Krylov solver infrastructure: operators, convergence, monitoring.

The mini-PETSc solver stack mirrors the objects the paper's experiments
configure: a KSP (Krylov method) owns an operator and a PC, iterates until
a relative/absolute tolerance or an iteration cap, and reports a converged
reason.  Operators are anything with ``multiply(x, y=None) -> y`` — every
matrix format in :mod:`repro.mat` qualifies, which is how the experiments
swap CSR for SELL under an unchanged solver configuration (the paper's
``-dm_mat_type sell``).

The loops work on NumPy arrays and take every inner product and 2-norm
through the resolved operator's ``dot`` (:func:`seq_dot` when it has
none).  A distributed :class:`~repro.mat.mpi_aij.MPIAij` resolves to its
rank-local :class:`~repro.mat.mpi_aij.LocalView`, whose ``dot`` is the
rank-ordered ``allreduce`` of the local one — so one GMRES serves the
single-node and the multinode runs, and only the matrix type changes
between them, as in the paper.

:class:`CountingOperator` wraps any operator and counts matvecs and rows
processed; the Figure 10 harness uses those counts to attribute solver
time to the MatMult kernel exactly the way PETSc's -log_view does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from ..faults.monitor import HealthMonitor
from ..obs.observer import obs_counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.context import ExecutionContext


class LinearOperator(Protocol):
    """Anything that can apply y = A x.

    Without ``y``, ``multiply`` returns a new array the caller owns (the
    MG smoother works in place in it).
    """

    @property
    def shape(self) -> tuple[int, int]: ...

    def multiply(
        self, x: np.ndarray, y: np.ndarray | None = None
    ) -> np.ndarray: ...


def seq_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of operators without a ``dot`` of their own."""
    return float(a @ b)


def krylov_dot(op: LinearOperator) -> Callable[[np.ndarray, np.ndarray], float]:
    """The inner product a Krylov loop over ``op`` reduces with.

    Norms are ``math.sqrt(dot(z, z))``, which is exactly what
    ``np.linalg.norm`` computes for a 1-D float64 array.
    """
    return getattr(op, "dot", seq_dot)


def local_array(v):
    """The rank-local block of an MPIVec; arrays (and None) pass through."""
    from ..vec.mpi_vec import MPIVec

    return v.local.array if isinstance(v, MPIVec) else v


class ConvergedReason(enum.Enum):
    """Why a solve stopped (PETSc's KSPConvergedReason, abridged)."""

    RTOL = "converged_rtol"
    ATOL = "converged_atol"
    ITS = "diverged_max_iterations"
    BREAKDOWN = "diverged_breakdown"
    NAN = "diverged_nan"

    @property
    def converged(self) -> bool:
        """True for successful outcomes."""
        return self in (ConvergedReason.RTOL, ConvergedReason.ATOL)


class KrylovBreakdown(RuntimeError):
    """A zero denominator in a Krylov recurrence (a Givens rotation).

    Raised by the numerical core and mapped by the solver to
    :attr:`ConvergedReason.BREAKDOWN` — distinct from the non-finite
    residuals the :class:`~repro.faults.monitor.HealthMonitor` flags.
    """


@dataclass
class KSPResult:
    """Outcome of one linear solve."""

    x: np.ndarray
    reason: ConvergedReason
    iterations: int
    residual_norms: list[float] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        """Last recorded (preconditioned) residual norm."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")


class CountingOperator:
    """Wrap an operator, counting matvecs (the MatMult log of -log_view).

    ``matvecs`` and ``rows_processed`` are the modeled MatMults: they
    include products a caller knew the answer of and did not run
    (:meth:`count_skipped`), which ``skipped`` counts on its own.
    """

    def __init__(self, inner: LinearOperator):
        self.inner = inner
        self.matvecs = 0
        self.rows_processed = 0
        self.skipped = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.inner.shape

    def multiply(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        self.matvecs += 1
        self.rows_processed += self.inner.shape[0]
        return self.inner.multiply(x, y)

    def count_skipped(self) -> None:
        """Count one product the caller did not execute (``ksp.skipped_products``)."""
        self.matvecs += 1
        self.rows_processed += self.inner.shape[0]
        self.skipped += 1
        obs_counter("ksp.skipped_products")

    def diagonal(self) -> np.ndarray:
        """Pass through to the wrapped operator (for Jacobi-type PCs)."""
        return self.inner.diagonal()

    def to_csr(self):
        """Pass through to the wrapped operator (for PC setup paths)."""
        return self.inner.to_csr()

    def reset(self) -> None:
        """Zero the counters."""
        self.matvecs = 0
        self.rows_processed = 0
        self.skipped = 0


class IdentityPC:
    """The no-preconditioner PC (PCNONE)."""

    def setup(self, op: LinearOperator) -> None:
        """Nothing to factor."""

    def apply(self, r: np.ndarray) -> np.ndarray:
        """z = r."""
        return r.copy()


@dataclass
class KSP:
    """Base Krylov solver configuration.

    Subclasses implement :meth:`solve`.  Tolerances follow PETSc: converge
    when the preconditioned residual norm drops below
    ``max(rtol * ||r0||, atol)``.

    A solver multiplies the operator it is given: every format's product
    runs on the source CSR's arrays (:meth:`repro.mat.base.Mat.multiply`),
    so converting an assembled CSR here would build a copy no product
    reads.  Format choice lives in the attached
    :class:`~repro.core.context.ExecutionContext`'s ``measure``,
    ``best_plan`` and ``reformat``; the solver reads only its ``abft``
    toggle.
    """

    rtol: float = 1.0e-8
    atol: float = 1.0e-50
    max_it: int = 10000
    monitor: Callable[[int, float], None] | None = None
    context: "ExecutionContext | None" = None
    health: HealthMonitor = field(default_factory=HealthMonitor)
    #: Detected-corruption rollbacks tolerated before giving up with
    #: BREAKDOWN (only consulted when the context enables ABFT).
    max_sdc_restarts: int = 8

    def _resolve_operator(self, op: LinearOperator) -> LinearOperator:
        """The operator the Krylov loop multiplies: ``op`` itself.

        A distributed :class:`~repro.mat.mpi_aij.MPIAij` resolves to its
        rank-local view; any other operator passes through untouched (a
        caller who wrapped an operator in a :class:`CountingOperator`
        keeps exactly that object's counters).  With the context's
        :attr:`~repro.core.context.ExecutionContext.abft` toggle on, the
        matrix is wrapped in an :class:`~repro.faults.abft.AbftOperator`
        so every product the solver applies is checksum-verified.  The
        rank-local view carries no ABFT checksums, so distributed solves
        run unverified: with ABFT on, every operator left unverified
        counts once in ``abft.unverified_solves``.
        """
        from ..mat.mpi_aij import MPIAij

        if isinstance(op, MPIAij):
            op = op.local
        if self.context is None or not self.context.abft:
            return op
        if hasattr(op, "abft_checksums"):
            from ..faults.abft import AbftOperator

            return AbftOperator(op)
        obs_counter("abft.unverified_solves", labels={"operator": type(op).__name__})
        return op

    def _check_system(self, op: LinearOperator, b: np.ndarray) -> None:
        m, n = op.shape
        if m != n:
            raise ValueError(f"Krylov solvers need a square operator, got {m}x{n}")
        if b.shape != (m,):
            raise ValueError(f"right-hand side of length {b.shape[0]} != {m}")

    def _record(self, norms: list[float], it: int, rnorm: float) -> None:
        norms.append(rnorm)
        if self.monitor is not None:
            self.monitor(it, rnorm)

    def _converged(
        self, rnorm: float, rnorm0: float
    ) -> ConvergedReason | None:
        unhealthy = self.health.check(rnorm, rnorm0)
        if unhealthy is not None:
            return unhealthy
        if rnorm <= self.atol:
            return ConvergedReason.ATOL
        if rnorm <= self.rtol * rnorm0:
            return ConvergedReason.RTOL
        return None

    def solve(
        self, op: LinearOperator, b: np.ndarray, x0: np.ndarray | None = None
    ) -> KSPResult:
        """Solve A x = b; implemented by subclasses."""
        raise NotImplementedError
