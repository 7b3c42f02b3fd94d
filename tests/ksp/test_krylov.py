"""GMRES and the counting operator on the matrix gallery."""

import numpy as np
import pytest

from repro.ksp.base import ConvergedReason, CountingOperator
from repro.ksp.gmres import GMRES
from repro.ksp.pc.jacobi import JacobiPC
from repro.pde.problems import random_sparse


@pytest.fixture
def nonsym():
    return random_sparse(60, density=0.1, seed=1)


def residual(a, x, b) -> float:
    return float(np.linalg.norm(a.multiply(x) - b))


class TestGMRES:
    def test_converges_on_a_nonsymmetric_system(self, nonsym, rng):
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-10).solve(nonsym, b)
        assert result.reason.converged
        assert residual(nonsym, result.x, b) < 1e-6

    def test_restart_shorter_than_needed_still_converges(self, nonsym, rng):
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-10, restart=5).solve(nonsym, b)
        assert result.reason.converged
        assert residual(nonsym, result.x, b) < 1e-6

    def test_jacobi_preconditioning_reduces_iterations(self, nonsym, rng):
        b = rng.standard_normal(60)
        plain = GMRES(rtol=1e-10).solve(nonsym, b)
        pc = GMRES(rtol=1e-10, pc=JacobiPC()).solve(nonsym, b)
        assert pc.iterations < plain.iterations

    def test_identity_converges_immediately(self, rng):
        from repro.mat.aij import AijMat

        eye = AijMat.from_dense(np.eye(7))
        b = rng.standard_normal(7)
        result = GMRES(rtol=1e-12).solve(eye, b)
        assert result.iterations <= 1
        assert np.allclose(result.x, b)

    def test_zero_rhs_returns_zero(self, nonsym):
        result = GMRES().solve(nonsym, np.zeros(60))
        assert result.reason.converged
        assert np.all(result.x == 0.0)

    def test_initial_guess_is_honoured(self, nonsym, rng):
        """A warm start from a partial solve needs fewer iterations.

        (PETSc semantics: rtol is relative to the *initial* residual of
        each solve, so even an exact x0 formally iterates; what must hold
        is that the warm start reaches a given absolute accuracy faster.)
        """
        b = rng.standard_normal(60)
        rough = GMRES(rtol=1e-3).solve(nonsym, b).x
        cold = GMRES(atol=1e-9, rtol=1e-30, max_it=200).solve(nonsym, b)
        warm = GMRES(atol=1e-9, rtol=1e-30, max_it=200).solve(nonsym, b, x0=rough)
        assert warm.reason.converged
        assert warm.iterations < cold.iterations

    def test_max_it_reports_divergence(self, nonsym, rng):
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-14, max_it=2).solve(nonsym, b)
        assert result.reason is ConvergedReason.ITS

    def test_residual_norms_are_monotone_within_a_cycle(self, nonsym, rng):
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-10, restart=60).solve(nonsym, b)
        norms = result.residual_norms
        assert all(
            n2 <= n1 * (1 + 1e-12)
            for n1, n2 in zip(norms, norms[1:], strict=False)
        )

    def test_monitor_is_called_per_iteration(self, nonsym, rng):
        calls = []
        b = rng.standard_normal(60)
        GMRES(rtol=1e-8, monitor=lambda it, r: calls.append((it, r))).solve(
            nonsym, b
        )
        assert len(calls) >= 2
        assert calls[0][0] == 0

    def test_rectangular_operator_rejected(self, rng):
        from tests.conftest import make_random_csr

        rect = make_random_csr(5, 7, density=0.5)
        with pytest.raises(ValueError):
            GMRES().solve(rect, np.ones(5))

    def test_wrong_rhs_length_rejected(self, nonsym):
        with pytest.raises(ValueError):
            GMRES().solve(nonsym, np.ones(3))

    def test_invalid_restart_rejected(self, nonsym):
        with pytest.raises(ValueError):
            GMRES(restart=0).solve(nonsym, np.ones(60))


class TestCountingOperator:
    def test_counts_matvecs(self, nonsym, rng):
        op = CountingOperator(nonsym)
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-8).solve(op, b)
        # One matvec per iteration plus one initial residual per cycle.
        assert op.matvecs >= result.iterations
        assert op.rows_processed == op.matvecs * 60
        op.reset()
        assert op.matvecs == 0
