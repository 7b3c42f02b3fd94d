"""Newton (SNES) and theta-method timestepping (TS)."""

import numpy as np
import pytest

from repro.ksp.gmres import GMRES
from repro.ksp.snes import NewtonSolver
from repro.ksp.ts import ThetaMethod
from repro.mat.aij import AijMat


def quadratic_problem():
    """F(x) = x^2 - c componentwise: root sqrt(c), diagonal Jacobian."""
    c = np.array([4.0, 9.0, 16.0])

    def residual(x):
        return x * x - c

    def jacobian(x):
        return AijMat.from_dense(np.diag(2.0 * x))

    return residual, jacobian, np.sqrt(c)


class TestNewton:
    def test_converges_quadratically_on_a_smooth_problem(self):
        residual, jacobian, root = quadratic_problem()
        solver = NewtonSolver(
            residual=residual,
            jacobian=jacobian,
            ksp_factory=lambda: GMRES(rtol=1e-12),
            rtol=1e-12,
        )
        result = solver.solve(np.array([1.0, 1.0, 1.0]))
        assert result.reason.converged
        assert np.allclose(result.x, root, atol=1e-6)
        # Quadratic convergence: few iterations from a decent guess.
        assert result.iterations <= 10

    def test_fnorm_history_is_monotone(self):
        residual, jacobian, _ = quadratic_problem()
        solver = NewtonSolver(
            residual=residual,
            jacobian=jacobian,
            ksp_factory=lambda: GMRES(rtol=1e-12),
        )
        result = solver.solve(np.array([3.0, 3.0, 3.0]))
        assert all(
            b < a for a, b in zip(result.fnorms, result.fnorms[1:], strict=False)
        )

    def test_line_search_rescues_an_overshooting_step(self):
        """atan has a famous Newton divergence without damping."""

        def residual(x):
            return np.arctan(x)

        def jacobian(x):
            return AijMat.from_dense(np.diag(1.0 / (1.0 + x * x)))

        solver = NewtonSolver(
            residual=residual,
            jacobian=jacobian,
            ksp_factory=lambda: GMRES(rtol=1e-14),
            rtol=1e-10,
            max_it=60,
        )
        result = solver.solve(np.array([2.0]))  # diverges without damping
        assert result.reason.converged
        assert abs(result.x[0]) < 1e-6

    def test_lagged_jacobian_builds_fewer_operators(self):
        residual, jacobian, _ = quadratic_problem()

        def run(lag):
            solver = NewtonSolver(
                residual=residual,
                jacobian=jacobian,
                ksp_factory=lambda: GMRES(rtol=1e-12),
                lag_jacobian=lag,
                rtol=1e-10,
                max_it=40,
            )
            return solver.solve(np.array([1.0, 1.0, 1.0]))

        fresh = run(1)
        lagged = run(3)
        assert lagged.reason.converged
        assert lagged.jacobian_builds < lagged.iterations
        assert fresh.jacobian_builds == fresh.iterations

    def test_operator_wrapper_converts_the_jacobian(self):
        from repro.core.sell import SellMat

        residual, jacobian, root = quadratic_problem()
        formats_seen = []

        def wrapper(mat):
            sell = SellMat.from_csr(mat.to_csr())
            formats_seen.append(sell.format_name)
            return sell

        solver = NewtonSolver(
            residual=residual,
            jacobian=jacobian,
            ksp_factory=lambda: GMRES(rtol=1e-12),
            operator_wrapper=wrapper,
        )
        result = solver.solve(np.array([1.0, 1.0, 1.0]))
        assert result.reason.converged
        assert np.allclose(result.x, root, atol=1e-6)
        assert formats_seen and all(f == "SELL" for f in formats_seen)

    def test_linear_iterations_are_accumulated(self):
        residual, jacobian, _ = quadratic_problem()
        solver = NewtonSolver(
            residual=residual,
            jacobian=jacobian,
            ksp_factory=lambda: GMRES(rtol=1e-12),
        )
        result = solver.solve(np.array([1.0, 1.0, 1.0]))
        assert result.linear_iterations >= result.iterations

    def test_invalid_lag_rejected(self):
        residual, jacobian, _ = quadratic_problem()
        solver = NewtonSolver(
            residual=residual,
            jacobian=jacobian,
            ksp_factory=lambda: GMRES(),
            lag_jacobian=0,
        )
        with pytest.raises(ValueError):
            solver.solve(np.ones(3))


class TestThetaMethod:
    def linear_decay(self):
        """du/dt = -u, exact solution exp(-t)."""

        def rhs(w):
            return -w

        def jacobian(w, shift, scale):
            n = w.shape[0]
            return AijMat.from_dense(shift * np.eye(n) + scale * (-np.eye(n)))

        return rhs, jacobian

    def integrate(self, theta, dt, t_end=1.0):
        rhs, jacobian = self.linear_decay()
        ts = ThetaMethod(
            rhs=rhs,
            jacobian=jacobian,
            ksp_factory=lambda: GMRES(rtol=1e-14),
            theta=theta,
            dt=dt,
            snes_rtol=1e-13,
        )
        result = ts.integrate(np.array([1.0]), round(t_end / dt))
        return float(result.final_state[0])

    def test_crank_nicolson_is_second_order(self):
        exact = np.exp(-1.0)
        err_coarse = abs(self.integrate(0.5, 0.1) - exact)
        err_fine = abs(self.integrate(0.5, 0.05) - exact)
        order = np.log2(err_coarse / err_fine)
        assert order == pytest.approx(2.0, abs=0.3)

    def test_backward_euler_is_first_order(self):
        exact = np.exp(-1.0)
        err_coarse = abs(self.integrate(1.0, 0.1) - exact)
        err_fine = abs(self.integrate(1.0, 0.05) - exact)
        order = np.log2(err_coarse / err_fine)
        assert order == pytest.approx(1.0, abs=0.3)

    def test_stats_recorded_per_step(self):
        rhs, jacobian = self.linear_decay()
        ts = ThetaMethod(
            rhs=rhs, jacobian=jacobian, ksp_factory=lambda: GMRES(rtol=1e-14)
        )
        result = ts.integrate(np.ones(3), 4)
        assert len(result.stats) == 4
        assert result.total_newton_iterations >= 4
        assert result.times == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_keep_states_false_retains_endpoints_only(self):
        rhs, jacobian = self.linear_decay()
        ts = ThetaMethod(
            rhs=rhs, jacobian=jacobian, ksp_factory=lambda: GMRES(rtol=1e-14)
        )
        result = ts.integrate(np.ones(2), 5, keep_states=False)
        assert len(result.states) == 2

    def test_parameter_validation(self):
        rhs, jacobian = self.linear_decay()
        with pytest.raises(ValueError):
            ThetaMethod(rhs=rhs, jacobian=jacobian,
                        ksp_factory=GMRES, theta=0.0)
        with pytest.raises(ValueError):
            ThetaMethod(rhs=rhs, jacobian=jacobian,
                        ksp_factory=GMRES, dt=0.0)
