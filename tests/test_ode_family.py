import numpy as np
import pytest

from lagdelta.cubic import gauss_curvature, mean_curvature
from lagdelta.delta import oracle_delta_dim3
from lagdelta.exceptions import ChartDomainError
from lagdelta.immersions import (OdeState, Trajectory, _rk4_step,
                                 clifford_legendrian, cp_equality_chart,
                                 horizontality_residual, induced_data,
                                 ode_family_integrate, trajectory_residuals)

INIT = OdeState(0.0, 0.0, 1.0, 0.0)


def _array_rk4_step(n, y, h):
    """The RK4 step on numpy 3-vectors: the reference for the float one."""
    def rhs(y):
        theta, lam, mu = y
        return np.array([-lam / (n + 1), (n - 1) * lam * mu,
                         -1.0 - mu * mu - n * lam * lam / (n + 1) ** 2])

    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


class TestIntegrator:
    def test_float_step_equals_array_step(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n = int(rng.integers(2, 8))
            y = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 3)
            h = float(rng.uniform(-0.1, 0.1))
            assert _rk4_step(n, tuple(y.tolist()), h) == tuple(
                _array_rk4_step(n, y, h).tolist())

    def test_residuals_default_run(self):
        traj = ode_family_integrate(3, INIT, (0.0, 0.5), 1e-3)
        assert trajectory_residuals(traj).max() < 1e-9
        assert not traj.truncated

    def test_lambda_keeps_sign(self):
        # d lam/dt = (n-1) lam mu preserves the sign of lam
        traj = ode_family_integrate(3, INIT, (0.0, 0.8), 1e-3)
        assert np.all(traj.states[:, 1] > 0)

    def test_order_four_step_halving(self):
        r_coarse = trajectory_residuals(
            ode_family_integrate(3, INIT, (0.0, 0.5), 8e-3)).max()
        r_fine = trajectory_residuals(
            ode_family_integrate(3, INIT, (0.0, 0.5), 4e-3)).max()
        assert 10.0 < r_coarse / r_fine < 25.0

    def test_truncation_on_lambda_crossing(self):
        # start with strongly negative mu so lambda decays toward zero
        init = OdeState(0.0, 0.0, 1e-3, -8.0)
        traj = ode_family_integrate(3, init, (0.0, 3.0), 1e-2)
        assert traj.truncated
        with pytest.raises(ChartDomainError, match="truncated"):
            traj.state_at(traj.t_end + 1.0)

    def test_zero_lambda_init_rejected(self):
        with pytest.raises(ValueError):
            OdeState(0.0, 0.0, 0.0, 0.0)

    def test_dense_output_matches_nodes(self):
        traj = ode_family_integrate(3, INIT, (0.0, 0.3), 1e-3)
        st = traj.state_at(0.1)
        k = round(0.1 / 1e-3)
        np.testing.assert_allclose(
            [st.theta, st.lam, st.mu], traj.states[k], atol=1e-12)

    def test_dense_output_smoothness(self):
        traj = ode_family_integrate(3, INIT, (0.0, 0.3), 1e-3)
        ts = np.linspace(0.05, 0.25, 301)
        lam = np.array([traj.state_at(t).lam for t in ts])
        second = np.abs(np.diff(lam, 2)).max()
        assert second < 1e-5  # no node-boundary kinks


@pytest.fixture(scope="module")
def chart():
    traj = ode_family_integrate(3, INIT, (0.0, 0.5), 1e-3)
    return cp_equality_chart(3, traj, clifford_legendrian(3))


class TestCpFamilyChart:

    def test_unit_norm(self, chart):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = np.array([rng.uniform(0.05, 0.45), rng.uniform(-1, 1),
                          rng.uniform(-1, 1)])
            assert abs(np.linalg.norm(chart.eval(x)) - 1.0) < 1e-10

    def test_horizontality(self, chart):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(20):
            x = np.array([rng.uniform(0.05, 0.45), rng.uniform(-1, 1),
                          rng.uniform(-1, 1)])
            worst = max(worst, horizontality_residual(chart, x))
        assert worst < 1e-6

    def test_hyperplane_bound_equality(self, chart):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            x = np.array([rng.uniform(0.05, 0.45), rng.uniform(-1, 1),
                          rng.uniform(-1, 1)])
            data = induced_data(chart, x).data
            _, h2 = mean_curvature(data.h)
            delta = oracle_delta_dim3(gauss_curvature(data))
            rhs = (3 - 1) * (3 * h2 + 4) / 4
            worst = max(worst, abs(rhs - delta))
        assert worst < 1e-3

    def test_truncated_window_rejected(self):
        init = OdeState(0.0, 0.0, 1e-3, -8.0)
        traj = ode_family_integrate(3, init, (0.0, 3.0), 1e-2)
        assert traj.truncated
        chart = cp_equality_chart(3, traj, clifford_legendrian(3))
        with pytest.raises(ChartDomainError):
            chart.eval(np.array([2.5, 0.0, 0.0]))
