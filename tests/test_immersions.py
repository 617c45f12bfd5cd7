import numpy as np
import pytest

from lagdelta.cubic import gauss_curvature, mean_curvature, tau_from_cubic
from lagdelta.delta import DeltaTuple, oracle_delta_dim3
from lagdelta.exceptions import ChartDomainError, HorizontalityError
from lagdelta.frames import scalar_tau
from lagdelta.immersions import (ImmersionChart, clifford_legendrian,
                                 equality_graph_function,
                                 exotic_s3_horizontal_chart,
                                 flat_equality_chart, graph_immersion,
                                 horizontality_residual, induced_data,
                                 intrinsic_curvature_fd, lagrangian_residual,
                                 legendrian_minimality_residual)


def graph_chart(lam=1.0):
    tup = DeltaTuple(5, (2,))
    return graph_immersion(equality_graph_function(tup, lam), 5, name="graph")


class TestGraphImmersion:
    def test_zero_potential_is_flat_plane(self):
        chart = graph_immersion(lambda x: np.zeros_like(x), 3)
        res = induced_data(chart, np.array([0.2, -0.1, 0.0]))
        assert np.abs(res.data.h).max() < 1e-10

    def test_quadratic_potential_has_zero_form_everywhere(self):
        A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 0.7]])
        chart = graph_immersion(lambda x: x @ A.T, 3)
        for x in (np.zeros(3), np.array([0.3, 0.1, -0.2])):
            res = induced_data(chart, x)
            assert np.abs(res.data.h).max() < 1e-8

    def test_equality_graph_coefficients_at_zero(self):
        res = induced_data(graph_chart(), np.zeros(5))
        h = res.data.h
        assert h[0, 0, 2] == pytest.approx(0.75, abs=1e-6)
        assert h[1, 1, 2] == pytest.approx(0.75, abs=1e-6)
        assert h[2, 2, 2] == pytest.approx(3.0, abs=1e-6)
        assert h[2, 3, 3] == pytest.approx(1.0, abs=1e-6)
        assert h[2, 4, 4] == pytest.approx(1.0, abs=1e-6)
        assert h[0, 1, 2] == pytest.approx(0.0, abs=1e-6)
        _, h2 = mean_curvature(h)
        assert h2 == pytest.approx(1.69, abs=1e-6)

    def test_kahler_pullback_vanishes(self):
        chart = graph_chart()
        rng = np.random.default_rng(4)
        worst = max(lagrangian_residual(chart, rng.uniform(-0.5, 0.5, 5))
                    for _ in range(10))
        assert worst < 1e-8

    def test_extraction_symmetry_reported(self):
        res = induced_data(graph_chart(), 0.1 * np.ones(5))
        assert res.symmetry_deviation < 1e-5

    def test_step_halving_stability(self):
        chart = graph_chart()
        x = 0.07 * np.ones(5)
        coarse = induced_data(chart, x).data.h
        chart.step = chart.step / 2
        fine = induced_data(chart, x).data.h
        # analytic-gradient path: both are near exact; agree far below the
        # documented 1e-6 truncation estimate
        assert np.abs(coarse - fine).max() < 1e-5

    def test_gauss_path_consistency(self):
        chart = graph_chart()
        for x in (0.05 * np.ones(5), np.array([0.1, -0.05, 0.02, 0.0, 0.08])):
            data = induced_data(chart, x).data
            Rg = gauss_curvature(data)
            Ri = intrinsic_curvature_fd(chart, x)
            assert np.abs(Rg.components - Ri.components).max() < 1e-4

    def test_domain_margin_enforced(self):
        chart = graph_chart()
        with pytest.raises(ChartDomainError):
            induced_data(chart, np.array([1.0, 0, 0, 0, 0]))


class TestCliffordLegendrian:
    def test_m2_exact_horizontality(self):
        chart = clifford_legendrian(2)
        for u in ([0.0], [0.4], [-1.1]):
            assert horizontality_residual(chart, np.array(u)) < 1e-14

    def test_m3_horizontality_sampled(self):
        chart = clifford_legendrian(3)
        rng = np.random.default_rng(1)
        worst = max(horizontality_residual(chart, rng.uniform(-2, 2, 2))
                    for _ in range(100))
        assert worst < 1e-10

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_minimality(self, m):
        chart = clifford_legendrian(m)
        rng = np.random.default_rng(m)
        pts = rng.uniform(-1, 1, size=(5, m - 1))
        assert legendrian_minimality_residual(chart, pts) < 1e-6

    def test_m1_rejected(self):
        with pytest.raises(ValueError):
            clifford_legendrian(1)


class TestHorizontalExtraction:
    def test_great_sphere_is_totally_geodesic(self):
        # real unit sphere inside the real span: a Legendrian great sphere
        def evaluator(u):
            r = np.sqrt(1.0 - np.sum(u * u, axis=-1, keepdims=True))
            return np.concatenate([r, u], axis=-1).astype(complex)

        chart = ImmersionChart(2, "sphere", evaluator,
                               np.array([[-0.4, 0.4]] * 2), step=1e-4)
        res = induced_data(chart, np.array([0.1, -0.2]))
        assert np.abs(res.data.h).max() < 1e-6
        tau = tau_from_cubic(res.data)
        assert tau == pytest.approx(1.0, abs=1e-6)  # n(n-1)/2 at n=2

    def test_rejects_nonhorizontal(self):
        def evaluator(u):
            # a circle with a vertical (fiber) component
            z = np.exp(1j * u)
            return np.concatenate([z, 0 * z, 0 * z], axis=-1)

        chart = ImmersionChart(1, "sphere", evaluator,
                               np.array([[-1.0, 1.0]]), step=1e-4)
        with pytest.raises(HorizontalityError):
            induced_data(chart, np.array([0.2]))

    def test_exotic_horizontal_cross_path(self):
        chart = exotic_s3_horizontal_chart()
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.uniform(-0.3, 0.3, 3)
            res = induced_data(chart, u)
            assert tau_from_cubic(res.data) == pytest.approx(1 / 3, abs=1e-4)
            _, h2 = mean_curvature(res.data.h)
            assert h2 < 1e-8
            delta = oracle_delta_dim3(gauss_curvature(res.data))
            assert delta == pytest.approx(2.0, abs=1e-4)


class TestExtractionCost:
    @staticmethod
    def counted(chart):
        calls = []
        evaluator = chart.evaluator

        def wrapped(x):
            calls.append(1)
            return evaluator(x)

        chart.evaluator = wrapped
        return calls

    def test_horizontal_chart_differentiated_once(self):
        # one call each for the point, the Jacobian stencil and the Hessian
        # stencil, and one for the point alone (the stacking check)
        chart = exotic_s3_horizontal_chart()
        calls = self.counted(chart)
        res = induced_data(chart, np.array([0.1, -0.05, 0.2]))
        assert len(calls) == 4
        assert res.data.c == 1.0 and res.horizontality_residual < 1e-6

    def test_flat_chart_call_count(self):
        # the Hessian and Jacobian stencils, and the point on a stack and
        # alone for the stacking check
        chart = graph_chart()
        calls = self.counted(chart)
        res = induced_data(chart, 0.1 * np.ones(5))
        assert len(calls) == 4
        assert res.data.c == 0.0 and res.horizontality_residual is None


class TestFlatFamily:
    def test_domain_errors_name_constraint(self):
        chart = flat_equality_chart(3, 1.0, clifford_legendrian(3))
        with pytest.raises(ChartDomainError, match="lambda must be positive"):
            chart.evaluator(np.array([-0.5, 0.0, 0.0]))
        with pytest.raises(ChartDomainError,
                           match="inverse-cosecant|modulus"):
            chart.evaluator(np.array([10.0, 0.0, 0.0]))

    def test_lagrangian_and_equality(self):
        chart = flat_equality_chart(3, 1.0, clifford_legendrian(3))
        rng = np.random.default_rng(11)
        lo, hi = chart.domain[:, 0], chart.domain[:, 1]
        for _ in range(12):
            x = rng.uniform(lo + 0.05, hi - 0.05)
            assert lagrangian_residual(chart, x) < 1e-8
            data = induced_data(chart, x).data
            _, h2 = mean_curvature(data.h)
            assert h2 > 1e-6
            delta = oracle_delta_dim3(gauss_curvature(data))
            assert abs(1.5 * h2 - delta) < 1e-4

    def test_scalar_tau_is_finite_sanity(self):
        chart = flat_equality_chart(3, 2.0, clifford_legendrian(3))
        x = np.array([0.5 * chart.domain[0].sum(), 0.2, -0.1])
        data = induced_data(chart, x).data
        assert np.isfinite(scalar_tau(gauss_curvature(data)))
