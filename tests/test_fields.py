import numpy as np
import pytest

from lagdelta.cubic import gauss_curvature, mean_curvature, tau_from_cubic
from lagdelta.delta import oracle_delta_dim3
from lagdelta.fields import CubicField, compatibility_report, exotic_s3_field

BOX = np.array([[-1.0, 1.0]] * 3)


def constant_flat_field(alpha):
    return CubicField(3, 0.0, BOX,
                      lambda u: (np.eye(3), alpha.copy()),
                      lambda u: np.zeros((3, 3, 3)),
                      name="flat-const")


def complex_multiplication_alpha():
    # multiplication table of C acting on span(X1, X2): a parallel cubic
    # form on flat space (quadratic curvature terms cancel exactly)
    alpha = np.zeros((3, 3, 3))
    alpha[0, 0, 0] = 1.0
    alpha[1, 0, 1] = alpha[1, 1, 0] = 1.0
    alpha[0, 1, 1] = 1.0
    return alpha


class TestCompatibility:
    def test_parallel_flat_field(self):
        fld = constant_flat_field(complex_multiplication_alpha())
        rep = compatibility_report(fld, samples=5, seed=0)
        assert rep.max_deviation() < 1e-8

    def test_exotic_field(self):
        rep = compatibility_report(exotic_s3_field(), samples=8, seed=1)
        assert rep.max_deviation() < 1e-6

    def test_asymmetric_perturbation_detected(self):
        alpha = complex_multiplication_alpha()
        alpha[0, 0, 1] += 1e-3  # breaks cubic symmetry, keeps bilinear shape
        alpha[0, 1, 0] += 1e-3
        fld = constant_flat_field(alpha)
        rep = compatibility_report(fld, samples=3, seed=0)
        assert rep.cubic_symmetry >= 5e-4


class TestExoticField:
    def test_point_values(self):
        fld = exotic_s3_field()
        data = fld.lagrangian_data(np.array([1.0, 0.0, 0.0, 0.0]))
        lam = 2 / np.sqrt(3)
        assert data.h[0, 0, 0] == pytest.approx(lam)
        assert data.h[0, 1, 1] == pytest.approx(-lam)
        assert tau_from_cubic(data) == pytest.approx(1 / 3)
        _, h2 = mean_curvature(data.h)
        assert h2 == 0.0
        assert oracle_delta_dim3(gauss_curvature(data)) == pytest.approx(2.0)

    def test_constant_over_the_sphere(self):
        fld = exotic_s3_field()
        for y in fld.sample_points(25, seed=9):
            data = fld.lagrangian_data(y)
            assert tau_from_cubic(data) == pytest.approx(1 / 3, abs=1e-8)

    def test_off_sphere_rejected(self):
        fld = exotic_s3_field()
        with pytest.raises(ValueError, match="unit sphere"):
            fld.frame_data(np.array([1.0, 0.1, 0.0, 0.0]))

    def test_metric_frame_scalings(self):
        fld = exotic_s3_field()
        frame, _ = fld.point_data(np.array([0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            frame, np.diag([1 / np.sqrt(3), 1 / np.sqrt(3), 1 / 3]),
            atol=1e-14)
