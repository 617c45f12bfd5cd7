import numpy as np
import pytest

from lagdelta.cubic import gauss_curvature, mean_curvature, tau_from_cubic
from lagdelta.delta import oracle_delta_dim3
from lagdelta.fields import CubicField, compatibility_report, exotic_s3_field


def constant_flat_field(alpha):
    return CubicField(3, 0.0, np.eye(3), alpha, np.zeros((3, 3, 3)),
                      name="flat-const")


def complex_multiplication_alpha():
    # multiplication table of C acting on span(X1, X2): a parallel cubic
    # form on flat space (quadratic curvature terms cancel exactly)
    alpha = np.zeros((3, 3, 3))
    alpha[0, 0, 0] = 1.0
    alpha[1, 0, 1] = alpha[1, 1, 0] = 1.0
    alpha[0, 1, 1] = 1.0
    return alpha


class TestCubicField:
    @pytest.mark.parametrize("attr, shape", [("G", (3, 3, 3)),
                                             ("alpha", (3, 3)),
                                             ("brackets", (4, 4, 4))])
    def test_wrong_shape_rejected(self, attr, shape):
        arrays = {"G": np.eye(3), "alpha": complex_multiplication_alpha(),
                  "brackets": np.zeros((3, 3, 3)), attr: np.zeros(shape)}
        with pytest.raises(ValueError, match=f"{attr} must be a finite array"):
            CubicField(3, 0.0, **arrays)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        alpha = complex_multiplication_alpha()
        alpha[2, 2, 2] = bad
        with pytest.raises(ValueError, match="alpha must be a finite array"):
            constant_flat_field(alpha)

    def test_arrays_are_read_only_copies(self):
        alpha = complex_multiplication_alpha()
        fld = constant_flat_field(alpha)
        alpha[0, 0, 0] = 5.0
        assert fld.alpha[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            fld.alpha[0, 0, 0] = 5.0


class TestCompatibility:
    def test_parallel_flat_field(self):
        fld = constant_flat_field(complex_multiplication_alpha())
        rep = compatibility_report(fld)
        assert rep.max_deviation() < 1e-8

    def test_exotic_field(self):
        rep = compatibility_report(exotic_s3_field())
        assert rep.max_deviation() < 1e-6

    def test_asymmetric_perturbation_detected(self):
        alpha = complex_multiplication_alpha()
        alpha[0, 0, 1] += 1e-3  # breaks cubic symmetry, keeps bilinear shape
        alpha[0, 1, 0] += 1e-3
        fld = constant_flat_field(alpha)
        rep = compatibility_report(fld)
        assert rep.cubic_symmetry >= 5e-4


class TestExoticField:
    def test_point_values(self):
        fld = exotic_s3_field()
        data = fld.lagrangian_data()
        lam = 2 / np.sqrt(3)
        assert data.h[0, 0, 0] == pytest.approx(lam)
        assert data.h[0, 1, 1] == pytest.approx(-lam)
        assert tau_from_cubic(data) == pytest.approx(1 / 3)
        _, h2 = mean_curvature(data.h)
        assert h2 == 0.0
        assert oracle_delta_dim3(gauss_curvature(data)) == pytest.approx(2.0)

    def test_metric_frame_scalings(self):
        fld = exotic_s3_field()
        frame, _ = fld.point_data()
        np.testing.assert_allclose(
            frame, np.diag([1 / np.sqrt(3), 1 / np.sqrt(3), 1 / 3]),
            atol=1e-14)
