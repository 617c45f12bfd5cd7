import numpy as np
import pytest

from lagdelta.exceptions import DegeneratePlane, NotPositiveDefinite
from lagdelta.frames import (CurvatureTensor, bianchi_deviation,
                             constant_curvature, gram_schmidt,
                             pair_curvature_operator, riemann_symmetry_deviation,
                             rotate_tensor, scalar_tau, sectional_curvature,
                             tau_subspace)
from lagdelta.cubic import (LagrangianPointData, gauss_curvature,
                            random_cubic_form, validate_cubic)

LAM = 2.0 / np.sqrt(3.0)


def berger_sphere_data():
    """Cubic data of the minimal Berger-sphere point (c = 1, n = 3)."""
    h = validate_cubic([(1, 1, 1, LAM), (1, 2, 2, -LAM)], 3)
    return LagrangianPointData(3, 1.0, h)


def berger_sphere_tensor():
    return gauss_curvature(berger_sphere_data())


def random_tensor(n, rng):
    return gauss_curvature(
        LagrangianPointData(n, 0.0, random_cubic_form(n, rng)))


class TestGramSchmidt:
    def test_identity_is_fixed(self):
        frame = gram_schmidt(np.eye(3))
        np.testing.assert_allclose(frame, np.eye(3))

    def test_diagonal_scalings(self):
        frame = gram_schmidt(np.diag([3.0, 3.0, 9.0]))
        np.testing.assert_allclose(
            frame, np.diag([1 / np.sqrt(3), 1 / np.sqrt(3), 1 / 3]),
            atol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 5))
        G = A @ A.T + 5.0 * np.eye(5)
        frame = gram_schmidt(G)
        resid = np.abs(frame.T @ G @ frame - np.eye(5)).max()
        assert resid < 1e-10

    def test_rejects_indefinite_with_minor_index(self):
        G = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            gram_schmidt(G)
        assert exc.value.minor == 2

    def test_rejects_asymmetric(self):
        G = np.eye(3)
        G[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            gram_schmidt(G)


class TestSectionalCurvature:
    def test_space_form(self):
        R = constant_curvature(4, 1.0)
        u = np.array([1.0, 0, 0, 0])
        v = np.array([0, 1.0, 1.0, 0]) / np.sqrt(2)
        assert sectional_curvature(R, u, v) == pytest.approx(1.0)

    def test_berger_plane(self):
        R = berger_sphere_tensor()
        e1 = np.array([1.0, 0, 0])
        e2 = np.array([0, 1.0, 0])
        assert sectional_curvature(R, e1, e2) == pytest.approx(-5.0 / 3.0)
        e3 = np.array([0, 0, 1.0])
        assert sectional_curvature(R, e1, e3) == pytest.approx(1.0)
        assert sectional_curvature(R, e2, e3) == pytest.approx(1.0)

    def test_scale_and_basis_invariance(self):
        rng = np.random.default_rng(3)
        R = random_tensor(4, rng)
        u, v = rng.standard_normal((2, 4))
        k = sectional_curvature(R, u, v)
        assert sectional_curvature(R, 2 * u, v) == pytest.approx(k)
        for _ in range(5):
            A = rng.standard_normal((2, 2))
            while abs(np.linalg.det(A)) < 0.1:
                A = rng.standard_normal((2, 2))
            u2 = A[0, 0] * u + A[0, 1] * v
            v2 = A[1, 0] * u + A[1, 1] * v
            assert sectional_curvature(R, u2, v2) == pytest.approx(k, abs=1e-10)

    def test_degenerate_plane_rejected(self):
        R = constant_curvature(3, 1.0)
        u = np.array([1.0, 0, 0])
        with pytest.raises(DegeneratePlane):
            sectional_curvature(R, u, 2.0 * u)


class TestScalarTau:
    def test_space_form(self):
        for n, c in [(3, 1.0), (4, -0.5), (6, 2.0)]:
            R = constant_curvature(n, c)
            assert scalar_tau(R) == pytest.approx(n * (n - 1) * c / 2)

    def test_berger_sphere_value(self):
        assert scalar_tau(berger_sphere_tensor()) == pytest.approx(1.0 / 3.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        R = random_tensor(5, rng)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        assert scalar_tau(rotate_tensor(R, Q)) == pytest.approx(
            scalar_tau(R), abs=1e-10)

    def test_half_ricci_trace(self):
        rng = np.random.default_rng(12)
        R = random_tensor(4, rng)
        ricci_trace = np.einsum("baab->", R.components)
        assert scalar_tau(R) == pytest.approx(0.5 * ricci_trace)


class TestTauSubspace:
    def test_two_plane_matches_sectional(self):
        rng = np.random.default_rng(5)
        R = random_tensor(5, rng)
        B = np.eye(5)[[1, 3]]
        assert tau_subspace(R, B) == pytest.approx(
            sectional_curvature(R, B[0], B[1]))

    def test_full_frame_is_tau(self):
        rng = np.random.default_rng(6)
        R = random_tensor(4, rng)
        assert tau_subspace(R, np.eye(4)) == pytest.approx(scalar_tau(R))

    def test_space_form_closed_form(self):
        R = constant_curvature(6, 0.7)
        B = np.eye(6)[:3]
        assert tau_subspace(R, B) == pytest.approx(3 * 2 * 0.7 / 2)

    def test_in_span_rotation_invariance(self):
        rng = np.random.default_rng(8)
        R = random_tensor(5, rng)
        B, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        B = B.T
        val = tau_subspace(R, B)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert tau_subspace(R, Q @ B) == pytest.approx(val, abs=1e-10)

    def test_non_orthonormal_rejected(self):
        R = constant_curvature(4, 1.0)
        B = np.eye(4)[:2].copy()
        B[0, 1] = 0.3
        with pytest.raises(ValueError, match="Gram deviation"):
            tau_subspace(R, B)


class TestRotateTensor:
    def test_identity(self):
        R = berger_sphere_tensor()
        np.testing.assert_allclose(
            rotate_tensor(R, np.eye(3)).components, R.components)

    def test_space_form_isotropy(self):
        R = constant_curvature(4, -1.0)
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(rotate_tensor(R, Q).components,
                                   R.components, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        R = random_tensor(4, rng)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        back = rotate_tensor(rotate_tensor(R, Q), Q.T)
        assert np.abs(back.components - R.components).max() < 1e-12


class TestInvariants:
    def test_constructed_tensors_satisfy_symmetries(self):
        rng = np.random.default_rng(9)
        for n in (3, 4, 5):
            for _ in range(10):
                comp = random_tensor(n, rng).components
                assert riemann_symmetry_deviation(comp) < 1e-12
                assert bianchi_deviation(comp) < 1e-12

    def test_constructor_rejects_bad_symmetry(self):
        comp = np.zeros((3, 3, 3, 3))
        comp[0, 1, 1, 0] = 1.0  # missing the antisymmetric partners
        with pytest.raises(ValueError, match="symmetries"):
            CurvatureTensor(3, comp)

    def test_pair_operator_diagonal_is_sectional(self):
        rng = np.random.default_rng(10)
        R = random_tensor(4, rng)
        M = pair_curvature_operator(R.components)
        np.testing.assert_allclose(M, M.T, atol=1e-13)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        eye = np.eye(4)
        for p, (i, j) in enumerate(pairs):
            assert M[p, p] == pytest.approx(
                sectional_curvature(R, eye[i], eye[j]))
