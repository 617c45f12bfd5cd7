import itertools

import numpy as np
import pytest

from lagdelta.cubic import LagrangianPointData, gauss_curvature, random_cubic_form
from lagdelta.delta import (DeltaTuple, OptimizerOptions, SubspaceConfig,
                            config_objective, delta_invariant,
                            delta_invariant_batch, enumerate_tuples,
                            oracle_delta_dim3, oracle_delta_grid)
from lagdelta.delta import (MAX_GRID_RESOLUTION, _GRID_AXES, _PairSet,
                            _frame_from_angles, _random_orthogonal,
                            _second_compound, _within_block_pairs)
from lagdelta.exceptions import Inadmissible
from lagdelta.frames import (constant_curvature, pair_basis,
                             pair_curvature_operator, rotate_tensor,
                             scalar_tau)

from test_frames import berger_sphere_tensor, random_tensor
from test_cubic import graph_equality_form

FAST = OptimizerOptions(restarts=8, seed=0)


class TestEnumerateTuples:
    def test_n3(self):
        assert [t.parts for t in enumerate_tuples(3)] == [(2,)]

    def test_n4(self):
        assert [t.parts for t in enumerate_tuples(4)] == [(2,), (3,), (2, 2)]

    def test_n5(self):
        tuples = [t.parts for t in enumerate_tuples(5)]
        assert tuples == [(2,), (3,), (4,), (2, 2), (2, 3)]
        assert len(tuples) == 5

    def test_small_n_rejected(self):
        with pytest.raises(Inadmissible):
            enumerate_tuples(2)

    def test_derived_quantities(self):
        t = DeltaTuple(7, (2, 3))
        assert t.k == 2 and t.N == 5
        assert t.A == pytest.approx(1 / 4 + 1 / 5)
        assert t.blocks() == ((0, 1), (2, 3, 4))

    def test_invalid_parts(self):
        with pytest.raises(Inadmissible):
            DeltaTuple(4, (4,))
        with pytest.raises(Inadmissible):
            DeltaTuple(4, (1, 2))
        with pytest.raises(Inadmissible):
            DeltaTuple(4, (2, 3))


class TestConfigObjective:
    def test_space_form_config_independent(self):
        R = constant_curvature(5, 0.5)
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        cfg = SubspaceConfig(Q, ((0, 1), (2, 3)))
        expected = 2 * (2 * 1 * 0.5 / 2)
        assert config_objective(R, cfg) == pytest.approx(expected)

    def test_berger_planes(self):
        R = berger_sphere_tensor()
        cfg12 = SubspaceConfig(np.eye(3), ((0, 1),))
        assert config_objective(R, cfg12) == pytest.approx(-5 / 3)
        cfg13 = SubspaceConfig(np.eye(3), ((0, 2),))
        assert config_objective(R, cfg13) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        R = constant_curvature(4, 1.0)
        cfg = SubspaceConfig(np.eye(3), ((0, 1),))
        with pytest.raises(ValueError, match="dimension"):
            config_objective(R, cfg)


class TestDeltaInvariant:
    def test_space_form_closed_form(self):
        c = 0.7
        R = constant_curvature(5, c)
        for parts in [(2,), (2, 2), (2, 3)]:
            tup = DeltaTuple(5, parts)
            val, cfg, diag = delta_invariant(R, tup, FAST)
            expected = (5 * 4 - sum(p * (p - 1) for p in parts)) * c / 2
            assert val == pytest.approx(expected, abs=1e-9)
            assert not diag.unconverged

    def test_berger_delta2(self):
        R = berger_sphere_tensor()
        val, cfg, diag = delta_invariant(R, DeltaTuple(3, (2,)), FAST)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_graph_equality_delta(self):
        R = gauss_curvature(LagrangianPointData(5, 0.0, graph_equality_form()))
        val, cfg, diag = delta_invariant(R, DeltaTuple(5, (2,)), FAST)
        assert val == pytest.approx(11.375, abs=1e-8)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        R = random_tensor(4, rng)
        tup = DeltaTuple(4, (2,))
        base, _, _ = delta_invariant(R, tup, FAST)
        for seed in range(3):
            Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            rot, _, _ = delta_invariant(rotate_tensor(R, Q), tup, FAST)
            assert rot == pytest.approx(base, abs=2e-6)

    def test_determinism(self):
        rng = np.random.default_rng(17)
        R = random_tensor(4, rng)
        tup = DeltaTuple(4, (2, 2))
        v1, c1, _ = delta_invariant(R, tup, FAST)
        v2, c2, _ = delta_invariant(R, tup, FAST)
        assert v1 == v2
        np.testing.assert_array_equal(c1.frame, c2.frame)

    def test_argmin_config_achieves_value(self):
        rng = np.random.default_rng(5)
        R = random_tensor(5, rng)
        tup = DeltaTuple(5, (2, 3))
        val, cfg, _ = delta_invariant(R, tup, FAST)
        assert scalar_tau(R) - config_objective(R, cfg) == pytest.approx(
            val, abs=1e-10)

    def test_full_tuple_n_equals_N(self):
        # N = n is allowed; only the improved inequalities exclude it
        rng = np.random.default_rng(6)
        R = random_tensor(4, rng)
        val, cfg, _ = delta_invariant(R, DeltaTuple(4, (2, 2)), FAST)
        assert np.isfinite(val)


class TestOracleDim3:
    def test_space_form(self):
        R = constant_curvature(3, 1.0)
        assert oracle_delta_dim3(R) == pytest.approx(2.0)

    def test_berger(self):
        assert oracle_delta_dim3(berger_sphere_tensor()) == pytest.approx(2.0)

    def test_wrong_dimension(self):
        with pytest.raises(Inadmissible):
            oracle_delta_dim3(constant_curvature(4, 1.0))

    def test_optimizer_agreement_sample(self):
        rng = np.random.default_rng(77)
        tup = DeltaTuple(3, (2,))
        for _ in range(20):
            R = random_tensor(3, rng)
            val, _, _ = delta_invariant(R, tup, FAST)
            assert val == pytest.approx(oracle_delta_dim3(R), abs=1e-6)


class TestOracleGrid:
    def test_space_form_any_resolution(self):
        R = constant_curvature(4, 1.0)
        tup = DeltaTuple(4, (2,))
        assert oracle_delta_grid(R, tup, 8) == pytest.approx(5.0, abs=1e-8)

    def test_berger_resolution_60(self):
        R = berger_sphere_tensor()
        val = oracle_delta_grid(R, DeltaTuple(3, (2,)), 60, polish=False)
        assert val == pytest.approx(2.0, abs=1e-3)

    def test_n4_sandwich(self):
        rng = np.random.default_rng(13)
        tup_names = [(2,), (3,), (2, 2)]
        for _ in range(3):
            R = random_tensor(4, rng)
            for parts in tup_names:
                tup = DeltaTuple(4, parts)
                opt_val, _, _ = delta_invariant(R, tup, FAST)
                grid_val = oracle_delta_grid(R, tup, 24)
                assert grid_val >= opt_val - 1e-3
                assert grid_val <= opt_val + 5e-3

    def test_resolution_below_one_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            oracle_delta_grid(constant_curvature(4, 1.0),
                              DeltaTuple(4, (2,)), 0)

    def test_resolution_above_cap_rejected(self):
        with pytest.raises(ValueError, match=str(MAX_GRID_RESOLUTION)):
            oracle_delta_grid(constant_curvature(4, 1.0),
                              DeltaTuple(4, (2,)), MAX_GRID_RESOLUTION + 1)

    @pytest.mark.parametrize("n,parts", sorted(_GRID_AXES))
    def test_polish_never_lowers_delta(self, n, parts):
        rng = np.random.default_rng([n, 11, *parts])
        tup = DeltaTuple(n, parts)
        for _ in range(3):
            R = random_tensor(n, rng)
            for resolution in (3, 8):
                assert (oracle_delta_grid(R, tup, resolution)
                        >= oracle_delta_grid(R, tup, resolution, polish=False))

    def test_large_n_rejected(self):
        with pytest.raises(Inadmissible):
            oracle_delta_grid(constant_curvature(5, 1.0),
                              DeltaTuple(5, (2,)), 10)


class TestBatch:
    def test_batch_matches_single(self):
        from lagdelta.frames import CurvatureTensor
        rng = np.random.default_rng(3)
        comps = np.stack([random_tensor(4, rng).components for _ in range(5)])
        tup = DeltaTuple(4, (2,))
        vals, frames, diags = delta_invariant_batch(comps, tup, FAST)
        for s in range(5):
            single, _, _ = delta_invariant(
                CurvatureTensor(4, comps[s]), tup, FAST)
            assert vals[s] == pytest.approx(single, abs=1e-8)


def _cayley(X):
    eye = np.eye(X.shape[-1])
    return np.linalg.solve(eye - 0.5 * X, eye + 0.5 * X)


class TestPairSetContractions:
    """The optimizer's contractions against independent references."""

    CASES = [(4, (2,)), (4, (2, 2)), (5, (2, 3)), (6, (4,)), (7, (2, 2, 3)),
             (8, (3, 5)), (9, (2,)), (9, (2, 3, 4))]

    @pytest.mark.parametrize("n,parts", CASES)
    def test_objective_equals_config_objective(self, n, parts):
        rng = np.random.default_rng([n, len(parts)])
        tensors = [random_tensor(n, rng) for _ in range(3)]
        Q = _random_orthogonal(rng, (3,), n)
        ps = _PairSet(n, _within_block_pairs(parts))
        blocks = DeltaTuple(n, parts).blocks()
        ref = [config_objective(R, SubspaceConfig(Q[s], blocks))
               for s, R in enumerate(tensors)]
        M = pair_curvature_operator(np.stack([R.components for R in tensors]))
        np.testing.assert_allclose(ps.objective(Q, M), ref,
                                   rtol=1e-12, atol=1e-12)
        # one shared (p, p) operator for the whole batch
        shared = [config_objective(tensors[0], SubspaceConfig(q, blocks))
                  for q in Q]
        np.testing.assert_allclose(ps.objective(Q, M[0]), shared,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n,parts", CASES)
    def test_gradient_matches_finite_difference(self, n, parts):
        rng = np.random.default_rng([n, 7, len(parts)])
        B = 3
        M = pair_curvature_operator(np.stack(
            [random_tensor(n, rng).components for _ in range(B)]))
        Q = _random_orthogonal(rng, (B,), n)
        ps = _PairSet(n, _within_block_pairs(parts))
        f, G = ps.objective_grad(Q, M)
        np.testing.assert_allclose(f, ps.objective(Q, M), rtol=1e-13)
        QtG = np.swapaxes(Q, -1, -2) @ G
        A = 0.5 * (QtG - np.swapaxes(QtG, -1, -2))
        X = rng.standard_normal((B, n, n))
        X = X - np.swapaxes(X, -1, -2)
        # d/dt f(Q cayley(tX)) at t = 0 is <Q^T G, X> = <skew(Q^T G), X>
        t = 1e-5
        fd = (ps.objective(Q @ _cayley(t * X), M)
              - ps.objective(Q @ _cayley(-t * X), M)) / (2 * t)
        exact = np.einsum("bij,bij->b", A, X)
        scale = 1.0 + np.abs(f) + np.abs(exact)
        assert np.all(np.abs(fd - exact) <= 1e-6 * scale)


class TestGridFrameProducts:
    """The grid oracle's minimum over the same angle grid, with every frame
    multiplied out one Givens rotation at a time."""

    @pytest.mark.parametrize("n,parts,resolution",
                             [(3, (2,), 9), (4, (2,), 5), (4, (2, 2), 5),
                              (4, (3,), 5)])
    def test_grid_minimum_equals_explicit_products(self, n, parts, resolution):
        R = random_tensor(n, np.random.default_rng([n, resolution, *parts]))
        tup = DeltaTuple(n, parts)
        axes = _GRID_AXES[(n, parts)]
        thetas = np.pi * np.arange(resolution) / resolution
        best = min(
            config_objective(R, SubspaceConfig(
                _frame_from_angles(n, axes, angles), tup.blocks()))
            for angles in itertools.product(thetas, repeat=len(axes)))
        grid = oracle_delta_grid(R, tup, resolution, polish=False)
        expected = scalar_tau(R) - best
        assert grid == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _within_columns(n, parts):
    """Pair-basis columns (a, b) whose frame columns share a block."""
    I, J = pair_basis(n)
    blocks = DeltaTuple(n, parts).blocks()
    return np.array([any(a in b and c in b for b in blocks)
                     for a, c in zip(I, J)])


class TestSecondCompound:
    """The grid oracle's compound-matrix evaluation against references."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_cauchy_binet(self, n):
        rng = np.random.default_rng([n, 21])
        I, J = pair_basis(n)
        A = rng.standard_normal((5, n, n))
        B = rng.standard_normal((5, n, n))
        np.testing.assert_allclose(
            _second_compound(A @ B, I, J),
            _second_compound(A, I, J) @ _second_compound(B, I, J),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n,parts", sorted(_GRID_AXES))
    def test_diagonal_sum_equals_config_objective(self, n, parts):
        rng = np.random.default_rng([n, 22, *parts])
        R = random_tensor(n, rng)
        M = pair_curvature_operator(R.components)
        within = _within_columns(n, parts)
        blocks = DeltaTuple(n, parts).blocks()
        Q = _random_orthogonal(rng, (4,), n)
        C = _second_compound(Q, *pair_basis(n))
        diag = np.diagonal(np.swapaxes(C, -1, -2) @ M @ C, axis1=-2, axis2=-1)
        ref = [config_objective(R, SubspaceConfig(q, blocks)) for q in Q]
        np.testing.assert_allclose(diag[:, within].sum(axis=-1), ref,
                                   rtol=1e-12, atol=1e-12)
