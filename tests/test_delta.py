import itertools
from fractions import Fraction

import numpy as np
import pytest

from lagdelta.cubic import (MAX_N, LagrangianPointData, gauss_components,
                            gauss_curvature, random_cubic_form,
                            validate_cubic)
from lagdelta.delta import (DeltaDiagnostics, DeltaTuple, OptimizerOptions,
                            SubspaceConfig, config_objective, delta_invariant,
                            delta_invariant_batch, enumerate_tuples,
                            oracle_delta_dim3, oracle_delta_grid)
from lagdelta.delta import (MAX_GRID_RESOLUTION, _GRID_AXES, _PairSet,
                            _assignment_minima, _assignment_table,
                            _block_pairs, _descend, _givens, _initial_frames,
                            _minimize_batch, _newton_directions,
                            _random_orthogonal, _wedge)
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

    @pytest.mark.parametrize("n", [5.0, "5"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(Inadmissible, match="integer"):
            enumerate_tuples(n)

    def test_numpy_integer_n_accepted(self):
        tuples = enumerate_tuples(np.int64(5))
        assert tuples == enumerate_tuples(5)
        assert all(type(t.n) is int for t in tuples)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_brute_force(self, n):
        # every multiset of parts in [2, n), as multiplicities per part size
        sizes = range(2, n)
        found = []
        for mult in itertools.product(*(range(n // p + 1) for p in sizes)):
            parts = tuple(p for p, m in zip(sizes, mult) for _ in range(m))
            if parts and sum(parts) <= n:
                found.append(parts)
        found.sort(key=lambda parts: (len(parts), parts))
        assert [t.parts for t in enumerate_tuples(n)] == found

    @pytest.mark.parametrize("n,parts", [(5, (2.7,)), (5, ("3",)),
                                         (5.0, (2,))])
    def test_non_integers_rejected(self, n, parts):
        with pytest.raises(Inadmissible, match="integers"):
            DeltaTuple(n, parts)

    def test_numpy_integers_accepted(self):
        tup = DeltaTuple(np.int64(5), (np.int64(3), np.int64(2)))
        assert tup == DeltaTuple(5, (2, 3))
        assert type(tup.n) is int
        assert all(type(p) is int for p in tup.parts)

    def test_derived_quantities(self):
        t = DeltaTuple(7, (2, 3))
        assert t.k == 2 and t.N == 5
        assert t.A == pytest.approx(1 / 4 + 1 / 5)
        assert t.blocks() == ((0, 1), (2, 3, 4))

    def test_labels_and_hyperplane(self):
        assert DeltaTuple(7, (2, 3)).labels.tolist() == [0, 0, 1, 1, 1, 2, 2]
        assert DeltaTuple(4, (2, 2)).labels.tolist() == [0, 0, 1, 1]
        assert [t.hyperplane for t in enumerate_tuples(5)] == [
            False, False, True, False, False]

    def test_A_is_exact(self):
        # the boundary A = 1/3 exactly, where the improved bound applies
        assert DeltaTuple(9, (4, 4)).A == Fraction(1, 3)

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
        # the descent itself: delta_invariant takes the closed form at n = 3
        rng = np.random.default_rng(77)
        tup = DeltaTuple(3, (2,))
        for _ in range(20):
            R = random_tensor(3, rng)
            inf_vals, _, _ = _minimize_batch(R.components[None], tup, FAST)
            val = scalar_tau(R) - inf_vals[0]
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

    def test_every_n4_tuple_has_grid_axes(self):
        # so `delta --oracle` at n = 4 never meets an unsupported tuple
        for tup in enumerate_tuples(4):
            assert (4, tup.parts) in _GRID_AXES

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

    @pytest.mark.parametrize("n,parts", sorted(_GRID_AXES))
    def test_polished_grid_matches_optimizer(self, n, parts):
        rng = np.random.default_rng([n, 12, *parts])
        tup = DeltaTuple(n, parts)
        for _ in range(3):
            R = random_tensor(n, rng)
            opt_val, _, _ = delta_invariant(R, tup, FAST)
            assert abs(oracle_delta_grid(R, tup, 24) - opt_val) <= 1e-9

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


class TestDispatcher:
    """The hyperplane tuple (n-1) in closed form, every other tuple by the
    optimizer, through one entry point."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_closed_form_matches_descent(self, n):
        rng = np.random.default_rng([n, 41])
        comps = np.stack([random_tensor(n, rng).components for _ in range(4)])
        tup = DeltaTuple(n, (n - 1,))
        vals, frames, diags = delta_invariant_batch(comps, tup, FAST)
        inf_vals, _, _ = _minimize_batch(comps, tup, FAST)
        descent = 0.5 * np.einsum("sabba->s", comps) - inf_vals
        scale = 1.0 + np.abs(vals)
        assert np.all(np.abs(vals - descent) <= 1e-9 * scale)
        assert np.all(vals >= descent - 1e-12 * scale)
        for d in diags:
            assert d.summary() == {
                "restarts": 0, "restarts_converged": 0, "iterations": 0,
                "converged": True, "best_gap": 0.0, "assignment_rounds": 0}

    def test_summary_in_report_order(self):
        d = DeltaDiagnostics(restarts=4, restarts_converged=3, iterations=9,
                             converged=True, best_gap=0.5,
                             assignment_rounds=1)
        assert list(d.summary().items()) == [
            ("restarts", 4), ("restarts_converged", 3), ("iterations", 9),
            ("converged", True), ("best_gap", 0.5), ("assignment_rounds", 1)]

    def test_best_gap_matches_per_sample_loop(self, monkeypatch):
        restarts_f = []

        def recorded(*args):
            out = _descend(*args)
            restarts_f.append(out[1])
            return out

        monkeypatch.setattr("lagdelta.delta._descend", recorded)
        rng = np.random.default_rng(44)
        comps = np.stack([random_tensor(5, rng).components for _ in range(3)]
                         + [constant_curvature(5, 1.0).components])
        _, _, diags = _minimize_batch(comps, DeltaTuple(5, (2,)),
                                      OptimizerOptions(restarts=6,
                                                       max_iters=3))
        for f, d in zip(restarts_f[0].reshape(4, 6), diags):
            vals = np.sort(f)
            distinct = vals[vals > vals[0] + 1e-9 * (1 + abs(vals[0]))]
            gap = float(distinct[0] - vals[0]) if distinct.size else 0.0
            assert d.best_gap == gap
        assert diags[0].best_gap > 0.0 and diags[-1].best_gap == 0.0

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_closed_form_config_achieves_value(self, n):
        R = random_tensor(n, np.random.default_rng([n, 42]))
        val, cfg, _ = delta_invariant(R, DeltaTuple(n, (n - 1,)))
        assert cfg.blocks == (tuple(range(n - 1)),)
        assert scalar_tau(R) - config_objective(R, cfg) == pytest.approx(
            val, abs=1e-10)

    @pytest.mark.parametrize("n,parts", [(4, (2,)), (5, (2, 2)), (6, (3,))])
    def test_single_is_batch_of_one(self, n, parts):
        R = random_tensor(n, np.random.default_rng([n, 43, *parts]))
        tup = DeltaTuple(n, parts)
        val, cfg, diag = delta_invariant(R, tup, FAST)
        vals, frames, diags = delta_invariant_batch(R.components[None], tup,
                                                    FAST)
        assert val == vals[0]
        assert cfg.frame.tobytes() == frames[0].tobytes()
        assert diag == diags[0]


class TestInputContract:
    """Options and batch input are rejected before any work."""

    @pytest.mark.parametrize("field", ["restarts", "max_iters"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_options_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerOptions(**{field: value})

    @pytest.mark.parametrize("shape", [(4, 4, 4, 4), (1, 4, 4, 4, 3),
                                       (1, 1, 4, 4, 4, 4)])
    def test_batch_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            delta_invariant_batch(np.zeros(shape), DeltaTuple(4, (2,)), FAST)

    def test_tuple_dimension_mismatch_rejected(self):
        R = constant_curvature(4, 1.0)
        with pytest.raises(Inadmissible, match="does not match"):
            delta_invariant_batch(R.components[None], DeltaTuple(5, (2,)),
                                  FAST)
        with pytest.raises(Inadmissible, match="does not match"):
            delta_invariant(R, DeltaTuple(5, (2,)), FAST)

    def test_batch_dimension_above_max_rejected(self):
        n = MAX_N + 1
        with pytest.raises(ValueError, match="maximum"):
            delta_invariant_batch(np.zeros((1,) + (n,) * 4),
                                  DeltaTuple(n, (2,)), FAST)

    @pytest.mark.parametrize("restarts", [1, 2])
    def test_batch_non_finite_rejected(self, restarts):
        opts = OptimizerOptions(restarts=restarts)
        with pytest.raises(ValueError, match="finite"):
            delta_invariant_batch(np.full((1, 4, 4, 4, 4), np.nan),
                                  DeltaTuple(4, (2,)), opts)
        comps = np.stack([constant_curvature(4, 1.0).components] * 2)
        comps[1, 0, 1, 1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            delta_invariant_batch(comps, DeltaTuple(4, (2,)), opts)

    def test_batch_huge_components_rejected(self):
        # finite components whose squared gradient norm would overflow
        h = validate_cubic([(1, 1, 2, 1e150), (2, 3, 4, 1.0),
                            (1, 1, 1, 2.0)], 4)
        comps = gauss_components(h, 0.5)[None]
        assert np.isfinite(comps).all()
        with pytest.raises(ValueError, match="magnitude"):
            delta_invariant_batch(comps, DeltaTuple(4, (2,)), FAST)


def _brute_assignments(n, parts):
    """Block index sets from every column permutation, equal-size blocks
    ordered by first column, sorted."""
    found = set()
    for perm in itertools.permutations(range(n)):
        blocks, start = [], 0
        for p in parts:
            blocks.append(tuple(sorted(perm[start:start + p])))
            start += p
        canon = []
        for _, group in itertools.groupby(blocks, key=len):
            canon += sorted(group)
        found.add(tuple(canon))
    return sorted(found)


def _within_block_pairs(parts):
    """Frame-column pairs (a, b), a < b, of each canonical block in turn:
    the hand-built reference for ``_block_pairs``."""
    pairs, start = [], 0
    for p in parts:
        for a in range(start, start + p):
            for b in range(a + 1, start + p):
                pairs.append((a, b))
        start += p
    return pairs


class TestBlockPairs:
    """The within-block pairs, derived from the tuple's labels."""

    def test_matches_hand_built_pairs(self):
        tuples = [t for n in range(3, 13) for t in enumerate_tuples(n)]
        assert len(tuples) == 248
        for tup in tuples:
            I, J = pair_basis(tup.n)
            within = _block_pairs(tup)
            got = list(zip(I[within].tolist(), J[within].tolist()))
            assert got == _within_block_pairs(tup.parts), tup


class TestAssignmentPolish:
    """The assignment table and its gather against brute force."""

    @pytest.mark.parametrize("n,parts", [
        (4, (2,)), (4, (2, 2)), (5, (2, 3)), (6, (2, 2, 2)), (6, (3, 3)),
        (7, (2, 3)), (7, (2, 2, 2)), (7, (3, 3))])
    def test_table_matches_brute_force(self, n, parts):
        orders, table = _assignment_table(DeltaTuple(n, parts))
        ref = _brute_assignments(n, parts)
        pairs = _within_block_pairs(parts)
        assert orders.shape == (len(ref), n)
        assert table.shape == (len(ref), len(pairs))
        bounds = np.cumsum((0,) + parts)
        got = [tuple(tuple(int(c) for c in row[lo:hi])
                     for lo, hi in zip(bounds[:-1], bounds[1:]))
               for row in orders]
        assert got == ref  # same assignments, lexicographic order
        assert got[0] == DeltaTuple(n, parts).blocks()
        I, J = pair_basis(n)
        N = bounds[-1]
        for row, idx in zip(orders.tolist(), table.tolist()):
            assert row[N:] == sorted(set(range(n)) - set(row[:N]))
            assert [(I[k], J[k]) for k in idx] == [(row[a], row[b])
                                                   for a, b in pairs]

    @pytest.mark.parametrize("n,parts", [(4, (2,)), (5, (2, 3)), (6, (2, 2)),
                                         (6, (3,)), (6, (2, 2, 2))])
    def test_gathered_minimum_is_best_relabeling(self, n, parts):
        rng = np.random.default_rng([n, 31, *parts])
        tensors = [random_tensor(n, rng) for _ in range(2)]
        Q = _random_orthogonal(rng, (2,), n)
        M = pair_curvature_operator(np.stack([R.components for R in tensors]))
        orders, table = _assignment_table(DeltaTuple(n, parts))
        vals, picks = _assignment_minima(Q, M, table)
        blocks = DeltaTuple(n, parts).blocks()
        for s, R in enumerate(tensors):
            brute = min(config_objective(
                R, SubspaceConfig(Q[s][:, list(perm)], blocks))
                for perm in itertools.permutations(range(n)))
            picked = config_objective(
                R, SubspaceConfig(Q[s][:, orders[picks[s]]], blocks))
            assert vals[s] == pytest.approx(brute, rel=1e-12, abs=1e-12)
            assert picked == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_ties_go_to_the_first_assignment(self):
        # constant curvature in the standard frame: every sum is exactly 3
        M = pair_curvature_operator(constant_curvature(6, 1.0).components)
        _, table = _assignment_table(DeltaTuple(6, (2, 2, 2)))
        vals, picks = _assignment_minima(np.eye(6)[None], M[None], table)
        assert vals[0] == 3.0 and picks[0] == 0

    def test_largest_table_reproduces_value(self):
        # (2,2,3,4) and (2,2,3,3) at n = 12 have the most assignments
        tup = DeltaTuple(12, (2, 2, 3, 4))
        assert len(_assignment_table(tup)[0]) == 415_800
        R = random_tensor(12, np.random.default_rng([12, 2, 2, 3, 4]))
        val, cfg, diag = delta_invariant(
            R, tup, OptimizerOptions(restarts=1, max_iters=2))
        assert diag.assignment_rounds >= 1  # the polish relabeled the frame
        assert scalar_tau(R) - config_objective(R, cfg) == pytest.approx(
            val, abs=1e-10)


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
        ps = _PairSet(DeltaTuple(n, parts))
        blocks = DeltaTuple(n, parts).blocks()
        ref = [config_objective(R, SubspaceConfig(Q[s], blocks))
               for s, R in enumerate(tensors)]
        M = pair_curvature_operator(np.stack([R.components for R in tensors]))
        f, Mw = ps.evaluate(Q, M)
        np.testing.assert_allclose(f, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(Mw, M @ _wedge(Q, ps.I, ps.J, ps.a,
                                                     ps.b))
        # one shared (p, p) operator for the whole batch
        shared = [config_objective(tensors[0], SubspaceConfig(q, blocks))
                  for q in Q]
        np.testing.assert_allclose(ps.evaluate(Q, M[0])[0], shared,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n,parts", CASES)
    def test_gradient_matches_finite_difference(self, n, parts):
        rng = np.random.default_rng([n, 7, len(parts)])
        B = 3
        M = pair_curvature_operator(np.stack(
            [random_tensor(n, rng).components for _ in range(B)]))
        Q = _random_orthogonal(rng, (B,), n)
        ps = _PairSet(DeltaTuple(n, parts))
        f, Mw = ps.evaluate(Q, M)
        G = ps.gradient(Q, Mw)
        t = 1e-5
        # the Euclidean gradient: central differences along any direction
        E = rng.standard_normal((B, n, n))
        fd = (ps.evaluate(Q + t * E, M)[0]
              - ps.evaluate(Q - t * E, M)[0]) / (2 * t)
        exact = np.einsum("bij,bij->b", G, E)
        assert np.all(np.abs(fd - exact) <= 1e-6 * (1.0 + np.abs(exact)))
        # the Riemannian one on SO(n):
        # d/dt f(Q cayley(tX)) at t = 0 is <Q^T G, X> = <skew(Q^T G), X>
        QtG = np.swapaxes(Q, -1, -2) @ G
        A = 0.5 * (QtG - np.swapaxes(QtG, -1, -2))
        X = rng.standard_normal((B, n, n))
        X = X - np.swapaxes(X, -1, -2)
        fd = (ps.evaluate(Q @ _cayley(t * X), M)[0]
              - ps.evaluate(Q @ _cayley(-t * X), M)[0]) / (2 * t)
        exact = np.einsum("bij,bij->b", A, X)
        scale = 1.0 + np.abs(f) + np.abs(exact)
        assert np.all(np.abs(fd - exact) <= 1e-6 * scale)


def _descent_inputs(n, parts, restarts, seed=0):
    rng = np.random.default_rng([n, restarts, seed])
    M = pair_curvature_operator(random_tensor(n, rng).components)
    return (_random_orthogonal(rng, (restarts,), n), M,
            _PairSet(DeltaTuple(n, parts)))


class TestDescent:
    """``_descend`` does no work twice and shares one sample's operator."""

    @pytest.mark.parametrize("max_iters", [1, 2, 40])
    def test_one_evaluation_per_trial_round(self, monkeypatch, max_iters):
        Q0, M, ps = _descent_inputs(5, (2, 3), 12)
        evaluated, solved, hessian_frames, stencil = [], [], [], []
        in_hessian = [False]
        evaluate, solve, hessian = ps.evaluate, np.linalg.solve, ps.hessian

        def counted_evaluate(Q, M):
            # the Hessian's stencil frames, (B, 2d, n, n), are counted apart
            if in_hessian[0]:
                stencil.append(Q.shape[0] * Q.shape[1])
            else:
                evaluated.append(len(Q))
            return evaluate(Q, M)

        def counted_solve(a, b):
            solved.append(len(a))
            return solve(a, b)

        def counted_hessian(Q, M):
            hessian_frames.append(len(Q))
            in_hessian[0] = True
            try:
                return hessian(Q, M)
            finally:
                in_hessian[0] = False

        monkeypatch.setattr(ps, "evaluate", counted_evaluate)
        monkeypatch.setattr(ps, "hessian", counted_hessian)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        Q, f, _, _ = _descend(Q0, M, ps, OptimizerOptions(max_iters=max_iters))
        # the start frames once, then each line-search round's trial frames
        # once: an accepted frame's objective and M w are never recomputed
        assert solved
        assert evaluated == [len(Q0)] + solved
        np.testing.assert_array_equal(f, evaluate(Q, M)[0])
        # a Hessian evaluates its 2d stencil frames per frame, nothing else
        assert sum(stencil) == 2 * len(ps.hi) * sum(hessian_frames)
        if max_iters == 40:
            assert hessian_frames  # the tail tried Newton steps

    @pytest.mark.parametrize("n,parts,restarts", [
        (3, (2,), 6), (5, (2,), 6), (6, (2, 2), 8), (9, (4, 4), 4)])
    def test_shared_operator_is_bit_equal_to_copies(self, n, parts,
                                                    restarts):
        Q0, M, ps = _descent_inputs(n, parts, restarts)
        opts = OptimizerOptions(max_iters=300)
        shared = _descend(Q0, M, ps, opts)
        copies = _descend(Q0, np.repeat(M[None], restarts, axis=0), ps, opts)
        for a, b in zip(shared, copies):
            np.testing.assert_array_equal(a, b)


class TestNewtonTail:
    """The descent's Newton steps: a sound Hessian, never a worse f, the
    same minimum per restart as steepest descent alone, cut steps, and
    Hessian chunks within their memory bounds."""

    CASES = [(4, (2,)), (4, (2, 2)), (5, (2, 3)), (5, (3,)), (6, (2, 2)),
             (6, (4,)), (7, (2, 3)), (7, (2, 2, 2)), (8, (3, 4)), (8, (2,)),
             (9, (3, 5)), (9, (2, 2, 2))]

    @pytest.mark.parametrize("n,parts", [(4, (2,)), (5, (2, 3)),
                                         (7, (2, 2, 2)), (9, (3, 5))])
    def test_hessian_matches_second_differences(self, n, parts):
        # second differences of f(Q cayley(s E_k + t E_l)) at s = t = 0;
        # the Cayley map agrees with exp to second order
        rng = np.random.default_rng([n, 11])
        M = pair_curvature_operator(random_tensor(n, rng).components)
        Q = _random_orthogonal(rng, (2,), n)
        ps = _PairSet(DeltaTuple(n, parts))
        d = len(ps.hi)
        E = np.zeros((d, n, n))
        E[np.arange(d), ps.hi, ps.hj] = 1.0
        E[np.arange(d), ps.hj, ps.hi] = -1.0
        h = 1e-4
        signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        X = np.stack([s * E[:, None] + t * E[None] for s, t in signs]) * h
        f = ps.evaluate((Q[:, None, None, None] @ _cayley(X)).reshape(
            -1, n, n), M)[0].reshape(2, 4, d, d)
        ref = (f[:, 0] - f[:, 1] - f[:, 2] + f[:, 3]) / (4 * h * h)
        H = ps.hessian(Q, M)
        np.testing.assert_array_equal(H, np.swapaxes(H, -1, -2))
        assert np.abs(H - ref).max() <= 1e-5 * (1.0 + np.abs(ref).max())

    def test_horizontal_pairs_join_different_blocks(self):
        ps = _PairSet(DeltaTuple(7, (2, 3)))
        labels = DeltaTuple(7, (2, 3)).labels
        pairs = set(zip(ps.hi.tolist(), ps.hj.tolist()))
        assert pairs == {(i, j) for i in range(7) for j in range(i + 1, 7)
                         if labels[i] != labels[j]}

    @pytest.mark.parametrize("n,parts", CASES)
    def test_same_minima_as_steepest_descent(self, monkeypatch, n, parts):
        # every restart, not only each sample's best, ends at the f that
        # steepest descent alone reaches from the same start frame
        rng = np.random.default_rng([n, len(parts)])
        comps = gauss_components(
            np.stack([random_cubic_form(n, rng) for _ in range(4)]), 0.0)
        Q0 = _initial_frames(comps, 6, 3).reshape(-1, n, n)
        M = np.repeat(pair_curvature_operator(comps), 6, axis=0)
        ps = _PairSet(DeltaTuple(n, parts))
        _, newton, conv, _ = _descend(Q0, M, ps, OptimizerOptions())
        assert conv.all()
        monkeypatch.setattr("lagdelta.delta._NEWTON_GTOL", 0.0)
        _, steepest, conv, _ = _descend(Q0, M, ps,
                                        OptimizerOptions(max_iters=5000))
        assert conv.all()
        assert np.all(np.abs(newton - steepest)
                      <= 1e-10 * (1.0 + np.abs(steepest)))

    @pytest.mark.parametrize("n,parts", [(5, (2,)), (6, (2, 2)), (8, (3, 4))])
    def test_newton_steps_never_raise_f(self, monkeypatch, n, parts):
        # frames near minima, so that the first iterations are Newton's;
        # a run of k + 1 iterations extends the run of k
        Q0, M, ps = _descent_inputs(n, parts, 6, seed=2)
        Q1 = _descend(Q0, M, ps, OptimizerOptions(max_iters=200))[0]
        rng = np.random.default_rng([n, 5])
        X = 1e-2 * rng.standard_normal(Q1.shape)
        Q1 = Q1 @ _cayley(X - np.swapaxes(X, -1, -2))
        calls = []
        hessian = ps.hessian
        monkeypatch.setattr(ps, "hessian",
                            lambda Q, M: calls.append(len(Q)) or hessian(Q, M))
        previous = ps.evaluate(Q1, M)[0]
        for k in range(1, 9):
            f = _descend(Q1, M, ps, OptimizerOptions(max_iters=k))[1]
            assert np.all(f <= previous)
            previous = f
        assert calls

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("entries", [0, 1 << 17])
    def test_hessian_chunks_within_budget(self, monkeypatch, shared,
                                          entries):
        # a chunk of c Hessians evaluates 2dc stencil frames: at most half
        # the W frames of the iteration's working set, entries // n**4, or
        # 2d
        monkeypatch.setattr("lagdelta.delta._HESSIAN_ENTRIES", entries)
        Q0, M, ps = _descent_inputs(5, (2, 3), 120)
        M = M if shared else np.repeat(M[None], len(Q0), axis=0)
        stencil = 2 * len(ps.hi)  # the frames of one Hessian, 12 here
        calls, evaluate, hessian = [], ps.evaluate, ps.hessian

        def counted_evaluate(Q, M):
            if Q.ndim == 3:  # not a Hessian's stencil, (c, 2d, n, n)
                calls.append(("trial", len(Q)))
            return evaluate(Q, M)

        monkeypatch.setattr(ps, "hessian", lambda Q, M: calls.append(
            ("hessian", len(Q))) or hessian(Q, M))
        monkeypatch.setattr(ps, "evaluate", counted_evaluate)
        _descend(Q0, M, ps, OptimizerOptions())
        trials = [k for k, (kind, _) in enumerate(calls) if kind == "trial"]
        chunks = [(size, next(calls[t][1] for t in trials if t > k))
                  for k, (kind, size) in enumerate(calls) if kind == "hessian"]
        assert chunks
        assert all(stencil * c <= max(W // 2, entries // 5**4, stencil)
                   for c, W in chunks)
        assert max(c for c, _ in chunks) > 1

    @pytest.mark.parametrize("shared", [True, False])
    def test_newton_directions_chunked_and_bounded(self, monkeypatch, shared):
        # the same steps however the Hessians are chunked; each step is a
        # descent direction no longer than the trust radius, in radians
        Q, M, ps = _descent_inputs(6, (2, 2), 60, seed=4)
        M = M if shared else np.repeat(M[None], len(Q), axis=0)
        Q = _descend(Q, M, ps, OptimizerOptions(max_iters=10))[0]
        QtG = np.swapaxes(Q, -1, -2) @ ps.gradient(Q, ps.evaluate(Q, M)[1])
        A = 0.5 * (QtG - np.swapaxes(QtG, -1, -2))
        sel = np.arange(1, len(Q), 2)
        whole = _newton_directions(ps, Q, M, A, sel)
        few = _newton_directions(ps, Q[:30], M if shared else M[:30],
                                 A[:30], sel[:15])
        assert len(whole[0]) > 0
        np.testing.assert_array_equal(few[0], whole[0][whole[0] < 30])
        np.testing.assert_array_equal(few[1], whole[1][:len(few[0])])
        sel, Z, rate = whole
        t = Z[:, ps.hi, ps.hj]
        np.testing.assert_array_equal(Z[:, ps.hj, ps.hi], -t)
        length = np.linalg.norm(t, axis=1)
        assert np.all(length <= np.pi / 4 * (1 + 1e-15))
        assert np.any(length >= np.pi / 4 * (1 - 1e-15))  # some are cut
        np.testing.assert_allclose(rate, 2.0 * np.einsum(
            "bk,bk->b", A[sel][:, ps.hi, ps.hj], t), rtol=1e-12)
        assert np.all(rate > 0)


def _frame_from_angles(n, axes, angles):
    Q = np.eye(n)
    for (i, j), t in zip(axes, angles):
        Q = Q @ _givens(n, i, j, t)
    return Q


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
            _wedge(A @ B, I, J, I, J),
            _wedge(A, I, J, I, J) @ _wedge(B, I, J, I, J),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_pair_columns_of_compound(self, n):
        # the grid's right half-grid takes only its within-block columns
        Q = _random_orthogonal(np.random.default_rng([n, 23]), (3,), n)
        I, J = pair_basis(n)
        C = _wedge(Q, I, J, I, J)
        for tup in enumerate_tuples(n):
            within = _block_pairs(tup)
            np.testing.assert_array_equal(
                _wedge(Q, I, J, I[within], J[within]), C[..., within])

    @pytest.mark.parametrize("n,parts", sorted(_GRID_AXES))
    def test_diagonal_sum_equals_config_objective(self, n, parts):
        rng = np.random.default_rng([n, 22, *parts])
        R = random_tensor(n, rng)
        M = pair_curvature_operator(R.components)
        within = _within_columns(n, parts)
        blocks = DeltaTuple(n, parts).blocks()
        Q = _random_orthogonal(rng, (4,), n)
        I, J = pair_basis(n)
        C = _wedge(Q, I, J, I, J)
        diag = np.diagonal(np.swapaxes(C, -1, -2) @ M @ C, axis1=-2, axis2=-1)
        ref = [config_objective(R, SubspaceConfig(q, blocks)) for q in Q]
        np.testing.assert_allclose(diag[:, within].sum(axis=-1), ref,
                                   rtol=1e-12, atol=1e-12)
