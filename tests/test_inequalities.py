import numpy as np
import pytest

from lagdelta.cubic import (LagrangianPointData, cubic_triples,
                            gauss_components, gauss_curvature,
                            mean_curvature, random_cubic_form, rotate_cubic,
                            symmetrize_cubic)
from lagdelta.delta import (DeltaTuple, OptimizerOptions, enumerate_tuples,
                            oracle_delta_dim3)
from lagdelta.exceptions import Inadmissible
from lagdelta.inequalities import (InequalityVariant as V, _equality_basis,
                                   _improved_mean_part, admissible_variants,
                                   bound_report, coefficients,
                                   detect_equality_structure, evaluate,
                                   evaluate_batch, select_improved,
                                   soundness_audit,
                                   synthesize_equality_data)

from test_cubic import berger_form, graph_equality_form

FAST = OptimizerOptions(restarts=8, seed=0)


def detectable_variants(tup):
    """Admissible variants with an equality structure (all but OPREA)."""
    return [v for v in admissible_variants(tup) if v != V.OPREA]


def _traceless(S):
    """Orthogonal projection of a symmetric (q, q, q) array onto the
    traceless ones: S minus the symmetrized identity times tr / (q + 2)."""
    tr = np.einsum("aag->g", S) / (len(S) + 2)
    eye = np.eye(len(S))
    return S - (np.einsum("ab,g->abg", eye, tr)
                + np.einsum("bg,a->abg", eye, tr)
                + np.einsum("ag,b->abg", eye, tr))


def reference_projection(h, tup, variant):
    """The hand-written equality projection and ``lam`` (None for OLD,
    HIGH_A): the traceless within-block cubics, plus for IMPROVED and K1
    the mutually orthogonal, equal-norm mean parts E_m, m in the
    complement, with coefficients w_m = <E_m, h> / |E_m|^2."""
    proj = np.zeros_like(h)
    for block in tup.blocks():
        s = slice(block[0], block[-1] + 1)
        proj[s, s, s] = _traceless(h[s, s, s])
    if variant in (V.IMPROVED, V.K1):
        E = np.array([_improved_mean_part(np.zeros_like(h), tup, 1.0, m)
                      for m in range(tup.N, tup.n)])
        w = np.tensordot(E, h, axes=3) / np.vdot(E[0], E[0])
        return proj + np.tensordot(w, E, axes=1), float(np.linalg.norm(w))
    if variant == V.FIRST:
        return proj, float(np.linalg.norm(proj)) / 2.0
    return proj, None


def hand_written_dimension(tup, variant):
    """Traceless block cubics, plus n - N mean parts for IMPROVED and K1."""
    dim = sum(q * (q + 1) * (q + 2) // 6 - q for q in tup.parts)
    return dim + (tup.n - tup.N if variant in (V.IMPROVED, V.K1) else 0)


class TestCoefficients:
    def test_improved_n5_tuple2(self):
        a, b = coefficients(V.IMPROVED, DeltaTuple(5, (2,)))
        assert a == pytest.approx(175 / 26, abs=1e-14)
        assert b == pytest.approx(9.0)

    def test_oprea_n3(self):
        a, b = coefficients(V.OPREA, DeltaTuple(3, (2,)))
        assert a == pytest.approx(1.5)
        assert b == pytest.approx(2.0)

    def test_high_a_n7(self):
        a, b = coefficients(V.HIGH_A, DeltaTuple(7, (2, 2, 2)))
        assert a == pytest.approx(17.15)
        assert b == pytest.approx(18.0)

    def test_k1_matches_improved(self):
        for n in range(4, 11):
            for n1 in range(2, n):
                tup = DeltaTuple(n, (n1,))
                a_k1, b_k1 = coefficients(V.K1, tup)
                a_imp, b_imp = coefficients(V.IMPROVED, tup)
                assert abs(a_k1 - a_imp) < 1e-14 * (1 + a_imp)
                assert b_k1 == b_imp

    def test_first_equals_old_at_tuple2(self):
        for n in range(3, 9):
            tup = DeltaTuple(n, (2,))
            assert coefficients(V.FIRST, tup) == coefficients(V.OLD, tup)

    def test_hyperplane_coefficients(self):
        a, b = coefficients(V.HYPERPLANE_FLAT, DeltaTuple(3, (2,)))
        assert (a, b) == (1.5, 0.0)
        a, b = coefficients(V.HYPERPLANE_CP, DeltaTuple(3, (2,)))
        assert (a, b) == (1.5, 2.0)

    def test_inadmissible_pairings(self):
        with pytest.raises(Inadmissible):
            coefficients(V.IMPROVED, DeltaTuple(7, (2, 2, 2)))  # A = 3/4
        with pytest.raises(Inadmissible):
            coefficients(V.HIGH_A, DeltaTuple(5, (2,)))  # A = 1/4
        with pytest.raises(Inadmissible):
            coefficients(V.FIRST, DeltaTuple(5, (3,)))
        with pytest.raises(Inadmissible):
            coefficients(V.K1, DeltaTuple(6, (2, 2)))
        with pytest.raises(Inadmissible):
            coefficients(V.IMPROVED, DeltaTuple(4, (2, 2)))  # N = n

    def test_sharpness_ordering(self):
        # improved coefficients never exceed the base ones, same b
        for n in range(4, 11):
            for tup in enumerate_tuples(n):
                if tup.N >= n:
                    continue
                a_old, b_old = coefficients(V.OLD, tup)
                variant = select_improved(tup)
                a_imp, b_imp = coefficients(variant, tup)
                assert a_imp <= a_old + 1e-12
                assert b_imp == b_old

    def test_oprea_below_first(self):
        for n in range(3, 11):
            tup = DeltaTuple(n, (2,))
            a_op, _ = coefficients(V.OPREA, tup)
            a_fi, _ = coefficients(V.FIRST, tup)
            assert a_op < a_fi


class TestSelectImproved:
    def test_tuple2_any_n(self):
        for n in (3, 5, 9):
            assert select_improved(DeltaTuple(n, (2,))) == V.IMPROVED

    def test_high_a_cases(self):
        assert select_improved(DeltaTuple(7, (2, 2, 2))) == V.HIGH_A
        assert select_improved(DeltaTuple(13, (3, 3, 3, 3))) == V.HIGH_A

    def test_boundary_third_is_improved(self):
        # A((4,4)) = 1/6 + 1/6 = 1/3 exactly
        assert select_improved(DeltaTuple(9, (4, 4))) == V.IMPROVED

    def test_full_tuple_signals(self):
        with pytest.raises(Inadmissible):
            select_improved(DeltaTuple(4, (2, 2)))


class TestEvaluate:
    def test_totally_geodesic_equality(self):
        data = LagrangianPointData(4, 0.7, np.zeros((4,) * 3))
        rep = evaluate(data, V.OLD, DeltaTuple(4, (2,)), FAST)
        assert rep.h2 == 0.0
        assert rep.slack == pytest.approx(0.0, abs=1e-9)
        assert rep.equality

    def test_berger_first_equality(self):
        data = LagrangianPointData(3, 1.0, berger_form())
        rep = evaluate(data, V.FIRST, DeltaTuple(3, (2,)), FAST)
        assert rep.delta == pytest.approx(2.0, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.equality

    def test_graph_improved_equality_with_nonzero_h(self):
        data = LagrangianPointData(5, 0.0, graph_equality_form())
        rep = evaluate(data, V.IMPROVED, DeltaTuple(5, (2,)), FAST)
        assert rep.h2 == pytest.approx(1.69)
        assert rep.rhs == pytest.approx(11.375)
        assert abs(rep.slack) < 1e-9
        assert rep.equality and rep.h2 > 0

    def test_dim3_oracle_path(self):
        data = LagrangianPointData(3, 1.0, berger_form())
        rep = evaluate(data, V.OPREA, DeltaTuple(3, (2,)))
        assert rep.delta == pytest.approx(2.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_dim3_uses_exact_oracle(self):
        # (2) is the hyperplane tuple at n = 3: delta is lambda_max(Ric)
        rng = np.random.default_rng(11)
        for _ in range(5):
            data = LagrangianPointData(3, float(rng.uniform(-1, 1)),
                                       random_cubic_form(3, rng))
            rep = evaluate(data, V.OLD, DeltaTuple(3, (2,)))
            oracle = oracle_delta_dim3(gauss_curvature(data))
            assert abs(rep.delta - oracle) <= 1e-12 * (1.0 + abs(oracle))
            assert rep.diagnostics.restarts == 0

    def test_bound_report_takes_given_delta(self):
        data = LagrangianPointData(5, 0.0, graph_equality_form())
        tup = DeltaTuple(5, (2,))
        rep = bound_report(data, V.IMPROVED, tup, 11.375)
        assert rep.delta == 11.375
        assert rep.rhs == pytest.approx(11.375)
        assert rep.equality and rep.diagnostics is None
        with pytest.raises(Inadmissible):
            bound_report(data, V.HIGH_A, tup, 11.375)

    def test_bound_report_refuses_other_dimension(self):
        data = LagrangianPointData(5, 0.0, graph_equality_form())
        with pytest.raises(Inadmissible, match="does not match"):
            bound_report(data, V.OLD, DeltaTuple(4, (2,)), 1.0)

    def test_evaluate_refuses_other_dimension(self, monkeypatch):
        import lagdelta.inequalities as ineq

        def no_delta(*args):
            raise AssertionError("delta computed for a refused bound")

        monkeypatch.setattr(ineq, "delta_invariant_batch", no_delta)
        data = LagrangianPointData(5, 0.0, graph_equality_form())
        with pytest.raises(Inadmissible, match="does not match"):
            evaluate(data, V.OLD, DeltaTuple(4, (2,)), FAST)

    def test_hyperplane_domain_guard(self):
        data = LagrangianPointData(3, 1.0, berger_form())
        with pytest.raises(Inadmissible):
            evaluate(data, V.HYPERPLANE_FLAT, DeltaTuple(3, (2,)))

    def test_batch_refuses_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            evaluate_batch([], V.OLD, DeltaTuple(4, (2,)))

    @pytest.mark.parametrize("n,c", [(5, 0.0), (4, 1.0)])
    def test_batch_refuses_mixed_points(self, n, c):
        datas = [LagrangianPointData(4, 0.0, np.zeros((4,) * 3)),
                 LagrangianPointData(n, c, np.zeros((n,) * 3))]
        with pytest.raises(ValueError, match="one n and c"):
            evaluate_batch(datas, V.OLD, DeltaTuple(4, (2,)))


class TestSynthesisRoundTrips:
    @pytest.mark.parametrize("variant,parts,n", [
        (V.OLD, (2, 2), 5),
        (V.HIGH_A, (2, 2), 5),
        (V.HIGH_A, (2, 2, 2), 7),
        (V.IMPROVED, (2,), 5),
        (V.IMPROVED, (4, 4), 9),  # boundary A = 1/3
        (V.FIRST, (2,), 4),
    ])
    def test_detect_round_trip(self, variant, parts, n):
        tup = DeltaTuple(n, parts)
        data = synthesize_equality_data(tup, variant, lam=1.0, seed=3)
        rep = detect_equality_structure(data.h, tup, variant, tol=1e-12)
        assert rep.passed, f"deviation {rep.deviation}"

    def test_k1_synthesis_refuses_multi_part_tuple(self):
        # K1 is stated for single parts, so detection would refuse the data
        with pytest.raises(Inadmissible, match="single-part"):
            synthesize_equality_data(DeltaTuple(9, (4, 4)), V.K1)

    def test_minimal_structures_have_exact_zero_h(self):
        for variant, parts, n in [(V.OLD, (2, 2), 5), (V.HIGH_A, (2, 3), 6)]:
            data = synthesize_equality_data(DeltaTuple(n, parts), variant,
                                            seed=5)
            _, h2 = mean_curvature(data.h)
            assert h2 == 0.0

    def test_improved_has_positive_h(self):
        data = synthesize_equality_data(DeltaTuple(5, (2,)), V.IMPROVED,
                                        lam=1.0, seed=1)
        _, h2 = mean_curvature(data.h)
        assert h2 > 0

    def test_improved_zero_blocks_matches_graph_form(self):
        data = synthesize_equality_data(DeltaTuple(5, (2,)), V.IMPROVED,
                                        lam=1.0, seed=0, block_scale=0.0)
        np.testing.assert_allclose(data.h,
                                   graph_equality_form(), atol=1e-15)

    @pytest.mark.parametrize("variant,parts,n", [
        (V.OLD, (2, 2), 5),
        (V.HIGH_A, (2, 2), 5),
        (V.IMPROVED, (2,), 5),
        (V.IMPROVED, (4, 4), 9),
    ])
    def test_equality_propagation(self, variant, parts, n):
        tup = DeltaTuple(n, parts)
        data = synthesize_equality_data(tup, variant, lam=1.0, seed=7)
        eval_variant = V.OLD if variant == V.OLD else variant
        rep = evaluate(data, eval_variant, tup, FAST, eq_tol=1e-9)
        assert abs(rep.slack) <= 1e-9, rep.slack

    def test_berger_matches_first_pattern(self):
        rep = detect_equality_structure(berger_form(), DeltaTuple(3, (2,)),
                                        V.FIRST, tol=1e-10)
        assert rep.passed
        assert rep.lam == pytest.approx(2 / np.sqrt(3))

    def test_first_pattern_found_after_in_plane_rotation(self):
        tup = DeltaTuple(3, (2,))
        t = 0.37
        G = np.eye(3)
        G[0, 0] = G[1, 1] = np.cos(t)
        G[0, 1] = -np.sin(t)
        G[1, 0] = np.sin(t)
        rotated = rotate_cubic(berger_form(), G)
        rep = detect_equality_structure(rotated, tup, V.FIRST, tol=1e-9)
        assert rep.passed
        assert abs(rep.lam) == pytest.approx(2 / np.sqrt(3), abs=1e-9)

    def test_random_dense_form_fails(self):
        rng = np.random.default_rng(2)
        form = random_cubic_form(5, rng)
        for tup in enumerate_tuples(5):
            for variant in detectable_variants(tup):
                rep = detect_equality_structure(form, tup, variant, tol=1e-8)
                assert not rep.passed, (tup, variant)
                assert rep.deviation > 1e-3, (tup, variant)

    def test_detection_in_optimizer_argmin_frame(self):
        # the detector is meant to run in the frame the optimizer reports
        from lagdelta.cubic import LagrangianPointData, gauss_curvature
        from lagdelta.delta import delta_invariant

        tup3 = DeltaTuple(3, (2,))
        berger = berger_form()
        R = gauss_curvature(LagrangianPointData(3, 1.0, berger))
        _, cfg, _ = delta_invariant(R, tup3, FAST)
        rep = detect_equality_structure(berger, tup3, V.FIRST,
                                        frame=cfg.frame, tol=1e-7)
        assert rep.passed, rep

        tup5 = DeltaTuple(5, (2,))
        graph = graph_equality_form()
        Rg = gauss_curvature(LagrangianPointData(5, 0.0, graph))
        _, cfg5, _ = delta_invariant(Rg, tup5, FAST)
        rep5 = detect_equality_structure(graph, tup5, V.IMPROVED,
                                         frame=cfg5.frame, tol=1e-6)
        assert rep5.passed, rep5
        assert abs(abs(rep5.lam) - 1.0) < 1e-6


class TestEqualitySpace:
    def test_basis_cached_read_only(self):
        tup = DeltaTuple(5, (2,))
        basis = _equality_basis(tup, V.IMPROVED)
        assert _equality_basis(DeltaTuple(5, (2,)), V.IMPROVED) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_projector_rank(self, n):
        # Pi = B^T B is an orthogonal projector of the hand-written rank,
        # and projects as the hand-written reference does
        rng = np.random.default_rng(n)
        forms = [random_cubic_form(n, rng) for _ in range(3)]
        for tup in enumerate_tuples(n):
            for variant in detectable_variants(tup):
                basis = _equality_basis(tup, variant)
                expected = hand_written_dimension(tup, variant)
                assert len(basis) == expected, (tup, variant)
                assert np.linalg.matrix_rank(basis) == expected
                Pi = basis.T @ basis
                np.testing.assert_allclose(Pi @ Pi, Pi, atol=1e-13)
                np.testing.assert_allclose(Pi, Pi.T, atol=1e-14)
                for h in forms:
                    ref, lam = reference_projection(h, tup, variant)
                    bound = 1e-12 * (1.0 + np.linalg.norm(h))
                    proj = (Pi @ h.ravel()).reshape(h.shape)
                    assert np.abs(proj - ref).max() <= bound, (tup, variant)
                    rep = detect_equality_structure(h, tup, variant)
                    dev = np.linalg.norm(h - ref)
                    assert abs(rep.deviation - dev) <= bound
                    assert (rep.lam is None) == (lam is None)
                    if lam is not None:
                        assert abs(rep.lam - lam) <= bound, (tup, variant)

    def test_search_keyword_is_ignored(self):
        form = random_cubic_form(6, np.random.default_rng(4))
        pattern = synthesize_equality_data(DeltaTuple(6, (2,)), V.IMPROVED,
                                           lam=0.5, seed=1).h
        for h, tup in [(form, DeltaTuple(6, (2, 3))),
                       (pattern, DeltaTuple(6, (2,)))]:
            for variant in detectable_variants(tup):
                assert (detect_equality_structure(h, tup, variant,
                                                  search=False)
                        == detect_equality_structure(h, tup, variant))

    @pytest.mark.parametrize("variant,parts,n", [
        (V.FIRST, (3,), 4),
        (V.FIRST, (2, 2), 5),
        (V.OPREA, (2,), 3),
        (V.HYPERPLANE_FLAT, (2,), 3),
        (V.HYPERPLANE_CP, (2,), 3),
        (V.IMPROVED, (2, 2), 4),  # N = n: no complement
        (V.K1, (2, 2), 5),
    ])
    def test_inadmissible_variant_refused(self, variant, parts, n):
        with pytest.raises(Inadmissible):
            detect_equality_structure(np.zeros((n, n, n)),
                                      DeltaTuple(n, parts), variant)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (5, 5), (5, 5, 5, 1)])
    def test_wrong_shape_refused(self, shape):
        with pytest.raises(Inadmissible):
            detect_equality_structure(np.zeros(shape), DeltaTuple(5, (2,)),
                                      V.OLD)


def gauss_forms(n):
    """An orthonormal basis E of the symmetric (n, n, n) arrays, and on it
    the quadratic forms H^2 and the plane curvatures R_abba at c = 0, by
    polarizing the Gauss equation: (T, T) and (T, T, n, n)."""
    units = np.zeros((len(cubic_triples(n)), n, n, n))
    for t, (a, b, c) in enumerate(cubic_triples(n)):
        units[t, a, b, c] = 1.0
    E = symmetrize_cubic(units)
    E /= np.linalg.norm(E.reshape(len(E), -1), axis=1)[:, None, None, None]

    def values(h):
        R = gauss_components(h, 0.0)
        return mean_curvature(h)[1], np.einsum("...abba->...ab", R)

    (h2_sum, K_sum), (h2, K) = values(E[:, None] + E[None, :]), values(E)
    return (E, (h2_sum - h2[:, None] - h2[None, :]) / 2.0,
            (K_sum - K[:, None] - K[None, :]) / 2.0)


class TestEqualityKernel:
    """The equality space is where the bound's quadratic form vanishes."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_kernel_vectors_attain_bound(self, n):
        # the optimizer's identity start is a global minimizer at these
        rng = np.random.default_rng([n, 21])
        for tup in enumerate_tuples(n):
            for variant in detectable_variants(tup):
                basis = _equality_basis(tup, variant)
                x = rng.standard_normal(len(basis)) @ basis
                h = (x / np.linalg.norm(x)).reshape((n,) * 3)
                rep = evaluate(LagrangianPointData(n, 0.0, h), variant, tup,
                               FAST)
                assert abs(rep.slack) <= 1e-9, (tup, variant, rep.slack)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_bound_form_is_sound_and_vanishes_on_basis(self, n):
        # a H^2 - (tau - sum_j tau(B_j)) >= 0, zero exactly on the basis
        E, P, K = gauss_forms(n)
        for tup in enumerate_tuples(n):
            a, b = np.array([(a, b) for block in tup.blocks()
                             for a in block for b in block if a < b]).T
            G = 0.5 * K.sum(axis=(2, 3)) - K[..., a, b].sum(axis=-1)
            for variant in detectable_variants(tup):
                form = coefficients(variant, tup)[0] * P - G
                vals = np.linalg.eigvalsh(form)
                assert vals[0] >= -1e-12 * vals[-1], (tup, variant, vals[0])
                coords = _equality_basis(tup, variant) @ E.reshape(
                    len(E), -1).T
                assert np.abs(form @ coords.T).max() <= 1e-12 * vals[-1]
                assert (vals <= 1e-9 * vals[-1]).sum() == len(coords)


class TestAudit:
    def test_small_sweep_nonnegative(self):
        res = soundness_audit(4, 60, seed=42)
        for pair in res["pairs"]:
            assert pair["min_slack_rel"] >= -1e-9, pair

    def test_old_dominates_improved_per_sample(self):
        res = soundness_audit(5, 40, seed=7)
        s_old = res["slacks"][((2,), V.OLD)]
        s_imp = res["slacks"][((2,), V.IMPROVED)]
        assert np.all(s_old >= s_imp - 1e-12)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            soundness_audit(4, 0, seed=1)

    def test_variant_filter(self):
        res = soundness_audit(4, 10, seed=3, variants=[V.OLD])
        assert all(p["variant"] == "old" for p in res["pairs"])


class TestAdmissibleVariants:
    def test_tuple2(self):
        vs = admissible_variants(DeltaTuple(5, (2,)))
        assert vs == [V.OLD, V.FIRST, V.OPREA, V.K1, V.IMPROVED]

    def test_full_tuple_only_old(self):
        assert admissible_variants(DeltaTuple(4, (2, 2))) == [V.OLD]

    def test_high_a_tuple(self):
        vs = admissible_variants(DeltaTuple(6, (2, 2)))
        assert vs == [V.OLD, V.HIGH_A]
