import numpy as np
import pytest

from lagdelta.cubic import (LagrangianPointData, gauss_curvature,
                            mean_curvature, random_cubic_form, rotate_cubic)
from lagdelta.delta import (DeltaTuple, OptimizerOptions, enumerate_tuples,
                            oracle_delta_dim3)
from lagdelta.exceptions import Inadmissible
from lagdelta.inequalities import (InequalityVariant as V,
                                   _equality_projection, admissible_variants,
                                   bound_report, coefficients,
                                   detect_equality_structure, evaluate,
                                   select_improved, soundness_audit,
                                   synthesize_equality_data)

from test_cubic import berger_form, graph_equality_form

FAST = OptimizerOptions(restarts=8, seed=0)


def detectable_variants(tup):
    """Admissible variants with an equality structure (all but OPREA)."""
    return [v for v in admissible_variants(tup) if v != V.OPREA]


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
        rng = np.random.default_rng(11)
        for _ in range(5):
            data = LagrangianPointData(3, float(rng.uniform(-1, 1)),
                                       random_cubic_form(3, rng))
            rep = evaluate(data, V.OLD, DeltaTuple(3, (2,)))
            assert rep.delta == oracle_delta_dim3(gauss_curvature(data))
            assert rep.diagnostics is None

    def test_bound_report_takes_given_delta(self):
        data = LagrangianPointData(5, 0.0, graph_equality_form())
        tup = DeltaTuple(5, (2,))
        rep = bound_report(data, V.IMPROVED, tup, 11.375)
        assert rep.delta == 11.375
        assert rep.rhs == pytest.approx(11.375)
        assert rep.equality and rep.diagnostics is None
        with pytest.raises(Inadmissible):
            bound_report(data, V.HIGH_A, tup, 11.375)

    def test_hyperplane_domain_guard(self):
        data = LagrangianPointData(3, 1.0, berger_form())
        with pytest.raises(Inadmissible):
            evaluate(data, V.HYPERPLANE_FLAT, DeltaTuple(3, (2,)))


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
    @pytest.mark.parametrize("n", range(3, 8))
    def test_projector_rank(self, n):
        # Pi is an orthogonal projector whose rank is the dimension of the
        # traceless block cubics, plus n - N for the mean parts
        rng = np.random.default_rng(n)
        forms = [random_cubic_form(n, rng)
                 for _ in range((n + 2) * (n + 1) * n // 6 + 2)]
        for tup in enumerate_tuples(n):
            for variant in detectable_variants(tup):
                proj = np.array([_equality_projection(h, tup, variant)[0]
                                 for h in forms])
                expected = sum(q * (q + 1) * (q + 2) // 6 - q
                               for q in tup.parts)
                if variant in (V.IMPROVED, V.K1):
                    expected += n - tup.N
                flat = proj.reshape(len(forms), -1)
                assert np.linalg.matrix_rank(flat) == expected, (tup, variant)
                again, _ = _equality_projection(proj[0], tup, variant)
                np.testing.assert_allclose(again, proj[0], atol=1e-13)
                assert abs(np.vdot(forms[1] - proj[1], proj[0])) < 1e-12

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
