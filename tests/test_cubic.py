import json

import numpy as np
import pytest

from lagdelta.exceptions import SymmetryViolation
from lagdelta.cubic import (LagrangianPointData, cubic_triples,
                            gauss_components, gauss_curvature,
                            mean_curvature, point_data_from_json,
                            point_data_to_json, random_cubic_form,
                            rotate_cubic, scatter_cubic, symmetrize_cubic,
                            symmetry_deviation, tau_from_cubic,
                            validate_cubic)
from lagdelta.frames import rotate_tensor, scalar_tau, sectional_curvature

LAM = 2.0 / np.sqrt(3.0)


def berger_form():
    return validate_cubic([(1, 1, 1, LAM), (1, 2, 2, -LAM)], 3)


def graph_equality_form():
    # n=5 gradient-graph point: h3_11 = h3_22 = 3/4, h3_33 = 3, h3_44 = h3_55 = 1
    return validate_cubic(
        [(1, 1, 3, 0.75), (2, 2, 3, 0.75), (3, 3, 3, 3.0),
         (3, 4, 4, 1.0), (3, 5, 5, 1.0)], 5)


class TestValidateCubic:
    def test_empty_is_zero(self):
        form = validate_cubic([], 3)
        assert np.abs(form).max() == 0.0

    def test_permutation_reads_agree(self):
        h = berger_form()
        assert h[1, 0, 1] == pytest.approx(-LAM)
        assert h[1, 1, 0] == pytest.approx(-LAM)
        assert h[0, 1, 1] == pytest.approx(-LAM)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            np.testing.assert_allclose(h, h.transpose(perm))

    def test_conflicting_permutations_rejected(self):
        with pytest.raises(SymmetryViolation) as exc:
            validate_cubic([(1, 1, 2, 1.0), (1, 2, 1, 2.0)], 3)
        assert exc.value.triple == (1, 1, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_cubic([(1, 1, 4, 1.0)], 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="not finite"):
            validate_cubic([(1, 2, 2, value)], 3)


class TestDenseCore:
    """The batched core against per-point references written out here."""

    def test_every_permutation_holds_the_sorted_entry(self):
        rng = np.random.default_rng(4)
        for n in range(2, 9):
            h = random_cubic_form(n, rng)
            for i, j, k in np.ndindex(h.shape):
                assert h[i, j, k] == h[tuple(sorted((i, j, k)))]
            # already canonical: the point data stores the same bits
            assert np.array_equal(LagrangianPointData(n, 0.0, h).h, h)

    def test_random_form_is_scalar_draw_stream(self):
        for n in (2, 5, 9):
            scalar = np.random.default_rng(n)
            expected = {(a, b, c): 0.5 * scalar.standard_normal()
                        for a in range(1, n + 1) for b in range(a, n + 1)
                        for c in range(b, n + 1)}
            h = random_cubic_form(n, np.random.default_rng(n), scale=0.5)
            assert {(a, b, c): h[a - 1, b - 1, c - 1]
                    for a, b, c in expected} == expected

    def test_batch_equals_per_point(self):
        rng = np.random.default_rng(8)
        for n in range(3, 13):
            forms = [random_cubic_form(n, rng) for _ in range(20)]
            dense = np.stack(forms)
            comps = gauss_components(dense, -0.6)
            H, h2 = mean_curvature(dense)
            for s, form in enumerate(forms):
                point = LagrangianPointData(n, -0.6, form)
                assert np.array_equal(comps[s],
                                      gauss_curvature(point).components)
                Hp, h2p = mean_curvature(form)
                assert np.array_equal(H[s], Hp) and h2[s] == h2p
                # the index-order trace and H @ H of a single point
                Href = np.zeros(n)
                for a in range(n):
                    acc = 0.0
                    for b in range(n):
                        acc += form[a, b, b]
                    Href[a] = acc / n
                assert np.array_equal(Hp, Href) and h2p == Href @ Href

    def test_gauss_matches_written_formula(self):
        rng = np.random.default_rng(9)
        for n in (3, 6):
            h = random_cubic_form(n, rng)
            R = np.zeros((n,) * 4)
            for a, b, c, d in np.ndindex(R.shape):
                R[a, b, c, d] = (sum(h[e, a, d] * h[e, b, c]
                                     - h[e, b, d] * h[e, a, c]
                                     for e in range(n))
                                 + 0.3 * ((a == d) * (b == c)
                                          - (a == c) * (b == d)))
            np.testing.assert_allclose(gauss_components(h, 0.3), R,
                                       rtol=0, atol=1e-12)

    def test_scatter_and_symmetrize(self):
        n = 4
        triples = cubic_triples(n)
        assert len(triples) == n * (n + 1) * (n + 2) // 6
        assert all(a <= b <= c for a, b, c in triples)
        values = np.arange(1.0, len(triples) + 1)
        h = scatter_cubic(np.zeros((2, n, n, n)), triples,
                          np.stack([values, -values]))
        for t, (a, b, c) in enumerate(triples):
            for i, j, k in [(a, b, c), (c, a, b), (b, c, a), (a, c, b)]:
                assert h[0, i, j, k] == values[t] == -h[1, i, j, k]
        assert np.array_equal(symmetrize_cubic(h), h)
        raw = np.random.default_rng(1).standard_normal((n, n, n))
        sym = symmetrize_cubic(raw)
        assert np.allclose(sym, sym.transpose(1, 0, 2))
        assert np.allclose(sym, sym.transpose(0, 2, 1))
        assert sym[0, 1, 2] == pytest.approx(
            (raw[0, 1, 2] + raw[0, 2, 1] + raw[1, 0, 2] + raw[1, 2, 0]
             + raw[2, 0, 1] + raw[2, 1, 0]) / 6.0)


class TestPointData:
    """The one stored format: a read-only, exactly symmetric array."""

    def test_canonical_copy(self):
        h = scatter_cubic(np.zeros((3, 3, 3)), [(0, 1, 2)], 1.0)
        h[2, 1, 0] = 1.0 + 1e-13  # asymmetric within the tolerance
        h[1, 1, 1] = -0.0
        data = LagrangianPointData(3, 0.0, h)
        assert symmetry_deviation(data.h) == 0.0
        assert all(data.h[p] == 1.0 for p in [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
        assert not np.signbit(data.h).any()  # -0.0 is stored as 0.0
        assert not data.h.flags.writeable
        with pytest.raises(ValueError):
            data.h[0, 0, 0] = 1.0

    @pytest.mark.parametrize("n", range(2, 8))
    def test_canonical_copy_matches_scatter_of_sorted_triples(self, n):
        # the reference: the sorted-triple entries scattered to every
        # permutation, accepted iff symmetry_deviation is within tolerance
        rng = np.random.default_rng([n, 3])
        triples = cubic_triples(n)
        tol = 1e-12
        outcomes = set()
        for noise in (0.0, 1e-14, 3e-13, 1e-12, 1e-11):
            sym = symmetrize_cubic(rng.standard_normal((n, n, n)))
            h = sym + noise * rng.standard_normal((n, n, n))
            dev = symmetry_deviation(h)
            if dev > tol * (1.0 + np.abs(h).max()):
                outcomes.add("rejected")
                with pytest.raises(ValueError) as err:
                    LagrangianPointData(n, 0.0, h)
                assert str(err.value) == (f"array is not totally symmetric: "
                                          f"deviation {dev:.3e}")
                continue
            outcomes.add("accepted")
            want = scatter_cubic(np.zeros((n, n, n)), triples,
                                 h[tuple(triples.T)] + 0.0)
            got = LagrangianPointData(n, 0.0, h).h
            np.testing.assert_array_equal(got, want)
        assert outcomes == {"accepted", "rejected"}

    @pytest.mark.parametrize("h,match", [
        (np.zeros((3, 3)), "shape"),
        (np.zeros((3, 3, 4)), "shape"),
        (np.zeros((4, 4, 4)), "mismatch"),
        (np.full((3, 3, 3), np.nan), "finite"),
        (np.eye(3)[:, :, None] * np.arange(3.0), "symmetric"),
    ])
    def test_rejected(self, h, match):
        with pytest.raises(ValueError, match=match):
            LagrangianPointData(3, 0.0, h)

    def test_symmetry_deviation_last_three_axes(self):
        t = np.random.default_rng(2).standard_normal((2, 3, 3, 3))
        want = max(np.abs(t[s] - t[s].transpose(p)).max() for s in (0, 1)
                   for p in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                             (2, 1, 0)])
        assert symmetry_deviation(t) == want
        assert symmetry_deviation(symmetrize_cubic(t[0])) < 1e-15


class TestGaussCurvature:
    def test_totally_geodesic_space_form(self):
        data = LagrangianPointData(4, 1.0, np.zeros((4,) * 3))
        R = gauss_curvature(data)
        eye = np.eye(4)
        assert sectional_curvature(R, eye[0], eye[2]) == pytest.approx(1.0)
        assert scalar_tau(R) == pytest.approx(6.0)

    def test_berger_values(self):
        R = gauss_curvature(LagrangianPointData(3, 1.0, berger_form()))
        eye = np.eye(3)
        assert sectional_curvature(R, eye[0], eye[1]) == pytest.approx(-5 / 3)
        assert sectional_curvature(R, eye[0], eye[2]) == pytest.approx(1.0)
        assert sectional_curvature(R, eye[1], eye[2]) == pytest.approx(1.0)
        assert scalar_tau(R) == pytest.approx(1 / 3)

    def test_graph_equality_tau(self):
        data = LagrangianPointData(5, 0.0, graph_equality_form())
        assert scalar_tau(gauss_curvature(data)) == pytest.approx(11.9375)


class TestMeanCurvature:
    def test_zero_form(self):
        H, h2 = mean_curvature(np.zeros((4,) * 3))
        assert h2 == 0.0
        np.testing.assert_array_equal(H, np.zeros(4))

    def test_single_point_gives_scalar(self):
        _, h2 = mean_curvature(graph_equality_form())
        assert np.ndim(h2) == 0 and not isinstance(h2, np.ndarray)
        _, h2s = mean_curvature(np.stack([graph_equality_form()] * 2))
        assert h2s.shape == (2,) and h2s[1] == h2

    def test_berger_is_minimal(self):
        H, h2 = mean_curvature(berger_form())
        assert h2 == 0.0

    def test_graph_equality_values(self):
        H, h2 = mean_curvature(graph_equality_form())
        assert H[2] == pytest.approx(13 / 10)
        assert h2 == pytest.approx(169 / 100)


class TestTauFromCubic:
    def test_space_form(self):
        data = LagrangianPointData(3, 1.0, np.zeros((3,) * 3))
        assert tau_from_cubic(data) == pytest.approx(3.0)

    def test_berger(self):
        data = LagrangianPointData(3, 1.0, berger_form())
        assert tau_from_cubic(data) == pytest.approx(1 / 3)

    def test_graph_equality(self):
        data = LagrangianPointData(5, 0.0, graph_equality_form())
        assert tau_from_cubic(data) == pytest.approx(11.9375)

    def test_path_equality_random_forms(self):
        # direct sum vs Gauss-equation reconstruction, 1000 random forms
        rng = np.random.default_rng(123)
        per_n = 1000 // 6
        for n in range(3, 9):
            for _ in range(per_n):
                data = LagrangianPointData(
                    n, float(rng.uniform(-1, 1)), random_cubic_form(n, rng))
                direct = tau_from_cubic(data)
                via_gauss = scalar_tau(gauss_curvature(data))
                assert direct == pytest.approx(via_gauss, abs=1e-12 * (1 + abs(direct)))


class TestFrameEquivariance:
    def test_rotation_commutes_with_gauss(self):
        rng = np.random.default_rng(21)
        for n in (3, 5):
            form = random_cubic_form(n, rng)
            c = 0.8
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            rotated_first = gauss_curvature(
                LagrangianPointData(n, c, rotate_cubic(form, Q)))
            rotated_after = rotate_tensor(
                gauss_curvature(LagrangianPointData(n, c, form)), Q)
            assert np.abs(rotated_first.components
                          - rotated_after.components).max() < 1e-10


class TestJson:
    def test_round_trip(self):
        data = LagrangianPointData(3, 1.0, berger_form(), source="berger")
        text = point_data_to_json(data)
        back = point_data_from_json(text)
        assert back.n == 3 and back.c == 1.0 and back.source == "berger"
        np.testing.assert_allclose(back.h, data.h)

    def test_permutation_duplicates_allowed(self):
        text = json.dumps({"n": 3, "c": 0.0,
                           "h": [[1, 2, 2, 5.0], [2, 1, 2, 5.0]]})
        data = point_data_from_json(text)
        assert data.h[1, 1, 0] == 5.0

    def test_malformed_json_reports_position(self):
        with pytest.raises(ValueError, match="line"):
            point_data_from_json("{ not json")

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            point_data_from_json(json.dumps({"n": 3, "c": 0.0}))
