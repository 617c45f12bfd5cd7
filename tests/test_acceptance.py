"""Acceptance suite: each test prints one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from lagdelta.cli import main
from lagdelta.cubic import mean_curvature
from lagdelta.delta import (DeltaTuple, OptimizerOptions,
                            delta_invariant_batch, enumerate_tuples,
                            oracle_delta_dim3, oracle_delta_grid)
from lagdelta.frames import CurvatureTensor, pair_basis
from lagdelta.gallery import run_example
from lagdelta.inequalities import (InequalityVariant as V, coefficients,
                                   detect_equality_structure, evaluate,
                                   select_improved, synthesize_equality_data)


def _report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def tensor_from_pair_matrix(n: int, M: np.ndarray) -> CurvatureTensor:
    """Generic curvature tensor with prescribed pair-basis operator.

    The fully antisymmetric part is projected out so the first Bianchi
    identity holds (automatic in dimension 3).
    """
    I, J = pair_basis(n)
    p = len(I)
    B = np.zeros((p, n, n))
    B[np.arange(p), I, J] = 1.0
    B[np.arange(p), J, I] = -1.0
    comp = np.einsum("pq,pab,qdc->abcd", M, B, B)
    cyc = comp + comp.transpose(1, 2, 0, 3) + comp.transpose(2, 0, 1, 3)
    return CurvatureTensor(n, comp - cyc / 3.0)


class TestAcceptance:
    def test_1_exotic_s3(self):
        t0 = time.time()
        rc = main(["verify", "exotic-s3", "--samples", "100"])
        elapsed = time.time() - t0
        claims = {c.name: c for c in run_example("exotic-s3", samples=100)}
        checks = [
            rc == 0,
            claims["tau-intrinsic"].worst <= 1e-8,
            claims["tau-horizontal-lift"].worst <= 1e-4,
            claims["mean-curvature"].worst <= 1e-10,
            claims["delta2"].worst <= 1e-6,
            claims["first-bound-equality"].worst <= 1e-6,
            elapsed <= 10.0,
        ]
        _report("1 (exotic S^3)", all(checks),
                f"exit={rc}, tau dev {claims['tau-intrinsic'].worst:.2e}, "
                f"cross-path {claims['tau-horizontal-lift'].worst:.2e}, "
                f"H^2 {claims['mean-curvature'].worst:.2e}, "
                f"delta dev {claims['delta2'].worst:.2e}, "
                f"slack {claims['first-bound-equality'].worst:.2e}, "
                f"{elapsed:.1f}s")

    def test_2_graph_equality_point(self):
        t0 = time.time()
        rc = main(["verify", "graph-8.2", "--samples", "1"])
        claims = {c.name: c for c in run_example("graph-8.2", samples=1)}
        elapsed = time.time() - t0
        checks = [
            rc == 0,
            claims["cubic-coefficients"].worst <= 1e-6,
            abs(claims["mean-curvature-sq"].worst) <= 1e-6,
            abs(claims["delta2"].worst) <= 1e-5,
            abs(claims["improved-bound-equality"].worst) <= 1e-6,
            claims["nonzero-mean-curvature"].worst > 0,
            elapsed <= 5.0,
        ]
        _report("2 (graph equality point)", all(checks),
                f"coeff dev {claims['cubic-coefficients'].worst:.2e}, "
                f"H^2 dev {claims['mean-curvature-sq'].worst:.2e}, "
                f"delta dev {claims['delta2'].worst:.2e}, "
                f"slack {claims['improved-bound-equality'].worst:.2e}, "
                f"{elapsed:.1f}s")

    def test_3_soundness_sweep(self, tmp_path):
        out = tmp_path / "audit.json"
        t0 = time.time()
        rc = main(["audit", "--n", "3..6", "--count", "1000", "--seed", "42",
                   "--out", str(out)])
        elapsed = time.time() - t0
        payload = json.loads(out.read_text())
        pairs = payload["pairs"]
        wanted = {"old", "first", "oprea", "improved", "high-a", "k1"}
        seen = {p["variant"] for p in pairs}
        min_rel = min(p["min_slack_rel"] for p in pairs)
        checks = [
            rc == 0,
            wanted == seen,
            len(pairs) == 49,  # every admissible pairing for n = 3..6
            min_rel >= -1e-9,
            elapsed <= 300.0,
        ]
        _report("3 (soundness sweep)", all(checks),
                f"exit={rc}, {len(pairs)} pairs, min relative slack "
                f"{min_rel:.3e}, {elapsed:.0f}s")

    def test_4_oracle_equivalence(self):
        rng = np.random.default_rng(4040)
        opts = OptimizerOptions(restarts=8, seed=0)

        worst3 = 0.0
        mats = rng.standard_normal((200, 3, 3))
        comps = np.stack([tensor_from_pair_matrix(3, 0.5 * (A + A.T)).components
                          for A in mats])
        vals, _, _ = delta_invariant_batch(comps, DeltaTuple(3, (2,)), opts)
        for s in range(200):
            oracle = oracle_delta_dim3(CurvatureTensor(3, comps[s]))
            worst3 = max(worst3, abs(vals[s] - oracle))

        worst4 = 0.0
        for i in range(50):
            A = rng.standard_normal((6, 6))
            R = tensor_from_pair_matrix(4, 0.5 * (A + A.T))
            tup = DeltaTuple(4, (2,) if i % 2 == 0 else (2, 2))
            from lagdelta.delta import delta_invariant
            v, _, _ = delta_invariant(R, tup, opts)
            g = oracle_delta_grid(R, tup, 40)
            worst4 = max(worst4, abs(v - g))

        checks = [worst3 <= 1e-6, worst4 <= 5e-3]
        _report("4 (oracle equivalence)", all(checks),
                f"n=3 worst {worst3:.2e} (tol 1e-6), "
                f"n=4 worst {worst4:.2e} (tol 5e-3)")

    def test_5_coefficient_identities(self):
        worst_k1 = 0.0
        for n in range(4, 11):
            for n1 in range(2, n):
                tup = DeltaTuple(n, (n1,))
                a_k1, _ = coefficients(V.K1, tup)
                a_imp, _ = coefficients(V.IMPROVED, tup)
                worst_k1 = max(worst_k1, abs(a_k1 - a_imp) / (1 + a_imp))

        ordering_ok = True
        for n in range(4, 11):
            for tup in enumerate_tuples(n):
                if tup.N >= n:
                    continue
                a_old, b_old = coefficients(V.OLD, tup)
                a_imp, b_imp = coefficients(select_improved(tup), tup)
                ordering_ok &= a_imp <= a_old + 1e-12 and b_imp == b_old

        oprea_ok = all(
            coefficients(V.OPREA, DeltaTuple(n, (2,)))[0]
            < coefficients(V.FIRST, DeltaTuple(n, (2,)))[0]
            for n in range(3, 11))

        checks = [worst_k1 <= 1e-14, ordering_ok, oprea_ok]
        _report("5 (coefficient identities)", all(checks),
                f"k1-vs-improved worst {worst_k1:.2e}, "
                f"improved<=old: {ordering_ok}, oprea<first: {oprea_ok}")

    def test_6_equality_synthesis_round_trips(self):
        opts = OptimizerOptions(restarts=8, seed=0)
        cases = [
            (V.OLD, DeltaTuple(5, (2, 2))),
            (V.IMPROVED, DeltaTuple(5, (2,))),
            (V.IMPROVED, DeltaTuple(9, (4, 4))),
            (V.HIGH_A, DeltaTuple(6, (2, 2))),
        ]
        worst_dev = worst_slack = 0.0
        ok_flags = []
        for variant, tup in cases:
            data = synthesize_equality_data(tup, variant, lam=1.0, seed=11)
            det = detect_equality_structure(data.h, tup, variant, tol=1e-12)
            worst_dev = max(worst_dev, det.deviation)
            rep = evaluate(data, variant, tup, opts, eq_tol=1e-9)
            worst_slack = max(worst_slack, abs(rep.slack))
            _, h2 = mean_curvature(data.h)
            if variant in (V.OLD, V.HIGH_A):
                ok_flags.append(h2 == 0.0)
            else:
                ok_flags.append(h2 > 0.0)
        checks = [worst_dev <= 1e-12, worst_slack <= 1e-9, all(ok_flags)]
        _report("6 (equality synthesis round-trips)", all(checks),
                f"pattern dev {worst_dev:.2e}, slack {worst_slack:.2e}, "
                f"H^2 flags {ok_flags}")

    def test_7_flat_hyperplane_family(self):
        t0 = time.time()
        claims = {c.name: c for c in run_example("thm-9.2", samples=50)}
        elapsed = time.time() - t0
        checks = [
            claims["kahler-pullback"].worst <= 1e-8,
            claims["nonminimal"].worst > 0,
            claims["hyperplane-flat-equality"].worst <= 1e-4,
            elapsed <= 30.0,
        ]
        _report("7 (flat hyperplane family)", all(checks),
                f"omega {claims['kahler-pullback'].worst:.2e}, "
                f"min H^2 {claims['nonminimal'].worst:.2e}, "
                f"slack {claims['hyperplane-flat-equality'].worst:.2e}, "
                f"{elapsed:.1f}s")

    def test_8_cp_hyperplane_family(self):
        claims = {c.name: c for c in run_example("thm-9.3", samples=20)}
        ratio = claims["integrator-order"].worst
        checks = [
            claims["integrator-residual"].worst <= 1e-9,
            10.0 < ratio < 25.0,
            claims["horizontality"].worst <= 1e-6,
            claims["hyperplane-cp-equality"].worst <= 1e-3,
        ]
        _report("8 (projective hyperplane family)", all(checks),
                f"residual {claims['integrator-residual'].worst:.2e}, "
                f"order ratio {ratio:.1f}, "
                f"horizontality {claims['horizontality'].worst:.2e}, "
                f"slack {claims['hyperplane-cp-equality'].worst:.2e}")
