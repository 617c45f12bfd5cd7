"""The stack contract of chart evaluators and batched extraction.

Evaluators map (..., n) arrays of chart points to (..., K) arrays, and
``induced_data`` differences a whole stack with one evaluator call per
stencil.  The references below are the per-point evaluators the built-in
charts had before they took stacks, frozen here: each stacked evaluator
must give their bits row by row.
"""

import math

import numpy as np
import pytest

from lagdelta import gallery, immersions
from lagdelta.cli import main
from lagdelta.exceptions import ChartDomainError, HorizontalityError
from lagdelta.immersions import (ImmersionChart, clifford_legendrian,
                                 exotic_s3_horizontal_chart, graph_immersion,
                                 horizontality_residual, induced_data,
                                 lagrangian_residual,
                                 legendrian_minimality_residual)
from lagdelta.numdiff import jacobian, second_derivatives


# ---------------------------------------------------------------------------
# frozen per-point references
# ---------------------------------------------------------------------------

def reference_graph(tup, lam=1.0):
    n, m = tup.n, tup.N
    blocks = tup.blocks()

    def grad(x):
        g = np.zeros(n)
        for block in blocks:
            q = len(block)
            coef = 3 * lam / (2 + q)
            for a in block:
                g[a] = coef * x[a] * x[m]
            g[m] += 3 * lam / (2 * (2 + q)) * sum(x[a] ** 2 for a in block)
        g[m] += 1.5 * lam * x[m] ** 2
        g[m] += 0.5 * lam * sum(x[r] ** 2 for r in range(m + 1, n))
        for r in range(m + 1, n):
            g[r] = lam * x[m] * x[r]
        return g

    return lambda x: x + 1j * np.asarray(grad(x), dtype=float)


def reference_clifford(m):
    A = np.zeros((m, m - 1))
    for j in range(m - 1):
        A[j, j] = 1.0
        A[j + 1, j] = -1.0
    return lambda u: np.exp(1j * (A @ u)) / np.sqrt(m)


def reference_flat(n, b, legendrian):
    def scalar(lmb):
        arg = (n + 1) * b * lmb ** (n / (1.0 - n))
        phase = -(n + 1) / n * np.arcsin(1.0 / arg)
        rad = b * b * lmb ** (2.0 / (1.0 - n)) - lmb * lmb / (n + 1) ** 2
        mu = np.sqrt(rad)
        return (n + 1) * np.exp(-1j * phase) / ((n + 1) * mu + 1j * lmb)

    return lambda x: scalar(float(x[0])) * legendrian(x[1:])


def _reference_rhs(n, theta, lam, mu):
    return (-lam / (n + 1), (n - 1) * lam * mu,
            -1.0 - mu * mu - n * lam * lam / (n + 1) ** 2)


def _reference_rk4(n, y, h):
    t0, l0, m0 = y
    a1, b1, c1 = _reference_rhs(n, t0, l0, m0)
    a2, b2, c2 = _reference_rhs(n, t0 + 0.5 * h * a1, l0 + 0.5 * h * b1,
                                m0 + 0.5 * h * c1)
    a3, b3, c3 = _reference_rhs(n, t0 + 0.5 * h * a2, l0 + 0.5 * h * b2,
                                m0 + 0.5 * h * c2)
    a4, b4, c4 = _reference_rhs(n, t0 + h * a3, l0 + h * b3, m0 + h * c3)
    return (t0 + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4),
            l0 + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4),
            m0 + h / 6.0 * (c1 + 2 * c2 + 2 * c3 + c4))


def reference_cp(n, traj, legendrian):
    def state(t):
        k = min(max(math.floor((t - traj.t0) / traj.step), 0),
                len(traj.states) - 1)
        y = tuple(traj.states[k].tolist())
        dt = t - (traj.t0 + k * traj.step)
        return _reference_rk4(n, y, dt) if abs(dt) > 1e-15 else y

    def evaluator(x):
        theta, lam, mu = state(float(x[0]))
        denom = np.sqrt(1.0 + mu ** 2 + lam ** 2 / (n + 1) ** 2)
        head = np.exp(-1j * theta) * legendrian(x[1:]) / denom
        tail = (1j * lam / (n + 1) - mu) * np.exp(-1j * n * theta) / denom
        return np.concatenate([head, [tail]])

    return evaluator


def reference_exotic():
    sqrt3 = np.sqrt(3.0)

    def evaluator(u):
        r2 = float(u @ u)
        y = np.array([np.sqrt(1.0 - r2), u[0], u[1], u[2]])
        a = y[0] + 1j * y[1]
        bq = y[2] + 1j * y[3]
        w = np.array([a ** 3, sqrt3 * a * a * bq, sqrt3 * a * bq * bq,
                      bq ** 3])
        p, q = w.real, w.imag
        return np.array([p[0] + 1j * p[3], q[0] - 1j * q[3],
                         p[1] - 1j * p[2], q[1] + 1j * q[2]])

    return evaluator


def built_in_charts():
    """(chart, per-point reference) for every built-in chart."""
    clifford3 = reference_clifford(3)
    return {
        "graph-8.2": (gallery.GALLERY["graph-8.2"].chart(),
                      reference_graph(gallery._GRAPH_TUPLE)),
        "clifford-2": (clifford_legendrian(2), reference_clifford(2)),
        "clifford-3": (clifford_legendrian(3), clifford3),
        "clifford-5": (clifford_legendrian(5), reference_clifford(5)),
        "thm-9.2": (gallery.GALLERY["thm-9.2"].chart(),
                    reference_flat(3, gallery._FLAT_B, clifford3)),
        "thm-9.3": (gallery.GALLERY["thm-9.3"].chart(),
                    reference_cp(3, gallery._cp_profile(gallery._CP_STEP),
                                 clifford3)),
        "exotic-s3": (exotic_s3_horizontal_chart(), reference_exotic()),
    }


CHARTS = built_in_charts()


def domain_points(chart, count, seed):
    return gallery._mesh_rows(chart, count, seed)


# ---------------------------------------------------------------------------
# the evaluator contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CHARTS))
def test_stacked_evaluator_is_bit_equal_to_reference(name):
    chart, reference = CHARTS[name]
    X = domain_points(chart, 200, 17)
    expected = np.array([reference(x) for x in X])
    assert np.array_equal(chart.evaluator(X), expected)
    assert all(np.array_equal(chart.evaluator(x), e)
               for x, e in zip(X[:20], expected))
    # a stencil-shaped stack, (S, m, n), as numdiff builds it
    Y = X[:30, None, :] + 1e-4 * np.eye(chart.n)
    nested = np.array([[reference(y) for y in row] for row in Y])
    assert np.array_equal(chart.evaluator(Y), nested)


@pytest.mark.parametrize("name", ["graph-8.2", "exotic-s3", "thm-9.2",
                                  "thm-9.3"])
def test_stacked_extraction_equals_single_points(name):
    chart = gallery.GALLERY[name].chart()
    X = domain_points(chart, 12, 5)
    stacked = induced_data(chart, X)
    assert isinstance(stacked, list) and len(stacked) == len(X)
    for x, got in zip(X, stacked):
        one = induced_data(chart, x)
        assert np.array_equal(got.data.h, one.data.h)
        assert got.data.c == one.data.c and got.data.source == chart.name
        assert got.symmetry_deviation == one.symmetry_deviation
        assert got.horizontality_residual == one.horizontality_residual


def test_chunked_extraction_equals_whole(monkeypatch):
    chart = gallery.GALLERY["thm-9.3"].chart()
    X = domain_points(chart, 7, 2)
    whole = induced_data(chart, X)
    monkeypatch.setattr(immersions, "_CHUNK_ELEMENTS", 3 * 19 * 3)
    chunked = induced_data(chart, X)
    assert all(np.array_equal(a.data.h, b.data.h)
               for a, b in zip(whole, chunked))


@pytest.mark.parametrize("name", ["graph-8.2", "thm-9.2"])
def test_residuals_take_stacks(name):
    chart = gallery.GALLERY[name].chart()
    X = domain_points(chart, 9, 1)
    assert lagrangian_residual(chart, X) == max(
        lagrangian_residual(chart, x) for x in X)


def test_sphere_residuals_take_stacks():
    chart = clifford_legendrian(4)
    X = np.random.default_rng(2).uniform(-1, 1, size=(6, 3))
    assert horizontality_residual(chart, X) == max(
        horizontality_residual(chart, x) for x in X)
    assert legendrian_minimality_residual(chart, X) == max(
        legendrian_minimality_residual(chart, x) for x in X)


def test_per_point_evaluator_is_refused():
    # ``A @ x`` is a gradient of one point; on a stack of three points it
    # multiplies the wrong axis and returns other rows without an error
    A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 0.7]])
    chart = graph_immersion(lambda x: A @ x, 3, name="per-point-grad")
    X = np.array([[0.1, 0.2, 0.3], [-0.2, 0.1, 0.0], [0.3, -0.1, 0.2]])
    with pytest.raises(ValueError, match="per-point-grad"):
        induced_data(chart, X)
    stacked = graph_immersion(lambda x: x @ A.T, 3, name="stacked-grad")
    assert len(induced_data(stacked, X)) == 3


# ---------------------------------------------------------------------------
# a failing row
# ---------------------------------------------------------------------------

def patchy(x):
    """A flat chart: the real plane, cubed in x0 so that its metric
    degenerates at x0 = 0, and twisted out of being Lagrangian past
    x0 = 0.5."""
    x = np.asarray(x, dtype=float)
    twist = np.maximum(x[..., 0] - 0.5, 0.0) ** 3
    return np.stack([x[..., 0] ** 3 + 1j * twist * x[..., 1],
                     x[..., 1] + 0j], axis=-1)


def tilted_sphere(u):
    """A Legendrian great sphere, turned along the fibre past u0 = 0.5, so
    it stops being horizontal there."""
    u = np.asarray(u, dtype=float)
    r = np.sqrt(1.0 - np.sum(u * u, axis=-1, keepdims=True))
    turn = np.exp(1j * np.maximum(u[..., :1] - 0.5, 0.0) ** 3)
    return np.concatenate([r, u], axis=-1) * turn


PATCHY = ImmersionChart(2, "flat", patchy, [[-1, 1], [-1, 1]], name="patchy")
TILTED = ImmersionChart(2, "sphere", tilted_sphere, [[-0.9, 0.9]] * 2,
                        name="tilted")
OK, DEGENERATE, TWISTED, OUTSIDE = ([0.3, 0.1], [0.0, 0.2], [0.9, 0.3],
                                    [5.0, 0.0])


def single_error(chart, x):
    with pytest.raises(ValueError) as info:
        induced_data(chart, np.array(x))
    return info.value


@pytest.mark.parametrize("chart,rows,bad", [
    (PATCHY, [OK, TWISTED, OK, OUTSIDE], TWISTED),
    (PATCHY, [OK, DEGENERATE, TWISTED], DEGENERATE),
    (PATCHY, [OK, OUTSIDE, TWISTED], OUTSIDE),
    (PATCHY, [OK, OK, OK, TWISTED], TWISTED),
    (TILTED, [[0.1, 0.1], [0.8, 0.1], [2.0, 0.0]], [0.8, 0.1]),
    (TILTED, [[0.1, 0.1], [0.2, -0.3], [2.0, 0.0]], [2.0, 0.0]),
])
@pytest.mark.parametrize("budget", [None, 1])
def test_stack_raises_first_failing_row(monkeypatch, chart, rows, bad,
                                        budget):
    if budget is not None:  # two rows per chunk
        monkeypatch.setattr(immersions, "_CHUNK_ELEMENTS", budget)
    expected = single_error(chart, bad)
    with pytest.raises(type(expected)) as info:
        induced_data(chart, np.array(rows))
    assert str(info.value) == str(expected)


def test_failure_kinds():
    assert type(single_error(PATCHY, DEGENERATE)) is ValueError
    assert "degenerate" in str(single_error(PATCHY, DEGENERATE))
    assert "symmetry deviation" in str(single_error(PATCHY, TWISTED))
    assert isinstance(single_error(PATCHY, OUTSIDE), ChartDomainError)
    assert isinstance(single_error(TILTED, [0.8, 0.1]), HorizontalityError)


def test_evaluator_domain_errors_on_stacks():
    chart = gallery.GALLERY["thm-9.2"].chart()
    X = np.array([[1.0, 0.0, 0.0], [-0.5, 0.0, 0.0], [10.0, 0.0, 0.0]])
    with pytest.raises(ChartDomainError, match="lambda must be positive"):
        chart.evaluator(X)
    with pytest.raises(ChartDomainError, match="inverse-cosecant|modulus"):
        chart.evaluator(X[[0, 2, 1]])


# ---------------------------------------------------------------------------
# finite differences of a quadratic map
# ---------------------------------------------------------------------------

def quadratic(n, K, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(K, n, n)) + 1j * rng.normal(size=(K, n, n))
    b = rng.normal(size=(K, n)) + 1j * rng.normal(size=(K, n))

    def f(x):
        return np.einsum("...i,kij,...j->...k", x, A, x) + x @ b.T

    hess = A + A.transpose(0, 2, 1)
    return f, hess, b


@pytest.mark.parametrize("n", [2, 3, 5])
def test_differences_of_a_quadratic_are_exact_to_rounding(n):
    f, hess, b = quadratic(n, 4, n)
    X = np.random.default_rng(10 + n).uniform(-1, 1, size=(6, n))
    scale = np.abs(f(X)).max() + np.abs(f(X[:, None, :] + np.eye(n))).max()
    eps = np.finfo(float).eps
    J = jacobian(f, X, h=1e-5)
    exact = np.einsum("kij,sj->ski", hess, X) + b
    assert J.shape == (6, 4, n) and J.flags.c_contiguous
    assert np.abs(J - exact).max() <= 8 * eps * scale / 1e-5
    D = second_derivatives(f, X, h=1e-4)
    assert D.shape == (6, 4, n, n)
    assert np.abs(D - hess).max() <= 16 * eps * scale / 1e-4 ** 2
    assert np.array_equal(D, D.swapaxes(-1, -2))
    # a row of the stack is that point alone, to the bit; so is a scalar map
    assert np.array_equal(J[2], jacobian(f, X[2], h=1e-5))
    assert np.array_equal(D[2], second_derivatives(f, X[2], h=1e-4))
    g = lambda x: f(x)[..., 0].real  # noqa: E731
    assert np.array_equal(second_derivatives(g, X)[3],
                          second_derivatives(g, X[3]))
    assert second_derivatives(g, X).shape == (6, n, n)


# ---------------------------------------------------------------------------
# evaluator-call budget
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, chart) -> list:
    calls = []
    evaluator = chart.evaluator

    def counted(x):
        calls.append(np.shape(x))
        return evaluator(x)

    monkeypatch.setattr(chart, "evaluator", counted)
    return calls


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
@pytest.mark.parametrize("budget", [None, 3 * 19 * 5])
def test_extraction_call_budget(monkeypatch, name, budget):
    chart = gallery.GALLERY[name].chart()
    X = domain_points(chart, 40, 3)
    if budget is not None:
        monkeypatch.setattr(immersions, "_CHUNK_ELEMENTS", budget)
    size = max(2, immersions._CHUNK_ELEMENTS
               // ((2 * chart.n ** 2 + 1) * chart.n))
    chunks = -(-len(X) // size)
    calls = count_calls(monkeypatch, chart)
    induced_data(chart, X)
    # centre, Jacobian stencil and second-difference stencil per chunk,
    # and the first two rows alone (the stacking check)
    assert len(calls) <= 3 * chunks + 2
    assert sum(shape == (chart.n,) for shape in calls) == 2


@pytest.mark.parametrize("samples", [50, 400])
def test_verify_pass_calls_per_sample_set(tmp_path, monkeypatch, samples):
    chart = gallery.GALLERY["thm-9.2"].chart()
    calls = count_calls(monkeypatch, chart)
    assert main(["verify", "thm-9.2", "--samples", str(samples),
                 "--out", str(tmp_path / "report.json"),
                 "--mesh-out", str(tmp_path / "mesh.csv")]) == 0
    # the Kahler residual's stencil, one extraction of the claim points
    # (the mesh points are among them) and the mesh rows' values
    assert len(calls) == 7
