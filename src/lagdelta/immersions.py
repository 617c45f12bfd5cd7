"""Explicit Lagrangian immersions and pointwise data extraction.

Charts evaluate into complex coordinates: flat ambient means C^n with the
standard complex structure (c = 0); sphere ambient means the unit sphere
in C^(n+1), whose horizontal immersions project to Lagrangian submanifolds
of the holomorphic-sectional-curvature-4 projective space (c = 1).  All
projective-space geometry is computed through horizontal representatives,
which is exact for horizontal immersions.

Evaluators work on stacks: an (..., n) array of chart points maps to an
(..., K) complex array, and one point is an (n,) array.  Extraction and
the residual checks difference a whole stack with one evaluator call per
stencil (``numdiff``), in chunks of at most ``_CHUNK_ELEMENTS`` stencil
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

import numpy as np

from .cubic import LagrangianPointData, mean_curvature, symmetrize_cubic
from .exceptions import (ChartDomainError, HorizontalityError,
                         NotPositiveDefinite)
from .frames import CurvatureTensor, gram_schmidt
from .numdiff import jacobian as fd_jacobian
from .numdiff import second_derivatives

__all__ = [
    "ImmersionChart",
    "ExtractedData",
    "graph_immersion",
    "equality_graph_function",
    "induced_data",
    "lagrangian_residual",
    "horizontality_residual",
    "clifford_legendrian",
    "legendrian_minimality_residual",
    "flat_equality_chart",
    "OdeState",
    "Trajectory",
    "ode_family_integrate",
    "trajectory_residuals",
    "cp_equality_chart",
    "exotic_s3_horizontal_chart",
    "intrinsic_curvature_fd",
]

# The exotic chart's half-width, the intrinsic curvature's difference step,
# and the largest raw cubic symmetry deviation (flat, sphere charts) and
# horizontality residual that data extraction accepts.
_EXOTIC_EXTENT = 0.35
_CURVATURE_FD_STEP = 5e-3
_FLAT_SYMMETRY_TOL = 1e-5
_SPHERE_SYMMETRY_TOL = 1e-4
_HORIZONTALITY_TOL = 1e-6
# Stencil coordinates differenced per evaluator call: a stack is cut into
# chunks of rows whose stencil points hold at most this many floats, so the
# evaluator's temporaries stay a few MB however many points are sampled.
_CHUNK_ELEMENTS = 1 << 16


def _raise_first(checks) -> None:
    """Raise the error of the first failing row, if any.

    ``checks`` lists (mask, error) pairs in the order one point is checked;
    the masks share a shape, read as rows in C order, and ``error(r)``
    builds the exception for row r.  A row's first failed check wins, so a
    stack raises what checking its rows one by one would.
    """
    if not checks:
        return
    masks = np.stack([np.ravel(mask) for mask, _ in checks])
    failed = masks.any(axis=0)
    if failed.any():
        r = int(np.argmax(failed))
        raise checks[int(np.argmax(masks[:, r]))][1](r)


def _pow(base, exponent: float) -> np.ndarray:
    """``base ** exponent`` elementwise, rounded as a Python float's power.

    numpy's array power takes other paths (its ``x ** 2`` is ``x * x``,
    other exponents a SIMD kernel) that differ from it in the last bit on
    0.1 to 5% of inputs, and a second difference amplifies one ulp 1e8
    fold; the charts keep the rounding of their single-point formulas.
    """
    base = np.asarray(base, dtype=float)
    return np.fromiter((v ** exponent for v in base.ravel().tolist()),
                       float, base.size).reshape(base.shape)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products of stacked vectors, rounded as ``a @ b`` rounds
    one pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product in real arithmetic, rounded as numpy rounds two
    complex scalars (its array loop fuses multiply and add)."""
    return ((a.real * b.real - a.imag * b.imag)
            + 1j * (a.real * b.imag + a.imag * b.real))


def _chunks(X: np.ndarray, stencil_points: int):
    """Consecutive row blocks of the (S, n) stack X whose stencils of
    ``stencil_points`` points per row fit in ``_CHUNK_ELEMENTS``; at least
    two rows each, so the first block holds the rows that
    ``_check_stacking`` compares."""
    size = max(2, _CHUNK_ELEMENTS // (stencil_points * X.shape[1]))
    return (X[lo:lo + size] for lo in range(0, len(X), size))


@dataclass
class ImmersionChart:
    """A parametric immersion, differentiated by central differences.

    ``evaluator`` maps an (..., n) array of chart points to an (..., K)
    complex array of ambient vectors; ``step`` is the central-difference
    step per axis of its second derivatives (first derivatives use at most
    1e-5).  Methods take one point (n,) or an (S, n) stack.
    """

    n: int
    ambient: str  # "flat" or "sphere"
    evaluator: Callable[[np.ndarray], np.ndarray]
    domain: np.ndarray
    step: float = 1e-4
    name: str = ""

    def __post_init__(self):
        if self.ambient not in ("flat", "sphere"):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        self.domain = np.asarray(self.domain, dtype=float).reshape(self.n, 2)

    def _rows(self, x) -> np.ndarray:
        """x, one point or an (S, n) stack, as an (S, n) stack."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ChartDomainError(f"chart point must have {self.n} "
                                   f"coordinates, got shape {x.shape}")
        return x.reshape(-1, self.n)

    def _outside(self, X: np.ndarray, margin: float) -> np.ndarray:
        """Per row of the stack X: is it outside the shrunk domain?"""
        return ((X < self.domain[:, 0] + margin)
                | (X > self.domain[:, 1] - margin)).any(axis=1)

    def check_domain(self, x: np.ndarray, margin: float = 0.0):
        X = self._rows(x)
        lo = self.domain[:, 0] + margin
        hi = self.domain[:, 1] - margin

        def error(r):
            a = int(np.flatnonzero((X[r] < lo) | (X[r] > hi))[0])
            return ChartDomainError(
                f"coordinate {a} = {X[r, a]:.6g} outside "
                f"[{lo[a]:.6g}, {hi[a]:.6g}] (margin {margin:g})")

        _raise_first([(self._outside(X, margin), error)])

    def _norm_checks(self, value: np.ndarray) -> list:
        """The unit-norm check of a sphere chart's values, per row."""
        if self.ambient != "sphere":
            return []
        nrm = np.ravel(np.sqrt(_dot(value.real, value.real)
                               + _dot(value.imag, value.imag)))
        return [(np.abs(nrm - 1.0) > 1e-10, lambda r: ValueError(
            f"sphere chart {self.name!r} returned a point with "
            f"|L| = {nrm[r]!r}"))]

    def eval(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self.check_domain(x)
        value = np.asarray(self.evaluator(x), dtype=complex)
        _raise_first(self._norm_checks(value))
        return value

    def jac(self, x: np.ndarray) -> np.ndarray:
        return fd_jacobian(self.evaluator, x, h=min(self.step, 1e-5))


@dataclass
class ExtractedData:
    """Pointwise data plus the extraction's consistency residuals; the
    horizontality residual is None for a flat chart."""

    data: LagrangianPointData
    symmetry_deviation: float
    horizontality_residual: float | None = None


def _chunked_max(chart: ImmersionChart, x, stencil_points: int,
                 worst: Callable) -> float:
    """Max of ``worst(rows)`` over the chunks of the stack x."""
    return max(worst(rows)
               for rows in _chunks(chart._rows(x), stencil_points))


def _kahler(dL: np.ndarray) -> float:
    """Max |omega(d_i, d_j)| over a stack of Jacobians."""
    gram = np.einsum("ski,skj->sij", dL.conj(), dL)
    return float(np.abs(gram.imag).max())


def lagrangian_residual(chart: ImmersionChart, x: np.ndarray) -> float:
    """Pullback of the ambient Kahler form: max |omega(d_i, d_j)| over one
    point or an (S, n) stack."""
    return _chunked_max(chart, x, 2 * chart.n,
                        lambda rows: _kahler(chart.jac(rows)))


def _horizontality(L: np.ndarray, dL: np.ndarray) -> np.ndarray:
    """Per row: max over chart axes of |<dL_a, i L>|."""
    return np.abs(np.einsum("ska,sk->sa", dL, L.conj()).imag).max(axis=1)


def horizontality_residual(chart: ImmersionChart, x: np.ndarray) -> float:
    """Max over chart axes of |<dL_a, i L>|, and over the points of a
    stack, at sphere-chart points."""
    return _chunked_max(chart, x, 2 * chart.n, lambda rows: float(
        _horizontality(chart.eval(rows), chart.jac(rows)).max()))


def _frames(gram: np.ndarray):
    """``frames.gram_schmidt`` of each matrix of an (S, n, n) stack, by
    the same operations in the same order, so each frame has the same
    bits; its two checks come back as (mask, error) pairs."""
    S, n = gram.shape[:2]
    cols = np.zeros((S, n, n))
    failed = np.zeros(S, dtype=int)  # first failing leading minor, or 0
    for k in range(n):
        v = np.zeros((S, n))
        v[:, k] = 1.0
        for _ in range(2):
            for j in range(k):
                c = cols[:, :, j]
                v -= _dot((c[:, None, :] @ gram)[:, 0], v)[:, None] * c
        nrm2 = _dot((v[:, None, :] @ gram)[:, 0], v)
        bad = (nrm2 <= 1e-13 * gram[:, k, k]) | ~np.isfinite(nrm2)
        failed[bad & (failed == 0)] = k + 1
        cols[:, :, k] = v / np.sqrt(np.where(bad, 1.0, nrm2))[:, None]
    resid = np.abs(cols.transpose(0, 2, 1) @ gram @ cols
                   - np.eye(n)).max(axis=(1, 2))
    return cols, [
        (failed > 0, lambda r: NotPositiveDefinite(int(failed[r]))),
        (resid > 1e-10, lambda r: ValueError(
            f"frame is not orthonormal for gram: residual {resid[r]:.3e}"))]


def _raw_cubic(chart: ImmersionChart, X: np.ndarray, dL: np.ndarray):
    """Per row of the stack X, the coefficients <d2 L(e_B, e_C), i dL(e_A)>
    in the induced orthonormal frame, before symmetrization; and the
    metric's checks as (mask, error) pairs."""
    # a strided view, as a single point's metric was: the products taken
    # of it round by memory layout
    metric = np.einsum("ski,skj->sij", dL.conj(), dL).real
    eigs = np.linalg.eigvalsh(metric)[:, 0]
    frame, frame_checks = _frames(metric)
    checks = [(eigs < 1e-10, lambda r: ValueError(
        f"induced metric is degenerate: min eigenvalue {eigs[r]:.3e}"))]
    d2 = second_derivatives(chart.evaluator, X, h=chart.step)
    tangents = dL @ frame  # columns: orthonormal frame in ambient coords
    d2f = np.einsum("skbc,sbB,scC->skBC", d2, frame, frame)
    raw = np.einsum("skBC,skA->sABC", d2f, tangents.conj()).imag
    return raw, checks + frame_checks


def _check_stacking(chart: ImmersionChart, X: np.ndarray,
                    values: np.ndarray):
    """The evaluator contract on the first two rows: a row of the stack's
    values is that point's own value.  An evaluator written for one point
    (say ``lambda x: A @ x`` in a gradient) can return other rows on a
    stack without any error."""
    for i in range(min(2, len(X))):
        one = np.asarray(chart.evaluator(X[i]), dtype=complex)
        if (one.shape != values.shape[1:]
                or not np.array_equal(one, values[i], equal_nan=True)):
            raise ValueError(
                f"chart {chart.name!r}: the evaluator's value at row {i} of "
                f"a stack differs from its value at that point alone; an "
                f"evaluator must map (..., n) arrays of points to (..., K) "
                f"arrays")


def _symmetry_deviations(raw: np.ndarray) -> np.ndarray:
    """Per row: max deviation of an (S, n, n, n) stack from symmetry under
    the permutations of its last three axes."""
    return np.max([np.abs(raw - raw.transpose(0, *p)).max(axis=(1, 2, 3))
                   for p in list(permutations((1, 2, 3)))[1:]], axis=0)


def _extract(chart: ImmersionChart, X: np.ndarray,
             guard: bool) -> list[ExtractedData]:
    """``induced_data`` of one chunk of rows, all inside the domain."""
    sphere = chart.ambient == "sphere"
    checks = []
    if sphere or guard:
        L = np.asarray(chart.evaluator(X), dtype=complex)
        if guard:
            _check_stacking(chart, X, L)
    dL = chart.jac(X)
    resid = [None] * len(X)
    if sphere:
        resid = _horizontality(L, dL)
        checks += chart._norm_checks(L)
        checks.append((resid > _HORIZONTALITY_TOL,
                       lambda r: HorizontalityError(resid[r])))
    raw, cubic_checks = _raw_cubic(chart, X, dL)
    dev = _symmetry_deviations(raw)
    tol = _SPHERE_SYMMETRY_TOL if sphere else _FLAT_SYMMETRY_TOL
    checks += cubic_checks
    checks.append((dev > tol, lambda r: ValueError(
        f"cubic symmetry deviation {dev[r]:.3e} exceeds {tol:.1e}; the "
        f"chart point is not consistent Lagrangian data")))
    _raise_first(checks)
    c = 1.0 if sphere else 0.0
    return [ExtractedData(
        LagrangianPointData(chart.n, c, h, source=chart.name), float(d),
        None if r is None else float(r))
        for h, d, r in zip(symmetrize_cubic(raw), dev, resid)]


def induced_data(chart: ImmersionChart, x: np.ndarray):
    """Pointwise data at a chart point: c = 0 for a flat chart, and c = 1
    for the Hopf projection of a horizontal sphere chart.

    The totally symmetric cubic coefficients come from pairing ambient
    second derivatives with i times the tangent frame; their raw symmetry
    deviation is the Lagrangian consistency check.  On a sphere chart,
    horizontality is checked, not assumed, and reported; the projected
    metric is then the pullback metric.  The chart is differentiated once.

    One point (n,) gives one ExtractedData; an (S, n) stack gives a list
    of S, with one evaluator call per stencil per chunk of rows.  Every
    check runs on the whole stack, and a failing stack raises the error of
    its first failing row, as extracting row by row would.  The first two
    rows are also evaluated alone, to check the evaluator contract.
    """
    X = chart._rows(x)
    margin = 2 * chart.step
    outside = chart._outside(X, margin)
    stop = int(np.argmax(outside)) if outside.any() else len(X)
    out = []
    for rows in _chunks(X[:stop], 2 * chart.n ** 2 + 1):
        out += _extract(chart, rows, guard=not out)
    chart.check_domain(X, margin)  # the error of row `stop`, if any
    return out if np.ndim(x) == 2 else out[0]


# ---------------------------------------------------------------------------
# gradient graphs in C^n
# ---------------------------------------------------------------------------

def graph_immersion(grad, n, domain=None, name="graph") -> ImmersionChart:
    """Lagrangian gradient graph x -> x + i grad F(x), for the gradient
    ``grad`` of a potential F on n coordinates; like the evaluator, it
    maps (..., n) arrays of points to (..., n) arrays.

    The pullback of the Kahler form vanishes identically for gradient
    graphs.  The evaluator is exact; derivatives are central differences
    of it.  The domain defaults to the cube [-1, 1]^n.
    """
    if domain is None:
        domain = np.array([[-1.0, 1.0]] * n)

    def evaluator(x):
        return x + 1j * np.asarray(grad(x), dtype=float)

    return ImmersionChart(n, "flat", evaluator, domain, name=name)


def equality_graph_function(tup, lam: float = 1.0):
    """The gradient of the potential whose gradient graph attains the
    improved bound at 0,

    F = sum_i 3 lam / (2 (2 + n_i)) * sum_{a in block i} x_a^2 x_m
        + (lam / 2) * x_m * sum_{r >= m} x_r^2,   m = N (0-based),

    as an analytic function of x, on (..., n) arrays of points.
    """
    n, N = tup.n, tup.N
    blocks = tup.blocks()
    m = N

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape)
        xm = x[..., m]
        for block in blocks:
            q = len(block)
            coef = 3 * lam / (2 + q)
            for a in block:
                g[..., a] = coef * x[..., a] * xm
            g[..., m] += 3 * lam / (2 * (2 + q)) * sum(_pow(x[..., a], 2)
                                                       for a in block)
        g[..., m] += 1.5 * lam * _pow(xm, 2)
        g[..., m] += 0.5 * lam * sum(_pow(x[..., r], 2)
                                     for r in range(m + 1, n))
        for r in range(m + 1, n):
            g[..., r] = lam * xm * x[..., r]
        return g

    return grad


# ---------------------------------------------------------------------------
# Legendrian tori and the hyperplane-tuple equality families
# ---------------------------------------------------------------------------

def clifford_legendrian(m: int) -> ImmersionChart:
    """Flat Legendrian torus u -> exp(i A u) / sqrt(m) in the unit sphere
    of C^m, with integer phase columns A[:, j] = e_j - e_{j+1}.

    Each column sums to zero, which makes the immersion horizontal; the
    projected torus is the standard minimal Lagrangian torus.  Both
    properties are verified numerically at construction.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    A = np.zeros((m, m - 1))
    for j in range(m - 1):
        A[j, j] = 1.0
        A[j + 1, j] = -1.0

    def evaluator(u):
        return np.exp(1j * (np.asarray(u) @ A.T)) / np.sqrt(m)

    domain = np.array([[-8.0, 8.0]] * (m - 1))
    chart = ImmersionChart(m - 1, "sphere", evaluator, domain, step=1e-4,
                           name=f"clifford-legendrian-{m}")
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(5, m - 1))
    horiz = horizontality_residual(chart, pts)
    if horiz > 1e-10:
        raise HorizontalityError(horiz)
    minim = legendrian_minimality_residual(chart, pts)
    if minim > 1e-6:
        raise ValueError(f"legendrian torus failed the minimality check: "
                         f"residual {minim:.3e}")
    return chart


def _minimality(chart: ImmersionChart, X: np.ndarray) -> float:
    raw, checks = _raw_cubic(chart, X, chart.jac(X))
    _raise_first(checks)
    return float(np.sqrt(mean_curvature(raw)[1]).max())


def legendrian_minimality_residual(chart: ImmersionChart, points) -> float:
    """|H| of the Hopf-projected immersion, max over sample points.

    Works for any chart dimension (including curves), so it can certify
    minimality of Legendrian inputs before they are fed to the families.
    """
    return _chunked_max(chart, np.atleast_2d(points), 2 * chart.n ** 2 + 1,
                        lambda rows: _minimality(chart, rows))


def flat_equality_chart(n: int, b: float,
                        legendrian: ImmersionChart) -> ImmersionChart:
    """Non-minimal family in C^n attaining the hyperplane-tuple bound.

    ``L(lmb, u) = (n+1) exp(-i phase(lmb)) / ((n+1) mu(lmb) + i lmb) * phi(u)``
    with ``phase = -((n+1)/n) arccsc((n+1) b lmb^(n/(1-n)))`` and
    ``mu = sqrt(b^2 lmb^(2/(1-n)) - lmb^2/(n+1)^2)``.  The admissible
    lambda interval is open; violations raise naming the failed constraint.
    The arccsc branch is the principal one (continuous on the interval).
    """
    if b <= 0:
        raise ValueError("b must be positive")
    if legendrian.n != n - 1 or legendrian.ambient != "sphere":
        raise ValueError("need a Legendrian chart with n-1 parameters in "
                         "the unit sphere of C^n")
    lam_max = ((n + 1) * b) ** ((n - 1) / n)

    def scalar(lmb: np.ndarray) -> np.ndarray:
        nonpositive = lmb <= 0
        safe = np.where(nonpositive, 1.0, lmb)
        arg = (n + 1) * b * _pow(safe, n / (1.0 - n))
        rad = (b * b * _pow(safe, 2.0 / (1.0 - n))
               - lmb * lmb / (n + 1) ** 2)
        _raise_first([
            (nonpositive, lambda r: ChartDomainError(
                "lambda must be positive")),
            (np.abs(arg) < 1.0, lambda r: ChartDomainError(
                f"inverse-cosecant argument {arg.flat[r]:.6g} below 1 "
                f"(lambda past {lam_max:.6g})")),
            (rad <= 0, lambda r: ChartDomainError(
                f"modulus radicand {rad.flat[r]:.6g} nonpositive "
                f"(lambda past {lam_max:.6g})"))])
        phase = -(n + 1) / n * np.arcsin(1.0 / arg)
        mu = np.sqrt(rad)
        return (n + 1) * np.exp(-1j * phase) / ((n + 1) * mu + 1j * lmb)

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        return (scalar(x[..., 0])[..., None]
                * legendrian.evaluator(x[..., 1:]))

    domain = np.vstack([[0.2 * lam_max, 0.85 * lam_max],
                        legendrian.domain])
    return ImmersionChart(n, "flat", evaluator, domain, step=1e-4,
                          name=f"flat-hyperplane-family-n{n}")


# ---------------------------------------------------------------------------
# the projective-space family and its profile ODE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeState:
    """A state of the profile system; ``Trajectory.state_at`` fills it
    with arrays when asked for an array of times."""

    t: float
    theta: float
    lam: float
    mu: float

    def __post_init__(self):
        if np.any(np.equal(self.lam, 0)):
            raise ValueError("lambda must be nonzero")


def _family_rhs(n: int, theta, lam, mu) -> tuple:
    """The profile system's right-hand side, of floats or arrays alike."""
    return (-lam / (n + 1),
            (n - 1) * lam * mu,
            -1.0 - mu * mu - n * lam * lam / (n + 1) ** 2)


def _rk4_step(n: int, y: tuple, h) -> tuple:
    """One RK4 step of size h from y = (theta, lam, mu), on Python floats
    or, elementwise with the same rounding, on arrays."""
    t0, l0, m0 = y
    a1, b1, c1 = _family_rhs(n, t0, l0, m0)
    a2, b2, c2 = _family_rhs(n, t0 + 0.5 * h * a1, l0 + 0.5 * h * b1,
                             m0 + 0.5 * h * c1)
    a3, b3, c3 = _family_rhs(n, t0 + 0.5 * h * a2, l0 + 0.5 * h * b2,
                             m0 + 0.5 * h * c2)
    a4, b4, c4 = _family_rhs(n, t0 + h * a3, l0 + h * b3, m0 + h * c3)
    return (t0 + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4),
            l0 + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4),
            m0 + h / 6.0 * (c1 + 2 * c2 + 2 * c3 + c4))


@dataclass
class Trajectory:
    n: int
    t0: float
    step: float
    states: np.ndarray  # (K, 3) rows (theta, lam, mu)
    truncated: bool = False

    @property
    def t_end(self) -> float:
        return self.t0 + (len(self.states) - 1) * self.step

    def state_at(self, t) -> OdeState:
        """Dense evaluation at a time or an array of times: one partial
        RK4 step from the nearest node below, so the output is smooth to
        integrator accuracy."""
        t = np.asarray(t, dtype=float)
        _raise_first([(~((self.t0 - 1e-12 <= t) & (t <= self.t_end + 1e-12)),
                       lambda r: ChartDomainError(
            f"t = {t.flat[r]:.6g} outside the integrated range "
            f"[{self.t0:.6g}, {self.t_end:.6g}]"
            + (" (trajectory truncated where lambda crossed 0)"
               if self.truncated else "")))])
        k = np.clip(np.floor((t - self.t0) / self.step), 0,
                    len(self.states) - 1).astype(int)
        y = self.states[k]
        dt = t - (self.t0 + k * self.step)
        stepped = _rk4_step(self.n, (y[..., 0], y[..., 1], y[..., 2]), dt)
        moved = np.abs(dt) > 1e-15
        return OdeState(t[()], *(np.where(moved, s, y[..., i])[()]
                                 for i, s in enumerate(stepped)))


def ode_family_integrate(n: int, init: OdeState, t_range, step: float
                         ) -> Trajectory:
    """Fixed-step 4th-order integration of the profile system.

    ``d theta/dt = -lam/(n+1); d lam/dt = (n-1) lam mu;
    d mu/dt = -1 - mu^2 - n lam^2/(n+1)^2``.  If lambda reaches zero the
    trajectory is truncated there and flagged (the family needs lam != 0);
    it is never silently continued.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if abs(init.t - t0) > 1e-12:
        raise ValueError("initial state time must match t_range start")
    if step <= 0 or t1 <= t0:
        raise ValueError("need positive step and t1 > t0")
    nsteps = int(np.ceil((t1 - t0) / step - 1e-12))
    states = [(float(init.theta), float(init.lam), float(init.mu))]
    positive = states[0][1] > 0
    truncated = False
    for _ in range(nsteps):
        if max(map(abs, states[-1])) > 1e12:  # profile blow-up guard
            truncated = True
            break
        nxt = _rk4_step(n, states[-1], step)
        if (not all(map(math.isfinite, nxt)) or nxt[1] == 0
                or (nxt[1] > 0) != positive):
            truncated = True
            break
        states.append(nxt)
    return Trajectory(n, t0, step, np.array(states), truncated)


def trajectory_residuals(traj: Trajectory) -> np.ndarray:
    """Max residual of each stated derivative along the stored nodes.

    Uses the 4th-order five-point stencil, so the residual scales like
    step^4 together with the integrator's own error.
    """
    y = traj.states
    if len(y) < 5:
        raise ValueError("trajectory too short for the five-point stencil")
    h = traj.step
    dy = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
    rhs = np.stack(_family_rhs(traj.n, *y[2:-2].T), axis=1)
    return np.abs(dy - rhs).max(axis=0)


def cp_equality_chart(n: int, traj: Trajectory,
                      legendrian: ImmersionChart) -> ImmersionChart:
    """Horizontal family over a profile trajectory, unit sphere of C^(n+1).

    ``L(t, u) = (e^{-i theta} phi(u), (i lam/(n+1) - mu) e^{-i n theta})
    / sqrt(1 + mu^2 + lam^2/(n+1)^2)``.  Horizontality holds exactly along
    solutions; residuals are verified by the callers, not assumed.
    """
    if legendrian.n != n - 1 or legendrian.ambient != "sphere":
        raise ValueError("need a Legendrian chart with n-1 parameters in "
                         "the unit sphere of C^n")
    if traj.n != n:
        raise ValueError("trajectory dimension does not match n")

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        st = traj.state_at(x[..., 0])
        denom = np.sqrt(1.0 + _pow(st.mu, 2) + _pow(st.lam, 2) / (n + 1) ** 2)
        head = (np.exp(-1j * st.theta)[..., None]
                * legendrian.evaluator(x[..., 1:]) / denom[..., None])
        tail = _cmul(-st.mu + 1j * (st.lam / (n + 1)),
                     np.exp(-1j * n * st.theta)) / denom
        return np.concatenate([head, tail[..., None]], axis=-1)

    margin = 4 * traj.step
    domain = np.vstack([[traj.t0 + margin, traj.t_end - margin],
                        legendrian.domain])
    return ImmersionChart(n, "sphere", evaluator, domain, step=1e-4,
                          name=f"cp-hyperplane-family-n{n}")


# ---------------------------------------------------------------------------
# the minimal Berger-sphere immersion, horizontally realized
# ---------------------------------------------------------------------------

def exotic_s3_horizontal_chart() -> ImmersionChart:
    """Horizontal realization in the unit sphere of C^4 of the minimal
    Berger-sphere immersion.

    The cubic orbit map (a, b) -> (a^3, sqrt3 a^2 b, sqrt3 a b^2, b^3) of
    the unit quaternions is horizontal for a second compatible complex
    structure on C^4; an isometric recoordinatization turns that structure
    into the standard one, so the standard machinery applies.
    """
    sqrt3 = np.sqrt(3.0)

    def evaluator(u):
        u = np.asarray(u, dtype=float)
        r2 = _dot(u, u)
        _raise_first([(r2 >= 1.0, lambda r: ChartDomainError(
            "chart point outside the unit ball"))])
        a = np.sqrt(1.0 - r2) + 1j * u[..., 0]
        bq = u[..., 1] + 1j * u[..., 2]
        w = np.stack([a ** 3, _cmul(_cmul(sqrt3 * a, a), bq),
                      _cmul(_cmul(sqrt3 * a, bq), bq), bq ** 3])
        p, q = w.real, w.imag
        return np.stack([p[0] + 1j * p[3], q[0] - 1j * q[3],
                         p[1] - 1j * p[2], q[1] + 1j * q[2]], axis=-1)

    domain = np.array([[-_EXOTIC_EXTENT, _EXOTIC_EXTENT]] * 3)
    return ImmersionChart(3, "sphere", evaluator, domain, step=1e-4,
                          name="exotic-s3-horizontal")


# ---------------------------------------------------------------------------
# intrinsic curvature of a chart by finite differences
# ---------------------------------------------------------------------------

def intrinsic_curvature_fd(chart: ImmersionChart,
                           x: np.ndarray) -> CurvatureTensor:
    """Curvature of the induced metric by finite differences.

    Independent of the Gauss-equation reconstruction: metric from the
    chart Jacobian, Christoffel symbols and their derivatives by central
    differences at step ``h = _CURVATURE_FD_STEP``, then components in the
    Gram-Schmidt frame.  Steps h and h/2 are combined (Richardson) to
    cancel the leading O(h^2) truncation term.
    """
    x = np.asarray(x, dtype=float)
    n = chart.n

    def metric(y):
        dL = chart.jac(y)
        return np.einsum("ki,kj->ij", dL.conj(), dL).real

    def components_at(hh):
        def christoffel_h(y):
            g = metric(y)
            dg = np.stack([(metric(y + hh * e) - metric(y - hh * e))
                           / (2 * hh) for e in np.eye(n)])
            term = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
            return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(g), term)

        gam = christoffel_h(x)
        dgam = np.stack([(christoffel_h(x + hh * e) - christoffel_h(x - hh * e))
                         / (2 * hh) for e in np.eye(n)])  # dgam[a, k, i, j]
        # R^m_ijk = d_i Gam^m_jk - d_j Gam^m_ik + Gam^m_ip Gam^p_jk - ...
        riem = (np.einsum("imjk->mijk", dgam) - np.einsum("jmik->mijk", dgam)
                + np.einsum("mip,pjk->mijk", gam, gam)
                - np.einsum("mjp,pik->mijk", gam, gam))
        g0 = metric(x)
        lowered = np.einsum("lm,mijk->ijkl", g0, riem)
        frame = gram_schmidt(g0)
        return np.einsum("ijkl,iA,jB,kC,lD->ABCD", lowered, frame, frame,
                         frame, frame, optimize=True)

    h = _CURVATURE_FD_STEP
    comp = (4.0 * components_at(h / 2) - components_at(h)) / 3.0
    return CurvatureTensor(n, comp, tol=1e-3)
