"""Explicit Lagrangian immersions and pointwise data extraction.

Charts evaluate into complex coordinates: flat ambient means C^n with the
standard complex structure (c = 0); sphere ambient means the unit sphere
in C^(n+1), whose horizontal immersions project to Lagrangian submanifolds
of the holomorphic-sectional-curvature-4 projective space (c = 1).  All
projective-space geometry is computed through horizontal representatives,
which is exact for horizontal immersions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cubic import (LagrangianPointData, mean_curvature, symmetrize_cubic,
                    symmetry_deviation)
from .exceptions import ChartDomainError, HorizontalityError
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


@dataclass
class ImmersionChart:
    """A parametric immersion, differentiated by central differences.

    ``evaluator`` maps a chart point (n reals) to a complex ambient vector;
    ``step`` is the central-difference step per axis of its second
    derivatives (first derivatives use at most 1e-5).
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

    def check_domain(self, x: np.ndarray, margin: float = 0.0):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ChartDomainError(f"chart point must have {self.n} "
                                   f"coordinates, got shape {x.shape}")
        lo = self.domain[:, 0] + margin
        hi = self.domain[:, 1] - margin
        bad = np.flatnonzero((x < lo) | (x > hi))
        if bad.size:
            a = int(bad[0])
            raise ChartDomainError(
                f"coordinate {a} = {x[a]:.6g} outside "
                f"[{lo[a]:.6g}, {hi[a]:.6g}] (margin {margin:g})")

    def eval(self, x: np.ndarray) -> np.ndarray:
        self.check_domain(x)
        value = np.asarray(self.evaluator(np.asarray(x, dtype=float)),
                           dtype=complex)
        if self.ambient == "sphere":
            nrm = np.linalg.norm(value)
            if abs(nrm - 1.0) > 1e-10:
                raise ValueError(f"sphere chart {self.name!r} returned a "
                                 f"point with |L| = {nrm!r}")
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


def lagrangian_residual(chart: ImmersionChart, x: np.ndarray) -> float:
    """Pullback of the ambient Kahler form: max |omega(d_i, d_j)|."""
    dL = chart.jac(x)
    gram = np.einsum("ki,kj->ij", dL.conj(), dL)
    return float(np.abs(gram.imag).max())


def _horizontality(L: np.ndarray, dL: np.ndarray) -> float:
    """Max over chart axes of |<dL_a, i L>|."""
    return float(np.abs(np.einsum("ka,k->a", dL, L.conj()).imag).max())


def horizontality_residual(chart: ImmersionChart, x: np.ndarray) -> float:
    """Max over chart axes of |<dL_a, i L>| at a sphere-chart point."""
    return _horizontality(chart.eval(x), chart.jac(x))


def _raw_cubic(chart: ImmersionChart, x: np.ndarray,
               dL: np.ndarray) -> np.ndarray:
    """Coefficients <d2 L(e_B, e_C), i dL(e_A)> in the induced orthonormal
    frame, before symmetrization."""
    metric = np.einsum("ki,kj->ij", dL.conj(), dL).real
    eigs = np.linalg.eigvalsh(metric)
    if eigs[0] < 1e-10:
        raise ValueError(f"induced metric is degenerate: min eigenvalue "
                         f"{eigs[0]:.3e}")
    frame = gram_schmidt(metric)
    d2 = second_derivatives(chart.evaluator, x, h=chart.step)
    tangents = dL @ frame  # columns: orthonormal frame in ambient coords
    d2f = np.einsum("kbc,bB,cC->kBC", d2, frame, frame)
    return np.einsum("kBC,kA->ABC", d2f, tangents.conj()).imag


def induced_data(chart: ImmersionChart, x: np.ndarray) -> ExtractedData:
    """Pointwise data at a chart point: c = 0 for a flat chart, and c = 1
    for the Hopf projection of a horizontal sphere chart.

    The totally symmetric cubic coefficients come from pairing ambient
    second derivatives with i times the tangent frame; their raw symmetry
    deviation is the Lagrangian consistency check.  On a sphere chart,
    horizontality is checked, not assumed, and reported; the projected
    metric is then the pullback metric.  The chart is differentiated once.
    """
    chart.check_domain(x, margin=2 * chart.step)
    sphere = chart.ambient == "sphere"
    dL = chart.jac(x)
    resid = None
    if sphere:
        resid = _horizontality(chart.eval(x), dL)
        if resid > _HORIZONTALITY_TOL:
            raise HorizontalityError(resid)
    raw = _raw_cubic(chart, x, dL)
    dev = symmetry_deviation(raw)
    tol = _SPHERE_SYMMETRY_TOL if sphere else _FLAT_SYMMETRY_TOL
    if dev > tol:
        raise ValueError(f"cubic symmetry deviation {dev:.3e} exceeds "
                         f"{tol:.1e}; the chart point is not consistent "
                         f"Lagrangian data")
    data = LagrangianPointData(chart.n, 1.0 if sphere else 0.0,
                               symmetrize_cubic(raw), source=chart.name)
    return ExtractedData(data, dev, resid)


# ---------------------------------------------------------------------------
# gradient graphs in C^n
# ---------------------------------------------------------------------------

def graph_immersion(grad, n, domain=None, name="graph") -> ImmersionChart:
    """Lagrangian gradient graph x -> x + i grad F(x), for the gradient
    ``grad`` of a potential F on n coordinates.

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

    as an analytic function of x.
    """
    n, N = tup.n, tup.N
    blocks = tup.blocks()
    m = N

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
        return np.exp(1j * (A @ u)) / np.sqrt(m)

    domain = np.array([[-8.0, 8.0]] * (m - 1))
    chart = ImmersionChart(m - 1, "sphere", evaluator, domain, step=1e-4,
                           name=f"clifford-legendrian-{m}")
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(5, m - 1))
    horiz = max(horizontality_residual(chart, p) for p in pts)
    if horiz > 1e-10:
        raise HorizontalityError(horiz)
    minim = legendrian_minimality_residual(chart, pts)
    if minim > 1e-6:
        raise ValueError(f"legendrian torus failed the minimality check: "
                         f"residual {minim:.3e}")
    return chart


def legendrian_minimality_residual(chart: ImmersionChart, points) -> float:
    """|H| of the Hopf-projected immersion, max over sample points.

    Works for any chart dimension (including curves), so it can certify
    minimality of Legendrian inputs before they are fed to the families.
    """
    worst = 0.0
    for x in np.atleast_2d(points):
        _, h2 = mean_curvature(_raw_cubic(chart, x, chart.jac(x)))
        worst = max(worst, float(np.sqrt(h2)))
    return worst


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

    def scalar(lmb: float) -> complex:
        if lmb <= 0:
            raise ChartDomainError("lambda must be positive")
        arg = (n + 1) * b * lmb ** (n / (1.0 - n))
        if abs(arg) < 1.0:
            raise ChartDomainError(
                f"inverse-cosecant argument {arg:.6g} below 1 "
                f"(lambda past {lam_max:.6g})")
        phase = -(n + 1) / n * np.arcsin(1.0 / arg)
        rad = b * b * lmb ** (2.0 / (1.0 - n)) - lmb * lmb / (n + 1) ** 2
        if rad <= 0:
            raise ChartDomainError(
                f"modulus radicand {rad:.6g} nonpositive "
                f"(lambda past {lam_max:.6g})")
        mu = np.sqrt(rad)
        return (n + 1) * np.exp(-1j * phase) / ((n + 1) * mu + 1j * lmb)

    def evaluator(x):
        return scalar(float(x[0])) * legendrian.evaluator(x[1:])

    domain = np.vstack([[0.2 * lam_max, 0.85 * lam_max],
                        legendrian.domain])
    return ImmersionChart(n, "flat", evaluator, domain, step=1e-4,
                          name=f"flat-hyperplane-family-n{n}")


# ---------------------------------------------------------------------------
# the projective-space family and its profile ODE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeState:
    t: float
    theta: float
    lam: float
    mu: float

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("lambda must be nonzero")


def _family_rhs(n: int, theta, lam, mu) -> tuple:
    """The profile system's right-hand side, of floats or arrays alike."""
    return (-lam / (n + 1),
            (n - 1) * lam * mu,
            -1.0 - mu * mu - n * lam * lam / (n + 1) ** 2)


def _rk4_step(n: int, y: tuple, h: float) -> tuple:
    """One RK4 step of size h from y = (theta, lam, mu), on Python floats."""
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

    def state_at(self, t: float) -> OdeState:
        """Dense evaluation: one partial RK4 step from the nearest node
        below, so the output is smooth to integrator accuracy."""
        if not self.t0 - 1e-12 <= t <= self.t_end + 1e-12:
            raise ChartDomainError(
                f"t = {t:.6g} outside the integrated range "
                f"[{self.t0:.6g}, {self.t_end:.6g}]"
                + (" (trajectory truncated where lambda crossed 0)"
                   if self.truncated else ""))
        k = min(max(math.floor((t - self.t0) / self.step), 0),
                len(self.states) - 1)
        y = tuple(self.states[k].tolist())
        dt = t - (self.t0 + k * self.step)
        if abs(dt) > 1e-15:
            y = _rk4_step(self.n, y, dt)
        return OdeState(t, *y)


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
        st = traj.state_at(float(x[0]))
        denom = np.sqrt(1.0 + st.mu ** 2 + st.lam ** 2 / (n + 1) ** 2)
        head = np.exp(-1j * st.theta) * legendrian.evaluator(x[1:]) / denom
        tail = (1j * st.lam / (n + 1) - st.mu) * np.exp(-1j * n * st.theta) / denom
        return np.concatenate([head, [tail]])

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
        r2 = float(u @ u)
        if r2 >= 1.0:
            raise ChartDomainError("chart point outside the unit ball")
        y = np.array([np.sqrt(1.0 - r2), u[0], u[1], u[2]])
        a = y[0] + 1j * y[1]
        bq = y[2] + 1j * y[3]
        w = np.array([a ** 3, sqrt3 * a * a * bq, sqrt3 * a * bq * bq,
                      bq ** 3])
        p, q = w.real, w.imag
        return np.array([p[0] + 1j * p[3], q[0] - 1j * q[3],
                         p[1] - 1j * p[2], q[1] + 1j * q[2]])

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
