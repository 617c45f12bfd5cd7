"""Cubic-form fields over a chart and their compatibility checks.

A field supplies, at every chart point, a frame Gram matrix G, the frame
coefficients of a symmetric bilinear tangent-valued form alpha, and the
frame brackets.  The three compatibility conditions checked here are the
total symmetry of g(alpha(X, Y), Z), the total symmetry of the covariant
derivative of alpha (connection from the Koszul formula), and the
curvature identity R(X, Y)Z = c (X ^ Y) Z + alpha(alpha(Y, Z), X)
- alpha(alpha(X, Z), Y), with (X ^ Y) Z = <Y, Z> X - <X, Z> Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cubic import CubicForm, LagrangianPointData, symmetrize_cubic
from .frames import MetricFrame, gram_schmidt
from .numdiff import directional

__all__ = [
    "CubicField",
    "CompatibilityReport",
    "compatibility_report",
    "exotic_s3_field",
]


@dataclass
class CubicField:
    """Frame data of a cubic form over a chart domain.

    ``frame_data(u) -> (G, alpha)`` with ``alpha[m, i, j]`` the X_m
    coefficient of alpha(X_i, X_j); ``brackets(u) -> br`` with
    ``[X_i, X_j] = br[m, i, j] X_m``.  ``frame_derivatives`` returns the
    directional derivatives (dG[a, i, j] = X_a(g_ij) and the matching
    dalpha / dbr); fields whose coefficients are constant in their own
    frame set ``constant_frame`` and skip it.  ``chart_components``
    (X_i in chart coordinates) enables a finite-difference fallback.
    """

    n: int
    c: float
    domain: np.ndarray
    frame_data: Callable[[np.ndarray], tuple]
    brackets: Callable[[np.ndarray], np.ndarray]
    constant_frame: bool = False
    frame_derivatives: Callable[[np.ndarray], tuple] | None = None
    chart_components: Callable[[np.ndarray], np.ndarray] | None = None
    sampler: Callable[[int, np.random.Generator], np.ndarray] | None = None
    name: str = ""

    def point_data(self, u) -> tuple[MetricFrame, CubicForm]:
        """Orthonormal-frame cubic coefficients at a chart point."""
        G, alpha = self.frame_data(np.asarray(u, dtype=float))
        mf = gram_schmidt(G)
        E = mf.frame
        C = np.einsum("mij,mk->ijk", alpha, G)
        dense = np.einsum("ijk,iA,jB,kC->ABC", C, E, E, E, optimize=True)
        return mf, CubicForm.from_dense(symmetrize_cubic(dense), tol=1e-8)

    def lagrangian_data(self, u) -> LagrangianPointData:
        _, form = self.point_data(u)
        return LagrangianPointData(self.n, self.c, form, source=self.name)

    def sample_points(self, count: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        if self.sampler is not None:
            return self.sampler(count, rng)
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        return rng.uniform(lo, hi, size=(count, len(lo)))


@dataclass
class CompatibilityReport:
    cubic_symmetry: float
    nabla_symmetry: float
    gauss_residual: float
    samples: int

    def max_deviation(self) -> float:
        return max(self.cubic_symmetry, self.nabla_symmetry,
                   self.gauss_residual)


def _frame_derivs(fld: CubicField, u: np.ndarray):
    if fld.constant_frame:
        n = fld.n
        return (np.zeros((n, n, n)), np.zeros((n, n, n, n)),
                np.zeros((n, n, n, n)))
    if fld.frame_derivatives is not None:
        return fld.frame_derivatives(u)
    if fld.chart_components is None:
        raise ValueError("field supplies neither frame derivatives nor "
                         "chart components for differencing")
    comps = fld.chart_components(u)  # comps[:, i] = X_i in chart coords
    n = fld.n
    dG = np.zeros((n, n, n))
    dalpha = np.zeros((n, n, n, n))
    dbr = np.zeros((n, n, n, n))
    for a in range(n):
        dG[a] = directional(lambda y: fld.frame_data(y)[0], u, comps[:, a])
        dalpha[a] = directional(lambda y: fld.frame_data(y)[1], u, comps[:, a])
        dbr[a] = directional(fld.brackets, u, comps[:, a])
    return dG, dalpha, dbr


def _koszul_connection(G, dG, br):
    """Gamma[l, i, j] with nabla_{X_i} X_j = Gamma[l, i, j] X_l."""
    gbr = np.einsum("mij,mk->ijk", br, G)  # g([X_i, X_j], X_k)
    rhs = (np.einsum("ijk->ijk", dG)            # X_i g_jk
           + np.einsum("jik->ijk", dG)          # X_j g_ik
           - np.einsum("kij->ijk", dG)          # X_k g_ij
           + gbr                                 # g([X_i, X_j], X_k)
           - np.einsum("ikj->ijk", gbr)         # g([X_i, X_k], X_j)
           - np.einsum("jki->ijk", gbr))        # g([X_j, X_k], X_i)
    return 0.5 * np.einsum("lk,ijk->lij", np.linalg.inv(G), rhs)


def _gamma_derivatives(fld: CubicField, u: np.ndarray):
    if fld.constant_frame:
        n = fld.n
        return np.zeros((n, n, n, n))
    comps = fld.chart_components
    if comps is None:
        raise ValueError("curvature check needs chart components for a "
                         "non-constant field")

    def gamma_of(y):
        G, _ = fld.frame_data(y)
        dG, _, _ = _frame_derivs(fld, y)
        return _koszul_connection(G, dG, fld.brackets(y))

    C = comps(u)
    return np.stack([directional(gamma_of, u, C[:, a])
                     for a in range(fld.n)])


def _perm_deviation(T: np.ndarray, axes: tuple) -> float:
    """Max deviation of T from symmetry under all permutations of axes."""
    from itertools import permutations
    order = list(range(T.ndim))
    worst = 0.0
    for perm in permutations(axes):
        if perm == axes:
            continue
        new = order.copy()
        for src, dst in zip(axes, perm):
            new[src] = dst
        worst = max(worst, float(np.abs(T - T.transpose(new)).max()))
    return worst


def compatibility_report(fld: CubicField, c: float | None = None,
                         points=None, samples: int = 10,
                         seed: int = 0) -> CompatibilityReport:
    """Max deviations of the three pointwise compatibility conditions.

    Evaluated at the given chart points (or a seeded sample of the
    domain); all three scalars must be small for the field to be
    realizable Lagrangian data.
    """
    if c is None:
        c = fld.c
    if points is None:
        points = fld.sample_points(samples, seed)
    dev_cubic = dev_nabla = dev_gauss = 0.0
    count = 0
    for u in np.atleast_2d(points):
        count += 1
        G, alpha = fld.frame_data(u)
        br = fld.brackets(u)
        dG, dalpha, _ = _frame_derivs(fld, u)
        gam = _koszul_connection(G, dG, br)

        C = np.einsum("mij,mk->ijk", alpha, G)
        dev_cubic = max(dev_cubic, _perm_deviation(C, (0, 1, 2)))

        # (nabla alpha)(X_i; X_j, X_k), frame coefficients
        nabla = (dalpha.transpose(1, 0, 2, 3)
                 + np.einsum("lim,mjk->lijk", gam, alpha)
                 - np.einsum("mij,lmk->lijk", gam, alpha)
                 - np.einsum("mik,ljm->lijk", gam, alpha))
        dev_nabla = max(dev_nabla, _perm_deviation(nabla, (1, 2, 3)))

        dgam = _gamma_derivatives(fld, u)
        riem = (np.einsum("iljk->lijk", dgam)
                - np.einsum("jlik->lijk", dgam)
                + np.einsum("lim,mjk->lijk", gam, gam)
                - np.einsum("ljm,mik->lijk", gam, gam)
                - np.einsum("mij,lmk->lijk", br, gam))
        eye = np.eye(fld.n)
        wedge = c * (np.einsum("jk,li->lijk", G, eye)
                     - np.einsum("ik,lj->lijk", G, eye))
        quad = (np.einsum("mjk,lmi->lijk", alpha, alpha)
                - np.einsum("mik,lmj->lijk", alpha, alpha))
        dev_gauss = max(dev_gauss,
                        float(np.abs(riem - wedge - quad).max()))
    return CompatibilityReport(dev_cubic, dev_nabla, dev_gauss, count)


def exotic_s3_field(extent: float = 0.9) -> CubicField:
    """The minimal Berger-sphere point data as a field over the 3-sphere.

    The frame fields are the standard right-invariant fields scaled so
    g = diag(3, 3, 9); alpha and the brackets are constant in this frame
    ([X1, X2] = 2 X3 and cyclic).  Chart points are unit vectors in R^4;
    anything off the sphere beyond 1e-12 is rejected.
    """
    G = np.diag([3.0, 3.0, 9.0])
    alpha = np.zeros((3, 3, 3))
    alpha[0, 0, 0] = 2.0          # alpha(X1, X1) = 2 X1
    alpha[1, 0, 1] = alpha[1, 1, 0] = -2.0   # alpha(X1, X2) = -2 X2
    alpha[0, 1, 1] = -2.0         # alpha(X2, X2) = -2 X1
    br = np.zeros((3, 3, 3))
    br[2, 0, 1], br[2, 1, 0] = 2.0, -2.0     # [X1, X2] = 2 X3
    br[0, 1, 2], br[0, 2, 1] = 2.0, -2.0     # [X2, X3] = 2 X1
    br[1, 2, 0], br[1, 0, 2] = 2.0, -2.0     # [X3, X1] = 2 X2

    def check(y):
        y = np.asarray(y, dtype=float)
        if y.shape != (4,):
            raise ValueError("chart points are vectors in R^4")
        if abs(y @ y - 1.0) > 1e-12:
            raise ValueError(f"chart point off the unit sphere: "
                             f"|y|^2 = {y @ y!r}")
        return y

    def frame_data(y):
        check(y)
        return G.copy(), alpha.copy()

    def brackets(y):
        check(y)
        return br.copy()

    def sampler(count, rng):
        pts = rng.standard_normal((count, 4))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)

    domain = np.array([[-1.0, 1.0]] * 4) * extent
    return CubicField(3, 1.0, domain, frame_data, brackets,
                      constant_frame=True, sampler=sampler,
                      name="exotic-s3")
