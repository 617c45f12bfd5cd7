"""Cubic-form fields over a chart and their compatibility checks.

A field supplies, at every chart point, a frame Gram matrix G, the frame
coefficients of a symmetric bilinear tangent-valued form alpha, and the
frame brackets, all constant in the field's own (invariant) frame.  The
three compatibility conditions checked here are the total symmetry of
g(alpha(X, Y), Z), the total symmetry of the covariant derivative of
alpha (connection from the Koszul formula), and the
curvature identity R(X, Y)Z = c (X ^ Y) Z + alpha(alpha(Y, Z), X)
- alpha(alpha(X, Z), Y), with (X ^ Y) Z = <Y, Z> X - <X, Z> Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cubic import LagrangianPointData, symmetrize_cubic, symmetry_deviation
from .frames import gram_schmidt

__all__ = [
    "CubicField",
    "CompatibilityReport",
    "compatibility_report",
    "exotic_s3_field",
]


@dataclass
class CubicField:
    """Frame data of a cubic form over a chart domain, in a
    constant-coefficient frame (e.g. invariant vector fields of a group).

    ``frame_data(u) -> (G, alpha)`` with ``alpha[m, i, j]`` the X_m
    coefficient of alpha(X_i, X_j); ``brackets(u) -> br`` with
    ``[X_i, X_j] = br[m, i, j] X_m``.  G, alpha and br take the same
    values at every chart point, so their frame derivatives vanish; the
    chart point is passed only for domain checks.
    """

    n: int
    c: float
    domain: np.ndarray
    frame_data: Callable[[np.ndarray], tuple]
    brackets: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[int, np.random.Generator], np.ndarray] | None = None
    name: str = ""

    def point_data(self, u) -> tuple[np.ndarray, np.ndarray]:
        """The orthonormal frame and its cubic coefficients at a chart
        point."""
        G, alpha = self.frame_data(np.asarray(u, dtype=float))
        E = gram_schmidt(G)
        C = np.einsum("mij,mk->ijk", alpha, G)
        dense = np.einsum("ijk,iA,jB,kC->ABC", C, E, E, E, optimize=True)
        return E, symmetrize_cubic(dense)

    def lagrangian_data(self, u) -> LagrangianPointData:
        _, h = self.point_data(u)
        return LagrangianPointData(self.n, self.c, h, source=self.name)

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

    def max_deviation(self) -> float:
        return max(self.cubic_symmetry, self.nabla_symmetry,
                   self.gauss_residual)


def _koszul_connection(G, br):
    """Gamma[l, i, j] with nabla_{X_i} X_j = Gamma[l, i, j] X_l.

    The Koszul formula for a frame with constant Gram matrix, whose
    X_i g_jk terms vanish."""
    gbr = np.einsum("mij,mk->ijk", br, G)  # g([X_i, X_j], X_k)
    rhs = (gbr                                   # g([X_i, X_j], X_k)
           - np.einsum("ikj->ijk", gbr)         # g([X_i, X_k], X_j)
           - np.einsum("jki->ijk", gbr))        # g([X_j, X_k], X_i)
    return 0.5 * np.einsum("lk,ijk->lij", np.linalg.inv(G), rhs)


def compatibility_report(fld: CubicField, samples: int = 10,
                         seed: int = 0) -> CompatibilityReport:
    """Max deviations of the three pointwise compatibility conditions.

    Evaluated at a seeded sample of chart points; all three scalars must
    be small for the field to be realizable Lagrangian data.
    """
    dev_cubic = dev_nabla = dev_gauss = 0.0
    for u in np.atleast_2d(fld.sample_points(samples, seed)):
        G, alpha = fld.frame_data(u)
        br = fld.brackets(u)
        gam = _koszul_connection(G, br)

        C = np.einsum("mij,mk->ijk", alpha, G)
        dev_cubic = max(dev_cubic, symmetry_deviation(C))

        # (nabla alpha)(X_i; X_j, X_k), frame coefficients; alpha's own
        # frame derivatives vanish
        nabla = (np.einsum("lim,mjk->lijk", gam, alpha)
                 - np.einsum("mij,lmk->lijk", gam, alpha)
                 - np.einsum("mik,ljm->lijk", gam, alpha))
        dev_nabla = max(dev_nabla, symmetry_deviation(nabla))

        # Gamma is constant too, so only the quadratic terms remain
        riem = (np.einsum("lim,mjk->lijk", gam, gam)
                - np.einsum("ljm,mik->lijk", gam, gam)
                - np.einsum("mij,lmk->lijk", br, gam))
        eye = np.eye(fld.n)
        wedge = fld.c * (np.einsum("jk,li->lijk", G, eye)
                         - np.einsum("ik,lj->lijk", G, eye))
        quad = (np.einsum("mjk,lmi->lijk", alpha, alpha)
                - np.einsum("mik,lmj->lijk", alpha, alpha))
        dev_gauss = max(dev_gauss,
                        float(np.abs(riem - wedge - quad).max()))
    return CompatibilityReport(dev_cubic, dev_nabla, dev_gauss)


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
                      sampler=sampler, name="exotic-s3")
