"""Constant cubic-form fields and their compatibility checks.

A field holds a frame Gram matrix G, the frame coefficients of a
symmetric bilinear tangent-valued form alpha, and the frame brackets, all
constant in the field's own (invariant) frame.  The three compatibility
conditions checked here are the total symmetry of
g(alpha(X, Y), Z), the total symmetry of the covariant derivative of
alpha (connection from the Koszul formula), and the
curvature identity R(X, Y)Z = c (X ^ Y) Z + alpha(alpha(Y, Z), X)
- alpha(alpha(X, Z), Y), with (X ^ Y) Z = <Y, Z> X - <X, Z> Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubic import LagrangianPointData, symmetrize_cubic, symmetry_deviation
from .frames import gram_schmidt

__all__ = [
    "CubicField",
    "CompatibilityReport",
    "compatibility_report",
    "exotic_s3_field",
]


@dataclass(frozen=True, eq=False)
class CubicField:
    """Frame data of a cubic form in a constant-coefficient frame (e.g.
    invariant vector fields of a group).

    ``alpha[m, i, j]`` is the X_m coefficient of alpha(X_i, X_j) and
    ``[X_i, X_j] = brackets[m, i, j] X_m``.  G, alpha and brackets are
    constant read-only copies, so their frame derivatives vanish.
    """

    n: int
    c: float
    G: np.ndarray
    alpha: np.ndarray
    brackets: np.ndarray
    name: str = ""

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError("c must be finite")
        for attr, ndim in (("G", 2), ("alpha", 3), ("brackets", 3)):
            arr = np.array(getattr(self, attr), dtype=float)
            if arr.shape != (self.n,) * ndim or not np.isfinite(arr).all():
                raise ValueError(f"{attr} must be a finite array of shape "
                                 f"{(self.n,) * ndim}, got shape {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)

    def point_data(self) -> tuple[np.ndarray, np.ndarray]:
        """The orthonormal frame and its cubic coefficients."""
        E = gram_schmidt(self.G)
        C = np.einsum("mij,mk->ijk", self.alpha, self.G)
        dense = np.einsum("ijk,iA,jB,kC->ABC", C, E, E, E, optimize=True)
        return E, symmetrize_cubic(dense)

    def lagrangian_data(self) -> LagrangianPointData:
        _, h = self.point_data()
        return LagrangianPointData(self.n, self.c, h, source=self.name)


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


def compatibility_report(fld: CubicField) -> CompatibilityReport:
    """Max deviations of the three compatibility conditions.

    All three scalars must be small for the field to be realizable
    Lagrangian data.
    """
    G, alpha, br = fld.G, fld.alpha, fld.brackets
    gam = _koszul_connection(G, br)

    C = np.einsum("mij,mk->ijk", alpha, G)

    # (nabla alpha)(X_i; X_j, X_k) in frame coefficients; alpha is constant
    nabla = (np.einsum("lim,mjk->lijk", gam, alpha)
             - np.einsum("mij,lmk->lijk", gam, alpha)
             - np.einsum("mik,ljm->lijk", gam, alpha))

    # Gamma is constant too, so only the quadratic terms remain
    riem = (np.einsum("lim,mjk->lijk", gam, gam)
            - np.einsum("ljm,mik->lijk", gam, gam)
            - np.einsum("mij,lmk->lijk", br, gam))
    eye = np.eye(fld.n)
    wedge = fld.c * (np.einsum("jk,li->lijk", G, eye)
                     - np.einsum("ik,lj->lijk", G, eye))
    quad = (np.einsum("mjk,lmi->lijk", alpha, alpha)
            - np.einsum("mik,lmj->lijk", alpha, alpha))
    return CompatibilityReport(symmetry_deviation(C),
                               symmetry_deviation(nabla),
                               float(np.abs(riem - wedge - quad).max()))


def exotic_s3_field() -> CubicField:
    """The minimal Berger-sphere point data as a field over the 3-sphere.

    The frame fields are the standard right-invariant fields scaled so
    g = diag(3, 3, 9); alpha and the brackets are constant in this frame
    ([X1, X2] = 2 X3 and cyclic).
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
    return CubicField(3, 1.0, G, alpha, br, name="exotic-s3")
