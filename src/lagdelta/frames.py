"""Dense curvature-tensor algebra in orthonormal frames.

Sign and index conventions are fixed in docs/conventions.md: components are
stored as ``R[a, b, c, d] = <R(e_a, e_b) e_c, e_d>`` and the scalar
curvature ``tau`` is the sum of sectional curvatures over index pairs
``i < j`` (half the usual trace convention).  Supported dimensions are
small (n <= 12), so everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegeneratePlane, NotPositiveDefinite

__all__ = [
    "CurvatureTensor",
    "MetricFrame",
    "constant_curvature",
    "gram_schmidt",
    "sectional_curvature",
    "scalar_tau",
    "tau_subspace",
    "rotate_tensor",
    "riemann_symmetry_deviation",
    "bianchi_deviation",
    "pair_basis",
    "pair_curvature_operator",
]


def riemann_symmetry_deviation(comp: np.ndarray) -> float:
    """Max deviation from the four index symmetries of a curvature array."""
    d1 = np.abs(comp + comp.transpose(1, 0, 2, 3)).max()
    d2 = np.abs(comp + comp.transpose(0, 1, 3, 2)).max()
    d3 = np.abs(comp - comp.transpose(2, 3, 0, 1)).max()
    return float(max(d1, d2, d3))


def bianchi_deviation(comp: np.ndarray) -> float:
    """Max deviation from the first Bianchi identity."""
    cyc = comp + comp.transpose(1, 2, 0, 3) + comp.transpose(2, 0, 1, 3)
    return float(np.abs(cyc).max())


@dataclass(frozen=True)
class CurvatureTensor:
    """Curvature components in an orthonormal frame.

    ``components[a, b, c, d]`` is ``<R(e_a, e_b) e_c, e_d>``.  The index
    symmetries and the first Bianchi identity are verified at construction;
    pass a looser ``tol`` for data obtained by finite differencing.
    """

    n: int
    components: np.ndarray
    tol: float = field(default=1e-12, compare=False)

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        if comp.shape != (self.n,) * 4:
            raise ValueError(f"expected shape {(self.n,) * 4}, got {comp.shape}")
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if not np.isfinite(comp).all():
            raise ValueError("curvature components must be finite")
        scale = 1.0 + np.abs(comp).max()
        dev = max(riemann_symmetry_deviation(comp), bianchi_deviation(comp))
        if dev > self.tol * scale:
            raise ValueError(
                f"curvature symmetries violated: deviation {dev:.3e} "
                f"exceeds tolerance {self.tol:.1e} (relative scale {scale:.2e})")
        comp = comp.copy()
        comp.flags.writeable = False
        object.__setattr__(self, "components", comp)


def constant_curvature(n: int, c: float) -> CurvatureTensor:
    """Space-form tensor: R(X,Y)Z = c (<Y,Z> X - <X,Z> Y)."""
    eye = np.eye(n)
    comp = c * (np.einsum("ad,bc->abcd", eye, eye)
                - np.einsum("ac,bd->abcd", eye, eye))
    return CurvatureTensor(n, comp)


@dataclass(frozen=True)
class MetricFrame:
    """An orthonormal frame for a coordinate Gram matrix.

    Columns of ``frame`` express the orthonormal basis in the coordinate
    basis, so ``frame.T @ gram @ frame`` is the identity.
    """

    n: int
    gram: np.ndarray
    frame: np.ndarray
    tol: float = field(default=1e-10, compare=False)

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        frame = np.asarray(self.frame, dtype=float)
        resid = np.abs(frame.T @ gram @ frame - np.eye(self.n)).max()
        if resid > self.tol:
            raise ValueError(f"frame is not orthonormal for gram: residual {resid:.3e}")
        object.__setattr__(self, "gram", gram.copy())
        object.__setattr__(self, "frame", frame.copy())


def gram_schmidt(gram: np.ndarray) -> MetricFrame:
    """Orthonormalize the standard basis against a Gram matrix.

    Processes basis vectors in index order with one re-orthogonalization
    pass, so the output is deterministic.  Rejects non-positive-definite
    input, reporting the first failing leading minor.
    """
    gram = np.asarray(gram, dtype=float)
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ValueError("gram matrix must be square")
    if np.abs(gram - gram.T).max() > 1e-12 * (1.0 + np.abs(gram).max()):
        raise ValueError("gram matrix must be symmetric")

    cols = np.zeros((n, n))
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        # two classical Gram-Schmidt sweeps
        for _ in range(2):
            for j in range(k):
                v -= (cols[:, j] @ gram @ v) * cols[:, j]
        nrm2 = v @ gram @ v
        if nrm2 <= 1e-13 * gram[k, k] or not np.isfinite(nrm2):
            raise NotPositiveDefinite(k + 1)
        cols[:, k] = v / np.sqrt(nrm2)
    return MetricFrame(n, gram, cols)


def sectional_curvature(R: CurvatureTensor, u: np.ndarray, v: np.ndarray) -> float:
    """Sectional curvature of the plane spanned by u and v.

    Normalized, so invariant under any change of basis of the plane.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    area2 = (u @ u) * (v @ v) - (u @ v) ** 2
    if area2 < 1e-14:
        raise DegeneratePlane(f"plane is degenerate: squared area {area2:.3e}")
    num = np.einsum("abcd,a,b,c,d->", R.components, u, v, v, u)
    return float(num / area2)


def scalar_tau(R: CurvatureTensor) -> float:
    """Scalar curvature as the sum of K(e_i, e_j) over i < j."""
    return 0.5 * float(np.einsum("abba->", R.components))


def tau_subspace(R: CurvatureTensor, basis: np.ndarray) -> float:
    """Scalar curvature of the subspace spanned by orthonormal ``basis`` rows.

    Equals the sum of sectional curvatures over basis pairs; independent of
    the orthonormal basis chosen inside the span.
    """
    B = np.atleast_2d(np.asarray(basis, dtype=float))
    r = B.shape[0]
    if not 2 <= r <= R.n:
        raise ValueError(f"subspace dimension must be in [2, {R.n}], got {r}")
    dev = np.abs(B @ B.T - np.eye(r)).max()
    if dev > 1e-10:
        raise ValueError(f"basis is not orthonormal: max Gram deviation {dev:.3e}")
    P = B.T @ B
    return 0.5 * float(np.einsum("abcd,ad,bc->", R.components, P, P))


def rotate_tensor(R: CurvatureTensor, Q: np.ndarray) -> CurvatureTensor:
    """Components of R in the rotated frame e'_A = sum_a Q[a, A] e_a."""
    Q = np.asarray(Q, dtype=float)
    if np.abs(Q.T @ Q - np.eye(R.n)).max() > 1e-10:
        raise ValueError("Q is not orthogonal")
    comp = np.einsum("abcd,aA,bB,cC,dD->ABCD", R.components, Q, Q, Q, Q,
                     optimize=True)
    return CurvatureTensor(R.n, comp, tol=max(R.tol, 1e-11))


def pair_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (I, J) of the lexicographic pair basis i < j of Lambda^2."""
    I, J = np.triu_indices(n, k=1)
    return I, J


def pair_curvature_operator(components: np.ndarray) -> np.ndarray:
    """Curvature operator on Lambda^2 in the pair basis.

    For pairs p=(i<j), q=(k<l) the entry is ``R[i, j, l, k]``, so that the
    quadratic form on a decomposable unit bivector u^v equals the sectional
    curvature of span(u, v).  Symmetric by the pair symmetry of R.
    Accepts a batched array ``(..., n, n, n, n)``.
    """
    n = components.shape[-1]
    I, J = pair_basis(n)
    return components[..., I[:, None], J[:, None], J[None, :], I[None, :]]
