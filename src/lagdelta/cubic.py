"""Cubic second-fundamental-form data of a Lagrangian point.

A point of a Lagrangian submanifold of a complex space form of holomorphic
sectional curvature 4c is described, in an adapted orthonormal frame, by
the totally symmetric coefficients ``h^A_BC = <h(e_B, e_C), J e_A>``.
Triples are stored once in sorted order; indices in the public API are
1-based to match the JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .exceptions import SymmetryViolation
from .frames import CurvatureTensor, constant_curvature

__all__ = [
    "cubic_triples",
    "scatter_cubic",
    "symmetrize_cubic",
    "gauss_components",
    "mean_curvature_dense",
    "CubicForm",
    "LagrangianPointData",
    "validate_cubic",
    "rotate_cubic",
    "gauss_curvature",
    "mean_curvature",
    "tau_from_cubic",
    "random_cubic_form",
    "point_data_from_json",
    "point_data_to_json",
]


# The dense core: cubic arrays are batch-shaped (..., n, n, n), 0-based.
_PERMUTATIONS = tuple(permutations(range(3)))  # identity first


def cubic_triples(n: int) -> np.ndarray:
    """Sorted 0-based triples a <= b <= c, shape (T, 3), in lexicographic
    order: the order in which random draws fill the coefficients."""
    return np.array([(a, b, c) for a in range(n) for b in range(a, n)
                     for c in range(b, n)], dtype=int).reshape(-1, 3)


def scatter_cubic(h: np.ndarray, triples, values) -> np.ndarray:
    """Write ``values[..., t]`` at every permutation of the 0-based index
    triple ``triples[t]`` of h, shape (..., n, n, n); returns h."""
    idx = np.asarray(triples, dtype=int).reshape(-1, 3).T
    for p in _PERMUTATIONS:
        h[..., idx[p[0]], idx[p[1]], idx[p[2]]] = values
    return h


def symmetrize_cubic(t: np.ndarray) -> np.ndarray:
    """Average of an (..., n, n, n) array over the permutations of its last
    three axes."""
    lead = list(range(t.ndim - 3))
    return sum(t.transpose(lead + [k - 3 for k in p])
               for p in _PERMUTATIONS) / 6.0


def gauss_components(h: np.ndarray, c: float) -> np.ndarray:
    """Curvature components (..., n, n, n, n) from cubic arrays (..., n, n, n).

    ``R_ABCD = sum_E (h^E_AD h^E_BC - h^E_BD h^E_AC)
               + c (d_AD d_BC - d_AC d_BD)``.
    """
    # overflowing products are left to CurvatureTensor's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        comp = (np.einsum("...ead,...ebc->...abcd", h, h)
                - np.einsum("...ebd,...eac->...abcd", h, h))
        comp += constant_curvature(h.shape[-1], c).components
    return comp


def mean_curvature_dense(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean curvature ``H^A = (1/n) sum_B h^A_BB`` and its squared norm.

    The trace is a running sum in index order, so exactly traceless
    constructions give exactly zero; the squared norm is a stacked dot
    product, which rounds as ``H @ H`` does for a single point.
    """
    diag = np.diagonal(h, axis1=-2, axis2=-1)  # h[..., a, b, b]
    H = np.cumsum(diag, axis=-1)[..., -1] / h.shape[-1]
    return H, np.matmul(H[..., None, :], H[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class CubicForm:
    """Totally symmetric cubic coefficients, stored by sorted 1-based triple."""

    n: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, val in self.coeffs.items():
            a, b, c = sorted(key)
            if not (1 <= a and c <= self.n):
                raise ValueError(f"triple {key} out of range 1..{self.n}")
            if not np.isfinite(val):
                raise ValueError(f"coefficient of triple {key} is not "
                                 f"finite: {val!r}")
            if val != 0.0:
                clean[(a, b, c)] = float(val)
        object.__setattr__(self, "coeffs", clean)

    def coeff(self, a: int, b: int, c: int) -> float:
        """Value at any permutation of a 1-based triple."""
        return self.coeffs.get(tuple(sorted((a, b, c))), 0.0)

    def dense(self) -> np.ndarray:
        """Dense (n, n, n) array, 0-based."""
        return scatter_cubic(np.zeros((self.n,) * 3),
                             np.array(list(self.coeffs), dtype=int) - 1,
                             list(self.coeffs.values()))

    @classmethod
    def from_dense(cls, h: np.ndarray, tol: float = 1e-12) -> "CubicForm":
        """Build from a dense array, checking total symmetry."""
        h = np.asarray(h, dtype=float)
        n = h.shape[0]
        dev = max(np.abs(h - h.transpose(p)).max() for p in _PERMUTATIONS[1:])
        if dev > tol * (1.0 + np.abs(h).max()):
            raise ValueError(f"array is not totally symmetric: deviation {dev:.3e}")
        triples = cubic_triples(n)
        keys = map(tuple, (triples + 1).tolist())
        return cls(n, dict(zip(keys, h[tuple(triples.T)])))


def validate_cubic(raw, n: int) -> CubicForm:
    """Assemble a CubicForm from (A, B, C, value) entries, 1-based.

    Permutation duplicates are allowed if they agree within 1e-12; missing
    triples default to zero.
    """
    seen: dict[tuple, float] = {}
    for entry in raw:
        a, b, c, val = entry
        a, b, c = int(a), int(b), int(c)
        for idx in (a, b, c):
            if not 1 <= idx <= n:
                raise ValueError(f"index {idx} out of range 1..{n}")
        key = tuple(sorted((a, b, c)))
        val = float(val)
        if key in seen and abs(seen[key] - val) > 1e-12 * (1.0 + abs(val)):
            raise SymmetryViolation(key)
        seen.setdefault(key, val)
    return CubicForm(n, seen)


@dataclass(frozen=True)
class LagrangianPointData:
    """Pointwise Lagrangian data: dimension, ambient constant c, cubic form.

    ``c`` is a quarter of the ambient holomorphic sectional curvature.
    The optional ``source`` tags which construction produced the point.
    """

    n: int
    c: float
    h: CubicForm
    source: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if not np.isfinite(self.c):
            raise ValueError("c must be finite")
        if self.h.n != self.n:
            raise ValueError("cubic form dimension mismatch")


def rotate_cubic(h: CubicForm, Q: np.ndarray) -> CubicForm:
    """Coefficients in the rotated frame e'_A = sum_a Q[a, A] e_a."""
    Q = np.asarray(Q, dtype=float)
    if np.abs(Q.T @ Q - np.eye(h.n)).max() > 1e-10:
        raise ValueError("Q is not orthogonal")
    dense = np.einsum("abc,aA,bB,cC->ABC", h.dense(), Q, Q, Q, optimize=True)
    return CubicForm.from_dense(dense, tol=1e-10)


def gauss_curvature(data: LagrangianPointData) -> CurvatureTensor:
    """Curvature tensor reconstructed from the cubic form by the Gauss
    equation (:func:`gauss_components`)."""
    return CurvatureTensor(data.n, gauss_components(data.h.dense(), data.c))


def mean_curvature(h: CubicForm) -> tuple[np.ndarray, float]:
    """Mean curvature components in the J-frame and their squared norm.

    ``H^A = (1/n) sum_B h^A_BB``; see :func:`mean_curvature_dense`.
    """
    H, h2 = mean_curvature_dense(h.dense())
    return H, float(h2)


def tau_from_cubic(data: LagrangianPointData) -> float:
    """Scalar curvature directly from the cubic coefficients.

    ``tau = sum_A sum_{B<C} (h^A_BB h^A_CC - (h^A_BC)^2)
            + n(n-1) c / 2``; cross-checks the Gauss-equation path.
    """
    h = data.h.dense()
    diag = np.einsum("abb->ab", h)
    total = 0.0
    for a in range(data.n):
        d = diag[a]
        s1 = 0.5 * ((d.sum()) ** 2 - (d ** 2).sum())
        sq = h[a] ** 2
        s2 = 0.5 * (sq.sum() - np.trace(sq))
        total += s1 - s2
    return float(total + 0.5 * data.n * (data.n - 1) * data.c)


def random_cubic_form(n: int, rng: np.random.Generator,
                      scale: float = 1.0) -> CubicForm:
    """Independent standard-normal coefficient per sorted triple."""
    triples = cubic_triples(n)
    values = scale * rng.standard_normal(len(triples))
    return CubicForm(n, dict(zip(map(tuple, (triples + 1).tolist()), values)))


# Largest dimension the JSON schema accepts: the arrays are dense, n^3
# entries for the cubic form and n^4 for the curvature tensor.
MAX_N = 12


def point_data_from_json(text: str) -> LagrangianPointData:
    """Parse the input schema {"n": int, "c": real, "h": [[A,B,C,value],...]}.

    ``n`` above ``MAX_N`` is rejected before any coefficient is read.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON at line {exc.lineno}, column "
                         f"{exc.colno}: {exc.msg}") from exc
    for key in ("n", "c", "h"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    n = int(obj["n"])
    if n > MAX_N:
        raise ValueError(f"dimension n = {n} exceeds the supported "
                         f"maximum {MAX_N}")
    form = validate_cubic(obj["h"], n)
    return LagrangianPointData(n, float(obj["c"]), form,
                               source=str(obj.get("source", "")))


def point_data_to_json(data: LagrangianPointData) -> str:
    entries = [[a, b, c, v] for (a, b, c), v in sorted(data.h.coeffs.items())]
    obj = {"n": data.n, "c": data.c, "h": entries}
    if data.source:
        obj["source"] = data.source
    return json.dumps(obj)

