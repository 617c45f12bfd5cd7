"""Cubic second-fundamental-form data of a Lagrangian point.

A point of a Lagrangian submanifold of a complex space form of holomorphic
sectional curvature 4c is described, in an adapted orthonormal frame, by
the totally symmetric coefficients ``h^A_BC = <h(e_B, e_C), J e_A>``.
They are held as dense, exactly symmetric, 0-based (n, n, n) arrays,
batch-shaped (..., n, n, n) where a function allows it; 1-based index
triples appear only in the JSON schema.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .exceptions import SymmetryViolation
from .frames import CurvatureTensor, constant_curvature

__all__ = [
    "cubic_triples",
    "scatter_cubic",
    "symmetrize_cubic",
    "symmetry_deviation",
    "gauss_components",
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


_PERMUTATIONS = tuple(permutations(range(3)))  # identity first


def _last_three(t: np.ndarray, p) -> np.ndarray:
    """t with its last three axes permuted by p."""
    lead = list(range(t.ndim - 3))
    return t.transpose(lead + [k - 3 for k in p])


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
    return sum(_last_three(t, p) for p in _PERMUTATIONS) / 6.0


@functools.cache
def _orbits(n: int):
    """Flat indices into an (n, n, n) array, read-only and cached per n:
    (T, 6) of the permutations of each sorted triple (``cubic_triples``
    order), and (n**3,) of the sorted triple of each entry."""
    triples = cubic_triples(n)
    orbits = np.stack([np.ravel_multi_index(tuple(triples[:, p].T), (n,) * 3)
                       for p in _PERMUTATIONS], axis=1)
    sorted_entry = np.empty(n ** 3, dtype=np.intp)
    sorted_entry[orbits] = orbits[:, :1]
    orbits.flags.writeable = sorted_entry.flags.writeable = False
    return orbits, sorted_entry


def symmetry_deviation(t: np.ndarray) -> float:
    """Max deviation of t from symmetry under the permutations of its last
    three axes: the largest spread, max - min, of t over the permutations
    of one index triple, which is the largest |t - t permuted|."""
    t = np.asarray(t)
    n = t.shape[-1]
    flat = t.reshape(*t.shape[:-3], n ** 3)
    return float(np.ptp(flat[..., _orbits(n)[0]], axis=-1).max())


def _canonical_cubic(h, tol: float = 1e-12) -> np.ndarray:
    """Read-only, exactly symmetric copy of a cubic array.

    Checks the (n, n, n) shape, finiteness and total symmetry within
    ``tol * (1 + max|h|)``, then copies each sorted-triple entry to every
    permutation.  Adding 0.0 stores -0.0 as 0.0.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 3 or len(set(h.shape)) != 1 or h.shape[0] < 1:
        raise ValueError(f"cubic array must have shape (n, n, n), got "
                         f"{h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("cubic coefficients are not finite")
    dev = symmetry_deviation(h)
    if dev > tol * (1.0 + np.abs(h).max()):
        raise ValueError(f"array is not totally symmetric: deviation {dev:.3e}")
    out = (h.ravel()[_orbits(h.shape[0])[1]] + 0.0).reshape(h.shape)
    out.flags.writeable = False
    return out


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


def mean_curvature(h: np.ndarray):
    """Mean curvature ``H^A = (1/n) sum_B h^A_BB`` and its squared norm,
    for cubic arrays (..., n, n, n); H^2 is a scalar for a single point.

    The trace is a running sum in index order, so exactly traceless
    constructions give exactly zero; the squared norm is a stacked dot
    product, which rounds as ``H @ H`` does for a single point.
    """
    diag = np.diagonal(h, axis1=-2, axis2=-1)  # h[..., a, b, b]
    H = np.cumsum(diag, axis=-1)[..., -1] / h.shape[-1]
    return H, np.matmul(H[..., None, :], H[..., :, None])[..., 0, 0][()]


# concrete types (ABC checks are slow); bool, an int subclass, is refused
_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def _is_integer(x) -> bool:
    return isinstance(x, _INTEGERS) and not isinstance(x, bool)


def _number(x) -> float:
    """A finite float from a number; ValueError for anything else."""
    if isinstance(x, bool) or not isinstance(x, _NUMBERS):
        raise ValueError(f"{x!r} is not a number")
    try:
        value = float(x)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{x!r} is not finite")
    return value


def validate_cubic(raw, n: int) -> np.ndarray:
    """Assemble a dense (n, n, n) array from [A, B, C, value] entries,
    1-based.

    Indices must be integers in 1..n and values finite numbers (booleans
    are refused).  Permutation duplicates are allowed if they agree within
    1e-12; missing triples default to zero.
    """
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"cubic entries must be an array, got {raw!r}")
    seen: dict[tuple, float] = {}
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise ValueError(f"cubic entry {entry!r} is not an "
                             f"[A, B, C, value] array")
        *idx, val = entry
        for i in idx:
            if not _is_integer(i):
                raise ValueError(f"index {i!r} is not an integer")
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range 1..{n}")
        key = tuple(sorted(map(int, idx)))
        try:
            val = _number(val)
        except ValueError as exc:
            raise ValueError(f"coefficient of triple {key}: {exc}") from None
        if key in seen and abs(seen[key] - val) > 1e-12 * (1.0 + abs(val)):
            raise SymmetryViolation(key)
        seen.setdefault(key, val)
    return scatter_cubic(np.zeros((n, n, n)), np.array(list(seen)) - 1,
                         np.array(list(seen.values())) + 0.0)


@dataclass(frozen=True, eq=False)
class LagrangianPointData:
    """Pointwise Lagrangian data: dimension, ambient constant c, cubic form.

    ``h`` is stored as a read-only, exactly symmetric (n, n, n) array.
    ``c`` is a quarter of the ambient holomorphic sectional curvature.
    The optional ``source`` tags which construction produced the point.
    """

    n: int
    c: float
    h: np.ndarray
    source: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if not np.isfinite(self.c):
            raise ValueError("c must be finite")
        h = _canonical_cubic(self.h)
        if h.shape[0] != self.n:
            raise ValueError("cubic form dimension mismatch")
        object.__setattr__(self, "h", h)


def rotate_cubic(h: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Coefficients in the rotated frame e'_A = sum_a Q[a, A] e_a."""
    Q = np.asarray(Q, dtype=float)
    if np.abs(Q.T @ Q - np.eye(len(h))).max() > 1e-10:
        raise ValueError("Q is not orthogonal")
    dense = np.einsum("abc,aA,bB,cC->ABC", h, Q, Q, Q, optimize=True)
    return _canonical_cubic(dense, tol=1e-10)


def gauss_curvature(data: LagrangianPointData) -> CurvatureTensor:
    """Curvature tensor reconstructed from the cubic form by the Gauss
    equation (:func:`gauss_components`)."""
    return CurvatureTensor(data.n, gauss_components(data.h, data.c))


def tau_from_cubic(data: LagrangianPointData) -> float:
    """Scalar curvature directly from the cubic coefficients.

    ``tau = sum_A sum_{B<C} (h^A_BB h^A_CC - (h^A_BC)^2)
            + n(n-1) c / 2``; cross-checks the Gauss-equation path.
    """
    h = data.h
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
                      scale: float = 1.0) -> np.ndarray:
    """Independent standard-normal coefficient per sorted triple."""
    triples = cubic_triples(n)
    return scatter_cubic(np.zeros((n, n, n)), triples,
                         scale * rng.standard_normal(len(triples)))


# Largest dimension the JSON schema accepts: the arrays are dense, n^3
# entries for the cubic form and n^4 for the curvature tensor.
MAX_N = 12


def point_data_from_json(text: str) -> LagrangianPointData:
    """Parse the input schema {"n": int, "c": real, "h": [[A,B,C,value],...]}.

    ``n`` above ``MAX_N`` is rejected before any coefficient is read.
    Every malformed input raises ValueError.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON at line {exc.lineno}, column "
                         f"{exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("point data must be a JSON object")
    for key in ("n", "c", "h"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    n = obj["n"]
    if not _is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not 2 <= n <= MAX_N:
        raise ValueError(f"dimension n = {n} is outside the supported "
                         f"range 2..{MAX_N}")
    try:
        c = _number(obj["c"])
    except ValueError as exc:
        raise ValueError(f"c: {exc}") from None
    return LagrangianPointData(n, c, validate_cubic(obj["h"], n),
                               source=str(obj.get("source", "")))


def point_data_to_json(data: LagrangianPointData) -> str:
    """The input schema, with the nonzero entries in sorted-triple order."""
    triples = cubic_triples(data.n)
    values = data.h[tuple(triples.T)].tolist()
    entries = [[a, b, c, v] for (a, b, c), v
               in zip((triples + 1).tolist(), values) if v != 0.0]
    obj = {"n": data.n, "c": data.c, "h": entries}
    if data.source:
        obj["source"] = data.source
    return json.dumps(obj)
