"""Central finite differences for chart evaluators.

Maps are vector valued (real or complex); the step is one scalar for
every axis.  Every chart is differenced through its evaluator alone:
first derivatives by one central difference, second derivatives by two.
Both functions take a stack of points ``x`` of shape (..., n) and make
one call of ``f`` on their whole stencil, so ``f`` must map an (..., n)
array of points to an (..., K) array of values (or (...) for a scalar
map).  Each stencil point is formed and each difference is taken in the
same order as for a single point, so a row of a stack gives the same bits
as that point alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["jacobian", "second_derivatives"]


def _on_stencil(f, x: np.ndarray, pts: list) -> np.ndarray:
    """f at the stencil points ``pts`` (each (..., m, n)), with the
    stencil axis moved last: shape (..., *value_shape, sum of m)."""
    vals = np.asarray(f(np.concatenate(pts, axis=-2)))
    return np.moveaxis(vals, x.ndim - 1, -1)


def jacobian(f, x, h=1e-5) -> np.ndarray:
    """Central-difference Jacobian, columns indexed by chart axis:
    result[..., k, a] = d_a f_k at each point of the stack.  It is
    C-contiguous, as a single point's was: the products taken of it round
    by memory layout."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    steps = h * np.eye(n)
    row = x[..., None, :]
    vals = _on_stencil(f, x, [row + steps, row - steps])
    return np.ascontiguousarray((vals[..., :n] - vals[..., n:]) / (2 * h))


def second_derivatives(f, x, h=1e-4) -> np.ndarray:
    """All second partials of a vector map: result[..., i, j] = d_i d_j f
    at each point of the stack, exactly symmetric in i and j."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    steps = h * np.eye(n)
    iu, ju = np.triu_indices(n, 1)
    row = x[..., None, :]
    plus, minus = row + steps, row - steps
    p = len(iu)
    vals = _on_stencil(f, x, [row, plus, minus,
                              plus[..., iu, :] + steps[ju],
                              plus[..., iu, :] - steps[ju],
                              minus[..., iu, :] + steps[ju],
                              minus[..., iu, :] - steps[ju]])
    f0, fp, fm, pp, pm, mp, mm = np.split(
        vals, np.cumsum([1, n, n, p, p, p]), axis=-1)
    diag = (fp - 2 * f0 + fm) / h ** 2
    mixed = (pp - pm - mp + mm) / (4 * h * h)
    d2 = np.empty(diag.shape + (n,), dtype=diag.dtype)
    d2[..., np.arange(n), np.arange(n)] = diag
    d2[..., iu, ju] = mixed
    d2[..., ju, iu] = mixed
    return d2
