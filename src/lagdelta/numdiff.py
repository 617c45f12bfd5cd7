"""Central finite differences for chart evaluators.

Maps are vector valued (real or complex); steps may be scalar or per-axis.
Second derivatives prefer differencing an analytic Jacobian when one is
available, which keeps cubic-coefficient extraction at the ~1e-6 level the
equality checks need.
"""

from __future__ import annotations

import numpy as np

__all__ = ["jacobian", "second_derivatives"]


def _steps(h, n):
    h = np.asarray(h, dtype=float)
    return np.full(n, float(h)) if h.ndim == 0 else h


def jacobian(f, x, h=1e-5) -> np.ndarray:
    """Central-difference Jacobian, columns indexed by chart axis."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hs = _steps(h, n)
    cols = []
    for a in range(n):
        e = np.zeros(n)
        e[a] = hs[a]
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * hs[a]))
    return np.stack(cols, axis=-1)


def second_derivatives(f, x, h=1e-4, jac=None) -> np.ndarray:
    """All second partials of a vector map: result[..., i, j] = d_i d_j f.

    With ``jac`` supplied the mixed partials come from differencing the
    Jacobian (one differencing level instead of two); the output is
    symmetrized either way.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    hs = _steps(h, n)

    if jac is not None:
        slabs = []
        for a in range(n):
            e = np.zeros(n)
            e[a] = hs[a]
            slabs.append((np.asarray(jac(x + e)) - np.asarray(jac(x - e)))
                         / (2 * hs[a]))
        d2 = np.stack(slabs, axis=-1)  # [..., i, a] = d_a (d_i f)
        return 0.5 * (d2 + np.swapaxes(d2, -1, -2))

    f0 = np.asarray(f(x))
    d2 = np.zeros(f0.shape + (n, n), dtype=f0.dtype)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = hs[i]
        d2[..., i, i] = (np.asarray(f(x + ei)) - 2 * f0
                         + np.asarray(f(x - ei))) / hs[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = hs[j]
            mixed = (np.asarray(f(x + ei + ej)) - np.asarray(f(x + ei - ej))
                     - np.asarray(f(x - ei + ej)) + np.asarray(f(x - ei - ej)))
            mixed /= 4 * hs[i] * hs[j]
            d2[..., i, j] = mixed
            d2[..., j, i] = mixed
    return d2

