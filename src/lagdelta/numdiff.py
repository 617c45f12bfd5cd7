"""Central finite differences for chart evaluators.

Maps are vector valued (real or complex); the step is one scalar for
every axis.  Second derivatives difference an analytic Jacobian once when
the chart has one (only the Clifford torus does); every other chart gets
two central differences of its evaluator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["jacobian", "second_derivatives"]


def jacobian(f, x, h=1e-5) -> np.ndarray:
    """Central-difference Jacobian, columns indexed by chart axis."""
    x = np.asarray(x, dtype=float)
    cols = [(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
            for e in h * np.eye(x.size)]
    return np.stack(cols, axis=-1)


def second_derivatives(f, x, h=1e-4, jac=None) -> np.ndarray:
    """All second partials of a vector map: result[..., i, j] = d_i d_j f.

    With ``jac`` supplied the mixed partials come from differencing the
    Jacobian (one differencing level instead of two); the output is
    symmetrized either way.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    steps = h * np.eye(n)

    if jac is not None:
        slabs = [(np.asarray(jac(x + e)) - np.asarray(jac(x - e))) / (2 * h)
                 for e in steps]
        d2 = np.stack(slabs, axis=-1)  # [..., i, a] = d_a (d_i f)
        return 0.5 * (d2 + np.swapaxes(d2, -1, -2))

    f0 = np.asarray(f(x))
    d2 = np.zeros(f0.shape + (n, n), dtype=f0.dtype)
    for i, ei in enumerate(steps):
        d2[..., i, i] = (np.asarray(f(x + ei)) - 2 * f0
                         + np.asarray(f(x - ei))) / h ** 2
        for j in range(i + 1, n):
            ej = steps[j]
            mixed = (np.asarray(f(x + ei + ej)) - np.asarray(f(x + ei - ej))
                     - np.asarray(f(x - ei + ej)) + np.asarray(f(x - ei - ej)))
            mixed /= 4 * h * h
            d2[..., i, j] = mixed
            d2[..., j, i] = mixed
    return d2
