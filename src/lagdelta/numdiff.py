"""Central finite differences for chart evaluators.

Maps are vector valued (real or complex); the step is one scalar for
every axis.  Every chart is differenced through its evaluator alone:
first derivatives by one central difference, second derivatives by two.
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


def second_derivatives(f, x, h=1e-4) -> np.ndarray:
    """All second partials of a vector map: result[..., i, j] = d_i d_j f,
    exactly symmetric in i and j."""
    x = np.asarray(x, dtype=float)
    n = x.size
    steps = h * np.eye(n)
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
