"""Tour 3: a gradient graph attaining the improved bound at a point.

Every Lagrangian submanifold of flat complex space is locally a gradient
graph x -> x + i grad F(x).  For the cubic potential whose gradient
``equality_graph_function`` returns, the data at the origin realizes the
improved bound's equality structure with nonzero mean curvature: the
bound is attained by non-minimal data, so its coefficient cannot be
lowered.
"""

import numpy as np

from lagdelta import (DeltaTuple, InequalityVariant as V, OptimizerOptions,
                      coefficients, delta_invariant, detect_equality_structure,
                      equality_graph_function, gauss_curvature,
                      graph_immersion, induced_data, lagrangian_residual,
                      mean_curvature)

tup = DeltaTuple(5, (2,))
chart = graph_immersion(equality_graph_function(tup, lam=1.0), 5,
                        name="equality-graph")

# the pullback of the Kahler form vanishes identically for gradient graphs
x = np.array([0.2, -0.1, 0.05, 0.3, -0.25])
print("Kahler pullback at a random point:", lagrangian_residual(chart, x))

extraction = induced_data(chart, np.zeros(5))
h = extraction.data.h
print("extraction symmetry deviation:", extraction.symmetry_deviation)
print("cubic coefficients at 0 (third derivatives of F), 1-based triples:")
for a, b, c in [(1, 1, 3), (2, 2, 3), (3, 3, 3), (3, 4, 4), (3, 5, 5)]:
    print(f"  h{(a, b, c)} = {h[a - 1, b - 1, c - 1]:.6f}")

_, h2 = mean_curvature(h)
delta, _, _ = delta_invariant(gauss_curvature(extraction.data), tup,
                              OptimizerOptions(restarts=8))
a, b = coefficients(V.IMPROVED, tup)
print(f"\nH^2 = {h2}   delta(2) = {delta}")
print(f"improved bound: a = {a} = 175/26, rhs = a H^2 = {a * h2}")
print(f"slack = {a * h2 - delta:.3e}  (equality attained, H^2 > 0)")

det = detect_equality_structure(h, tup, V.IMPROVED, tol=1e-8)
print(f"pattern deviation {det.deviation:.2e}, fitted lambda = {det.lam}")
