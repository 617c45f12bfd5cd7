"""Tour 1: curvature algebra and delta-invariants on the Berger sphere.

The running example is the minimal Lagrangian 3-sphere point whose cubic
form, in an adapted orthonormal frame, has the two coefficients
h^1_11 = 2/sqrt(3) and h^1_22 = -2/sqrt(3).  At c = 1 its plane
curvatures are (-5/3, 1, 1), its scalar curvature is 1/3, and delta(2)
attains the first bound's right-hand side of 2.
"""

import numpy as np

from lagdelta import (DeltaTuple, LagrangianPointData, OptimizerOptions,
                      constant_curvature, delta_invariant, gauss_curvature,
                      mean_curvature, oracle_delta_dim3, oracle_delta_grid,
                      scalar_tau, sectional_curvature, tau_from_cubic,
                      validate_cubic)

lam = 2.0 / np.sqrt(3.0)
# 1-based (A, B, C, value) entries in, a dense 0-based (3, 3, 3) array out
h = validate_cubic([(1, 1, 1, lam), (1, 2, 2, -lam)], n=3)
print("h^1_BC slice:\n", h[0])
data = LagrangianPointData(n=3, c=1.0, h=h)

R = gauss_curvature(data)
eye = np.eye(3)
print("plane curvatures:",
      [round(sectional_curvature(R, eye[i], eye[j]), 6)
       for i, j in [(0, 1), (0, 2), (1, 2)]])
print("tau via curvature tensor:", scalar_tau(R))
print("tau directly from the cubic form:", tau_from_cubic(data))
H, h2 = mean_curvature(h)
print("mean curvature vector:", H, " squared norm:", h2)

# delta(2) three ways: optimizer, exact eigenvalue oracle, rotation grid
tup = DeltaTuple(3, (2,))
value, config, diag = delta_invariant(R, tup, OptimizerOptions(restarts=8))
print("\ndelta(2) optimizer:", value)
print("   argmin blocks:", config.blocks, " diagnostics:", diag.summary())
print("delta(2) eigen oracle:", oracle_delta_dim3(R))
print("delta(2) grid oracle (resolution 60):",
      oracle_delta_grid(R, tup, 60))

# constant-curvature sanity: every configuration gives the same value
Rc = constant_curvature(5, 0.5)
for parts in [(2,), (2, 2), (2, 3)]:
    t = DeltaTuple(5, parts)
    v, _, _ = delta_invariant(Rc, t, OptimizerOptions(restarts=4))
    closed = (5 * 4 - sum(p * (p - 1) for p in parts)) * 0.5 / 2
    print(f"space form, delta{t} = {v:.12f}   closed form {closed}")
