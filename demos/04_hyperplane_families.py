"""Tour 4: the hyperplane-tuple equality families.

For the tuple (n-1) the improved bound specializes to
delta(n-1) <= n(n-1) H^2 / 4 + (n-1) c, and non-minimal data attaining
it exists in both flat ambient (a cone-like family over a minimal
Legendrian torus) and the projective space (a horizontal family whose
profile solves a three-dimensional ODE).  Both families hit the bound to
machine precision at every sampled point.
"""

import numpy as np

from lagdelta import (OdeState, clifford_legendrian, cp_equality_chart,
                      flat_equality_chart, gauss_curvature, induced_data,
                      lagrangian_residual, mean_curvature,
                      ode_family_integrate, oracle_delta_dim3,
                      trajectory_residuals)

n = 3
torus = clifford_legendrian(n)  # minimal Legendrian torus, checked at build

print("== flat ambient family (c = 0) ==")
chart = flat_equality_chart(n, b=1.0, legendrian=torus)
rng = np.random.default_rng(1)
lo, hi = chart.domain[:, 0], chart.domain[:, 1]
for _ in range(4):
    x = rng.uniform(lo + 0.05, hi - 0.05)
    data = induced_data(chart, x).data
    _, h2 = mean_curvature(data.h)
    delta = oracle_delta_dim3(gauss_curvature(data))
    print(f"  lambda = {x[0]:.3f}: omega = "
          f"{lagrangian_residual(chart, x):.1e}, H^2 = {h2:.4f}, "
          f"delta(2) = {delta:.6f}, slack = {n*(n-1)/4*h2 - delta:.1e}")

print("\n== projective family over the profile ODE (c = 1) ==")
traj = ode_family_integrate(n, OdeState(0.0, 0.0, 1.0, 0.0), (0.0, 0.5),
                            step=1e-3)
print("  integrator residuals per component:", trajectory_residuals(traj))
chart = cp_equality_chart(n, traj, torus)
for _ in range(4):
    x = np.array([rng.uniform(0.05, 0.45), rng.uniform(-1, 1),
                  rng.uniform(-1, 1)])
    extraction = induced_data(chart, x)  # c = 1 for a sphere chart
    data = extraction.data
    _, h2 = mean_curvature(data.h)
    delta = oracle_delta_dim3(gauss_curvature(data))
    rhs = (n - 1) * (n * h2 + 4) / 4
    print(f"  t = {x[0]:.3f}: horizontality = "
          f"{extraction.horizontality_residual:.1e}, H^2 = {h2:.4f}, "
          f"delta(2) = {delta:.6f}, slack = {rhs - delta:.1e}")

print("\nBoth families are non-minimal everywhere yet attain their bound,")
print("so neither coefficient can be improved.")
