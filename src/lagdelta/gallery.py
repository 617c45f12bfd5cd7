"""Named example gallery with verifiable claim suites.

Each entry builds its immersion or field, samples chart points, and
checks the example's published invariants (scalar curvature, minimality,
equality slacks, compatibility).  The CLI's ``verify`` command and the
acceptance tests drive these suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubic import tau_from_cubic, validate_cubic
from .delta import DeltaTuple, OptimizerOptions
from .exceptions import Inadmissible
from .fields import compatibility_report, exotic_s3_field
from .immersions import (OdeState, clifford_legendrian, cp_equality_chart,
                         equality_graph_function, exotic_s3_horizontal_chart,
                         flat_equality_chart, graph_immersion,
                         horizontality_residual, induced_data_flat,
                         induced_data_horizontal, lagrangian_residual,
                         ode_family_integrate, trajectory_residuals)
from .inequalities import InequalityVariant, evaluate

__all__ = ["Claim", "GALLERY", "run_example", "example_names",
           "example_point_data", "mesh_export"]


@dataclass
class Claim:
    name: str
    worst: float
    tol: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "worst": self.worst, "tol": self.tol,
                "passed": self.passed, "note": self.note}


def _claim(name, worst, tol, note="", lower=False):
    """Build a claim; ``lower`` means the value must exceed tol instead."""
    ok = worst > tol if lower else abs(worst) <= tol
    return Claim(name, float(worst), tol, bool(ok), note)


# Both hyperplane families are checked in dimension 3, the flat one at
# b = 1 and the projective one on a profile integrated with step 1e-3.
_FAMILY_N = 3
_FAMILY_TUPLE = DeltaTuple(_FAMILY_N, (_FAMILY_N - 1,))
_FLAT_B = 1.0
_CP_STEP = 1e-3
# Share of each chart-domain side left out when sampling chart points.
_MESH_MARGIN = 0.05


def _mesh_rows(chart, samples, seed):
    rng = np.random.default_rng(seed)
    lo = chart.domain[:, 0]
    hi = chart.domain[:, 1]
    pad = _MESH_MARGIN * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(samples, chart.n))


def _graph_chart(domain=None):
    """The gradient graph whose data at 0 attains the improved bound."""
    F, grad = equality_graph_function(DeltaTuple(5, (2,)), 1.0)
    return graph_immersion(F, grad=grad, n=5, domain=domain, name="graph-8.2")


def _flat_chart():
    return flat_equality_chart(_FAMILY_N, _FLAT_B,
                               clifford_legendrian(_FAMILY_N))


def _cp_profile(step: float):
    return ode_family_integrate(_FAMILY_N, OdeState(0.0, 0.0, 1.0, 0.0),
                                (0.0, 0.5), step)


def _cp_chart(traj):
    return cp_equality_chart(traj.n, traj, clifford_legendrian(traj.n))


def verify_exotic_s3(samples: int = 100, seed: int = 0) -> list[Claim]:
    """Berger-sphere example: constant tau = 1/3, minimal, delta(2) = 2,
    equality in the first bound (rhs = 2 at c = 1, n = 3), horizontal
    cross-path, and the three compatibility conditions.  The field's data
    is constant, so only the horizontal chart is sampled."""
    fld = exotic_s3_field()
    data = fld.lagrangian_data()
    rep = evaluate(data, InequalityVariant.FIRST, DeltaTuple(3, (2,)))
    comp = compatibility_report(fld)

    chart = exotic_s3_horizontal_chart()
    worst_cross = worst_horiz = 0.0
    for u in _mesh_rows(chart, samples, seed + 1):
        ex = induced_data_horizontal(chart, u)
        worst_cross = max(worst_cross,
                          abs(tau_from_cubic(ex.data) - 1.0 / 3.0))
        worst_horiz = max(worst_horiz, ex.horizontality_residual)

    return [
        _claim("tau-intrinsic", abs(tau_from_cubic(data) - 1.0 / 3.0), 1e-8,
               "max |tau - 1/3|"),
        _claim("mean-curvature", rep.h2, 1e-10, "max H^2"),
        _claim("delta2", abs(rep.delta - 2.0), 1e-6, "max |delta(2) - 2|"),
        _claim("first-bound-equality", abs(rep.slack), 1e-6, "max |slack|"),
        _claim("compatibility", comp.max_deviation(), 1e-6,
               "max of the three condition deviations"),
        _claim("tau-horizontal-lift", worst_cross, 1e-4,
               "cross-path via the horizontal realization"),
        _claim("lift-horizontality", worst_horiz, 1e-6, "max residual"),
    ]


def verify_graph_equality(samples: int = 1, seed: int = 0) -> list[Claim]:
    """Gradient-graph equality point: extracted cubic coefficients match
    the analytic third derivatives, H^2 = 1.69, delta(2) = 11.375, and the
    improved bound is attained with nonzero mean curvature."""
    tup = DeltaTuple(5, (2,))
    chart = _graph_chart()
    ex = induced_data_flat(chart, np.zeros(5))

    # analytic third derivatives of F at 0 (the independent oracle)
    expected = validate_cubic([(1, 1, 3, 0.75), (2, 2, 3, 0.75),
                               (3, 3, 3, 3.0), (3, 4, 4, 1.0),
                               (3, 5, 5, 1.0)], 5)
    worst_coeff = np.abs(ex.data.h - expected).max()

    opts = OptimizerOptions(restarts=8, seed=seed)
    rep = evaluate(ex.data, InequalityVariant.IMPROVED, tup, opts)

    claims = [
        _claim("cubic-coefficients", worst_coeff, 1e-6,
               "vs analytic third derivatives"),
        _claim("mean-curvature-sq", rep.h2 - 1.69, 1e-6, "H^2 = 1.69"),
        _claim("delta2", rep.delta - 11.375, 1e-5, "delta(2) = 11.375"),
        _claim("improved-bound-equality", rep.slack, 1e-6, "slack at 0"),
        _claim("nonzero-mean-curvature", rep.h2, 0.5, "H^2 > 0", lower=True),
    ]
    if samples > 1:
        rng = np.random.default_rng(seed)
        worst_omega = 0.0
        for _ in range(samples - 1):
            x = rng.uniform(-0.3, 0.3, size=5)
            worst_omega = max(worst_omega, lagrangian_residual(chart, x))
        claims.append(_claim("kahler-pullback", worst_omega, 1e-8,
                             "max |omega(d_i, d_j)|"))
    return claims


def verify_flat_family(samples: int = 50, seed: int = 0) -> list[Claim]:
    """Flat hyperplane-tuple family: Lagrangian, non-minimal, and the
    c = 0 bound delta(n-1) <= n(n-1) H^2 / 4 is attained."""
    chart = _flat_chart()
    pts = _mesh_rows(chart, samples, seed)
    worst_omega = worst_slack = 0.0
    min_h2 = np.inf
    opts = OptimizerOptions(restarts=6, seed=seed)
    for x in pts:
        worst_omega = max(worst_omega, lagrangian_residual(chart, x))
        ex = induced_data_flat(chart, x)
        rep = evaluate(ex.data, InequalityVariant.HYPERPLANE_FLAT,
                       _FAMILY_TUPLE, opts)
        min_h2 = min(min_h2, rep.h2)
        worst_slack = max(worst_slack, abs(rep.slack))
    return [
        _claim("kahler-pullback", worst_omega, 1e-8),
        _claim("nonminimal", min_h2, 1e-6, "min H^2 > 0", lower=True),
        _claim("hyperplane-flat-equality", worst_slack, 1e-4, "max |slack|"),
    ]


def verify_cp_family(samples: int = 20, seed: int = 0) -> list[Claim]:
    """Projective hyperplane-tuple family over the profile ODE: integrator
    residuals, unit-norm and horizontality of the chart, and equality of
    delta(n-1) <= (n-1)(n H^2 + 4)/4."""
    traj = _cp_profile(_CP_STEP)
    resid = float(trajectory_residuals(traj).max())
    ratio = (trajectory_residuals(_cp_profile(8e-3)).max()
             / trajectory_residuals(_cp_profile(4e-3)).max())

    chart = _cp_chart(traj)
    pts = _mesh_rows(chart, samples, seed)
    worst_norm = worst_horiz = worst_slack = 0.0
    opts = OptimizerOptions(restarts=6, seed=seed)
    for x in pts:
        L = chart.eval(x)
        worst_norm = max(worst_norm, abs(np.linalg.norm(L) - 1.0))
        worst_horiz = max(worst_horiz, horizontality_residual(chart, x))
        ex = induced_data_horizontal(chart, x)
        rep = evaluate(ex.data, InequalityVariant.HYPERPLANE_CP,
                       _FAMILY_TUPLE, opts)
        worst_slack = max(worst_slack, abs(rep.slack))
    return [
        _claim("integrator-residual", resid, 1e-9, f"step {_CP_STEP:g}"),
        _claim("integrator-order", ratio, 10.0,
               "step-halving ratio, expect about 16", lower=True),
        _claim("unit-norm", worst_norm, 1e-10),
        _claim("horizontality", worst_horiz, 1e-6),
        _claim("hyperplane-cp-equality", worst_slack, 1e-3, "max |slack|"),
    ]


GALLERY = {
    "exotic-s3": verify_exotic_s3,
    "graph-8.2": verify_graph_equality,
    "thm-9.2": verify_flat_family,
    "thm-9.3": verify_cp_family,
}
# descriptive aliases, accepted wherever an example is named
_ALIASES = {
    "graph-equality": "graph-8.2",
    "flat-hyperplane-family": "thm-9.2",
    "cp-hyperplane-family": "thm-9.3",
}
GALLERY.update({alias: GALLERY[name] for alias, name in _ALIASES.items()})


def example_names() -> list[str]:
    return [name for name in GALLERY if name not in _ALIASES]


def _canonical(name: str) -> str:
    if name not in GALLERY:
        raise ValueError(f"unknown example {name!r}; available: "
                       f"{', '.join(example_names())}")
    return _ALIASES.get(name, name)


def example_point_data(name: str):
    """An example's pointwise data (graph-8.2's at the chart origin)."""
    canonical = _canonical(name)
    if canonical == "exotic-s3":
        return exotic_s3_field().lagrangian_data()
    if canonical == "graph-8.2":
        return induced_data_flat(_graph_chart(), np.zeros(5)).data
    raise Inadmissible(f"no pointwise data registered for example {name!r}; "
                       f"use exotic-s3 or graph-8.2")


def _mesh_chart_and_bound(name: str):
    """Chart and bound (variant, tuple) of an example's mesh export."""
    name = _canonical(name)
    if name == "exotic-s3":
        return (exotic_s3_horizontal_chart(), InequalityVariant.FIRST,
                DeltaTuple(3, (2,)))
    if name == "graph-8.2":
        return (_graph_chart(domain=[[-0.3, 0.3]] * 5),
                InequalityVariant.IMPROVED, DeltaTuple(5, (2,)))
    if name == "thm-9.2":
        return (_flat_chart(), InequalityVariant.HYPERPLANE_FLAT,
                _FAMILY_TUPLE)
    return (_cp_chart(_cp_profile(_CP_STEP)), InequalityVariant.HYPERPLANE_CP,
            _FAMILY_TUPLE)


def mesh_export(name: str, samples: int = 25, seed: int = 0):
    """Sampled rows for CSV export: chart point, ambient point, tau, H^2,
    and the example's bound slack.  Returns (header, rows)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    chart, variant, tup = _mesh_chart_and_bound(name)
    extract = (induced_data_flat if chart.ambient == "flat"
               else induced_data_horizontal)
    pts = _mesh_rows(chart, samples, seed)
    ambient_dim = len(chart.eval(pts[0]))
    header = ([f"x{i}" for i in range(chart.n)]
              + [f"L{k}_{p}" for k in range(ambient_dim) for p in ("re", "im")]
              + ["tau", "h2", f"slack_{variant.value}"])
    opts = OptimizerOptions(restarts=6, seed=seed)
    rows = []
    for x in pts:
        L = chart.eval(x)
        data = extract(chart, x).data
        rep = evaluate(data, variant, tup, opts)
        row = list(x) + [v for z in L for v in (z.real, z.imag)]
        row += [tau_from_cubic(data), rep.h2, rep.slack]
        rows.append(row)
    return header, rows


def run_example(name: str, samples: int | None = None,
                seed: int = 0) -> list[Claim]:
    fn = GALLERY[_canonical(name)]  # ValueError for an unknown name
    if samples is None:
        return fn(seed=seed)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return fn(samples=samples, seed=seed)
