"""Named example gallery with verifiable claim suites.

Each entry builds its immersion or field, samples chart points, and
checks the example's published invariants (scalar curvature, minimality,
equality slacks, compatibility).  The CLI's ``verify`` command and the
acceptance tests drive these suites.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cubic import tau_from_cubic, validate_cubic
from .delta import DeltaTuple, OptimizerOptions
from .exceptions import Inadmissible
from .fields import compatibility_report, exotic_s3_field
from .immersions import (OdeState, clifford_legendrian, cp_equality_chart,
                         equality_graph_function, exotic_s3_horizontal_chart,
                         flat_equality_chart, graph_immersion, induced_data,
                         lagrangian_residual, ode_family_integrate,
                         trajectory_residuals)
from .inequalities import InequalityVariant, evaluate, evaluate_batch

__all__ = ["Claim", "GALLERY", "run_example", "example_names",
           "example_point_data", "mesh_export", "verify_with_mesh"]


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


class _Example(NamedTuple):
    """A gallery entry: its claims, its chart (built once per process) and
    the bound (variant, tuple) that its claims and mesh rows evaluate."""

    claims: Callable
    chart: Callable
    variant: InequalityVariant
    tup: DeltaTuple


# Both hyperplane families are checked in dimension 3, the flat one at
# b = 1 and the projective one on a profile integrated with step 1e-3.
_FAMILY_N = 3
_FAMILY_TUPLE = DeltaTuple(_FAMILY_N, (_FAMILY_N - 1,))
_FLAT_B = 1.0
_CP_STEP = 1e-3
# The gradient graph whose data at 0 attains the improved bound.
_GRAPH_TUPLE = DeltaTuple(5, (2,))
# Share of each chart-domain side left out when sampling chart points.
_MESH_MARGIN = 0.05


def _mesh_rows(chart, samples, seed):
    """Chart points drawn row by row, so a sample set is a prefix of every
    larger one of the same chart and seed: the 25 mesh points of thm-9.2
    are the first of its 50 claim points."""
    rng = np.random.default_rng(seed)
    lo = chart.domain[:, 0]
    hi = chart.domain[:, 1]
    pad = _MESH_MARGIN * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(samples, chart.n))


def _extract(chart, pts, seen: dict) -> list:
    """``induced_data(chart, pts)`` for a stack of chart points, each row
    looked up first in ``seen``: the points of ``chart`` already extracted
    in this pass, keyed by their bytes.  The rows not seen yet are
    extracted in one call."""
    keys = [x.tobytes() for x in pts]
    new = {key: i for i, key in enumerate(keys) if key not in seen}
    if new:
        seen.update(zip(new, induced_data(chart, pts[list(new.values())])))
    return [seen[key] for key in keys]


@functools.cache
def _legendrian():
    return clifford_legendrian(_FAMILY_N)


@functools.cache
def _cp_profile(step: float):
    return ode_family_integrate(_FAMILY_N, OdeState(0.0, 0.0, 1.0, 0.0),
                                (0.0, 0.5), step)


def verify_exotic_s3(ex: _Example, seen: dict, samples: int = 100,
                     seed: int = 0) -> list[Claim]:
    """Berger-sphere example: constant tau = 1/3, minimal, delta(2) = 2,
    equality in the first bound (rhs = 2 at c = 1, n = 3), horizontal
    cross-path, and the three compatibility conditions.  The field's data
    is constant, so only the horizontal chart is sampled."""
    fld = exotic_s3_field()
    data = fld.lagrangian_data()
    rep = evaluate(data, ex.variant, ex.tup)
    comp = compatibility_report(fld)

    chart = ex.chart()
    extracted = _extract(chart, _mesh_rows(chart, samples, seed + 1), seen)
    worst_cross = max(abs(tau_from_cubic(e.data) - 1.0 / 3.0)
                      for e in extracted)
    worst_horiz = max(e.horizontality_residual for e in extracted)

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


def verify_graph_equality(ex: _Example, seen: dict, samples: int = 1,
                          seed: int = 0) -> list[Claim]:
    """Gradient-graph equality point: extracted cubic coefficients match
    the analytic third derivatives, H^2 = 1.69, delta(2) = 11.375, and the
    improved bound is attained with nonzero mean curvature."""
    chart = ex.chart()
    data = _extract(chart, np.zeros((1, chart.n)), seen)[0].data

    # analytic third derivatives of F at 0 (the independent oracle)
    expected = validate_cubic([(1, 1, 3, 0.75), (2, 2, 3, 0.75),
                               (3, 3, 3, 3.0), (3, 4, 4, 1.0),
                               (3, 5, 5, 1.0)], 5)
    worst_coeff = np.abs(data.h - expected).max()

    opts = OptimizerOptions(restarts=8, seed=seed)
    rep = evaluate(data, ex.variant, ex.tup, opts)

    claims = [
        _claim("cubic-coefficients", worst_coeff, 1e-6,
               "vs analytic third derivatives"),
        _claim("mean-curvature-sq", rep.h2 - 1.69, 1e-6, "H^2 = 1.69"),
        _claim("delta2", rep.delta - 11.375, 1e-5, "delta(2) = 11.375"),
        _claim("improved-bound-equality", rep.slack, 1e-6, "slack at 0"),
        _claim("nonzero-mean-curvature", rep.h2, 0.5, "H^2 > 0", lower=True),
    ]
    if samples > 1:
        lo, hi = chart.domain.T
        pts = np.random.default_rng(seed).uniform(
            lo, hi, size=(samples - 1, chart.n))
        worst_omega = lagrangian_residual(chart, pts)
        claims.append(_claim("kahler-pullback", worst_omega, 1e-8,
                             "max |omega(d_i, d_j)|"))
    return claims


def verify_flat_family(ex: _Example, seen: dict, samples: int = 50,
                       seed: int = 0) -> list[Claim]:
    """Flat hyperplane-tuple family: Lagrangian, non-minimal, and the
    c = 0 bound delta(n-1) <= n(n-1) H^2 / 4 is attained."""
    chart = ex.chart()
    pts = _mesh_rows(chart, samples, seed)
    worst_omega = lagrangian_residual(chart, pts)
    reports = evaluate_batch([e.data for e in _extract(chart, pts, seen)],
                             ex.variant, ex.tup)
    min_h2 = min(rep.h2 for rep in reports)
    worst_slack = max(abs(rep.slack) for rep in reports)
    return [
        _claim("kahler-pullback", worst_omega, 1e-8),
        _claim("nonminimal", min_h2, 1e-6, "min H^2 > 0", lower=True),
        _claim("hyperplane-flat-equality", worst_slack, 1e-4, "max |slack|"),
    ]


def verify_cp_family(ex: _Example, seen: dict, samples: int = 20,
                     seed: int = 0) -> list[Claim]:
    """Projective hyperplane-tuple family over the profile ODE: integrator
    residuals, unit-norm and horizontality of the chart, and equality of
    delta(n-1) <= (n-1)(n H^2 + 4)/4."""
    resid = float(trajectory_residuals(_cp_profile(_CP_STEP)).max())
    ratio = (trajectory_residuals(_cp_profile(8e-3)).max()
             / trajectory_residuals(_cp_profile(4e-3)).max())

    chart = ex.chart()
    pts = _mesh_rows(chart, samples, seed)
    worst_norm = max(abs(np.linalg.norm(L) - 1.0) for L in chart.eval(pts))
    extracted = _extract(chart, pts, seen)
    worst_horiz = max(e.horizontality_residual for e in extracted)
    reports = evaluate_batch([e.data for e in extracted], ex.variant, ex.tup)
    worst_slack = max(abs(rep.slack) for rep in reports)
    return [
        _claim("integrator-residual", resid, 1e-9, f"step {_CP_STEP:g}"),
        _claim("integrator-order", ratio, 10.0,
               "step-halving ratio, expect about 16", lower=True),
        _claim("unit-norm", worst_norm, 1e-10),
        _claim("horizontality", worst_horiz, 1e-6),
        _claim("hyperplane-cp-equality", worst_slack, 1e-3, "max |slack|"),
    ]


# Every chart is a constant, so each is built once per process.
GALLERY = {
    "exotic-s3": _Example(
        verify_exotic_s3, functools.cache(exotic_s3_horizontal_chart),
        InequalityVariant.FIRST, DeltaTuple(3, (2,))),
    "graph-8.2": _Example(
        verify_graph_equality, functools.cache(lambda: graph_immersion(
            equality_graph_function(_GRAPH_TUPLE, 1.0), _GRAPH_TUPLE.n,
            domain=[[-0.3, 0.3]] * _GRAPH_TUPLE.n, name="graph-8.2")),
        InequalityVariant.IMPROVED, _GRAPH_TUPLE),
    "thm-9.2": _Example(
        verify_flat_family, functools.cache(lambda: flat_equality_chart(
            _FAMILY_N, _FLAT_B, _legendrian())),
        InequalityVariant.HYPERPLANE_FLAT, _FAMILY_TUPLE),
    "thm-9.3": _Example(
        verify_cp_family, functools.cache(lambda: cp_equality_chart(
            _FAMILY_N, _cp_profile(_CP_STEP), _legendrian())),
        InequalityVariant.HYPERPLANE_CP, _FAMILY_TUPLE),
}
# descriptive aliases, accepted wherever an example is named
_ALIASES = {
    "graph-equality": "graph-8.2",
    "flat-hyperplane-family": "thm-9.2",
    "cp-hyperplane-family": "thm-9.3",
}


def example_names() -> list[str]:
    return list(GALLERY)


def _canonical(name: str) -> str:
    canonical = _ALIASES.get(name, name)
    if canonical not in GALLERY:
        raise ValueError(f"unknown example {name!r}; available: "
                         f"{', '.join(GALLERY)}")
    return canonical


def example_point_data(name: str):
    """An example's pointwise data (graph-8.2's at the chart origin)."""
    canonical = _canonical(name)
    if canonical == "exotic-s3":
        return exotic_s3_field().lagrangian_data()
    if canonical == "graph-8.2":
        return induced_data(GALLERY[canonical].chart(), np.zeros(5)).data
    raise Inadmissible(f"no pointwise data registered for example {name!r}; "
                       f"use exotic-s3 or graph-8.2")


def mesh_export(name: str, samples: int = 25, seed: int = 0,
                seen: dict | None = None):
    """Sampled rows for CSV export: chart point, ambient point, tau, H^2,
    and the example's bound slack.  Returns (header, rows)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    ex = GALLERY[_canonical(name)]
    chart = ex.chart()
    seen = {} if seen is None else seen
    pts = _mesh_rows(chart, samples, seed)
    ambient = chart.eval(pts)
    header = ([f"x{i}" for i in range(chart.n)]
              + [f"L{k}_{p}" for k in range(ambient.shape[1])
                 for p in ("re", "im")]
              + ["tau", "h2", f"slack_{ex.variant.value}"])
    datas = [e.data for e in _extract(chart, pts, seen)]
    reports = evaluate_batch(datas, ex.variant, ex.tup,
                             OptimizerOptions(restarts=6, seed=seed))
    rows = []
    for x, L, data, rep in zip(pts, ambient, datas, reports):
        row = list(x) + [v for z in L for v in (z.real, z.imag)]
        row += [tau_from_cubic(data), rep.h2, rep.slack]
        rows.append(row)
    return header, rows


def run_example(name: str, samples: int | None = None, seed: int = 0,
                seen: dict | None = None) -> list[Claim]:
    """The example's claims; ``seen`` holds the chart points already
    extracted in this pass (``verify_with_mesh``)."""
    ex = GALLERY[_canonical(name)]  # ValueError for an unknown name
    seen = {} if seen is None else seen
    if samples is None:
        return ex.claims(ex, seen, seed=seed)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return ex.claims(ex, seen, samples=samples, seed=seed)


def verify_with_mesh(name: str, samples: int | None = None, seed: int = 0):
    """``run_example`` and ``mesh_export`` (``samples`` rows, 25 by
    default) in one pass: each chart point's data is extracted once.
    Returns (claims, (header, rows))."""
    seen = {}
    claims = run_example(name, samples, seed, seen)
    return claims, mesh_export(name, samples or 25, seed, seen)
