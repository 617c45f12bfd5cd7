"""Sharp curvature inequalities for Lagrangian pointwise data.

Every variant bounds a delta-invariant by ``a * H^2 + b * c`` with exact
rational coefficients; the suite evaluates the bounds, detects the sparse
second-fundamental-form structures characterizing equality, and
synthesizes equality-case data for round-trip tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cubic import (LagrangianPointData, cubic_triples, gauss_components,
                    gauss_curvature, mean_curvature, rotate_cubic,
                    scatter_cubic)
from .delta import (DeltaTuple, OptimizerOptions, delta_invariant_batch,
                    delta_value, enumerate_tuples)
from .exceptions import Inadmissible

__all__ = [
    "InequalityVariant",
    "InequalityReport",
    "StructureReport",
    "coefficients",
    "select_improved",
    "admissible_variants",
    "evaluate",
    "bound_report",
    "detect_equality_structure",
    "synthesize_equality_data",
    "soundness_audit",
]

_THIRD = Fraction(1, 3)

# Default |slack| at or below which a bound counts as attained.
EQ_TOL = 1e-6


class InequalityVariant(str, enum.Enum):
    OLD = "old"
    FIRST = "first"
    OPREA = "oprea"
    IMPROVED = "improved"
    HIGH_A = "high-a"
    K1 = "k1"
    HYPERPLANE_FLAT = "hyperplane-flat"
    HYPERPLANE_CP = "hyperplane-cp"


def _a_fraction(tup: DeltaTuple) -> Fraction:
    return sum((Fraction(1, 2 + p) for p in tup.parts), Fraction(0))


def coefficients(variant: InequalityVariant, tup: DeltaTuple) -> tuple[float, float]:
    """Right-hand-side coefficients (a, b): the bound is a*H^2 + b*c.

    Raises :class:`Inadmissible` for a pairing that violates the variant's
    admissibility conditions (threshold tests on A are exact rational
    arithmetic, so the boundary A = 1/3 lands on IMPROVED).
    """
    n, k, N = tup.n, tup.k, tup.N
    b = 0.5 * (n * (n - 1) - sum(p * (p - 1) for p in tup.parts))
    A = _a_fraction(tup)

    if variant == InequalityVariant.OLD:
        a = n * n * (n + k - 1 - N) / (2.0 * (n + k - N))
        return a, b

    if variant in (InequalityVariant.FIRST, InequalityVariant.OPREA):
        if tup.parts != (2,):
            raise Inadmissible(f"{variant.value} applies to the tuple (2) only")
        if variant == InequalityVariant.FIRST:
            return n * n * (n - 2) / (2.0 * (n - 1)), b
        return n * n * (2 * n - 3) / (2.0 * (2 * n + 3)), b

    if variant == InequalityVariant.IMPROVED:
        if N >= n:
            raise Inadmissible("improved bound requires N < n")
        if A > _THIRD:
            raise Inadmissible(f"improved bound requires A <= 1/3, got A = {A}")
        sixA = 6.0 * float(A)
        a = n * n * (n - N + 3 * k - 1 - sixA) / (2.0 * (n - N + 3 * k + 2 - sixA))
        return a, b

    if variant == InequalityVariant.HIGH_A:
        if N >= n:
            raise Inadmissible("high-A bound requires N < n")
        if A <= _THIRD:
            raise Inadmissible(f"high-A bound requires A > 1/3, got A = {A}")
        a = n * n * (n - N + 3 * k - 3) / (2.0 * (n - N + 3 * k))
        return a, b

    if variant == InequalityVariant.K1:
        if k != 1:
            raise Inadmissible("k1 bound applies to single-part tuples")
        n1 = tup.parts[0]
        num = n1 * (n - n1) + 2 * n - 2
        den = n1 * (n - n1) + 2 * n + 3 * n1 + 4
        return n * n * num / (2.0 * den), b

    if variant in (InequalityVariant.HYPERPLANE_FLAT,
                   InequalityVariant.HYPERPLANE_CP):
        if tup.parts != (n - 1,):
            raise Inadmissible(f"{variant.value} applies to the tuple (n-1) only")
        a = n * (n - 1) / 4.0
        if variant == InequalityVariant.HYPERPLANE_FLAT:
            return a, 0.0
        return a, float(n - 1)

    raise Inadmissible(f"unknown variant {variant!r}")


def select_improved(tup: DeltaTuple) -> InequalityVariant:
    """Which improved bound applies: IMPROVED for A <= 1/3, HIGH_A above."""
    if tup.N >= tup.n:
        raise Inadmissible("no improved bound at N = n; only the base "
                           "inequality applies there")
    return (InequalityVariant.IMPROVED if _a_fraction(tup) <= _THIRD
            else InequalityVariant.HIGH_A)


def admissible_variants(tup: DeltaTuple) -> list[InequalityVariant]:
    """Variants applicable to a tuple, hyperplane entries excluded."""
    out = [InequalityVariant.OLD]
    if tup.parts == (2,):
        out += [InequalityVariant.FIRST, InequalityVariant.OPREA]
    if tup.k == 1:
        out.append(InequalityVariant.K1)
    if tup.N < tup.n:
        out.append(select_improved(tup))
    return out


@dataclass
class InequalityReport:
    variant: InequalityVariant
    tup: DeltaTuple
    n: int
    c: float
    delta: float
    h2: float
    rhs: float
    slack: float
    equality: bool
    eq_tol: float
    diagnostics: object = None

    def to_dict(self) -> dict:
        d = {
            "variant": self.variant.value,
            "tuple": list(self.tup.parts),
            "n": self.n,
            "c": self.c,
            "delta": self.delta,
            "h2": self.h2,
            "rhs": self.rhs,
            "slack": self.slack,
            "equality": self.equality,
        }
        if self.diagnostics is not None:
            d["diagnostics"] = self.diagnostics.summary()
        return d


def evaluate(data: LagrangianPointData, variant: InequalityVariant,
             tup: DeltaTuple, opts: OptimizerOptions | None = None,
             eq_tol: float = EQ_TOL) -> InequalityReport:
    """Evaluate one bound on one data point.

    delta comes from :func:`~lagdelta.delta.delta_value`: the exact
    eigenvalue oracle in dimension 3, the optimizer otherwise.  An
    unconverged optimizer propagates as a flagged report, never a silent
    failure.
    """
    return _report(data, variant, tup, eq_tol,
                   lambda: delta_value(gauss_curvature(data), tup, opts))


def bound_report(data: LagrangianPointData, variant: InequalityVariant,
                 tup: DeltaTuple, delta: float, eq_tol: float = EQ_TOL,
                 diagnostics=None) -> InequalityReport:
    """Compare a given delta value with one bound ``a * H^2 + b * c``.

    ``diagnostics`` (the optimizer's, if it produced ``delta``) is carried
    into the report unchanged.
    """
    return _report(data, variant, tup, eq_tol, lambda: (delta, diagnostics))


def _report(data, variant, tup, eq_tol, delta_of) -> InequalityReport:
    """Check the bound applies, then call ``delta_of()`` for
    (delta, diagnostics), so an inadmissible bound costs no delta."""
    if variant == InequalityVariant.HYPERPLANE_FLAT and data.c != 0.0:
        raise Inadmissible("the flat hyperplane bound is stated for c = 0")
    if variant == InequalityVariant.HYPERPLANE_CP and data.c != 1.0:
        raise Inadmissible("the projective hyperplane bound is stated for c = 1")
    a, b = coefficients(variant, tup)
    delta, diagnostics = delta_of()
    h2 = float(mean_curvature(data.h)[1])
    rhs = a * h2 + b * data.c
    slack = rhs - delta
    return InequalityReport(variant, tup, data.n, data.c, delta, h2, rhs,
                            slack, bool(abs(slack) <= eq_tol), eq_tol,
                            diagnostics)


# ---------------------------------------------------------------------------
# equality-case structures
# ---------------------------------------------------------------------------

def _random_traceless_symmetric(q: int, rng: np.random.Generator,
                                scale: float) -> np.ndarray:
    """Totally symmetric (q, q, q) array with exactly zero partial traces.

    The last diagonal entry of every trace is assigned as the negative of
    the sequential partial sum, so downstream index-order summation gives
    0.0 exactly.
    """
    triples = cubic_triples(q)
    S = scatter_cubic(np.zeros((q, q, q)), triples,
                      scale * rng.standard_normal(len(triples)))
    last = q - 1
    for g in range(q):
        partial = 0.0
        for a in range(q - 1):
            partial += S[a, a, g]
        scatter_cubic(S, [(g, last, last)], -partial)
    return S


def _improved_mean_part(h: np.ndarray, tup: DeltaTuple, lam: float):
    """Write the IMPROVED structure's entries carrying the mean curvature,
    which lies along the first complement direction e_N (0-based)."""
    m = tup.N
    for block in tup.blocks():
        scatter_cubic(h, [(a, a, m) for a in block],
                      3.0 * lam / (2 + len(block)))
    scatter_cubic(h, [(m, m, m)], 3.0 * lam)
    scatter_cubic(h, [(m, u, u) for u in range(m + 1, tup.n)], lam)


def synthesize_equality_data(tup: DeltaTuple, variant: InequalityVariant,
                             lam: float = 1.0, seed: int = 0,
                             c: float = 0.0,
                             block_scale: float = 1.0) -> LagrangianPointData:
    """Cubic data realizing a variant's equality structure exactly.

    Within-block parts are random traceless symmetric tensors drawn from
    ``seed``.  For the minimal structures (OLD via total symmetry, HIGH_A
    by its statement) ``lam`` is ignored and the mean curvature vanishes
    exactly; the IMPROVED structure carries mean curvature along the first
    complement direction proportional to ``lam``.
    """
    n = tup.n
    rng = np.random.default_rng([seed, n, len(tup.parts)])
    h = np.zeros((n, n, n))

    if variant in (InequalityVariant.OLD, InequalityVariant.HIGH_A):
        if variant == InequalityVariant.HIGH_A:
            coefficients(variant, tup)  # admissibility check
        for block in tup.blocks():
            q = len(block)
            S = _random_traceless_symmetric(q, rng, block_scale)
            lo = block[0]
            h[lo:lo + q, lo:lo + q, lo:lo + q] = S
    elif variant in (InequalityVariant.IMPROVED, InequalityVariant.K1):
        coefficients(InequalityVariant.IMPROVED, tup)
        for block in tup.blocks():
            q = len(block)
            S = _random_traceless_symmetric(q, rng, block_scale)
            lo = block[0]
            h[lo:lo + q, lo:lo + q, lo:lo + q] = S
        _improved_mean_part(h, tup, lam)
    elif variant == InequalityVariant.FIRST:
        if tup.parts != (2,):
            raise Inadmissible("the first-bound structure applies to tuple (2)")
        scatter_cubic(h, [(0, 0, 0), (0, 1, 1)], [lam, -lam])
    else:
        raise Inadmissible(f"no equality synthesis for variant {variant.value}")

    return LagrangianPointData(n, c, h, source=f"equality-{variant.value}")


@dataclass
class StructureReport:
    variant: InequalityVariant
    deviation: float
    lam: float | None
    passed: bool
    tol: float
    frame_note: str = ""


def _pattern_target(h: np.ndarray, tup: DeltaTuple,
                    variant: InequalityVariant) -> tuple[np.ndarray, float | None]:
    """Nearest in-pattern array with free parameters fitted from h."""
    n, N = tup.n, tup.N
    target = np.zeros_like(h)
    lam = None

    def fill_block(block):
        q = len(block)
        lo = block[0]
        S = h[lo:lo + q, lo:lo + q, lo:lo + q].copy()
        tr = np.einsum("aag->g", S) / (q + 2)
        eye = np.eye(q)
        S -= (np.einsum("ab,g->abg", eye, tr)
              + np.einsum("bg,a->abg", eye, tr)
              + np.einsum("ag,b->abg", eye, tr))
        target[lo:lo + q, lo:lo + q, lo:lo + q] = S

    if variant in (InequalityVariant.HIGH_A,):
        for block in tup.blocks():
            fill_block(block)
    elif variant in (InequalityVariant.IMPROVED, InequalityVariant.K1):
        lam = h[N, N, N] / 3.0
        for block in tup.blocks():
            fill_block(block)
        _improved_mean_part(target, tup, lam)
    elif variant == InequalityVariant.FIRST:
        lam = h[0, 0, 0]
        scatter_cubic(target, [(0, 0, 0), (0, 1, 1)], [lam, -lam])
    elif variant == InequalityVariant.OLD:
        # per-slice shape-operator pattern: block-diagonal blocks with a
        # common trace mu_A shared by the scalar diagonal
        comp = list(range(N, n))
        for A in range(n):
            HA = h[A]
            estimates = [sum(HA[b, b] for b in block) for block in tup.blocks()]
            estimates += [HA[u, u] for u in comp]
            mu = float(np.mean(estimates))
            for block in tup.blocks():
                q = len(block)
                lo = block[0]
                sub = HA[lo:lo + q, lo:lo + q].copy()
                sub += (mu - np.trace(sub)) / q * np.eye(q)
                target[A, lo:lo + q, lo:lo + q] = sub
            for u in comp:
                target[A, u, u] = mu
    else:
        raise Inadmissible(f"no equality pattern for variant {variant.value}")
    return target, lam


def _block_rotation(tup: DeltaTuple, angles: np.ndarray) -> np.ndarray:
    """Frame rotation acting within blocks and within the complement."""
    n, N = tup.n, tup.N
    Q = np.eye(n)
    pos = 0
    groups = list(tup.blocks()) + ([tuple(range(N, n))] if N < n else [])
    for grp in groups:
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                t = angles[pos]
                pos += 1
                G = np.eye(n)
                a, b = grp[i], grp[j]
                G[a, a] = G[b, b] = np.cos(t)
                G[a, b] = -np.sin(t)
                G[b, a] = np.sin(t)
                Q = Q @ G
    return Q


def _n_block_angles(tup: DeltaTuple) -> int:
    n, N = tup.n, tup.N
    total = sum(q * (q - 1) // 2 for q in tup.parts)
    total += (n - N) * (n - N - 1) // 2
    return total


def detect_equality_structure(h: np.ndarray, tup: DeltaTuple,
                              variant: InequalityVariant,
                              frame: np.ndarray | None = None,
                              tol: float = 1e-8,
                              search: bool = True) -> StructureReport:
    """Max deviation of cubic data from a variant's equality pattern.

    The data is first rotated into ``frame`` (typically the optimizer's
    argmin configuration, columns ordered blocks-first).  Canonical gauge
    freedoms are resolved before measuring: the IMPROVED pattern aligns
    the first complement direction with the mean-curvature vector, the
    FIRST pattern scans the in-plane rotation.  If the canonical frame
    still fails, an optional secondary search over within-block and
    complement rotations looks for a frame realizing the pattern.
    """
    if h.shape != (tup.n,) * 3:
        raise Inadmissible("cubic form dimension does not match tuple")
    work = rotate_cubic(h, frame) if frame is not None else h
    note = ""
    n, N = tup.n, tup.N

    if variant in (InequalityVariant.IMPROVED, InequalityVariant.K1) and N < n:
        H, h2 = mean_curvature(work)
        tail = H[N:]
        norm = np.linalg.norm(tail)
        if norm > 1e-14:
            v = tail / norm
            k = n - N
            U = np.eye(k)
            w = v - np.eye(k)[:, 0]
            wn = np.linalg.norm(w)
            if wn > 1e-14:
                w = w / wn
                U = np.eye(k) - 2.0 * np.outer(w, w)
            W = np.eye(n)
            W[N:, N:] = U
            work = rotate_cubic(work, W)
            note = "aligned complement with mean-curvature direction"

    def deviation_of(cubic: np.ndarray) -> tuple[float, float | None]:
        target, lam = _pattern_target(cubic, tup, variant)
        return float(np.abs(cubic - target).max()), lam

    if variant == InequalityVariant.FIRST:
        # the in-plane gauge: rotate so the spin-3 part of the block cubic
        # aligns with its real axis; the phase gives the angle exactly
        re3 = 0.25 * (work[0, 0, 0] - 3.0 * work[0, 1, 1])
        im3 = 0.25 * (3.0 * work[0, 0, 1] - work[1, 1, 1])
        phi = np.arctan2(im3, re3) / 3.0

        def dev_at(t: float) -> float:
            G = np.eye(n)
            G[0, 0] = G[1, 1] = np.cos(t)
            G[0, 1] = -np.sin(t)
            G[1, 0] = np.sin(t)
            d = np.einsum("abc,aA,bB,cC->ABC", work, G, G, G)
            tgt, _ = _pattern_target(d, tup, variant)
            return float(np.abs(d - tgt).max())

        candidates = [s * phi + k * np.pi / 3.0
                      for s in (1.0, -1.0) for k in range(6)]
        t_best = min(candidates, key=dev_at)
        G = np.eye(n)
        G[0, 0] = G[1, 1] = np.cos(t_best)
        G[0, 1] = -np.sin(t_best)
        G[1, 0] = np.sin(t_best)
        work = rotate_cubic(work, G)
        if abs(t_best) > 1e-12:
            note = (note + "; " if note else "") + \
                f"in-plane rotation by {t_best:.6f}"

    dev, lam = deviation_of(work)

    if dev > tol and search and _n_block_angles(tup) > 0:
        from scipy.optimize import minimize as _sp_min

        def fun(angles):
            rotated = rotate_cubic(work, _block_rotation(tup, angles))
            return deviation_of(rotated)[0]

        best = (dev, None)
        p = _n_block_angles(tup)
        rng = np.random.default_rng(0)
        for trial in range(4):
            x0 = np.zeros(p) if trial == 0 else rng.uniform(0, np.pi, p)
            res = _sp_min(fun, x0, method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-12,
                                   "maxiter": 2000})
            if res.fun < best[0]:
                best = (res.fun, res.x)
        if best[1] is not None and best[0] < dev:
            work = rotate_cubic(work, _block_rotation(tup, best[1]))
            dev, lam = deviation_of(work)
            note = (note + "; " if note else "") + "secondary frame search"

    return StructureReport(variant, dev, lam, bool(dev <= tol), tol, note)


# ---------------------------------------------------------------------------
# batch soundness sweep
# ---------------------------------------------------------------------------

def soundness_audit(n: int, count: int, seed: int,
                    variants: list[InequalityVariant] | None = None,
                    opts: OptimizerOptions | None = None) -> dict:
    """Min slack of every admissible (variant, tuple) pair on random forms.

    Forms are drawn with one standard-normal coefficient per sorted triple
    at c = 0; the slack of every bound is invariant under shifting c, so
    nothing is lost.  Returns per-pair relative-slack minima plus the full
    right-hand-side and slack arrays keyed by (tuple parts, variant).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    opts = opts or OptimizerOptions(restarts=6)
    rng = np.random.default_rng([seed, n])
    triples = cubic_triples(n)
    dense = scatter_cubic(np.zeros((count, n, n, n)), triples,
                          rng.standard_normal((count, len(triples))))
    comps = gauss_components(dense, 0.0)
    _, h2 = mean_curvature(dense)

    pairs = []
    rhss = {}
    slacks = {}
    deltas_by_tuple = {}
    for tup in enumerate_tuples(n):
        applicable = [v for v in admissible_variants(tup)
                      if variants is None or v in variants]
        if not applicable:
            continue
        deltas, _, diags = delta_invariant_batch(comps, tup, opts)
        deltas_by_tuple[tup.parts] = deltas
        n_unconv = sum(d.unconverged for d in diags)
        for variant in applicable:
            a, _ = coefficients(variant, tup)
            rhs = a * h2
            slack = rhs - deltas
            rel = slack / (1.0 + np.abs(rhs))
            worst = int(np.argmin(rel))
            pairs.append({
                "tuple": list(tup.parts),
                "variant": variant.value,
                "min_slack_rel": float(rel[worst]),
                "min_slack_abs": float(slack[worst]),
                "argmin_sample": worst,
                "unconverged": n_unconv,
            })
            rhss[(tup.parts, variant)] = rhs
            slacks[(tup.parts, variant)] = slack
    return {"n": n, "count": count, "seed": seed, "pairs": pairs,
            "rhs": rhss, "slacks": slacks, "deltas": deltas_by_tuple,
            "h2": h2}
