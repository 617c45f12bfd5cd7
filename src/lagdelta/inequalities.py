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
                    mean_curvature, rotate_cubic, scatter_cubic)
from .delta import (MAX_BATCH_ELEMENTS, DeltaTuple, OptimizerOptions,
                    delta_invariant_batch, enumerate_tuples)
from .exceptions import Inadmissible

__all__ = [
    "InequalityVariant",
    "InequalityReport",
    "StructureReport",
    "coefficients",
    "select_improved",
    "admissible_variants",
    "evaluate",
    "evaluate_batch",
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


# Variants whose equality structure is traceless within-block cubics, and
# those of them that add a mean part along the complement.
_BLOCK_VARIANTS = (InequalityVariant.OLD, InequalityVariant.HIGH_A,
                   InequalityVariant.IMPROVED, InequalityVariant.K1)
_MEAN_VARIANTS = (InequalityVariant.IMPROVED, InequalityVariant.K1)


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


def _check_bound(data: LagrangianPointData, variant: InequalityVariant,
                 tup: DeltaTuple) -> tuple[float, float]:
    """The bound's coefficients (a, b), or Inadmissible where it does not
    apply to the data."""
    if tup.n != data.n:
        raise Inadmissible(f"tuple dimension {tup.n} does not match data "
                           f"dimension {data.n}")
    if variant == InequalityVariant.HYPERPLANE_FLAT and data.c != 0.0:
        raise Inadmissible("the flat hyperplane bound is stated for c = 0")
    if variant == InequalityVariant.HYPERPLANE_CP and data.c != 1.0:
        raise Inadmissible("the projective hyperplane bound is stated for c = 1")
    return coefficients(variant, tup)


def evaluate(data: LagrangianPointData, variant: InequalityVariant,
             tup: DeltaTuple, opts: OptimizerOptions | None = None,
             eq_tol: float = EQ_TOL) -> InequalityReport:
    """Evaluate one bound on one data point: :func:`evaluate_batch` on a
    sequence of one."""
    return evaluate_batch([data], variant, tup, opts, eq_tol)[0]


def evaluate_batch(datas, variant: InequalityVariant, tup: DeltaTuple,
                   opts: OptimizerOptions | None = None,
                   eq_tol: float = EQ_TOL) -> list[InequalityReport]:
    """Evaluate one bound on a sequence of data points sharing n and c.

    The bound is checked first, so an inadmissible one costs no delta.
    The deltas come from one :func:`~lagdelta.delta.delta_invariant_batch`
    call per chunk of at most ``MAX_BATCH_ELEMENTS // (restarts * n**4)``
    points.  An unconverged optimizer propagates as a flagged report,
    never a silent failure.
    """
    datas = list(datas)
    if not datas:
        raise ValueError("evaluate_batch needs at least one data point")
    if len({(d.n, d.c) for d in datas}) > 1:
        raise ValueError("evaluate_batch needs data points of one n and c")
    _check_bound(datas[0], variant, tup)
    opts = opts or OptimizerOptions()
    rows = max(1, MAX_BATCH_ELEMENTS // (opts.restarts * tup.n ** 4))
    reports = []
    for lo in range(0, len(datas), rows):
        chunk = datas[lo:lo + rows]
        comps = gauss_components(np.stack([d.h for d in chunk]), chunk[0].c)
        deltas, _, diags = delta_invariant_batch(comps, tup, opts)
        reports += [bound_report(d, variant, tup, float(v), eq_tol, g)
                    for d, v, g in zip(chunk, deltas, diags)]
    return reports


def bound_report(data: LagrangianPointData, variant: InequalityVariant,
                 tup: DeltaTuple, delta: float, eq_tol: float = EQ_TOL,
                 diagnostics=None) -> InequalityReport:
    """Compare a given delta value with one bound ``a * H^2 + b * c``.

    ``diagnostics`` (the delta layer's, if it produced ``delta``) is
    carried into the report unchanged.  A bound that does not apply, a
    tuple of another dimension than the data's included, raises
    Inadmissible.
    """
    a, b = _check_bound(data, variant, tup)
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


def _improved_mean_part(h: np.ndarray, tup: DeltaTuple, lam: float,
                        m: int) -> np.ndarray:
    """Write the IMPROVED structure's entries carrying the mean curvature
    along the complement direction e_m (0-based, N <= m < n); returns h."""
    for block in tup.blocks():
        scatter_cubic(h, [(a, a, m) for a in block],
                      3.0 * lam / (2 + len(block)))
    scatter_cubic(h, [(m, m, m)], 3.0 * lam)
    return scatter_cubic(h, [(m, u, u) for u in range(tup.N, tup.n)
                             if u != m], lam)


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

    if variant in _BLOCK_VARIANTS:
        coefficients(variant, tup)  # refuse an inadmissible pairing
        for block in tup.blocks():
            q = len(block)
            S = _random_traceless_symmetric(q, rng, block_scale)
            lo = block[0]
            h[lo:lo + q, lo:lo + q, lo:lo + q] = S
        if variant in _MEAN_VARIANTS:
            _improved_mean_part(h, tup, lam, tup.N)
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


def _equality_basis(tup: DeltaTuple, variant: InequalityVariant) -> np.ndarray:
    """Orthonormal rows (r, n**3) spanning the cubics with equality in
    delta <= a H^2 at c = 0 in the block frame: ker(a P - G), P = H^2 and
    G = tau - sum_j tau(B_j) of the identity frame (G <= delta).  On the
    orthonormal sorted-triple basis, 2 G = F F^T - I - T T^T + diag(s) and
    P = F F^T / n^2, with F the traces h_gaa, T those over each block and
    s each element's squared mass on the within-block (b, c) of h_gbc."""
    n, triples = tup.n, cubic_triples(tup.n)
    E = scatter_cubic(np.zeros((len(triples), n, n, n)), triples,
                      np.eye(len(triples)))
    E /= np.sqrt((E * E).sum(axis=(1, 2, 3)))[:, None, None, None]
    labels = np.repeat(np.arange(tup.k + 1), tup.parts + (n - tup.N,))
    member = (labels[:, None] == np.arange(tup.k)).astype(float)  # (n, k)
    diag = np.diagonal(E, axis1=2, axis2=3)  # (T, g, a)
    F, T = diag.sum(axis=2), (diag @ member).reshape(len(E), -1)
    s = np.einsum("tgbc,bc->t", E * E, member @ member.T)
    a, _ = coefficients(variant, tup)
    form = (a / n**2 - 0.5) * (F @ F.T) + 0.5 * (T @ T.T + np.diag(1.0 - s))
    vals, vecs = np.linalg.eigh(form)
    # at n <= 12 the kernel's eigenvalues are at most 1.2e-15 of the
    # largest in size and the others at least 3.3e-3, so the cutoff is fixed
    return vecs[:, vals <= 1e-9 * vals[-1]].T @ E.reshape(len(E), -1)


def detect_equality_structure(h: np.ndarray, tup: DeltaTuple,
                              variant: InequalityVariant,
                              frame: np.ndarray | None = None,
                              tol: float = 1e-8,
                              search: bool = False) -> StructureReport:
    """Frobenius distance |h - Pi h| of cubic data from a variant's
    equality space, Pi the orthogonal projector onto ``_equality_basis``.

    The data is first rotated into ``frame`` (typically the optimizer's
    argmin configuration, columns ordered blocks-first).  The space is
    invariant under rotations within each block and within the complement,
    so no frame within them is searched for.  ``lam`` is the norm of the
    mean-part coefficients, n |H(Pi h)| / (n - N + 3k + 2 - 6A), for
    IMPROVED and K1, and |Pi h| / 2 for FIRST (|lam| of its pattern
    h_000 = -h_011 = lam).  ``search`` is ignored: the benchmark still
    passes it, and it goes with the next benchmark change.
    """
    if variant not in _BLOCK_VARIANTS + (InequalityVariant.FIRST,):
        raise Inadmissible(f"no equality structure for variant {variant.value}")
    coefficients(variant, tup)  # admissibility check
    if h.shape != (tup.n,) * 3:
        raise Inadmissible("cubic form dimension does not match tuple")
    work = rotate_cubic(h, frame) if frame is not None else h
    basis = _equality_basis(tup, variant)
    coords = basis @ work.ravel()
    proj = (coords @ basis).reshape(work.shape)
    dev = float(np.linalg.norm(work - proj))
    lam = None
    if variant in _MEAN_VARIANTS:
        den = tup.n - tup.N + 3 * tup.k + 2 - 6.0 * float(_a_fraction(tup))
        lam = tup.n * float(np.sqrt(mean_curvature(proj)[1])) / den
    elif variant == InequalityVariant.FIRST:
        lam = float(np.linalg.norm(coords)) / 2.0
    return StructureReport(variant, dev, lam, bool(dev <= tol), tol)


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
