"""Delta-invariants by minimization over orthogonal subspace configurations.

``delta(n_1, ..., n_k) = tau - inf { tau(L_1) + ... + tau(L_k) }`` over
mutually orthogonal subspaces of the prescribed dimensions.  The infimum is
attained (the configuration space is compact); the optimizer reports an
achieving configuration together with convergence diagnostics, and two
independent oracles (exact in dimension 3, a rotation-angle grid for
n <= 4) back it up in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .exceptions import Inadmissible
from .frames import (CurvatureTensor, pair_basis, pair_curvature_operator,
                     scalar_tau, tau_subspace)

__all__ = [
    "DeltaTuple",
    "SubspaceConfig",
    "OptimizerOptions",
    "DeltaDiagnostics",
    "enumerate_tuples",
    "config_objective",
    "delta_invariant",
    "delta_invariant_batch",
    "delta_value",
    "oracle_delta_dim3",
    "oracle_delta_grid",
]


@dataclass(frozen=True)
class DeltaTuple:
    """An admissible tuple (n_1, ..., n_k): parts in [2, n), sum <= n.

    Parts are kept in non-decreasing order.  ``A = sum 1/(2 + n_i)`` is the
    threshold quantity separating the two improved inequalities.
    """

    n: int
    parts: tuple

    def __post_init__(self):
        parts = tuple(sorted(int(p) for p in self.parts))
        if self.n < 3:
            raise Inadmissible(f"ambient dimension must be >= 3, got {self.n}")
        if len(parts) < 1:
            raise Inadmissible("tuple must have at least one part")
        for p in parts:
            if not 2 <= p < self.n:
                raise Inadmissible(
                    f"part {p} violates 2 <= n_j < n for n = {self.n}")
        if sum(parts) > self.n:
            raise Inadmissible(
                f"parts {parts} sum to {sum(parts)} > n = {self.n}")
        object.__setattr__(self, "parts", parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def N(self) -> int:
        return sum(self.parts)

    @property
    def A(self) -> float:
        return float(sum(1.0 / (2 + p) for p in self.parts))

    def blocks(self) -> tuple:
        """Canonical column blocks: first n_1 indices, next n_2, ..."""
        out, start = [], 0
        for p in self.parts:
            out.append(tuple(range(start, start + p)))
            start += p
        return tuple(out)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def enumerate_tuples(n: int) -> list[DeltaTuple]:
    """All admissible tuples for dimension n, k ascending then lexicographic."""
    if n < 3:
        raise Inadmissible(f"n must be >= 3, got {n}")
    by_k: dict[int, list] = {}

    def rec(prefix, min_part, budget):
        for p in range(min_part, n):
            if p > budget:
                break
            tup = prefix + (p,)
            by_k.setdefault(len(tup), []).append(tup)
            rec(tup, p, budget - p)

    rec((), 2, n)
    out = []
    for k in sorted(by_k):
        for parts in sorted(by_k[k]):
            out.append(DeltaTuple(n, parts))
    return out


@dataclass(frozen=True)
class SubspaceConfig:
    """An orthonormal frame with columns partitioned into blocks."""

    frame: np.ndarray
    blocks: tuple

    def __post_init__(self):
        Q = np.asarray(self.frame, dtype=float)
        n = Q.shape[0]
        if np.abs(Q.T @ Q - np.eye(n)).max() > 1e-10:
            raise ValueError("frame is not orthogonal")
        flat = [i for b in self.blocks for i in b]
        if len(set(flat)) != len(flat) or any(not 0 <= i < n for i in flat):
            raise ValueError("blocks must be disjoint column index sets")
        object.__setattr__(self, "frame", Q.copy())
        object.__setattr__(self, "blocks",
                           tuple(tuple(int(i) for i in b) for b in self.blocks))

    @property
    def n(self) -> int:
        return self.frame.shape[0]


def config_objective(R: CurvatureTensor, config: SubspaceConfig) -> float:
    """Sum of tau(L_j) over the blocks of the configuration."""
    if config.n != R.n:
        raise ValueError(f"config dimension {config.n} does not match "
                         f"tensor dimension {R.n}")
    total = 0.0
    for block in config.blocks:
        total += tau_subspace(R, config.frame[:, list(block)].T)
    return total


@dataclass(frozen=True)
class OptimizerOptions:
    restarts: int = 32
    max_iters: int = 1000
    seed: int = 0
    gtol: float = 3e-8
    stall_tol: float = 1e-12
    stall_iters: int = 20
    assignment_rounds: int = 2


@dataclass
class DeltaDiagnostics:
    """Per-computation optimizer report.

    ``converged`` refers to the descent that produced the reported value;
    ``restarts_converged`` counts how many of the restarts terminated by
    the gradient or stall criteria rather than the iteration budget.
    """

    restarts: int
    iterations: int
    converged: bool
    restarts_converged: int
    restart_values: np.ndarray
    best_gap: float
    assignment_rounds: int

    @property
    def unconverged(self) -> bool:
        return not self.converged

    def summary(self) -> dict:
        return {
            "restarts": self.restarts,
            "restarts_converged": self.restarts_converged,
            "iterations": self.iterations,
            "converged": self.converged,
            "best_gap": self.best_gap,
            "assignment_rounds": self.assignment_rounds,
        }


def _within_block_pairs(parts) -> list[tuple[int, int]]:
    pairs, start = [], 0
    for p in parts:
        for a in range(start, start + p):
            for b in range(a + 1, start + p):
                pairs.append((a, b))
        start += p
    return pairs


class _PairSet:
    """Precomputed index machinery for a block-pair objective at dimension n.

    ``pairs`` lists the P frame-column pairs (a, b) that lie in a common
    block; the objective sums their plane curvatures.  Array layouts: frames
    Q are ``(B, n, n)``; the pair curvature operator M is ``(B, p, p)``, one
    per frame (a ``(p, p)`` M broadcasts over the batch), with p = n(n-1)/2
    the lexicographic pair basis of ``frames.pair_basis``; the wedge
    coordinates w of the column pairs are ``(B, p, P)``.  Every contraction
    is a (batched) ``matmul``.  The grid oracle does not use this class.
    """

    def __init__(self, n: int, pairs):
        self.n = n
        self.pairs = list(pairs)
        self.I, self.J = pair_basis(n)
        self.a = np.array([p[0] for p in pairs])
        self.b = np.array([p[1] for p in pairs])
        P = len(pairs)
        self.Ea = np.zeros((P, n))
        self.Eb = np.zeros((P, n))
        self.Ea[np.arange(P), self.a] = 1.0
        self.Eb[np.arange(P), self.b] = 1.0

    def bivectors(self, Q: np.ndarray) -> np.ndarray:
        """Wedge coordinates of each block pair: (B, p, P)."""
        U = Q[:, :, self.a]
        V = Q[:, :, self.b]
        return (U[:, self.I, :] * V[:, self.J, :]
                - U[:, self.J, :] * V[:, self.I, :])

    def objective(self, Q: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Sum of pair curvatures; Q (B, n, n), M (B, p, p) or (p, p)."""
        w = self.bivectors(Q)
        return (w * (M @ w)).sum(axis=(1, 2))

    def objective_grad(self, Q: np.ndarray, M: np.ndarray):
        """Objective (B,) and its Euclidean gradient in Q (B, n, n)."""
        B, n = Q.shape[:2]
        U = Q[:, :, self.a]
        V = Q[:, :, self.b]
        w = (U[:, self.I, :] * V[:, self.J, :]
             - U[:, self.J, :] * V[:, self.I, :])
        Mw = M @ w
        f = (w * Mw).sum(axis=(1, 2))
        # per pair the antisymmetric W with W[i, j] = (Mw)_{ij}, i < j
        MwT = np.swapaxes(Mw, 1, 2)
        W = np.zeros((B, len(self.pairs), n, n))
        W[:, :, self.I, self.J] = MwT
        W[:, :, self.J, self.I] = -MwT
        WVU = W @ np.swapaxes(np.stack((V, U), axis=-1), 1, 2)  # (B, P, n, 2)
        G = 2.0 * (np.swapaxes(WVU[..., 0], 1, 2) @ self.Ea
                   - np.swapaxes(WVU[..., 1], 1, 2) @ self.Eb)
        return f, G


def _descend(Q0, M0, ps: _PairSet, opts: OptimizerOptions):
    """Riemannian descent on SO(n): Cayley retraction, per-config Armijo steps.

    Works on a flat batch ``Q0 (B, n, n)`` with per-config operators
    ``M0 (B, p, p)``; converged or stalled configurations are retired from
    the working set so laggards do not keep the whole batch running.
    """
    B, n = Q0.shape[0], Q0.shape[1]
    eye = np.eye(n)
    out_Q = Q0.copy()
    out_f = ps.objective(Q0, M0)
    out_conv = np.zeros(B, dtype=bool)

    idx = np.arange(B)
    Q = Q0.copy()
    M = M0
    step = np.full(B, 0.2)
    dead = np.zeros(B, dtype=bool)
    scale = 1.0 + np.abs(out_f)
    snap = out_f.copy()
    iterations = 0

    for it in range(opts.max_iters):
        if idx.size == 0:
            break
        iterations = it + 1
        f, G = ps.objective_grad(Q, M)
        QtG = np.swapaxes(Q, -1, -2) @ G
        A = 0.5 * (QtG - np.swapaxes(QtG, -1, -2))
        g2 = np.einsum("bij,bij->b", A, A)

        finished = (g2 <= (opts.gtol * scale) ** 2) | dead
        window_end = (it % opts.stall_iters) == opts.stall_iters - 1
        if window_end:
            finished |= (snap - f) < opts.stall_tol * scale
        if finished.any():
            sel = np.flatnonzero(finished)
            out_Q[idx[sel]] = Q[sel]
            out_f[idx[sel]] = f[sel]
            out_conv[idx[sel]] = True
            keep = ~finished
            idx, f, g2, step, dead, scale, snap = (
                x[keep] for x in (idx, f, g2, step, dead, scale, snap))
            Q, G, A, M = Q[keep], G[keep], A[keep], M[keep]
            if idx.size == 0:
                break
        if window_end:
            snap = f.copy()

        new_f = f.copy()
        accepted = np.zeros(idx.size, dtype=bool)
        sub = np.arange(idx.size)
        for _ in range(40):
            if sub.size == 0:
                break
            X = 0.5 * step[sub, None, None] * A[sub]
            C = np.linalg.solve(eye + X, eye - X)
            Qt = Q[sub] @ C
            ft = ps.objective(Qt, M[sub])
            ok = ft <= f[sub] - 1e-4 * step[sub] * g2[sub]
            good = sub[ok]
            Q[good] = Qt[ok]
            new_f[good] = ft[ok]
            accepted[good] = True
            bad = sub[~ok]
            step[bad] *= 0.5
            give_up = step[bad] < 1e-14
            dead[bad[give_up]] = True  # no acceptable step: retire next sweep
            sub = bad[~give_up]
        step[accepted] = np.minimum(step[accepted] * 1.4, 1.0)

    if idx.size:  # hit max_iters: report honestly as unconverged
        f = ps.objective(Q, M)
        out_Q[idx] = Q
        out_f[idx] = f
        out_conv[idx] = False
    return out_Q, out_f, out_conv, iterations


def _assignment_count(n: int, parts) -> int:
    count, remaining = 1, n
    for p in parts:
        count *= math.comb(remaining, p)
        remaining -= p
    for _, group in itertools.groupby(parts):
        count //= math.factorial(len(list(group)))
    return count


def _enumerate_assignments(n: int, parts):
    """Disjoint index blocks of the given sizes, lexicographic order.

    Blocks of equal size are deduplicated by requiring their minimal
    elements to increase.
    """
    def rec(available, idx, prev_size, prev_min):
        if idx == len(parts):
            yield ()
            return
        p = parts[idx]
        for comb in itertools.combinations(available, p):
            if p == prev_size and comb[0] < prev_min:
                continue
            rest = tuple(i for i in available if i not in comb)
            for tail in rec(rest, idx + 1, p, comb[0]):
                yield (comb,) + tail

    yield from rec(tuple(range(n)), 0, -1, -1)


def _pairwise_curvatures(Q: np.ndarray, M: np.ndarray, I, J) -> np.ndarray:
    """Matrix of K(q_c, q_d) for all column pairs of one frame."""
    n = Q.shape[0]
    U = Q[:, I]
    V = Q[:, J]
    w = U[I, :] * V[J, :] - U[J, :] * V[I, :]  # (p, P) with P = all pairs
    vals = np.einsum("pP,pq,qP->P", w, M, w)
    K = np.zeros((n, n))
    K[I, J] = vals
    K[J, I] = vals
    return K


def _best_assignment(K: np.ndarray, parts) -> tuple[float, tuple]:
    """Exhaustive best block assignment for a fixed frame.

    Among equal-value assignments the lexicographically smallest block
    index set wins (enumeration order is lexicographic, ties keep the
    incumbent).
    """
    n = K.shape[0]
    if _assignment_count(n, parts) > 200_000:
        return _greedy_assignment(K, parts)
    best_val, best_blocks = np.inf, None
    for blocks in _enumerate_assignments(n, parts):
        val = 0.0
        for block in blocks:
            for a, b in itertools.combinations(block, 2):
                val += K[a, b]
        if val < best_val - 1e-15:
            best_val, best_blocks = val, blocks
    return best_val, best_blocks


def _greedy_assignment(K: np.ndarray, parts) -> tuple[float, tuple]:
    """Swap-descent fallback when exhaustive enumeration would be too large."""
    n = K.shape[0]
    owner = -np.ones(n, dtype=int)  # block index per column, -1 = unassigned
    start = 0
    for bi, p in enumerate(parts):
        owner[start:start + p] = bi
        start += p

    def total():
        return sum(K[a, b] for a in range(n) for b in range(a + 1, n)
                   if owner[a] == owner[b] and owner[a] >= 0)

    val = total()
    improved = True
    while improved:
        improved = False
        for a in range(n):
            for b in range(a + 1, n):
                if owner[a] == owner[b]:
                    continue
                owner[a], owner[b] = owner[b], owner[a]
                tval = total()
                if tval < val - 1e-13:
                    val = tval
                    improved = True
                else:
                    owner[a], owner[b] = owner[b], owner[a]
    blocks = tuple(tuple(int(i) for i in np.flatnonzero(owner == bi))
                   for bi in range(len(parts)))
    return val, blocks


def _random_orthogonal(rng: np.random.Generator, shape_prefix, n: int):
    A = rng.standard_normal(shape_prefix + (n, n))
    Q, Rm = np.linalg.qr(A)
    sgn = np.sign(np.einsum("...ii->...i", Rm))
    sgn[sgn == 0] = 1.0
    return Q * sgn[..., None, :]


def _initial_frames(components: np.ndarray, restarts: int, seed: int):
    S, n = components.shape[0], components.shape[-1]
    Q = np.empty((S, restarts, n, n))
    Q[:, 0] = np.eye(n)
    if restarts >= 2:
        ricci = np.einsum("sbadb->sad", components)
        ricci = 0.5 * (ricci + np.swapaxes(ricci, -1, -2))
        _, vecs = np.linalg.eigh(ricci)
        Q[:, 1] = vecs
    for r in range(2, restarts):
        rng = np.random.default_rng([seed, r])
        Q[:, r] = _random_orthogonal(rng, (S,), n)
    return Q


def _minimize_batch(components: np.ndarray, tup: DeltaTuple,
                    opts: OptimizerOptions):
    """Best found inf of the configuration objective for a batch of tensors.

    Returns (inf values (S,), frames (S, n, n), per-sample diagnostics).
    """
    S, n = components.shape[0], components.shape[-1]
    I, J = pair_basis(n)
    M = pair_curvature_operator(components)
    ps = _PairSet(n, _within_block_pairs(tup.parts))
    restarts = max(1, opts.restarts)

    Q0 = _initial_frames(components, restarts, opts.seed)
    Mflat = np.repeat(M, restarts, axis=0)  # flat order is sample-major
    Qf, ff, convf, iterations = _descend(
        Q0.reshape(S * restarts, n, n), Mflat, ps, opts)
    Q = Qf.reshape(S, restarts, n, n)
    f = ff.reshape(S, restarts)
    done = convf.reshape(S, restarts)

    best_idx = np.argmin(f, axis=1)
    best_f = f[np.arange(S), best_idx]
    best_Q = Q[np.arange(S), best_idx]
    best_conv = done[np.arange(S), best_idx]

    # discrete assignment polish on the winning frames
    rounds_used = np.zeros(S, dtype=int)
    for _ in range(opts.assignment_rounds):
        redo = []
        for s in range(S):
            K = _pairwise_curvatures(best_Q[s], M[s], I, J)
            val, blocks = _best_assignment(K, tup.parts)
            if val < best_f[s] - 1e-12 * (1 + abs(best_f[s])):
                order = [i for b in blocks for i in b]
                order += [i for i in range(n) if i not in order]
                best_Q[s] = best_Q[s][:, order]
                best_f[s] = val
                redo.append(s)
        if not redo:
            break
        rounds_used[redo] += 1
        sub = np.array(redo)
        Qr, fr, conv_r, it_r = _descend(best_Q[sub], M[sub], ps, opts)
        improved = fr < best_f[sub]
        best_f[sub] = np.where(improved, fr, best_f[sub])
        best_Q[sub[improved]] = Qr[improved]
        best_conv[sub] &= conv_r
        iterations += it_r

    diags = []
    for s in range(S):
        vals = np.sort(f[s])
        distinct = vals[vals > vals[0] + 1e-9 * (1 + abs(vals[0]))]
        gap = float(distinct[0] - vals[0]) if distinct.size else 0.0
        diags.append(DeltaDiagnostics(
            restarts=restarts,
            iterations=iterations,
            converged=bool(best_conv[s]),
            restarts_converged=int(done[s].sum()),
            restart_values=f[s].copy(),
            best_gap=gap,
            assignment_rounds=int(rounds_used[s]),
        ))
    return best_f, best_Q, diags


def delta_invariant(R: CurvatureTensor, tup: DeltaTuple,
                    opts: OptimizerOptions | None = None):
    """delta(n_1, ..., n_k) with an achieving configuration.

    Returns (value, config, diagnostics).  The value is ``tau(R)`` minus the
    best found configuration objective; when the optimizer fails to
    converge the diagnostics carry an explicit ``unconverged`` flag rather
    than failing silently.
    """
    opts = opts or OptimizerOptions()
    if tup.n != R.n:
        raise Inadmissible(f"tuple dimension {tup.n} does not match "
                           f"tensor dimension {R.n}")
    inf_vals, frames, diags = _minimize_batch(
        R.components[None], tup, opts)
    config = SubspaceConfig(frames[0], tup.blocks())
    value = scalar_tau(R) - float(inf_vals[0])
    return value, config, diags[0]


def delta_invariant_batch(components: np.ndarray, tup: DeltaTuple,
                          opts: OptimizerOptions | None = None):
    """Vectorized delta over a stack of curvature components (S, n, n, n, n)."""
    opts = opts or OptimizerOptions()
    taus = 0.5 * np.einsum("sabba->s", components)
    inf_vals, frames, diags = _minimize_batch(components, tup, opts)
    return taus - inf_vals, frames, diags


def oracle_delta_dim3(R: CurvatureTensor) -> float:
    """Exact delta(2) in dimension 3.

    Every bivector in dimension 3 is decomposable, so the infimum of the
    plane curvature is the smallest eigenvalue of the curvature operator.
    """
    if R.n != 3:
        raise Inadmissible(f"dimension-3 oracle called with n = {R.n}")
    M = pair_curvature_operator(R.components)
    lam_min = float(np.linalg.eigvalsh(M)[0])
    return scalar_tau(R) - lam_min


def delta_value(R: CurvatureTensor, tup: DeltaTuple,
                opts: OptimizerOptions | None = None):
    """delta(n_1, ..., n_k): exact by the eigenvalue oracle in dimension 3,
    whose only tuple is (2), and by the optimizer otherwise.  Returns
    (value, diagnostics); diagnostics is None on the exact path.  A tuple
    of another dimension goes to delta_invariant, which rejects it."""
    if R.n == 3 == tup.n:
        return oracle_delta_dim3(R), None
    value, _, diagnostics = delta_invariant(R, tup, opts)
    return value, diagnostics


# Largest accepted grid resolution.  The n = 4 grid has resolution**4
# frames; at the cap its GEMM is about 2e10 flops over arrays of a few
# megabytes, and larger values would only buy time, not accuracy.
MAX_GRID_RESOLUTION = 128

# Rotation-angle products covering the configuration spaces for n <= 4.
# Built from the CS decomposition relative to the canonical blocks: within-
# block rotations first, then the principal-angle plane rotations.
_GRID_AXES = {
    (3, (2,)): [(0, 1), (0, 2)],
    (4, (2,)): [(0, 1), (2, 3), (0, 2), (1, 3)],
    (4, (2, 2)): [(0, 1), (2, 3), (0, 2), (1, 3)],
    (4, (3,)): [(0, 1), (0, 2), (1, 2), (0, 3)],
}


def _givens(n: int, i: int, j: int, t: float) -> np.ndarray:
    G = np.eye(n)
    c, s = np.cos(t), np.sin(t)
    G[i, i] = G[j, j] = c
    G[i, j] = -s
    G[j, i] = s
    return G


def _frame_from_angles(n, axes, angles):
    Q = np.eye(n)
    for (i, j), t in zip(axes, angles):
        Q = Q @ _givens(n, i, j, t)
    return Q


def _second_compound(Q: np.ndarray, I, J) -> np.ndarray:
    """Batched second compound C2(Q): the 2x2 minors of ``(..., n, n)``
    matrices, rows and columns in the pair basis ``(I, J) = pair_basis(n)``.

    Column (a, b) of C2(Q) holds the wedge coordinates of q_a ^ q_b, and
    C2(AB) = C2(A) C2(B) (Cauchy-Binet).
    """
    U, V = Q[..., I, :], Q[..., J, :]
    return U[..., I] * V[..., J] - U[..., J] * V[..., I]


def _rotation_products(n, axes, thetas):
    """Frames G(axes[0], t_0) ... G(axes[-1], t_k) for every combination of
    angles from ``thetas``: (len(thetas)**len(axes), n, n), C order."""
    P = np.eye(n)[None]
    for i, j in axes:
        G = np.stack([_givens(n, i, j, t) for t in thetas])
        P = (P[:, None] @ G[None]).reshape(-1, n, n)
    return P


def oracle_delta_grid(R: CurvatureTensor, tup: DeltaTuple, resolution: int,
                      polish: bool = True) -> float:
    """Brute-force delta over a deterministic grid of orthogonal frames.

    The frame grid is an Euler-style product of plane rotations covering
    the whole configuration space for the supported (n, tuple) cases; block
    assignments are absorbed into the frame grid.  The grid minimum is an
    upper bound on the true inf that converges as the resolution grows; the
    optional deterministic Nelder-Mead polish from the best grid point
    tightens it.  Both evaluate frames through second compound matrices
    (``_second_compound``), a path that shares no code with the
    optimizer's.
    """
    n = R.n
    if n > 4:
        raise Inadmissible(f"grid oracle supports n <= 4, got n = {n}")
    if tup.n != n:
        raise Inadmissible("tuple dimension does not match tensor dimension")
    key = (n, tup.parts)
    if key not in _GRID_AXES:
        raise Inadmissible(f"grid oracle does not support tuple {tup} at n={n}")
    if not 1 <= resolution <= MAX_GRID_RESOLUTION:
        raise ValueError(f"grid resolution must be in 1..{MAX_GRID_RESOLUTION}"
                         f", got {resolution}")
    axes = _GRID_AXES[key]
    M = pair_curvature_operator(R.components)
    I, J = pair_basis(n)
    labels = np.full(n, -1)  # block of each frame column, -1 for the rest
    labels[:tup.N] = np.repeat(np.arange(tup.k), tup.parts)
    within = (labels[I] == labels[J]) & (labels[I] >= 0)

    thetas = np.pi * np.arange(resolution) / resolution
    # frame P1_i P2_j of the two half-grids: by Cauchy-Binet its objective
    # is <C2(P1_i)^T M C2(P1_i), Y_j Y_j^T>_F, Y_j the within-block
    # columns of C2(P2_j), so the whole grid is one GEMM of the two factors
    half = len(axes) // 2
    P1 = _rotation_products(n, axes[:half], thetas)
    P2 = _rotation_products(n, axes[half:], thetas)
    C1 = _second_compound(P1, I, J)
    Y = _second_compound(P2, I, J)[..., within]
    left = (np.swapaxes(C1, -1, -2) @ M @ C1).reshape(len(C1), -1)
    right = (Y @ np.swapaxes(Y, -1, -2)).reshape(len(Y), -1)
    best_val, best_flat = np.inf, 0
    chunk = max(1, 2_000_000 // len(right))
    for lo in range(0, len(left), chunk):
        fvals = left[lo:lo + chunk] @ right.T
        arg = int(np.argmin(fvals))
        if fvals.flat[arg] < best_val:
            best_val = float(fvals.flat[arg])
            best_flat = lo * len(right) + arg
    idx = np.unravel_index(best_flat, (resolution,) * len(axes))
    best_angles = thetas[list(idx)]

    if polish:
        def fun(theta):  # the same objective for one frame, unfactored
            Q = _frame_from_angles(n, axes, theta)
            C = _second_compound(Q, I, J)[:, within]
            return float((C * (M @ C)).sum())

        res = _scipy_minimize(fun, best_angles, method="Nelder-Mead",
                              options={"xatol": 1e-10, "fatol": 1e-12,
                                       "maxiter": 4000})
        best_val = min(best_val, float(res.fun))

    return scalar_tau(R) - best_val
