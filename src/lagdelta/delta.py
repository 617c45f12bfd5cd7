"""Delta-invariants by minimization over orthogonal subspace configurations.

``delta(n_1, ..., n_k) = tau - inf { tau(L_1) + ... + tau(L_k) }`` over
mutually orthogonal subspaces of the prescribed dimensions.  The infimum is
attained (the configuration space is compact).  ``delta_invariant_batch``
alone decides how it is computed: the hyperplane tuple (n-1) in closed
form, every other tuple by the optimizer, which reports an achieving
configuration together with convergence diagnostics.  Two independent
oracles (exact in dimension 3, a rotation-angle grid for n <= 4, refined on
local grids) back both up in tests.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .cubic import MAX_N
from .exceptions import Inadmissible
from .frames import (MAX_COMPONENT, CurvatureTensor, pair_basis,
                     pair_curvature_operator, scalar_tau, tau_subspace)

__all__ = [
    "DeltaTuple",
    "SubspaceConfig",
    "OptimizerOptions",
    "DeltaDiagnostics",
    "enumerate_tuples",
    "config_objective",
    "delta_invariant",
    "delta_invariant_batch",
    "oracle_delta_dim3",
    "oracle_delta_grid",
]


@dataclass(frozen=True)
class DeltaTuple:
    """An admissible tuple (n_1, ..., n_k): parts in [2, n), sum <= n.

    n and the parts are integers (NumPy integers included), the parts kept
    in non-decreasing order.  ``A = sum 1/(2 + n_i)``, an exact fraction,
    is the threshold quantity separating the two improved inequalities.
    """

    n: int
    parts: tuple

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
            parts = tuple(sorted(operator.index(p) for p in self.parts))
        except TypeError:
            raise Inadmissible(f"n and parts must be integers, got n = "
                               f"{self.n!r}, parts {self.parts!r}") from None
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
    def A(self) -> Fraction:
        return sum((Fraction(1, 2 + p) for p in self.parts), Fraction(0))

    @property
    def hyperplane(self) -> bool:
        """Whether this is the tuple (n-1), whose delta is closed form."""
        return self.parts == (self.n - 1,)

    @property
    def labels(self) -> np.ndarray:
        """Block of each frame column (n,) in the canonical blocks, k for
        the columns outside them."""
        sizes = self.parts + (self.n - self.N,)
        return np.repeat(np.arange(self.k + 1), sizes)

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
    try:
        n = operator.index(n)
    except TypeError:
        raise Inadmissible(f"n must be an integer, got {n!r}") from None
    if n < 3:
        raise Inadmissible(f"n must be >= 3, got {n}")
    return [DeltaTuple(n, parts) for k in range(1, n // 2 + 1)
            for parts in itertools.combinations_with_replacement(
                range(2, n), k)
            if sum(parts) <= n]


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
    """Descents per sample, iterations per descent, random-start seed."""

    restarts: int = 32
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


# A descent ends when its gradient norm falls to _GTOL, or when f drops by
# less than _STALL_TOL over _STALL_ITERS iterations, both relative to 1 + |f|.
_GTOL = 3e-8
_STALL_TOL = 1e-12
_STALL_ITERS = 20
# A frame whose gradient norm is at most _NEWTON_GTOL (1 + |f|) tries a
# Newton step: its Hessian in closed form, used where lambda_min >
# _NEWTON_PD lambda_max.  A step t longer than _NEWTON_RADIUS, half the
# rotation angle pi/2 that swaps two frame columns, is cut to that length:
# Armijo only asks that f fall, and would accept a jump into another basin.
_NEWTON_GTOL = 1e-2
_NEWTON_PD = 1e-8
_NEWTON_RADIUS = np.pi / 4
_ASSIGNMENT_ROUNDS = 2  # polish-and-descend rounds after the restarts
_CHUNK_ENTRIES = 2_000_000  # per block of the grid GEMM and assignment gather

# Element budget of one optimizer run, samples * restarts * n**4.  Its
# largest arrays are the gradient's terms, 2 n(n-1) P floats per frame for
# P block pairs, and their M w factors, n(n-1) P: together at most
# 0.88 n**4 floats per frame for n <= 12, 350 MB at the budget.  A batch of
# several samples adds one (p, p) operator per frame, under n**4 / 4, and a
# Newton Hessian a few (p, p) arrays per frame.  Measured peak RSS at the
# budget, n = 12, two iterations, 1 sample of 2411 restarts and 401 samples
# of 6: tuple (2, 10) 493 and 644 MB; with a Newton Hessian of every frame
# in both iterations, (2, 10) 495 and 699 MB, (2, 2, 2, 2, 2) 467 and
# 702 MB, (3, 3, 3, 3) 425 and 663 MB.
MAX_BATCH_ELEMENTS = 50_000_000


@dataclass
class DeltaDiagnostics:
    """Per-computation optimizer report.

    ``converged`` refers to the descent that produced the reported value;
    ``restarts_converged`` counts how many of the restarts terminated by
    the gradient or stall criteria rather than the iteration budget.
    """

    restarts: int
    restarts_converged: int
    iterations: int
    converged: bool
    best_gap: float
    assignment_rounds: int

    @property
    def unconverged(self) -> bool:
        return not self.converged

    def summary(self) -> dict:
        return asdict(self)


def _pair_index(n: int) -> np.ndarray:
    """Pair-basis index (n, n) of the pair {i, j}, i != j, as int8."""
    I, J = pair_basis(n)
    index = np.zeros((n, n), dtype=np.int8)
    index[I, J] = index[J, I] = np.arange(len(I))
    return index


def _block_pairs(tup: DeltaTuple) -> np.ndarray:
    """Mask (p,) over ``frames.pair_basis``: the frame-column pairs that
    share a block of the tuple, in lexicographic, so block by block, order."""
    I, J = pair_basis(tup.n)
    labels = tup.labels
    return (labels[I] == labels[J]) & (labels[I] < tup.k)


def _wedge(Q: np.ndarray, I, J, a, b) -> np.ndarray:
    """Wedge coordinates q_a ^ q_b of the column pairs (a, b) of frames Q
    (..., n, n) in the pair basis ``(I, J) = pair_basis(n)``: (..., p, P).

    With (a, b) = (I, J) this is the second compound C2(Q), the 2x2 minors,
    and C2(AB) = C2(A) C2(B) (Cauchy-Binet); any other (a, b) picks columns
    of it.
    """
    U, V = Q[..., a], Q[..., b]
    return U[..., I, :] * V[..., J, :] - U[..., J, :] * V[..., I, :]


class _PairSet:
    """Precomputed index machinery for the block-pair objective of a tuple.

    ``a`` and ``b`` list the P frame-column pairs of ``_block_pairs``; the
    objective sums their plane curvatures.  ``hi`` and ``hj`` list the d
    horizontal pairs, columns with different ``DeltaTuple.labels``: a
    rotation within a block, or within the complement, leaves the
    objective unchanged, so only the d rotations E_l = e_i e_j^T - e_j e_i^T
    of these pairs move it.  Array layouts: frames Q are
    ``(B, n, n)``; the pair curvature operator M is ``(B, p, p)``, one per
    frame, or one ``(p, p)`` for the whole batch, with p = n(n-1)/2 the
    lexicographic pair basis ``(I, J)`` of ``frames.pair_basis``; the wedge
    coordinates w of the column pairs are ``(B, p, P)``.
    """

    def __init__(self, tup: DeltaTuple):
        n = tup.n
        self.I, self.J = pair_basis(n)
        within = _block_pairs(tup)
        self.a, self.b = self.I[within], self.J[within]
        horizontal = tup.labels[self.I] != tup.labels[self.J]
        self.hi, self.hj = self.I[horizontal], self.J[horizontal]
        P = len(self.a)
        # The gradient multiplies block pair k's antisymmetric W_k,
        # W_k[i, j] = (M w_k)_ij for i < j, into u_k and v_k.  Row i of W_k
        # holds, for each j != i in turn, M w_k at pair-basis index
        # _entry_pair[i, 0, j], and meets row _entry_rows[i, 0, 0, j] of Q
        # stacked over -Q: the negated copy carries the sign where j < i.
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        self._entry_pair = _pair_index(n)[i, j].reshape(n, 1, n - 1)
        self._entry_rows = np.where(j < i, j + n, j).reshape(n, 1, 1, n - 1)
        self._vu = np.concatenate((self.b, self.a)).reshape(1, 2, P, 1)
        self._k = np.arange(P).reshape(1, P, 1)
        # +2 W_k v_k into column a_k of the gradient, -2 W_k u_k into b_k
        ends = np.zeros((2, P, n))
        ends[0, np.arange(P), self.a] = 2.0
        ends[1, np.arange(P), self.b] = -2.0
        self._ends = ends.reshape(2 * P, n)
        # The Hessian: E_l acts on the pair basis as the derivation
        # D_l = (C2(I + E_l) - C2(I - E_l)) / 2, exact since C2 is quadratic.
        # D_l maps basis bivector q to _sign[l, q] times bivector
        # _target[l, q], with sign 0 where it maps q to 0.
        eye = np.eye(n)
        E = eye[self.hi, :, None] * eye[self.hj, None, :]
        E = E - np.swapaxes(E, -1, -2)
        pairs = self.I, self.J, self.I, self.J
        D = 0.5 * (_wedge(eye + E, *pairs) - _wedge(eye - E, *pairs))
        self._target = np.abs(D).argmax(axis=1)
        self._sign = np.take_along_axis(D, self._target[:, None], 1)[:, 0]
        self._within = np.flatnonzero(within)

    def evaluate(self, Q: np.ndarray, M: np.ndarray):
        """Objective (...) and M w (..., p, P) of frames Q (..., n, n)."""
        w = _wedge(Q, self.I, self.J, self.a, self.b)
        Mw = M @ w
        return (w * Mw).sum(axis=(-2, -1)), Mw

    def gradient(self, Q: np.ndarray, Mw: np.ndarray) -> np.ndarray:
        """Euclidean gradient (B, n, n) of the objective in Q, from the
        M w (B, p, P) that ``evaluate`` returned for Q.

        Column a_k gains 2 W_k v_k and column b_k loses 2 W_k u_k, for
        u_k, v_k columns a_k, b_k of Q.  Each product sums the nonzero
        entries of W_k row by row: 2 n(n-1) P terms per frame.
        """
        B, n = Q.shape[:2]
        terms = np.concatenate((Q, -Q), axis=1)[:, self._entry_rows, self._vu]
        Wvu = np.einsum("bihkj,bikj->bihk", terms,
                        Mw[:, self._entry_pair, self._k])
        return Wvu.reshape(B, n, -1) @ self._ends

    def hessian(self, Q: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Hessian (B, d, d) of f(Q exp(sum_l t_l E_l)) in the horizontal
        coordinates t at t = 0, for frames Q (B, n, n), in closed form.

        With C = C2(Q) and M' = C^T M C, Cauchy-Binet gives
        f(Q e^X) = sum_k e_k^T e^{D_X}^T M' e^{D_X} e_k over the block
        pairs k, so H_lm = sum_k 2 (D_l e_k)^T M' (D_m e_k)
        + e_k^T M' (D_l D_m + D_m D_l) e_k.  Each D_l e_k is one signed
        basis bivector or 0, so each term gathers entries of M', one block
        pair at a time.  X holds half the first sum and the D_l D_m terms,
        and H = X + X^T is exactly symmetric.
        """
        C = _wedge(Q, self.I, self.J, self.I, self.J)
        Mp = np.swapaxes(C, -1, -2) @ M @ C
        d = len(self.hi)
        X = np.zeros((len(Q), d, d))
        for k in self._within:
            t, s = self._target[:, k], self._sign[:, k]
            X += s[:, None] * s * Mp[:, t[:, None], t]
            X += self._sign[:, t] * s * Mp[:, k, self._target[:, t]]
        return X + np.swapaxes(X, -1, -2)


def _armijo_trial(ps: _PairSet, eye, Q, Z, M, step, f, slope):
    """Cayley steps Q cayley(-step Z) of sizes ``step`` along the skew
    directions -Z, where f falls at rate ``slope``: the trial frames, their
    objective and M w, and which pass Armijo's sufficient-decrease test."""
    X = 0.5 * step[:, None, None] * Z
    Qt = Q @ np.linalg.solve(eye + X, eye - X)
    ft, Mwt = ps.evaluate(Qt, M)
    return Qt, ft, Mwt, ft <= f - 1e-4 * step * slope


def _newton_directions(ps: _PairSet, Q, M, A, sel):
    """Newton steps for the frames ``sel`` of a working set Q (W, n, n)
    with operators M and Riemannian gradients Q A.

    Returns the frames of ``sel`` whose Hessian (``_PairSet.hessian``) has
    lambda_min > ``_NEWTON_PD`` lambda_max; for those, Z with Q cayley(-Z)
    the Newton step, -Z = -sum_l t_l E_l for t = H^-1 g cut to length at
    most ``_NEWTON_RADIUS``; and the rate g^T t at which f falls along it.
    """
    lam, V = np.linalg.eigh(ps.hessian(Q[sel], M if M.ndim == 2 else M[sel]))
    pd = lam[:, 0] > _NEWTON_PD * lam[:, -1]
    sel, lam, V = sel[pd], lam[pd], V[pd]
    g = 2.0 * A[sel[:, None], ps.hi, ps.hj]
    t = np.einsum("bkl,bl->bk", V, np.einsum("bkl,bk->bl", V, g) / lam)
    length = np.linalg.norm(t, axis=1, keepdims=True)
    t *= _NEWTON_RADIUS / np.maximum(length, _NEWTON_RADIUS)
    Z = np.zeros((len(sel),) + Q.shape[1:])
    Z[:, ps.hi, ps.hj] = t
    Z[:, ps.hj, ps.hi] = -t
    return sel, Z, np.einsum("bk,bk->b", g, t)


def _descend(Q0, M0, ps: _PairSet, opts: OptimizerOptions):
    """Riemannian descent on SO(n): Cayley retraction, per-config Armijo steps.

    Works on a flat batch ``Q0 (B, n, n)`` with per-config operators
    ``M0 (B, p, p)``, or one ``(p, p)`` operator shared by the whole batch;
    converged or stalled configurations are retired from the working set so
    laggards do not keep the whole batch running.  A frame's objective and
    M w are computed once, at the start or by the line-search trial that
    accepts the frame, and its gradient is built from them.

    Steepest descent starts at step 0.2, grows an accepted step by 1.4 and
    halves a rejected one.  In the tail, where the gradient norm |A| is at
    most ``_NEWTON_GTOL (1 + |f|)``, a frame whose Hessian is positive
    definite takes a Newton step instead, cut to ``_NEWTON_RADIUS``, with
    Armijo starting at step 1.
    A frame whose try fails (no positive definite Hessian, or no accepted
    step) takes steepest-descent steps for 1, 2, 4, ... iterations before
    its next try.
    """
    B, n = Q0.shape[0], Q0.shape[1]
    eye = np.eye(n)
    shared = M0.ndim == 2
    M = M0
    Q = Q0.copy()
    f, Mw = ps.evaluate(Q, M)
    out_Q, out_f = Q0.copy(), f.copy()
    out_conv = np.zeros(B, dtype=bool)

    idx = np.arange(B)
    step = np.full(B, 0.2)
    dead = np.zeros(B, dtype=bool)
    retry = np.zeros(B)  # iteration of a frame's next Newton try
    wait = np.ones(B)  # iterations to the next try after a failed one
    scale = 1.0 + np.abs(f)
    gtol2 = (_GTOL * scale) ** 2
    snap = f.copy()
    iterations = 0

    for it in range(opts.max_iters):
        if idx.size == 0:
            break
        iterations = it + 1
        QtG = np.swapaxes(Q, -1, -2) @ ps.gradient(Q, Mw)
        A = 0.5 * (QtG - np.swapaxes(QtG, -1, -2))
        g2 = np.einsum("bij,bij->b", A, A)

        finished = (g2 <= gtol2) | dead
        window_end = (it % _STALL_ITERS) == _STALL_ITERS - 1
        if window_end:
            finished |= (snap - f) < _STALL_TOL * scale
        if finished.any():
            sel = np.flatnonzero(finished)
            out_Q[idx[sel]] = Q[sel]
            out_f[idx[sel]] = f[sel]
            out_conv[idx[sel]] = True
            keep = ~finished
            (idx, f, g2, step, dead, retry, wait, scale, gtol2, snap, Q, A,
             Mw) = (x[keep] for x in (idx, f, g2, step, dead, retry, wait,
                                      scale, gtol2, snap, Q, A, Mw))
            M = M if shared else M[keep]
            if idx.size == 0:
                break
        if window_end:
            snap = f.copy()

        # Newton steps where the gradient is small and the Hessian positive
        # definite: they search from step 1 and keep their frames'
        # steepest-descent steps for later
        Z, slope = A, g2
        tail = (g2 <= (_NEWTON_GTOL * (1.0 + np.abs(f))) ** 2) & (retry <= it)
        newton = np.zeros(idx.size, dtype=bool)
        if tail.any():
            sel, Zn, sn = _newton_directions(ps, Q, M, A, np.flatnonzero(tail))
            newton[sel] = True
            Z, slope = A.copy(), g2.copy()
            Z[sel], slope[sel] = Zn, sn
            sd_step = step[sel]
            step[sel] = 1.0

        # Armijo backtracking: the first trial takes the whole working set,
        # and becomes it when every frame accepts; rejected frames halve
        # their steps and retry
        Qt, ft, Mwt, ok = _armijo_trial(ps, eye, Q, Z, M, step, f, slope)
        if ok.all():
            Q, f, Mw = Qt, ft, Mwt
            accepted = ok
        else:
            accepted = np.zeros(idx.size, dtype=bool)
            sub = np.arange(idx.size)
            for trial in range(40):
                if trial:
                    Qt, ft, Mwt, ok = _armijo_trial(
                        ps, eye, Q[sub], Z[sub], M if shared else M[sub],
                        step[sub], f[sub], slope[sub])
                good = sub[ok]
                Q[good], f[good], Mw[good] = Qt[ok], ft[ok], Mwt[ok]
                accepted[good] = True
                bad = sub[~ok]
                step[bad] *= 0.5
                # no acceptable step: retire next sweep
                give_up = step[bad] < 1e-14
                dead[bad[give_up]] = True
                sub = bad[~give_up]
                if sub.size == 0:
                    break
        step[accepted] *= 1.4
        if tail.any():
            step[newton] = sd_step
            failed = tail & ~(newton & accepted)
            retry[failed] = it + wait[failed]
            wait[failed] *= 2

    if idx.size:  # hit max_iters: report honestly as unconverged
        out_Q[idx] = Q
        out_f[idx] = f
        out_conv[idx] = False
    return out_Q, out_f, out_conv, iterations


def _assignment_table(tup: DeltaTuple):
    """Every assignment of the n frame columns to the tuple's blocks.

    Rows are in lexicographic order of the blocks, equal-size blocks by
    increasing first column.  ``orders (A, n)`` lists each assignment's
    columns block by block, then the unassigned ones increasing; ``table
    (A, P)`` holds the pair-basis index of each within-block pair, in
    ``_block_pairs`` order.  Both are int8, which keeps the largest table
    (415 800 rows at n = 12) a few megabytes.
    """
    n, parts = tup.n, tup.parts
    chosen = np.empty((1, 0), dtype=np.int8)  # columns assigned so far
    rest = np.arange(n, dtype=np.int8)[None]  # the others, increasing
    for k, p in enumerate(parts):
        m = rest.shape[1]
        combos = list(itertools.combinations(range(m), p))
        others = np.array([[i for i in range(m) if i not in c]
                           for c in combos], dtype=np.intp)
        # every row times every combination, row-major: still lexicographic
        chosen = np.concatenate((np.repeat(chosen, len(combos), axis=0),
                                 rest[:, combos].reshape(-1, p)), axis=1)
        rest = rest[:, others].reshape(len(chosen), m - p)
        if k and parts[k - 1] == p:  # equal-size blocks: first columns rise
            keep = chosen[:, -p] > chosen[:, -2 * p]
            chosen, rest = chosen[keep], rest[keep]
    orders = np.concatenate((chosen, rest), axis=1)
    I, J = pair_basis(n)
    within = _block_pairs(tup)
    return orders, _pair_index(n)[orders[:, I[within]], orders[:, J[within]]]


def _assignment_minima(Q: np.ndarray, M: np.ndarray, table: np.ndarray):
    """Smallest objective over the assignments of ``table`` for each frame
    Q (S, n, n) with its operator M (S, p, p), and the first row reaching
    it.  Each assignment adds its plane curvatures column by column."""
    I, J = pair_basis(Q.shape[-1])
    w = _wedge(Q, I, J, I, J)
    K = (w * (M @ w)).sum(axis=1)  # every column pair's curvature (S, p)
    vals, picks = np.empty(len(K)), np.empty(len(K), dtype=np.intp)
    chunk = max(1, _CHUNK_ENTRIES // len(table))
    for lo in range(0, len(K), chunk):
        Kc = K[lo:lo + chunk]
        total = Kc[:, table[:, 0]]
        for col in table.T[1:]:
            total += Kc[:, col]
        vals[lo:lo + chunk] = total.min(axis=1)
        picks[lo:lo + chunk] = total.argmin(axis=1)
    return vals, picks


def _random_orthogonal(rng: np.random.Generator, shape_prefix, n: int):
    A = rng.standard_normal(shape_prefix + (n, n))
    Q, Rm = np.linalg.qr(A)
    sgn = np.sign(np.einsum("...ii->...i", Rm))
    sgn[sgn == 0] = 1.0
    return Q * sgn[..., None, :]


def _ricci_eigh(components: np.ndarray):
    """Ascending eigenvalues (S, n) and eigenvectors (S, n, n) of the Ricci
    tensors Ric(a, d) = sum_b R[b, a, d, b] of a stack (S, n, n, n, n)."""
    ricci = np.einsum("sbadb->sad", components)
    ricci = 0.5 * (ricci + np.swapaxes(ricci, -1, -2))
    return np.linalg.eigh(ricci)


def _initial_frames(components: np.ndarray, restarts: int, seed: int):
    S, n = components.shape[0], components.shape[-1]
    Q = np.empty((S, restarts, n, n))
    Q[:, 0] = np.eye(n)
    if restarts >= 2:
        Q[:, 1] = _ricci_eigh(components)[1]
    for r in range(2, restarts):
        rng = np.random.default_rng([seed, r])
        Q[:, r] = _random_orthogonal(rng, (S,), n)
    return Q


def _minimize_batch(components: np.ndarray, tup: DeltaTuple,
                    opts: OptimizerOptions):
    """Best found inf of the configuration objective for a batch of
    tensors (S, n, n, n, n), checked by ``delta_invariant_batch``.

    Returns (inf values (S,), frames (S, n, n), per-sample diagnostics).
    """
    S, n = components.shape[0], components.shape[-1]
    M = pair_curvature_operator(components)
    ps = _PairSet(tup)
    restarts = opts.restarts
    Q0 = _initial_frames(components, restarts, opts.seed)
    # one sample's restarts share its operator; flat order is sample-major
    Mflat = M[0] if S == 1 else np.repeat(M, restarts, axis=0)
    Qf, ff, convf, iterations = _descend(
        Q0.reshape(S * restarts, n, n), Mflat, ps, opts)
    Q = Qf.reshape(S, restarts, n, n)
    f = ff.reshape(S, restarts)
    done = convf.reshape(S, restarts)

    best_idx = np.argmin(f, axis=1)
    best_f = f[np.arange(S), best_idx]
    best_Q = Q[np.arange(S), best_idx]
    best_conv = done[np.arange(S), best_idx]

    # discrete assignment polish: relabel each winning frame's columns into
    # the blocks of least objective, then descend again from there
    orders, table = _assignment_table(tup)
    rounds_used = np.zeros(S, dtype=int)
    active = np.arange(S)
    for _ in range(_ASSIGNMENT_ROUNDS):
        vals, picks = _assignment_minima(best_Q[active], M[active], table)
        f_act = best_f[active]
        better = vals < f_act - 1e-12 * (1 + np.abs(f_act))
        if not better.any():
            break
        sub, val = active[better], vals[better]
        Qp = np.take_along_axis(best_Q[sub], orders[picks[better]][:, None],
                                axis=2)
        Qr, fr, conv_r, it_r = _descend(Qp, M[sub], ps, opts)
        improved = fr < val
        best_Q[sub] = np.where(improved[:, None, None], Qr, Qp)
        best_f[sub] = np.where(improved, fr, val)
        rounds_used[sub] += 1
        best_conv[sub] &= conv_r
        iterations += it_r
        active = sub  # a frame the polish left alone stays unchanged

    # best_gap: from the lowest restart value to the next distinct one
    vals = np.sort(f, axis=1)
    low = vals[:, :1]
    distinct = vals > low + 1e-9 * (1 + np.abs(low))
    nxt = vals[np.arange(S), np.argmax(distinct, axis=1)]
    gaps = np.where(distinct.any(axis=1), nxt - low[:, 0], 0.0)
    diags = [DeltaDiagnostics(
        restarts=restarts, restarts_converged=int(done[s].sum()),
        iterations=iterations, converged=bool(best_conv[s]),
        best_gap=float(gaps[s]), assignment_rounds=int(rounds_used[s]))
        for s in range(S)]
    return best_f, best_Q, diags


def delta_invariant_batch(components: np.ndarray, tup: DeltaTuple,
                          opts: OptimizerOptions | None = None):
    """delta over a stack of curvature components (S, n, n, n, n).

    Returns (values (S,), frames (S, n, n), per-sample diagnostics); each
    frame's columns, blocks first, achieve its value.  The hyperplane tuple
    (n-1) is exact: tau(nu^perp) = tau - Ric(nu, nu) for a unit normal nu,
    so delta(n-1) = lambda_max(Ric), achieved by the ascending Ricci
    eigenbasis; its diagnostics report ``restarts == 0``.  Every other tuple
    is ``tau`` minus the optimizer's best found infimum.

    Rejects another shape, n > ``cubic.MAX_N``, components that are not
    finite or exceed ``frames.MAX_COMPONENT`` (ValueError) and a tuple of
    another dimension (Inadmissible)."""
    shape = components.shape
    if len(shape) != 5 or len(set(shape[1:])) != 1:
        raise ValueError(f"expected curvature components of shape "
                         f"(S, n, n, n, n), got {shape}")
    S, n = shape[0], shape[-1]
    if n != tup.n:
        raise Inadmissible(f"tuple dimension {tup.n} does not match "
                           f"tensor dimension {n}")
    if n > MAX_N:
        raise ValueError(f"dimension {n} exceeds the maximum {MAX_N}")
    if not (np.abs(components) <= MAX_COMPONENT).all():
        raise ValueError(f"curvature components must be finite and at "
                         f"most {MAX_COMPONENT:g} in magnitude")
    if tup.hyperplane:
        vals, frames = _ricci_eigh(components)
        return vals[:, -1], frames, [
            DeltaDiagnostics(restarts=0, iterations=0, converged=True,
                             restarts_converged=0, best_gap=0.0,
                             assignment_rounds=0) for _ in range(S)]
    inf_vals, frames, diags = _minimize_batch(
        components, tup, opts or OptimizerOptions())
    taus = 0.5 * np.einsum("sabba->s", components)
    return taus - inf_vals, frames, diags


def delta_invariant(R: CurvatureTensor, tup: DeltaTuple,
                    opts: OptimizerOptions | None = None):
    """delta(n_1, ..., n_k) of one tensor: ``delta_invariant_batch`` on a
    stack of one.  Returns (value, achieving config, diagnostics); an
    optimizer that fails to converge is flagged ``unconverged`` in the
    diagnostics rather than failing silently."""
    values, frames, diags = delta_invariant_batch(R.components[None], tup,
                                                  opts)
    return float(values[0]), SubspaceConfig(frames[0], tup.blocks()), diags[0]


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


# Largest accepted grid resolution.  The n = 4 grid has resolution**4
# frames; at the cap its GEMM is about 2e10 flops over arrays of a few
# megabytes, and larger values would only buy time, not accuracy.
MAX_GRID_RESOLUTION = 128

# The grid oracle's polish: local grids at these multiples of the spacing
# on each axis, until the spacing falls below _REFINE_TOL radians or after
# _REFINE_ROUNDS grids (23 was the most seen on random point data).
_REFINE_OFFSETS = np.linspace(-1.0, 1.0, 9)
_REFINE_TOL = 1e-9
_REFINE_ROUNDS = 64

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


def _rotation_products(n, axes, thetas):
    """Frames G(axes[0], t_0) ... G(axes[-1], t_k) for every combination of
    angles, t_i from ``thetas[i]``: (prod of len(thetas[i]), n, n), C order."""
    P = np.eye(n)[None]
    for (i, j), ts in zip(axes, thetas):
        G = np.stack([_givens(n, i, j, t) for t in ts])
        P = (P[:, None] @ G[None]).reshape(-1, n, n)
    return P


def _grid_minimum(M, n, axes, within, thetas):
    """Smallest block objective over the frames of ``_rotation_products``
    with pair curvature operator M, and the index of its angle on each
    axis.  By Cauchy-Binet the objective of P1_i P2_j, the products of the
    two half-grids, is <C2(P1_i)^T M C2(P1_i), Y_j Y_j^T>_F, with Y_j the
    within-block columns of C2(P2_j): the grid is one GEMM of two factors.
    """
    I, J = pair_basis(n)
    half = len(axes) // 2
    C1 = _wedge(_rotation_products(n, axes[:half], thetas[:half]), I, J, I, J)
    Y = _wedge(_rotation_products(n, axes[half:], thetas[half:]), I, J,
               I[within], J[within])
    left = (np.swapaxes(C1, -1, -2) @ M @ C1).reshape(len(C1), -1)
    right = (Y @ np.swapaxes(Y, -1, -2)).reshape(len(Y), -1)
    best_val, best_flat = np.inf, 0
    chunk = max(1, _CHUNK_ENTRIES // len(right))
    for lo in range(0, len(left), chunk):
        fvals = left[lo:lo + chunk] @ right.T
        arg = int(np.argmin(fvals))
        if fvals.flat[arg] < best_val:
            best_val = float(fvals.flat[arg])
            best_flat = lo * len(right) + arg
    return best_val, np.unravel_index(best_flat, [len(t) for t in thetas])


def oracle_delta_grid(R: CurvatureTensor, tup: DeltaTuple, resolution: int,
                      polish: bool = True) -> float:
    """Brute-force delta over a deterministic grid of orthogonal frames.

    The frame grid is an Euler-style product of plane rotations covering
    the whole configuration space for the supported (n, tuple) cases; block
    assignments are absorbed into the frame grid.  The grid minimum is an
    upper bound on the true inf that converges as the resolution grows; the
    optional polish tightens it by local grids of nine angles per axis
    around the best frame: the spacing shrinks fourfold unless a lower
    value turns up on the window's edge, where the next window is centred.
    Every grid is one GEMM through second compound matrices
    (``_grid_minimum``), a path that shares only ``_block_pairs`` and the
    wedge kernel ``_wedge`` with the optimizer.
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
    within = _block_pairs(tup)
    thetas = [np.pi * np.arange(resolution) / resolution] * len(axes)
    best_val, idx = _grid_minimum(M, n, axes, within, thetas)
    spacing = np.pi / resolution
    for _ in range(_REFINE_ROUNDS if polish else 0):
        if spacing < _REFINE_TOL:
            break
        thetas = [t[i] + spacing * _REFINE_OFFSETS for t, i in zip(thetas, idx)]
        val, idx = _grid_minimum(M, n, axes, within, thetas)
        edge = any(i in (0, len(_REFINE_OFFSETS) - 1) for i in idx)
        if not (edge and val < best_val):
            spacing /= 4
        best_val = min(best_val, val)
    return scalar_tau(R) - best_val
