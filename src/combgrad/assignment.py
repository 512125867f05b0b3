"""Square min-cost assignment with optimal-value gradients.

The solver returns, besides the optimal permutation, the dual potentials
(u, v) that certify optimality and the permutation matrix M whose
vectorization is the gradient of the optimal cost in the cost matrix.  A
matching-based set loss for a predictor head is built on top: score rows
against reference rows, match, and read the gradient straight off the
matched reference rows — no second solve, no backward pass through the
matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .core import GenGrad, _freeze
from .errors import DimensionMismatch, NonFinite, NonSquare

_LOG_FLOOR = 1e-12


def _validate_cost(C: np.ndarray) -> np.ndarray:
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise DimensionMismatch("cost matrix must be 2-D")
    if C.shape[0] != C.shape[1]:
        raise NonSquare(f"cost matrix must be square, got {C.shape}")
    if not np.isfinite(C).all():
        raise NonFinite("cost matrix must be finite")
    return C


def _lex_refine(C: np.ndarray, perm: np.ndarray, u: np.ndarray, v: np.ndarray, *, tol: float) -> np.ndarray:
    """Refine an optimal matching to the lexicographically smallest one.

    Every optimal matching is a perfect matching of the tight graph
    {(i, j) : C[i, j] - u[i] - v[j] <= tol}, so the lex-min optimum is found
    by fixing rows in order: hand row i the smallest tight column for which
    the displaced rows can re-match (never disturbing already-fixed rows),
    then freeze it.
    """
    b = C.shape[0]
    slack = C - u[:, None] - v[None, :]
    tight = slack <= tol
    cols = [np.flatnonzero(tight[i]) for i in range(b)]
    matchL = perm.copy()
    matchR = np.empty(b, dtype=np.int64)
    matchR[perm] = np.arange(b)
    fixed = np.zeros(b, dtype=bool)

    def rematch(r: int, visited: np.ndarray) -> bool:
        # Classic augmenting search, depth first with an explicit stack so a
        # long chain of ties cannot exhaust the recursion limit.  rows[t]
        # scans its tight columns from nxt[t]; via[t] is the column it tries,
        # whose owner is rows[t + 1].  Commits only along a successful path.
        rows, nxt, via = [r], [0], []
        while rows:
            r, k = rows[-1], nxt[-1]
            cr = cols[r]
            while k < cr.size:
                j = cr[k]
                k += 1
                if visited[j]:
                    continue
                visited[j] = True
                owner = matchR[j]
                if owner < 0:
                    via.append(j)
                    for row, col in zip(rows, via):
                        matchL[row] = col
                        matchR[col] = row
                    return True
                if not fixed[owner]:
                    nxt[-1] = k
                    rows.append(int(owner))
                    nxt.append(0)
                    via.append(j)
                    break
            else:
                rows.pop()
                nxt.pop()
                if via:
                    via.pop()
        return False

    for i in range(b):
        for j in cols[i]:
            if j == matchL[i]:
                break
            r = int(matchR[j])
            if fixed[r]:
                continue
            old = matchL[i]
            matchL[i] = j
            matchR[j] = i
            matchR[old] = -1
            visited = np.zeros(b, dtype=bool)
            visited[j] = True
            if rematch(r, visited):
                break
            matchL[i] = old
            matchR[old] = i
            matchR[j] = r
        fixed[i] = True
    return matchL


def _unique_sweep(C: np.ndarray, perm: np.ndarray, z: float, *, tol: float) -> bool:
    """Certify uniqueness: forbid each matched edge in turn and re-solve.

    The optimum is unique iff every alternative matching costs strictly
    more than z + tol.  Costs one extra solve per row and is therefore
    opt-in on hot paths.
    """
    b = C.shape[0]
    big = 2.0 * (b + 1.0) * (1.0 + float(np.abs(C).max(initial=0.0))) + 1.0
    Cs = np.repeat(C[None, :, :], b, axis=0)
    for i in range(b):
        Cs[i, i, perm[i]] = big
    perms, _, _ = _kernels.assignment_kernel_many(Cs)
    zs = np.take_along_axis(Cs, perms[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return bool(np.all(zs > z + tol))


@dataclass(frozen=True)
class MatchingResult:
    """Optimal assignment with its certificate.

    perm maps row i to column perm[i]; M is the 0/1 matrix of the matching;
    duals satisfy u[i] + v[j] <= C[i, j] with equality on matched pairs and
    sum(u) + sum(v) == z_star.  unique is None when the certificate sweep
    was skipped.
    """

    perm: tuple
    M: np.ndarray
    z_star: float
    duals_u: np.ndarray
    duals_v: np.ndarray
    unique: Optional[bool]


def solve_assignment(C: np.ndarray, *, compute_unique: bool = True, tol: float = 1e-9) -> MatchingResult:
    """Min-cost perfect matching on a square cost matrix.

    Runs a single O(b^3) shortest-augmenting-path pass, then refines the
    matching to the lexicographically smallest optimal one so equal-cost
    inputs always yield the same answer.  compute_unique=False skips the
    uniqueness sweep (unique=None) and keeps this a single kernel call.
    """
    C = _validate_cost(C)
    b = C.shape[0]
    perm, u, v = _kernels.assignment_kernel(C)
    perm = _lex_refine(C, perm, u, v, tol=tol)
    z = float(C[np.arange(b), perm].sum())
    M = np.zeros((b, b))
    M[np.arange(b), perm] = 1.0
    unique = _unique_sweep(C, perm, z, tol=tol) if compute_unique else None
    return MatchingResult(
        perm=tuple(int(j) for j in perm),
        M=_freeze(M),
        z_star=z,
        duals_u=_freeze(u),
        duals_v=_freeze(v),
        unique=unique,
    )


def assignment_gengrad(result: MatchingResult) -> GenGrad:
    """Gradient of the optimal cost in the cost matrix: the matching itself."""
    return GenGrad(d_c=result.M.ravel(), d_b=None, d_A=None)


def matching_loss(logP: np.ndarray, Y: np.ndarray) -> tuple:
    """Set-prediction loss: best bijection between predicted rows and targets.

    logP is (b, d) of row log-probabilities, Y is (b, d) one-hot (or soft)
    reference rows.  The pair cost is the negative inner product of the
    (floored) log-probabilities with the reference row, so with b = 1 this
    is exactly cross-entropy.  Returns (loss, grad) where grad[j] = -Y[sigma(j)]
    for the optimal matching sigma — the exact gradient of the optimal cost,
    read off the matching with no extra solve.
    """
    logP = np.asarray(logP, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if logP.ndim != 2 or Y.ndim != 2 or logP.shape != Y.shape:
        raise DimensionMismatch(f"logP and Y must share a (b, d) shape, got {logP.shape} and {Y.shape}")
    if not np.isfinite(Y).all():
        raise NonFinite("reference rows must be finite")
    if np.isnan(logP).any() or np.isposinf(logP).any():
        raise NonFinite("log-probabilities must not contain NaN or +inf")
    rowsum = np.abs(np.logaddexp.reduce(logP, axis=1))
    if np.any(rowsum > 1e-6):
        raise ValueError("each logP row must be a normalized log-distribution")
    L = np.maximum(logP, np.log(_LOG_FLOOR))
    C = -(L @ Y.T)
    res = solve_assignment(C, compute_unique=False)
    perm = np.asarray(res.perm)
    grad = -Y[perm]
    return res.z_star, grad


def filter_bag(Y: np.ndarray, threshold: float) -> bool:
    """Accept a bag only if its share of distinct reference rows is high enough.

    Y is (b, d) one-hot; the bag passes when the number of distinct rows is
    at least threshold * b (with a tiny slack so threshold * b landing on an
    integer is not rejected by roundoff).
    """
    Y = np.asarray(Y)
    if Y.ndim != 2:
        raise DimensionMismatch("Y must be 2-D")
    b = Y.shape[0]
    distinct = np.unique(Y, axis=0).shape[0]
    return bool(distinct >= threshold * b - 1e-9)
