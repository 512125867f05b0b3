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

import numpy as np

from . import _kernels
from .core import NONNEG, GenGrad, _arg, _floats, _log_costs
from .errors import DimensionMismatch, InvalidInput, NonSquare


def _validate_cost(C: np.ndarray) -> np.ndarray:
    # The cost range is the kernel's own check (_kernels._check_cost_range).
    C = _floats(C, "cost matrix")
    if C.ndim != 2:
        raise DimensionMismatch("cost matrix must be 2-D")
    if C.shape[0] != C.shape[1]:
        raise NonSquare(f"cost matrix must be square, got {C.shape}")
    return C


@dataclass(frozen=True)
class MatchingResult:
    """Optimal assignment with its certificate.

    perm maps row i to column perm[i]; M is the 0/1 matrix of the matching.
    The duals satisfy u[i] + v[j] <= C[i, j] and sum to the minimum cost;
    z_star, perm's cost, is within tol = 1e-9 of it: each matched pair has
    slack C[i, j] - u[i] - v[j] of at most tol / b.  unique is True when
    every other matching costs more than z_star + tol, so M is the whole
    gradient.
    """

    perm: tuple
    M: np.ndarray
    z_star: float
    duals_u: np.ndarray
    duals_v: np.ndarray
    unique: bool


def solve_assignment(C: np.ndarray) -> MatchingResult:
    """Min-cost perfect matching on a square cost matrix, certified.

    One kernel call runs a single O(b^3) shortest-augmenting-path pass,
    refines the matching to the lexicographically smallest one within tol
    of the optimum, so equal-cost inputs always yield the same answer, and
    certifies it: any other matching differs from perm by cycles of swaps,
    and an O(b^3) closure over the swaps' costs finds the cheapest without
    a second solve (the C port skips it where an O(b^2) test rules out a
    near-tie, with the closure's verdict).  The same call returns M, the
    duals and z*, which is C[np.arange(b), perm].sum() bit for bit, all
    read-only.  NonFinite when a cost is not finite or so large that a sum
    over a matching can overflow; the kernel checks this before it solves.
    """
    perm, u, v, unique, z, M = _kernels.assignment_kernel(_validate_cost(C))
    return MatchingResult(perm=tuple(perm.tolist()), M=M, z_star=z, duals_u=u, duals_v=v, unique=bool(unique))


def assignment_gengrad(result: MatchingResult) -> GenGrad:
    """Gradient of the optimal cost in the cost matrix: the matching itself."""
    _arg(result, "result", (MatchingResult, None, "a MatchingResult"))
    return GenGrad._own(result.M.flatten())


def matching_loss(logP: np.ndarray, Y: np.ndarray) -> tuple:
    """Set-prediction loss: best bijection between predicted rows and targets.

    logP is (b, d) of row log-probabilities, Y is (b, d) one-hot (or soft)
    reference rows.  The pair cost is the negative inner product of the
    log-probabilities, floored at log 1e-12, with the reference row, so with
    b = 1 this is exactly cross-entropy.  Returns (loss, grad) where
    grad[j] = -Y[sigma(j)] for the optimal matching sigma, zero wherever
    logP is at or below the floor — the exact gradient of the optimal cost,
    read off the matching with no extra solve.  For stacks (k, b, d) it
    returns the (k,) losses and the (k, b, d) gradients.  Either way one
    batched kernel call solves every instance and returns the losses, each
    the sum of its matched costs as np.sum takes it, and ties resolve to the
    lexicographically smallest optimum exactly as solve_assignment does.

    The inputs are checked in this order, and the first failing check
    raises: the shapes (DimensionMismatch), Y finite, then logP free of NaN
    and +inf (NonFinite), every logP row normalized (InvalidInput), and
    the costs in range (NonFinite), which the kernel checks before it
    solves.
    """
    logP = _floats(logP, "logP")
    Y = _floats(Y, "Y")
    if not (logP.ndim in (2, 3) and logP.shape == Y.shape and 0 not in logP.shape):
        raise DimensionMismatch(
            "logP and Y must share a (b, d) shape, or a (k, b, d) stack shape, with k, b, d >= 1;"
            f" got {logP.shape} and {Y.shape}"
        )
    Ys = Y.reshape(-1, *Y.shape[-2:])
    logPs = logP.reshape(Ys.shape)
    Cs, active = _log_costs(logPs, Ys)
    # Rows of -inf (log 0) or with exp overflow fail anyway; past _log_costs none is NaN.
    # The largest deviation is read with argmax, as check_grids reads its
    # maximum: a NaN deviation is the first argmax and fails the test too.
    with np.errstate(over="ignore", divide="ignore"):
        deviation = np.abs(np.log(np.exp(logPs).sum(axis=-1))).ravel()
        if not deviation[deviation.argmax()] <= 1e-6:
            raise InvalidInput("each logP row must be a normalized log-distribution")
    perms, _, _, _, zs = _kernels.assignment_kernel_many(Cs)
    grad = -Ys[np.arange(perms.shape[0])[:, None], perms] * active
    if logP.ndim == 2:
        return float(zs[0]), grad[0]
    return zs, grad


def filter_bag(Y: np.ndarray, threshold: float) -> bool | np.ndarray:
    """Accept a bag only if its share of distinct reference rows is high enough.

    Y is (b, d) one-hot rows of numbers (read as float64, so string labels
    are an InvalidInput); the bag passes when the number of distinct rows is
    at least threshold * b, a finite threshold >= 0 (with a tiny slack so
    threshold * b landing on an integer is not rejected by roundoff).  A
    (k, b, d) stack of bags gives a (k,) bool mask; b - 1 comparisons of
    shifted rows serve every bag.
    """
    _arg(threshold, "threshold", NONNEG)
    Y = _floats(Y, "Y")
    if Y.ndim not in (2, 3) or 0 in Y.shape[-2:]:
        raise DimensionMismatch(f"Y must be a 2-D bag or a 3-D stack of non-empty bags, got shape {Y.shape}")
    Ys = Y.reshape(-1, *Y.shape[-2:])
    b = Ys.shape[1]
    # A row counts once: when no earlier row of its bag equals it.  Step s
    # compares every row with the row s places before it, in every bag at
    # once and reducing over the classes first, so no (k, b, b, d)
    # comparison is ever built.
    repeated = np.zeros(Ys.shape[:2], dtype=bool)
    for s in range(1, b):
        repeated[:, s:] |= (Ys[:, s:] == Ys[:, :-s]).all(axis=2)
    keep = b - repeated.sum(axis=1) >= threshold * b - 1e-9
    return bool(keep[0]) if Y.ndim == 2 else keep
