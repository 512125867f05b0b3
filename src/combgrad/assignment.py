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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import _F64_MAX, GenGrad, _check_log_inputs, _floored_costs
from .errors import DimensionMismatch, InvalidInput, NonFinite, NonSquare


def _check_cost_range(Cs: np.ndarray) -> None:
    """Reject costs whose sums can overflow, for one matrix or a stack.

    A phase of the kernel ends with every column's v in [-2 max|C|, 0] (a
    column it never scanned keeps v = 0 and bounds the others through dual
    feasibility) and every u within 3 max|C|, and no step inside a phase
    moves them by more than max|C|.  So reduced costs stay within
    8 max|C|, and each edge of the certificate's swap graph within
    16 max|C|.  The closure adds two paths of at most b edges, and a
    matching sums b costs, so requiring 32 b max|C| to be finite keeps
    the duals, z* and every cycle sum finite.  Costs that pass elementwise
    can still fail this: a sum of 5e307 costs overflows.
    """
    b = Cs.shape[-1]
    top = float(np.abs(Cs).max(initial=0.0))  # NaN or inf when any cost is
    if not math.isfinite(top):
        raise NonFinite("cost matrix must be finite")
    if top > _F64_MAX / (32.0 * max(b, 1)):
        raise NonFinite(f"costs up to {top:.3g} can overflow a sum over a {b}x{b} matching")


def _validate_cost(C: np.ndarray) -> np.ndarray:
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise DimensionMismatch("cost matrix must be 2-D")
    if C.shape[0] != C.shape[1]:
        raise NonSquare(f"cost matrix must be square, got {C.shape}")
    _check_cost_range(C)
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
    a second solve.
    """
    C = _validate_cost(C)
    b = C.shape[0]
    perm, u, v, unique = _kernels.assignment_kernel(C)
    rows = np.arange(b)
    M = np.zeros((b, b))
    M[rows, perm] = 1.0
    # M, u and v are fresh arrays that nothing else holds: freezing them in
    # place needs no copy.
    for a in (M, u, v):
        a.setflags(write=False)
    return MatchingResult(
        perm=tuple(perm.tolist()),
        M=M,
        z_star=float(C[rows, perm].sum()),
        duals_u=u,
        duals_v=v,
        unique=bool(unique),
    )


def assignment_gengrad(result: MatchingResult) -> GenGrad:
    """Gradient of the optimal cost in the cost matrix: the matching itself."""
    return GenGrad(d_c=result.M.ravel(), d_b=None, d_A=None)


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
    batched kernel call solves every instance, and ties resolve to the
    lexicographically smallest optimum exactly as solve_assignment does.

    The inputs are checked in this order, and the first failing check
    raises: the shapes (DimensionMismatch), Y finite, then logP free of NaN
    and +inf (NonFinite), every logP row normalized (InvalidInput), and
    the costs in range (NonFinite).
    """
    logP = np.asarray(logP, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if not (logP.ndim in (2, 3) and logP.shape == Y.shape and 0 not in logP.shape):
        raise DimensionMismatch(
            "logP and Y must share a (b, d) shape, or a (k, b, d) stack shape, with k, b, d >= 1;"
            f" got {logP.shape} and {Y.shape}"
        )
    Ys = Y.reshape(-1, *Y.shape[-2:])
    logPs = logP.reshape(Ys.shape)
    # One pass builds the costs and each row's distance from a normalized
    # log-distribution.  NaN or +inf in a row, a row of -inf (log 0) and a
    # row whose exp overflows all leave a distance that is not <= 1e-6: the
    # checks below reject them, so this pass silences their warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Cs, active = _floored_costs(logPs, Ys)
        normalized = (np.abs(np.log(np.exp(logPs).sum(axis=-1))) <= 1e-6).all()
    if not (normalized and np.isfinite(Ys).all()):
        # Name the first failing check, in the documented order.
        _check_log_inputs(logPs, Ys)
        raise InvalidInput("each logP row must be a normalized log-distribution")
    _check_cost_range(Cs)
    perms = _kernels.assignment_kernel_many(Cs)[0]
    k, b = perms.shape
    rows = np.arange(k)[:, None]
    zs = Cs[rows, np.arange(b), perms].sum(axis=1)
    grad = -Ys[rows, perms] * active
    if logP.ndim == 2:
        return float(zs[0]), grad[0]
    return zs, grad


def filter_bag(Y: np.ndarray, threshold: float) -> bool | np.ndarray:
    """Accept a bag only if its share of distinct reference rows is high enough.

    Y is (b, d) one-hot; the bag passes when the number of distinct rows is
    at least threshold * b (with a tiny slack so threshold * b landing on an
    integer is not rejected by roundoff).  A (k, b, d) stack of bags gives a
    (k,) bool mask; b - 1 comparisons of shifted rows serve every bag.
    """
    if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) or np.isnan(threshold):
        raise InvalidInput(f"threshold must be a real number, got {threshold!r}")
    Y = np.asarray(Y)
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
