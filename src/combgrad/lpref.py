"""Reference machinery at desk scale: a dense two-phase simplex with dual
recovery, finite-difference checks of the optimal-value gradients, and the
random instances they run on.

Everything here favors transparency over speed and is meant for instances
with tens of variables at most.  One tolerance, ``_TOL``, serves the
simplex pivots, the phase-1 feasibility test, rank decisions and the
degeneracy screen; the test suite's enumeration oracles read it for their
feasibility tests and tie sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels
from .core import NONNEG, POSITIVE, WHOLE, LPSpec, SolverOutcome, _arg, _check_witnesses
from .errors import (
    DegenerateInstance,
    Infeasible,
    InvalidInput,
    IterationLimit,
    NonFinite,
    Unbounded,
)

_MAX_PIVOTS = 20000
_TOL = 1e-9
# The largest constraint matrix random_lp draws.
_MAX_ENTRIES = 10**6


def _pivot(T: np.ndarray, basis: list, row: int, col: int) -> None:
    T[row] /= T[row, col]
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    T[rows] -= T[rows, col, None] * T[row]
    basis[row] = col


def _simplex_iterate(T: np.ndarray, basis: list, cost: np.ndarray) -> None:
    """Run Bland's-rule pivoting on a canonical tableau until optimality.

    T is (m, ncols+1) with the rhs in the last column and identity columns at
    the basis indices.  Raises Unbounded when an improving column has no
    positive entry, and IterationLimit when _MAX_PIVOTS pivots do not reach
    optimality.
    """
    m, ncols1 = T.shape
    ncols = ncols1 - 1
    for _ in range(_MAX_PIVOTS):
        cb = cost[basis]
        reduced = cost[:ncols] - cb @ T[:, :ncols]
        improving = np.flatnonzero(reduced < -_TOL)
        if not improving.size:
            return
        col = T[:, improving[0]]
        best_ratio = np.inf
        leave = -1
        for r in range(m):
            if col[r] > _TOL:
                ratio = T[r, -1] / col[r]
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL and (leave < 0 or basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            raise Unbounded("improving direction with no blocking constraint")
        _pivot(T, basis, leave, improving[0])
    raise IterationLimit(f"simplex did not terminate within the pivot budget of {_MAX_PIVOTS}")


def solve_lp(spec: LPSpec) -> SolverOutcome:
    """Solve min c.x s.t. A x = b, x >= 0 by a two-phase dense simplex.

    Returns the optimal value with both witnesses: the primal vertex u*, the
    duals v* recovered from the optimal basis, and a uniqueness flag that is
    True iff every nonbasic reduced cost is strictly positive.

    Raises Infeasible or Unbounded, and NonFinite when finite data still
    overflow the arithmetic (entries near 1e308).
    """
    _arg(spec, "spec", (LPSpec, None, "an LPSpec"))
    _kernels.increment("lp")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _two_phase(spec)
    except FloatingPointError as exc:
        raise NonFinite(f"LP data overflow the simplex arithmetic ({exc})") from None


def _two_phase(spec: LPSpec) -> SolverOutcome:
    m, p = spec.num_constraints, spec.num_vars
    sign = np.where(spec.b < 0, -1.0, 1.0)
    A = spec.A * sign[:, None]
    b = spec.b * sign
    scale = 1.0 + float(np.abs(b).max(initial=0.0))

    # Phase 1: drive artificial variables to zero.
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(p, p + m))
    cost1 = np.concatenate([np.zeros(p), np.ones(m)])
    _simplex_iterate(T, basis, cost1)
    if float(cost1[basis] @ T[:, -1]) > _TOL * scale:
        raise Infeasible("phase-1 objective positive")

    # Pivot artificials out of the basis; rows that cannot be cleared are
    # redundant and get dropped (their dual component is reported as zero).
    keep = np.ones(m, dtype=bool)
    for r in np.flatnonzero(np.array(basis) >= p):
        piv = np.flatnonzero(np.abs(T[r, :p]) > _TOL)
        if piv.size:
            _pivot(T, basis, r, piv[0])
        else:
            keep[r] = False
    T = T[keep]
    basis = [j for j, kept in zip(basis, keep) if kept]

    # Phase 2 on the original columns only.
    T2 = np.hstack([T[:, :p], T[:, -1:]])
    _simplex_iterate(T2, basis, spec.c)

    u = np.zeros(p)
    u[basis] = T2[:, -1]
    z = float(spec.c @ u)

    B = A[keep][:, basis]
    v_kept = np.linalg.solve(B.T, spec.c[basis])
    v = np.zeros(m)
    v[keep] = sign[keep] * v_kept

    reduced = spec.c - A[keep].T @ v_kept
    nonbasic = np.ones(p, dtype=bool)
    nonbasic[basis] = False
    unique = bool(np.all(reduced[nonbasic] > _TOL))
    return SolverOutcome(z_star=z, u_star=u, v_star=v, unique=unique)


@dataclass(frozen=True)
class FDReport:
    """One central-difference probe of z* along a random direction."""

    analytic: float
    numeric: float
    abs_err: float
    rel_err: float
    passed: bool


@dataclass(frozen=True)
class LPGradCheck:
    c_block: FDReport
    b_block: FDReport
    A_block: FDReport

    @property
    def passed(self) -> bool:
        return self.c_block.passed and self.b_block.passed and self.A_block.passed


def _fd_report(analytic: float, numeric: float, rtol: float) -> FDReport:
    abs_err = abs(analytic - numeric)
    rel_err = abs_err / max(1.0, abs(analytic), abs(numeric))
    return FDReport(
        analytic=float(analytic),
        numeric=float(numeric),
        abs_err=float(abs_err),
        rel_err=float(rel_err),
        passed=bool(rel_err <= rtol),
    )


def check_lp_grads(
    spec: LPSpec,
    outcome: SolverOutcome,
    *,
    eps: float = 1e-5,
    rtol: float = 1e-4,
    rng: Optional[np.random.Generator] = None,
) -> LPGradCheck:
    """Probe all three optimal-value gradients by central differences.

    Compares (z*(data + eps*d) - z*(data - eps*d)) / (2 eps) against u*.d
    for the cost block, v*.d for the rhs block, and <-v* u*^T, D> for the
    matrix block, along one random direction each.  Central quotients
    matter for the matrix block: the optimal value is piecewise linear in c
    and in b but only piecewise rational in A, so a one-sided quotient
    carries an O(eps)-curvature term that central differencing cancels.
    The directions are drawn with `rng` (default ``np.random.default_rng(0)``).

    Raises DegenerateInstance when the optimum is not certified unique or
    the optimal vertex is degenerate; a single witness is then only one
    element of the gradient set and the quotient need not match it.
    """
    _check_witnesses(spec, outcome)
    _arg(eps, "eps", POSITIVE)
    _arg(rtol, "rtol", NONNEG)
    if not outcome.unique:
        raise DegenerateInstance("primal optimum not certified unique")
    m = spec.num_constraints
    if int(np.sum(outcome.u_star > _TOL)) != m:
        raise DegenerateInstance("degenerate optimal vertex; dual witness not unique")
    if rng is None:
        rng = np.random.default_rng(0)
    u, v = outcome.u_star, outcome.v_star
    reports = []
    for name, slope in (("c", lambda d: u @ d), ("b", lambda d: v @ d), ("A", lambda d: -(v @ d @ u))):
        x = getattr(spec, name)
        d = rng.standard_normal(x.shape)
        z_hi = solve_lp(replace(spec, **{name: x + eps * d})).z_star
        z_lo = solve_lp(replace(spec, **{name: x - eps * d})).z_star
        reports.append(_fd_report(float(slope(d)), (z_hi - z_lo) / (2 * eps), rtol))
    return LPGradCheck(*reports)


def random_lp(rng: np.random.Generator, p: int, m: int) -> LPSpec:
    """A random feasible bounded instance: b = A x0 with x0 > 0 and c > 0.

    The instance is drawn in memory, so p * m, the size of A, is capped at
    10**6; a larger one is InvalidInput, raised before any draw.
    """
    _arg(rng, "rng", (np.random.Generator, None, "a numpy Generator"))
    _arg(p, "p", WHOLE)
    _arg(m, "m", WHOLE)
    if p * m > _MAX_ENTRIES:
        raise InvalidInput(f"p * m must be at most {_MAX_ENTRIES}, got {p} * {m}")
    A = rng.standard_normal((m, p))
    x0 = rng.uniform(0.5, 1.5, size=p)
    c = rng.uniform(0.5, 1.5, size=p)
    return LPSpec(c, A, A @ x0)
