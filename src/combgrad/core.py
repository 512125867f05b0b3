"""Core contract: optimal values of parametric min-form problems and their
generalized gradients.

For a linear program ``min c.x  s.t.  A x = b, x >= 0`` the optimal value
``z*`` is concave piecewise-linear in ``c`` and convex piecewise-linear in
``b``.  A primal optimum ``u*`` is a supergradient of ``z*`` with respect to
``c``, a dual optimum ``v*`` is a subgradient with respect to ``b``, and the
matrix ``-v* u*^T`` plays the same role for ``A``.  A combinatorial solver
that returns its optimum (assignment matrix, alignment path) therefore also
returns a generalized gradient of its objective value, and a single solve
feeds both the forward and the backward pass of a loss built on ``z*``.

This module holds the shared types (the LP data, a solver's witnesses, the
gradient blocks they form), the pair-cost build both losses share, and a
sampling check of the supergradient inequality.  The chain rule onto
model parameters is not here: each loss returns ``(z*, grad)`` from one
solve, and ``tape.custom_node`` splices that pair into the graph.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NonFinite


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


# The largest finite float64, as a Python float: the range checks compare
# Python floats, which is cheaper than comparing numpy scalars.
_F64_MAX = float(np.finfo(np.float64).max)
_LOG_FLOOR = 1e-12
# The floor in log space, taken once: math.log and np.log agree on its bits.
_LN_FLOOR = math.log(_LOG_FLOOR)


def _check_log_inputs(logP: np.ndarray, Y: np.ndarray) -> None:
    """Reject non-finite reference rows, then NaN or +inf log-probabilities."""
    if not np.isfinite(Y).all():
        raise NonFinite("reference rows must be finite")
    if not (logP < np.inf).all():  # one pass: False at NaN and at +inf
        raise NonFinite("log-probabilities must not contain NaN or +inf")


def _floored_costs(logP: np.ndarray, Y: np.ndarray) -> tuple:
    """C = -(floor(logP) @ Yᵀ) and the boolean mask of logP above the floor,
    with no checks.  Finite entries near 1e308 can still overflow a product
    or a sum, so callers run it under an errstate that lets overflow and
    invalid products through, and reject the non-finite costs that result.
    """
    return -(np.maximum(logP, _LN_FLOOR) @ np.swapaxes(Y, -1, -2)), logP > _LN_FLOOR


def _log_costs(logP: np.ndarray, Y: np.ndarray) -> tuple:
    """The pair costs both optimal-value losses score, and where they move.

    Returns C = -(floor(logP) @ Yᵀ), with log-probabilities floored at
    log 1e-12, and the 0/1 mask of entries above the floor: a floored
    entry does not change C, so its gradient is zero.  Works on single
    (n, d) rows or (k, n, d) stacks; the callers check shapes.
    """
    _check_log_inputs(logP, Y)
    with np.errstate(over="ignore", invalid="ignore"):
        C, active = _floored_costs(logP, Y)
    return C, active.astype(np.float64)


@dataclass(frozen=True)
class LPSpec:
    """Equality-form linear program: minimize c.x subject to A x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        b = np.atleast_1d(np.asarray(self.b, dtype=np.float64))
        if c.ndim != 1 or b.ndim != 1 or A.ndim != 2:
            raise DimensionMismatch("c and b must be vectors and A a matrix")
        if A.shape != (b.size, c.size):
            raise DimensionMismatch(
                f"A has shape {A.shape}, expected ({b.size}, {c.size})"
            )
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise NonFinite("LP data must be finite")
        object.__setattr__(self, "c", _freeze(c))
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class SolverOutcome:
    """Optimal value of an LP with both optimality witnesses.

    ``u_star`` is a primal optimum (arg min), ``v_star`` a dual optimum; the
    ``unique`` flag records whether the solver certified the primal optimum
    as the only one.
    """

    z_star: float
    u_star: np.ndarray
    v_star: np.ndarray
    unique: bool

    def __post_init__(self):
        object.__setattr__(self, "z_star", float(self.z_star))
        object.__setattr__(self, "u_star", _freeze(np.atleast_1d(self.u_star)))
        object.__setattr__(self, "v_star", _freeze(np.atleast_1d(self.v_star)))


def strong_duality_gap(spec: LPSpec, outcome: SolverOutcome) -> float:
    """|c.u* - b.v*|, zero at an optimal primal/dual pair."""
    return abs(float(spec.c @ outcome.u_star) - float(spec.b @ outcome.v_star))


@dataclass(frozen=True)
class GenGrad:
    """Generalized gradient of z* with respect to the problem data blocks.

    d_c is a primal optimum, d_b a dual optimum, and d_A = -outer(d_b, d_c);
    any block may be absent when the corresponding data does not vary.
    """

    d_c: Optional[np.ndarray] = None
    d_b: Optional[np.ndarray] = None
    d_A: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("d_c", "d_b", "d_A"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _freeze(val))


@dataclass(frozen=True)
class SupergradReport:
    passed: bool
    worst_violation: float
    trials: int


_RADIUS = 0.5


def supergradient_check(
    f: Callable[[np.ndarray], float],
    w: np.ndarray,
    g: np.ndarray,
    *,
    trials: int = 100,
    tol: float = 1e-9,
    rng: Optional[np.random.Generator] = None,
) -> SupergradReport:
    """Sample the supergradient inequality of a concave f around w.

    Tests f(w') <= f(w) + <g, w' - w> + tol at `trials` points w' drawn
    uniformly from the ball of radius 0.5 around w, with `rng` (default
    ``np.random.default_rng(0)``).  Reports the worst violation found
    (positive = violated).
    """
    if isinstance(trials, bool) or not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise InvalidInput(f"trials must be a whole number >= 1, got {trials!r}")
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 <= tol < np.inf):
        raise InvalidInput(f"tol must be a finite number >= 0, got {tol!r}")
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != w.shape:
        raise DimensionMismatch(f"gradient shape {g.shape} != parameter shape {w.shape}")
    if rng is None:
        rng = np.random.default_rng(0)
    fw = float(f(w))
    worst = -np.inf
    for _ in range(trials):
        d = rng.standard_normal(w.shape)
        nrm = float(np.sqrt(np.vdot(d, d)))
        if nrm == 0.0:
            continue
        r = _RADIUS * float(rng.uniform()) ** (1.0 / w.size)
        wp = w + (r / nrm) * d
        viol = float(f(wp)) - (fw + float(np.vdot(g, wp - w)))
        if viol > worst:
            worst = viol
    return SupergradReport(passed=bool(worst <= tol), worst_violation=float(worst), trials=trials)
