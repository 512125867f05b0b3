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
cost-block gradient `GenGrad`), the pair-cost build both losses share, a
sampling check of the supergradient inequality, and what a caller may pass:
every public entry reads arrays with `_floats`, other arguments with `_arg`.
The chain rule onto model parameters is not here: each loss returns
``(z*, grad)`` from one solve, and ``tape.custom_node`` splices that pair
into the graph.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NonFinite

# The largest finite float64, as a Python float: the range checks compare
# Python floats, which is cheaper than comparing numpy scalars.
_F64_MAX = float(np.finfo(np.float64).max)
_LOG_FLOOR = 1e-12
# The floor in log space, taken once: math.log and np.log agree on its bits.
_LN_FLOOR = math.log(_LOG_FLOOR)

# What a scalar argument may be, for _arg: the type it must have, a test of
# its value (None for none) and the words of the error.  "Finite" means
# within the float range, which also rejects NaN.
WHOLE = (numbers.Integral, lambda x: x >= 1, "a whole number >= 1")
NONNEG = (numbers.Real, lambda x: 0.0 <= x <= _F64_MAX, "a finite number >= 0")
POSITIVE = (numbers.Real, lambda x: 0.0 < x <= _F64_MAX, "a finite number > 0")
REAL = (numbers.Real, None, "a real number")


def _arg(x, name: str, rule: tuple):
    """x itself when it passes `rule`, else InvalidInput naming `name`.  A
    bool never counts as a number."""
    kind, ok, words = rule
    if isinstance(x, kind) and not isinstance(x, bool) and (ok is None or ok(x)):
        return x
    raise InvalidInput(f"{name} must be {words}, got {x!r:.60}")


def _floats(x, name: str) -> np.ndarray:
    """x as a float64 array: the one way a public entry reads a caller's
    array.  InvalidInput naming `name` when x is complex, checked before the
    cast would drop the imaginary part, or when numpy cannot convert it (a
    ragged list, a non-numeric string, a dict, an int beyond the float
    range)."""
    try:
        if not np.iscomplexobj(x):
            return np.asarray(x, np.float64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidInput(f"{name} must be an array of real numbers: {exc}") from None
    raise InvalidInput(f"{name} must be real, got complex values")


def _freeze(a, name: str) -> np.ndarray:
    out = _floats(a, name).copy()
    out.setflags(write=False)
    return out


def _one_hot(ids: np.ndarray, depth: int) -> np.ndarray:
    """np.eye(depth)[ids] bit for bit, without the depth x depth table: float64
    rows of shape ids.shape + (depth,) with 1.0 at each id."""
    out = np.zeros(ids.shape + (depth,))
    # ids.size, not -1: a reshape cannot infer -1 for empty ids.
    out.reshape(ids.size, depth)[np.arange(ids.size), ids.reshape(ids.size)] = 1.0
    return out


def _log_costs(logP: np.ndarray, Y: np.ndarray) -> tuple:
    """The pair costs both optimal-value losses score, and where they move.

    Returns C = -(floor(logP) @ Yᵀ), with log-probabilities floored at
    log 1e-12, and the boolean mask of entries above the floor: a floored
    entry does not change C, so its gradient is zero.  Works on single
    (n, d) rows or (k, n, d) stacks; the callers check shapes and ranges.
    C comes first: the floor keeps finite logP finite, so a non-finite Y
    entry or a NaN or +inf in logP makes the sum of C non-finite (0 * inf
    is NaN).  Only then, or for an empty C, are Y and then logP scanned to
    raise NonFinite; a sum that overflows from finite costs finds nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        C = -(np.maximum(logP, _LN_FLOOR) @ Y.swapaxes(-1, -2))
        total = C.sum()
    if C.size == 0 or not math.isfinite(total):
        if not np.isfinite(Y).all():
            raise NonFinite("reference rows must be finite")
        if not (logP < np.inf).all():  # one pass: False at NaN and at +inf
            raise NonFinite("log-probabilities must not contain NaN or +inf")
    return C, logP > _LN_FLOOR


@dataclass(frozen=True)
class LPSpec:
    """Equality-form linear program: minimize c.x subject to A x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(_floats(self.c, "c"))
        A = np.atleast_2d(_floats(self.A, "A"))
        b = np.atleast_1d(_floats(self.b, "b"))
        if c.ndim != 1 or b.ndim != 1 or A.ndim != 2:
            raise DimensionMismatch("c and b must be vectors and A a matrix")
        if A.shape != (b.size, c.size):
            raise DimensionMismatch(
                f"A has shape {A.shape}, expected ({b.size}, {c.size})"
            )
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise NonFinite("LP data must be finite")
        for name, value in (("c", c), ("A", A), ("b", b)):
            object.__setattr__(self, name, _freeze(value, name))

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class SolverOutcome:
    """Optimal value of an LP with both optimality witnesses.

    ``u_star``, a primal optimum, is the gradient in ``c``; ``v_star``, a
    dual optimum, in ``b``; ``-outer(v_star, u_star)`` in ``A``.  ``unique``
    says whether the solver certified the primal optimum as the only one:
    a bool or numpy bool, stored as bool, else InvalidInput.
    """

    z_star: float
    u_star: np.ndarray
    v_star: np.ndarray
    unique: bool

    def __post_init__(self):
        object.__setattr__(self, "z_star", float(_arg(self.z_star, "z_star", REAL)))
        # Not _arg: its number rules reject every bool.
        if not isinstance(self.unique, (bool, np.bool_)):
            raise InvalidInput(f"unique must be a bool, got {self.unique!r:.60}")
        object.__setattr__(self, "unique", bool(self.unique))
        for name in ("u_star", "v_star"):
            object.__setattr__(self, name, np.atleast_1d(_freeze(getattr(self, name), name)))


def _check_witnesses(spec: LPSpec, outcome: SolverOutcome) -> None:
    """InvalidInput unless spec is an LPSpec and outcome a SolverOutcome, and
    DimensionMismatch unless the witnesses have the LP's sizes."""
    _arg(spec, "spec", (LPSpec, None, "an LPSpec"))
    _arg(outcome, "outcome", (SolverOutcome, None, "a SolverOutcome"))
    if outcome.u_star.shape != spec.c.shape or outcome.v_star.shape != spec.b.shape:
        raise DimensionMismatch(f"witness shapes {outcome.u_star.shape}, {outcome.v_star.shape} do not fit the LP's")


def strong_duality_gap(spec: LPSpec, outcome: SolverOutcome) -> float:
    """|c.u* - b.v*|, zero at an optimal primal/dual pair."""
    _check_witnesses(spec, outcome)
    return abs(float(spec.c @ outcome.u_star) - float(spec.b @ outcome.v_star))


@dataclass(frozen=True)
class GenGrad:
    """Generalized gradient of z* in the cost block: d_c, a primal optimum,
    as a read-only copy.  It is the whole gradient of a combinatorial solve,
    whose costs alone vary; an LP's b and A blocks are read off its
    SolverOutcome."""

    d_c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d_c", _freeze(self.d_c, "d_c"))

    @classmethod
    def _own(cls, d_c: np.ndarray) -> "GenGrad":
        """A GenGrad that keeps d_c itself, frozen: for a fresh float64 array
        that nothing else holds, which needs no checked copy."""
        d_c.setflags(write=False)
        grad = object.__new__(cls)
        object.__setattr__(grad, "d_c", d_c)
        return grad


@dataclass(frozen=True)
class SupergradReport:
    passed: bool
    worst_violation: float
    trials: int


_RADIUS = 0.5


def _value(y) -> float:
    """A value f returned, as a float: InvalidInput unless it is one real number."""
    y = _floats(y, "f's value")
    if y.size != 1:
        raise InvalidInput(f"f must return one number, got an array of shape {y.shape}")
    return float(y.reshape(()))


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
    (positive = violated).  Each value of f is read as `_floats` reads an
    array and must hold exactly one real number, else InvalidInput; an
    exception raised inside f propagates unchanged.  DimensionMismatch when
    w is empty or g has another shape.  NonFinite when w, g, f(w) or a
    sampled f(w') is not finite, since a NaN violation never counts as
    violated.
    """
    _arg(f, "f", (Callable, None, "a callable"))
    _arg(trials, "trials", WHOLE)
    _arg(tol, "tol", NONNEG)
    w = _floats(w, "w")
    g = _floats(g, "g")
    if w.size == 0:
        raise DimensionMismatch("the point w must have at least one entry")
    if g.shape != w.shape:
        raise DimensionMismatch(f"gradient shape {g.shape} != parameter shape {w.shape}")
    if not (np.isfinite(w).all() and np.isfinite(g).all()):
        raise NonFinite("the point w and the gradient g must be finite")
    if rng is None:
        rng = np.random.default_rng(0)
    fw = _value(f(w))
    if not math.isfinite(fw):
        raise NonFinite(f"f(w) must be finite, got {fw}")
    worst = -np.inf
    for _ in range(trials):
        d = rng.standard_normal(w.shape)
        nrm = float(np.sqrt(np.vdot(d, d)))
        if nrm == 0.0:
            continue
        r = _RADIUS * float(rng.uniform()) ** (1.0 / w.size)
        wp = w + (r / nrm) * d
        fp = _value(f(wp))
        if not math.isfinite(fp):
            raise NonFinite(f"f must be finite near w, got {fp} at a sampled point")
        viol = fp - (fw + float(np.vdot(g, wp - w)))
        if viol > worst:
            worst = viol
    return SupergradReport(passed=bool(worst <= tol), worst_violation=float(worst), trials=trials)
