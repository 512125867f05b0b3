"""Monotone sequence alignment with optimal-value gradients.

A predicted sequence of length Tp is aligned against a target of length Tt
on the (Tp+1) x (Tt+1) lattice.  A diagonal step matches prediction i to
target k at cost m[i, k]; horizontal and vertical steps skip a target or a
prediction at gamma times the match cost of the source node (indices
clamped to the last valid cell).  The optimal cost is piecewise linear in
the match-cost matrix, and at a unique optimum its gradient is the sparse
edge-count matrix accumulated along the winning path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import _F64_MAX, _arg, _floats, _log_costs
from .errors import DimensionMismatch, NonFinite

# The gap factor's rule for core._arg: a skip costs more than a match.
_GAP = (numbers.Real, lambda g: 1.0 < g <= _F64_MAX, "a finite number greater than 1")


def check_gap_factor(gamma) -> float:
    """gamma as a float; InvalidInput unless it is a finite number greater than 1."""
    return float(_arg(gamma, "gap factor", _GAP))


def check_grids(ms: np.ndarray, gamma) -> float:
    """Validate one (Tp, Tt) grid or a (B, Tp, Tt) stack for the lattice DP.

    Returns gamma as a float.  A path takes Tp + Tt steps, each costing at
    most gamma * max|m| in magnitude, so requiring twice that total to be
    finite keeps every partial path cost, its rounding and the kernel's tie
    tolerance on top of it finite.  Costs that pass elementwise can still
    fail this: a gap on a 1e308 cost overflows.
    """
    if ms.size == 0:
        raise DimensionMismatch("match-cost matrix must be 2-D and non-empty")
    # NaN or inf when any cost is: argmax takes the first NaN as the largest.
    # A C method, it costs less than a max reduction: 0.8 against 1.5 us on
    # an 8x9 grid (2-core Xeon).
    magnitudes = np.abs(ms).ravel()
    top = float(magnitudes[magnitudes.argmax()])
    if not math.isfinite(top):
        raise NonFinite("match costs must be finite")
    gamma = check_gap_factor(gamma)
    Tp, Tt = ms.shape[-2:]
    if top > _F64_MAX / (2.0 * (Tp + Tt) * gamma):
        raise NonFinite(f"match costs up to {top:.3g} with gap factor {gamma} can overflow a path cost on a {Tp}x{Tt} grid")
    return gamma


@dataclass(frozen=True)
class AlignGrid:
    """A ready-to-solve alignment instance: match costs plus the gap factor."""

    m: np.ndarray
    gamma: float

    def __post_init__(self):
        # A C-ordered copy of the caller's costs: the grid owns it, and the
        # kernel reads it without copying again.
        m = np.array(_floats(self.m, "match costs"), order="C")
        if m.ndim != 2:
            raise DimensionMismatch("match-cost matrix must be 2-D and non-empty")
        gamma = check_grids(m, self.gamma)
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "gamma", gamma)

    @property
    def pred_len(self) -> int:
        return self.m.shape[0]

    @property
    def target_len(self) -> int:
        return self.m.shape[1]


@dataclass(frozen=True)
class AlignResult:
    """Optimal alignment path with its cost.

    The path is kept as the kernel's read-only arrays, one entry per step:
    kinds (1 match, 2 skip-target, 3 skip-pred) and cells, the flat index
    into m of the cost the step paid: a match step costs m.flat[cell] and a
    gap step gamma times it.  unique is True when the kernel counted exactly
    one optimal path, so the path's edge counts are the whole gradient; ties
    are counted node by node, as solve_gsa describes.
    """

    z_star: float
    unique: bool
    kinds: np.ndarray
    cells: np.ndarray

    def step_string(self) -> str:
        """The path as one letter per step: D match, P skip-target, T skip-pred."""
        return "".join(" DPT"[kind] for kind in self.kinds.tolist())


def solve_gsa(grid: AlignGrid) -> AlignResult:
    """Min-cost monotone path from (0, 0) to (Tp, Tt).

    Ties break deterministically: match beats skip-target beats skip-pred.
    The same kernel pass counts the optimal paths, so the uniqueness verdict
    costs nothing extra.  Ties count within 1e-9 * (1 + |c|) of each lattice
    node's best cost c: on m = [[0, 1.5e-9, 0], [1.5e-9, 0, 1]], gamma 1.5,
    path DPD (cost 1) is unique though PDD costs 1 + 1.5e-9, as the two
    meet at a node of cost 0, where 1.5e-9 exceeds the tolerance.
    """
    _arg(grid, "grid", (AlignGrid, None, "an AlignGrid"))
    z, kinds, cells, unique = _kernels.gsa_kernel(grid.m, grid.gamma)
    # The kernel's arrays are read-only, and so are their slices.
    start = kinds.size - np.count_nonzero(kinds)
    return AlignResult(z, bool(unique), kinds[start:], cells[start:])


def gsa_grad_matrix(grid: AlignGrid, result: AlignResult) -> np.ndarray:
    """Gradient of the optimal path cost, shaped like the match-cost matrix.

    Each matched cell gets 1 per visit and each gap charges grid.gamma, which
    the result does not record, to the cell it paid: the exact gradient of
    the cost actually paid.  DimensionMismatch unless every step of the
    result is a match, skip-target or skip-pred step, the steps end at
    (Tp, Tt), as a path solved on this grid does, and the cells are one
    integer per step, each a flat index into the grid.  Which cells they
    are is not re-checked.
    """
    _arg(grid, "grid", (AlignGrid, None, "an AlignGrid"))
    _arg(result, "result", (AlignResult, None, "an AlignResult"))
    Tp, Tt = grid.m.shape
    kinds, cells = np.asarray(result.kinds), np.asarray(result.cells)
    try:
        # Steps per kind, 0 to the largest; a negative or non-integer kind raises.
        n = np.bincount(kinds, minlength=4).tolist()
    except (ValueError, TypeError):
        n = []
    if not (len(n) == 4 and n[0] == 0 and n[1] + n[2] == Tt and n[1] + n[3] == Tp):
        raise DimensionMismatch(f"the path does not cross the {Tp}x{Tt} grid from (0, 0) to ({Tp}, {Tt})")
    # np.bincount sizes the gradient by the largest cell, so that is bounded
    # before it runs (by argmax, as in check_grids); a negative cell it
    # rejects itself, with ValueError, before it allocates.  It takes intp
    # cells, not uint64 ones.
    G = None
    if cells.dtype.kind in "iu" and cells.shape == kinds.shape:
        cells = cells.astype(np.intp, copy=False)
        if cells[cells.argmax()] < Tp * Tt:
            try:
                G = _kernels.gsa_grads(kinds, cells, Tp, Tt, grid.gamma)
            except ValueError:
                pass
    if G is None:
        raise DimensionMismatch(f"the path's cells must be one flat index into the {Tp}x{Tt} grid per step")
    G.setflags(write=False)
    return G


def _match_costs(logP: np.ndarray, Y: np.ndarray) -> tuple:
    """The match costs and boolean above-floor mask of core._log_costs, for
    (Tp, d) and (Tt, d) rows or (B, Tp, d) and (B, Tt, d) stacks."""
    if not (logP.ndim == Y.ndim in (2, 3) and logP.shape[:-2] == Y.shape[:-2] and logP.shape[-1] == Y.shape[-1]):
        raise DimensionMismatch(
            "logP (Tp, d) and Y (Tt, d), or stacks (B, Tp, d) and (B, Tt, d), must share"
            f" the class dimension, got {logP.shape} and {Y.shape}"
        )
    return _log_costs(logP, Y)


def build_grid(logP: np.ndarray, Y: np.ndarray, gamma: float) -> AlignGrid:
    """Match costs from predicted log-probabilities and one-hot targets.

    m[i, k] = -<floor(logP[i]), Y[k]>, the same negative-inner-product score
    the matching loss uses, so a diagonal step is exactly a cross-entropy
    term.

    The checks run in gsa_loss's order, with AlignGrid's checks of the grid
    in place of gsa_loss's grid and gradient checks.
    """
    return AlignGrid(m=_match_costs(_floats(logP, "logP"), _floats(Y, "Y"))[0], gamma=gamma)


def gsa_loss(logP: np.ndarray, Y: np.ndarray, gamma: float) -> tuple:
    """Alignment loss for sequence prediction without teacher forcing.

    For one prediction logP (Tp, d) against targets Y (Tt, d), returns
    (loss, grad): the optimal alignment cost as a float, and grad shaped
    like logP with grad[i] = -sum_k G[i, k] * Y[k] for the path's cell
    coefficients G, zero wherever logP is at or below the log floor.  For
    stacks (B, Tp, d) and (B, Tt, d) it returns the (B,) costs and the
    (B, Tp, d) gradients.  Either way one batched kernel call solves every
    grid.

    The first failing check raises, in this order: shapes (DimensionMismatch),
    Y finite, logP free of NaN and +inf (NonFinite), non-empty grids
    (DimensionMismatch), finite costs (NonFinite), the gap factor
    (InvalidInput), then path-cost and gradient overflow (NonFinite).
    """
    logP = _floats(logP, "logP")
    Y = _floats(Y, "Y")
    m, active = _match_costs(logP, Y)
    ms = m if m.ndim == 3 else m[None]
    gamma = check_grids(ms, gamma)
    zs, kinds, cells, _ = _kernels.gsa_kernel_many(ms, gamma)
    Gs = _kernels.gsa_grads(kinds, cells, *ms.shape[1:], gamma)
    # A cell's coefficient sums its path steps, up to (Tp + Tt) * gamma, so
    # finite reference rows near 1e308 can still overflow the gradient.
    with np.errstate(over="ignore", invalid="ignore"):
        grad = -(Gs.reshape(m.shape) @ Y) * active
    if not np.isfinite(grad).all():
        raise NonFinite("reference rows this large overflow the alignment gradient")
    return (zs if m.ndim == 3 else float(zs[0])), grad
