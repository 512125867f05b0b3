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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .core import CombLayer, ChainMaps, Dependence, GenGrad, SolverOutcome, _freeze
from .errors import DimensionMismatch, NonFinite

_LOG_FLOOR = 1e-12

_KIND_NAMES = {1: "match", 2: "skip_target", 3: "skip_pred"}


@dataclass(frozen=True)
class AlignGrid:
    """A ready-to-solve alignment instance: match costs plus the gap factor."""

    m: np.ndarray
    gamma: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DimensionMismatch("match-cost matrix must be 2-D and non-empty")
        if not np.isfinite(m).all():
            raise NonFinite("match costs must be finite")
        if not np.isfinite(self.gamma) or self.gamma <= 1.0:
            raise ValueError("gap factor must be a finite number greater than 1")
        object.__setattr__(self, "m", _freeze(m))
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def pred_len(self) -> int:
        return self.m.shape[0]

    @property
    def target_len(self) -> int:
        return self.m.shape[1]


@dataclass(frozen=True)
class PathEdge:
    """One step of an alignment path.

    kind is 'match', 'skip_target' or 'skip_pred'; (i, k) is the lattice
    node the step leaves from; cost is the step's contribution to the total.
    """

    kind: str
    i: int
    k: int
    cost: float


@dataclass(frozen=True)
class AlignResult:
    """Optimal alignment path with its cost and cost-matrix gradient.

    edge_grad maps (i, k) cells of the match-cost matrix to d z*/d m[i, k]:
    1 per matched visit and gamma per gap charged to that cell.  unique is
    None when path counting was skipped.
    """

    path: tuple
    z_star: float
    edge_grad: dict
    unique: Optional[bool]

    def step_string(self) -> str:
        """The path as one letter per step: D match, P skip-target, T skip-pred."""
        letters = {"match": "D", "skip_target": "P", "skip_pred": "T"}
        return "".join(letters[e.kind] for e in self.path)


def solve_gsa(grid: AlignGrid, *, compute_unique: bool = True) -> AlignResult:
    """Min-cost monotone path from (0, 0) to (Tp, Tt).

    Ties break deterministically: match beats skip-target beats skip-pred.
    compute_unique=False skips the path-count pass (unique=None).
    """
    z, kinds, eis, eks, costs, pos, unique = _kernels.gsa_kernel(grid.m, grid.gamma)
    Tp, Tt = grid.pred_len, grid.target_len
    edges = []
    grad: dict = {}
    for t in range(pos, kinds.shape[0]):
        kind = int(kinds[t])
        i, k = int(eis[t]), int(eks[t])
        edges.append(PathEdge(kind=_KIND_NAMES[kind], i=i, k=k, cost=float(costs[t])))
        if kind == 1:
            cell = (i, k)
            grad[cell] = grad.get(cell, 0.0) + 1.0
        elif kind == 2:
            cell = (min(i, Tp - 1), k)
            grad[cell] = grad.get(cell, 0.0) + grid.gamma
        else:
            cell = (i, min(k, Tt - 1))
            grad[cell] = grad.get(cell, 0.0) + grid.gamma
    return AlignResult(
        path=tuple(edges),
        z_star=float(z),
        edge_grad=grad,
        unique=bool(unique) if compute_unique else None,
    )


def gsa_gengrad(grid: AlignGrid, result: AlignResult, *, gap_gradient: bool = True) -> GenGrad:
    """Gradient of the optimal path cost in the flattened match-cost matrix.

    gap_gradient=False drops the gap contributions, keeping only the
    matched-cell coefficients; the default charges gamma per gap to the
    clamped source cell, which is the exact gradient of the cost actually
    paid.
    """
    G = np.zeros(grid.m.shape)
    for (i, k), g in result.edge_grad.items():
        G[i, k] += g
    if not gap_gradient:
        Gm = np.zeros_like(G)
        for e in result.path:
            if e.kind == "match":
                Gm[e.i, e.k] += 1.0
        G = Gm
    return GenGrad(d_c=G.ravel(), d_b=None, d_A=None)


def gsa_grad_matrix(grid: AlignGrid, result: AlignResult, *, gap_gradient: bool = True) -> np.ndarray:
    """Same as gsa_gengrad but shaped like the match-cost matrix."""
    return gsa_gengrad(grid, result, gap_gradient=gap_gradient).d_c.reshape(grid.m.shape)


def build_grid(logP: np.ndarray, Y: np.ndarray, gamma: float) -> AlignGrid:
    """Match costs from predicted log-probabilities and one-hot targets.

    m[i, k] = -<floor(logP[i]), Y[k]>, the same negative-inner-product score
    the matching loss uses, so a diagonal step is exactly a cross-entropy
    term.
    """
    logP = np.asarray(logP, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if logP.ndim != 2 or Y.ndim != 2 or logP.shape[1] != Y.shape[1]:
        raise DimensionMismatch(
            f"logP (Tp, d) and Y (Tt, d) must share the class dimension, got {logP.shape} and {Y.shape}"
        )
    if not np.isfinite(Y).all():
        raise NonFinite("reference rows must be finite")
    if np.isnan(logP).any() or np.isposinf(logP).any():
        raise NonFinite("log-probabilities must not contain NaN or +inf")
    L = np.maximum(logP, np.log(_LOG_FLOOR))
    return AlignGrid(m=-(L @ Y.T), gamma=gamma)


def gsa_loss(logP: np.ndarray, Y: np.ndarray, gamma: float, *, gap_gradient: bool = True) -> tuple:
    """Alignment loss for sequence prediction without teacher forcing.

    Returns (loss, grad) where loss is the optimal alignment cost of the
    predicted rows against the targets and grad has logP's shape:
    grad[i] = -sum_k G[i, k] * Y[k] for the path's cell coefficients G.
    """
    logP = np.asarray(logP, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    grid = build_grid(logP, Y, gamma)
    res = solve_gsa(grid, compute_unique=False)
    G = gsa_grad_matrix(grid, res, gap_gradient=gap_gradient)
    active = (logP > np.log(_LOG_FLOOR)).astype(np.float64)
    grad = -(G @ Y) * active
    return res.z_star, grad


def gsa_layer(Y: np.ndarray, gamma: float, *, gap_gradient: bool = True) -> CombLayer:
    """Package the alignment loss as a pluggable optimal-value layer.

    w is the flattened logP matrix; only the cost block depends on w.
    """
    Y = np.asarray(Y, dtype=np.float64)

    def build(w: np.ndarray):
        Tp = w.size // Y.shape[1]
        return build_grid(w.reshape(Tp, Y.shape[1]), Y, gamma)

    def solver(grid: AlignGrid) -> SolverOutcome:
        res = solve_gsa(grid, compute_unique=False)
        G = gsa_grad_matrix(grid, res, gap_gradient=gap_gradient)
        return SolverOutcome(z_star=res.z_star, u_star=G.ravel(), v_star=None, unique=res.unique)

    def chains(w: np.ndarray) -> ChainMaps:
        d = Y.shape[1]
        Tp = w.size // d
        logP = w.reshape(Tp, d)
        active = (logP > np.log(_LOG_FLOOR)).astype(np.float64)
        Tt = Y.shape[0]
        J = np.zeros((Tp * Tt, Tp * d))
        for i in range(Tp):
            for k in range(Tt):
                J[i * Tt + k, i * d : (i + 1) * d] = -Y[k] * active[i]
        return ChainMaps(dc_dw=J, db_dw=None, dA_dw=None)

    return CombLayer(
        dependence=Dependence.primal(),
        build=build,
        solver=solver,
        chains=chains,
    )
