"""Brute-force enumeration oracles for the solver tests, second-best
oracles for instances past enumeration size, a scalar count of distinct bag
rows, and the plain numpy loops the sequence corpus and its batches are
checked against.

The solver oracles share no code with the production solvers: the vertex
oracle tries every rank-sized column set of an LP, the assignment oracle
scores every permutation, and the alignment oracle walks every monotone
lattice path.  Each is meant for desk-scale instances only, and each uses
the reference simplex's tolerance for feasibility and tie sets.  The
second-best oracles find the cheapest solution other than a given one:
every other solution leaves it somewhere, so the cheapest way of leaving it
at one place, minimized over the places, is the second-best cost.
"""

import itertools
from functools import lru_cache

import numpy as np

from combgrad import DimensionMismatch, Infeasible, LPSpec, NonFinite
from combgrad.experiments.seq import EOS, SeqDataset, SeqTaskSpec
from combgrad.lpref import _TOL


def enumerate_vertices(spec: LPSpec) -> np.ndarray:
    """All basic feasible solutions, one per row of a (k, p) array, by brute
    force over rank-sized column sets.

    Deduplicates coincident points.  Intended for num_vars <= 10 and
    num_constraints <= 6.  Raises Infeasible when no basic feasible solution
    exists.
    """
    m, p = spec.num_constraints, spec.num_vars
    if p > 10 or m > 6:
        raise DimensionMismatch("vertex enumeration is limited to p <= 10, m <= 6")
    rank = int(np.linalg.matrix_rank(spec.A, tol=_TOL))
    scale = 1.0 + float(np.abs(spec.b).max(initial=0.0))
    found: dict = {}
    for S in itertools.combinations(range(p), rank):
        B = spec.A[:, S]
        if np.linalg.matrix_rank(B, tol=_TOL) < rank:
            continue
        xS, *_ = np.linalg.lstsq(B, spec.b, rcond=None)
        if np.max(np.abs(B @ xS - spec.b)) > _TOL * scale:
            continue
        if np.min(xS, initial=0.0) < -_TOL:
            continue
        x = np.zeros(p)
        x[list(S)] = xS
        x[np.abs(x) <= _TOL] = 0.0
        found.setdefault(tuple(np.round(x, 9)), x)
    if not found:
        raise Infeasible("no basic feasible solution")
    return np.array(list(found.values()))


@lru_cache(maxsize=None)
def _perm_table(b: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(b))), dtype=np.int64)


def enumerate_permutations(C: np.ndarray) -> tuple:
    """Minimum assignment cost and the full argmin set, by enumeration.

    Limited to b <= 8 (8! = 40320 permutations).  Returns (z_min, argmins)
    where argmins is a list of index tuples whose cost is within _TOL of the
    minimum.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DimensionMismatch("cost matrix must be square")
    b = C.shape[0]
    if b > 8:
        raise DimensionMismatch("permutation enumeration is limited to b <= 8")
    if not np.isfinite(C).all():
        raise NonFinite("cost matrix must be finite")
    P = _perm_table(b)
    costs = C[np.arange(b)[None, :], P].sum(axis=1)
    z = float(costs.min())
    argmins = [tuple(int(x) for x in P[i]) for i in np.flatnonzero(costs <= z + _TOL)]
    return z, argmins


def enumerate_paths(m: np.ndarray, gamma: float) -> tuple:
    """The cost and step code of every monotone lattice path, unminimized.

    Steps are D (diagonal match), P (gap advancing the target index) and T
    (gap advancing the predicted index); gap costs are gamma times the match
    cost at the source node with indices clamped to the last valid cell.  A
    code holds a path's steps as base-4 digits, first step most significant:
    1 for D, 2 for P, 3 for T.  Expands, node by node, the costs and codes
    of all paths reaching each lattice point as arrays, so 7x7 grids with
    ~4.9e4 paths stay fast.  Limited to 7x7 grids.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch("match-cost matrix must be 2-D")
    Tp, Tt = m.shape
    if Tp > 7 or Tt > 7:
        raise DimensionMismatch("path enumeration is limited to 7x7 grids")
    if not np.isfinite(m).all():
        raise NonFinite("match costs must be finite")
    gamma = float(gamma)
    costs: list = [[None] * (Tt + 1) for _ in range(Tp + 1)]
    codes: list = [[None] * (Tt + 1) for _ in range(Tp + 1)]
    costs[0][0] = np.zeros(1)
    codes[0][0] = np.zeros(1, dtype=np.int64)
    for i in range(Tp + 1):
        for k in range(Tt + 1):
            if i == 0 and k == 0:
                continue
            parts, steps = [], []
            if i > 0 and k > 0:
                parts.append(costs[i - 1][k - 1] + m[i - 1, k - 1])
                steps.append(4 * codes[i - 1][k - 1] + 1)
            if k > 0:
                parts.append(costs[i][k - 1] + gamma * m[min(i, Tp - 1), k - 1])
                steps.append(4 * codes[i][k - 1] + 2)
            if i > 0:
                parts.append(costs[i - 1][k] + gamma * m[i - 1, min(k, Tt - 1)])
                steps.append(4 * codes[i - 1][k] + 3)
            costs[i][k] = np.concatenate(parts)
            codes[i][k] = np.concatenate(steps)
    return costs[Tp][Tt], codes[Tp][Tt]


def enumerate_path_costs(m: np.ndarray, gamma: float) -> np.ndarray:
    """The cost of every monotone lattice path (see enumerate_paths)."""
    return enumerate_paths(m, gamma)[0]


def step_string(code: int) -> str:
    """The step letters of one enumerate_paths code, first step first."""
    letters = []
    while code:
        code, digit = divmod(int(code), 4)
        letters.append("DPT"[digit - 1])
    return "".join(reversed(letters))


def second_best_matching(C: np.ndarray, perm) -> float:
    """The cost of the cheapest matching other than perm, inf when there is
    none: b scipy re-solves, each with one of perm's edges banned."""
    from scipy.optimize import linear_sum_assignment

    C = np.asarray(C, dtype=np.float64)
    best = np.inf
    for i, j in enumerate(perm):
        banned = C.copy()
        banned[i, j] = np.inf
        try:
            rows, cols = linear_sum_assignment(banned)
        except ValueError:  # b = 1: no matching avoids the edge
            continue
        best = min(best, float(banned[rows, cols].sum()))
    return best


def _lattice_edges_into(m: np.ndarray, gamma: float, i: int, k: int):
    """The edges into lattice node (i, k) as (kind, source node, weight): a
    match (1) from (i - 1, k - 1) pays m[i - 1, k - 1]; a gap along the
    target (2) from (i, k - 1) and one along the prediction (3) from
    (i - 1, k) pay gamma times the match cost at their source node, its
    indices clamped to the last cell."""
    Tp, Tt = m.shape
    if i > 0 and k > 0:
        yield 1, (i - 1, k - 1), m[i - 1, k - 1]
    if k > 0:
        yield 2, (i, k - 1), gamma * m[min(i, Tp - 1), k - 1]
    if i > 0:
        yield 3, (i - 1, k), gamma * m[i - 1, min(k, Tt - 1)]


def second_best_path(m: np.ndarray, gamma: float, kinds) -> tuple:
    """(z*, second): the cheapest lattice path's cost, and the cost of the
    cheapest path other than the one whose step kinds are kinds (1 match,
    2 and 3 gaps; 0 pads the front).

    A forward DP F (cheapest cost from the origin) and a backward DP B
    (cheapest cost to the sink) price the cheapest path through each edge
    as F[source] + weight + B[target]; the second-best cost is the minimum
    over the edges the given path does not take.  F at the sink is z*.
    """
    m = np.asarray(m, dtype=np.float64)
    gamma = float(gamma)
    Tp, Tt = m.shape
    nodes = [(i, k) for i in range(Tp + 1) for k in range(Tt + 1)]
    F = np.full((Tp + 1, Tt + 1), np.inf)
    F[0, 0] = 0.0
    for i, k in nodes:
        for _, src, w in _lattice_edges_into(m, gamma, i, k):
            F[i, k] = min(F[i, k], F[src] + w)
    B = np.full((Tp + 1, Tt + 1), np.inf)
    B[Tp, Tt] = 0.0
    for i, k in reversed(nodes):
        for _, src, w in _lattice_edges_into(m, gamma, i, k):
            B[src] = min(B[src], w + B[i, k])
    taken, i, k = set(), 0, 0
    for kind in (int(x) for x in kinds if x):
        i, k = i + (kind != 2), k + (kind != 3)
        taken.add((kind, i, k))
    second = np.inf
    for i, k in nodes:
        for kind, src, w in _lattice_edges_into(m, gamma, i, k):
            if (kind, i, k) not in taken:
                second = min(second, F[src] + w + B[i, k])
    return float(F[Tp, Tt]), float(second)


def distinct_row_counts(Ys: np.ndarray) -> list:
    """Per bag of a (k, b, d) stack, how many rows equal no earlier row of
    their bag, comparing entries one at a time as Python floats: -0.0 equals
    0.0 and NaN equals nothing."""
    counts = []
    for bag in np.asarray(Ys, dtype=np.float64).tolist():
        counts.append(
            sum(
                not any(all(x == y for x, y in zip(row, earlier)) for earlier in bag[:i])
                for i, row in enumerate(bag)
            )
        )
    return counts


def scalar_seq_dataset(spec: SeqTaskSpec) -> SeqDataset:
    """The noisy-copy corpus drawn by scalar ``Generator`` calls, one per
    length, source and corruption decision: what gen_seq_dataset decodes
    from bulk raw draws."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    lo, hi = 2, spec.vocab
    pairs = []
    for _ in range(spec.n):
        L = int(rng.integers(spec.min_len, spec.max_len + 1))
        src = rng.integers(lo, hi, size=L)
        tgt = []
        for tok in src:
            if rng.random() < spec.p_insert:
                tgt.append(int(rng.integers(lo, hi)))
            if rng.random() >= spec.p_drop:
                tgt.append(int(tok))
        tgt.append(EOS)
        pairs.append((src.astype(np.int64), np.array(tgt, dtype=np.int64)))
    cut = int(round(0.8 * spec.n))
    return SeqDataset(train=pairs[:cut], test=pairs[cut:])


def stacked_batches(pairs: list, batch_size: int, rng: np.random.Generator) -> list:
    """Training batches stacked from the pairs themselves: bucket by
    (source length, target length), shuffle each bucket's example indices,
    stack every batch, then shuffle the batch order."""
    buckets: dict = {}
    for i, (s, t) in enumerate(pairs):
        buckets.setdefault((len(s), len(t)), []).append(i)
    batches = []
    for key in sorted(buckets):
        idx = np.array(buckets[key])
        rng.shuffle(idx)
        for start in range(0, len(idx), batch_size):
            chunk = idx[start : start + batch_size]
            batches.append((np.stack([pairs[i][0] for i in chunk]), np.stack([pairs[i][1] for i in chunk])))
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]
