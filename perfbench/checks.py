"""Output checks for every benchmark operation, and a self-test showing that
corrupted outputs are counted as failures.

Each check returns a list of problems; an empty list means the output is
correct.  A Tally counts one attempted operation per record() and one
failure when the operation raised or any check found a problem.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np

TOL = 1e-9


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = Counter()

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.update(problems)


def check_assignment(C: np.ndarray, res, grad: np.ndarray, tol: float = TOL) -> list:
    """Dual feasibility, complementary slackness and strong duality, all
    within tol scaled by the cost magnitude; the gradient must be the 0/1
    matrix of perm and <grad, C> must equal z*."""
    b = C.shape[0]
    perm = np.asarray(res.perm)
    if perm.shape != (b,) or not np.array_equal(np.sort(perm), np.arange(b)):
        return ["assignment: perm is not a permutation"]
    u = np.asarray(res.duals_u, dtype=np.float64)
    v = np.asarray(res.duals_v, dtype=np.float64)
    scale = max(1.0, float(np.abs(C).max()))
    rows = np.arange(b)
    slack = C - u[:, None] - v[None, :]
    problems = []
    if slack.min() < -tol * scale:
        problems.append("assignment: dual infeasible")
    if np.abs(slack[rows, perm]).max() > tol * scale:
        problems.append("assignment: complementary slackness violated")
    if abs(u.sum() + v.sum() - res.z_star) > tol * scale * b:
        problems.append("assignment: duality gap")
    M = np.zeros((b, b))
    M[rows, perm] = 1.0
    grad = np.asarray(grad, dtype=np.float64)
    if grad.size != b * b or not np.array_equal(grad.reshape(b, b), M):
        problems.append("assignment: gradient is not the matching")
    elif abs(float(np.sum(grad.reshape(b, b) * C)) - res.z_star) > tol * scale * b:
        problems.append("assignment: <M, C> differs from z*")
    return problems


def check_alignment(m: np.ndarray, res, G: np.ndarray, tol: float = TOL) -> list:
    """z* must equal <G, m> within tol relative."""
    G = np.asarray(G, dtype=np.float64)
    if G.shape != m.shape or not np.isfinite(G).all() or not math.isfinite(res.z_star):
        return ["alignment: gradient shape or values invalid"]
    if abs(res.z_star - float(np.sum(G * m))) > tol * max(1.0, abs(res.z_star)):
        return ["alignment: <G, m> differs from z*"]
    return []


def check_training(rows, key, baseline: float, lower_is_better: bool) -> list:
    """Every epoch's loss is finite and the final held-out metric beats the
    baseline: the untrained model's value, or chance where none is logged."""
    if not rows:
        return ["training: no epochs logged"]
    problems = []
    if not all(math.isfinite(r.train_loss) for r in rows):
        problems.append("training: non-finite epoch loss")
    final = rows[-1].metrics[key]
    if not (final < baseline if lower_is_better else final > baseline):
        problems.append(f"training: final {key[1]} {final:.4g} does not beat {baseline:.4g}")
    return problems


def self_test() -> list:
    """Run each check on a correct output and on corrupted copies of it.
    The outputs are built by hand, not by combgrad, so a defect in the
    program shows up as failed operations, never here.  Returns the cases
    the checks misjudged (empty when they all work)."""
    rng = np.random.default_rng(12345)
    b = 6
    rows = np.arange(b)
    perm = rng.permutation(b)
    u = rng.integers(-3, 4, size=b).astype(np.float64)
    v = rng.integers(-3, 4, size=b).astype(np.float64)
    C = u[:, None] + v[None, :] + rng.integers(1, 4, size=(b, b))
    C[rows, perm] = u + v[perm]
    res = SimpleNamespace(perm=tuple(perm), duals_u=u, duals_v=v, z_star=float(C[rows, perm].sum()))
    M = np.zeros((b, b))
    M[rows, perm] = 1.0
    bad_dual = SimpleNamespace(**{**vars(res), "duals_u": u + 0.5 * (rows == 0)})
    bad_grad = M[[1, 0, *range(2, b)]]

    m = rng.uniform(0.5, 2.0, size=(4, 5))
    G = np.eye(4, 5)
    ares = SimpleNamespace(z_star=float(np.sum(G * m)))
    bad_G = G.copy()
    bad_G[0, 1] += 1.0

    key = ("test", "align_cost")
    good_rows = [SimpleNamespace(train_loss=2.0, metrics={key: 5.0}), SimpleNamespace(train_loss=1.0, metrics={key: 3.0})]
    nan_rows = [good_rows[0], SimpleNamespace(train_loss=float("nan"), metrics={key: 3.0})]

    cases = [
        ("correct assignment", False, check_assignment(C, res, M.ravel())),
        ("corrupted dual", True, check_assignment(C, bad_dual, M.ravel())),
        ("corrupted assignment gradient", True, check_assignment(C, res, bad_grad.ravel())),
        ("correct alignment", False, check_alignment(m, ares, G)),
        ("corrupted alignment gradient", True, check_alignment(m, ares, bad_G)),
        ("correct training", False, check_training(good_rows, key, 5.0, True)),
        ("non-finite training loss", True, check_training(nan_rows, key, 5.0, True)),
        ("no training progress", True, check_training(good_rows, key, 2.0, True)),
    ]
    misjudged = []
    for name, corrupted, problems in cases:
        tally = Tally()
        tally.record(problems)
        if tally.failed != int(corrupted):
            misjudged.append(name)
    return misjudged
