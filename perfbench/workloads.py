"""The three benchmark workloads.

Each workload generates its inputs from the seed when it is constructed
(this is the set-up that setup_s measures) and then runs one unit of work
per run_unit(k) call, k counting from 0: a whole training run for the
training workloads, block k of certified solves for solve-mix.  A unit
returns the number of items it completed and records one operation per
check in the tally.
"""

from __future__ import annotations

import time

import numpy as np

from checks import check_alignment, check_assignment, check_training

GAMMA = 1.5


def _raised(exc) -> list:
    return [f"raised {type(exc).__name__}"]


class BagsB4:
    """train_bags, matching loss, bag size 4, acceptance dataset scale.

    An item is a training sample streamed through an epoch.  The untrained
    reference for the accuracy check is the majority-class share of the
    held-out labels, since train_bags logs no epoch-0 row.
    """

    name = "bags-b4"
    training = True
    epochs = 3
    unit_seconds = 1.3

    def __init__(self, cg, seed: int):
        self.cg = cg
        ex = cg.experiments
        self.config = ex.TrainConfig(loss="matching", bag_size=4, epochs=self.epochs, seed=seed)
        self.spec = ex.BagDatasetSpec(num_classes=10, n=5000, seed=seed)
        data = ex.bags.gen_bag_dataset(self.spec)
        self.items = len(data.x_train) * self.epochs
        self.chance = np.bincount(data.y_test).max() / len(data.y_test)

    def run_unit(self, k, tally, latencies) -> int:
        try:
            rows, _ = self.cg.experiments.bags.train_bags(self.config, self.spec)
        except self.cg.errors.CombgradError as exc:
            tally.record(_raised(exc))
            return 0
        tally.record(check_training(rows, ("test", "accuracy"), self.chance, False))
        return self.items


class SeqGsa:
    """train_seq, alignment loss, softmax feed, acceptance task scale.

    An item is a training sequence whose loss was evaluated: every one in
    the forward-only epoch 0 and again in each training epoch.
    """

    name = "seq-gsa"
    training = True
    epochs = 1
    unit_seconds = 1.6

    def __init__(self, cg, seed: int):
        self.cg = cg
        ex = cg.experiments
        self.config = ex.TrainConfig(loss="gsa", feed="softmax", epochs=self.epochs, seed=seed)
        self.spec = ex.SeqTaskSpec(n=2500, seed=seed)
        data = ex.seq.gen_seq_dataset(self.spec)
        self.items = len(data.train) * (self.epochs + 1)

    def run_unit(self, k, tally, latencies) -> int:
        try:
            rows, _ = self.cg.experiments.seq.train_seq(self.config, self.spec)
        except self.cg.errors.CombgradError as exc:
            tally.record(_raised(exc))
            return 0
        key = ("test", "align_cost")
        tally.record(check_training(rows, key, rows[0].metrics[key], True))
        return self.items


# One block of solve-mix: 20 assignments with b log-spaced from 4 to 32 and
# 20 alignment grids with Tp log-spaced from 8 to 64 (8x9 up to 64x66); every
# other instance has small-integer costs.  Spreading the sizes makes the
# latency distribution smooth, so its percentiles move gradually when the
# machine's speed drifts instead of jumping between size classes.
_BLOCK = [
    ("assignment", (b, b), i % 2 == 1)
    for i, b in enumerate(round(4 * 8 ** (i / 19)) for i in range(20))
] + [
    ("alignment", (t, t + 1 + i % 2), i % 2 == 1)
    for i, t in enumerate(round(8 * 8 ** (i / 19)) for i in range(20))
]
_BLOCKS = 64


class SolveMix:
    """Certified single solves plus gradients, as a library user makes them.

    solve_assignment runs with its default uniqueness certificate and
    solve_gsa with its default path count.  Small-integer costs in [0, 3]
    make ties common; the others are uniform in [0, 1).  An item is one
    solve plus its gradient; its latency is timed around exactly that call.
    """

    name = "solve-mix"
    training = False
    unit_seconds = 1.2

    def __init__(self, cg, seed: int):
        self.cg = cg
        self.blocks = []
        for k in range(_BLOCKS):
            rng = np.random.default_rng([seed, k])
            block = []
            for problem, shape, integer in _BLOCK:
                if integer:
                    costs = rng.integers(0, 4, size=shape).astype(np.float64)
                else:
                    costs = rng.uniform(0.0, 1.0, size=shape)
                block.append((problem, costs))
            self.blocks.append([block[i] for i in rng.permutation(len(block))])

    def _solve(self, problem, costs):
        if problem == "assignment":
            res = self.cg.assignment.solve_assignment(costs)
            return res, self.cg.assignment.assignment_gengrad(res).d_c
        grid = self.cg.alignment.AlignGrid(m=costs, gamma=GAMMA)
        res = self.cg.alignment.solve_gsa(grid)
        return res, self.cg.alignment.gsa_grad_matrix(grid, res)

    def run_unit(self, k, tally, latencies) -> int:
        block = self.blocks[k % _BLOCKS]
        clock = time.perf_counter
        done = 0
        for problem, costs in block:
            start = clock()
            try:
                res, grad = self._solve(problem, costs)
            except self.cg.errors.CombgradError as exc:
                tally.record(_raised(exc))
                continue
            latencies.append(clock() - start)
            check = check_assignment if problem == "assignment" else check_alignment
            tally.record(check(costs, res, grad))
            done += 1
        return done


WORKLOADS = {w.name: w for w in (BagsB4, SeqGsa, SolveMix)}
