#!/usr/bin/env python3
"""Compare the compiled C kernels against the pure-numpy reference.

Runs the assignment and alignment kernels over a ladder of sizes on the
``c`` backend and on ``numpy``, prints a speedup table, and verifies the two
backends produce bitwise-identical results (the C kernels port the
reference statements operation for operation).  The check covers the
single and stacked kernels: the assignment kernels' perm, u, v and
uniqueness certificate, byte for byte, on random costs, on tie-heavy
integer costs and on integer multiples of 0.3e-9, 0.35e-9, 0.45e-9 and
0.6e-9, where slacks land on and just off the tie thresholds and the
lexicographic refinement moves the matching.  It also covers
``solve_assignment`` on tied integer costs, ``gsa_loss`` on stacks of
sequences and ``matching_loss`` on stacks of bags with duplicate labels,
which are the training paths.  Assignment timings include the
lexicographic refinement and the certificate; alignment timings include
the gradient scatter.

Usage: python benchmarks/compare_backends.py [--sizes 8..128] [--repeats 3]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from combgrad import _kernels
from combgrad.alignment import gsa_loss
from combgrad.assignment import matching_loss, solve_assignment


def _time_assignment(size: int, repeats: int, rng: np.random.Generator) -> float:
    i = np.arange(1.0, size + 1.0)
    base = np.outer(i, i) + rng.uniform(0.0, 0.01, size=(size, size))
    k = max(1, 2048 // (size * size) + 1)
    batch = np.repeat(base[None, :, :], k, axis=0)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernels.assignment_kernel_many(batch)
        best = min(best, (time.perf_counter() - t0) / k)
    return best


def _time_gsa(size: int, repeats: int, rng: np.random.Generator) -> float:
    base = rng.uniform(0.1, 2.0, size=(size, size))
    k = max(1, 2048 // (size * size) + 1)
    batch = np.repeat(base[None, :, :], k, axis=0)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, kinds, eis, eks, pos, _ = _kernels.gsa_kernel_many(batch, 1.5)
        _kernels.gsa_grads(kinds, eis, eks, pos, size, size, 1.5)
        best = min(best, (time.perf_counter() - t0) / k)
    return best


def _check_equivalence(rng: np.random.Generator) -> None:
    for _ in range(25):
        b = int(rng.integers(2, 24))
        C = rng.standard_normal((b, b))
        _kernels.set_backend("c")
        aj = _kernels.assignment_kernel(C)
        _kernels.set_backend("numpy")
        ap = _kernels.assignment_kernel(C)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(aj, ap)), "assignment backends disagree"
        k = int(rng.integers(1, 12))
        for scale in (1.0, 0.3e-9, 0.35e-9, 0.45e-9, 0.6e-9):
            Cs = scale * rng.integers(0, 4, size=(k, b, b))  # tied optima, or slacks near the tie thresholds
            _kernels.set_backend("c")
            mj = _kernels.assignment_kernel_many(Cs)
            _kernels.set_backend("numpy")
            mp = _kernels.assignment_kernel_many(Cs)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(mj, mp)), "stacked assignment backends disagree"
        C = rng.integers(0, 3, size=(b, b)).astype(np.float64)  # small integers: tied optima
        _kernels.set_backend("c")
        aj = solve_assignment(C)
        _kernels.set_backend("numpy")
        ap = solve_assignment(C)
        assert (aj.perm, np.float64(aj.z_star).tobytes(), aj.unique) == (
            ap.perm,
            np.float64(ap.z_star).tobytes(),
            ap.unique,
        ), "solve_assignment backends disagree"
        m = rng.uniform(0.05, 3.0, size=(int(rng.integers(1, 10)), int(rng.integers(1, 10))))
        _kernels.set_backend("c")
        rj = _kernels.gsa_kernel(m, 1.5)
        _kernels.set_backend("numpy")
        rp = _kernels.gsa_kernel(m, 1.5)
        assert rj[0] == rp[0] and rj[4:] == rp[4:] and all(np.array_equal(a, b) for a, b in zip(rj[1:4], rp[1:4])), (
            "gsa backends disagree"
        )
        B, Tp, Tt, d = (int(x) for x in rng.integers(1, 12, size=4))
        ms = rng.integers(0, 3, size=(B, Tp, Tt)).astype(np.float64)  # small integers: tied paths
        _kernels.set_backend("c")
        sj = _kernels.gsa_kernel_many(ms, 1.5)
        _kernels.set_backend("numpy")
        sp = _kernels.gsa_kernel_many(ms, 1.5)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(sj, sp)), "stacked gsa backends disagree"
        logits = 4.0 * rng.standard_normal((B, Tp, d + 1))
        logP = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        logP[:, ::3, 0] = -40.0  # entries below the 1e-12 log floor
        Y = np.eye(d + 1)[rng.integers(0, d + 1, size=(B, Tt))]
        _kernels.set_backend("c")
        zj, gj = gsa_loss(logP, Y, 1.5)
        _kernels.set_backend("numpy")
        zp, gp = gsa_loss(logP, Y, 1.5)
        assert zj.tobytes() == zp.tobytes() and gj.tobytes() == gp.tobytes(), "gsa_loss backends disagree"
        # Bags drawing labels from few classes repeat them: tied optima.
        k, b = int(rng.integers(1, 12)), int(rng.integers(1, 17))
        logits = 4.0 * rng.standard_normal((k, b, d + 1))
        logP = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        Y = np.eye(d + 1)[rng.integers(0, min(d + 1, 3), size=(k, b))]
        _kernels.set_backend("c")
        zj, gj = matching_loss(logP, Y)
        _kernels.set_backend("numpy")
        zp, gp = matching_loss(logP, Y)
        assert zj.tobytes() == zp.tobytes() and gj.tobytes() == gp.tobytes(), "matching_loss backends disagree"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="8..128")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args()

    lo, hi = (int(x) for x in args.sizes.split(".."))
    sizes = []
    s = lo
    while s <= hi:
        sizes.append(s)
        s *= 2

    if _kernels.get_backend() != "c":
        print("the C kernel library is not available here; only the numpy backend is.")
        return 1

    rng = np.random.default_rng(args.seed)
    _kernels.warmup()

    print("bitwise equivalence check ... ", end="", flush=True)
    _check_equivalence(rng)
    print("ok")
    print()
    print(f"{'kernel':<12} {'size':>5} {'c (s)':>12} {'numpy (s)':>12} {'speedup':>8}")
    for kernel, timer in (("assignment", _time_assignment), ("gsa", _time_gsa)):
        for size in sizes:
            _kernels.set_backend("c")
            tj = timer(size, args.repeats, np.random.default_rng(args.seed))
            _kernels.set_backend("numpy")
            tp = timer(size, args.repeats, np.random.default_rng(args.seed))
            print(f"{kernel:<12} {size:>5} {tj:>12.3e} {tp:>12.3e} {tp / tj:>7.1f}x")
    _kernels.set_backend("c")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
