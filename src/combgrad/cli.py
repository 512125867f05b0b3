"""Command-line interface: solve instances, check gradients, run the
training experiments, and benchmark solver scaling.

Commands: solve, gradcheck, train, bench.  Global flags: --seed (default
1729), --tol, --out.  All outputs are machine-readable (JSON documents or
CSV); every failure prints a single `error[kind]: message` line on stderr.
Exit codes: 0 ok, 1 check failure, 2 input/config error, 3 solver failure
(infeasible, unbounded or out of simplex pivots), 4 training aborted.

Input schemas (JSON):
  assignment  {"cost": [[...]]}
  gsa         {"match_costs": [[...]], "gamma": x}
              or {"logp": [[...]], "targets": [...], "gamma": x}
  lp          {"c": [...], "A": [[...]], "b": [...]}
A cmd_solve output document can be fed back to cmd_gradcheck: the echoed
problem plus the reported gradient become the candidate under test.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Optional

import numpy as np

from . import _kernels
from .alignment import AlignGrid, build_grid, gsa_grad_matrix, solve_gsa
from .assignment import solve_assignment
from .core import LPSpec, SolverOutcome, supergradient_check
from .errors import (
    CombgradError,
    DegenerateInstance,
    Infeasible,
    IterationLimit,
    TrainAborted,
    Unbounded,
)
from .experiments.bags import BagDatasetSpec, train_bags
from .experiments.common import TrainConfig, write_metrics
from .experiments.seq import SeqTaskSpec, train_seq
from .lpref import check_lp_grads, random_lp, solve_lp
from .tape import save_checkpoint

DEFAULT_SEED = 1729


def _err(kind: str, msg: str) -> None:
    print(f"error[{kind}]: {msg}", file=sys.stderr)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_json(doc: dict, out: Optional[str]) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True), out)


def _load_json(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("input must be a JSON object")
    return doc


def _matrix(doc: dict, key: str) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"missing required key {key!r}")
    return np.asarray(doc[key], dtype=np.float64)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve_assignment_doc(problem: dict) -> dict:
    C = _matrix(problem, "cost")
    res = solve_assignment(C)
    return {
        "kind": "assignment",
        "problem": {"cost": C.tolist()},
        "z_star": res.z_star,
        "perm": list(res.perm),
        "duals_u": res.duals_u.tolist(),
        "duals_v": res.duals_v.tolist(),
        "unique": res.unique,
        "gengrad": {"d_cost": res.M.tolist()},
    }


def _class_indices(targets, d: int) -> np.ndarray:
    # Checked as floats: an integer cast would wrap -1, truncate 0.7 and
    # overflow on -1e308 instead of rejecting them.
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim != 1 or not np.all((t >= 0) & (t < d) & (t == np.floor(t))):
        raise ValueError(f"'targets' must be a flat list of whole numbers in [0, {d})")
    return t.astype(np.int64)


def _gsa_grid(problem: dict) -> AlignGrid:
    gamma = problem.get("gamma")
    if gamma is None:
        raise ValueError("missing required key 'gamma'")
    if "match_costs" in problem:
        return AlignGrid(m=_matrix(problem, "match_costs"), gamma=float(gamma))
    if "logp" in problem:
        logp = _matrix(problem, "logp")
        if logp.ndim != 2 or logp.size == 0:
            raise ValueError(f"'logp' must be a non-empty 2-D array, got shape {logp.shape}")
        Y = np.eye(logp.shape[1])[_class_indices(problem.get("targets"), logp.shape[1])]
        return build_grid(logp, Y, float(gamma))
    raise ValueError("gsa input needs either 'match_costs' or 'logp'+'targets'")


def _solve_gsa_doc(problem: dict) -> dict:
    grid = _gsa_grid(problem)
    res = solve_gsa(grid)
    G = gsa_grad_matrix(grid, res)
    return {
        "kind": "gsa",
        "problem": {"match_costs": grid.m.tolist(), "gamma": grid.gamma},
        "z_star": res.z_star,
        "path": res.step_string(),
        "unique": res.unique,
        "gengrad": {"d_match_costs": G.tolist()},
    }


def _lp_spec(problem: dict) -> LPSpec:
    return LPSpec(
        c=_matrix(problem, "c"),
        A=_matrix(problem, "A"),
        b=_matrix(problem, "b"),
    )


def _solve_lp_doc(problem: dict) -> dict:
    spec = _lp_spec(problem)
    out = solve_lp(spec)
    dA = -np.outer(out.v_star, out.u_star)
    return {
        "kind": "lp",
        "problem": {"c": spec.c.tolist(), "A": spec.A.tolist(), "b": spec.b.tolist()},
        "z_star": out.z_star,
        "u_star": out.u_star.tolist(),
        "v_star": out.v_star.tolist(),
        "unique": out.unique,
        "gengrad": {"d_c": out.u_star.tolist(), "d_b": out.v_star.tolist(), "d_A": dA.tolist()},
    }


def _cmd_solve(args) -> int:
    doc = _load_json(args.input)
    problem = doc.get("problem", doc)
    solvers = {"assignment": _solve_assignment_doc, "gsa": _solve_gsa_doc, "lp": _solve_lp_doc}
    _emit_json(solvers[args.kind](problem), args.out)
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _inflate(g: np.ndarray) -> np.ndarray:
    # Negative control: a perturbation that cannot hide inside tolerances.
    # Nonzero entries are scaled rather than shifted so sparsity patterns
    # survive: an additive shift would densify a sparse dual witness and trip
    # the degeneracy screen instead of the comparison the flag is meant to
    # exercise.
    if not np.any(g):
        return g + 0.1
    return np.where(g != 0.0, 1.25 * g, 0.0)


def _assignment_certificate(C: np.ndarray, res) -> dict:
    slack = C - res.duals_u[:, None] - res.duals_v[None, :]
    matched = slack[np.arange(C.shape[0]), list(res.perm)]
    gap = res.duals_u.sum() + res.duals_v.sum() - res.z_star
    return {
        "dual_feasibility_violation": float(max(0.0, -slack.min())),
        "complementary_slackness_violation": float(np.abs(matched).max()),
        "duality_gap": float(abs(gap)),
    }


def _gradcheck_assignment_instance(problem: dict, candidate, args) -> dict:
    C = _matrix(problem, "cost")
    res = solve_assignment(C)
    g = res.M.ravel() if candidate is None else np.asarray(candidate["d_cost"], dtype=np.float64).ravel()
    if args.perturb_grad:
        g = _inflate(g)

    def f(w: np.ndarray) -> float:
        return solve_assignment(w.reshape(C.shape)).z_star

    rep = supergradient_check(
        f, C.ravel(), g, trials=args.trials, sense="concave", tol=args.tol, seed=args.seed
    )
    cert = _assignment_certificate(C, res)
    cert_ok = max(cert.values()) <= args.tol + 1e-12
    return {
        "kind": "assignment",
        "passed": bool(rep.passed and cert_ok),
        "supergradient": {"worst_violation": rep.worst_violation, "trials": rep.trials},
        "certificate": cert,
    }


def _gradcheck_assignment_suite(args) -> dict:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    cert_worst = 0.0
    for _ in range(args.trials):
        b = int(rng.integers(2, 7))
        C = rng.uniform(-1.0, 1.0, size=(b, b))
        res = solve_assignment(C)

        def f(w: np.ndarray, b=b) -> float:
            return solve_assignment(w.reshape(b, b)).z_star

        g = res.M.ravel()
        if args.perturb_grad:
            g = _inflate(g)
        rep = supergradient_check(
            f, C.ravel(), g, trials=20, sense="concave", tol=args.tol, rng=rng
        )
        worst = max(worst, rep.worst_violation)
        cert_worst = max(cert_worst, max(_assignment_certificate(C, res).values()))
    passed = worst <= args.tol and cert_worst <= args.tol + 1e-12
    return {
        "kind": "assignment",
        "passed": bool(passed),
        "instances": args.trials,
        "worst_violation": worst,
        "worst_certificate_violation": cert_worst,
    }


def _gradcheck_gsa_instance(problem: dict, candidate, args) -> dict:
    grid = _gsa_grid(problem)
    if candidate is None:
        res = solve_gsa(grid)
        G = gsa_grad_matrix(grid, res)
    else:
        G = np.asarray(candidate["d_match_costs"], dtype=np.float64)
    g = G.ravel()
    if args.perturb_grad:
        g = _inflate(g)

    def f(w: np.ndarray) -> float:
        return solve_gsa(AlignGrid(m=w.reshape(grid.m.shape), gamma=grid.gamma)).z_star

    rep = supergradient_check(
        f, grid.m.ravel(), g, trials=args.trials, sense="concave", tol=args.tol, seed=args.seed
    )
    return {
        "kind": "gsa",
        "passed": bool(rep.passed),
        "supergradient": {"worst_violation": rep.worst_violation, "trials": rep.trials},
    }


def _gradcheck_gsa_suite(args) -> dict:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        tp = int(rng.integers(2, 6))
        tt = int(rng.integers(2, 6))
        m = rng.uniform(0.1, 2.0, size=(tp, tt))
        grid = AlignGrid(m=m, gamma=1.5)
        res = solve_gsa(grid)
        g = gsa_grad_matrix(grid, res).ravel()
        if args.perturb_grad:
            g = _inflate(g)

        def f(w: np.ndarray, shape=m.shape) -> float:
            return solve_gsa(AlignGrid(m=w.reshape(shape), gamma=1.5)).z_star

        rep = supergradient_check(f, m.ravel(), g, trials=20, sense="concave", tol=args.tol, rng=rng)
        worst = max(worst, rep.worst_violation)
    return {
        "kind": "gsa",
        "passed": bool(worst <= args.tol),
        "instances": args.trials,
        "worst_violation": worst,
    }


def _lp_block_report(rep) -> dict:
    return {
        "analytic": rep.analytic,
        "numeric": rep.numeric,
        "abs_err": rep.abs_err,
        "rel_err": rep.rel_err,
        "passed": rep.passed,
    }


def _gradcheck_lp_instance(problem: dict, candidate, args) -> dict:
    spec = _lp_spec(problem)
    out = solve_lp(spec)
    if candidate is not None:
        u = np.asarray(candidate["d_c"], dtype=np.float64)
        v = np.asarray(candidate["d_b"], dtype=np.float64)
        out = SolverOutcome(z_star=out.z_star, u_star=u, v_star=v, unique=out.unique)
    if args.perturb_grad:
        out = SolverOutcome(
            z_star=out.z_star,
            u_star=_inflate(out.u_star),
            v_star=_inflate(out.v_star),
            unique=out.unique,
        )
    try:
        chk = check_lp_grads(spec, out, eps=args.eps, seed=args.seed)
    except DegenerateInstance as exc:
        return {"kind": "lp", "passed": True, "degenerate": True, "note": str(exc)}
    return {
        "kind": "lp",
        "passed": bool(chk.passed),
        "degenerate": False,
        "c_block": _lp_block_report(chk.c_block),
        "b_block": _lp_block_report(chk.b_block),
        "A_block": _lp_block_report(chk.A_block),
    }


def _gradcheck_lp_suite(args) -> dict:
    rng = np.random.default_rng(args.seed)
    degenerate = 0
    failed = 0
    for _ in range(args.trials):
        p = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(p, 5) + 1))
        spec = random_lp(rng, p, m)
        try:
            out = solve_lp(spec)
            chk = check_lp_grads(spec, out, eps=args.eps, rng=rng)
        except DegenerateInstance:
            degenerate += 1
            continue
        except (Infeasible, Unbounded):
            degenerate += 1
            continue
        ok = chk.passed
        if args.perturb_grad:
            pert = SolverOutcome(
                z_star=out.z_star,
                u_star=_inflate(out.u_star),
                v_star=_inflate(out.v_star),
                unique=out.unique,
            )
            ok = check_lp_grads(spec, pert, eps=args.eps, rng=rng).passed
        if not ok:
            failed += 1
    return {
        "kind": "lp",
        "passed": bool(failed == 0),
        "instances": args.trials,
        "degenerate_flagged": degenerate,
        "failed": failed,
    }


def _cmd_gradcheck(args) -> int:
    candidate = None
    problem = None
    if args.input:
        doc = _load_json(args.input)
        problem = doc.get("problem", doc)
        candidate = doc.get("gengrad")
    checks = {
        "assignment": (_gradcheck_assignment_instance, _gradcheck_assignment_suite),
        "gsa": (_gradcheck_gsa_instance, _gradcheck_gsa_suite),
        "lp": (_gradcheck_lp_instance, _gradcheck_lp_suite),
    }
    instance, suite = checks[args.kind]
    report = suite(args) if problem is None else instance(problem, candidate, args)
    _emit_json(report, args.out)
    if not report["passed"]:
        _err("check", f"{args.kind} gradient check failed")
        return 1
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    raw = _load_json(args.config)
    dataset_cfg = raw.pop("dataset", None)
    if "seed" not in raw:
        raw["seed"] = args.seed
    config = TrainConfig.from_dict(raw)
    out = args.out or f"{args.task}_metrics.csv"
    ckpt = (out[:-4] if out.endswith(".csv") else out) + ".params.txt"
    if args.task == "bags":
        spec = BagDatasetSpec(**dataset_cfg) if dataset_cfg else BagDatasetSpec(seed=config.seed)
        runner = lambda: train_bags(config, spec)
    else:
        spec = SeqTaskSpec(**dataset_cfg) if dataset_cfg else SeqTaskSpec(seed=config.seed)
        runner = lambda: train_seq(config, spec)
    echo = {
        "task": args.task,
        "config": config.to_dict(),
        "dataset": dict(spec.__dict__),
        "metrics_path": out,
        "checkpoint_path": ckpt,
    }
    print(json.dumps(echo, indent=2, sort_keys=True))
    try:
        rows, store = runner()
    except TrainAborted as exc:
        write_metrics(exc.rows or [], out)
        _err("aborted", str(exc))
        return 4
    write_metrics(rows, out)
    save_checkpoint(store, ckpt)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _parse_sizes(text: str) -> list:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad size range {text!r}")
        sizes = []
        s = lo
        while s <= hi:
            sizes.append(s)
            s *= 2
        return sizes
    sizes = [int(x) for x in text.split(",") if x.strip()]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"bad sizes {text!r}")
    return sizes


def _bench_instance(size: int, family: str, rng: np.random.Generator) -> np.ndarray:
    if family == "hard":
        # Dense product costs: a classic worst-case family for
        # shortest-augmenting-path assignment solvers, so the measured
        # exponent reflects the O(size^3) bound rather than lucky early
        # exits on uniform noise.
        i = np.arange(1.0, size + 1.0)
        return np.outer(i, i)
    return rng.uniform(0.0, 1.0, size=(size, size))


def _cmd_bench(args) -> int:
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError as exc:
        _err("input", str(exc))
        return 2
    cap = 512
    if max(sizes) > cap:
        _err("input", f"sizes above {cap} are not supported")
        return 2
    rng = np.random.default_rng(args.seed)
    _kernels.warmup()
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["kind", "size", "repeat", "seconds"])
    for size in sizes:
        # Amortize timer resolution and call overhead over a batch of
        # identical instances solved by the vectorized kernel; the reported
        # seconds are per solve-plus-gradient.  Batches are sized so every
        # row does about the same work (O(size^3) per assignment, O(size^2)
        # per alignment): a fixed per-call cost spread over fewer instances
        # at larger sizes would otherwise bend the measured exponent.
        if args.kind == "assignment":
            k = min(1024, max(1, 2**18 // size**3))
            base = _bench_instance(size, args.family, rng)
            batch = np.repeat(base[None, :, :], k, axis=0)
            # One untimed pass per size primes caches and branch predictors so
            # the first timed repeat is not inflated at small sizes.
            _kernels.assignment_kernel_many(batch)
            rows_idx = np.arange(size)
            batch_idx = np.arange(k)[:, None]
            for rep in range(args.repeats):
                t0 = time.perf_counter()
                perms, _, _ = _kernels.assignment_kernel_many(batch)
                grads = np.zeros((k, size, size))
                grads[batch_idx, rows_idx[None, :], perms] = 1.0
                dt = (time.perf_counter() - t0) / k
                w.writerow([args.kind, size, rep, "%.9f" % dt])
        else:
            k = max(1, 4096 // (size * size))
            base = rng.uniform(0.1, 2.0, size=(size, size))
            batch = np.repeat(base[None, :, :], k, axis=0)
            _kernels.gsa_kernel_many(batch, 1.5)
            for rep in range(args.repeats):
                t0 = time.perf_counter()
                _, kinds, eis, eks, _, pos, _ = _kernels.gsa_kernel_many(batch, 1.5)
                grads = _kernels.gsa_grads(kinds, eis, eks, pos, size, size, 1.5)
                dt = (time.perf_counter() - t0) / k
                w.writerow([args.kind, size, rep, "%.9f" % dt])
    _emit(buf.getvalue().rstrip("\n"), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="deterministic seed (default %(default)s)")
    common.add_argument("--tol", type=float, default=1e-9, help="check tolerance (default %(default)s)")
    common.add_argument("--out", type=str, default=None, help="write output to this path instead of stdout")

    p = argparse.ArgumentParser(prog="combgrad", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[common], help="solve one instance and print value, witnesses, gradient")
    ps.add_argument("kind", choices=["assignment", "gsa", "lp"])
    ps.add_argument("input", help="path to a JSON instance (see module docstring for schemas)")
    ps.set_defaults(func=_cmd_solve)

    pg = sub.add_parser("gradcheck", parents=[common], help="finite-difference / supergradient verification")
    pg.add_argument("kind", choices=["assignment", "gsa", "lp"])
    pg.add_argument("input", nargs="?", default=None, help="instance or solve-output JSON; omit for a random suite")
    pg.add_argument("--eps", type=float, default=1e-5, help="finite-difference step (default %(default)s)")
    pg.add_argument("--trials", type=int, default=100, help="random trials (default %(default)s)")
    pg.add_argument("--perturb-grad", action="store_true", help="negative control: corrupt the gradient, expect failure")
    pg.set_defaults(func=_cmd_gradcheck)

    pt = sub.add_parser("train", parents=[common], help="run a training experiment from a JSON config")
    pt.add_argument("task", choices=["bags", "seq"])
    pt.add_argument("config", help="path to a JSON TrainConfig (plus optional 'dataset' object)")
    pt.set_defaults(func=_cmd_train)

    pb = sub.add_parser("bench", parents=[common], help="time solve+gradient across instance sizes (CSV)")
    pb.add_argument("kind", choices=["assignment", "gsa"])
    pb.add_argument("--sizes", type=str, default="8..64", help="'a..b' doubling or comma list (default %(default)s)")
    pb.add_argument("--repeats", type=int, default=5, help="rows per size (default %(default)s)")
    pb.add_argument("--family", choices=["hard", "random"], default="hard", help="assignment instance family")
    pb.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        _err("usage", "invalid command line")
        return 2
    try:
        return args.func(args)
    except (Infeasible, Unbounded, IterationLimit) as exc:
        _err("solver", f"{type(exc).__name__.lower()}: {exc}")
        return 3
    except FileNotFoundError as exc:
        _err("input", str(exc))
        return 2
    except json.JSONDecodeError as exc:
        _err("input", f"invalid JSON: {exc}")
        return 2
    except (ValueError, KeyError, TypeError, CombgradError) as exc:
        _err("input", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
