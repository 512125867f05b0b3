"""Command-line interface: solve instances, check gradients, run the
training experiments, and benchmark solver scaling.

Commands: solve KIND INPUT; gradcheck KIND [INPUT] with --seed, --tol,
--trials, --perturb-grad and (lp only) --eps; train TASK CONFIG with --seed;
bench KIND with --seed, --sizes, --repeats (--seed draws the gsa grids
only: assignment timings use fixed product costs).  Every command takes
--out; --seed defaults to 1729.  gradcheck's --trials counts supergradient
probes on an INPUT instance, and drawn instances (20 probes each) in the
random suite run without INPUT, whose report has kind, passed, instances,
failed, degenerate_flagged, worst_violation (assignment, gsa) and
worst_certificate_violation (assignment).  All outputs are machine-readable
(JSON or CSV); every failure prints one `error[kind]: message` line on stderr.
Exit codes: 0 ok, 1 check failure, 2 input/config error, 3 solver failure
(infeasible, unbounded or out of simplex pivots), 4 training aborted.

Input schemas (JSON):
  assignment  {"cost": [[...]]}
  gsa         {"match_costs": [[...]], "gamma": x}
              or {"logp": [[...]], "targets": [...], "gamma": x}
  lp          {"c": [...], "A": [[...]], "b": [...]}
Numeric fields take JSON numbers only: a boolean, a numeric string or an
integer beyond the float range is an input error.
A cmd_solve output document can be fed back to cmd_gradcheck: the echoed
problem plus the reported gradient (an lp's d_A must be -outer(d_b, d_c)
within --tol) become the candidate under test.  A "problem", "gengrad" or
"dataset" key must hold a JSON object.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, replace
from typing import Optional

import numpy as np

from . import _kernels
from .alignment import AlignGrid, build_grid, gsa_grad_matrix, solve_gsa
from .assignment import solve_assignment
from .core import NONNEG, POSITIVE, WHOLE, LPSpec, _arg, _floats, _one_hot, supergradient_check
from .errors import (
    CombgradError,
    DegenerateInstance,
    DimensionMismatch,
    Infeasible,
    InvalidInput,
    IterationLimit,
    NonFinite,
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
        try:
            doc = json.load(f)
        except RecursionError:
            raise InvalidInput("input nests too deeply to read") from None
    if not isinstance(doc, dict):
        raise ValueError("input must be a JSON object")
    return doc


def _numbers(value, key: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float64 array.

    Every numeric document field is read here.  Only JSON numbers count: a
    boolean or a numeric string is not one, though numpy would convert it;
    core._floats rejects ragged lists and integers too large for a float.
    """
    pending = [value]
    while pending:
        x = pending.pop()
        if isinstance(x, list):
            pending.extend(x)
        elif isinstance(x, bool) or not isinstance(x, (int, float)):
            raise InvalidInput(f"{key!r} must hold only numbers, got {json.dumps(x)[:40]}")
    return _floats(value, repr(key))


def _section(doc: dict, key: str, default):
    """doc[key], which must be a JSON object, or `default` when absent."""
    value = doc.get(key, default)
    if key in doc and not isinstance(value, dict):
        raise InvalidInput(f"{key!r} must be a JSON object")
    return value


def _matrix(doc: dict, key: str) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"missing required key {key!r}")
    return _numbers(doc[key], key)


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


def _target_rows(problem: dict, d: int) -> np.ndarray:
    # Checked as floats: an integer cast would wrap -1, truncate 0.7 and
    # overflow on -1e308 instead of rejecting them.
    t = _matrix(problem, "targets")
    if t.ndim != 1 or not np.all((t >= 0) & (t < d) & (t == np.floor(t))):
        raise ValueError(f"'targets' must be a flat list of whole numbers in [0, {d})")
    return _one_hot(t.astype(np.int64), d)


def _gsa_grid(problem: dict) -> AlignGrid:
    gamma = _matrix(problem, "gamma")
    if gamma.ndim:
        raise InvalidInput("'gamma' must be a single number")
    gamma = float(gamma)
    if "match_costs" in problem:
        return AlignGrid(m=_matrix(problem, "match_costs"), gamma=gamma)
    if "logp" in problem:
        logp = _matrix(problem, "logp")
        if logp.ndim != 2 or logp.size == 0:
            raise ValueError(f"'logp' must be a non-empty 2-D array, got shape {logp.shape}")
        return build_grid(logp, _target_rows(problem, logp.shape[1]), gamma)
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
    with np.errstate(over="ignore"):
        dA = -np.outer(out.v_star, out.u_star)
    if not np.isfinite(dA).all():
        raise NonFinite("the gradient in A, -outer(v*, u*), overflows")
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
    problem = _section(doc, "problem", doc)
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


# Each kind has one check, which tests the candidate gradient (the solver's
# own when `candidate` is None) on one problem, and one draw, which makes a
# random problem document, shaped like a JSON input, for the suite.  Instance
# mode runs the check once; the suite runs it on `--trials` drawn problems,
# all sharing one generator.


def _check_assignment(problem: dict, candidate, args, rng, trials: int) -> dict:
    C = _matrix(problem, "cost")
    res = solve_assignment(C)
    g = res.M.ravel() if candidate is None else _matrix(candidate, "d_cost").ravel()
    g = _inflate(g) if args.perturb_grad else g

    def f(w: np.ndarray) -> float:
        return solve_assignment(w.reshape(C.shape)).z_star

    rep = supergradient_check(f, C.ravel(), g, trials=trials, tol=args.tol, rng=rng)
    cert = _assignment_certificate(C, res)
    return {
        "kind": "assignment",
        "passed": bool(rep.passed and max(cert.values()) <= args.tol + 1e-12),
        "supergradient": {"worst_violation": rep.worst_violation, "trials": rep.trials},
        "certificate": cert,
    }


def _draw_assignment(rng: np.random.Generator) -> dict:
    b = int(rng.integers(2, 7))
    return {"cost": rng.uniform(-1.0, 1.0, size=(b, b)).tolist()}


def _check_gsa(problem: dict, candidate, args, rng, trials: int) -> dict:
    grid = _gsa_grid(problem)
    if candidate is None:
        G = gsa_grad_matrix(grid, solve_gsa(grid))
    else:
        G = _matrix(candidate, "d_match_costs")
    g = _inflate(G.ravel()) if args.perturb_grad else G.ravel()

    def f(w: np.ndarray) -> float:
        return solve_gsa(AlignGrid(m=w.reshape(grid.m.shape), gamma=grid.gamma)).z_star

    rep = supergradient_check(f, grid.m.ravel(), g, trials=trials, tol=args.tol, rng=rng)
    return {
        "kind": "gsa",
        "passed": bool(rep.passed),
        "supergradient": {"worst_violation": rep.worst_violation, "trials": rep.trials},
    }


def _draw_gsa(rng: np.random.Generator) -> dict:
    tp = int(rng.integers(2, 6))
    tt = int(rng.integers(2, 6))
    return {"match_costs": rng.uniform(0.1, 2.0, size=(tp, tt)).tolist(), "gamma": 1.5}


def _d_A_mismatch(candidate: dict, u: np.ndarray, v: np.ndarray, tol: float) -> Optional[str]:
    """Why a reported d_A is not -outer(d_b, d_c) within tol; None when it is."""
    dA = _matrix(candidate, "d_A")
    if dA.shape != (v.size, u.size):
        raise DimensionMismatch(f"'d_A' has shape {dA.shape}, expected ({v.size}, {u.size})")
    with np.errstate(over="ignore", invalid="ignore"):
        gap = float(np.abs(dA + np.outer(v, u)).max(initial=0.0))
    return None if gap <= tol else f"d_A differs from -outer(d_b, d_c) by up to {gap}"  # a NaN gap fails


def _check_lp(problem: dict, candidate, args, rng, trials: int) -> dict:
    # Central differences along one random direction per block; `trials`
    # has no role here.  A report whose d_A is not -outer(d_b, d_c) fails,
    # with a note that says so in place of any degeneracy note.
    spec = _lp_spec(problem)
    out = solve_lp(spec)
    u, v = out.u_star, out.v_star
    mismatch = None
    if candidate is not None:
        u = _matrix(candidate, "d_c")
        v = _matrix(candidate, "d_b")
        if "d_A" in candidate:
            mismatch = _d_A_mismatch(candidate, u, v, args.tol)
    if args.perturb_grad:
        u, v = _inflate(u), _inflate(v)
    try:
        chk = check_lp_grads(spec, replace(out, u_star=u, v_star=v), eps=args.eps, rng=rng)
        report = {"kind": "lp", "passed": bool(chk.passed), "degenerate": False, **asdict(chk)}
    except DegenerateInstance as exc:
        report = {"kind": "lp", "passed": True, "degenerate": True, "note": str(exc)}
    if mismatch:
        report.update(passed=False, note=mismatch)
    return report


def _draw_lp(rng: np.random.Generator) -> dict:
    p = int(rng.integers(2, 9))
    m = int(rng.integers(1, min(p, 5) + 1))
    spec = random_lp(rng, p, m)
    return {"c": spec.c.tolist(), "A": spec.A.tolist(), "b": spec.b.tolist()}


_GRADCHECKS = {
    "assignment": (_check_assignment, _draw_assignment),
    "gsa": (_check_gsa, _draw_gsa),
    "lp": (_check_lp, _draw_lp),
}


def _gradcheck_suite(args, check, draw) -> dict:
    rng = np.random.default_rng(args.seed)
    reports = []
    for _ in range(args.trials):
        problem = draw(rng)
        try:
            reports.append(check(problem, None, args, rng, 20))
        except (Infeasible, Unbounded):
            # A drawn LP the simplex cannot solve has no gradient to check.
            reports.append({"passed": True, "degenerate": True})
    failed = sum(not r["passed"] for r in reports)
    doc = {
        "kind": args.kind,
        "passed": failed == 0,
        "instances": args.trials,
        "failed": failed,
        "degenerate_flagged": sum(r.get("degenerate", False) for r in reports),
    }
    probes = [r["supergradient"]["worst_violation"] for r in reports if "supergradient" in r]
    if probes:
        doc["worst_violation"] = max([0.0] + probes)
    certs = [max(r["certificate"].values()) for r in reports if "certificate" in r]
    if certs:
        doc["worst_certificate_violation"] = max([0.0] + certs)
    return doc


def _cmd_gradcheck(args) -> int:
    check, draw = _GRADCHECKS[args.kind]
    if args.input:
        doc = _load_json(args.input)
        rng = np.random.default_rng(args.seed)
        report = check(_section(doc, "problem", doc), _section(doc, "gengrad", None), args, rng, args.trials)
    else:
        report = _gradcheck_suite(args, check, draw)
    _emit_json(report, args.out)
    if not report["passed"]:
        _err("check", f"{args.kind} gradient check failed")
        return 1
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


_TRAINERS = {"bags": (BagDatasetSpec, train_bags), "seq": (SeqTaskSpec, train_seq)}


def _cmd_train(args) -> int:
    raw = _load_json(args.config)
    dataset_cfg = _section(raw, "dataset", {})
    config = TrainConfig.from_dict({"seed": args.seed, **{k: v for k, v in raw.items() if k != "dataset"}})
    out = args.out or f"{args.task}_metrics.csv"
    ckpt = (out[:-4] if out.endswith(".csv") else out) + ".params.txt"
    spec_cls, trainer = _TRAINERS[args.task]
    # The data follows the run's seed unless the dataset override names one.
    spec = spec_cls(**{"seed": config.seed, **dataset_cfg})
    # Fail now, not after training, when the metrics or the checkpoint file
    # cannot be written; a file this check creates is removed again.
    for path in (out, ckpt):
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)
    echo = {
        "task": args.task,
        "config": config.to_dict(),
        "dataset": dict(spec.__dict__),
        "metrics_path": out,
        "checkpoint_path": ckpt,
    }
    print(json.dumps(echo, indent=2, sort_keys=True))
    # A diverging run overflows on its way to backward()'s check of the
    # loss, which aborts it; that abort is the run's one line on stderr.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            rows, store = trainer(config, spec)
    except TrainAborted as exc:
        write_metrics(exc.rows, out)
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
        sizes = [lo << i for i in range((hi // lo).bit_length())]
    else:
        sizes = [int(x) for x in text.split(",") if x.strip()]
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"bad sizes {text!r}")
    if max(sizes) > 512:
        raise ValueError("sizes above 512 are not supported")
    return sizes


# Each kind supplies, for one size, its batch size, its base instance and its
# solve-plus-gradient call on the batch.  Batches are sized so every row does
# about the same work (O(size^3) per assignment, O(size^2) per alignment): a
# fixed per-call cost spread over fewer instances at larger sizes would
# otherwise bend the measured exponent.


def _bench_assignment(size: int) -> tuple:
    k = min(1024, max(1, 2**18 // size**3))
    # Dense product costs: a classic worst-case family for
    # shortest-augmenting-path assignment solvers, so the measured exponent
    # reflects the O(size^3) bound rather than lucky early exits on uniform
    # noise.
    i = np.arange(1.0, size + 1.0)
    base = np.outer(i, i)
    rows_idx = np.arange(size)[None, :]
    batch_idx = np.arange(k)[:, None]

    def solve_grad(batch: np.ndarray) -> None:
        perms = _kernels.assignment_kernel_many(batch)[0]
        grads = np.zeros((k, size, size))
        grads[batch_idx, rows_idx, perms] = 1.0

    return k, base, solve_grad


def _bench_gsa(size: int, rng: np.random.Generator) -> tuple:
    def solve_grad(batch: np.ndarray) -> None:
        _, kinds, cells, _ = _kernels.gsa_kernel_many(batch, 1.5)
        _kernels.gsa_grads(kinds, cells, size, size, 1.5)

    return max(1, 4096 // (size * size)), rng.uniform(0.1, 2.0, size=(size, size)), solve_grad


def _cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    rng = np.random.default_rng(args.seed)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["kind", "size", "repeat", "seconds"])
    for size in sizes:
        # Amortize timer resolution and call overhead over a batch of
        # identical instances solved by the vectorized kernel; the reported
        # seconds are per solve-plus-gradient.  One untimed pass per size
        # builds the C module on first use and primes caches and branch
        # predictors, so the first timed repeat is not inflated.
        k, base, solve_grad = _bench_gsa(size, rng) if args.kind == "gsa" else _bench_assignment(size)
        batch = np.repeat(base[None, :, :], k, axis=0)
        solve_grad(batch)
        for rep in range(args.repeats):
            t0 = time.perf_counter()
            solve_grad(batch)
            dt = (time.perf_counter() - t0) / k
            w.writerow([args.kind, size, rep, "%.9f" % dt])
    _emit(buf.getvalue().rstrip("\n"), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _bounded(cast, rule: tuple):
    """An argparse type: `cast` the text, then check it by a core._arg rule,
    so a flag is rejected in the words of the keyword it feeds."""

    def parse(text: str):
        try:
            return _arg(cast(text), "value", rule)
        except ValueError:  # the cast's, or _arg's InvalidInput
            raise argparse.ArgumentTypeError(f"expected {rule[2]}, got {text!r}") from None

    return parse


_COUNT = _bounded(int, WHOLE)
_TOL = _bounded(float, NONNEG)
_STEP = _bounded(float, POSITIVE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # One protocol line instead of argparse's usage text.
        _err("usage", f"invalid command line: {message}")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="write output to this path instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED, help="deterministic seed (default %(default)s)")

    p = _Parser(prog="combgrad", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[out], help="solve one instance and print value, witnesses, gradient")
    ps.add_argument("kind", choices=["assignment", "gsa", "lp"])
    ps.add_argument("input", help="path to a JSON instance (see module docstring for schemas)")
    ps.set_defaults(func=_cmd_solve)

    pg = sub.add_parser("gradcheck", parents=[seeded], help="finite-difference / supergradient verification")
    pg.add_argument("kind", choices=["assignment", "gsa", "lp"])
    pg.add_argument("input", nargs="?", default=None, help="instance or solve-output JSON; omit for a random suite")
    pg.add_argument("--tol", type=_TOL, default=1e-9, help="check tolerance (default %(default)s)")
    pg.add_argument("--eps", type=_STEP, default=1e-5, help="lp only: finite-difference step (default %(default)s)")
    pg.add_argument(
        "--trials",
        type=_COUNT,
        default=100,
        help="supergradient probes on one instance, or drawn instances (20 probes each) in the suite (default %(default)s)",
    )
    pg.add_argument("--perturb-grad", action="store_true", help="negative control: corrupt the gradient, expect failure")
    pg.set_defaults(func=_cmd_gradcheck)

    pt = sub.add_parser("train", parents=[seeded], help="run a training experiment from a JSON config")
    pt.add_argument("task", choices=list(_TRAINERS))
    pt.add_argument("config", help="path to a JSON TrainConfig (plus optional 'dataset' object)")
    pt.set_defaults(func=_cmd_train)

    bench_help = "time solve+gradient across instance sizes (CSV); --seed draws the gsa grids only"
    pb = sub.add_parser("bench", parents=[seeded], help=bench_help, description=bench_help)
    pb.add_argument("kind", choices=["assignment", "gsa"])
    pb.add_argument("--sizes", type=str, default="8..64", help="'a..b' doubling or comma list (default %(default)s)")
    pb.add_argument("--repeats", type=_COUNT, default=5, help="rows per size (default %(default)s)")
    pb.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (Infeasible, Unbounded, IterationLimit) as exc:
        _err("solver", f"{type(exc).__name__.lower()}: {exc}")
        return 3
    except OSError as exc:  # a missing file, a directory, no permission
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
