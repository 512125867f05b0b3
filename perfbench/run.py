"""combgrad benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload {bags-b4|seq-gsa|solve-mix} \
        --seed N --seconds S --trace {0|1}

Run from the root of a source checkout; combgrad is imported from ./src
and nowhere else.  With --trace 0 the run repeats units of work for S
seconds and reports the end-to-end metrics; with --trace 1 it runs a fixed
number of units untraced and then traced, reports per-layer metrics and
writes the spans to perfbench/out/.  End-to-end times are scaled to a
reference machine speed (see speed.py).  Metric names and units come from
BENCHMARK.json.  Human-readable lines come first; the last line of stdout
is the JSON result.  Exit code 2 means combgrad could not be loaded, 3 that
the output checks failed their self-test.
"""

from __future__ import annotations

import os

# Every matrix here is small: one BLAS thread, fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from checks import Tally, self_test
from speed import REFERENCE_S, slowdown
from tracer import Tracer, patch_everywhere, unpatch
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
MIN_LATENCY_SAMPLES = 100


def load_combgrad():
    """Import combgrad from ROOT/src, or exit 2 if it is not there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import combgrad
        import combgrad.alignment
        import combgrad.assignment
        import combgrad.experiments
    except ImportError as exc:
        print(f"perfbench: cannot import combgrad from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(combgrad.__file__).startswith(src + os.sep):
        print(f"perfbench: combgrad was loaded from {combgrad.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return combgrad


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("bags-b4", "seq-gsa", "solve-mix"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(cg, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "backend": cg.get_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_rev": git_rev(),
    }


def setup_seconds(args):
    """Wall time of fresh processes from interpreter start to the end of
    set-up: import, input generation and workload construction.  Returns
    the raw times and the slowdown measured around each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times, slowdowns = [], []
    for _ in range(SETUP_PROBES):
        before = slowdown()
        start = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]) - start)
        slowdowns.append((before + slowdown()) / 2)
    return times, slowdowns


def timed_phase(wl, seconds: float, tally):
    """Repeat units until `seconds` have passed and at least
    MIN_LATENCY_SAMPLES latencies exist.  Returns the units run, the items
    completed, the wall seconds they took, per-operation latencies in
    seconds and the mean slowdown measured before each unit.

    For the training workloads an operation is one optimizer step: the
    caller's wait between consecutive adam_step returns, with the first
    interval starting at the unit's start and the last ending at its end.
    """
    clock = time.perf_counter
    marks = []

    def mark_steps(fn):
        def wrapper(*a, **kw):
            result = fn(*a, **kw)
            marks.append(clock())
            return result

        return wrapper

    undo = patch_everywhere("combgrad.tape", "adam_step", mark_steps) if wl.training else None
    items, wall, latencies, slowdowns = 0, 0.0, [], []
    try:
        t0 = clock()
        k = 0
        while True:
            slowdowns.append(slowdown())
            marks.clear()
            start = clock()
            items += wl.run_unit(k, tally, latencies)
            end = clock()
            wall += end - start
            if wl.training:
                edges = [start, *marks, end]
                latencies += [b - a for a, b in zip(edges, edges[1:])]
            k += 1
            if end - t0 >= seconds and len(latencies) >= MIN_LATENCY_SAMPLES:
                return k, items, wall, latencies, statistics.mean(slowdowns)
    finally:
        if undo:
            unpatch(undo)


def traced_phase(wl, seconds: float, tally, spans_path: str, header: str) -> dict:
    """Run a fixed number of units untraced, then the same units traced.
    The count depends only on `seconds`, so count metrics repeat exactly."""
    units = max(1, int(seconds / (3 * wl.unit_seconds)))
    clock = time.perf_counter
    start = clock()
    for k in range(units):
        wl.run_unit(k, tally, [])
    plain = clock() - start
    tracer = Tracer()
    tracer.install()
    try:
        start = clock()
        for k in range(units):
            wl.run_unit(k, tally, [])
        traced = clock() - start
    finally:
        tracer.uninstall()
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path, header)
    metrics = tracer.metrics()
    metrics["trace.overhead"] = traced / plain
    print(f"trace: {units} units per pass, {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    for name in tracer.missing:
        print(f"trace: missing {name}")
    return metrics


def declared_metrics(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    cg = load_combgrad()
    wl = WORKLOADS[args.workload](cg, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    misjudged = self_test()
    if misjudged:
        print(f"perfbench: output checks misjudged: {', '.join(misjudged)}", file=sys.stderr)
        return 3
    env = environment(cg, args)
    print("env " + json.dumps(env, sort_keys=True))

    tally = Tally()
    if args.trace:
        spans = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.spans.tsv")
        computed = traced_phase(wl, args.seconds, tally, spans, json.dumps(env, sort_keys=True))
    else:
        setups, setup_slowdowns = setup_seconds(args)
        units, items, wall, latencies, slow = timed_phase(wl, args.seconds, tally)
        raw = {
            "setup_s": statistics.median(setups),
            "items_per_s": items / wall,
            "solve_ms_p50": 1e3 * float(np.percentile(latencies, 50)),
            "solve_ms_p90": 1e3 * float(np.percentile(latencies, 90)),
        }
        computed = {
            "setup_s": statistics.median(t / s for t, s in zip(setups, setup_slowdowns)),
            "items_per_s": raw["items_per_s"] * slow,
            "solve_ms_p50": raw["solve_ms_p50"] / slow,
            "solve_ms_p90": raw["solve_ms_p90"] / slow,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        op = "optimizer step" if wl.training else "certified solve plus gradient"
        print(f"samples: {units} units, {len(latencies)} latencies (one per {op}), {SETUP_PROBES} set-ups")
        print(f"speed: slowdown {slow!r} during units, median {statistics.median(setup_slowdowns)!r} "
              f"around set-ups (calibration loop time over {REFERENCE_S * 1e3:g} ms)")
        print("raw: " + ", ".join(f"{k} {v!r}" for k, v in raw.items()))
    computed["fail_rate"] = tally.failed / tally.attempted
    print(f"fail_rate {computed['fail_rate']!r} ratio ({tally.failed} of {tally.attempted} operations)")
    for problem, n in sorted(tally.problems.items()):
        print(f"failure: {problem} x{n}")

    metrics = {}
    for m in declared_metrics(args.trace):
        metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
        if m["name"] != "fail_rate":
            print(f"{m['name']} {computed[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
