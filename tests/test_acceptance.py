"""Package-level acceptance guarantees, one test (or pair) per guarantee.

Covers: exact agreement of both combinatorial solvers with brute-force
oracles under time budgets, dual-certificate validity on every solve,
central-difference verification of all three LP gradient blocks with
degenerate instances flagged rather than failed, supergradient inequalities
on random instance pairs, finite-difference soundness of every tape
primitive plus the optimal-value node (with a corrupted-gradient negative
control), the two desk-scale learning trends with locked regression values,
bitwise determinism of repeated CLI runs, and the measured cubic scaling of
the assignment solver with a one-solve-per-loss invocation guarantee.
"""

import csv
import inspect
import json
import time

import numpy as np
import pytest

from combgrad import (
    AlignGrid,
    DegenerateInstance,
    check_lp_grads,
    get_backend,
    gsa_grad_matrix,
    gsa_loss,
    invocations,
    matching_loss,
    random_lp,
    reset_invocations,
    solve_assignment,
    solve_gsa,
    solve_lp,
    tape,
)
from combgrad.cli import main as cli_main
from combgrad.experiments import TrainConfig, train_bags, train_seq
from combgrad.experiments.bags import BagDatasetSpec
from combgrad.experiments.seq import SeqTaskSpec
from combgrad.tape import (
    Tensor,
    affine,
    custom_node,
    embed,
    gumbel_softmax_st,
    log_softmax,
    matmul,
    rnn_cell,
    softmax_t,
    tanh,
)

from helpers import central_fd, rel_err, weighted_sum
from oracles import enumerate_path_costs, enumerate_permutations

SEED = 20260819


# ---------------------------------------------------------------------------
# 1-2: assignment solver vs. exhaustive enumeration, with dual certificates
# ---------------------------------------------------------------------------


def test_assignment_matches_enumeration_for_all_small_sizes():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    for b in range(2, 9):
        for _ in range(200):
            C = rng.uniform(-1.0, 1.0, size=(b, b))
            z_solver = solve_assignment(C).z_star
            z_oracle, _ = enumerate_permutations(C)
            assert abs(z_solver - z_oracle) <= 1e-9
    assert time.perf_counter() - t0 < 30.0


def test_every_assignment_solve_carries_valid_dual_certificates():
    rng = np.random.default_rng(SEED + 1)
    for b in range(2, 9):
        for _ in range(200):
            C = rng.uniform(-1.0, 1.0, size=(b, b))
            res = solve_assignment(C)
            slack = C - res.duals_u[:, None] - res.duals_v[None, :]
            assert slack.min() >= -1e-9  # dual feasibility
            matched = slack[np.arange(b), list(res.perm)]
            assert np.abs(matched).max() <= 1e-9  # complementary slackness
            gap = res.duals_u.sum() + res.duals_v.sum() - res.z_star
            assert abs(gap) <= 1e-9  # strong duality


# ---------------------------------------------------------------------------
# 3: alignment DP vs. full path enumeration
# ---------------------------------------------------------------------------


def test_alignment_matches_path_enumeration_up_to_seven_by_seven():
    rng = np.random.default_rng(SEED + 2)
    t0 = time.perf_counter()
    for tp in range(1, 8):
        for tt in range(1, 8):
            for _ in range(200):
                m = rng.uniform(0.1, 2.0, size=(tp, tt))
                z_dp = solve_gsa(AlignGrid(m=m, gamma=1.5)).z_star
                z_oracle = enumerate_path_costs(m, 1.5).min()
                assert abs(z_dp - z_oracle) <= 1e-9
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 4: all three LP gradient blocks verified by central differences
# ---------------------------------------------------------------------------


def test_lp_gradient_blocks_verified_on_random_instances():
    rng = np.random.default_rng(1729)
    degenerate = 0
    checked = 0
    for _ in range(100):
        p = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(p, 5) + 1))
        spec = random_lp(rng, p, m)
        out = solve_lp(spec)
        try:
            chk = check_lp_grads(spec, out, eps=1e-5, rtol=1e-4, rng=rng)
        except DegenerateInstance:
            degenerate += 1  # flagged, never silently failed
            continue
        checked += 1
        assert chk.c_block.passed
        assert chk.b_block.passed
        assert chk.A_block.passed
        assert chk.passed
    assert degenerate + checked == 100
    assert degenerate <= 5  # the sampling scheme is >= 95% nondegenerate


# ---------------------------------------------------------------------------
# 5: supergradient inequalities on random instance pairs
# ---------------------------------------------------------------------------


def test_matching_gradient_is_a_supergradient_on_random_pairs():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(100):
        b = int(rng.integers(2, 8))
        C = rng.uniform(-1.0, 1.0, size=(b, b))
        C2 = rng.uniform(-1.0, 1.0, size=(b, b))
        res = solve_assignment(C)
        z2 = solve_assignment(C2).z_star
        slack = res.z_star + float((res.M * (C2 - C)).sum()) - z2
        assert slack >= -1e-9


def test_alignment_gradient_is_a_supergradient_on_random_pairs():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(100):
        tp = int(rng.integers(1, 7))
        tt = int(rng.integers(1, 7))
        m = rng.uniform(0.1, 2.0, size=(tp, tt))
        m2 = rng.uniform(0.1, 2.0, size=(tp, tt))
        grid = AlignGrid(m=m, gamma=1.5)
        res = solve_gsa(grid)
        G = gsa_grad_matrix(grid, res)
        z2 = solve_gsa(AlignGrid(m=m2, gamma=1.5)).z_star
        slack = res.z_star + float((G * (m2 - m)).sum()) - z2
        assert slack >= -1e-9


# ---------------------------------------------------------------------------
# 6: every tape primitive and the optimal-value node pass FD checks;
#    a corrupted gradient is detected
# ---------------------------------------------------------------------------


def _tape_gradient_and_fd(build, x0, eps=1e-6):
    xt = Tensor(x0.copy())
    build(xt).backward()
    got = xt.grad.copy()
    want = central_fd(lambda x: float(build(Tensor(x)).value), x0, eps=eps)
    return got, want


def _primitive_fd_cases():
    """name -> (x0, build): build(t) is a scalar graph through one primitive
    in which t is the point; a name starts with the primitive's name."""
    rng = np.random.default_rng(SEED + 5)
    A = rng.standard_normal((3, 4))
    B = rng.standard_normal((4, 2))
    R34 = rng.standard_normal((3, 4))
    R32 = rng.standard_normal((3, 2))
    R63 = rng.standard_normal((6, 3))
    ids = np.array([0, 2, 2, 4, 1, 2])  # repeated rows exercise accumulation

    # Two recurrent steps sharing Wx, Wh and a 1-D bias broadcast over the
    # batch; the second step's h is the first step's output.
    cell = {"x": (3, 2), "Wx": (2, 4), "h": (3, 4), "Wh": (4, 4), "b": (4,)}
    cell = {k: rng.standard_normal(shape) for k, shape in cell.items()}
    x2 = rng.standard_normal((3, 2))

    def through_rnn_cell(parent):
        def build(t):
            a = {k: t if k == parent else Tensor(v) for k, v in cell.items()}
            h1 = rnn_cell(a["x"], a["Wx"], a["h"], a["Wh"], a["b"])
            return weighted_sum(rnn_cell(Tensor(x2), a["Wx"], h1, a["Wh"], a["b"]), R34)

        return cell[parent], build

    lin = {"x": A, "W": rng.standard_normal((4, 2)), "b": rng.standard_normal(2)}

    def through_affine(parent):
        def build(t):
            a = {k: t if k == parent else Tensor(v) for k, v in lin.items()}
            return weighted_sum(affine(a["x"], a["W"], a["b"]), R32)

        return lin[parent], build

    return {
        "matmul_left": (rng.standard_normal((3, 4)), lambda t: weighted_sum(matmul(t, Tensor(B)), R32)),
        "matmul_right": (rng.standard_normal((4, 2)), lambda t: weighted_sum(matmul(Tensor(A), t), R32)),
        "tanh": (rng.standard_normal((3, 4)), lambda t: weighted_sum(tanh(t), R34)),
        **{f"affine_{k}": through_affine(k) for k in lin},
        **{f"rnn_cell_{k}": through_rnn_cell(k) for k in cell},
        "log_softmax": (rng.standard_normal((3, 4)), lambda t: weighted_sum(log_softmax(t), R34)),
        "softmax_t": (rng.standard_normal((3, 4)), lambda t: weighted_sum(softmax_t(t, 0.7), R34)),
        "embed": (rng.standard_normal((5, 3)), lambda t: weighted_sum(embed(t, ids), R63)),
    }


def test_every_tape_primitive_passes_central_difference_checks():
    for name, (x0, build) in _primitive_fd_cases().items():
        got, want = _tape_gradient_and_fd(build, x0)
        assert rel_err(got, want) < 1e-5, name


# Primitives whose check cannot be a plain table entry: the sampler's forward
# is piecewise constant, and the optimal-value node needs a solver.
_CHECKED_BY_OWN_TEST = {
    "gumbel_softmax_st": "test_sampled_one_hot_backward_follows_the_tempered_surrogate",
    "custom_node": "test_optimal_value_node_passes_central_difference_checks",
}


def _primitives_without_a_check():
    """Public functions of combgrad.tape that build a Tensor and have no
    central-difference check."""
    names = list(_primitive_fd_cases()) + list(_CHECKED_BY_OWN_TEST)
    missing = []
    for name, fn in vars(tape).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != tape.__name__:
            continue
        builds = inspect.signature(fn).return_annotation in ("Tensor", Tensor) or "Tensor(" in inspect.getsource(fn)
        if builds and not any(key == name or key.startswith(name + "_") for key in names):
            missing.append(name)
    return missing


def test_every_tensor_building_tape_function_has_a_central_difference_check(monkeypatch):
    assert _primitives_without_a_check() == []
    for test_name in _CHECKED_BY_OWN_TEST.values():
        assert callable(globals()[test_name])

    # Negative control: a new primitive without a table entry is reported.
    def squash(a: Tensor) -> Tensor:
        return tanh(a)

    squash.__module__ = tape.__name__
    monkeypatch.setattr(tape, "squash", squash, raising=False)
    assert _primitives_without_a_check() == ["squash"]


def test_sampled_one_hot_backward_follows_the_tempered_surrogate():
    # The forward sample is piecewise constant, so the check differentiates
    # the tempered-softmax surrogate under frozen noise instead.
    rng = np.random.default_rng(SEED + 6)
    x0 = rng.standard_normal((3, 4))
    r = rng.standard_normal((3, 4))
    tau = 1.3

    xt = Tensor(x0.copy())
    weighted_sum(gumbel_softmax_st(xt, tau, np.random.default_rng(77)), r).backward()
    got = xt.grad.copy()

    noise_rng = np.random.default_rng(77)
    u = noise_rng.uniform(low=np.finfo(np.float64).tiny, high=1.0, size=x0.shape)
    noise = -np.log(-np.log(u))

    def surrogate(x):
        z = (x + noise) / tau
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        soft = e / e.sum(axis=1, keepdims=True)
        return float((soft * r).sum())

    assert rel_err(got, central_fd(surrogate, x0, eps=1e-6)) < 1e-5


def test_optimal_value_node_passes_central_difference_checks():
    # The optimal-value node as training builds it: custom_node over the
    # (z*, grad) pair a loss returns from one solve, fed by a log-softmax.
    rng = np.random.default_rng(SEED + 7)
    d = 4
    Y = np.eye(d)[[0, 2, 1]]

    def node(loss):
        def build(t):
            logp = log_softmax(t)
            z, g = loss(logp.value)
            return custom_node([logp], z, [lambda up: up * g])

        return build

    cases = {
        "matching": node(lambda logp: matching_loss(logp, Y)),
        "gsa": node(lambda logp: gsa_loss(logp, Y[:2], 1.5)),  # 3 predictions, 2 targets: a gap
    }
    for name, build in cases.items():
        got, want = _tape_gradient_and_fd(build, rng.standard_normal((3, d)), eps=1e-7)
        assert rel_err(got, want) < 1e-5, name


def test_corrupted_gradient_fails_the_check():
    rng = np.random.default_rng(SEED + 8)
    x0 = rng.standard_normal(5)

    def build(t):
        # vjp deliberately off by 1%: the check must notice.
        return custom_node(
            [t],
            float(np.tanh(t.value).sum()),
            [lambda up: up * (1.0 - np.tanh(t.value) ** 2) * 1.01],
        )

    got, want = _tape_gradient_and_fd(build, x0)
    assert rel_err(got, want) > 1e-5


# ---------------------------------------------------------------------------
# 7: bag-supervision trend at the default dataset scale
# ---------------------------------------------------------------------------


def test_bag_training_trend_against_supervised_baseline():
    ds = BagDatasetSpec()  # 5000 points, 10 features, 10 classes
    configs = {
        1: TrainConfig(loss="mle", bag_size=1),
        4: TrainConfig(loss="matching", bag_size=4),
        16: TrainConfig(loss="matching", bag_size=16),
    }
    accs = {}
    for bag, cfg in configs.items():
        t0 = time.perf_counter()
        rows, _ = train_bags(cfg, ds)
        assert time.perf_counter() - t0 < 300.0
        accs[bag] = rows[-1].metrics[("test", "accuracy")]

    assert accs[4] >= accs[1] - 0.05  # within 5 points of supervised
    assert accs[16] < accs[4] - 0.005  # strictly worse, with a locked floor
    # Locked regression values from the first verified run.
    assert accs[1] == pytest.approx(0.9500, abs=0.02)
    assert accs[4] == pytest.approx(0.9510, abs=0.02)
    assert accs[16] == pytest.approx(0.9340, abs=0.02)


# ---------------------------------------------------------------------------
# 8: alignment-loss sequence training trend at the default dataset scale
# ---------------------------------------------------------------------------


def test_sequence_training_halves_alignment_cost_and_matches_mle():
    ds = SeqTaskSpec()  # noisy-copy task, 2500 sequences
    configs = {
        ("gsa", "softmax"): TrainConfig(loss="gsa", feed="softmax", epochs=20),
        ("gsa", "gumbel_st"): TrainConfig(loss="gsa", feed="gumbel_st", epochs=20),
        ("mle", "softmax"): TrainConfig(loss="mle", epochs=20),
    }
    results = {}
    for key, cfg in configs.items():
        t0 = time.perf_counter()
        rows, _ = train_seq(cfg, ds)
        assert time.perf_counter() - t0 < 600.0
        assert rows[0].epoch == 0  # untrained reference point
        results[key] = (
            rows[0].metrics[("test", "align_cost")],
            rows[-1].metrics[("test", "align_cost")],
            rows[-1].metrics[("test", "exact_match")],
        )

    mle_exact = results[("mle", "softmax")][2]
    for feed in ("softmax", "gumbel_st"):
        start, end, exact = results[("gsa", feed)]
        assert end <= 0.5 * start  # cost at least halved
        assert exact >= mle_exact - 0.02  # within 2 points of the baseline

    # Locked regression values from the first verified run.
    assert results[("gsa", "softmax")][0] == pytest.approx(25.8895, abs=0.05)
    assert results[("gsa", "softmax")][1] == pytest.approx(10.8492, abs=0.25)
    assert results[("gsa", "gumbel_st")][1] == pytest.approx(11.2050, abs=0.25)
    assert results[("mle", "softmax")][1] == pytest.approx(13.1709, abs=0.30)
    assert results[("gsa", "softmax")][2] == pytest.approx(0.0240, abs=0.02)
    assert results[("gsa", "gumbel_st")][2] == pytest.approx(0.0320, abs=0.02)
    assert results[("mle", "softmax")][2] == pytest.approx(0.0120, abs=0.02)


# ---------------------------------------------------------------------------
# 9: repeated CLI runs are identical apart from timing columns
# ---------------------------------------------------------------------------


def test_repeated_cli_runs_are_bitwise_identical_modulo_timing(tmp_path):
    config = {
        "loss": "matching",
        "bag_size": 4,
        "epochs": 2,
        "dataset": {"n": 400, "num_classes": 4, "feature_dim": 5, "separation": 2.0, "seed": 7},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))

    train_rows = []
    for i in (0, 1):
        out = tmp_path / f"metrics{i}.csv"
        assert cli_main(["train", "bags", str(cfg), "--out", str(out)]) == 0
        with open(out) as f:
            train_rows.append(list(csv.reader(f)))
    # epoch, split, metric, value agree bitwise; only seconds may differ.
    assert [r[:4] for r in train_rows[0]] == [r[:4] for r in train_rows[1]]

    inst = tmp_path / "grid.json"
    inst.write_text(json.dumps({"match_costs": [[0.3, 1.2], [0.9, 0.2]], "gamma": 1.5}))
    solve_docs = []
    for i in (0, 1):
        out = tmp_path / f"solved{i}.json"
        assert cli_main(["solve", "gsa", str(inst), "--out", str(out)]) == 0
        solve_docs.append(out.read_text())
    assert solve_docs[0] == solve_docs[1]

    check_docs = []
    for i in (0, 1):
        out = tmp_path / f"check{i}.json"
        assert cli_main(["gradcheck", "assignment", "--trials", "5", "--out", str(out)]) == 0
        check_docs.append(out.read_text())
    assert check_docs[0] == check_docs[1]

    bench_rows = []
    for i in (0, 1):
        out = tmp_path / f"bench{i}.csv"
        assert cli_main(["bench", "assignment", "--sizes", "4,8", "--repeats", "2", "--out", str(out)]) == 0
        with open(out) as f:
            bench_rows.append([r[:3] for r in csv.reader(f)])
    assert bench_rows[0] == bench_rows[1]


# ---------------------------------------------------------------------------
# 10: measured cubic scaling; one solver run per loss evaluation
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    get_backend() == "numpy",
    reason="the numpy mirror's time measures interpreter overhead, not O(b^3) arithmetic",
)
def test_measured_assignment_scaling_exponent_is_cubic(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli_main(["bench", "assignment", "--out", str(out)]) == 0
    with open(out) as f:
        body = list(csv.reader(f))[1:]
    by_size = {}
    for kind, size, rep, seconds in body:
        by_size.setdefault(int(size), []).append(float(seconds))
    sizes = sorted(by_size)
    assert sizes == [8, 16, 32, 64]
    # The minimum over repeats is the robust per-size estimate: timing noise
    # is strictly additive, so the smallest observation is the cleanest.
    floors = [min(by_size[s]) for s in sizes]
    slope = np.polyfit(np.log(sizes), np.log(floors), 1)[0]
    assert 2.5 <= slope <= 3.5


def test_each_loss_evaluation_runs_the_solver_once():
    rng = np.random.default_rng(SEED + 9)
    logits = rng.standard_normal((4, 6))
    logP = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))

    reset_invocations()
    matching_loss(logP, np.eye(6)[rng.integers(0, 6, size=4)])
    assert invocations()["assignment"] == 1

    reset_invocations()
    gsa_loss(logP, np.eye(6)[rng.integers(0, 6, size=3)], 1.5)
    assert invocations()["gsa"] == 1
