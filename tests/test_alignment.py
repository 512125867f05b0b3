"""Monotone alignment: lattice solver, tie policy, gradients, and the loss."""

import re
import warnings

import numpy as np
import pytest

from combgrad import (
    AlignGrid,
    AlignResult,
    DimensionMismatch,
    NonFinite,
    build_grid,
    gsa_grad_matrix,
    gsa_loss,
    invocations,
    matching_loss,
    reset_invocations,
    solve_gsa,
    supergradient_check,
)
from combgrad import _kernels
from combgrad._kernels import _gsa_many_c, _gsa_many_py, _gsa_py

from oracles import enumerate_path_costs, enumerate_paths, second_best_path, step_string

# AlignResult.kinds codes for a diagonal, a target-skipping and a
# prediction-skipping step.
MATCH, SKIP_TARGET, SKIP_PRED = 1, 2, 3

def random_grid(rng, max_side=7):
    Tp = int(rng.integers(1, max_side + 1))
    Tt = int(rng.integers(1, max_side + 1))
    return AlignGrid(m=rng.uniform(0.1, 2.0, size=(Tp, Tt)), gamma=1.5)


def _step_costs(grid, res):
    """Each step's cost, read off the grid: a match pays the cell it names,
    a gap gamma times it."""
    m = grid.m.ravel()
    return [m[c] if kind == MATCH else grid.gamma * m[c] for kind, c in zip(res.kinds.tolist(), res.cells.tolist())]


def _walk(res):
    """Each step's kind and source node, found by walking the path from (0, 0)."""
    i = k = 0
    for kind in res.kinds.tolist():
        yield kind, i, k
        i, k = i + (kind != SKIP_TARGET), k + (kind != SKIP_PRED)


class TestFrozenInstances:
    def test_two_by_two_diagonal_path(self):
        grid = AlignGrid(m=np.array([[1.0, 5.0], [5.0, 1.0]]), gamma=1.5)
        res = solve_gsa(grid)
        assert res.step_string() == "DD"
        assert res.z_star == 2.0
        assert res.unique is True
        assert gsa_grad_matrix(grid, res).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_all_zero_costs_prefer_diagonal(self):
        grid = AlignGrid(m=np.zeros((2, 2)), gamma=1.5)
        res = solve_gsa(grid)
        assert res.step_string() == "DD"
        assert res.z_star == 0.0
        assert res.unique is False

    def test_single_row_tie_prefers_late_diagonal(self):
        # On a 1x2 grid of equal costs the final-step diagonal preference
        # makes the skip-then-match path win the tie.
        grid = AlignGrid(m=np.array([[1.0, 1.0]]), gamma=1.5)
        res = solve_gsa(grid)
        assert res.step_string() == "PD"
        assert res.z_star == pytest.approx(2.5)
        assert res.unique is False

    @pytest.mark.parametrize(
        "m, path, cells, z",
        [([[1.0, 5.0, 2.0]], "PDP", [0, 1, 2], 9.5), ([[1.0, 5.0, 2.0], [5.0, 1.0, 9.0]], "DPD", [0, 4, 5], 11.5)],
    )
    def test_cells_are_the_costs_paid(self, m, path, cells, z):
        # A gap out of the last row or column pays the clamped cell: the
        # final P of "PDP" starts at node (1, 2) and pays m[0, 2].
        res = solve_gsa(AlignGrid(m=np.array(m), gamma=1.5))
        assert res.step_string() == path
        assert res.cells.tolist() == cells
        assert res.z_star == z

    def test_path_arrays_are_read_only(self):
        grid = AlignGrid(m=np.array([[1.0, 5.0, 2.0], [5.0, 1.0, 9.0]]), gamma=1.5)
        res = solve_gsa(grid)
        for a in (res.kinds, res.cells):
            assert a.shape == (len(res.step_string()),)
            with pytest.raises(ValueError):
                a[0] = 0
        assert sum(_step_costs(grid, res)) == res.z_star

    def test_path_edges_sum_to_value(self):
        # Summed in path order, the step costs repeat the kernel's additions.
        rng = np.random.default_rng(8)
        grids = [AlignGrid(m=np.array([[1.0, 5.0, 2.0], [5.0, 1.0, 9.0]]), gamma=1.5)]
        grids += [AlignGrid(m=rng.uniform(0.1, 2.0, size=rng.integers(1, 7, size=2)), gamma=1.7) for _ in range(30)]
        for grid in grids:
            res = solve_gsa(grid)
            assert sum(_step_costs(grid, res)) == res.z_star, grid.m

    def test_path_is_monotone_and_complete(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            grid = random_grid(rng)
            res = solve_gsa(grid)
            Tp, Tt = grid.m.shape
            # Each step pays the cell at its source node, clamped to the grid.
            sources = [min(i, Tp - 1) * Tt + min(k, Tt - 1) for _, i, k in _walk(res)]
            assert res.cells.tolist() == sources
            n = np.bincount(res.kinds, minlength=4)
            assert (n[MATCH] + n[SKIP_PRED], n[MATCH] + n[SKIP_TARGET]) == (Tp, Tt)


class TestOracleAgreement:
    def test_matches_enumeration_on_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            grid = random_grid(rng, max_side=5)
            res = solve_gsa(grid)
            costs = enumerate_path_costs(grid.m, grid.gamma)
            zmin = float(costs.min())
            assert abs(res.z_star - zmin) <= 1e-9
            n_opt = int(np.sum(costs <= zmin + 1e-9))
            assert res.unique == (n_opt == 1)

    def test_z_and_unique_agree_with_the_second_best_path(self, backend):
        # Past enumeration size: z* is the forward DP's, and unique says every
        # other path costs more than z* + tol * (1 + |z*|).  Integer costs in
        # 0..side/2 tie on about half the grids at every size, so both
        # verdicts are checked everywhere.
        rng = np.random.default_rng(97)
        for Tp, Tt, n in [(16, 17, 12), (24, 24, 10), (32, 33, 8), (48, 50, 6), (64, 66, 5)]:
            ms = rng.integers(0, Tp // 2 + 1, size=(n, Tp, Tt)).astype(np.float64)
            zs, kinds, _, unique = _kernels.gsa_kernel_many(ms, 1.5)
            for m, z, path, verdict in zip(ms, zs, kinds, unique):
                z_star, second = second_best_path(m, 1.5, path)
                assert abs(z - z_star) <= 1e-9 * (1.0 + abs(z_star)), (Tp, Tt)
                assert verdict == (second > z_star + 1e-9 * (1.0 + abs(z_star))), (Tp, Tt)
            assert 0.2 <= 1.0 - unique.mean() <= 0.8, (Tp, Tt)

    def test_a_path_exactly_tol_dearer_is_a_tie(self, backend):
        # The optimum DPD and the runner-up PDD meet at node (1, 2), whose
        # best cost is 0, where PDD arrives one unit dearer.  Ties are
        # decided where paths meet: a unit of tol = 1e-9 is within
        # tol * (1 + 0) of 0, so the optimum is tied; 1.5e-9 is not.
        for unit, unique in ((1e-9, False), (1.5e-9, True)):
            res = solve_gsa(AlignGrid(m=np.array([[0.0, unit, 0.0], [unit, 0.0, 1.0]]), gamma=1.5))
            assert res.step_string() == "DPD"
            assert res.unique == unique

    def test_enumeration_counts_all_lattice_paths(self):
        # Path counts over an (n, n) grid: 3, 13, ..., 48639 for n = 7.
        for n, count in [(1, 3), (2, 13), (3, 63), (7, 48639)]:
            costs = enumerate_path_costs(np.ones((n, n)), 1.5)
            assert costs.size == count

    def test_string_enumeration_agrees_with_cost_multiset(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            grid = random_grid(rng, max_side=4)
            costs, codes = enumerate_paths(grid.m, grid.gamma)
            winners = {step_string(code) for code in codes[costs <= costs.min() + 1e-9]}
            res = solve_gsa(grid)
            assert res.step_string() in winners

    def test_each_enumerated_cost_rescores_its_steps(self):
        # Walk every returned step sequence on the grid, with gap costs read
        # at the source node clamped to the last cell, as the kernel does.
        rng = np.random.default_rng(13)
        for _ in range(8):
            grid = random_grid(rng, max_side=4)
            m, (Tp, Tt) = grid.m, grid.m.shape
            costs, codes = enumerate_paths(m, grid.gamma)
            assert len(set(codes.tolist())) == codes.size
            for cost, code in zip(costs, codes):
                i = k = 0
                total = 0.0
                for step in step_string(code):
                    if step == "D":
                        total += m[i, k]
                        i, k = i + 1, k + 1
                    elif step == "P":
                        total += grid.gamma * m[min(i, Tp - 1), k]
                        k += 1
                    else:
                        total += grid.gamma * m[i, min(k, Tt - 1)]
                        i += 1
                assert (i, k) == (Tp, Tt)
                assert total == cost


class TestGradients:
    def test_inner_product_identity(self):
        # The edge-count gradient reproduces the objective exactly:
        # <G, m> equals z* because every edge charges a cost cell linearly.
        rng = np.random.default_rng(11)
        for _ in range(40):
            grid = random_grid(rng)
            res = solve_gsa(grid)
            G = gsa_grad_matrix(grid, res)
            assert float((G * grid.m).sum()) == pytest.approx(res.z_star, abs=1e-9)

    def test_value_is_locally_linear_at_unique_optimum(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 20:
            grid = random_grid(rng, max_side=5)
            res = solve_gsa(grid)
            if not res.unique:
                continue
            D = rng.standard_normal(grid.m.shape)
            eps = 1e-7
            hi = solve_gsa(AlignGrid(grid.m + eps * D, grid.gamma)).z_star
            lo = solve_gsa(AlignGrid(grid.m - eps * D, grid.gamma)).z_star
            G = gsa_grad_matrix(grid, res)
            assert abs((hi - lo) / (2 * eps) - float((G * D).sum())) <= 1e-5
            done += 1

    def test_supergradient_inequality(self):
        rng = np.random.default_rng(17)
        grid = random_grid(rng)
        res = solve_gsa(grid)
        G = gsa_grad_matrix(grid, res)

        def f(mflat):
            return solve_gsa(AlignGrid(mflat.reshape(grid.m.shape), grid.gamma)).z_star

        rep = supergradient_check(f, grid.m.ravel(), G.ravel(), trials=100)
        assert rep.passed

    def test_gap_contributions_can_be_dropped(self):
        # Force gaps with a rectangular grid.  G charges 1 per match and gamma
        # per gap; dropping the gaps' gamma from their clamped source cells
        # leaves the 0/1 matrix of matched cells.
        grid = AlignGrid(m=np.array([[1.0, 5.0, 2.0]]), gamma=1.5)
        res = solve_gsa(grid)
        G_full = gsa_grad_matrix(grid, res)
        G_diag = G_full.copy()
        for kind, cell in zip(res.kinds.tolist(), res.cells.tolist()):
            if kind != MATCH:
                G_diag.flat[cell] -= grid.gamma
        n_matches = int(np.count_nonzero(res.kinds == MATCH))
        n_gaps = res.kinds.size - n_matches
        assert n_gaps > 0
        assert float(G_full.sum()) == pytest.approx(n_matches + grid.gamma * n_gaps, abs=1e-12)
        assert set(np.unique(G_diag)).issubset({0.0, 1.0})
        assert float(G_diag.sum()) == n_matches

    def test_transpose_symmetry_at_unique_optima(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 20:
            grid = random_grid(rng, max_side=5)
            res = solve_gsa(grid)
            if not res.unique:
                continue
            grid_t = AlignGrid(m=grid.m.T.copy(), gamma=grid.gamma)
            res_t = solve_gsa(grid_t)
            assert res_t.z_star == pytest.approx(res.z_star, abs=1e-12)
            assert np.allclose(gsa_grad_matrix(grid_t, res_t), gsa_grad_matrix(grid, res).T)
            done += 1

    def test_gapless_value_ignores_gap_factor(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 10:
            n = int(rng.integers(1, 6))
            m = rng.uniform(0.1, 1.0, size=(n, n))
            res15 = solve_gsa(AlignGrid(m, 1.5))
            if set(res15.step_string()) != {"D"}:
                continue
            res2 = solve_gsa(AlignGrid(m, 2.0))
            assert res2.z_star == pytest.approx(res15.z_star, abs=1e-12)
            assert res2.step_string() == res15.step_string()
            done += 1


class TestValidation:
    def test_gap_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            AlignGrid(m=np.ones((2, 2)), gamma=1.0)
        with pytest.raises(ValueError):
            AlignGrid(m=np.ones((2, 2)), gamma=np.inf)

    def test_empty_or_flat_costs_rejected(self):
        with pytest.raises(DimensionMismatch):
            AlignGrid(m=np.ones(3), gamma=1.5)
        with pytest.raises(DimensionMismatch):
            AlignGrid(m=np.ones((0, 2)), gamma=1.5)

    def test_non_finite_costs_rejected(self):
        with pytest.raises(NonFinite):
            AlignGrid(m=np.array([[np.nan, 1.0]]), gamma=1.5)

    def test_gradient_of_a_path_that_does_not_cross_the_grid_rejected(self):
        small = AlignGrid(m=[[1, 2]], gamma=1.5)
        big = AlignGrid(m=[[1, 2, 3], [4, 5, 6]], gamma=1.5)
        for grid, other in ((big, small), (small, big)):
            # Too short a path never reaches the sink; too long a one
            # would index past the grid.
            with pytest.raises(DimensionMismatch):
                gsa_grad_matrix(grid, solve_gsa(other))
        path = solve_gsa(small)
        for kinds in ([1, 0], [1, 4], [-1, 1, 2], [1.0, 2.0]):
            with pytest.raises(DimensionMismatch):
                gsa_grad_matrix(small, AlignResult(0.0, True, np.array(kinds), path.cells))

    @pytest.mark.parametrize(
        "cells",
        [[100, 0], [-1, 0], [0.0, 1.0], [0]],
        ids=["past the grid", "negative", "float", "one cell short"],
    )
    def test_gradient_of_a_path_whose_cells_leave_the_grid_rejected(self, cells):
        # The path PD crosses the 1x2 grid; only its cells are wrong.
        grid = AlignGrid(m=[[1, 2]], gamma=1.5)
        path = solve_gsa(grid)
        assert path.step_string() == "PD"
        with pytest.raises(DimensionMismatch, match="cells"):
            gsa_grad_matrix(grid, AlignResult(path.z_star, path.unique, path.kinds, np.array(cells)))

    @pytest.mark.parametrize(
        "m, gamma",
        [
            ([[1e308, 1e308]], 1.5),  # gamma * m overflows on the gap step
            ([[1e308], [1e308]], 3.7),
            ([[5e307, 5e307, 5e307]], 1.5),  # gamma * m is finite; the path sum is not
        ],
    )
    def test_costs_that_can_overflow_a_path_rejected(self, backend, m, gamma):
        m = np.array(m)
        with pytest.raises(NonFinite, match="overflow"):
            AlignGrid(m=m, gamma=gamma)
        # gsa_loss builds its stacks without AlignGrid.  Rows at the log
        # floor against scaled one-class targets give back the costs m.
        Tp, Tt = m.shape
        logP = np.full((Tp, 1), -50.0)
        Y = np.full((Tt, 1), m.max() / -np.log(1e-12))
        with pytest.raises(NonFinite, match="overflow"):
            gsa_loss(logP, Y, gamma)
        with pytest.raises(NonFinite, match="overflow"):
            gsa_loss(logP[None], Y[None], gamma)

    def test_largest_costs_that_cannot_overflow_still_solve(self):
        grid = AlignGrid(m=np.full((2, 3), 1e307), gamma=1.5)
        res = solve_gsa(grid)
        assert np.isfinite(res.z_star)
        assert res.z_star == float((gsa_grad_matrix(grid, res) * grid.m).sum())


class TestAlignmentLoss:
    def test_frozen_example(self):
        logP = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        Y = np.eye(2)
        loss, grad = gsa_loss(logP, Y, 1.5)
        assert loss == pytest.approx(-np.log(0.9) - np.log(0.8), abs=1e-12)
        assert np.array_equal(grad, -np.eye(2))

    def test_solver_runs_once_per_loss(self):
        logP = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        reset_invocations()
        gsa_loss(logP, np.eye(2), 1.5)
        assert invocations()["gsa"] == 1

    def test_class_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_grid(np.zeros((2, 3)), np.eye(4), 1.5)
        Y = np.eye(3)[None, [0, 1]]
        for logP, Ys in [
            (np.zeros((2, 2, 3)), Y),  # batch sizes differ
            (np.zeros((1, 2, 4)), Y),  # class dimensions differ
            (np.zeros((2, 3)), Y),  # a row block against a stack
            (np.zeros((1, 1, 2, 3)), Y[None]),
            (np.zeros((0, 3)), Y[0]),  # no predicted rows
            (np.zeros((0, 2, 3)), Y[:0]),  # an empty stack
        ]:
            with pytest.raises(DimensionMismatch):
                gsa_loss(logP, Ys, 1.5)

    def test_gap_factor_validated(self):
        for gamma in (1.0, np.nan):
            with pytest.raises(ValueError, match="gap factor"):
                gsa_loss(np.zeros((2, 3)), np.eye(3)[:2], gamma)

    def test_stack_is_bitwise_equal_to_single_calls(self, backend):
        # One-hot targets make every product in L @ Y^T and G @ Y exact, so
        # the batched loss must match the single calls, and the single call
        # the old solve_gsa -> gsa_grad_matrix route, bit for bit.  That
        # route's path is the numpy reference's on either backend.
        rng = np.random.default_rng(20261018)
        d, B = 6, 3
        sides = [(1, n) for n in (1, 2, 7, 40)] + [(n, 1) for n in (2, 7, 40)]
        sides += [(int(a), int(b)) for a, b in rng.integers(2, 41, size=(10, 2))]
        for gamma in (1.5, 1 + 1e-7, 3.7):
            for Tp, Tt in sides:
                logits = 6.0 * rng.standard_normal((B, Tp, d))
                logP = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
                logP[:, ::3, 1] = -40.0  # below the log floor: inactive entries
                logP[:, 1::4, 2] = -np.inf
                Y = np.eye(d)[rng.integers(0, d, size=(B, Tt))]
                where = (Tp, Tt, gamma)
                reset_invocations()
                zs, grads = gsa_loss(logP, Y, gamma)
                assert invocations()["gsa"] == B, where
                assert zs.shape == (B,) and grads.shape == logP.shape, where
                for b in range(B):
                    z, g = gsa_loss(logP[b], Y[b], gamma)
                    assert type(z) is float, where
                    assert np.float64(z).tobytes() == zs[b].tobytes(), where
                    assert g.tobytes() == grads[b].tobytes(), where
                    grid = build_grid(logP[b], Y[b], gamma)
                    res = solve_gsa(grid)
                    active = (logP[b] > np.log(1e-12)).astype(np.float64)
                    old = -(gsa_grad_matrix(grid, res) @ Y[b]) * active
                    assert res.z_star == z and old.tobytes() == g.tobytes(), where
                    ref_z, ref_kinds, ref_cells, _ = _gsa_py(grid.m, grid.gamma)
                    assert np.float64(ref_z).tobytes() == np.float64(z).tobytes(), where
                    start = ref_kinds.size - res.kinds.size
                    assert not ref_kinds[:start].any(), where
                    for a, ref in zip((res.kinds, res.cells), (ref_kinds, ref_cells)):
                        assert a.tobytes() == ref[start:].tobytes(), where

    def test_single_row_agrees_with_the_matching_loss(self):
        # One row against one target: a 1x1 grid's best path is the match
        # whenever its cost -<floor(logP), Y> is >= 0, which every logP <= 0
        # and Y >= 0 guarantee.  So both losses must score and differentiate
        # it identically, floored entries included.
        rng = np.random.default_rng(11)
        floor = np.log(1e-12)
        # -inf, far below the floor, at it, and just above and below it.
        special = [-np.inf, -60.0, floor, np.nextafter(floor, 0.0), np.nextafter(floor, -np.inf)]
        special += [floor + 1e-9, floor - 1e-9]
        for trial in range(200):
            d = int(rng.integers(2, 7))
            row = np.array([special[i] for i in rng.integers(0, len(special), size=d)])
            free = rng.random(d) < 0.5
            free[rng.integers(0, d)] = True
            # The free entries carry the mass the floored-scale ones leave.
            logits = 3.0 * rng.standard_normal(int(free.sum()))
            rest = np.log1p(-np.exp(row[~free]).sum())
            row[free] = logits - np.log(np.exp(logits).sum()) + rest
            logP = row[None]
            Y = np.eye(d)[[rng.integers(0, d)]] if trial % 2 else rng.dirichlet(np.ones(d), size=1)
            z_m, g_m = matching_loss(logP, Y)
            z_a, g_a = gsa_loss(logP, Y, 1.5)
            assert np.float64(z_m).tobytes() == np.float64(z_a).tobytes(), (logP, Y)
            assert g_m.tobytes() == g_a.tobytes(), (logP, Y)


_LOGP_MSG = "log-probabilities must not contain NaN or +inf"
_Y_MSG = "reference rows must be finite"
_INF = np.inf


def _verdict_stack():
    # Grid 1 puts every prediction's mass on class 0, so its logP columns
    # are 0 and -inf; no target of any grid holds class 3.
    rng = np.random.default_rng(59)
    logits = rng.standard_normal((3, 3, 4))
    logP = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    logP[1] = [0.0, -_INF, -_INF, -_INF]
    Y = np.eye(4)[[[0, 1], [0, 1], [2, 0]]]
    return logP, Y


# Each case overwrites entries or rows of grid 1: (logP edits, Y edits, the
# error, its message).
_VERDICTS = {
    "logP NaN where Y is 0": ({(2, 3): np.nan}, {}, NonFinite, _LOGP_MSG),
    "logP +inf where Y is 0": ({(2, 3): _INF}, {}, NonFinite, _LOGP_MSG),
    "Y NaN where logP is 0": ({}, {(0, 0): np.nan}, NonFinite, _Y_MSG),
    "Y +inf where logP is 0": ({}, {(0, 0): _INF}, NonFinite, _Y_MSG),
    "Y -inf where logP is -inf": ({}, {(1, 1): -_INF}, NonFinite, _Y_MSG),
    "Y checked before logP": ({(2, 3): np.nan}, {(1, 1): np.nan}, NonFinite, _Y_MSG),
    "costs that overflow to inf": ({}, {1: [0.0, 1e307, 0.0, 0.0]}, NonFinite, "match costs must be finite"),
    "costs too large for a path": (
        {},
        {1: [0.0, 1e306, 0.0, 0.0]},
        NonFinite,
        "match costs up to 2.76e+307 with gap factor 1.5 can overflow a path cost on a 3x2 grid",
    ),
}


class TestAlignmentVerdicts:
    @pytest.mark.parametrize("case", sorted(_VERDICTS))
    @pytest.mark.parametrize("entry", ["gsa_loss 2-D", "gsa_loss 3-D", "build_grid"])
    def test_first_failing_check_names_the_fault(self, case, entry):
        logP_edits, Y_edits, error, message = _VERDICTS[case]
        logP, Y = _verdict_stack()
        call = {
            "gsa_loss 2-D": lambda: gsa_loss(logP[1], Y[1], 1.5),
            "gsa_loss 3-D": lambda: gsa_loss(logP, Y, 1.5),
            "build_grid": lambda: build_grid(logP[1], Y[1], 1.5),
        }[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call()  # the undamaged inputs pass
            for array, edits in ((logP[1], logP_edits), (Y[1], Y_edits)):
                for index, value in edits.items():
                    array[index] = value
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("entry", [gsa_loss, build_grid])
    def test_inputs_are_checked_before_the_grid_is_found_empty(self, entry):
        # No target row: the costs are empty and carry no fault, yet the NaN
        # in logP is named before the empty grid.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=f"^{re.escape(_LOGP_MSG)}$"):
                entry(np.full((2, 3), np.nan), np.zeros((0, 3)), 1.5)
            with pytest.raises(DimensionMismatch):
                entry(np.zeros((2, 3)), np.zeros((0, 3)), 1.5)


def _grid_stacks():
    rng = np.random.default_rng(20241017)
    sides = [(1, n) for n in (1, 2, 7, 40)] + [(n, 1) for n in (2, 7, 40)]
    sides += [(int(a), int(b)) for a, b in rng.integers(2, 41, size=(12, 2))]
    for gamma in (1.5, 1 + 1e-7, 3.7):
        for Tp, Tt in sides:
            yield "uniform", rng.uniform(-1.0, 1.0, size=(3, Tp, Tt)), gamma
            yield "tied", rng.integers(0, 3, size=(3, Tp, Tt)).astype(np.float64), gamma
            # Paths whose costs differ by less than the 1e-9 tie tolerance.
            yield "near-tied", rng.integers(0, 3, size=(3, Tp, Tt)) * 1e-10, gamma



def test_stacked_cells_are_single_grid_cells_offset_into_the_stack(backend):
    # Grid t's cells, padding included, are the single-grid kernel's plus
    # t * Tp * Tt, so one bincount over the stack gives every grid's
    # gradient: the same bytes as one gsa_grads call per grid.
    for family, ms, gamma in list(_grid_stacks())[::9]:
        where = (family, ms.shape, gamma)
        nb, Tp, Tt = ms.shape
        zs, kinds, cells, unique = _kernels.gsa_kernel_many(ms, gamma)
        Gs = _kernels.gsa_grads(kinds, cells, Tp, Tt, gamma)
        for t, m in enumerate(ms):
            z, kinds_t, cells_t, unique_t = _kernels.gsa_kernel(m, gamma)
            assert (zs[t], unique[t]) == (z, unique_t), where
            assert kinds[t].tobytes() == kinds_t.tobytes(), where
            assert cells[t].tobytes() == (cells_t + t * Tp * Tt).tobytes(), where
            G = _kernels.gsa_grads(kinds_t[None], cells_t[None], Tp, Tt, gamma)[0]
            assert Gs[t].tobytes() == G.tobytes(), where

@pytest.mark.skipif(_kernels.c_library() is None, reason="the C kernel library could not be built")
class TestCompiledKernel:
    def test_bitwise_equal_to_numpy_reference(self):
        # Bit patterns, not values: the locked alignment costs and the
        # determinism gate hold on either backend only if the two agree
        # exactly.  A single grid, which the C body copies into its output
        # block and returns without a stack axis (z as a float), is what
        # the numpy body solves as a stack of one.
        for family, ms, gamma in _grid_stacks():
            where = (family, ms.shape, gamma)
            for stack in (ms, ms[:1]):
                for a, b in zip(_gsa_many_c(stack, gamma), _gsa_many_py(stack, gamma)):
                    assert a.dtype == b.dtype and a.shape == b.shape, where
                    assert a.tobytes() == b.tobytes(), where
            for a, b in zip(_gsa_many_c(ms[0], gamma), _gsa_many_py(ms[:1], gamma)):
                assert np.asarray(a).tobytes() == b[0].tobytes(), where
            # The gradient scatter is shared by both backends, so check it
            # against an independent per-edge accumulation over the path.
            _, kinds, cells, _ = _gsa_many_c(ms, gamma)
            Gs = _kernels.gsa_grads(kinds, cells, *ms.shape[1:], gamma)
            for t, m in enumerate(ms):
                grid = AlignGrid(m=m, gamma=gamma)
                grad = {}
                res = solve_gsa(grid)
                for kind, i, k in _walk(res):
                    cell = (min(i, grid.pred_len - 1), min(k, grid.target_len - 1))
                    grad[cell] = grad.get(cell, 0.0) + (1.0 if kind == MATCH else gamma)
                G = np.zeros(m.shape)
                for (i, k), g in grad.items():
                    G[i, k] += g
                assert G.tobytes() == Gs[t].tobytes(), where

    def test_a_failed_c_call_raises_instead_of_re_solving(self, monkeypatch):
        # Infinite costs leave a node unreachable, so the backtrack has no
        # finite step.  The public entry points reject them first; the kernel
        # itself must not hand them to the reference, which cannot solve
        # them either.
        def unreachable(*args):
            raise AssertionError("the numpy reference ran inside a C call")

        monkeypatch.setattr(_kernels, "_gsa_many_py", unreachable)
        with pytest.raises(NonFinite):
            _gsa_many_c(np.full((2, 2, 3), np.inf), 1.5)
