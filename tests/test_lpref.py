"""Dense simplex reference solver, vertex oracle, and the gradient probes."""

import numpy as np
import pytest

from combgrad import (
    DegenerateInstance,
    DimensionMismatch,
    Infeasible,
    IterationLimit,
    LPSpec,
    Unbounded,
    check_lp_grads,
    invocations,
    random_lp,
    reset_invocations,
    solve_lp,
    lpref,
    strong_duality_gap,
)

from oracles import enumerate_permutations, enumerate_vertices


def frozen_spec():
    # min x1 + 2 x2  s.t.  x1 + x2 = 1, x >= 0
    return LPSpec(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0])


class TestFrozenInstances:
    def test_simple_line_segment(self):
        out = solve_lp(frozen_spec())
        assert out.z_star == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.u_star, [1.0, 0.0], atol=1e-12)
        assert np.allclose(out.v_star, [1.0], atol=1e-12)
        assert out.unique is True

    def test_uniform_cost_segment_is_not_unique(self):
        out = solve_lp(LPSpec(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0]))
        assert out.z_star == pytest.approx(1.0, abs=1e-12)
        assert out.unique is False

    def test_exhausted_pivot_budget_raises_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(lpref, "_MAX_PIVOTS", 1)
        with pytest.raises(IterationLimit, match="pivot budget"):
            solve_lp(frozen_spec())

    def test_negative_rhs_rows_are_normalized(self):
        out = solve_lp(LPSpec(c=[1.0, 2.0], A=[[-1.0, -1.0]], b=[-1.0]))
        assert out.z_star == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.u_star, [1.0, 0.0], atol=1e-12)

    def test_redundant_rows_get_padded_duals(self):
        out = solve_lp(LPSpec(c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 1.0]))
        assert out.z_star == pytest.approx(1.0, abs=1e-12)
        assert out.v_star.shape == (2,)
        # duals certify optimality even with a dropped row
        assert abs(float(out.v_star @ [1.0, 1.0]) - out.z_star) <= 1e-9

    def test_infeasible_raises(self):
        with pytest.raises(Infeasible):
            solve_lp(LPSpec(c=[1.0], A=[[1.0]], b=[-1.0]))
        with pytest.raises(Infeasible):
            # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
            solve_lp(LPSpec(c=[1.0, 1.0], A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0]))

    def test_unbounded_raises(self):
        # x1 - x2 = 0 leaves the ray x1 = x2 = t free and c picks -t
        with pytest.raises(Unbounded):
            solve_lp(LPSpec(c=[-1.0, 0.0], A=[[1.0, -1.0]], b=[0.0]))

    def test_solver_counts_invocations(self):
        reset_invocations()
        solve_lp(frozen_spec())
        assert invocations()["lp"] == 1


class TestVertexOracle:
    def test_doubly_stochastic_two_by_two_has_two_vertices(self):
        # Variables are the entries of a 2x2 doubly stochastic matrix; its
        # vertices are exactly the two permutation matrices.
        A = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
            ]
        )
        spec = LPSpec(c=np.zeros(4), A=A, b=np.ones(4))
        vs = enumerate_vertices(spec)
        assert len(vs) == 2
        pts = sorted(tuple(np.round(x, 9)) for x in vs)
        assert pts == [(0.0, 1.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0)]

    def test_simplex_agrees_with_vertex_minimum(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            p = int(rng.integers(2, 8))
            m = int(rng.integers(1, min(p, 5) + 1))
            spec = random_lp(rng, p, m)
            out = solve_lp(spec)
            vs = enumerate_vertices(spec)
            assert out.z_star == pytest.approx(min(float(spec.c @ x) for x in vs), abs=1e-7)

    def test_infeasible_enumeration_raises(self):
        with pytest.raises(Infeasible):
            enumerate_vertices(LPSpec(c=[1.0], A=[[1.0]], b=[-1.0]))

    def test_size_caps_enforced(self):
        with pytest.raises(DimensionMismatch):
            enumerate_vertices(LPSpec(c=np.ones(11), A=np.ones((1, 11)), b=[1.0]))


class TestDualCertificates:
    def test_strong_duality_and_dual_feasibility(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            p = int(rng.integers(2, 9))
            m = int(rng.integers(1, min(p, 5) + 1))
            spec = random_lp(rng, p, m)
            out = solve_lp(spec)
            assert strong_duality_gap(spec, out) <= 1e-8
            reduced = spec.c - spec.A.T @ out.v_star
            assert reduced.min() >= -1e-8
            assert np.allclose(spec.A @ out.u_star, spec.b, atol=1e-8)
            assert out.u_star.min() >= -1e-9


class TestGradientProbes:
    def test_random_instances_pass_all_three_blocks(self):
        rng = np.random.default_rng(41)
        checked = 0
        degenerate = 0
        while checked + degenerate < 40:
            p = int(rng.integers(2, 9))
            m = int(rng.integers(1, min(p - 1, 5) + 1))
            spec = random_lp(rng, p, m)
            out = solve_lp(spec)
            try:
                rep = check_lp_grads(spec, out, eps=1e-5, rtol=1e-4, rng=rng)
            except DegenerateInstance:
                degenerate += 1
                continue
            assert rep.passed, (rep.c_block, rep.b_block, rep.A_block)
            checked += 1
        assert checked >= 35  # the sampler produces mostly clean instances

    def test_non_unique_optimum_is_flagged(self):
        spec = LPSpec(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0])
        out = solve_lp(spec)
        with pytest.raises(DegenerateInstance):
            check_lp_grads(spec, out)

    def test_degenerate_vertex_is_flagged(self):
        # The optimal vertex has a basic variable at zero (support < m).
        spec = LPSpec(c=[1.0, 1.0, 1.0], A=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], b=[1.0, 0.0])
        out = solve_lp(spec)
        with pytest.raises(DegenerateInstance):
            check_lp_grads(spec, out)

    def test_report_carries_block_errors(self):
        rng = np.random.default_rng(43)
        spec = random_lp(rng, 4, 2)
        out = solve_lp(spec)
        rep = check_lp_grads(spec, out, rng=rng)
        for block in (rep.c_block, rep.b_block, rep.A_block):
            assert block.rel_err <= 1e-4
            assert block.abs_err == pytest.approx(abs(block.analytic - block.numeric), abs=1e-15)


class TestHighsOracle:
    def test_value_and_duals_match_highs_beyond_enumeration_size(self):
        # p = 11..29 is past the vertex oracle's cap.  Random continuous data
        # give a unique nondegenerate optimum, so the dual is unique too and
        # HiGHS's equality marginals must equal it.
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(47)
        for _ in range(50):
            p = int(rng.integers(11, 30))
            m = int(rng.integers(1, 9))
            spec = random_lp(rng, p, m)
            out = solve_lp(spec)
            assert out.unique and int(np.sum(out.u_star > 1e-9)) == m
            ref = linprog(spec.c, A_eq=spec.A, b_eq=spec.b, bounds=(0, None), method="highs")
            assert ref.status == 0
            assert abs(out.z_star - ref.fun) <= 1e-10 * max(1.0, abs(ref.fun))
            v_ref = ref.eqlin.marginals
            assert np.abs(out.v_star - v_ref).max() <= 1e-10 * max(1.0, np.abs(v_ref).max())


class TestSampler:
    def test_random_lp_is_deterministic_per_seed(self):
        s1 = random_lp(np.random.default_rng(5), 4, 2)
        s2 = random_lp(np.random.default_rng(5), 4, 2)
        assert np.array_equal(s1.A, s2.A)
        assert np.array_equal(s1.b, s2.b)
        assert np.array_equal(s1.c, s2.c)

    def test_random_lp_is_feasible_and_bounded(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            spec = random_lp(rng, 5, 3)
            solve_lp(spec)  # must not raise


class TestPermutationOracle:
    def test_counts_and_min_against_direct_scan(self):
        rng = np.random.default_rng(53)
        from itertools import permutations as iperm

        for _ in range(20):
            b = int(rng.integers(2, 5))
            C = rng.integers(0, 3, size=(b, b)).astype(np.float64)
            z, argmins = enumerate_permutations(C)
            best = min(sum(C[i, p[i]] for i in range(b)) for p in iperm(range(b)))
            assert z == pytest.approx(best, abs=1e-12)
            for p in argmins:
                assert sum(C[i, p[i]] for i in range(b)) == pytest.approx(z, abs=1e-9)

    def test_size_cap_enforced(self):
        with pytest.raises(DimensionMismatch):
            enumerate_permutations(np.zeros((9, 9)))
