"""Min-cost matching: solver, certificates, tie policy, and the set loss."""

import itertools
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combgrad import (
    DimensionMismatch,
    InvalidInput,
    NonFinite,
    NonSquare,
    assignment_gengrad,
    filter_bag,
    invocations,
    matching_loss,
    reset_invocations,
    solve_assignment,
)
from combgrad import _kernels
from combgrad._kernels import _assign_core_py, _assign_many_c, _assign_many_py, _lex_refine, _min_cycle
from combgrad.core import _log_costs

from helpers import central_fd
from oracles import distinct_row_counts, enumerate_permutations

SRC = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))


class TestFrozenInstances:
    def test_two_by_two_antidiagonal(self):
        res = solve_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert res.perm == (0, 1)
        assert res.z_star == 0.0
        assert res.unique is True

    def test_two_by_two_diagonal(self):
        res = solve_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert res.perm == (0, 1)
        assert res.z_star == 2.0
        assert res.unique is True

    def test_three_by_three(self):
        C = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        res = solve_assignment(C)
        assert res.perm == (1, 0, 2)
        assert res.z_star == 5.0
        assert res.unique is True

    def test_all_equal_costs_pick_identity(self):
        res = solve_assignment(np.ones((3, 3)))
        assert res.perm == (0, 1, 2)
        assert res.z_star == 3.0
        assert res.unique is False

    def test_matching_matrix_consistent_with_perm(self):
        C = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        res = solve_assignment(C)
        M = np.zeros((3, 3))
        M[np.arange(3), list(res.perm)] = 1.0
        assert np.array_equal(res.M, M)


class TestOracleAgreement:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            b = int(rng.integers(2, 7))
            C = rng.standard_normal((b, b))
            res = solve_assignment(C)
            z, argmins = enumerate_permutations(C)
            assert abs(res.z_star - z) <= 1e-9
            assert res.perm == min(argmins)
            assert res.unique == (len(argmins) == 1)

    def test_tie_heavy_instances_pick_lexicographic_minimum(self):
        rng = np.random.default_rng(11)
        saw_tie = False
        for _ in range(120):
            b = int(rng.integers(2, 6))
            C = rng.integers(0, 3, size=(b, b)).astype(np.float64)
            res = solve_assignment(C)
            z, argmins = enumerate_permutations(C)
            assert abs(res.z_star - z) <= 1e-9
            assert res.perm == min(argmins)
            assert res.unique == (len(argmins) == 1)
            saw_tie = saw_tie or len(argmins) > 1
        assert saw_tie  # the sampling really exercised degenerate optima

    @pytest.mark.parametrize("b", [9, 32, 100, 256])
    def test_matches_scipy_beyond_enumeration_size(self, b):
        lsa = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(b)
        for C in (rng.uniform(-1.0, 1.0, size=(b, b)), rng.integers(0, 4, size=(b, b)).astype(np.float64)):
            res = solve_assignment(C)
            rows, cols = lsa(C)
            assert abs(res.z_star - float(C[rows, cols].sum())) <= 1e-9
            # The certificate holds at these sizes too.
            u, v = res.duals_u, res.duals_v
            assert (C - u[:, None] - v[None, :]).min() >= -1e-9
            assert abs(float(u.sum() + v.sum()) - res.z_star) <= 1e-9

    def test_long_tie_chain_refines_without_recursion(self):
        # Zero cost on the diagonal and on (i, i+1 mod b), rows reversed: the
        # lex-min refinement has to re-match along a chain of b tied rows,
        # which a recursive search cannot do at b = 1000.  The chain is one
        # zero-cost cycle, so the certificate must find the tie, and in
        # O(b^2) memory: a b^3 stack alone would take 8 GB.  Peak RSS is
        # per process, hence the subprocess.
        probe = (
            "import resource, numpy as np; from combgrad import solve_assignment; "
            "b = 1000; i = np.arange(b); C = np.ones((b, b)); C[i, i] = 0.0; C[i, (i + 1) % b] = 0.0; "
            "res = solve_assignment(C[::-1]); "
            "assert res.z_star == 0.0 and res.unique is False; "
            "assert res.perm == (0, *range(b - 1, 0, -1)); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 200 * 1024  # ru_maxrss is in KiB on Linux


def _kernel_stacks():
    rng = np.random.default_rng(20240611)
    for n in range(1, 41):
        i = np.arange(1.0, n + 1.0)
        yield "uniform", rng.uniform(-1.0, 1.0, size=(3, n, n))
        yield "tied", rng.integers(0, 4, size=(3, n, n)).astype(np.float64)
        yield "hard", np.outer(i, i)[None, :, :]
        # Integer multiples land on and just off tol, where refinement moves;
        # on the offsets, slacks near tol round differently in another order.
        for scale in (0.3e-9, 0.35e-9, 0.45e-9, 0.6e-9, 1e-9):
            yield f"integers x {scale:g}", scale * rng.integers(0, 4, size=(3, n, n))
        offsets = rng.choice([0.1, 0.2, 0.3, 0.7, 1.1, 3.3], size=(3, n, n))
        yield "offsets + integers x 1e-9", offsets + 1e-9 * rng.integers(0, 3, size=(3, n, n))


@pytest.mark.skipif(_kernels.c_library() is None, reason="the C kernel library could not be built")
class TestCompiledKernel:
    def test_bitwise_equal_to_numpy_mirror(self):
        # Bit patterns, not values: the locked accuracies and the determinism
        # gate hold on either backend only if the two agree exactly.  A stack
        # of one is what the single-instance kernel runs.
        for family, stack in _kernel_stacks():
            for Cs in (stack, stack[:1]):
                for a, b in zip(_assign_many_c(Cs), _assign_many_py(Cs)):
                    assert a.dtype == b.dtype and a.shape == b.shape, (family, Cs.shape)
                    assert a.tobytes() == b.tobytes(), (family, Cs.shape)

    def test_a_failed_c_call_raises_instead_of_re_solving(self, monkeypatch):
        # Infinite costs leave the solve without a finite step.  The public
        # entry points reject them first; the kernel itself must not hand
        # them to the reference, which cannot solve them either.
        def unreachable(*args):
            raise AssertionError("the numpy reference ran inside a C call")

        monkeypatch.setattr(_kernels, "_assign_many_py", unreachable)
        with pytest.raises(NonFinite):
            _assign_many_c(np.full((2, 3, 3), np.inf))

    def test_built_once_and_never_on_import(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        probe = (
            "import combgrad, os, sys; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'importing combgrad loaded scipy'; "
            "sys.exit(os.path.exists(sys.argv[1]))"
        )
        proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "combgrad")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        path = _kernels._c_library_path()
        assert os.path.dirname(path) == str(tmp_path / "combgrad")

        def compiler(*args, **kwargs):
            raise AssertionError("compiled although the library was cached")

        monkeypatch.setattr(_kernels.subprocess, "run", compiler)
        assert _kernels._c_library_path() == path

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_a_new_build_removes_the_other_versions(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "combgrad"
        cache.mkdir()
        stale = ["kernels-0123456789abcdef.so", "kernels-fedcba9876543210.so"]
        # A build in flight, and files that are no library of any version.
        kept = ["kernels-0123456789abcdef.so.tmp", "x1y2.so.tmp", "kernels-0123.so", "kernels-0123456789ABCDEF.so"]
        kept += ["kernels-0123456789abcdef.so.bak", "notes.txt"]
        for name in stale + kept:
            (cache / name).write_text("")
        path = _kernels._c_library_path()
        assert sorted(os.listdir(cache)) == sorted(kept + [os.path.basename(path)])
        # A cached library is loaded as it is: nothing is built or removed.
        (cache / stale[0]).write_text("")
        assert _kernels._c_library_path() == path
        assert (cache / stale[0]).exists()


class TestBackendOption:
    def _import_with(self, value, tmp_path):
        env = dict(os.environ, COMBGRAD_BACKEND=value, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
        probe = "import combgrad; print(combgrad.get_backend())"
        return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)

    def test_environment_selects_numpy(self, tmp_path):
        proc = self._import_with("numpy", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"

    @pytest.mark.parametrize("value", ["numba", "jit", "python", "nojit"])
    def test_environment_rejects_other_values(self, value, tmp_path):
        # The former backend names and aliases are refused, not remapped.
        proc = self._import_with(value, tmp_path)
        assert proc.returncode != 0
        assert "InvalidInput" in proc.stderr
        assert "'c' or 'numpy'" in proc.stderr and repr(value) in proc.stderr


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_source_compiles_without_warnings():
    proc = subprocess.run(
        ["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", _kernels._C_SOURCE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


class TestDualCertificates:
    def test_feasible_tight_and_strongly_dual(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            b = int(rng.integers(2, 8))
            C = rng.standard_normal((b, b))
            res = solve_assignment(C)
            slack = C - res.duals_u[:, None] - res.duals_v[None, :]
            assert slack.min() >= -1e-9  # dual feasibility
            matched = slack[np.arange(b), list(res.perm)]
            assert np.max(np.abs(matched)) <= 1e-9  # complementary slackness
            assert abs(res.duals_u.sum() + res.duals_v.sum() - res.z_star) <= 1e-9


def _raw_kernel_many(Cs):
    # The solve without the lexicographic refinement: the numpy core, one
    # instance at a time.  Returns (perms, us, vs) like assignment_kernel_many.
    k, n, _ = Cs.shape
    perms, us, vs = np.empty((k, n), np.int64), np.empty((k, n)), np.empty((k, n))
    u, v, minv = np.zeros(n + 1), np.zeros(n + 1), np.empty(n + 1)
    p, way, used = np.zeros(n + 1, np.int64), np.zeros(n + 1, np.int64), np.zeros(n + 1, np.bool_)
    for t in range(k):
        _assign_core_py(Cs[t], u, v, p, way, minv, used, perms[t])
        us[t], vs[t] = u[1:], v[1:]
    return perms, us, vs


def _refined_reference(C):
    # The kernel's contract written out: the raw solve, then _lex_refine.
    perms, us, vs = _raw_kernel_many(C[None])
    return _lex_refine(C, perms[0], us[0], vs[0]), us[0], vs[0]


def _sweep_unique(C, perm, z, tol=1e-9):
    # The former certificate, kept as the oracle: forbid each matched edge in
    # turn, re-solve all b copies at once, and call the optimum unique iff
    # every alternative costs more than z + tol.  O(b^4) time, b^3 memory.
    # It needs exact optima, so it reads the unrefined solve.
    b = C.shape[0]
    big = 2.0 * (b + 1.0) * (1.0 + float(np.abs(C).max(initial=0.0))) + 1.0
    Cs = np.repeat(C[None, :, :], b, axis=0)
    for i in range(b):
        Cs[i, i, perm[i]] = big
    perms, _, _ = _raw_kernel_many(Cs)
    zs = np.take_along_axis(Cs, perms[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return bool(np.all(zs > z + tol))


def _certificate_instances(sizes, seed):
    rng = np.random.default_rng(seed)
    for b, k in sizes:
        for _ in range(k):
            yield "uniform", rng.uniform(-1.0, 1.0, size=(b, b))
            yield "integer ties", rng.integers(0, 3, size=(b, b)).astype(np.float64)
            yield "integers x 1e-10", 1e-10 * rng.integers(0, 4, size=(b, b))
            # Integer multiples of these land just off tol = 1e-9 and off
            # tol / b, and refinement moves onto edges with slack up to tol / b.
            for scale in (0.3e-9, 0.35e-9, 0.45e-9, 0.6e-9):
                yield f"integers x {scale:g}", scale * rng.integers(0, 4, size=(b, b))


class TestUniquenessCertificate:
    def test_agrees_with_enumeration(self, backend):
        seen = set()
        for family, C in _certificate_instances([(b, 6) for b in range(1, 9)], seed=61):
            res = solve_assignment(C)
            z, argmins = enumerate_permutations(C)
            # Unique: the returned matching is the only one within tol of the
            # minimum.  Refinement may land up to tol above the minimum (the
            # families scaled below tol do), and then the optimum is not unique.
            assert res.unique == (argmins == [res.perm]), (family, C.shape)
            seen.add((family, res.unique))
        assert len(seen) == 13  # every family but uniform shows both verdicts

    def test_agrees_with_the_sweep_and_keeps_every_other_output(self):
        sizes = [(b, 3) for b in range(1, 13)] + [(16, 2), (24, 1), (32, 1)]
        for family, C in _certificate_instances(sizes, seed=67):
            res = solve_assignment(C)
            perm, u, v = _refined_reference(C)
            z = float(C[np.arange(C.shape[0]), perm].sum())
            assert res.unique == _sweep_unique(C, perm, z), (family, C.shape)
            assert np.array(res.perm).tobytes() == perm.tobytes(), family
            assert np.float64(res.z_star).tobytes() == np.float64(z).tobytes(), family
            assert res.duals_u.tobytes() == u.tobytes() and res.duals_v.tobytes() == v.tobytes(), family
            assert res.M.tobytes() == np.eye(C.shape[0])[perm].tobytes(), family

    def test_an_alternative_exactly_tol_dearer_is_a_tie(self):
        # Unique means every other matching costs strictly more than z* + tol.
        assert solve_assignment(np.array([[0.0, 1e-9], [0.0, 0.0]])).unique is False
        assert solve_assignment(np.array([[0.0, 1.5e-9], [0.0, 0.0]])).unique is True

    def test_min_cycle_matches_cycle_enumeration(self):
        # Every simple directed cycle, weighed edge by edge: the closure must
        # find the lightest, ignore the diagonal and read inf when acyclic.
        rng = np.random.default_rng(71)
        for b in range(1, 6):
            W = rng.integers(-2, 6, size=(40, b, b)).astype(np.float64)
            W[rng.random((40, b, b)) < 0.5] = np.inf
            best = np.full(40, np.inf)
            for n in range(2, b + 1):
                for cyc in itertools.permutations(range(b), n):
                    if cyc[0] != min(cyc):
                        continue
                    best = np.minimum(best, sum(W[:, i, j] for i, j in zip(cyc, cyc[1:] + cyc[:1])))
            got = _min_cycle(W)
            # Negative cycles make the closure's walks lighter than any cycle;
            # only the sign of the lightest cycle matters then.
            neg = best < 0
            assert np.array_equal(got[~neg], best[~neg]), b
            assert (got[neg] < 0).all(), b


class TestSolverInterface:
    def test_certified_solve_uses_one_kernel_call(self):
        rng = np.random.default_rng(3)
        for C in (rng.standard_normal((5, 5)), np.ones((5, 5))):
            reset_invocations()
            res = solve_assignment(C)
            assert isinstance(res.unique, bool)
            assert invocations()["assignment"] == 1

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            b = int(rng.integers(2, 7))
            C = rng.standard_normal((b, b))
            res = solve_assignment(C)
            if not res.unique:
                continue
            rho = rng.permutation(b)
            res2 = solve_assignment(C[rho])
            assert abs(res2.z_star - res.z_star) <= 1e-12
            assert np.array_equal(res2.M, res.M[rho])

    def test_value_is_locally_linear_at_unique_optimum(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 20:
            b = int(rng.integers(2, 7))
            C = rng.standard_normal((b, b))
            res = solve_assignment(C)
            if not res.unique:
                continue
            D = rng.standard_normal((b, b))
            eps = 1e-6
            hi = solve_assignment(C + eps * D).z_star
            lo = solve_assignment(C - eps * D).z_star
            deriv = (hi - lo) / (2 * eps)
            assert abs(deriv - float((res.M * D).sum())) <= 1e-6
            done += 1

    def test_gengrad_is_the_matching_matrix(self):
        C = np.array([[1.0, 2.0], [2.0, 1.0]])
        res = solve_assignment(C)
        gg = assignment_gengrad(res)
        assert np.array_equal(gg.d_c, res.M.ravel())
        assert gg.d_b is None and gg.d_A is None

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            solve_assignment(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            solve_assignment(np.array([[np.nan, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize(
        "C",
        [
            [[1e308, -1e308], [-1e308, 1e308]],
            [[1e308] * 2] * 2,
            [[5e307] * 4] * 4,  # every entry finite, the sum is not
        ],
    )
    def test_costs_whose_sums_overflow_rejected(self, C):
        with pytest.raises(NonFinite, match="overflow"):
            solve_assignment(np.array(C))

    def test_largest_admissible_costs_solve_without_overflow(self, backend):
        rng = np.random.default_rng(43)
        for b in (1, 2, 3, 4, 7, 16, 33):
            top = np.finfo(np.float64).max / (32.0 * b)
            for S in (np.ones((b, b)), -np.ones((b, b)), np.sign(rng.standard_normal((b, b))), 2 * np.eye(b) - 1):
                with np.errstate(all="raise"):
                    res = solve_assignment(top * S)
                assert np.isfinite(res.duals_u).all() and np.isfinite(res.duals_v).all(), b
                # Entries of +-1 put every alternative 0 or >= 2 away, at either scale.
                small = solve_assignment(S)
                assert res.perm == small.perm and res.unique == small.unique, b
                assert res.z_star == pytest.approx(top * small.z_star, rel=1e-15, abs=1e-15 * b * top), b
            with pytest.raises(NonFinite):
                solve_assignment(np.full((b, b), np.nextafter(top, np.inf)))


class TestMatchingLoss:
    def test_frozen_example(self):
        logP = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        Y = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss, grad = matching_loss(logP, Y)
        # The optimal bijection pairs row 0 with reference 1 and row 1 with
        # reference 0, so the loss is -log(0.9) - log(0.8) and each gradient
        # row is minus its matched reference row.
        assert loss == pytest.approx(-np.log(0.9) - np.log(0.8), abs=1e-12)
        assert np.array_equal(grad, -np.eye(2))

    def test_gradient_rows_are_matched_references(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            b, d = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            logits = rng.standard_normal((b, d))
            logP = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            Y = np.eye(d)[rng.integers(0, d, size=b)]
            loss, grad = matching_loss(logP, Y)
            C = -(np.maximum(logP, np.log(1e-12)) @ Y.T)
            res = solve_assignment(C)
            assert loss == pytest.approx(res.z_star, abs=1e-12)
            assert np.array_equal(grad, -Y[list(res.perm)])

    def test_single_row_equals_cross_entropy(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            d = int(rng.integers(2, 8))
            logits = rng.standard_normal((1, d))
            logP = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            k = int(rng.integers(0, d))
            Y = np.eye(d)[[k]]
            loss, grad = matching_loss(logP, Y)
            assert loss == pytest.approx(-logP[0, k], abs=1e-12)
            assert np.array_equal(grad, -Y)

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError):
            matching_loss(np.zeros((2, 2)), np.eye(2))

    def test_nan_and_posinf_rejected(self):
        Y = np.eye(2)
        bad = np.log(np.array([[0.5, 0.5], [0.5, 0.5]]))
        bad_nan = bad.copy()
        bad_nan[0, 0] = np.nan
        with pytest.raises(NonFinite):
            matching_loss(bad_nan, Y)
        bad_inf = bad.copy()
        bad_inf[0, 0] = np.inf
        with pytest.raises(NonFinite):
            matching_loss(bad_inf, Y)

    def test_neginf_is_floored_not_rejected(self):
        logP = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
        loss, grad = matching_loss(logP, np.eye(2))
        assert np.isfinite(loss)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            matching_loss(np.zeros((2, 3)), np.eye(2))

    def test_costs_whose_sums_overflow_rejected(self):
        # Each pair cost is a finite 1.4e308; the loss, a sum of two, is not.
        with pytest.raises(NonFinite, match="overflow"):
            matching_loss(np.log(np.full((2, 2), 0.5)), np.full((2, 2), 1e308))

    def test_gradient_matches_central_differences(self):
        # Differentiate through the log-softmax, since the loss only accepts
        # normalized rows; random logits keep the optimum away from ties.
        rng = np.random.default_rng(37)
        for _ in range(10):
            b, d = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            Y = np.eye(d)[rng.integers(0, d, size=b)]
            logits = rng.standard_normal((b, d))

            def f(x):
                return matching_loss(x - np.log(np.exp(x).sum(axis=1, keepdims=True)), Y)[0]

            logP = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            _, grad = matching_loss(logP, Y)
            got = grad - np.exp(logP) * grad.sum(axis=1, keepdims=True)
            assert np.allclose(got, central_fd(f, logits, eps=1e-7), atol=1e-6)

    def test_floored_matched_entry_has_zero_gradient(self):
        # logP[0, 1] = log 1e-15 is below the log floor, so the loss is flat
        # in it; the matched reference must not leak a gradient there.
        logP = np.log(np.array([[1.0 - 1e-15, 1e-15]]))
        Y = np.array([[0.0, 1.0]])

        def f(t):
            x = logP.copy()
            x[0, 1] = t
            return matching_loss(x, Y)[0]

        _, grad = matching_loss(logP, Y)
        eps = 1e-3
        fd = (f(logP[0, 1] + eps) - f(logP[0, 1] - eps)) / (2.0 * eps)
        assert fd == 0.0
        assert grad[0, 1] == fd
        assert np.array_equal(grad, np.zeros((1, 2)))


def _reference_matching_loss(logP, Y):
    # Written out as the oracle: the raw numpy solve, then the lexicographic
    # refinement, then the matched reference rows, zero where logP is floored.
    C = -(np.maximum(logP, np.log(1e-12)) @ Y.T)
    perm = _refined_reference(C)[0]
    return float(C[np.arange(C.shape[0]), perm].sum()), -Y[perm] * (logP > np.log(1e-12))


def _log_softmax(x):
    return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


def _bag_stacks():
    rng = np.random.default_rng(41)
    d = 6
    for b in (1, 2, 4, 7, 16):
        k = 9
        labels = rng.integers(0, d, size=(k, b))
        yield "random", _log_softmax(rng.standard_normal((k, b, d))), np.eye(d)[labels]
        # Every row the same distribution: every bijection costs the same.
        yield "uniform", np.full((k, b, d), -np.log(d)), np.eye(d)[labels]
        yield "duplicate labels", _log_softmax(rng.standard_normal((k, b, d))), np.eye(d)[labels % 2]
        # Entries at or below the log floor all cost the same after flooring.
        floored = _log_softmax(np.where(rng.random((k, b, d)) < 0.5, -60.0, rng.standard_normal((k, b, d))))
        yield "log floor", floored, np.eye(d)[labels]
        soft = rng.dirichlet(np.ones(d), size=(k, b))
        yield "soft targets", _log_softmax(rng.integers(-2, 2, size=(k, b, d)).astype(np.float64)), soft
        # Distinct labels and 0/1 logits: ties between different labels,
        # where the tie-break changes the gradient.
        distinct = np.eye(16)[np.argsort(rng.random((k, 16)), axis=1)[:, :b]]
        yield "tied distinct labels", _log_softmax(rng.integers(0, 2, size=(k, b, 16)).astype(np.float64)), distinct


class TestStackedMatchingLoss:
    def test_stack_is_bytewise_equal_to_single_calls_and_the_reference(self, backend):
        refined = 0
        for family, logP, Y in _bag_stacks():
            zs, grads = matching_loss(logP, Y)
            assert zs.dtype == np.float64 and zs.shape == (logP.shape[0],), family
            assert grads.dtype == np.float64 and grads.shape == logP.shape, family
            for t in range(logP.shape[0]):
                z, g = matching_loss(logP[t], Y[t])
                ref_z, ref_g = _reference_matching_loss(logP[t], Y[t])
                assert type(z) is float, family
                assert np.float64(z).tobytes() == zs[t].tobytes() == np.float64(ref_z).tobytes(), family
                assert g.tobytes() == grads[t].tobytes() == ref_g.tobytes(), family
                C = -(np.maximum(logP[t], np.log(1e-12)) @ Y[t].T)
                raw_g = -Y[t][_raw_kernel_many(C[None])[0][0]] * (logP[t] > np.log(1e-12))
                refined += not np.array_equal(raw_g, ref_g)
        # The families must include ties whose tie-break changes the answer.
        assert refined > 0

    def test_one_kernel_dispatch_counts_one_solve_per_bag(self, monkeypatch):
        logP, Y = next(stack for stack in _bag_stacks() if stack[0] == "duplicate labels")[1:]
        dispatches = []
        many = _kernels.assignment_kernel_many

        def counted(Cs):
            dispatches.append(Cs.shape)
            return many(Cs)

        monkeypatch.setattr(_kernels, "assignment_kernel_many", counted)
        reset_invocations()
        matching_loss(logP, Y)
        assert dispatches == [(logP.shape[0], logP.shape[1], logP.shape[1])]
        assert invocations()["assignment"] == logP.shape[0]

    @pytest.mark.parametrize(
        "shapes",
        [
            ((2, 3, 4), (3, 3, 4)),  # stack sizes differ
            ((2, 3, 4), (2, 2, 4)),  # bag sizes differ
            ((3, 4), (1, 3, 4)),  # 2-D against 3-D
            ((1, 2, 3, 4), (1, 2, 3, 4)),  # 4-D
            ((0, 3, 4), (0, 3, 4)),  # empty stack
            ((0, 4), (0, 4)),  # empty bag
        ],
    )
    def test_bad_stack_shapes_rejected(self, shapes):
        logP, Y = (np.full(shape, -np.log(shape[-1])) for shape in shapes)
        with pytest.raises(DimensionMismatch):
            matching_loss(logP, Y)

    def test_invalid_entries_in_a_stack_rejected(self):
        logP = np.full((3, 2, 2), -np.log(2.0))
        bad = logP.copy()
        bad[2, 1, 0] = np.nan
        with pytest.raises(NonFinite):
            matching_loss(bad, np.eye(2)[None].repeat(3, axis=0))
        with pytest.raises(ValueError):
            matching_loss(logP + 0.5 * (np.arange(3) == 1)[:, None, None], np.eye(2)[None].repeat(3, axis=0))


def _take_along_axis_matching_loss(logP, Y):
    # The gathers matching_loss made with np.take_along_axis, kept as the
    # oracle for its plain-index gathers: the same kernel call, then the
    # matched costs and the matched reference rows.
    Cs, active = _log_costs(logP, Y)
    perms = _kernels.assignment_kernel_many(Cs)[0]
    zs = np.take_along_axis(Cs, perms[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return zs, -np.take_along_axis(Y, perms[:, :, None], axis=1) * active


def _gather_stacks(k, b):
    rng = np.random.default_rng(1000 * k + b)
    d = b + 3
    labels = rng.integers(0, d, size=(k, b))
    yield "random", _log_softmax(rng.standard_normal((k, b, d))), np.eye(d)[labels]
    # One class per row at log 1: every other entry is -inf or below the log
    # floor, so the costs take two values and tie wherever labels repeat.
    peaked = np.where(rng.random((k, b, d)) < 0.5, -np.inf, np.log(1e-13))
    peaked[np.arange(k)[:, None], np.arange(b), rng.integers(0, d, size=(k, b))] = 0.0
    yield "floored", peaked, np.eye(d)[labels % 2]
    # Uniform rows against integer reference rows: the costs are integer
    # multiples of log d, tied wherever two reference rows sum alike.
    integer_rows = rng.integers(0, 3, size=(k, b, d)).astype(np.float64)
    yield "tied integer multiples", np.full((k, b, d), -np.log(d)), integer_rows


class TestMatchingLossGathers:
    @pytest.mark.parametrize("k", [1, 8, 64])
    def test_bytewise_equal_to_take_along_axis(self, k):
        for b in (*range(1, 9), 16, 33):
            for family, logP, Y in _gather_stacks(k, b):
                where = (family, k, b)
                zs, grads = matching_loss(logP, Y)
                want_zs, want_grads = _take_along_axis_matching_loss(logP, Y)
                assert zs.shape == want_zs.shape and zs.tobytes() == want_zs.tobytes(), where
                assert grads.shape == want_grads.shape and grads.tobytes() == want_grads.tobytes(), where
                # A 2-D bag is a stack of one.
                z, g = matching_loss(logP[0], Y[0])
                assert np.float64(z).tobytes() == want_zs[0].tobytes(), where
                assert g.tobytes() == want_grads[0].tobytes(), where

    @pytest.mark.parametrize(
        "shift",
        [0.0, 5e-7, -5e-7, 2e-6, -2e-6, -np.inf, 700.0, 1e3, -1e3],
        ids=["0", "+5e-7", "-5e-7", "+2e-6", "-2e-6", "-inf", "+700", "+1e3", "-1e3"],
    )
    def test_normalization_verdict_matches_logaddexp(self, shift):
        rng = np.random.default_rng(53)
        logP = _log_softmax(rng.standard_normal((4, 3, 5)))
        logP[1, 2] += shift  # one row of the stack off by shift
        Y = np.eye(5)[rng.integers(0, 5, size=(4, 3))]
        with np.errstate(all="ignore"):
            reject = bool(np.any(np.abs(np.logaddexp.reduce(logP, axis=-1)) > 1e-6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in ((logP, Y), (logP[1], Y[1])):
                if reject:
                    with pytest.raises(InvalidInput, match="normalized"):
                        matching_loss(*args)
                else:
                    matching_loss(*args)


@st.composite
def _tie_heavy_costs(draw):
    b = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 1e-10, 0.3e-9, 0.45e-9, 0.6e-9, 1e-9]))
    cells = draw(st.lists(st.integers(0, 3), min_size=b * b, max_size=b * b))
    return scale * np.array(cells, dtype=np.float64).reshape(b, b)


_LOGP_MSG = "log-probabilities must not contain NaN or +inf"
_Y_MSG = "reference rows must be finite"
_NORM_MSG = "each logP row must be a normalized log-distribution"


def _verdict_stack():
    # Bag 1 puts every row's mass on class 0, so its logP columns are 0 and
    # -inf; no reference row of any bag holds class 3.
    rng = np.random.default_rng(59)
    logP = _log_softmax(rng.standard_normal((3, 3, 4)))
    logP[1] = [0.0, -np.inf, -np.inf, -np.inf]
    Y = np.eye(4)[[[0, 1, 2], [0, 1, 2], [2, 2, 0]]]
    return logP, Y


_INF = np.inf
# Each case overwrites entries or rows of bag 1: (logP edits, Y edits, the
# error, its message).
_VERDICTS = {
    "logP NaN where Y is 0": ({(2, 3): np.nan}, {}, NonFinite, _LOGP_MSG),
    "logP +inf where Y is 0": ({(2, 3): _INF}, {}, NonFinite, _LOGP_MSG),
    "Y NaN where logP is 0": ({}, {(0, 0): np.nan}, NonFinite, _Y_MSG),
    "Y +inf where logP is 0": ({}, {(0, 0): _INF}, NonFinite, _Y_MSG),
    "Y -inf where logP is 0": ({}, {(0, 0): -_INF}, NonFinite, _Y_MSG),
    "Y NaN where logP is -inf": ({}, {(1, 1): np.nan}, NonFinite, _Y_MSG),
    "Y +inf where logP is -inf": ({}, {(1, 1): _INF}, NonFinite, _Y_MSG),
    "Y -inf where logP is -inf": ({}, {(1, 1): -_INF}, NonFinite, _Y_MSG),
    "Y checked before logP": ({(2, 3): np.nan}, {(1, 1): np.nan}, NonFinite, _Y_MSG),
    "logP NaN checked before normalization": ({0: [1.0, -_INF, -_INF, -_INF], (2, 3): np.nan}, {}, NonFinite, _LOGP_MSG),
    "a row of -inf": ({0: -_INF}, {}, InvalidInput, _NORM_MSG),
    "a row shifted by +700": ({0: [700.0, -_INF, -_INF, -_INF]}, {}, InvalidInput, _NORM_MSG),
    "a row whose exp overflows": ({0: [710.0, -_INF, -_INF, -_INF]}, {}, InvalidInput, _NORM_MSG),
    "costs that overflow to inf": ({}, {1: [0.0, 1e307, 0.0, 0.0]}, NonFinite, "cost matrix must be finite"),
    "costs too large to sum": (
        {},
        {1: [0.0, 1e306, 0.0, 0.0]},
        NonFinite,
        "costs up to 2.76e+307 can overflow a sum over a 3x3 matching",
    ),
    "unnormalized and cost-overflowing": (
        {0: [1.0, -_INF, -_INF, -_INF]},
        {1: [0.0, 1e307, 0.0, 0.0]},
        InvalidInput,
        _NORM_MSG,
    ),
}


class TestMatchingLossVerdicts:
    @pytest.mark.parametrize("case", sorted(_VERDICTS))
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_first_failing_check_names_the_fault(self, case, ndim):
        logP_edits, Y_edits, error, message = _VERDICTS[case]
        logP, Y = _verdict_stack()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matching_loss(logP, Y)  # the undamaged stack passes
            for array, edits in ((logP[1], logP_edits), (Y[1], Y_edits)):
                for index, value in edits.items():
                    array[index] = value
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                matching_loss(*((logP, Y) if ndim == 3 else (logP[1], Y[1])))

    def test_normalization_wins_across_bags(self):
        # One bag unnormalized, another overflowing its costs: as for one
        # bag, the normalization check comes first.
        logP, Y = _verdict_stack()
        logP[0, 0] += 1.0
        Y[1, 1] *= 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=f"^{re.escape(_NORM_MSG)}$"):
                matching_loss(logP, Y)


class TestLexRefinedKernel:
    def test_slack_is_rounded_in_the_reference_order(self, backend):
        # Slacks here land within rounding of the tight threshold tol / 5:
        # (C - u) - v and C - (u + v) disagree on which edges are tight, and
        # so on the refined matching.  Both backends take numpy's order.
        C = np.array(
            [
                [0.10000000020000001, 0.1, 1.1000000002, 0.10000000020000001, 0.20000000010000002],
                [0.3, 0.3000000001, 3.3000000002, 0.3000000002, 0.2],
                [1.1, 0.10000000020000001, 3.3, 0.7, 0.10000000020000001],
                [0.7000000001, 0.7, 1.1000000002, 0.2000000002, 0.1000000001],
                [0.3000000002, 0.7, 3.3000000002, 1.1000000002, 0.2],
            ]
        )
        assert _kernels.assignment_kernel(C)[0].tolist() == _refined_reference(C)[0].tolist() == [3, 0, 1, 2, 4]

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(C=_tie_heavy_costs())
    def test_perm_is_the_lex_min_perfect_matching_of_the_tight_graph(self, C):
        # Enumeration in lexicographic order: the first permutation whose
        # every edge has slack <= tol / b under the kernel's own duals.
        perm, u, v, _ = _kernels.assignment_kernel(C)
        slack = C - u[:, None] - v[None, :]
        b = C.shape[0]
        want = next(p for p in itertools.permutations(range(b)) if all(slack[i, p[i]] <= 1e-9 / b for i in range(b)))
        assert tuple(perm.tolist()) == want

    def test_a_matching_dearer_by_more_than_tol_is_not_taken(self, backend):
        # The lex-smaller matching costs 1.2e-9 more than the optimum, beyond
        # tol.  Each of its edges has slack 0.6e-9 <= tol, but above tol / 2,
        # so the kernel keeps the optimum and certifies it unique.
        C = np.array([[0.6e-9, 0.0], [0.0, 0.6e-9]])
        assert _raw_kernel_many(C[None])[0][0].tolist() == [1, 0]
        perms, _, _, unique = _kernels.assignment_kernel_many(C[None])
        assert perms[0].tolist() == [1, 0] and unique.tolist() == [True]
        res = solve_assignment(C)
        assert res.perm == (1, 0) and res.z_star == 0.0 and res.unique is True
        assert matching_loss(np.log(np.full((2, 2), 0.5)), np.eye(2))[1].tolist() == (-np.eye(2)).tolist()

    def test_tie_break_keeps_the_optimum(self, backend):
        # The refined matching costs at most the dual sum + tol, so within
        # tol of the minimum, on the families whose slacks sit near tol.
        # Either backend returns the numpy reference's matching and duals.
        for family, C in _certificate_instances([(b, 10) for b in range(1, 9)], seed=73):
            res = solve_assignment(C)
            perm, u, v = _refined_reference(C)
            assert np.array(res.perm).tobytes() == perm.tobytes(), (family, C.shape)
            assert res.duals_u.tobytes() == u.tobytes() and res.duals_v.tobytes() == v.tobytes(), (family, C.shape)
            z, argmins = enumerate_permutations(C)
            assert res.z_star <= z + 1e-9, (family, C.shape)
            assert abs(res.duals_u.sum() + res.duals_v.sum() - res.z_star) <= 1e-9, (family, C.shape)
            assert res.unique == (argmins == [res.perm]), (family, C.shape)


class TestFilterBag:
    def test_accepts_distinct_and_rejects_collapsed(self):
        Y = np.eye(4)
        assert filter_bag(Y, 1.0)
        Y2 = Y.copy()
        Y2[1] = Y2[0]
        assert not filter_bag(Y2, 1.0)
        assert filter_bag(Y2, 0.75)

    def test_integer_threshold_boundary_is_accepted(self):
        # 3 distinct rows out of 4 at threshold 0.75 sits exactly on the bound.
        Y = np.eye(4)
        Y[3] = Y[0]
        assert filter_bag(Y, 0.75)
        assert not filter_bag(Y, 0.8)

    def test_one_dim_rejected(self):
        with pytest.raises(DimensionMismatch):
            filter_bag(np.ones(3), 0.5)

    def test_other_ranks_rejected(self):
        with pytest.raises(DimensionMismatch):
            filter_bag(np.ones((1, 2, 3, 4)), 0.5)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
    def test_bag_without_rows_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            filter_bag(np.zeros(shape), 0.5)

    def test_empty_stack_gives_an_empty_mask(self):
        mask = filter_bag(np.zeros((0, 4, 3)), 0.5)
        assert mask.shape == (0,) and mask.dtype == bool

    @staticmethod
    def _row_pool(d, rng):
        # Few distinct rows, so bags repeat them: one-hot rows and their
        # -0.0 twins (equal to them), 0.0 and -0.0 rows, rows holding NaN
        # (equal to nothing, themselves included) and soft rows.
        eye = np.eye(d)
        nan_row = eye[0].copy()
        nan_row[-1] = np.nan
        return np.vstack(
            [eye, np.where(eye == 0.0, -0.0, eye), np.zeros(d), np.full(d, -0.0), nan_row, rng.dirichlet(np.ones(d), 2)]
        )

    @pytest.mark.parametrize("b", range(1, 17))
    def test_masks_match_a_scalar_count_of_distinct_rows(self, b):
        rng = np.random.default_rng(83 + b)
        for d in range(1, 13):
            pool = self._row_pool(d, rng)
            Ys = pool[rng.integers(0, len(pool), size=(30, b))]
            counts = distinct_row_counts(Ys)
            # One threshold per possible count pins the count itself.
            for threshold in np.arange(b + 1) / b:
                want = np.array([c >= threshold * b - 1e-9 for c in counts])
                assert filter_bag(Ys, threshold).tobytes() == want.tobytes(), (b, d, threshold)
                for t in range(3):
                    assert filter_bag(Ys[t], threshold) is bool(want[t]), (b, d, threshold, t)
