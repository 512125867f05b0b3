"""Contract types: problem specs, witnesses, the duality audit, and the
supergradient check."""

import numpy as np
import pytest

from combgrad import (
    DimensionMismatch,
    LPSpec,
    NonFinite,
    SolverOutcome,
    check_lp_grads,
    strong_duality_gap,
    supergradient_check,
)
from combgrad.core import _one_hot


def small_spec():
    return LPSpec(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0])


class TestLPSpec:
    def test_shapes_and_dims(self):
        spec = small_spec()
        assert spec.num_vars == 2
        assert spec.num_constraints == 1
        assert spec.A.shape == (1, 2)

    def test_arrays_are_frozen(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            spec.c[0] = 7.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            LPSpec(c=[1.0, 2.0], A=[[1.0, 1.0, 1.0]], b=[1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            LPSpec(c=[np.nan, 2.0], A=[[1.0, 1.0]], b=[1.0])
        with pytest.raises(NonFinite):
            LPSpec(c=[1.0, 2.0], A=[[np.inf, 1.0]], b=[1.0])


class TestSolverOutcome:
    def test_witnesses_frozen_and_cast(self):
        out = SolverOutcome(z_star=np.float64(3), u_star=[1, 0], v_star=[2.0], unique=True)
        assert isinstance(out.z_star, float)
        assert out.u_star.dtype == np.float64
        with pytest.raises(ValueError):
            out.u_star[0] = 9.0

    def test_numpy_bool_stored_as_bool(self):
        assert SolverOutcome(1.0, [1.0], [1.0], np.bool_(True)).unique is True


class TestStrongDuality:
    def test_gap_value(self):
        spec = small_spec()
        out = SolverOutcome(z_star=1.0, u_star=[1.0, 0.0], v_star=[1.0], unique=True)
        assert strong_duality_gap(spec, out) == pytest.approx(0.0, abs=1e-12)


class TestWitnessSizes:
    @pytest.mark.parametrize("check", [strong_duality_gap, check_lp_grads])
    def test_witnesses_of_another_lp_rejected(self, check):
        for u, v in (([1.0, 0.0, 0.0], [1.0]), ([1.0, 0.0], [1.0, 0.0])):
            with pytest.raises(DimensionMismatch):
                check(small_spec(), SolverOutcome(1.0, u, v, True))


class TestOneHot:
    @pytest.mark.parametrize(
        "ids, depth",
        [
            (np.array(3), 5),  # 0-d
            (np.array([2, 0, 2, 6]), 7),  # 1-d, repeats included
            (np.array([[1, 0, 3], [3, 3, 2]]), 4),  # 2-d
            (np.array([-1, 0]), 3),  # negative ids count from the end
            (np.zeros(0, dtype=np.int64), 4),  # empty
            (np.zeros((3, 0), dtype=np.int64), 4),  # empty with a non-empty axis
        ],
    )
    def test_equals_identity_indexing_byte_for_byte(self, ids, depth):
        want = np.eye(depth)[ids]
        got = _one_hot(ids, depth)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_out_of_range_id_rejected(self):
        # Not written into the next row's first entry.
        with pytest.raises(IndexError):
            _one_hot(np.array([4, 0]), 4)


class TestSupergradientCheck:
    def test_concave_min_passes(self):
        # f(w) = min_i w_i is concave; the indicator of an argmin is a supergradient.
        w = np.array([1.0, 2.0, 3.0])
        g = np.array([1.0, 0.0, 0.0])
        rep = supergradient_check(lambda x: float(np.min(x)), w, g, trials=200)
        assert rep.passed and rep.worst_violation <= 1e-9

    def test_wrong_gradient_fails(self):
        w = np.array([1.0, 2.0, 3.0])
        g = np.array([0.0, 0.0, 1.0])  # not an argmin indicator
        rep = supergradient_check(lambda x: float(np.min(x)), w, g, trials=200)
        assert not rep.passed and rep.worst_violation > 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            supergradient_check(lambda x: 0.0, np.zeros(2), np.zeros(3))

    def test_empty_point_rejected(self):
        # Every trial would be skipped, reporting a pass at -inf.
        with pytest.raises(DimensionMismatch):
            supergradient_check(lambda x: 0.0, np.zeros(0), np.zeros(0))

    def test_an_error_inside_f_propagates_unchanged(self):
        with pytest.raises(ZeroDivisionError):
            supergradient_check(lambda x: 1 / 0, np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("w,g", [([np.nan, 1.0], [1.0, 0.0]), ([1.0, 2.0], [np.nan, 0.0]), ([1.0, np.inf], [1.0, 0.0])])
    def test_non_finite_point_or_gradient_rejected(self, w, g):
        # NaN violations never count, so such a check would report a pass.
        with pytest.raises(NonFinite):
            supergradient_check(lambda x: float(np.min(x)), np.array(w), np.array(g))

    def test_deterministic_given_seed(self):
        w = np.array([1.0, 2.0])
        g = np.array([1.0, 0.0])
        r1 = supergradient_check(lambda x: float(np.min(x)), w, g, trials=50, rng=np.random.default_rng(11))
        r2 = supergradient_check(lambda x: float(np.min(x)), w, g, trials=50, rng=np.random.default_rng(11))
        assert r1.worst_violation == r2.worst_violation
