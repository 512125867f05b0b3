"""Bad input ends in a typed error.

Every argument check in the library raises a ``CombgradError`` (the
argument checks raise ``InvalidInput``, which is also a ``ValueError``), and
random damaged arrays fed to the public entry points either give a result
or raise a ``CombgradError``: never another exception, never a numpy
warning.  Assignment results also keep the tie contract: z* is within tol
of the minimum found by enumeration.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combgrad import (
    AlignGrid,
    CombgradError,
    InvalidInput,
    LPSpec,
    check_lp_grads,
    filter_bag,
    gsa_loss,
    matching_loss,
    solve_assignment,
    solve_gsa,
    solve_lp,
    supergradient_check,
    tape,
)
from combgrad.alignment import check_gap_factor
from combgrad.experiments import BagDatasetSpec, SeqTaskSpec, TrainConfig
from combgrad.experiments.bags import make_bags, train_bags
from combgrad.experiments.seq import train_seq

from oracles import enumerate_permutations


def _duplicate_parameter(tmp_path, monkeypatch):
    store = tape.ParamStore()
    store.add("w", np.zeros(2))
    store.add("w", np.zeros(2))


def _foreign_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    path.write_text("not a checkpoint\n")
    tape.load_checkpoint(str(path))


def _checkpoint_reading(body):
    def load(tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        path.write_text("combgrad-params v1\n" + body)
        tape.load_checkpoint(str(path))

    return load


# min x1 + 2 x2 subject to x1 + x2 = 1: unique and non-degenerate.
_LP = LPSpec(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0])

_ARGUMENT_CHECKS = {
    "check_gap_factor": lambda *_: check_gap_factor(1.0),
    "check_gap_factor text": lambda *_: AlignGrid(m=np.ones((2, 2)), gamma="x"),
    "supergradient_check trials": lambda *_: supergradient_check(lambda w: 0.0, np.zeros(1), np.zeros(1), trials=0),
    "supergradient_check tol": lambda *_: supergradient_check(lambda w: 0.0, np.zeros(1), np.zeros(1), tol=np.nan),
    "supergradient_check trials bool": lambda *_: supergradient_check(lambda w: 0.0, np.zeros(1), np.zeros(1), trials=True),
    "supergradient_check tol bool": lambda *_: supergradient_check(lambda w: 0.0, np.zeros(1), np.zeros(1), tol=False),
    "check_lp_grads eps": lambda *_: check_lp_grads(_LP, solve_lp(_LP), eps=0.0),
    "check_lp_grads rtol": lambda *_: check_lp_grads(_LP, solve_lp(_LP), rtol=-1.0),
    "check_lp_grads eps bool": lambda *_: check_lp_grads(_LP, solve_lp(_LP), eps=True),
    "check_lp_grads rtol bool": lambda *_: check_lp_grads(_LP, solve_lp(_LP), rtol=False),
    "adam_step lr": lambda *_: tape.adam_step(tape.ParamStore(), lr=np.nan),
    "adam_step lr bool": lambda *_: tape.adam_step(tape.ParamStore(), lr=True),
    "tempered softmax tau": lambda *_: tape.gumbel_softmax_st(tape.Tensor(np.zeros((1, 2))), 0.0, np.random.default_rng(0)),
    "tempered softmax tau bool": lambda *_: tape.softmax_t(tape.Tensor(np.zeros((1, 2))), True),
    "make_bags bag_size": lambda *_: make_bags(np.zeros((4, 2)), np.zeros(4, np.int64), 2, 0, 0.5, 0),
    "make_bags bag_size bool": lambda *_: make_bags(np.zeros((4, 2)), np.zeros(4, np.int64), 2, True, 0.5, 0),
    "filter_bag threshold text": lambda *_: filter_bag(np.eye(2), "x"),
    "filter_bag threshold bool": lambda *_: filter_bag(np.eye(2), True),
    "matching_loss normalization": lambda *_: matching_loss(np.zeros((2, 2)), np.eye(2)),
    "TrainConfig.validate": lambda *_: TrainConfig(loss="hinge").validate(),
    "TrainConfig.from_dict": lambda *_: TrainConfig.from_dict({"loss": "matching", "momentum": 0.9}),
    "TrainConfig bag_size text": lambda *_: TrainConfig.from_dict({"loss": "matching", "bag_size": "x"}),
    "TrainConfig lr text": lambda *_: TrainConfig.from_dict({"lr": "0.1"}),
    "TrainConfig lr infinite": lambda *_: TrainConfig(lr=np.inf).validate(),
    "TrainConfig epochs fraction": lambda *_: TrainConfig.from_dict({"epochs": 2.5}),
    "TrainConfig bag_size fraction": lambda *_: TrainConfig(bag_size=2.5).validate(),
    "TrainConfig batch_size fraction": lambda *_: TrainConfig(batch_size=2.5).validate(),
    "TrainConfig seed bool": lambda *_: TrainConfig(seed=True).validate(),
    "TrainConfig seed negative": lambda *_: TrainConfig(seed=-1).validate(),
    "TrainConfig gamma text": lambda *_: TrainConfig(gamma="1.5").validate(),
    "TrainConfig threshold None": lambda *_: TrainConfig(threshold=None).validate(),
    "TrainConfig feed None": lambda *_: TrainConfig(feed=None).validate(),
    "BagDatasetSpec.validate": lambda *_: BagDatasetSpec(num_classes=1).validate(),
    "SeqTaskSpec.validate": lambda *_: SeqTaskSpec(vocab=2).validate(),
    "BagDatasetSpec n fraction": lambda *_: BagDatasetSpec(n=100.5).validate(),
    "BagDatasetSpec separation NaN": lambda *_: BagDatasetSpec(separation=float("nan")).validate(),
    "BagDatasetSpec seed negative": lambda *_: BagDatasetSpec(seed=-1).validate(),
    "BagDatasetSpec n without a held-out sample": lambda *_: BagDatasetSpec(n=2, num_classes=2).validate(),
    "SeqTaskSpec vocab text": lambda *_: SeqTaskSpec(vocab="x").validate(),
    "SeqTaskSpec seed negative": lambda *_: SeqTaskSpec(seed=-1).validate(),
    "SeqTaskSpec n without a held-out example": lambda *_: SeqTaskSpec(n=2).validate(),
    "train_bags loss": lambda *_: train_bags(TrainConfig(loss="gsa"), BagDatasetSpec(n=20)),
    "train_seq loss": lambda *_: train_seq(TrainConfig(loss="matching"), SeqTaskSpec(n=4)),
    "train_seq one-hot cap": lambda *_: train_seq(TrainConfig(loss="mle"), SeqTaskSpec(vocab=10**12)),
    "ParamStore.add": _duplicate_parameter,
    "load_checkpoint": _foreign_checkpoint,
    "load_checkpoint param without values": _checkpoint_reading("seed 0\nstep 1\nparam w 1 2\n"),
    "load_checkpoint bare seed": _checkpoint_reading("seed\nend\n"),
    "load_checkpoint non-numeric value": _checkpoint_reading("param w 1 2\n0.5 abc\nend\n"),
    "load_checkpoint value count": _checkpoint_reading("param w 1 2\n0.5 1.5 2.5\nend\n"),
    "load_checkpoint without end": _checkpoint_reading("seed 0\nstep 1\nparam w 1 2\n0.5 1.5\n"),
}


@pytest.mark.parametrize("site", sorted(_ARGUMENT_CHECKS))
def test_each_argument_check_raises_a_combgrad_error(site, tmp_path, monkeypatch):
    with pytest.raises(CombgradError) as info:
        _ARGUMENT_CHECKS[site](tmp_path, monkeypatch)
    # Still a ValueError, so callers that catch that keep working.
    assert isinstance(info.value, InvalidInput) and isinstance(info.value, ValueError)


# ---------------------------------------------------------------------------
# fuzz: the public entry points on damaged arrays
# ---------------------------------------------------------------------------

# Clean arrays reach the solvers; damaged ones carry NaN, +-inf, +-1e308 or
# 1e-300.  Tied arrays of 0.3e-9 to 0.6e-9 put slacks near the tie
# thresholds tol and tol / b.
# Each strategy mostly draws well-formed input, so the solvers run, and
# otherwise any shape: empty, mismatched or of the wrong rank.
_TIED = st.sampled_from([0.0, 0.3e-9, 0.35e-9, 0.45e-9, 0.6e-9])
_CLEAN = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, 1.0]), _TIED)
_DAMAGED = st.one_of(_CLEAN, st.sampled_from([1e-300, 1e308, -1e308, np.inf, -np.inf, np.nan]))
_GAMMAS = st.one_of(st.floats(1.5, 4.0), st.floats(1.5, 4.0), _DAMAGED)


@st.composite
def _shape(draw, ndims=(1, 3), sizes=(0, 4)):
    return tuple(draw(st.integers(*sizes)) for _ in range(draw(st.integers(*ndims))))


@st.composite
def _array(draw, shape):
    size = int(np.prod(shape))
    values = draw(st.sampled_from([_CLEAN, _CLEAN, _TIED, _DAMAGED]))
    return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.float64).reshape(shape)


@st.composite
def _rows_pair(draw):
    # Score rows and reference rows: one shape, one class dimension, or
    # independent shapes.
    shape = draw(_shape((2, 3), (1, 4)) | _shape())
    other = shape[:-2] + (draw(st.integers(1, 4)),) + shape[-1:] if len(shape) > 1 else shape
    return draw(_array(shape)), draw(_array(shape) | _array(other) | _shape().flatmap(_array))


@st.composite
def _lp(draw):
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    shapes = draw(st.sampled_from([((n,), (m, n), (m,))] * 2 + [((n,), (n, m), (m + 1,))]))
    return tuple(draw(_array(shape)) for shape in shapes)


_SQUARE = st.integers(0, 6).flatmap(lambda b: _array((b, b)))
_CALLS = st.one_of(
    st.tuples(st.just("solve_assignment"), _SQUARE | _shape().flatmap(_array)),
    st.tuples(st.just("matching_loss"), _rows_pair(), st.booleans()),
    st.tuples(st.just("solve_gsa"), (_shape((2, 2), (1, 5)) | _shape()).flatmap(_array), _GAMMAS),
    st.tuples(st.just("gsa_loss"), _rows_pair(), _GAMMAS, st.booleans()),
    st.tuples(st.just("solve_lp"), _lp()),
)


def _log_rows(x):
    # Normalized rows where the draw allows it, so matching_loss gets past
    # its normalization check; damaged values stay damaged.
    with np.errstate(all="ignore"):
        return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


def _call(name, *args):
    if name == "solve_assignment":
        return solve_assignment(args[0])
    if name == "matching_loss":
        (logP, Y), normalize = args
        return matching_loss(_log_rows(logP) if normalize else logP, Y)
    if name == "solve_gsa":
        return solve_gsa(AlignGrid(m=args[0], gamma=args[1]))
    if name == "gsa_loss":
        (logP, Y), gamma, normalize = args
        return gsa_loss(_log_rows(logP) if normalize else logP, Y, gamma)
    return solve_lp(LPSpec(*args[0]))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(call=_CALLS)
def test_entry_points_return_or_raise_a_combgrad_error(call):
    name, *args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = _call(name, *args)
        except CombgradError:
            return
    if name == "solve_assignment" and out.M.shape[0] <= 6:
        # The tie contract: the refined matching is within tol of the minimum.
        z, argmins = enumerate_permutations(args[0])
        assert out.z_star <= z + 1e-9
        assert out.unique == (argmins == [out.perm])
