"""Bad input ends in a typed error.

Every argument check in the library raises a ``CombgradError`` (the
argument checks raise ``InvalidInput``, which is also a ``ValueError``), and
random damaged arrays fed to the public entry points either give a result
or raise a ``CombgradError``: never another exception, never a numpy
warning.  Assignment results also keep the tie contract: z* is within tol
of the minimum found by enumeration.  Every public callable, fed input that
is not a real array at all (ragged lists, object arrays, complex arrays,
strings, None), also returns or raises a ``CombgradError``, and no complex
array yields a result.  Only ``core`` decides what counts as a number.
"""

import dataclasses
import inspect
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combgrad
from combgrad import (
    AlignGrid,
    CombgradError,
    InvalidInput,
    LPSpec,
    NonFinite,
    SolverOutcome,
    build_grid,
    check_lp_grads,
    cli,
    filter_bag,
    gsa_grad_matrix,
    gsa_loss,
    matching_loss,
    random_lp,
    solve_assignment,
    solve_gsa,
    solve_lp,
    supergradient_check,
    tape,
)
from combgrad import _kernels
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
    "BagDatasetSpec separation beyond floats": lambda *_: BagDatasetSpec(separation=-(10**400)).validate(),
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
    # Input that is not a real array, and arguments of the wrong kind.
    "solve_assignment text": lambda *_: solve_assignment("abc"),
    "solve_assignment ragged": lambda *_: solve_assignment([[1, 2], [3]]),
    "solve_assignment dict": lambda *_: solve_assignment(np.array([[{}]], dtype=object)),
    "solve_assignment complex": lambda *_: solve_assignment([[1 + 1j]]),
    "matching_loss text": lambda *_: matching_loss("a", "b"),
    "matching_loss complex": lambda *_: matching_loss(np.log(np.full((2, 2), 0.5)) + 0j, np.eye(2)),
    "filter_bag text": lambda *_: filter_bag(np.array([["a", "b"], ["a", "c"]]), 0.5),
    "AlignGrid text": lambda *_: AlignGrid(m="x", gamma=1.5),
    "AlignGrid ragged": lambda *_: AlignGrid(m=[[1.0, 2.0], [3.0]], gamma=1.5),
    "build_grid text": lambda *_: build_grid("a", "b", 1.5),
    "LPSpec text": lambda *_: LPSpec(c="ab", A=[["a", "b"]], b="c"),
    "LPSpec ragged": lambda *_: LPSpec(c=[1.0, 2.0], A=[[1.0, 1.0], [1.0]], b=[1.0, 1.0]),
    "random_lp size": lambda *_: random_lp(np.random.default_rng(0), -1, 2),
    "random_lp generator": lambda *_: random_lp(None, 3, 2),
    "random_lp beyond the size cap": lambda *_: random_lp(np.random.default_rng(0), 10**7, 10**7),
    "random_lp beyond int64": lambda *_: random_lp(np.random.default_rng(0), 2**62, 1),
    "SolverOutcome unique text": lambda *_: SolverOutcome(1.0, [1.0], [1.0], "no"),
    "supergradient_check f array": lambda *_: supergradient_check(lambda w: np.zeros(2), np.zeros(2), np.zeros(2)),
    "supergradient_check f text": lambda *_: supergradient_check(lambda w: "abc", np.zeros(2), np.zeros(2)),
    "supergradient_check f complex": lambda *_: supergradient_check(
        lambda w: np.complex128(1 + 1j), np.zeros(2), np.zeros(2)
    ),
    "supergradient_check callable": lambda *_: supergradient_check(None, np.zeros(1), np.zeros(1)),
    "TrainConfig.from_dict mapping": lambda *_: TrainConfig.from_dict([]),
    "solve_lp spec": lambda *_: solve_lp(None),
    "gsa_grad_matrix grid": lambda *_: gsa_grad_matrix(None, None),
}


@pytest.mark.parametrize("site", sorted(_ARGUMENT_CHECKS))
def test_each_argument_check_raises_a_combgrad_error(site, tmp_path, monkeypatch):
    with pytest.raises(CombgradError) as info:
        _ARGUMENT_CHECKS[site](tmp_path, monkeypatch)
    # Still a ValueError, so callers that catch that keep working.
    assert isinstance(info.value, InvalidInput) and isinstance(info.value, ValueError)


# Values that are not finite, where a comparison would silently pass: a
# NaN violation never exceeds the worst one found.
_NON_FINITE_CHECKS = {
    "supergradient_check f NaN near w": lambda: supergradient_check(
        lambda w: np.nan if w[0] > 1 else 0.0, np.ones(2), np.zeros(2)
    ),
    "supergradient_check f NaN everywhere": lambda: supergradient_check(lambda w: np.nan, np.ones(2), np.zeros(2)),
    "supergradient_check f infinite at w": lambda: supergradient_check(lambda w: -np.inf, np.ones(2), np.zeros(2)),
}


@pytest.mark.parametrize("site", sorted(_NON_FINITE_CHECKS))
def test_each_non_finite_check_raises_non_finite(site):
    with pytest.raises(NonFinite):
        _NON_FINITE_CHECKS[site]()


# The kernels themselves, below the public range checks: non-finite costs
# raise NonFinite from either body.  The assignment kernel's own range guard
# rejects its row of inf before the solve; a step with no finite choice,
# the guard's second line of defence, is what the alignment case reaches.
_NO_FINITE_STEP = {
    "assignment: a row of infinite costs": lambda: _kernels.assignment_kernel(np.array([[np.inf, np.inf], [1.0, 1.0]])),
    "gsa: an infinite first cell walls off the sink's backtrack": lambda: _kernels.gsa_kernel(
        np.array([[np.inf, 1.0, 2.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0]]), 1.5
    ),
}


@pytest.mark.parametrize("site", sorted(_NO_FINITE_STEP))
def test_a_kernel_without_a_finite_step_raises_non_finite(site, backend):
    with pytest.raises(NonFinite):
        _NO_FINITE_STEP[site]()


def _outcome(body, *args):
    try:
        return [a.tobytes() for a in body(*args)]
    except NonFinite:
        return "NonFinite"


@pytest.mark.skipif(_kernels.c_library() is None, reason="the C kernel library could not be built")
def test_both_kernel_bodies_fail_alike_on_infinite_costs():
    # Either both bodies raise, or both return the same bytes: an
    # unreachable node reads no path count from outside the lattice.
    rng = np.random.default_rng(83)
    failed = {"assignment": 0, "gsa": 0}
    for _ in range(200):
        b = int(rng.integers(1, 6))
        Cs = rng.integers(0, 3, size=(1, b, b)).astype(np.float64)
        Cs[rng.random(Cs.shape) < 0.3] = np.inf
        outcome = _outcome(_kernels._assign_many_c, Cs)
        assert outcome == _outcome(_kernels._assign_many_py, Cs), Cs
        failed["assignment"] += outcome == "NonFinite"
        ms = rng.integers(0, 3, size=(1, *rng.integers(1, 6, size=2))).astype(np.float64)
        ms[rng.random(ms.shape) < 0.3] = np.inf
        outcome = _outcome(_kernels._gsa_many_c, ms, 1.5)
        assert outcome == _outcome(_kernels._gsa_many_py, ms, 1.5), ms
        failed["gsa"] += outcome == "NonFinite"
    assert 0 < failed["assignment"] < 200 and 0 < failed["gsa"] < 200


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


# ---------------------------------------------------------------------------
# fuzz: every public callable on input that is not a real array
# ---------------------------------------------------------------------------


def _concave(w):
    return -float(np.abs(w).sum())


def _record(obj):
    """The field values of a dataclass instance, in order."""
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


_GRID = AlignGrid(m=np.ones((2, 3)), gamma=1.5)
_LOGP = np.log(np.full((2, 3), 1.0 / 3.0))
_OUTCOME = solve_lp(_LP)
_CHECK = check_lp_grads(_LP, _OUTCOME)
_MATCHING = solve_assignment(np.eye(2))

# Each public callable but the error types, with well-formed arguments; the
# fuzz replaces any of them with junk.
_FRONT_DOOR = {
    "get_backend": (combgrad.get_backend, ()),
    "invocations": (combgrad.invocations, ()),
    "reset_invocations": (combgrad.reset_invocations, ()),
    "LPSpec": (LPSpec, _record(_LP)),
    "SolverOutcome": (combgrad.SolverOutcome, (1.0, [1.0, 0.0], [1.0], True)),
    "GenGrad": (combgrad.GenGrad, (np.ones(2),)),
    "SupergradReport": (combgrad.SupergradReport, (True, 0.0, 3)),
    "strong_duality_gap": (combgrad.strong_duality_gap, (_LP, _OUTCOME)),
    "supergradient_check": (
        lambda f, w, g, trials, tol: supergradient_check(f, w, g, trials=trials, tol=tol),
        (_concave, np.zeros(2), np.zeros(2), 3, 1e-9),
    ),
    "MatchingResult": (combgrad.MatchingResult, _record(_MATCHING)),
    "solve_assignment": (solve_assignment, (np.eye(3),)),
    "assignment_gengrad": (combgrad.assignment_gengrad, (_MATCHING,)),
    "matching_loss": (matching_loss, (np.log(np.full((2, 2), 0.5)), np.eye(2))),
    "filter_bag": (filter_bag, (np.eye(2), 0.5)),
    "AlignGrid": (AlignGrid, (np.ones((2, 3)), 1.5)),
    "AlignResult": (combgrad.AlignResult, _record(solve_gsa(_GRID))),
    "build_grid": (build_grid, (_LOGP, np.eye(3)[:2], 1.5)),
    "solve_gsa": (solve_gsa, (_GRID,)),
    "gsa_grad_matrix": (gsa_grad_matrix, (_GRID, solve_gsa(_GRID))),
    "gsa_loss": (gsa_loss, (_LOGP, np.eye(3)[:2], 1.5)),
    "solve_lp": (solve_lp, (_LP,)),
    "check_lp_grads": (
        lambda spec, outcome, eps, rtol: check_lp_grads(spec, outcome, eps=eps, rtol=rtol),
        (_LP, _OUTCOME, 1e-5, 1e-4),
    ),
    "FDReport": (combgrad.FDReport, _record(_CHECK.c_block)),
    "LPGradCheck": (combgrad.LPGradCheck, _record(_CHECK)),
    "random_lp": (random_lp, (np.random.default_rng(0), 3, 2)),
    "TrainConfig.from_dict": (TrainConfig.from_dict, ({"loss": "mle", "lr": 0.01},)),
    "TrainConfig.from_dict fields": (
        lambda loss, lr, bag_size: TrainConfig.from_dict({"loss": loss, "lr": lr, "bag_size": bag_size}),
        ("matching", 0.01, 4),
    ),
    "BagDatasetSpec": (BagDatasetSpec, _record(BagDatasetSpec())),
    "SeqTaskSpec": (SeqTaskSpec, _record(SeqTaskSpec())),
}

# The arguments read as arrays of real numbers, by position: a complex
# array there must never yield a result.
_REAL_ARRAYS = {
    "LPSpec": (0, 1, 2),
    "SolverOutcome": (1, 2),
    "GenGrad": (0,),
    "supergradient_check": (1, 2),
    "solve_assignment": (0,),
    "matching_loss": (0, 1),
    "filter_bag": (0,),
    "AlignGrid": (0,),
    "build_grid": (0, 1),
    "gsa_loss": (0, 1),
}

_ARRAY = _shape().flatmap(_array)
_JUNK = st.one_of(
    st.tuples(st.just("none"), st.none()),
    st.tuples(st.just("text"), st.text(max_size=3) | st.sampled_from(["1.5", "nan"])),
    st.tuples(st.just("ragged"), st.sampled_from([[[1.0, 2.0], [3.0]], [[0.5], []], [1.0, [2.0, 3.0]]])),
    st.tuples(
        st.just("objects"),
        st.sampled_from([[{}], [None, None], [[None, {"a": 1}]], [[1.0, None]]]).map(
            lambda x: np.array(x, dtype=object)
        ),
    ),
    st.tuples(st.just("complex"), _ARRAY.map(lambda a: a * (1 + 1j)) | st.just([[1 + 1j]])),
    st.tuples(st.just("scalar"), st.sampled_from([True, 0, -1, 2.5, np.nan, np.inf, 1e308, 1 + 1j])),
    st.tuples(st.just("floats"), _ARRAY),
)


@st.composite
def _front_door_calls(draw):
    name = draw(st.sampled_from(sorted(_FRONT_DOOR)))
    call, good = _FRONT_DOOR[name]
    args, kinds = [], []
    for arg in good:
        kind, arg = draw(_JUNK) if draw(st.booleans()) else ("good", arg)
        args.append(arg)
        kinds.append(kind)
    return name, call, args, kinds


def test_the_front_door_fuzz_covers_every_public_callable():
    entries = {
        name
        for name, obj in ((name, getattr(combgrad, name)) for name in combgrad.__all__)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, CombgradError))
    }
    assert entries <= set(_FRONT_DOOR)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(case=_front_door_calls())
def test_public_callables_return_or_raise_a_combgrad_error(case):
    name, call, args, kinds = case
    try:
        call(*args)
    except CombgradError:
        return
    assert not any(kinds[i] == "complex" for i in _REAL_ARRAYS.get(name, ())), (name, kinds)


# ---------------------------------------------------------------------------
# one rule for numbers
# ---------------------------------------------------------------------------

_BOOL_IDIOM = re.compile(r"isinstance\([^()]*,\s*bool\)")


def test_only_core_decides_that_a_bool_is_not_a_number():
    # cli._numbers keeps its own walk: numpy would read a JSON true as 1.0.
    src = Path(combgrad.__file__).parent
    lines, start = inspect.getsourcelines(cli._numbers)
    allowed = {(src / "cli.py", n) for n in range(start, start + len(lines))}
    found = [
        f"{path.relative_to(src)}:{n}"
        for path in sorted(src.rglob("*.py"))
        if path != src / "core.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _BOOL_IDIOM.search(line) and (path, n) not in allowed
    ]
    assert found == []
