"""Weakly-supervised bag learning on synthetic Gaussian clusters.

Each training bag presents b feature vectors together with the multiset of
their labels in a hidden random order; the model never sees which label
belongs to which sample.  Training minimizes the optimal-matching loss
between predicted row log-probabilities and the bag's label rows.  With
b = 1 the loss reduces to plain cross-entropy, which doubles as the
supervised baseline.  Evaluation always uses per-sample true labels — the
evaluation path takes no permutation input at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .. import tape
from ..assignment import filter_bag, matching_loss
from ..core import _F64_MAX, WHOLE, _arg, _one_hot
from ..errors import InvalidInput
from .common import MetricsRow, TrainConfig, _Checked, check_field_types, mean_loss_node, run_epochs

_HIDDEN = 64
# Caps on the data BagDatasetSpec describes, which is generated in memory.
_MAX_SAMPLES = 10**6
_MAX_MEANS = 10**6
_MAX_LABEL_ROWS = 10**7


@dataclass(frozen=True)
class BagDatasetSpec(_Checked):
    """Synthetic classification data: one spherical Gaussian per class.

    The data is generated in memory, so n is capped at 10**6 samples,
    num_classes * feature_dim, the size of the class-mean table, at 10**6,
    and n * num_classes, the size of the one-hot label rows, at 10**7.
    """

    num_classes: int = 10
    n: int = 5000
    feature_dim: int = 10
    separation: float = 1.5
    seed: int = 1729

    def validate(self) -> None:
        check_field_types(self)
        if self.num_classes < 2:
            raise InvalidInput("need at least 2 classes")
        if self.n < self.num_classes:
            raise InvalidInput("need at least one sample per class")
        if self.n < 3:
            raise InvalidInput("need at least 3 samples, so that the 80/20 split holds one out")
        if self.feature_dim < 1:
            raise InvalidInput("feature_dim must be positive")
        if self.n > _MAX_SAMPLES:
            raise InvalidInput(f"n must be at most {_MAX_SAMPLES}")
        if self.num_classes * self.feature_dim > _MAX_MEANS:
            raise InvalidInput(f"num_classes * feature_dim must be at most {_MAX_MEANS}")
        if self.n * self.num_classes > _MAX_LABEL_ROWS:
            raise InvalidInput(f"n * num_classes must be at most {_MAX_LABEL_ROWS}")
        # Compared, not np.isfinite: that raises TypeError on an int beyond the float range.
        if not -_F64_MAX <= self.separation <= _F64_MAX:
            raise InvalidInput("separation must be finite")
        if self.seed < 0:
            raise InvalidInput("seed must be non-negative")


@dataclass(frozen=True)
class BagDataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    means: np.ndarray


def _train_size(n: int) -> int:
    """How many of n samples the 80/20 split trains on."""
    return int(round(0.8 * n))


def gen_bag_dataset(spec: BagDatasetSpec) -> BagDataset:
    """Seeded Gaussian clusters with balanced labels and an 80/20 split.

    Class means are drawn as separation * N(0, I); samples add unit noise.
    Test labels stay with their samples so per-sample accuracy is always
    computable.
    """
    rng = np.random.default_rng(spec.seed)
    d, n, dim = spec.num_classes, spec.n, spec.feature_dim
    means = spec.separation * rng.standard_normal((d, dim))
    reps = -(-n // d)
    labels = np.tile(np.arange(d), reps)[:n]
    rng.shuffle(labels)
    x = means[labels] + rng.standard_normal((n, dim))
    cut = _train_size(n)
    return BagDataset(
        x_train=x[:cut],
        y_train=labels[:cut],
        x_test=x[cut:],
        y_test=labels[cut:],
        means=means,
    )


@dataclass(frozen=True)
class BagBatch:
    """A stack of m bags: features X (m, b, dim), label rows Y (m, b,
    classes) in a hidden random order per bag, and (for analysis only) the
    (m, b) permutations that scrambled them, so that row r of Y[t] is the
    label of sample hidden_sigma[t, r] of X[t]."""

    X: np.ndarray
    Y: np.ndarray
    hidden_sigma: np.ndarray


def make_bags(
    x: np.ndarray,
    y: np.ndarray,
    num_classes: int,
    bag_size: int,
    threshold: float,
    seed,
) -> BagBatch:
    """Shuffle the samples, cut them into bags of bag_size, drop the
    remainder, keep only bags meeting the distinct-class threshold, and
    scramble each kept bag's label rows by a hidden permutation.  Returns
    the kept bags as one stack."""
    _arg(bag_size, "bag_size", WHOLE)
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    order = rng.permutation(n)
    idx = order[: n - n % bag_size].reshape(-1, bag_size)
    Ys = _one_hot(y[idx], num_classes)
    kept = filter_bag(Ys, threshold)
    idx, Ys = idx[kept], Ys[kept]
    # Row by row, permuted draws the stream of one rng.permutation per bag.
    sigma = rng.permuted(np.broadcast_to(np.arange(bag_size), idx.shape), axis=1)
    return BagBatch(X=x[idx], Y=Ys[np.arange(len(sigma))[:, None], sigma], hidden_sigma=sigma)


def _init_store(config: TrainConfig, feature_dim: int, num_classes: int) -> tape.ParamStore:
    rng = np.random.default_rng(config.seed)
    store = tape.ParamStore(seed=config.seed)
    store.add("W1", rng.standard_normal((feature_dim, _HIDDEN)) / np.sqrt(feature_dim))
    store.add("b1", np.zeros(_HIDDEN))
    store.add("W2", rng.standard_normal((_HIDDEN, num_classes)) / np.sqrt(_HIDDEN))
    store.add("b2", np.zeros(num_classes))
    return store


def _logits(store: tape.ParamStore, x: np.ndarray) -> tape.Tensor:
    p = store.params
    h = tape.tanh(tape.affine(tape.Tensor(x), p["W1"], p["b1"]))
    return tape.affine(h, p["W2"], p["b2"])


def eval_accuracy(store: tape.ParamStore, x: np.ndarray, y: np.ndarray) -> float:
    """Per-sample test accuracy: the argmax of the training model's logits."""
    return float(np.mean(_logits(store, x).value.argmax(axis=1) == y))


def train_bags(config: TrainConfig, spec: BagDatasetSpec) -> Tuple[List[MetricsRow], tape.ParamStore]:
    """Run the bag experiment on `spec`'s data; returns (metrics rows,
    trained parameters).  Each argument checked itself when it was made.

    loss='matching' trains on bags; loss='mle' trains on the same streamed
    batches with the true per-sample labels (the supervised baseline with
    identical randomness).  Epochs count from 1 and abort as `run_epochs`
    describes.
    """
    if config.loss == "gsa":
        raise InvalidInput("the alignment loss does not apply to the bag task")
    b = config.bag_size
    train = _train_size(spec.n)
    if b > train:
        raise InvalidInput(f"bag_size {b} exceeds the {train} training samples, so no bag can be formed")
    # A bag holds at most min(b, classes) distinct labels; filter_bag's rule
    # with that count decides whether any bag can ever pass.
    if min(b, spec.num_classes) < config.threshold * b - 1e-9:
        raise InvalidInput(
            f"threshold {config.threshold} asks for more distinct labels than a bag of {b}"
            f" drawn from {spec.num_classes} classes can hold, so no bag can be kept"
        )
    data = gen_bag_dataset(spec)
    store = _init_store(config, spec.feature_dim, spec.num_classes)
    bags_per_step = max(1, config.batch_size // b)

    def epoch_losses(epoch: int):
        bags = make_bags(data.x_train, data.y_train, spec.num_classes, b, config.threshold, [config.seed, 7919, epoch])
        Ys = bags.Y
        if config.loss == "mle":
            # Unscrambled: Y[t][argsort(sigma[t])] is bag t's labels in sample order.
            unsorted = np.argsort(bags.hidden_sigma, axis=1)
            Ys = np.take_along_axis(Ys, unsorted[:, :, None], axis=1)
        for start in range(0, bags.X.shape[0], bags_per_step):
            step = slice(start, start + bags_per_step)
            X = bags.X[step].reshape(-1, bags.X.shape[2])
            logp = tape.log_softmax(_logits(store, X))
            Y = Ys[step]
            if config.loss == "matching":
                zs, G = matching_loss(logp.value.reshape(Y.shape[0], b, -1), Y)
            else:
                # Cross-entropy against the true rows: z = -<Y, logP>, G = -Y.
                G = -Y
                zs = (G * logp.value.reshape(Y.shape)).sum(axis=(1, 2))
            yield mean_loss_node([logp], zs, [G.reshape(logp.value.shape)], X.shape[0]), X.shape[0]

    epochs = range(1, config.epochs + 1)
    metrics = lambda epoch: {("test", "accuracy"): eval_accuracy(store, data.x_test, data.y_test)}
    return run_epochs(store, config.lr, epochs, epoch_losses, metrics, "bag"), store
