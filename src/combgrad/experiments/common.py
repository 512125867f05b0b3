"""Shared experiment plumbing: the training configuration, the mean-loss
node that carries every training loss into the tape, `run_epochs`, the one
training loop both experiments run, the metrics row format, and CSV
serialization.

Metrics are written long-form with the header `epoch,split,metric,value,seconds`
so that runs with different metric sets share one schema.  Values are
formatted with %.17g, which round-trips float64 exactly — repeated runs with
the same seed produce bitwise-identical files except for the seconds column.
"""

from __future__ import annotations

import csv
import numbers
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .. import tape
from ..alignment import check_gap_factor
from ..core import POSITIVE, REAL, WHOLE, _arg
from ..errors import CombgradError, InvalidInput, TrainAborted

_LOSSES = ("mle", "matching", "gsa")
_FEEDS = ("softmax", "gumbel_st")
# The core._arg rule of each field annotation (annotations are strings here,
# under `from __future__ import annotations`): a type and no range.
_FIELD_TYPES = {
    "int": (numbers.Integral, None, "a whole number"),
    "float": REAL,
    "str": (str, None, "a string"),
}


def check_field_types(obj) -> None:
    """InvalidInput unless every field of the dataclass obj holds a value of
    its annotated type."""
    for f in fields(obj):
        _arg(getattr(obj, f.name), f.name, _FIELD_TYPES[f.type])


class _Checked:
    """Base of the config dataclasses: construction runs `validate()`, so an
    invalid config raises InvalidInput and never exists."""

    def __post_init__(self):
        self.validate()


@dataclass(frozen=True)
class TrainConfig(_Checked):
    """Knobs shared by both experiment harnesses.

    loss: 'mle' (position/label-supervised baseline), 'matching' (bag loss),
    or 'gsa' (alignment loss).  feed: how a sequence decoder consumes its own
    previous output.  threshold: minimum fraction of distinct classes a bag
    must contain to be used.
    """

    loss: str = "matching"
    feed: str = "softmax"
    bag_size: int = 1
    gamma: float = 1.5
    epochs: int = 30
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 1729
    threshold: float = 0.5

    def validate(self) -> None:
        check_field_types(self)
        if self.loss not in _LOSSES:
            raise InvalidInput(f"loss must be one of {_LOSSES}, got {self.loss!r}")
        if self.feed not in _FEEDS:
            raise InvalidInput(f"feed must be one of {_FEEDS}, got {self.feed!r}")
        _arg(self.bag_size, "bag_size", WHOLE)
        # Sequence evaluation scores by alignment cost whatever the loss.
        check_gap_factor(self.gamma)
        _arg(self.epochs, "epochs", WHOLE)
        _arg(self.lr, "lr", POSITIVE)
        _arg(self.batch_size, "batch_size", WHOLE)
        if not (0.0 < self.threshold <= 1.0):
            raise InvalidInput("threshold must lie in (0, 1]")
        if self.seed < 0:
            raise InvalidInput("seed must be non-negative")

    @classmethod
    def from_dict(cls, d: Mapping) -> "TrainConfig":
        _arg(d, "config", (Mapping, None, "a mapping of field names to values"))
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown, key=repr)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)


def mean_loss_node(
    parents: Sequence[tape.Tensor], zs: np.ndarray, grads: Sequence[np.ndarray], denom: int
) -> tape.Tensor:
    """The loss sum(zs) / denom as one node on `parents`, whose vjp for the
    parent with loss gradient G is up * G / denom.  Every training loss is
    built this way: the matching and alignment losses with the (z*, G) of
    their solves, and the MLE baselines with z = -<Y, logP> and G = -Y on
    the true targets.  zs are summed in instance order: np.sum's pairwise
    order would change the bits."""
    total = 0.0
    for z in zs.tolist():
        total += z
    return tape.custom_node(parents, total / denom, [lambda up, G=G: up * G / denom for G in grads])


@dataclass
class MetricsRow:
    """One epoch of logged training: the train loss, a dict of eval metrics
    keyed by (split, metric), and the wall-clock seconds the epoch took."""

    epoch: int
    train_loss: float
    metrics: Dict[Tuple[str, str], float]
    seconds: float


def run_epochs(
    store: tape.ParamStore,
    lr: float,
    epochs: range,
    epoch_losses: Callable[[int], Iterable[Tuple[tape.Tensor, int]]],
    epoch_metrics: Callable[[int], Dict[Tuple[str, str], float]],
    task: str,
) -> List[MetricsRow]:
    """Train `store` over `epochs` and return one MetricsRow per epoch.

    epoch_losses(epoch) yields each batch's (loss node, item count); from
    epoch 1 on every batch takes one Adam step, and an epoch 0 only measures
    the untrained model.  An epoch's train loss is the item-weighted mean of
    its batch losses, or nan when it had no batch; epoch_metrics(epoch),
    called after the last batch, gives its held-out metrics, and its seconds
    cover both.  Raises TrainAborted, carrying the rows logged so far, when
    a solve or an update fails: a non-finite loss stops in backward().
    """
    rows: List[MetricsRow] = []
    for epoch in epochs:
        try:
            t0 = time.perf_counter()
            loss_sum = 0.0
            seen = 0
            for loss, items in epoch_losses(epoch):
                if epoch >= 1:
                    store.zero_grad()
                    loss.backward()
                    tape.adam_step(store, lr=lr)
                loss_sum += float(loss.value) * items
                seen += items
            metrics = epoch_metrics(epoch)
        except CombgradError as exc:
            raise TrainAborted(f"{task} training aborted at epoch {epoch}: {exc}", rows=rows) from exc
        train_loss = loss_sum / seen if seen else float("nan")
        rows.append(MetricsRow(epoch, train_loss, metrics, time.perf_counter() - t0))
    return rows


def write_metrics(rows: List[MetricsRow], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "split", "metric", "value", "seconds"])
        for r in rows:
            sec = "%.6f" % r.seconds
            w.writerow([r.epoch, "train", "loss", "%.17g" % r.train_loss, sec])
            for (split, metric), value in sorted(r.metrics.items()):
                w.writerow([r.epoch, split, metric, "%.17g" % value, sec])


def load_metrics(path: str) -> Dict[Tuple[int, str, str], float]:
    """Read a metrics CSV back as {(epoch, split, metric): value}."""
    out: Dict[Tuple[int, str, str], float] = {}
    with open(path, newline="") as f:
        for rec in csv.DictReader(f):
            out[(int(rec["epoch"]), rec["split"], rec["metric"])] = float(rec["value"])
    return out
