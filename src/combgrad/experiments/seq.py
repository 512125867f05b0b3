"""Noisy-copy sequence learning with a self-fed recurrent decoder.

Sources are random token strings; targets are corrupted copies (random
drops and insertions) terminated by EOS, so target length generally differs
from source length — exactly the regime where a position-wise cross-entropy
objective (the MLE baseline) mis-penalizes otherwise-good outputs and the
optimal-alignment loss does not.

The decoder consumes its own previous output — either the tempered softmax
distribution or a straight-through Gumbel one-hot sample — never the ground
truth, so early mistakes shift everything after them.  Held-out quality is
logged each epoch as the mean optimal alignment cost of greedy decodes
against targets plus the exact-match rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from .. import _kernels, tape
from ..alignment import _match_costs, check_grids, gsa_loss
from ..core import _one_hot
from ..errors import InvalidInput
from .common import MetricsRow, TrainConfig, _Checked, check_field_types, mean_loss_node, run_epochs

PAD = 0
EOS = 1

_EMB = 16
_HIDDEN = 48
_NOISE_TAG = 15485863
_SHUFFLE_TAG = 104729
_TAU_START = 5.0
_TAU_STEP = 0.5
_TAU_FLOOR = 1.0
# Caps on the corpus SeqTaskSpec describes, which is generated in memory.
_MAX_EXAMPLES = 10**6
_MAX_LEN = 1024
# Cap on training's vocab * (max_len + 1), the one-hot cells of one
# sequence: the model and every batch grow with vocab, the corpus does not.
_MAX_ONE_HOT = 10**6


def _tau_at(epoch: int) -> float:
    """Feed temperature of a training epoch (epochs count from 1): linear
    descent to a floor."""
    return max(_TAU_START - _TAU_STEP * (epoch - 1), _TAU_FLOOR)


@dataclass(frozen=True)
class SeqTaskSpec(_Checked):
    """Synthetic noisy-copy task over a small token alphabet.

    Tokens 0 and 1 are reserved (PAD, EOS); content tokens are 2..vocab-1.
    Each source token is independently preceded by a random insertion with
    probability p_insert and dropped with probability p_drop.  The corpus
    is held in memory, so n is capped at 10**6 examples and max_len at
    1024 tokens.
    """

    vocab: int = 12
    min_len: int = 3
    max_len: int = 8
    p_drop: float = 0.1
    p_insert: float = 0.05
    n: int = 2500
    seed: int = 1729

    def validate(self) -> None:
        check_field_types(self)
        if self.vocab < 3:
            raise InvalidInput("vocab must be at least 3 (PAD and EOS are reserved)")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise InvalidInput("need 1 <= min_len <= max_len")
        # Tokens and lengths are int64; numpy draws below an exclusive bound
        # of at most 2**63.
        if self.vocab > 2**63 or self.max_len + 1 > 2**63:
            raise InvalidInput("vocab and max_len + 1 must not exceed 2**63, the int64 range")
        if self.max_len > _MAX_LEN:
            raise InvalidInput(f"max_len must be at most {_MAX_LEN}")
        if not (0.0 <= self.p_drop < 1.0 and 0.0 <= self.p_insert < 1.0):
            raise InvalidInput("corruption probabilities must lie in [0, 1)")
        if self.n < 3:
            raise InvalidInput("need at least 3 examples, so that the 80/20 split holds one out")
        if self.n > _MAX_EXAMPLES:
            raise InvalidInput(f"n must be at most {_MAX_EXAMPLES}")
        if self.seed < 0:
            raise InvalidInput("seed must be non-negative")


@dataclass(frozen=True)
class SeqDataset:
    train: List[Tuple[np.ndarray, np.ndarray]]
    test: List[Tuple[np.ndarray, np.ndarray]]


# numpy's Generator.random() is (x >> 11) * 2**-53 of one raw 64-bit draw x.
_RANDOM_SCALE = 2.0**-53
_RAW_CHUNK = 4096


def _raw_draws(bitgen) -> Iterator[int]:
    """Endless raw 64-bit outputs of `bitgen`, fetched a bounded chunk at a
    time so a large corpus never holds all its draws at once."""
    while True:
        yield from bitgen.random_raw(_RAW_CHUNK).tolist()


def _uint32s(raw: Iterator[int]) -> Iterator[int]:
    """PCG64's next_uint32 over `raw`: the low half of a fresh draw, then the
    buffered high half.  Suspended between the halves, the generator is the
    buffer, so 64-bit draws taken from `raw` meanwhile leave it alone, as
    they do in numpy."""
    for x in raw:
        yield x & 0xFFFFFFFF
        yield x >> 32


def _bounded_draw(raw: Iterator[int], uint32s: Iterator[int], lo: int, hi: int) -> Callable[[], int]:
    """numpy's ``Generator.integers(lo, hi)`` as a zero-argument draw.

    A one-value range consumes nothing.  Otherwise Lemire's method runs on a
    32-bit draw when the range fits 32 bits and on a full 64-bit draw when
    it does not, redrawing while the low word of the product falls below
    2**w % range; a ``size=L`` call is L such draws in a row.
    """
    ex = hi - lo
    if ex == 1:
        return lambda: lo
    draw, w = (uint32s.__next__, 32) if ex <= 1 << 32 else (raw.__next__, 64)
    mask = (1 << w) - 1
    threshold = (1 << w) % ex

    def integer() -> int:
        m = draw() * ex
        while m & mask < threshold:
            m = draw() * ex
        return lo + (m >> w)

    return integer


def gen_seq_dataset(spec: SeqTaskSpec) -> SeqDataset:
    """Seeded corpus of (source, target) pairs with an 80/20 split.

    Targets always end with EOS and contain no PAD; with zero corruption the
    target is exactly the source plus EOS.

    The corpus is the one a scalar loop over ``np.random.default_rng(seed)``
    draws: per pair one ``integers(min_len, max_len + 1)`` for the length,
    one ``integers(2, vocab, size=L)`` for the source, and per source token
    a ``random() < p_insert`` test (then one ``integers(2, vocab)``) and a
    ``random() >= p_drop`` test.  It is decoded here from bulk raw PCG64
    outputs the way numpy's Generator decodes them, which is cheaper than
    that many scalar calls; ``tests/oracles.py`` keeps the scalar loop, and
    the test comparing the two catches a numpy release that decodes
    differently.
    """
    raw = _raw_draws(np.random.default_rng(spec.seed).bit_generator)
    uint32s = _uint32s(raw)
    length = _bounded_draw(raw, uint32s, spec.min_len, spec.max_len + 1)
    token = _bounded_draw(raw, uint32s, 2, spec.vocab)
    next_raw = raw.__next__
    pairs = []
    for _ in range(spec.n):
        src = [token() for _ in range(length())]
        tgt = []
        for tok in src:
            if (next_raw() >> 11) * _RANDOM_SCALE < spec.p_insert:
                tgt.append(token())
            if (next_raw() >> 11) * _RANDOM_SCALE >= spec.p_drop:
                tgt.append(tok)
        tgt.append(EOS)
        pairs.append((np.array(src, dtype=np.int64), np.array(tgt, dtype=np.int64)))
    cut = int(round(0.8 * spec.n))
    return SeqDataset(train=pairs[:cut], test=pairs[cut:])


def _init_store(config: TrainConfig, vocab: int) -> tape.ParamStore:
    rng = np.random.default_rng(config.seed)
    store = tape.ParamStore(seed=config.seed)

    def mat(name, rows, cols):
        store.add(name, rng.standard_normal((rows, cols)) / np.sqrt(rows))

    mat("E", vocab, _EMB)
    mat("Wxe", _EMB, _HIDDEN)
    mat("Whe", _HIDDEN, _HIDDEN)
    store.add("bhe", np.zeros(_HIDDEN))
    mat("Wxd", _EMB, _HIDDEN)
    mat("Whd", _HIDDEN, _HIDDEN)
    store.add("bhd", np.zeros(_HIDDEN))
    mat("Wo", _HIDDEN, vocab)
    store.add("bo", np.zeros(vocab))
    return store


def _encode(store: tape.ParamStore, src: np.ndarray) -> tape.Tensor:
    p = store.params
    B, L = src.shape
    h = tape.Tensor(np.zeros((B, _HIDDEN)))
    for t in range(L):
        x = tape.embed(p["E"], src[:, t])
        h = tape.rnn_cell(x, p["Wxe"], h, p["Whe"], p["bhe"])
    return h


def _decoder_step(
    p: Dict[str, tape.Tensor], feed: tape.Tensor, h: tape.Tensor
) -> Tuple[tape.Tensor, tape.Tensor]:
    """One decoder step from the previous output rows `feed`; returns the
    new state and the output logits."""
    x = tape.matmul(feed, p["E"])
    h = tape.rnn_cell(x, p["Wxd"], h, p["Whd"], p["bhd"])
    return h, tape.affine(h, p["Wo"], p["bo"])


def _decode_train(
    store: tape.ParamStore,
    h: tape.Tensor,
    steps: int,
    vocab: int,
    config: TrainConfig,
    tau: float,
    noise_rng: np.random.Generator,
) -> List[tape.Tensor]:
    """Unroll the self-fed decoder; returns the log-probability tensor of
    each step.  The first input is the EOS embedding (start marker)."""
    p = store.params
    B = h.value.shape[0]
    feed = tape.Tensor(_one_hot(np.full(B, EOS), vocab))
    logps = []
    for _ in range(steps):
        h, logits = _decoder_step(p, feed, h)
        logps.append(tape.log_softmax(logits))
        if config.feed == "gumbel_st":
            feed = tape.gumbel_softmax_st(logits, tau, noise_rng)
        else:
            feed = tape.softmax_t(logits, tau)
    return logps


def _stack_buckets(pairs: List[Tuple[np.ndarray, np.ndarray]]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Group examples by (source length, target length) and stack each group
    into rectangular (sources, targets) arrays, in sorted key order and
    corpus order within a group."""
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for i, (s, t) in enumerate(pairs):
        buckets.setdefault((len(s), len(t)), []).append(i)
    return [
        (np.stack([pairs[i][0] for i in buckets[key]]), np.stack([pairs[i][1] for i in buckets[key]]))
        for key in sorted(buckets)
    ]


def _bucketed_batches(
    buckets: List[Tuple[np.ndarray, np.ndarray]],
    batch_size: int,
    rng: np.random.Generator,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Shuffle within each bucket of `_stack_buckets`, cut it into batches —
    rectangular, so no padding and no masking — then shuffle the batch
    order.  Shuffling positions rather than example indices draws the same
    numbers, since `Generator.shuffle` depends only on the length."""
    batches = []
    for src, tgt in buckets:
        rows = np.arange(len(src))
        rng.shuffle(rows)
        src, tgt = src[rows], tgt[rows]
        for start in range(0, len(rows), batch_size):
            batches.append((src[start : start + batch_size], tgt[start : start + batch_size]))
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def _batch_loss(
    store: tape.ParamStore,
    src: np.ndarray,
    tgt: np.ndarray,
    vocab: int,
    config: TrainConfig,
    tau: float,
    noise_rng: np.random.Generator,
) -> tape.Tensor:
    B, T = tgt.shape
    h = _encode(store, src)
    logps = _decode_train(store, h, T, vocab, config, tau, noise_rng)
    L = np.stack([lp.value for lp in logps], axis=1)  # (B, T, vocab)
    Y = _one_hot(tgt, vocab)
    if config.loss == "mle":
        # Position-wise cross-entropy, the mean over steps of -<Y_t, logP_t>:
        # each step's gradient is -Y_t / T and the loss is averaged over B.
        grads = -Y * (1.0 / T)
        zs = (grads * L).sum(axis=(1, 2))
        return mean_loss_node(logps, zs, [grads[:, t] for t in range(T)], B)
    zs, grads = gsa_loss(L, Y, config.gamma)
    return mean_loss_node(logps, zs, [grads[:, t] for t in range(T)], B * T)


def _decode_greedy(store: tape.ParamStore, src: np.ndarray, vocab: int, steps: int):
    """Batched greedy decode with the training model's encoder and decoder
    step: returns per-step log-probs (B, w, vocab) and argmax tokens (B, w),
    where w <= steps stops at the first step by which every row emitted EOS.
    Each step starts from a detached state, so no graph is kept."""
    p = store.params
    B = src.shape[0]
    h = tape.Tensor(_encode(store, src).value)
    feed = _one_hot(np.full(B, EOS), vocab)
    logps = np.empty((B, steps, vocab))
    toks = np.empty((B, steps), dtype=np.int64)
    for t in range(steps):
        h, logits = _decoder_step(p, tape.Tensor(feed), h)
        h = tape.Tensor(h.value)
        lp = tape.log_softmax(logits).value
        logps[:, t] = lp
        pick = lp.argmax(axis=1)
        toks[:, t] = pick
        if (toks[:, : t + 1] == EOS).any(axis=1).all():
            return logps[:, : t + 1], toks[:, : t + 1]
        feed = _one_hot(pick, vocab)
    return logps, toks


def evaluate(
    store: tape.ParamStore,
    pairs: List[Tuple[np.ndarray, np.ndarray]],
    vocab: int,
    gamma: float,
    max_len: int,
) -> Tuple[float, float]:
    """(mean alignment cost, exact-match rate) of greedy decodes.

    Decoding runs until EOS (inclusive) with a hard cap of max_len + 4
    steps; the alignment cost compares the emitted rows against the target
    with the floored match costs gsa_loss trains on, so length mismatches
    are scored rather than crashing.  The rows of each decode batch are
    solved in groups of equal (decode length, target length), one batched
    kernel call per group.
    """
    by_len: Dict[int, List[int]] = {}
    for i, (s, _) in enumerate(pairs):
        by_len.setdefault(len(s), []).append(i)
    costs = np.empty(len(pairs))
    exact = np.zeros(len(pairs))
    for L in sorted(by_len):
        idx = by_len[L]
        src = np.stack([pairs[i][0] for i in idx])
        logps, toks = _decode_greedy(store, src, vocab, max_len + 4)
        groups: Dict[Tuple[int, int], List[int]] = {}
        for row, i in enumerate(idx):
            hit = np.flatnonzero(toks[row] == EOS)
            end = int(hit[0]) + 1 if hit.size else toks.shape[1]
            tgt = pairs[i][1]
            exact[i] = float(end == len(tgt) and bool(np.all(toks[row, :end] == tgt)))
            groups.setdefault((end, len(tgt)), []).append(row)
        for (end, _), rows in groups.items():
            Y = _one_hot(np.stack([pairs[idx[row]][1] for row in rows]), vocab)
            ms = _match_costs(logps[rows, :end], Y)[0]
            zs = _kernels.gsa_kernel_many(ms, check_grids(ms, gamma))[0]
            costs[[idx[row] for row in rows]] = zs
    return float(costs.mean()), float(exact.mean())


def train_seq(config: TrainConfig, spec: SeqTaskSpec) -> Tuple[List[MetricsRow], tape.ParamStore]:
    """Run the sequence experiment on `spec`'s corpus; returns (metrics
    rows, trained params).  Each argument checked itself when it was made:
    here vocab * (max_len + 1) must also be at most 10**6.

    Epoch 0 logs the untrained model; epochs >= 1 also log the feed
    temperature.  Epochs abort as `run_epochs` describes.
    """
    if config.loss == "matching":
        raise InvalidInput("the matching loss does not apply to the sequence task")
    if spec.vocab * (spec.max_len + 1) > _MAX_ONE_HOT:
        raise InvalidInput(f"training needs vocab * (max_len + 1) of at most {_MAX_ONE_HOT}")
    data = gen_seq_dataset(spec)
    buckets = _stack_buckets(data.train)
    store = _init_store(config, spec.vocab)

    def epoch_losses(epoch: int):
        tau = _tau_at(max(epoch, 1))
        shuffle_rng = np.random.default_rng([config.seed, _SHUFFLE_TAG, epoch])
        batches = _bucketed_batches(buckets, config.batch_size, shuffle_rng)
        noise_rng = np.random.default_rng([config.seed, _NOISE_TAG, epoch])
        for src, tgt in batches:
            yield _batch_loss(store, src, tgt, spec.vocab, config, tau, noise_rng), src.shape[0]

    def epoch_metrics(epoch: int):
        cost, match = evaluate(store, data.test, spec.vocab, config.gamma, spec.max_len)
        metrics = {("test", "align_cost"): cost, ("test", "exact_match"): match}
        if epoch >= 1:
            metrics[("train", "tau")] = _tau_at(epoch)
        return metrics

    return run_epochs(store, config.lr, range(config.epochs + 1), epoch_losses, epoch_metrics, "sequence"), store
