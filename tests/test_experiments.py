"""Experiment harnesses: datasets, bag training, sequence training."""

import numpy as np
import pytest

from combgrad import InvalidInput, NonFinite, TrainAborted, _kernels, filter_bag, tape
from combgrad.alignment import AlignGrid, gsa_loss, solve_gsa
from combgrad.experiments import TrainConfig, bags, seq, train_bags, train_seq
from combgrad.experiments.bags import (
    BagDatasetSpec,
    _init_store as init_bag_store,
    eval_accuracy,
    gen_bag_dataset,
    make_bags,
)
from combgrad.experiments.common import MetricsRow, load_metrics, write_metrics
from combgrad.experiments.seq import EOS, SeqTaskSpec, gen_seq_dataset

from helpers import central_fd, chain_affine, chain_rnn_cell, rel_err
from oracles import scalar_seq_dataset, stacked_batches


class TestTrainConfig:
    def test_round_trip(self):
        cfg = TrainConfig(loss="gsa", feed="gumbel_st", epochs=5)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_dict({"loss": "mle", "optimizer": "lion"})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": "hinge"},
            {"feed": "argmax"},
            {"bag_size": 0},
            {"loss": "gsa", "gamma": 1.0},
            {"epochs": 0},
            {"lr": 0.0},
            {"batch_size": 0},
            {"threshold": 0.0},
            {"threshold": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()


class TestMetricsSerialization:
    def test_csv_round_trip(self, tmp_path):
        rows = [
            MetricsRow(epoch=1, train_loss=0.5, metrics={("test", "accuracy"): 0.75}, seconds=1.25),
            MetricsRow(epoch=2, train_loss=0.25, metrics={("test", "accuracy"): 0.875}, seconds=1.5),
        ]
        path = str(tmp_path / "m.csv")
        write_metrics(rows, path)
        back = load_metrics(path)
        assert back[(1, "train", "loss")] == 0.5
        assert back[(2, "test", "accuracy")] == 0.875

    def test_values_round_trip_exactly(self, tmp_path):
        val = float(np.nextafter(1.0, 2.0))  # needs all 17 significant digits
        path = str(tmp_path / "m.csv")
        write_metrics([MetricsRow(epoch=1, train_loss=val)], path)
        assert load_metrics(path)[(1, "train", "loss")] == val


class TestBagDataset:
    def test_shapes_and_split(self):
        data = gen_bag_dataset(BagDatasetSpec(n=100, num_classes=4, feature_dim=6))
        assert data.x_train.shape == (80, 6)
        assert data.x_test.shape == (20, 6)
        assert data.y_train.min() >= 0 and data.y_train.max() < 4
        assert data.means.shape == (4, 6)

    def test_deterministic_per_seed(self):
        a = gen_bag_dataset(BagDatasetSpec(seed=9))
        b = gen_bag_dataset(BagDatasetSpec(seed=9))
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_test, b.y_test)

    def test_zero_separation_gives_chance_accuracy(self):
        cfg = TrainConfig(loss="mle", bag_size=1, epochs=5)
        rows, store = train_bags(cfg, BagDatasetSpec(separation=0.0))
        acc = rows[-1].metrics[("test", "accuracy")]
        assert acc < 0.25  # ten classes, indistinguishable features

    def test_high_separation_supervised_baseline_is_strong(self):
        cfg = TrainConfig(loss="mle", bag_size=1, epochs=30)
        rows, store = train_bags(cfg, BagDatasetSpec(separation=3.0))
        assert rows[-1].metrics[("test", "accuracy")] > 0.95

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            BagDatasetSpec(num_classes=1).validate()
        with pytest.raises(ValueError):
            BagDatasetSpec(n=0).validate()

    def test_spec_without_a_held_out_sample_rejected(self):
        # The 80/20 split keeps round(0.8 * 2) = 2 of 2 samples for training,
        # which would leave the test accuracy a mean over nothing.
        with pytest.raises(InvalidInput, match="holds one out"):
            train_bags(TrainConfig(loss="mle", epochs=1), BagDatasetSpec(n=2, num_classes=2))
        assert gen_bag_dataset(BagDatasetSpec(n=3, num_classes=2)).y_test.shape == (1,)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"n": 10**6 + 1}, "n must be at most 1000000"),
            ({"n": 3 * 10**9}, "n must be at most 1000000"),
            ({"num_classes": 1001, "feature_dim": 1000}, "num_classes \\* feature_dim must be at most 1000000"),
            ({"num_classes": 2, "feature_dim": 2**40}, "num_classes \\* feature_dim must be at most 1000000"),
        ],
    )
    def test_sizes_beyond_the_caps_rejected(self, kwargs, message):
        # validate() alone: nothing is allocated at the rejected sizes.
        with pytest.raises(InvalidInput, match=message):
            BagDatasetSpec(**kwargs).validate()

    def test_sizes_at_the_caps_accepted(self):
        BagDatasetSpec(n=10**6, num_classes=1000, feature_dim=1000).validate()
        BagDatasetSpec(n=5000).validate()  # the acceptance and benchmark size


class TestMakeBags:
    def test_bags_respect_threshold_and_hide_order(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 5))
        y = rng.integers(0, 6, size=200)
        bags = make_bags(x, y, num_classes=6, bag_size=4, threshold=0.75, seed=11)
        m = bags.X.shape[0]
        assert m > 0
        assert bags.X.shape == (m, 4, 5) and bags.Y.shape == (m, 4, 6) and bags.hidden_sigma.shape == (m, 4)
        for Y, sigma in zip(bags.Y, bags.hidden_sigma):
            distinct = np.unique(Y, axis=0).shape[0]
            assert distinct >= 0.75 * 4 - 1e-9
            assert sorted(sigma) == [0, 1, 2, 3]

    def test_bag_labels_match_features(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((120, 3))
        y = rng.integers(0, 4, size=120)
        lookup = {tuple(np.round(x[i], 9)): y[i] for i in range(120)}
        bags = make_bags(x, y, num_classes=4, bag_size=3, threshold=0.5, seed=7)
        for X, Y, sigma in zip(bags.X, bags.Y, bags.hidden_sigma):
            true_labels = np.array([lookup[tuple(np.round(r, 9))] for r in X])
            recovered = Y[np.argsort(sigma)].argmax(axis=1)
            assert np.array_equal(recovered, true_labels)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((60, 3))
        y = rng.integers(0, 4, size=60)
        a = make_bags(x, y, 4, 4, 0.5, seed=2)
        b = make_bags(x, y, 4, 4, 0.5, seed=2)
        for field in ("X", "Y", "hidden_sigma"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def _unique_rows_rule(Y, threshold):
    # The per-bag rule written out: distinct rows by np.unique.
    return np.unique(Y, axis=0).shape[0] >= threshold * Y.shape[0] - 1e-9


def _reference_make_bags(x, y, num_classes, bag_size, threshold, seed):
    # One bag at a time, filtered as it is cut.
    rng = np.random.default_rng(seed)
    order = rng.permutation(x.shape[0])
    out = []
    for start in range(0, x.shape[0] - bag_size + 1, bag_size):
        idx = order[start : start + bag_size]
        Y0 = np.eye(num_classes)[y[idx]]
        if not _unique_rows_rule(Y0, threshold):
            continue
        sigma = rng.permutation(bag_size)
        out.append({"X": x[idx], "Y": Y0[sigma], "hidden_sigma": sigma})
    return out


class TestStackedBagFilter:
    @pytest.mark.parametrize("rows", ["one-hot", "soft"])
    def test_stack_matches_the_per_bag_unique_rule(self, rows):
        rng = np.random.default_rng(71)
        for b in (1, 2, 3, 4, 7, 16):
            if rows == "one-hot":
                Ys = np.eye(5)[rng.integers(0, 5, size=(60, b))]
            else:
                # Few distinct soft rows, so repeats are common.
                Ys = rng.dirichlet(np.ones(4), size=3)[rng.integers(0, 3, size=(60, b))]
            for threshold in (0.2, 0.5, 0.75, 1.0):
                mask = filter_bag(Ys, threshold)
                assert mask.tolist() == [_unique_rows_rule(Y, threshold) for Y in Ys], (b, threshold)

    @pytest.mark.parametrize(
        "bag_size,threshold", [(1, 1.0), (3, 0.6), (4, 0.75), (5, 0.5), (7, 0.25), (500, 0.01), (600, 0.01)]
    )
    def test_make_bags_is_bytewise_equal_to_a_per_bag_loop(self, bag_size, threshold):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((503, 4))
        y = rng.integers(0, 5, size=503)
        got = make_bags(x, y, 5, bag_size, threshold, seed=[2, bag_size])
        want = _reference_make_bags(x, y, 5, bag_size, threshold, [2, bag_size])
        # The stacks hold the per-bag arrays in order, byte for byte.
        assert got.X.shape == (len(want), bag_size, 4)
        assert got.Y.shape == (len(want), bag_size, 5) and got.hidden_sigma.shape == (len(want), bag_size)
        for t, w in enumerate(want):
            for field in ("X", "Y", "hidden_sigma"):
                a, b = getattr(got, field)[t], w[field]
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field

    def test_training_makes_one_kernel_dispatch_per_optimizer_step(self, monkeypatch):
        calls = {"many": 0, "single": 0, "steps": 0}
        many, single, step = _kernels.assignment_kernel_many, _kernels.assignment_kernel, tape.adam_step

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(_kernels, "assignment_kernel_many", counted("many", many))
        monkeypatch.setattr(_kernels, "assignment_kernel", counted("single", single))
        monkeypatch.setattr(tape, "adam_step", counted("steps", step))
        train_bags(TrainConfig(loss="matching", bag_size=4, epochs=2, threshold=0.25), BagDatasetSpec(n=400))
        assert calls["steps"] > 2
        assert calls["many"] == calls["steps"] and calls["single"] == 0


class TestBagTraining:
    def test_single_item_bags_reduce_to_supervised(self):
        # With one-element bags the matching loss IS cross-entropy: both
        # losses build the same mean-loss node on the same batch stream, so
        # losses and parameters agree to the last bit.
        spec = BagDatasetSpec(n=400)
        r_match, s_match = train_bags(TrainConfig(loss="matching", bag_size=1, epochs=3), spec)
        r_mle, s_mle = train_bags(TrainConfig(loss="mle", bag_size=1, epochs=3), spec)
        assert len(r_match) == len(r_mle) == 3
        for a, b in zip(r_match, r_mle):
            assert a.train_loss == b.train_loss
            assert a.metrics == b.metrics
        for name, p in s_match.params.items():
            assert p.value.tobytes() == s_mle.params[name].value.tobytes(), name

    def test_alignment_loss_rejected(self):
        with pytest.raises(ValueError):
            train_bags(TrainConfig(loss="gsa"))

    @pytest.mark.parametrize(
        "config,spec,reason",
        [
            # 10 samples leave 8 to train on: no bag of 16 fits.
            (TrainConfig(bag_size=16), BagDatasetSpec(n=10, num_classes=2), "exceeds"),
            # A bag of 16 holds at most 10 distinct labels, and 1.0 asks for 16.
            (TrainConfig(bag_size=16, threshold=1.0), BagDatasetSpec(n=200), "distinct labels"),
            (TrainConfig(loss="mle", bag_size=4, threshold=1.0), BagDatasetSpec(n=200, num_classes=3), "distinct labels"),
        ],
    )
    def test_no_bag_can_ever_be_kept_is_rejected_before_any_work(self, monkeypatch, config, spec, reason):
        monkeypatch.setattr(bags, "gen_bag_dataset", lambda spec: pytest.fail("work started"))
        with pytest.raises(InvalidInput, match=reason):
            train_bags(config, spec)

    def test_a_bag_at_the_distinct_label_bound_can_be_kept(self):
        # min(4, 2) distinct labels meet 0.5 * 4 exactly: bags still pass.
        rows, _ = train_bags(TrainConfig(bag_size=4, threshold=0.5, epochs=1), BagDatasetSpec(n=40, num_classes=2))
        assert np.isfinite(rows[0].train_loss)

    def test_an_epoch_whose_bags_all_fail_the_filter_logs_nan(self):
        # 4 training samples of 2 classes make 2 bags of 2; at seed 0 the
        # fourth epoch draws both bags with a repeated label.
        config = TrainConfig(loss="matching", bag_size=2, threshold=1.0, epochs=4, seed=0)
        spec = BagDatasetSpec(n=5, num_classes=2, seed=0)
        rows, _ = train_bags(config, spec)
        data = gen_bag_dataset(spec)
        kept = [
            make_bags(data.x_train, data.y_train, 2, 2, 1.0, [config.seed, 7919, row.epoch]).X.shape[0] for row in rows
        ]
        assert 0 in kept
        for row, k in zip(rows, kept):
            assert np.isnan(row.train_loss) == (k == 0)
            assert np.isfinite(row.metrics[("test", "accuracy")])

    def test_rows_cover_every_epoch(self):
        rows, store = train_bags(TrainConfig(loss="matching", bag_size=2, epochs=4), BagDatasetSpec(n=300))
        assert [r.epoch for r in rows] == [1, 2, 3, 4]
        for r in rows:
            assert np.isfinite(r.train_loss)
            assert ("test", "accuracy") in r.metrics

    def test_divergence_aborts_with_partial_rows(self):
        # A first step of magnitude ~1e308 overflows the next forward pass.
        cfg = TrainConfig(loss="matching", bag_size=2, epochs=10, lr=1e308)
        with pytest.raises(TrainAborted) as exc_info:
            with np.errstate(all="ignore"):
                train_bags(cfg, BagDatasetSpec(n=300))
        assert isinstance(exc_info.value.rows, list)

    def test_eval_accuracy_matches_manual_forward(self):
        rows, store = train_bags(TrainConfig(loss="mle", epochs=1), BagDatasetSpec(n=200))
        data = gen_bag_dataset(BagDatasetSpec(n=200))
        acc = eval_accuracy(store, data.x_test, data.y_test)
        assert acc == rows[-1].metrics[("test", "accuracy")]


class TestFusedNodesInTraining:
    """Training with tape.rnn_cell and tape.affine swapped for the chains
    they replace (the oracle) gives the same bytes."""

    @staticmethod
    def unfused(monkeypatch, calls):
        for name, chain in (("rnn_cell", chain_rnn_cell), ("affine", chain_affine)):

            def counted(*args, name=name, chain=chain):
                calls.append(name)
                return chain(*args)

            monkeypatch.setattr(tape, name, counted)

    @staticmethod
    def fingerprint(rows, store):
        return (
            [(r.epoch, r.train_loss.hex(), {k: v.hex() for k, v in r.metrics.items()}) for r in rows],
            {k: t.value.tobytes() for k, t in store.params.items()},
        )

    def check(self, monkeypatch, train, uses):
        fused = self.fingerprint(*train())
        calls = []
        with monkeypatch.context() as m:
            self.unfused(m, calls)
            unfused = self.fingerprint(*train())
        assert set(calls) == uses
        assert fused == unfused

    @pytest.mark.parametrize("loss,feed", [("gsa", "softmax"), ("gsa", "gumbel_st"), ("mle", "softmax")])
    def test_train_seq(self, monkeypatch, loss, feed):
        spec = SeqTaskSpec(n=120, min_len=3, max_len=5, seed=3)
        config = TrainConfig(loss=loss, feed=feed, epochs=2, seed=3)
        self.check(monkeypatch, lambda: train_seq(config, spec), {"rnn_cell", "affine"})

    @pytest.mark.parametrize("loss", ["matching", "mle"])
    def test_train_bags(self, monkeypatch, loss):
        config = TrainConfig(loss=loss, bag_size=4, epochs=2, seed=3, threshold=0.25)
        self.check(monkeypatch, lambda: train_bags(config, BagDatasetSpec(n=400, seed=3)), {"affine"})


class TestEvaluationRunsTheTrainingModel:
    """Evaluation calls the tape ops training does, so a second copy of a
    model cannot drift from the one trained."""

    @staticmethod
    def counted(monkeypatch):
        calls = {"rnn_cell": 0, "affine": 0}
        for name in calls:

            def op(*args, name=name, fn=getattr(tape, name)):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(tape, name, op)
        return calls

    def test_seq_evaluate(self, monkeypatch):
        spec = SeqTaskSpec(n=120, min_len=3, max_len=5)
        store = seq._init_store(TrainConfig(loss="gsa"), spec.vocab)
        pairs = gen_seq_dataset(spec).test
        calls = self.counted(monkeypatch)
        seq.evaluate(store, pairs, spec.vocab, 1.5, spec.max_len)
        # One decode batch per source length: an encoder step per source
        # token, then max_len + 4 decoder steps.
        lengths = {len(s) for s, _ in pairs}
        steps = len(lengths) * (spec.max_len + 4)
        assert calls == {"rnn_cell": sum(lengths) + steps, "affine": steps}

    def test_bags_eval_accuracy(self, monkeypatch):
        spec = BagDatasetSpec(n=200)
        store = init_bag_store(TrainConfig(), spec.feature_dim, spec.num_classes)
        data = gen_bag_dataset(spec)
        calls = self.counted(monkeypatch)
        eval_accuracy(store, data.x_test, data.y_test)
        assert calls == {"rnn_cell": 0, "affine": 2}


class TestSeqDataset:
    def test_noise_free_targets_copy_the_source(self):
        spec = SeqTaskSpec(p_drop=0.0, p_insert=0.0, n=200)
        data = gen_seq_dataset(spec)
        for source, target in data.train:
            assert target[-1] == EOS
            assert list(target[:-1]) == list(source)

    def test_tokens_stay_in_vocabulary(self):
        data = gen_seq_dataset(SeqTaskSpec(n=300))
        for source, target in data.train + data.test:
            for seq in (source, target):
                arr = np.asarray(seq)
                assert arr.min() >= 1  # only EOS and real tokens, no padding ids
                assert arr.max() < 12

    def test_drop_rate_shapes_mean_target_length(self):
        spec = SeqTaskSpec(p_drop=0.1, p_insert=0.0, n=10000, min_len=6, max_len=6)
        data = gen_seq_dataset(spec)
        targets = [target for _, target in data.train + data.test]
        mean_len = float(np.mean([len(t) for t in targets]))
        # Each kept token survives with probability 0.9; plus the end marker.
        assert mean_len == pytest.approx(0.9 * 6 + 1, rel=0.02)

    def test_split_sizes(self):
        data = gen_seq_dataset(SeqTaskSpec(n=100))
        assert len(data.train) == 80
        assert len(data.test) == 20

    def test_spec_without_a_held_out_example_rejected(self):
        with pytest.raises(InvalidInput, match="holds one out"):
            train_seq(TrainConfig(loss="mle", epochs=1), SeqTaskSpec(n=2))
        assert len(gen_seq_dataset(SeqTaskSpec(n=3)).test) == 1

    def test_deterministic_per_seed(self):
        a = gen_seq_dataset(SeqTaskSpec(n=50, seed=3))
        b = gen_seq_dataset(SeqTaskSpec(n=50, seed=3))
        for (sa, ta), (sb, tb) in zip(a.train, b.train):
            assert np.array_equal(sa, sb) and np.array_equal(ta, tb)

    @staticmethod
    def fingerprint(data):
        return [
            [(s.dtype.str, s.tobytes(), t.dtype.str, t.tobytes()) for s, t in part]
            for part in (data.train, data.test)
        ]

    @pytest.mark.parametrize(
        "spec",
        [
            SeqTaskSpec(n=400, seed=3),
            SeqTaskSpec(vocab=3, n=200),  # one-token range: no draw
            SeqTaskSpec(min_len=5, max_len=5, n=200),  # one-length range: no draw
            SeqTaskSpec(vocab=3, min_len=4, max_len=4, n=50),  # only random() draws
            SeqTaskSpec(max_len=30, n=600, seed=5),  # many raw-chunk refills
            SeqTaskSpec(vocab=40, p_insert=0.6, p_drop=0.3, n=400),  # scalar and size=L draws interleave
            SeqTaskSpec(p_drop=0.0, p_insert=0.0, n=50),
            SeqTaskSpec(vocab=3 * 2**30, n=200),  # a quarter of 32-bit draws rejected
            SeqTaskSpec(vocab=2**32 + 1, n=100),  # largest Lemire range below 2**32
            SeqTaskSpec(vocab=2**32 + 2, n=100),  # range 2**32: a bare 32-bit draw
            SeqTaskSpec(vocab=2**32 + 3, n=40),  # smallest 64-bit range
            SeqTaskSpec(vocab=2**40, n=40),
            SeqTaskSpec(vocab=3 * 2**61, n=40),  # a quarter of 64-bit draws rejected
            SeqTaskSpec(vocab=2**63, n=20),  # largest int64 range
            SeqTaskSpec(n=3),  # the smallest corpus
        ],
        ids=repr,
    )
    def test_equals_the_scalar_generator_loop(self, spec):
        # The corpus decodes numpy's PCG64 output itself; a numpy release
        # that decodes differently fails here before any training changes.
        assert self.fingerprint(gen_seq_dataset(spec)) == self.fingerprint(scalar_seq_dataset(spec))

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @pytest.mark.parametrize("vocab", [12, 2**40])
    def test_raw_chunk_boundaries_do_not_change_the_corpus(self, monkeypatch, chunk, vocab):
        # A refill may fall between the two halves of a 32-bit buffer or
        # inside a rejection loop.
        spec = SeqTaskSpec(vocab=vocab, p_insert=0.3, n=60, seed=2)
        monkeypatch.setattr(seq, "_RAW_CHUNK", chunk)
        assert self.fingerprint(gen_seq_dataset(spec)) == self.fingerprint(scalar_seq_dataset(spec))

    @pytest.mark.parametrize(
        "kwargs", [{"vocab": 2**63 + 1}, {"vocab": 2**63 + 5}, {"max_len": 2**63}, {"min_len": 2**64, "max_len": 2**64}]
    )
    def test_bounds_beyond_int64_rejected(self, kwargs):
        with pytest.raises(InvalidInput, match="int64"):
            gen_seq_dataset(SeqTaskSpec(n=5, **kwargs))

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"max_len": 1025}, "max_len must be at most 1024"),
            ({"min_len": 2**40, "max_len": 2**40}, "max_len must be at most 1024"),
            ({"n": 10**6 + 1}, "n must be at most 1000000"),
            ({"n": 3 * 10**9}, "n must be at most 1000000"),
        ],
    )
    def test_sizes_beyond_the_caps_rejected(self, kwargs, message):
        # validate() alone: nothing is allocated at the rejected sizes.
        with pytest.raises(InvalidInput, match=message):
            SeqTaskSpec(**kwargs).validate()

    def test_sizes_at_the_caps_accepted(self):
        SeqTaskSpec(n=10**6, max_len=1024).validate()
        for n in (2500, 5000):  # the acceptance and benchmark sizes
            SeqTaskSpec(n=n, max_len=8).validate()


class TestSeqBatches:
    @staticmethod
    def fingerprint(batches):
        return [(s.dtype.str, s.shape, s.tobytes(), t.dtype.str, t.shape, t.tobytes()) for s, t in batches]

    @pytest.mark.parametrize("batch_size", [1, 5, 32, 10_000])
    def test_stacked_buckets_give_the_per_epoch_stacks(self, batch_size):
        pairs = gen_seq_dataset(SeqTaskSpec(n=300, seed=4)).train
        buckets = seq._stack_buckets(pairs)
        for epoch in range(3):
            rng, ref_rng = np.random.default_rng([4, epoch]), np.random.default_rng([4, epoch])
            got = seq._bucketed_batches(buckets, batch_size, rng)
            want = stacked_batches(pairs, batch_size, ref_rng)
            assert self.fingerprint(got) == self.fingerprint(want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("loss", ["gsa", "mle"])
    @pytest.mark.parametrize("feed", ["softmax", "gumbel_st"])
    def test_training_equals_the_scalar_corpus_and_per_epoch_stacks(self, monkeypatch, loss, feed):
        spec = SeqTaskSpec(n=120, min_len=3, max_len=5, seed=3)
        config = TrainConfig(loss=loss, feed=feed, epochs=2, seed=3)
        got = TestFusedNodesInTraining.fingerprint(*train_seq(config, spec))
        monkeypatch.setattr(seq, "gen_seq_dataset", scalar_seq_dataset)
        monkeypatch.setattr(seq, "_stack_buckets", lambda pairs: pairs)
        monkeypatch.setattr(seq, "_bucketed_batches", stacked_batches)
        assert got == TestFusedNodesInTraining.fingerprint(*train_seq(config, spec))


class TestTemperatureSchedule:
    def test_linear_descent_to_floor(self):
        assert seq._tau_at(1) == 5.0
        assert seq._tau_at(2) == 4.5
        assert seq._tau_at(9) == 1.0
        assert seq._tau_at(50) == 1.0


class TestSeqTraining:
    def small_spec(self):
        return SeqTaskSpec(n=120, min_len=3, max_len=5)

    def test_alignment_training_logs_expected_metrics(self):
        rows, store = train_seq(TrainConfig(loss="gsa", feed="softmax", epochs=2), self.small_spec())
        assert [r.epoch for r in rows] == [0, 1, 2]
        for r in rows:
            assert ("test", "align_cost") in r.metrics
            assert ("test", "exact_match") in r.metrics
        # epoch 0 is the untrained snapshot: forward-only, no tau logged
        assert np.isfinite(rows[0].train_loss) and rows[0].train_loss > 0.0
        assert ("train", "tau") not in rows[0].metrics

    def test_gumbel_feed_logs_the_temperature_schedule(self):
        rows, store = train_seq(TrainConfig(loss="gsa", feed="gumbel_st", epochs=3), self.small_spec())
        taus = [r.metrics.get(("train", "tau")) for r in rows]
        assert taus[0] is None
        assert taus[1:] == [5.0, 4.5, 4.0]

    def test_mle_baseline_runs(self):
        rows, store = train_seq(TrainConfig(loss="mle", epochs=2), self.small_spec())
        assert np.isfinite(rows[-1].train_loss)

    @pytest.mark.parametrize("loss", ["gsa", "mle"])
    def test_the_smallest_corpus_trains_on_a_pair_every_epoch(self, loss):
        # n = 3 leaves 2 training pairs, so every epoch's mean loss is finite.
        rows, _ = train_seq(TrainConfig(loss=loss, epochs=2), SeqTaskSpec(n=3, min_len=3, max_len=4))
        assert [r.epoch for r in rows] == [0, 1, 2]
        assert all(np.isfinite(r.train_loss) and r.train_loss > 0.0 for r in rows)

    def test_matching_loss_rejected(self):
        with pytest.raises(ValueError):
            train_seq(TrainConfig(loss="matching"))

    def test_mle_batch_loss_passes_central_difference_checks(self):
        # The MLE baseline's loss node carries -Y_t / T for each step t; its
        # gradient in the output bias must match central differences.
        config = TrainConfig(loss="mle", seed=5)
        spec = self.small_spec()
        store = seq._init_store(config, spec.vocab)
        buckets = seq._stack_buckets(gen_seq_dataset(spec).train)
        batches = seq._bucketed_batches(buckets, 8, np.random.default_rng(0))
        src, tgt = max(batches, key=lambda b: b[0].shape[0] * b[1].shape[1])
        bo = store.params["bo"]

        def loss(x):
            bo.value[...] = x
            return seq._batch_loss(store, src, tgt, spec.vocab, config, 2.0, np.random.default_rng(7))

        x0 = 0.1 * np.random.default_rng(3).standard_normal(spec.vocab)
        store.zero_grad()
        loss(x0).backward()
        got = bo.grad.copy()
        assert rel_err(got, central_fd(lambda x: loss(x).item(), x0)) < 1e-6

    def test_invalid_gap_factor_rejected_before_any_work(self, monkeypatch):
        # Evaluation scores by alignment cost whatever the loss, so gamma is
        # checked for the MLE baseline too, before the data is generated.
        monkeypatch.setattr(seq, "gen_seq_dataset", lambda spec: pytest.fail("work started"))
        for gamma in (1.0, np.inf):
            with pytest.raises(ValueError, match="gap factor"):
                train_seq(TrainConfig(loss="mle", gamma=gamma), self.small_spec())

    @pytest.mark.parametrize("feed", ["softmax", "gumbel_st"])
    def test_batch_loss_is_bitwise_equal_to_per_example_losses(self, feed):
        config = TrainConfig(loss="gsa", feed=feed, gamma=1.1, seed=5)
        spec = self.small_spec()
        data = gen_seq_dataset(spec)
        store = seq._init_store(config, spec.vocab)
        batches = seq._bucketed_batches(seq._stack_buckets(data.train), config.batch_size, np.random.default_rng(0))
        src, tgt = max(batches, key=lambda b: b[0].shape[0] * b[1].shape[1])
        B, T = tgt.shape
        assert B > 1

        def run(loss_fn):
            store.zero_grad()
            loss = loss_fn(np.random.default_rng(7))
            loss.backward()
            return loss.value, {k: p.grad.copy() for k, p in store.params.items()}

        def per_example(rng):
            logps = seq._decode_train(store, seq._encode(store, src), T, spec.vocab, config, 2.0, rng)
            L = np.stack([lp.value for lp in logps])
            zs, grads = 0.0, np.zeros_like(L)
            for e in range(B):
                z, g = gsa_loss(L[:, e, :], np.eye(spec.vocab)[tgt[e]], config.gamma)
                zs += z
                grads[:, e, :] = g
            vjps = [(lambda up, Gt=grads[t]: up * Gt / (B * T)) for t in range(T)]
            return tape.custom_node(logps, zs / (B * T), vjps)

        value, grads = run(lambda rng: seq._batch_loss(store, src, tgt, spec.vocab, config, 2.0, rng))
        ref_value, ref_grads = run(per_example)
        assert value.tobytes() == ref_value.tobytes()
        assert grads.keys() == ref_grads.keys()
        for k in grads:
            assert grads[k].tobytes() == ref_grads[k].tobytes(), k

    def test_evaluate_is_bitwise_equal_to_per_row_solves(self):
        spec = self.small_spec()
        _, store = train_seq(TrainConfig(loss="gsa", epochs=2, seed=4), spec)
        pairs = gen_seq_dataset(spec).test
        steps = spec.max_len + 4
        eye = np.eye(spec.vocab)
        costs, exact = np.empty(len(pairs)), np.empty(len(pairs))
        groups = set()
        # Decode in the same source-length batches as evaluate, then solve
        # each row on its own.
        for L in sorted({len(s) for s, _ in pairs}):
            idx = [i for i, (s, _) in enumerate(pairs) if len(s) == L]
            logps, toks = seq._decode_greedy(store, np.stack([pairs[i][0] for i in idx]), spec.vocab, steps)
            for row, i in enumerate(idx):
                hit = np.flatnonzero(toks[row] == seq.EOS)
                end = int(hit[0]) + 1 if hit.size else steps
                t = pairs[i][1]
                groups.add((end, len(t)))
                grid = AlignGrid(m=-(logps[row, :end] @ eye[t].T), gamma=1.5)
                costs[i] = solve_gsa(grid).z_star
                exact[i] = float(end == len(t) and bool(np.all(toks[row, :end] == t)))
        assert len({end for end, _ in groups}) > 1
        cost, match = seq.evaluate(store, pairs, spec.vocab, 1.5, spec.max_len)
        assert cost == float(costs.mean()) and match == float(exact.mean())

    def test_evaluate_builds_no_gradients(self, monkeypatch):
        # Evaluation reads only the alignment costs, so it must not pay for
        # the gradient scatter.
        spec = self.small_spec()
        store = seq._init_store(TrainConfig(loss="gsa"), spec.vocab)
        pairs = gen_seq_dataset(spec).test

        def forbidden(*args):
            raise AssertionError("evaluate built alignment gradients")

        monkeypatch.setattr(_kernels, "gsa_grads", forbidden)
        cost, _ = seq.evaluate(store, pairs, spec.vocab, 1.5, spec.max_len)
        assert np.isfinite(cost)

    def test_evaluate_validates_gap_factor_and_costs(self):
        spec = self.small_spec()
        config = TrainConfig(loss="gsa")
        store = seq._init_store(config, spec.vocab)
        pairs = gen_seq_dataset(spec).test
        with pytest.raises(ValueError, match="gap factor"):
            seq.evaluate(store, pairs, spec.vocab, 1.0, spec.max_len)
        # A NaN parameter makes every decoded log-probability NaN, which the
        # match-cost build rejects.
        store.params["bo"].value[:] = np.nan
        with pytest.raises(NonFinite):
            seq.evaluate(store, pairs, spec.vocab, 1.5, spec.max_len)

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(loss="gsa", feed="gumbel_st", epochs=2, seed=99)
        r1, _ = train_seq(cfg, self.small_spec())
        r2, _ = train_seq(cfg, self.small_spec())
        for a, b in zip(r1, r2):
            assert a.train_loss == b.train_loss
            assert a.metrics == b.metrics
