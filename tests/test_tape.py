"""Reverse-mode tape: primitive gradients, optimizers, checkpoints."""

import gc
from types import SimpleNamespace

import numpy as np
import pytest

from combgrad import DimensionMismatch, NonFinite, matching_loss
from combgrad.experiments import TrainConfig, bags, seq
from combgrad.tape import (
    ParamStore,
    Tensor,
    adam_step,
    affine,
    custom_node,
    embed,
    gumbel_softmax_st,
    load_checkpoint,
    log_softmax,
    matmul,
    rnn_cell,
    save_checkpoint,
    softmax_t,
    tanh,
)

from helpers import add, adam_step_per_parameter, central_fd, chain_affine, chain_rnn_cell, rel_err, weighted_sum

RNG = np.random.default_rng(1234)


def fd_check(build, x0, *, eps=1e-6, tol=1e-5):
    """Compare tape gradient of a scalar graph against central differences.

    build(x_tensor) must return a scalar Tensor; returns max relative error.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    xt = Tensor(x0.copy())
    loss = build(xt)
    loss.backward()
    got = xt.grad.copy()

    def f(x):
        return build(Tensor(np.asarray(x, dtype=np.float64))).item()

    want = central_fd(f, x0, eps=eps)
    err = rel_err(got, want)
    assert err < tol, f"rel err {err}"
    return err


class TestPrimitiveGradients:
    def test_matmul(self):
        B = Tensor(RNG.standard_normal((4, 3)))
        r = RNG.standard_normal((2, 3))
        fd_check(lambda x: weighted_sum(matmul(x, B), r), RNG.standard_normal((2, 4)))

    def test_matmul_right_operand(self):
        A = Tensor(RNG.standard_normal((2, 4)))
        r = RNG.standard_normal((2, 3))
        fd_check(lambda x: weighted_sum(matmul(A, x), r), RNG.standard_normal((4, 3)))

    def test_tanh(self):
        r = RNG.standard_normal((2, 3))
        fd_check(lambda x: weighted_sum(tanh(x), r), RNG.standard_normal((2, 3)))

    def test_log_softmax(self):
        r = RNG.standard_normal((3, 4))
        fd_check(lambda x: weighted_sum(log_softmax(x), r), RNG.standard_normal((3, 4)))

    def test_log_softmax_rows_normalize(self):
        out = log_softmax(Tensor(np.zeros((2, 4))))
        assert np.allclose(out.value, -np.log(4.0))

    def test_softmax_temperature(self):
        r = RNG.standard_normal((3, 4))
        fd_check(lambda x: weighted_sum(softmax_t(x, 0.7), r), RNG.standard_normal((3, 4)))

    def test_embed_accumulates_repeated_rows(self):
        ids = np.array([0, 1, 0, 2])
        r = RNG.standard_normal((4, 3))
        fd_check(lambda x: weighted_sum(embed(x, ids), r), RNG.standard_normal((5, 3)))

    @pytest.mark.parametrize("parent", ["x", "Wx", "h", "Wh", "b"])
    def test_rnn_cell_every_parent(self, parent):
        # Two steps share Wx, Wh and the 1-D bias, which broadcasts over the
        # batch; the second step's h is the first step's rnn_cell output.
        shapes = {"x": (3, 2), "Wx": (2, 4), "h": (3, 4), "Wh": (4, 4), "b": (4,)}
        vals = {k: RNG.standard_normal(shape) for k, shape in shapes.items()}
        x2 = Tensor(RNG.standard_normal((3, 2)))
        r = RNG.standard_normal((3, 4))

        def build(t):
            a = {k: t if k == parent else Tensor(v) for k, v in vals.items()}
            h1 = rnn_cell(a["x"], a["Wx"], a["h"], a["Wh"], a["b"])
            return weighted_sum(rnn_cell(x2, a["Wx"], h1, a["Wh"], a["b"]), r)

        fd_check(build, vals[parent])

    @pytest.mark.parametrize("parent", ["x", "W", "b"])
    def test_affine_every_parent(self, parent):
        shapes = {"x": (3, 2), "W": (2, 4), "b": (4,)}
        vals = {k: RNG.standard_normal(shape) for k, shape in shapes.items()}
        r = RNG.standard_normal((3, 4))

        def build(t):
            a = {k: t if k == parent else Tensor(v) for k, v in vals.items()}
            return weighted_sum(affine(a["x"], a["W"], a["b"]), r)

        fd_check(build, vals[parent])

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([1.0, 2.0]))
        loss = weighted_sum(add(x, x), np.ones(2))
        loss.backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_long_chain_does_not_recurse(self):
        x = Tensor(np.array([1.0]))
        y = x
        for _ in range(5000):
            y = add(y, x)
        weighted_sum(y, np.ones(1)).backward()
        assert x.grad is not None

    def test_a_graph_holds_no_reference_cycles(self):
        # Every primitive in one graph, run backward and dropped: with the
        # cyclic collector off, reference counting alone must free it, so
        # a training step's graph never waits for a collection.
        rng = np.random.default_rng(5)
        gc.collect()
        gc.disable()
        try:
            x = Tensor(rng.standard_normal((3, 4)))
            W, b = Tensor(rng.standard_normal((4, 4))), Tensor(rng.standard_normal(4))
            h = rnn_cell(x, W, tanh(affine(x, W, b)), W, b)
            h = embed(matmul(h, W), np.array([0, 2, 2]))
            logp = log_softmax(add(softmax_t(h, 0.7), gumbel_softmax_st(h, 0.5, rng)))
            loss = custom_node([logp], 0.0, [lambda up: up * logp.value])
            loss.backward()
            del x, W, b, h, logp, loss
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFusedNodesMatchTheirChains:
    """Each fused node against the chain it replaces (the oracle in
    helpers): forward values and every leaf's gradient are byte-equal."""

    def leaves(self, shapes):
        rng = np.random.default_rng(2024)
        return {k: Tensor(rng.standard_normal(shape)) for k, shape in shapes.items()}

    def compare(self, run, shapes):
        runs = []
        for fused in (True, False):
            leaves = self.leaves(shapes)
            outs = run(leaves, fused)
            runs.append(([o.value.tobytes() for o in outs], {k: t.grad.tobytes() for k, t in leaves.items()}))
        assert runs[0] == runs[1]

    def test_rnn_cell_unroll_is_bytewise_equal_to_the_chain(self):
        # Six steps reuse Wx, Wh and b; every h also feeds an affine read-out,
        # as in the decoder, so each h gathers gradient from two children.
        steps = 6
        shapes = {"Wx": (3, 5), "Wh": (5, 5), "b": (5,), "h0": (4, 5), "Wo": (5, 2), "bo": (2,)}
        shapes.update({f"x{t}": (4, 3) for t in range(steps)})
        r = np.random.default_rng(2025).standard_normal((steps, 4, 2))

        def run(p, fused):
            cell = rnn_cell if fused else chain_rnn_cell
            h, outs = p["h0"], []
            for t in range(steps):
                h = cell(p[f"x{t}"], p["Wx"], h, p["Wh"], p["b"])
                outs += [h, log_softmax(affine(h, p["Wo"], p["bo"]))]
            loss = weighted_sum(h, h.value)
            for t in range(steps):
                loss = add(loss, weighted_sum(outs[2 * t + 1], r[t]))
            loss.backward()
            return outs + [loss]

        self.compare(run, shapes)

    def test_affine_unroll_is_bytewise_equal_to_the_chain(self):
        steps = 6
        shapes = {"x": (4, 5), "W": (5, 5), "b": (5,)}
        r = np.random.default_rng(2025).standard_normal((4, 5))

        def run(p, fused):
            layer = affine if fused else chain_affine
            h, outs = p["x"], []
            for _ in range(steps):
                h = tanh(layer(h, p["W"], p["b"]))
                outs.append(h)
            loss = weighted_sum(h, r)
            loss.backward()
            return outs + [loss]

        self.compare(run, shapes)


class TestStraightThroughSampler:
    def test_forward_emits_one_hot_argmax_of_noisy_logits(self):
        logits = Tensor(RNG.standard_normal((6, 4)))
        out = gumbel_softmax_st(logits, 2.0, np.random.default_rng(99))
        assert out.value.shape == (6, 4)
        assert np.array_equal(np.sort(np.unique(out.value)), [0.0, 1.0])
        assert np.array_equal(out.value.sum(axis=1), np.ones(6))

    def test_forward_is_reproducible_per_seed(self):
        logits = Tensor(RNG.standard_normal((6, 4)))
        a = gumbel_softmax_st(logits, 2.0, np.random.default_rng(5)).value
        b = gumbel_softmax_st(logits, 2.0, np.random.default_rng(5)).value
        assert np.array_equal(a, b)

    def test_temperature_does_not_change_the_sample(self):
        logits = Tensor(RNG.standard_normal((6, 4)))
        a = gumbel_softmax_st(logits, 0.5, np.random.default_rng(5)).value
        b = gumbel_softmax_st(logits, 5.0, np.random.default_rng(5)).value
        assert np.array_equal(a, b)

    def test_backward_follows_the_tempered_softmax_path(self):
        x0 = RNG.standard_normal((3, 4))
        r = RNG.standard_normal((3, 4))
        tau = 1.3

        xt = Tensor(x0.copy())
        out = gumbel_softmax_st(xt, tau, np.random.default_rng(77))
        weighted_sum(out, r).backward()
        got = xt.grad.copy()

        # Rebuild the same noise and differentiate the soft path by hand.
        rng = np.random.default_rng(77)
        u = rng.uniform(low=np.finfo(np.float64).tiny, high=1.0, size=x0.shape)
        noise = -np.log(-np.log(u))

        def f(x):
            z = (x + noise) / tau
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            soft = e / e.sum(axis=1, keepdims=True)
            return float((soft * r).sum())

        want = central_fd(f, x0, eps=1e-6)
        assert rel_err(got, want) < 1e-5

    def test_one_dim_logits_rejected(self):
        with pytest.raises(DimensionMismatch):
            gumbel_softmax_st(Tensor(np.zeros(4)), 1.0, np.random.default_rng(0))


class TestOptimalValueNode:
    def node_and_point(self):
        # custom_node over matching_loss's (z*, grad), fed by a log-softmax.
        d = 4
        Y = np.eye(d)[[0, 2, 1]]
        logits = RNG.standard_normal((3, d))

        def node(x):
            logp = log_softmax(x)
            z, g = matching_loss(logp.value, Y)
            return custom_node([logp], z, [lambda up: up * g])

        return node, logits

    def test_composite_gradient_matches_finite_differences(self):
        node, logits = self.node_and_point()
        fd_check(node, logits, eps=1e-7, tol=1e-5)

    def test_upstream_scaling_via_square(self):
        node, logits = self.node_and_point()
        xt = Tensor(logits.copy())
        z = node(xt)
        custom_node([z], z.value * z.value, [lambda up: up * 2.0 * z.value]).backward()
        g_sq = xt.grad.copy()

        xt2 = Tensor(logits.copy())
        z2 = node(xt2)
        z2.backward()
        assert np.allclose(g_sq, 2.0 * z2.item() * xt2.grad, atol=1e-12)

    def test_custom_node_routes_vjps(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([3.0]))
        out = custom_node([a, b], 5.0, [lambda up: up * np.array([10.0, 20.0]), lambda up: up * np.array([30.0])])
        out.backward()
        assert np.array_equal(a.grad, [10.0, 20.0])
        assert np.array_equal(b.grad, [30.0])

    def test_custom_node_requires_one_vjp_per_parent(self):
        with pytest.raises(DimensionMismatch):
            custom_node([Tensor(np.zeros(2))], 0.0, [])

    def test_corrupted_gradient_is_caught_by_fd(self):
        # Negative control: a deliberately wrong vjp must fail the check.
        def build(x):
            return custom_node([x], float(np.tanh(x.value).sum()), [lambda up: up * (1.0 - np.tanh(x.value) ** 2) * 1.01])

        x0 = RNG.standard_normal(5)
        xt = Tensor(x0.copy())
        build(xt).backward()
        got = xt.grad.copy()
        want = central_fd(lambda x: float(np.tanh(x).sum()), x0, eps=1e-6)
        assert rel_err(got, want) > 1e-5


class TestBackwardGuards:
    def test_non_scalar_start_rejected(self):
        with pytest.raises(DimensionMismatch):
            Tensor(np.zeros(3)).backward()

    def test_non_finite_start_rejected(self):
        with pytest.raises(NonFinite):
            Tensor(np.array(np.inf)).backward()


class TestOptimizers:
    def test_adam_first_step_is_bias_corrected(self):
        store = ParamStore()
        w = store.add("w", np.zeros(3))
        g = np.array([1.0, -2.0, 0.5])
        w.grad = g.copy()
        adam_step(store, lr=0.01)
        expect = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(w.value, expect, atol=1e-12)

    def test_adam_skips_parameters_without_gradients(self):
        store = ParamStore()
        w = store.add("w", np.ones(2))
        adam_step(store, lr=0.1)
        assert np.array_equal(w.value, [1.0, 1.0])
        assert store.step == 1

    def test_zero_grad_clears_gradients(self):
        store = ParamStore()
        w = store.add("w", np.ones(2))
        w.grad = np.ones(2)
        store.zero_grad()
        assert w.grad is None

    def test_duplicate_parameter_name_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(1))
        with pytest.raises(ValueError):
            store.add("w", np.ones(1))


def _per_parameter_copy(store):
    """The store's values and step, for the per-parameter oracle loop."""
    return SimpleNamespace(
        params={name: Tensor(p.value.copy()) for name, p in store.params.items()}, state={}, step=store.step
    )


def _assert_same_state(store, ref):
    # The flat moments hold each parameter's moments in insertion order; one
    # that has not had a gradient yet has zero moments.
    assert store.step == ref.step
    start = 0
    for name, p in store.params.items():
        assert p.value.tobytes() == ref.params[name].value.tobytes(), name
        stop = start + p.value.size
        for slot in ("m", "v"):
            want = ref.state[slot].get(name, np.zeros(p.value.shape))
            assert store.state[slot][start:stop].tobytes() == want.tobytes(), (slot, name)
        start = stop


class TestFlatAdam:
    @pytest.mark.parametrize("model", ["bags", "seq"])
    def test_bytewise_equal_to_the_per_parameter_loop(self, model, tmp_path):
        config = TrainConfig()
        store = bags._init_store(config, 20, 10) if model == "bags" else seq._init_store(config, 12)
        ref = _per_parameter_copy(store)
        rng = np.random.default_rng(71)
        skipped = list(store.params)[1]

        def step(lr):
            for name, p in store.params.items():
                g = rng.standard_normal(p.value.shape)
                p.grad = None if name == skipped and store.step + 1 in (2, 4) else g
                ref.params[name].grad = None if p.grad is None else g.copy()
            adam_step(store, lr=lr)
            adam_step_per_parameter(ref, lr=lr)
            _assert_same_state(store, ref)

        for t in range(1, 7):
            if t == 4:
                late = rng.standard_normal((3, 2))
                store.add("late", late)
                ref.params["late"] = Tensor(late.copy())
            step(0.01)

        # A loaded checkpoint trains on from the saved values with fresh moments.
        path = str(tmp_path / "ck.params.txt")
        save_checkpoint(store, path)
        back = load_checkpoint(path)
        for name, p in store.params.items():
            assert back.params[name].value.tobytes() == p.value.tobytes(), name
        store, ref = back, _per_parameter_copy(back)
        for _ in range(2):
            step(0.003)


class TestCheckpoints:
    def test_round_trip_is_bitwise(self, tmp_path):
        store = ParamStore(seed=123)
        store.add("a", np.random.default_rng(1).standard_normal((3, 4)))
        store.add("b", np.array([1e-300, 1.0, np.pi]))
        store.step = 42
        path = str(tmp_path / "ck.params.txt")
        save_checkpoint(store, path)
        back = load_checkpoint(path)
        assert back.seed == 123 and back.step == 42
        assert set(back.params) == {"a", "b"}
        for name in ("a", "b"):
            assert np.array_equal(back.params[name].value, store.params[name].value)

    def test_unrecognized_file_rejected(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as f:
            f.write("something else\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)
