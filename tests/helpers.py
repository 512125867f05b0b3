"""Shared test utilities: central finite differences, error measures, a
weighted sum that turns a tensor into a scalar loss, the unfused tape
chains that serve as oracles for the fused nodes, and the per-parameter
Adam loop that serves as the oracle for the flat one."""

import numpy as np

from combgrad import tape


def central_fd(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function at x, shaped like x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (float(f(xp)) - float(f(xm))) / (2.0 * eps)
        it.iternext()
    return g


def rel_err(a, b):
    """Max-norm relative error with a unit floor in the denominator."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0, float(np.max(np.abs(b))) if b.size else 0.0)
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff / denom


def weighted_sum(y, r):
    """The scalar sum(y * r) for a constant array r, as one tape node."""
    return tape.custom_node([y], float((y.value * r).sum()), [lambda up: up * r])


def add(a, b):
    """a + b with numpy broadcasting, as one tape node that passes its
    gradient to both parents unchanged."""
    return tape.custom_node([a, b], a.value + b.value, [lambda g: g, lambda g: g])


def chain_rnn_cell(x, Wx, h, Wh, b):
    """The matmul/add/tanh chain that tape.rnn_cell fuses."""
    return tape.tanh(add(add(tape.matmul(x, Wx), tape.matmul(h, Wh)), b))


def chain_affine(x, W, b):
    """The matmul/add chain that tape.affine fuses."""
    return add(tape.matmul(x, W), b)


def adam_step_per_parameter(store, lr):
    """The per-parameter Adam loop that tape.adam_step runs as one flat pass.

    `store` has `params` (name -> Tensor), `step` and `state`, whose "m" and
    "v" map each name to that parameter's moments; a parameter without a
    gradient is skipped, and its moments start at zero on its first step."""
    store.step += 1
    t = store.step
    m_slot = store.state.setdefault("m", {})
    v_slot = store.state.setdefault("v", {})
    for name, p in store.params.items():
        if p.grad is None:
            continue
        g = p.grad
        m = m_slot.get(name)
        v = v_slot.get(name)
        if m is None:
            m = np.zeros_like(p.value)
            v = np.zeros_like(p.value)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        m_slot[name] = m
        v_slot[name] = v
        mhat = m / (1.0 - 0.9**t)
        vhat = v / (1.0 - 0.999**t)
        p.value -= lr * mhat / (np.sqrt(vhat) + 1e-8)
