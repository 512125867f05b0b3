"""Shared test utilities: central finite differences, error measures, and
the unfused tape chains that serve as oracles for the fused nodes."""

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


def chain_rnn_cell(x, Wx, h, Wh, b):
    """The matmul/add/tanh chain that tape.rnn_cell fuses."""
    return tape.tanh(tape.add(tape.add(tape.matmul(x, Wx), tape.matmul(h, Wh)), b))


def chain_affine(x, W, b):
    """The matmul/add chain that tape.affine fuses."""
    return tape.add(tape.matmul(x, W), b)
