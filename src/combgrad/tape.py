"""A small reverse-mode tape over float64 numpy arrays.

Just enough autodiff to train the experiment models end to end: a matmul,
fused affine and recurrent-step nodes, tanh, log-softmax, an embedding
gather, a tempered softmax and a straight-through Gumbel sampler, and
`custom_node`, which splices a value and its vector-Jacobian products
computed off the tape into the graph.  Every training loss enters this way:
`matching_loss` and `gsa_loss` return `(z*, grad)` from one solve,
cross-entropy reads its gradient -Y off the true targets, and the node
scales that gradient by the upstream one instead of differentiating
through the solver or the loss.

Values are ordinary numpy arrays; gradients accumulate into `.grad` during
`backward()`, which runs an iterative topological sort (no recursion-depth
issues on long unrolled sequences).
"""

from __future__ import annotations

import io
import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NonFinite


class Tensor:
    """One node of the tape: a value, its parents, and a backward closure.

    The closure is called with the node's gradient rather than reading it
    off the node, so it holds no reference back to its node: a graph has no
    reference cycles and is freed as soon as the last reference to it goes.
    """

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents: Sequence["Tensor"] = (), backward: Optional[Callable] = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into every reachable node's .grad."""
        if self.value.size != 1:
            raise DimensionMismatch("backward() starts from a scalar")
        if not np.isfinite(self.value):
            raise NonFinite("backward() from a non-finite loss")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        # Every value is float64 (see __init__), so plain zeros/ones by shape
        # skip zeros_like's dtype and layout lookup.
        for node in order:
            node.grad = np.zeros(node.value.shape)
        self.grad = np.ones(self.value.shape)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _acc(t: Tensor, g: np.ndarray) -> None:
    t.grad += _unbroadcast(g, t.value.shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.value @ b.value, (a, b))

    def _bw(g):
        _acc(a, g @ b.value.T)
        _acc(b, a.value.T @ g)

    out._backward = _bw
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.value)
    out = Tensor(y, (a,))

    def _bw(g):
        _acc(a, g * (1.0 - y * y))

    out._backward = _bw
    return out


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b as one node, with the values and gradients of the
    matmul-then-add chain bit for bit."""
    out = Tensor(x.value @ W.value + b.value, (x, W, b))

    def _bw(g):
        _acc(b, g)
        _acc(x, g @ W.value.T)
        _acc(W, x.value.T @ g)

    out._backward = _bw
    return out


def rnn_cell(x: Tensor, Wx: Tensor, h: Tensor, Wh: Tensor, b: Tensor) -> Tensor:
    """One recurrent step tanh((x @ Wx + h @ Wh) + b) as one node.

    Same arithmetic and the same per-parent backward terms, in the same
    order, as the chain tanh((matmul(x, Wx) + matmul(h, Wh)) + b) of
    one-op nodes, so values and gradients equal that chain's bit for
    bit."""
    y = np.tanh(x.value @ Wx.value + h.value @ Wh.value + b.value)
    out = Tensor(y, (x, Wx, h, Wh, b))

    def _bw(gy):
        g = gy * (1.0 - y * y)
        _acc(b, g)
        _acc(x, g @ Wx.value.T)
        _acc(Wx, x.value.T @ g)
        _acc(h, g @ Wh.value.T)
        _acc(Wh, h.value.T @ g)

    out._backward = _bw
    return out


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax of a 2-D tensor."""
    if a.value.ndim != 2:
        raise DimensionMismatch("log_softmax expects a 2-D tensor")
    x = a.value
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse
    out = Tensor(y, (a,))

    def _bw(g):
        soft = np.exp(y)
        _acc(a, g - soft * g.sum(axis=1, keepdims=True))

    out._backward = _bw
    return out


def _tempered_softmax(a: Tensor, x: np.ndarray, tau: float, value: Optional[np.ndarray] = None) -> Tensor:
    """A node on `a` for y = softmax(x / tau) by rows, where x is a.value
    plus a constant: its backward is y's Jacobian, and its value is y, or
    `value` when given (a straight-through forward)."""
    if isinstance(tau, bool) or not (isinstance(tau, numbers.Real) and 0.0 < tau < np.inf):
        raise InvalidInput(f"tau must be a finite number > 0, got {tau!r}")
    tau = float(tau)
    z = x / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y if value is None else value, (a,))

    def _bw(gy):
        _acc(a, (y / tau) * (gy - (gy * y).sum(axis=1, keepdims=True)))

    out._backward = _bw
    return out


def softmax_t(a: Tensor, tau: float) -> Tensor:
    """Row-wise tempered softmax, softmax(x / tau) — the soft feed for
    decoders that consume their own output distribution."""
    if a.value.ndim != 2:
        raise DimensionMismatch("softmax_t expects a 2-D tensor")
    return _tempered_softmax(a, a.value, tau)


def gumbel_softmax_st(logits: Tensor, tau: float, rng: np.random.Generator) -> Tensor:
    """Straight-through Gumbel sampler over rows.

    Forward emits the one-hot of argmax(logits + Gumbel noise), an exact
    categorical sample from softmax(logits); backward routes gradients
    through the tempered softmax of the noisy logits at temperature tau.
    """
    if logits.value.ndim != 2:
        raise DimensionMismatch("gumbel_softmax_st expects a 2-D tensor")
    u = rng.uniform(low=np.finfo(np.float64).tiny, high=1.0, size=logits.value.shape)
    noisy = logits.value - np.log(-np.log(u))
    hard = np.zeros_like(noisy)
    hard[np.arange(noisy.shape[0]), noisy.argmax(axis=1)] = 1.0
    return _tempered_softmax(logits, noisy, tau, hard)


def embed(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather table[ids]; backward scatter-adds (repeats accumulate)."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.value[ids], (table,))

    def _bw(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, ids, g)
        _acc(table, gt)

    out._backward = _bw
    return out


def custom_node(parents: Sequence[Tensor], value, vjps: Sequence[Callable]) -> Tensor:
    """A tensor whose forward value and per-parent vector-Jacobian products
    were computed outside the tape (e.g. a batched discrete loss)."""
    if len(parents) != len(vjps):
        raise DimensionMismatch("one vjp per parent required")
    out = Tensor(value, tuple(parents))

    def _bw(g):
        for p, vjp in zip(parents, vjps):
            _acc(p, np.asarray(vjp(g), dtype=np.float64))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# Parameters, optimizers, checkpoints.
# ---------------------------------------------------------------------------


@dataclass
class ParamStore:
    """Named trainable tensors plus optimizer slots and the step counter.

    Every parameter's value is a view into one flat float64 buffer that
    holds all parameters in insertion order; `add` repacks it.  So a value
    is changed in place (`value[...] = x`): an array bound to `.value`
    instead is not the one `adam_step` updates.  The Adam moments in
    `state` ("m" and "v") are flat arrays over the same layout, so
    `adam_step` updates every parameter in one elementwise pass.
    """

    params: Dict[str, Tensor] = field(default_factory=dict)
    seed: int = 0
    state: Dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    _values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._repack()

    def _repack(self) -> None:
        """Copy every value into one new flat buffer and rebind each
        parameter's value to its view of it."""
        flat = np.concatenate([np.empty(0), *(t.value for t in self.params.values())], axis=None)
        start = 0
        for t in self.params.values():
            t.value = flat[start : start + t.value.size].reshape(t.value.shape)
            start += t.value.size
        self._values = flat

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self.params:
            raise InvalidInput(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(value, dtype=np.float64))
        self.params[name] = t
        self._repack()
        return t

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def adam_step(store: ParamStore, lr: float) -> None:
    """One Adam update with bias correction and the standard moment decays
    (0.9, 0.999) and epsilon (1e-8).

    The gradients are gathered into one flat array, and the moments and
    values update in one elementwise pass over the store's flat buffers.
    A parameter whose grad is None keeps its value and moments; one added
    since the last step starts with zero moments."""
    if isinstance(lr, bool) or not (isinstance(lr, numbers.Real) and 0.0 < lr < np.inf):
        raise InvalidInput(f"lr must be a finite number > 0, got {lr!r}")
    store.step += 1
    t = store.step
    values = store._values
    m = store.state.setdefault("m", np.zeros(0))
    v = store.state.setdefault("v", np.zeros(0))
    if m.size < values.size:
        m = store.state["m"] = np.concatenate([m, np.zeros(values.size - m.size)])
        v = store.state["v"] = np.concatenate([v, np.zeros(values.size - v.size)])
    grads = [p.grad for p in store.params.values()]
    has_grad = [g is not None for g in grads]
    if all(has_grad):
        _adam_update(values, m, v, np.concatenate(grads, axis=None), lr, t)
    elif any(has_grad):
        live = np.repeat(has_grad, [p.value.size for p in store.params.values()])
        parts = [values[live], m[live], v[live]]
        _adam_update(*parts, np.concatenate([g for g in grads if g is not None], axis=None), lr, t)
        values[live], m[live], v[live] = parts


def _adam_update(values: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, lr: float, t: int) -> None:
    """Step t of Adam on flat arrays, in place.  m *= beta1 then
    m += (1 - beta1) g rounds exactly as beta1 m + (1 - beta1) g does, so
    the bits are those of the per-parameter update."""
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    v += (1.0 - _BETA2) * (g * g)
    values -= lr * (m / (1.0 - _BETA1**t)) / (np.sqrt(v / (1.0 - _BETA2**t)) + _EPS)


_CKPT_MAGIC = "combgrad-params v1"


def save_checkpoint(store: ParamStore, path: str) -> None:
    """Plain-text checkpoint: magic line, seed/step, then one parameter per
    block with shape header and %.17g values (exact float64 round-trip)."""
    buf = io.StringIO()
    buf.write(_CKPT_MAGIC + "\n")
    buf.write(f"seed {store.seed}\n")
    buf.write(f"step {store.step}\n")
    for name, t in store.params.items():
        dims = " ".join(str(d) for d in t.value.shape)
        buf.write(f"param {name} {t.value.ndim} {dims}".rstrip() + "\n")
        buf.write(" ".join("%.17g" % x for x in t.value.ravel()) + "\n")
    buf.write("end\n")
    with open(path, "w") as f:
        f.write(buf.getvalue())


def load_checkpoint(path: str) -> ParamStore:
    """Read a save_checkpoint file back.  InvalidInput when the file is not
    one, or is damaged or cut short."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != _CKPT_MAGIC:
        raise InvalidInput("not a recognized checkpoint file")
    store = ParamStore()
    i = 1
    try:
        while lines[i] != "end":
            head = lines[i].split()
            if head[:1] == ["seed"] and len(head) == 2:
                store.seed = int(head[1])
                i += 1
            elif head[:1] == ["step"] and len(head) == 2:
                store.step = int(head[1])
                i += 1
            elif head[:1] == ["param"] and len(head) >= 3 and len(head) == 3 + int(head[2]):
                shape = tuple(int(x) for x in head[3:])
                if min(shape, default=0) < 0:
                    raise ValueError(f"negative dimension in {shape}")
                vals = np.array([float(x) for x in lines[i + 1].split()], dtype=np.float64)
                store.add(head[1], vals.reshape(shape))
                i += 2
            else:
                raise InvalidInput(f"unrecognized checkpoint line: {lines[i]!r}")
    except InvalidInput:
        raise
    except IndexError:
        raise InvalidInput("checkpoint is cut short") from None
    except ValueError as exc:
        raise InvalidInput(f"damaged checkpoint at line {i + 1}: {exc}") from None
    return store

