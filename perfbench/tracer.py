"""Outside-in layer trace of combgrad.

Every traced function is wrapped where callers look it up: the wrapper
replaces each attribute of each loaded ``combgrad`` module that holds the
original object.  This matters because ``experiments/bags.py`` imports
``matching_loss`` by name, while ``assignment.py`` reaches the kernels
through the ``_kernels`` module; both lookups must hit the wrapper.

Spans (name, start, end, parent) stay in memory until :meth:`Tracer.write`.
A layer's self time is its spans' durations minus their direct children's.
A target that no longer exists is recorded as missing, not raised.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from importlib import import_module

_TAPE_FORWARD = (
    "matmul", "add", "mul", "scale", "tanh", "relu", "log_softmax", "softmax_t",
    "gumbel_softmax_st", "nll", "tsum", "tmean", "embed", "concat", "custom_node",
)

# (module, attribute, layer).  Several attributes may share one layer.
TARGETS = [
    ("combgrad._kernels", "assignment_kernel", "kernels.assignment_kernel"),
    ("combgrad._kernels", "assignment_kernel_many", "kernels.assignment_kernel_many"),
    ("combgrad._kernels", "gsa_kernel", "kernels.gsa_kernel"),
    ("combgrad._kernels", "gsa_kernel_many", "kernels.gsa_kernel_many"),
    ("combgrad.assignment", "filter_bag", "assignment.filter_bag"),
    ("combgrad.assignment", "matching_loss", "assignment.matching_loss"),
    ("combgrad.assignment", "solve_assignment", "assignment.solve_assignment"),
    ("combgrad.alignment", "gsa_loss", "alignment.gsa_loss"),
    ("combgrad.alignment", "solve_gsa", "alignment.solve_gsa"),
    ("combgrad.alignment", "gsa_grad_matrix", "alignment.gsa_grad_matrix"),
    *[("combgrad.tape", name, "tape.forward") for name in _TAPE_FORWARD],
    ("combgrad.tape", "Tensor.backward", "tape.backward"),
    ("combgrad.tape", "adam_step", "tape.adam_step"),
    ("combgrad.experiments.bags", "gen_bag_dataset", "experiments.gen_dataset"),
    ("combgrad.experiments.seq", "gen_seq_dataset", "experiments.gen_dataset"),
    ("combgrad.experiments.bags", "make_bags", "experiments.make_bags"),
    ("combgrad.experiments.bags", "eval_accuracy", "experiments.eval_accuracy"),
    ("combgrad.experiments.seq", "evaluate", "experiments.evaluate"),
    ("combgrad.experiments.bags", "train_bags", "experiments.train"),
    ("combgrad.experiments.seq", "train_seq", "experiments.train"),
]

_LOSSES = ("assignment.matching_loss", "alignment.gsa_loss")


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _count_cells_square(counts, layer, args, kwargs, result):
    C = _first(args, kwargs)
    counts[layer + ".cells"] += C.shape[0] * C.shape[1]


def _count_cells_lattice(counts, layer, args, kwargs, result):
    Tp, Tt = _first(args, kwargs).shape
    counts[layer + ".cells"] += (Tp + 1) * (Tt + 1)


def _count_instances(counts, layer, args, kwargs, result):
    counts[layer + ".instances"] += _first(args, kwargs).shape[0]


def _count_ties(counts, layer, args, kwargs, result):
    # unique is None when the caller skipped certification.
    if result.unique is not None:
        counts[layer + ".certified"] += 1
        counts[layer + ".ties"] += result.unique is False


_COUNTERS = {
    "kernels.assignment_kernel": _count_cells_square,
    "kernels.assignment_kernel_many": _count_instances,
    "kernels.gsa_kernel": _count_cells_lattice,
    "kernels.gsa_kernel_many": _count_instances,
    "assignment.solve_assignment": _count_ties,
    "alignment.solve_gsa": _count_ties,
}


def _resolve(module_name: str, attr: str):
    """(owner, name, object) for 'func' or 'Class.method' in a module."""
    owner = import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def patch_everywhere(module_name: str, attr: str, make_wrapper):
    """Replace the object at module.attr, and every alias of it in a loaded
    combgrad module, with make_wrapper(original).  Returns an undo list, or
    None when the target does not exist."""
    try:
        owner, name, original = _resolve(module_name, attr)
    except (ImportError, AttributeError):
        return None
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        sites = [(owner, name)]
    else:
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "combgrad" or mod_name.startswith("combgrad.")):
                continue
            sites += [(mod, key) for key, val in list(vars(mod).items()) if val is original]
    for site, key in sites:
        setattr(site, key, wrapper)
    return [(site, key, original) for site, key in sites]


def unpatch(undo) -> None:
    for site, key, original in reversed(undo):
        setattr(site, key, original)


class Tracer:
    """Span recorder for the TARGETS; install() before, uninstall() after."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._undo = []

    def install(self) -> None:
        combgrad = import_module("combgrad")
        invocations = getattr(combgrad, "invocations", None)
        reset = getattr(combgrad, "reset_invocations", None)
        if invocations is None or reset is None:
            self.missing.append("combgrad.invocations")
            invocations = None
        else:
            reset()
        for module_name, attr, layer in TARGETS:
            undo = patch_everywhere(
                module_name, attr, lambda fn, layer=layer: self._wrap(fn, layer, invocations)
            )
            if undo is None:
                self.missing.append(f"{module_name}.{attr}")
            else:
                self._undo += undo

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def _wrap(self, fn, layer, invocations):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        count = _COUNTERS.get(layer)
        solves = invocations if layer in _LOSSES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if solves is not None:
                before = sum(solves().values())
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if solves is not None:
                counts["loss.kernel_solves"] += sum(solves().values()) - before
            if count is not None:
                count(counts, layer, args, kwargs, result)
            return result

        return wrapper

    def layer_totals(self) -> dict:
        """{layer: (calls, total seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (layer, start, end, _) in enumerate(self.spans):
            agg = out[layer]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def metrics(self) -> dict:
        """Per-layer metrics by name; layers never called read 0."""
        totals = self.layer_totals()
        c = self.counts
        m = {}
        for layer in {layer for _, _, layer in TARGETS}:
            calls, total, self_s = totals.get(layer, (0, 0.0, 0.0))
            m[layer + ".calls"] = calls
            m[layer + ".self_s"] = self_s
            m[layer + ".s"] = total
        for layer in ("kernels.assignment_kernel", "kernels.gsa_kernel"):
            m[layer + ".cells"] = c[layer + ".cells"]
        for layer in ("kernels.assignment_kernel_many", "kernels.gsa_kernel_many"):
            m[layer + ".instances"] = c[layer + ".instances"]
        for layer, name in (("assignment.solve_assignment", "assignment"), ("alignment.solve_gsa", "alignment")):
            certified = c[layer + ".certified"]
            m[name + ".tie_rate"] = c[layer + ".ties"] / certified if certified else 0.0
        losses = sum(m[layer + ".calls"] for layer in _LOSSES)
        m["kernel.solves_per_loss"] = c["loss.kernel_solves"] / losses if losses else 0.0
        return m

    def write(self, path: str, header: str) -> None:
        """Spans as TSV: name, start, end, parent index (-1 for a root)."""
        with open(path, "w") as f:
            f.write(f"# {header}\n")
            if self.missing:
                f.write(f"# missing {' '.join(self.missing)}\n")
            f.write("name\tstart\tend\tparent\n")
            f.writelines(f"{n}\t{s!r}\t{e!r}\t{p}\n" for n, s, e, p in self.spans)
