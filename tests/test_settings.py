"""Census of the public settings: every parameter with a default.

Covers the combgrad-defined callables in ``combgrad.__all__``, the public
names of ``combgrad.tape`` and ``combgrad.experiments.__all__``; a class
counts through its constructor, so a dataclass field with a default is a
parameter.  A new knob, or a removed one, shows up as an edit to the table
below in the same change.

Also guards that every object is built whole in one step: no tape node gets
its backward closure after construction, and no config is checked again
after it checked itself when it was made.
"""

import ast
import inspect
from pathlib import Path

import combgrad
import combgrad.experiments
import combgrad.tape

_SETTINGS = {
    "combgrad.core.supergradient_check": ("trials", "tol", "rng"),
    "combgrad.experiments.bags.BagDatasetSpec": ("num_classes", "n", "feature_dim", "separation", "seed"),
    "combgrad.experiments.common.TrainConfig": (
        "loss",
        "feed",
        "bag_size",
        "gamma",
        "epochs",
        "lr",
        "batch_size",
        "seed",
        "threshold",
    ),
    "combgrad.experiments.seq.SeqTaskSpec": ("vocab", "min_len", "max_len", "p_drop", "p_insert", "n", "seed"),
    "combgrad.lpref.check_lp_grads": ("eps", "rtol", "rng"),
    "combgrad.tape.ParamStore": ("seed",),
    "combgrad.tape.Tensor": ("parents", "backward"),
}


def _public_callables():
    public_tape = [name for name in dir(combgrad.tape) if not name.startswith("_")]
    found = {}
    for module, names in (
        (combgrad, combgrad.__all__),
        (combgrad.tape, public_tape),
        (combgrad.experiments, combgrad.experiments.__all__),
    ):
        for name in names:
            obj = getattr(module, name)
            if callable(obj) and getattr(obj, "__module__", "").startswith("combgrad."):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def _settings():
    table = {}
    for qualname, obj in sorted(_public_callables().items()):
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # no introspectable signature
            continue
        defaults = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaults:
            table[qualname] = defaults
    return table


def test_public_settings_match_the_frozen_table():
    assert _settings() == _SETTINGS
    assert sum(len(names) for names in _SETTINGS.values()) == 30


class _AfterConstruction(ast.NodeVisitor):
    """Sites in one module that finish or re-check an object after its
    constructor: an assignment to a `_backward` attribute outside
    `Tensor.__init__`, and a `.validate()` call other than `self.validate()`
    in a `__post_init__`."""

    def __init__(self, name: str):
        self.name = name
        self.scope = []
        self.sites = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Attribute(self, node):
        if node.attr == "_backward" and isinstance(node.ctx, ast.Store) and self.scope[-2:] != ["Tensor", "__init__"]:
            self.sites.append(f"{self.name}:{node.lineno}")
        self.generic_visit(node)

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "validate":
            by_self = isinstance(f.value, ast.Name) and f.value.id == "self"
            if not (by_self and self.scope[-1:] == ["__post_init__"]):
                self.sites.append(f"{self.name}:{node.lineno}")
        self.generic_visit(node)


def test_no_object_is_finished_or_rechecked_after_its_constructor():
    src = Path(combgrad.__file__).parent
    sites = []
    for path in sorted(src.rglob("*.py")):
        scan = _AfterConstruction(str(path.relative_to(src)))
        scan.visit(ast.parse(path.read_text()))
        sites += scan.sites
    assert sites == []
