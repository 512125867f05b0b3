"""Census of the public settings: every parameter with a default.

Covers the combgrad-defined callables in ``combgrad.__all__``, the public
names of ``combgrad.tape`` and ``combgrad.experiments.__all__``; a class
counts through its constructor, so a dataclass field with a default is a
parameter.  A new knob, or a removed one, shows up as an edit to the table
below in the same change.
"""

import inspect

import combgrad
import combgrad.experiments
import combgrad.tape

_SETTINGS = {
    "combgrad.core.GenGrad": ("d_c", "d_b", "d_A"),
    "combgrad.core.supergradient_check": ("trials", "tol", "rng"),
    "combgrad.experiments.bags.BagDatasetSpec": ("num_classes", "n", "feature_dim", "separation", "seed"),
    "combgrad.experiments.bags.train_bags": ("spec",),
    "combgrad.experiments.common.MetricsRow": ("metrics", "seconds"),
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
    "combgrad.experiments.seq.train_seq": ("spec",),
    "combgrad.lpref.check_lp_grads": ("eps", "rtol", "rng"),
    "combgrad.tape.ParamStore": ("params", "seed", "state", "step"),
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
    assert sum(len(names) for names in _SETTINGS.values()) == 40
