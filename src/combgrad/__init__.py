"""combgrad: exact generalized gradients of combinatorial optimal values.

The optimal value of a linear program — and of the discrete problems that
embed into one, like min-cost assignment and monotone sequence alignment —
is a piecewise-linear function of its data, and one optimal primal/dual
witness pair is a generalized gradient in all three data blocks at once.
This package computes those gradients from a single solver run, wires them
into a small reverse-mode tape, and uses them to train models whose losses
are themselves optimization problems.
"""

from ._kernels import get_backend, invocations, reset_invocations
from .alignment import (
    AlignGrid,
    AlignResult,
    build_grid,
    gsa_grad_matrix,
    gsa_loss,
    solve_gsa,
)
from .assignment import (
    MatchingResult,
    assignment_gengrad,
    filter_bag,
    matching_loss,
    solve_assignment,
)
from .core import (
    GenGrad,
    LPSpec,
    SolverOutcome,
    SupergradReport,
    strong_duality_gap,
    supergradient_check,
)
from .errors import (
    CombgradError,
    DegenerateInstance,
    DimensionMismatch,
    Infeasible,
    InvalidInput,
    IterationLimit,
    NonFinite,
    NonSquare,
    TrainAborted,
    Unbounded,
)
from .lpref import (
    FDReport,
    LPGradCheck,
    check_lp_grads,
    random_lp,
    solve_lp,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # backends / counters
    "get_backend",
    "invocations",
    "reset_invocations",
    # core
    "LPSpec",
    "SolverOutcome",
    "GenGrad",
    "SupergradReport",
    "strong_duality_gap",
    "supergradient_check",
    # assignment
    "MatchingResult",
    "solve_assignment",
    "assignment_gengrad",
    "matching_loss",
    "filter_bag",
    # alignment
    "AlignGrid",
    "AlignResult",
    "build_grid",
    "solve_gsa",
    "gsa_grad_matrix",
    "gsa_loss",
    # reference LP
    "solve_lp",
    "check_lp_grads",
    "FDReport",
    "LPGradCheck",
    "random_lp",
    # errors
    "CombgradError",
    "InvalidInput",
    "DimensionMismatch",
    "NonSquare",
    "NonFinite",
    "Infeasible",
    "Unbounded",
    "IterationLimit",
    "DegenerateInstance",
    "TrainAborted",
]
