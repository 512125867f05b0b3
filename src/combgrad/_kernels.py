"""Hot solver kernels: assignment by shortest augmenting paths, alignment by lattice DP.

Each problem has exactly two bodies:

* the numpy reference (``_assign_many_py``, ``_gsa_py``), which is the
  readable oracle;
* the C port (``assign_many``, ``gsa_many`` in ``_kernels.c``), compiled
  with the system C compiler on first use (never on import) into a
  per-user cache directory and loaded through ctypes.

The port repeats the solve, the refinement, the certificate's closure and
the lattice DP statement for statement, in the same arithmetic order, so
the ``c`` and ``numpy`` backends produce bitwise-identical outputs.  Its
one shortcut, ``light_acyclic``, skips the closure where no near-tie can
exist; the bitwise tests check that it keeps the closure's verdict.  The
backend is decided once per process, on the first kernel call: ``c`` when
the C library builds and loads, otherwise the package warns once and runs
on ``numpy``.  A C call that fails raises (``MemoryError`` when its
workspace cannot be allocated, ``NonFinite`` on a non-finite step); it is
never re-solved on the other backend.  The numpy reference raises
``NonFinite`` on the same steps.

Both assignment bodies check their cost range before they solve
(``_check_cost_range``: NonFinite when a cost is NaN, infinite or large
enough that a sum over a matching can overflow), so the public entry
points leave that check to the kernel.  The C body tests the same
predicate in one pass and reports it as a status, on which Python raises
the same error.  Alignment grids are range-checked where they are built
(``alignment.check_grids``).

A single instance goes to the C body as it is: the body copies it into its
output block and returns 1-D arrays and scalars, with no stack axis to
strip.  The numpy body solves it as a stack of one.  Each kernel returns
read-only arrays and decides its own ties.  The
assignment kernel solves, refines each matching to the lexicographically
smallest near-optimal one (``_lex_refine``) and certifies it
(``_certify``): the matching costs at most its dual sum plus ``_TOL``, and
``unique`` says whether every other matching costs more than that matching
plus ``_TOL``, as an O(b^3) closure over the swaps decides (``_min_cycle``).
The alignment kernel solves, counts the paths tied at each node within
``_TOL * (1 + |best|)`` of its best cost, and returns the winning path as
each step's kind and the cell whose cost it paid, gap clamp included;
:func:`gsa_grads` turns those into gradients.
Every dispatch increments an invocation counter per kernel kind so callers
can assert how many solver runs a code path costs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import re
import struct
import subprocess
import tempfile
import warnings

import numpy as np

from .core import _F64_MAX
from .errors import DimensionMismatch, NonFinite, NonSquare

_COUNTS = {"assignment": 0, "gsa": 0, "lp": 0}


def increment(kind: str, by: int = 1) -> None:
    _COUNTS[kind] += by


def invocations() -> dict:
    """Snapshot of solver-invocation counts per kernel kind."""
    return dict(_COUNTS)


def reset_invocations() -> None:
    for k in _COUNTS:
        _COUNTS[k] = 0


# The cached verdict of get_backend(); None until its first call.
_BACKEND = None


def get_backend() -> str:
    """Name of the active backend: "c" when the C library builds or loads
    here, else "numpy".  The first call decides it for the process."""
    global _BACKEND
    if _BACKEND is None:
        _BACKEND = "numpy" if c_library() is None else "c"
    return _BACKEND


# ---------------------------------------------------------------------------
# The compiled C library.
# ---------------------------------------------------------------------------

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# No floating-point contraction: a fused multiply-add rounds differently from
# the numpy reference, and the backends must agree bit for bit.  -O3, because
# -O2 leaves the certificate closure's inner loop (min_cycle) scalar; vector
# code keeps every operation's rounding, so the bits stay the reference's.
_C_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_LIBRARY_NAME = re.compile(r"kernels-[0-9a-f]{16}\.so")


def _c_library_path() -> str:
    """Path of the compiled kernel library, building it if no process has.

    The file name carries a hash of the source and flags, so a library is
    compiled at most once per version.  The compiler writes to a temporary
    name that is renamed into place, so a concurrent process never loads a
    partial file.  A new build then removes the libraries of every other
    version, so the cache does not grow with each edit of the source; a
    process that has one of them loaded keeps its mapping.
    """
    with open(_C_SOURCE, "rb") as f:
        digest = hashlib.sha256(f.read() + " ".join(_C_FLAGS).encode()).hexdigest()[:16]
    cache = os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache"), "combgrad"
    )
    path = os.path.join(cache, f"kernels-{digest}.so")
    if not os.path.exists(path):
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
        os.close(fd)
        try:
            subprocess.run(["cc", *_C_FLAGS, "-o", tmp, _C_SOURCE], check=True, capture_output=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        for name in os.listdir(cache):
            if _LIBRARY_NAME.fullmatch(name) and name != os.path.basename(path):
                with contextlib.suppress(OSError):  # another process removed it first
                    os.remove(os.path.join(cache, name))
    return path


@functools.cache
def c_library():
    """The loaded kernel library, or None if it cannot be built here."""
    try:
        lib = ctypes.CDLL(_c_library_path())
    except (OSError, subprocess.CalledProcessError) as exc:
        warnings.warn(f"C kernel library unavailable, using numpy: {exc}", RuntimeWarning, stacklevel=2)
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.assign_many.argtypes = [ptr, i64, i64, ctypes.c_double, ptr]
    lib.assign_many.restype = ctypes.c_int
    lib.gsa_many.argtypes = [ptr, i64, i64, i64, ctypes.c_double, ctypes.c_double, ptr]
    lib.gsa_many.restype = ctypes.c_int
    return lib


# Each C entry point writes all its outputs into one fresh byte block, which
# the caller splits into the typed arrays it returns, widest dtype first so
# every array is aligned.  The block's address comes from a ctypes view of
# its buffer: about 0.4 us on a 2-core Xeon, against 1.1 us for
# ndarray.ctypes.data.  Such a view needs a writable buffer of at least one
# byte, so an empty stack still gets a one-byte block.  A single instance,
# whose input may be read-only, is copied into the block ahead of the
# outputs, so that one view gives both addresses: about 0.5 us saved per
# call up to 32x33 costs.  A stack is read in place: copying it made
# `combgrad bench assignment` slower at b = 8 (1.64 against 1.32 us per
# instance).  The block is frozen once the kernel has written it, so every
# array split from it is read-only.


def _block(x, nbytes: int):
    """A fresh block for nbytes bytes of output and the addresses a C body
    reads and writes: (block, costs, out, at), the outputs starting at byte
    at.  One (n, m) instance x is copied into the block as C-ordered float64
    first; a stack x must already be C-contiguous float64."""
    if x.ndim == 2:
        at = 8 * x.size
        block = np.empty(at + nbytes, np.uint8)
        np.ndarray(x.shape, np.float64, block)[...] = x
        costs = ctypes.addressof(ctypes.c_char.from_buffer(block))
        return block, costs, costs + at, at
    block = np.empty(max(nbytes, 1), np.uint8)
    return block, x.ctypes.data, ctypes.addressof(ctypes.c_char.from_buffer(block)), 0


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only in place: the numpy bodies' outputs are
    frozen like the C bodies' blocks."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _raise_status(status: int, x) -> None:
    """Raise the error a nonzero C kernel status on input x stands for."""
    if status == 1:
        raise MemoryError("the C kernel could not allocate its workspace")
    if status == 3:
        _check_cost_range(x)  # raises: status 3 is its predicate failing
    raise NonFinite(_NO_FINITE_STEP)


# ---------------------------------------------------------------------------
# Assignment: Jonker-Volgenant style shortest augmenting paths with potentials,
# then a lexicographic refinement of the matching and its certificate.
#
# Indices are 1-based internally (row/column 0 is a sentinel).  The final
# potentials (u, v) are feasible duals: u[j] + v[k] <= C[j, k] everywhere,
# with equality on matched edges, so sum(u) + sum(v) equals the optimal cost.
# ---------------------------------------------------------------------------

# The one tie tolerance of both kernels (the alignment kernel's use is
# described with it, below).  A matching within _TOL of the optimum is tied
# with it: refinement counts an edge as tight when its slack is at most
# _TOL / b, so b tight edges cost at most sum(u) + sum(v) + _TOL, and the
# certificate calls a matching unique when every other one costs more than
# it + _TOL.
_TOL = 1e-9

# What both bodies raise, as NonFinite, when a non-finite cost leaves a step
# with no finite choice.
_NO_FINITE_STEP = "a non-finite cost left the kernel without a finite step"


def _check_cost_range(Cs: np.ndarray) -> None:
    """Reject costs whose sums can overflow, for one matrix or a stack.

    Both assignment bodies check this at entry: _assign_many_py calls it,
    and assign_many tests the same predicate in C and returns status 3,
    which _assign_many_c turns into this error.  A phase of the kernel ends
    with every column's v in [-2 max|C|, 0] (a column it never scanned
    keeps v = 0 and bounds the others through dual feasibility) and every u
    within 3 max|C|, and no step inside a phase moves them by more than
    max|C|.  So reduced costs stay within 8 max|C|, and each edge of the
    certificate's swap graph within 16 max|C|.  The closure adds two paths
    of at most b edges, and a matching sums b costs, so requiring
    32 b max|C| to be finite keeps the duals, z* and every cycle sum
    finite.  Costs that pass elementwise can still fail this: a sum of
    5e307 costs overflows.
    """
    b = Cs.shape[-1]
    top = float(np.abs(Cs).max(initial=0.0))  # NaN or inf when any cost is
    if not math.isfinite(top):
        raise NonFinite("cost matrix must be finite")
    if top > _F64_MAX / (32.0 * max(b, 1)):
        raise NonFinite(f"costs up to {top:.3g} can overflow a sum over a {b}x{b} matching")


def _assign_core_py(C):
    # Returns (perm, u, v): the optimal matching and its feasible duals.  The
    # inner column scan is the only vectorized part and is elementwise, so
    # results match the solve in assign_many (_kernels.c) bit for bit.
    n = C.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, np.int64)  # p[j]: row matched to column j (0 = free)
    way = np.zeros(n + 1, np.int64)
    cols = np.arange(1, n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, np.bool_)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            cur = C[i0 - 1, :] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[cols[better]] = j0
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            if not delta < np.inf:
                raise NonFinite(_NO_FINITE_STEP)
            u[p[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    perm = np.empty(n, np.int64)
    perm[p[1:] - 1] = cols - 1
    return perm, u[1:], v[1:]


def _lex_refine(C: np.ndarray, perm: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Refine an optimal matching to the lexicographically smallest tight one.

    The tight graph is {(i, j) : C[i, j] - u[i] - v[j] <= _TOL / b}: every
    exact optimum is a perfect matching of it, and every perfect matching of
    it costs at most sum(u) + sum(v) + _TOL.  Its lex-min perfect matching
    is found by fixing rows in order: hand row i the smallest tight column
    for which the displaced rows can re-match (never disturbing already-fixed
    rows), then freeze it.  The reference for lex_refine in _kernels.c.
    """
    b = C.shape[0]
    slack = C - u[:, None] - v[None, :]
    # Tight columns per row as Python lists: one nonzero pass, no per-row calls.
    ti, tj = np.nonzero(slack <= _TOL / max(b, 1))
    ends = np.searchsorted(ti, np.arange(b + 1)).tolist()
    tj = tj.tolist()
    cols = [tj[ends[i] : ends[i + 1]] for i in range(b)]
    matchL = perm.copy()
    matchR = np.empty(b, dtype=np.int64)
    matchR[perm] = np.arange(b)
    fixed = np.zeros(b, dtype=bool)

    def rematch(r: int, visited: np.ndarray) -> bool:
        # Classic augmenting search, depth first with an explicit stack so a
        # long chain of ties cannot exhaust the recursion limit.  rows[t]
        # scans its tight columns from nxt[t]; via[t] is the column it tries,
        # whose owner is rows[t + 1].  Commits only along a successful path.
        rows, nxt, via = [r], [0], []
        while rows:
            r, k = rows[-1], nxt[-1]
            cr = cols[r]
            while k < len(cr):
                j = cr[k]
                k += 1
                if visited[j]:
                    continue
                visited[j] = True
                owner = matchR[j]
                if owner < 0:
                    via.append(j)
                    for row, col in zip(rows, via):
                        matchL[row] = col
                        matchR[col] = row
                    return True
                if not fixed[owner]:
                    nxt[-1] = k
                    rows.append(int(owner))
                    nxt.append(0)
                    via.append(j)
                    break
            else:
                rows.pop()
                nxt.pop()
                if via:
                    via.pop()
        return False

    for i in range(b):
        for j in cols[i]:
            if j == matchL[i]:
                break
            r = int(matchR[j])
            if fixed[r]:
                continue
            old = matchL[i]
            matchL[i] = j
            matchR[j] = i
            matchR[old] = -1
            visited = np.zeros(b, dtype=bool)
            visited[j] = True
            if rematch(r, visited):
                break
            matchL[i] = old
            matchR[old] = i
            matchR[j] = r
        fixed[i] = True
    return matchL


def _min_cycle(W: np.ndarray) -> np.ndarray:
    """Weight of the lightest directed cycle in each graph of a (k, b, b) stack.

    W[t, i, j] weighs the edge i -> j (inf: no edge); the diagonal is
    ignored.  A min-plus Floyd-Warshall closure through m = 0..b-1 leaves
    D[t, i, i] the lightest closed walk through i, and every closed walk is
    a union of cycles, so the diagonal's minimum is the lightest cycle (inf
    when the graph has none).  b vectorized steps of O(k b^2) work each.
    The reference for min_cycle in _kernels.c.
    """
    k, b, _ = W.shape
    D = np.array(W, dtype=np.float64, order="C")
    diag = D.reshape(k, b * b)[:, :: b + 1]
    diag[...] = np.inf
    for m in range(b):
        np.minimum(D, D[:, :, m, None] + D[:, None, m, :], out=D)
    return diag.min(axis=1, initial=np.inf)


def _certify(Cs, perms, us, vs):
    """Per instance: does every other matching cost more than perm's + _TOL?

    Any other matching differs from perm by cycles of rows i taking column
    perm[r].  W[i, r] = slack[i, perm[r]] - slack[r, perm[r]] is the extra
    cost of one such swap (perm's own edges may keep up to _TOL / b slack,
    which is subtracted), so a cycle of W weighs what its matching costs
    beyond perm's, and perm is unique when the lightest cycle weighs more
    than _TOL.  A NaN weight reads as a tie.
    """
    slack = Cs - us[:, :, None] - vs[:, None, :]
    S = np.take_along_axis(slack, perms[:, None, :], axis=2)
    return _min_cycle(S - np.diagonal(S, axis1=1, axis2=2)[:, None, :]) > _TOL


def _assign_many_py(Cs):
    _check_cost_range(Cs)
    k, n, _ = Cs.shape
    perms = np.empty((k, n), np.int64)
    us = np.empty((k, n))
    vs = np.empty((k, n))
    for t in range(k):
        perm, us[t], vs[t] = _assign_core_py(Cs[t])
        perms[t] = _lex_refine(Cs[t], perm, us[t], vs[t])
    return _frozen(perms, us, vs, _certify(Cs, perms, us, vs))


def _assign_many_c(Cs):
    # Cs is a C-contiguous float64 (k, n, n) stack, or one (n, n) instance
    # of any layout whose outputs have no stack axis: 1-D arrays and unique
    # as a numpy bool.
    lead, n = Cs.shape[:-2], Cs.shape[-1]
    k = Cs.shape[0] if lead else 1
    kn = k * n
    block, costs, out, at = _block(Cs, 24 * kn + k)
    status = c_library().assign_many(costs, k, n, _TOL, out)
    if status:
        _raise_status(status, Cs)
    block.setflags(write=False)
    row = lead + (n,)
    at_unique = at + 24 * kn
    unique = np.ndarray(lead, np.bool_, block, at_unique) if lead else block[at_unique] == 1
    return (
        np.ndarray(row, np.int64, block, at),
        np.ndarray(row, np.float64, block, at + 8 * kn),
        np.ndarray(row, np.float64, block, at + 16 * kn),
        unique,
    )


def _assign_many(Cs):
    # One (n, n) instance or a (k, n, n) stack; the callers check the rank.
    # The numpy body solves stacks only, so it gets a single instance as a
    # stack of one.
    if Cs.shape[-1] != Cs.shape[-2]:
        raise NonSquare(f"cost matrices must be square, got {Cs.shape[-2:]}")
    if Cs.ndim == 2 and get_backend() == "c":
        return _assign_many_c(Cs)
    stack = np.ascontiguousarray(Cs if Cs.ndim == 3 else Cs[None], dtype=np.float64)
    out = _assign_many_c(stack) if get_backend() == "c" else _assign_many_py(stack)
    return out if Cs.ndim == 3 else tuple(a[0] for a in out)


def assignment_kernel(C: np.ndarray):
    """Solve and certify one square assignment instance.

    Returns (perm, u, v, unique), the arrays read-only.  (u, v) are feasible
    duals of the exact optimum.  perm is the lexicographically smallest
    matching whose edges each have slack C[i, j] - u[i] - v[j] of at most
    _TOL / b, so it costs at most sum(u) + sum(v) + _TOL, within _TOL of
    the minimum; on exact ties it is the lex-min optimum.  unique is True
    when every other matching costs more than perm's cost + _TOL.
    NonFinite when a cost is not finite or so large that a sum over a
    matching can overflow (_check_cost_range).
    """
    increment("assignment")
    if C.ndim != 2:
        raise DimensionMismatch(f"expected an (n, n) cost matrix, got shape {C.shape}")
    return _assign_many(C)


def assignment_kernel_many(Cs: np.ndarray):
    """Solve and certify a (k, n, n) stack of assignment instances in one
    dispatch; returns assignment_kernel's outputs stacked (unique as a (k,)
    bool array)."""
    increment("assignment", int(Cs.shape[0]))
    if Cs.ndim != 3:
        raise DimensionMismatch(f"expected a (k, n, n) stack of cost matrices, got shape {Cs.shape}")
    return _assign_many(Cs)


# ---------------------------------------------------------------------------
# Alignment: min-cost monotone lattice path on nodes (i, k), 0 <= i <= Tp,
# 0 <= k <= Tt.  Edge kinds: 1 = diagonal match, 2 = gap that advances the
# target index (horizontal), 3 = gap that advances the predicted index
# (vertical).  Gap edges read the match cost at the source node with
# out-of-range indices clamped to the last valid cell, scaled by gamma; the
# backtrack records each step's kind and the flat index of the cell it read.
# Ties prefer diagonal, then horizontal gap, then vertical gap.  Paths are
# counted node by node: a candidate within _TOL * (1 + |best|) of its node's
# best cost counts as tied there.  So a runner-up path within _TOL * (1 + |z|)
# of the optimum z is dropped where it meets the optimal path if it is dearer
# there than that node's tolerance (solve_gsa gives an example).
# ---------------------------------------------------------------------------


def _gsa_py(m, gamma):
    # The reference; gsa_many in _kernels.c repeats it statement for statement.
    Tp, Tt = m.shape
    dist = np.full((Tp + 1, Tt + 1), np.inf)
    choice = np.zeros((Tp + 1, Tt + 1), np.int8)
    npaths = np.zeros((Tp + 1, Tt + 1), np.int64)
    dist[0, 0] = 0.0
    npaths[0, 0] = 1
    for i in range(Tp + 1):
        for k in range(Tt + 1):
            if i == 0 and k == 0:
                continue
            cand_d = cand_h = cand_v = np.inf
            n_d = n_h = n_v = 0
            if i > 0 and k > 0:
                cand_d = dist[i - 1, k - 1] + m[i - 1, k - 1]
                n_d = npaths[i - 1, k - 1]
            if k > 0:
                ic = i if i < Tp else Tp - 1
                cand_h = dist[i, k - 1] + gamma * m[ic, k - 1]
                n_h = npaths[i, k - 1]
            if i > 0:
                kc = k if k < Tt else Tt - 1
                cand_v = dist[i - 1, k] + gamma * m[i - 1, kc]
                n_v = npaths[i - 1, k]
            best = np.inf
            ch = 0
            if cand_d < best:
                best = cand_d
                ch = 1
            if cand_h < best:
                best = cand_h
                ch = 2
            if cand_v < best:
                best = cand_v
                ch = 3
            dist[i, k] = best
            choice[i, k] = ch
            lim = best + _TOL * (1.0 + abs(best))
            cnt = (n_d if cand_d <= lim else 0) + (n_h if cand_h <= lim else 0) + (n_v if cand_v <= lim else 0)
            npaths[i, k] = min(cnt, 2)
    total = Tp + Tt
    kinds = np.zeros(total, np.int8)
    cells = np.zeros(total, np.int64)
    i = Tp
    k = Tt
    pos = total
    while i != 0 or k != 0:
        ch = choice[i, k]
        pos -= 1
        if ch == 1:
            i -= 1
            k -= 1
            cell = i * Tt + k
        elif ch == 2:
            k -= 1
            cell = (i if i < Tp else Tp - 1) * Tt + k
        else:
            if i == 0:
                raise NonFinite(_NO_FINITE_STEP)
            ch = 3
            i -= 1
            cell = i * Tt + (k if k < Tt else Tt - 1)
        kinds[pos] = ch
        cells[pos] = cell
    return float(dist[Tp, Tt]), kinds, cells, npaths[Tp, Tt] == 1


def _gsa_many_py(ms, gamma):
    nb, Tp, Tt = ms.shape
    zs, unique = np.empty(nb), np.empty(nb, np.bool_)
    kinds, cells = np.empty((nb, Tp + Tt), np.int8), np.empty((nb, Tp + Tt), np.int64)
    for t in range(nb):
        zs[t], kinds[t], cells[t], unique[t] = _gsa_py(ms[t], gamma)
    # Stack-flat cells, padding included, as gsa_many writes them.
    cells += np.arange(0, nb * Tp * Tt, Tp * Tt)[:, None]
    return _frozen(zs, kinds, cells, unique)


def _gsa_many_c(ms, gamma):
    # ms is a C-contiguous float64 (nb, Tp, Tt) stack, or one (Tp, Tt) grid
    # of any layout whose outputs have no stack axis: 1-D paths, z as a
    # float and unique as a numpy bool.
    lead, (Tp, Tt) = ms.shape[:-2], ms.shape[-2:]
    nb = ms.shape[0] if lead else 1
    steps = nb * (Tp + Tt)
    block, costs, out, at = _block(ms, 8 * nb + 9 * steps + nb)
    status = c_library().gsa_many(costs, nb, Tp, Tt, gamma, _TOL, out)
    if status:
        _raise_status(status, ms)
    block.setflags(write=False)
    path = lead + (Tp + Tt,)
    at_unique = at + 8 * nb + 9 * steps
    kinds = np.ndarray(path, np.int8, block, at + 8 * nb + 8 * steps)
    cells = np.ndarray(path, np.int64, block, at + 8 * nb)
    if lead:
        return np.ndarray(lead, np.float64, block, at), kinds, cells, np.ndarray(lead, np.bool_, block, at_unique)
    return struct.unpack_from("d", block, at)[0], kinds, cells, block[at_unique] == 1


def _gsa_many(ms, gamma):
    # One (Tp, Tt) grid or a (nb, Tp, Tt) stack, as _assign_many takes them.
    if ms.shape[-2] < 1 or ms.shape[-1] < 1:
        raise DimensionMismatch(f"expected non-empty grids, got shape {ms.shape}")
    gamma = float(gamma)
    if ms.ndim == 2 and get_backend() == "c":
        return _gsa_many_c(ms, gamma)
    stack = np.ascontiguousarray(ms if ms.ndim == 3 else ms[None], dtype=np.float64)
    out = _gsa_many_c(stack, gamma) if get_backend() == "c" else _gsa_many_py(stack, gamma)
    return out if ms.ndim == 3 else tuple(a[0] for a in out)


def gsa_grads(kinds, cells, Tp, Tt, gamma):
    """Dense gradients from gsa paths: kinds and cells of one path give a
    (Tp, Tt) matrix, and a stack of paths with stack-flat cells a (k, Tp,
    Tt) stack.  Each step adds 1 (match) or gamma (gap) to the cell it
    paid, accumulated in path order by one np.bincount.  The padding before
    a path's first step has kind 0 and weighs 0."""
    lead = kinds.shape[:-1]
    gamma = float(gamma)
    weights = np.array([0.0, 1.0, gamma, gamma]).take(kinds)
    G = np.bincount(cells.ravel(), weights.ravel(), minlength=math.prod(lead) * Tp * Tt)
    return G.reshape(lead + (Tp, Tt))


def gsa_kernel(m: np.ndarray, gamma: float):
    """Solve one alignment grid.  Returns (z, kinds, cells, unique): the
    optimal cost, the path (each step's kind and the flat index into m of
    the cost it paid, filled from the end, kind 0 before the first step, as
    read-only arrays) and whether the optimal path is unique."""
    increment("gsa")
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a non-empty (Tp, Tt) grid, got shape {m.shape}")
    z, kinds, cells, unique = _gsa_many(m, gamma)
    return float(z), kinds, cells, unique


def gsa_kernel_many(ms: np.ndarray, gamma: float):
    """Solve a (k, Tp, Tt) stack of grids; returns gsa_kernel's outputs
    stacked, with grid t's cells (padding included) offset by t * Tp * Tt,
    so they index the stack's flat cost array."""
    increment("gsa", int(ms.shape[0]))
    if ms.ndim != 3:
        raise DimensionMismatch(f"expected a (k, Tp, Tt) stack of non-empty grids, got shape {ms.shape}")
    return _gsa_many(ms, gamma)
