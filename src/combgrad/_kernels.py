"""Hot solver kernels: assignment by shortest augmenting paths, alignment by lattice DP.

Each problem has exactly two bodies:

* the numpy reference (``_assign_core_py``, ``_gsa_py``), which is the
  readable oracle;
* a statement-for-statement C port (``assign_many``, ``gsa_many`` in
  ``_kernels.c``), compiled with the system C compiler on first use (never
  on import) into a per-user cache directory and loaded through ctypes.

Both follow the same arithmetic order, so the ``c`` and ``numpy`` backends
produce bitwise-identical outputs.  The backend is fixed for the process:
the ``COMBGRAD_BACKEND`` environment variable ("c" or "numpy", default
"c") picks it, and if the C library cannot be built the package warns and
runs on ``numpy``.  A C call that fails raises (``MemoryError`` when its
workspace cannot be allocated, ``NonFinite`` on a non-finite step); it is
never re-solved on the other backend.

Single-instance entry points run a stack of one, so every public kernel
goes through one path per problem.  Each kernel decides its own ties.  The
assignment kernel solves, refines each matching to the lexicographically
smallest near-optimal one (``_lex_refine``, ported as ``lex_refine`` in C)
and certifies it (``_min_cycle``, ported as ``min_cycle``): the matching
costs at most its dual sum plus ``_TOL``, and ``unique`` says whether every
other matching costs more than that matching plus ``_TOL``.  The alignment
kernel solves, counts the paths tied within ``_TOL * (1 + |z|)``, and
returns the winning path as each step's kind and the cell whose cost it
paid, gap clamp included; :func:`gsa_grads` turns those into gradients.
Every dispatch increments an invocation counter per kernel kind so callers
can assert how many solver runs a code path costs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import re
import subprocess
import tempfile
import warnings

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NonFinite, NonSquare

_COUNTS = {"assignment": 0, "gsa": 0, "lp": 0}


def increment(kind: str, by: int = 1) -> None:
    _COUNTS[kind] += by


def invocations() -> dict:
    """Snapshot of solver-invocation counts per kernel kind."""
    return dict(_COUNTS)


def reset_invocations() -> None:
    for k in _COUNTS:
        _COUNTS[k] = 0


def _resolve_backend() -> str:
    raw = os.environ.get("COMBGRAD_BACKEND", "").strip().lower()
    if raw == "":
        return "c"
    if raw not in ("c", "numpy"):
        raise InvalidInput(f"COMBGRAD_BACKEND must be 'c' or 'numpy', got {raw!r}")
    return raw


_BACKEND = _resolve_backend()


def get_backend() -> str:
    """Name of the active backend.

    "c" is provisional until the library is first needed: this builds or
    loads it then, and falls back to "numpy" for good if that fails.
    """
    global _BACKEND
    if _BACKEND == "c" and c_library() is None:
        _BACKEND = "numpy"
    return _BACKEND


# ---------------------------------------------------------------------------
# The compiled C library.
# ---------------------------------------------------------------------------

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# No floating-point contraction: a fused multiply-add rounds differently from
# the numpy reference, and the backends must agree bit for bit.
_C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
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
# every array is aligned.  A call looks up two addresses.  The block's comes
# from a ctypes view of its buffer: about 0.8 us on a 2-core Xeon, against
# 2.2 us for ndarray.ctypes.data.  Such a view needs a writable buffer of at
# least one byte, so an empty stack still gets a one-byte block.  The input
# may be read-only, so its address stays ndarray.ctypes.data; copying the
# input into the block instead made `combgrad bench assignment`'s b = 8
# solve slower (2.4 to 3.0 us per instance).


def _out_block(nbytes: int):
    """A fresh output block of at least nbytes bytes, and its address."""
    block = np.empty(max(nbytes, 1), np.uint8)
    return block, ctypes.addressof(ctypes.c_char.from_buffer(block))


def _raise_status(status: int) -> None:
    """Raise the error a nonzero C kernel status stands for."""
    if status == 1:
        raise MemoryError("the C kernel could not allocate its workspace")
    raise NonFinite("a non-finite cost left the C kernel without a finite step")


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


def _assign_core_py(C, u, v, p, way, minv, used, perm):
    # Workspace-reusing core: all arrays are caller-allocated and fully
    # reset here, so batched callers pay no per-instance allocations.  The
    # inner column scan is the only vectorized part and is elementwise, so
    # results match the solve in assign_many (_kernels.c) bit for bit.
    n = C.shape[0]
    u[:] = 0.0
    v[:] = 0.0
    p[:] = 0  # p[j]: row matched to column j (0 = free)
    way[:] = 0
    cols = np.arange(1, n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv[:] = np.inf
        used[:] = False
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
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1


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
    beyond perm's.
    """
    slack = Cs - us[:, :, None] - vs[:, None, :]
    S = np.take_along_axis(slack, perms[:, None, :], axis=2)
    W = S - np.diagonal(S, axis1=1, axis2=2)[:, None, :]
    return _min_cycle(W) > _TOL


def _assign_many_py(Cs):
    k, n, _ = Cs.shape
    perms = np.empty((k, n), np.int64)
    us = np.empty((k, n))
    vs = np.empty((k, n))
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, np.int64)
    way = np.zeros(n + 1, np.int64)
    minv = np.empty(n + 1)
    used = np.zeros(n + 1, np.bool_)
    perm = np.empty(n, np.int64)
    for t in range(k):
        _assign_core_py(Cs[t], u, v, p, way, minv, used, perm)
        perms[t] = _lex_refine(Cs[t], perm, u[1:], v[1:])
        us[t] = u[1:]
        vs[t] = v[1:]
    return perms, us, vs, _certify(Cs, perms, us, vs)


def _assign_many_c(Cs):
    k, n, _ = Cs.shape
    kn = k * n
    block, out = _out_block(24 * kn + k)
    status = c_library().assign_many(Cs.ctypes.data, k, n, _TOL, out)
    if status:
        _raise_status(status)
    us = np.ndarray((k, n), np.float64, block, 8 * kn)
    vs = np.ndarray((k, n), np.float64, block, 16 * kn)
    return np.ndarray((k, n), np.int64, block), us, vs, np.ndarray(k, np.bool_, block, 24 * kn)


def _assign_many(Cs):
    if Cs.ndim != 3:
        raise DimensionMismatch(f"expected a (k, n, n) stack of cost matrices, got shape {Cs.shape}")
    if Cs.shape[1] != Cs.shape[2]:
        raise NonSquare(f"cost matrices must be square, got {Cs.shape[1:]}")
    Cs = np.ascontiguousarray(Cs, dtype=np.float64)
    return _assign_many_c(Cs) if get_backend() == "c" else _assign_many_py(Cs)


def assignment_kernel(C: np.ndarray):
    """Solve and certify one square assignment instance.

    Returns (perm, u, v, unique).  (u, v) are feasible duals of the exact
    optimum.  perm is the lexicographically smallest matching whose edges
    each have slack C[i, j] - u[i] - v[j] of at most _TOL / b, so it costs
    at most sum(u) + sum(v) + _TOL, within _TOL of the minimum; on exact
    ties it is the lex-min optimum.  unique is True when every other
    matching costs more than perm's cost + _TOL.
    """
    increment("assignment")
    perms, us, vs, unique = _assign_many(C[None, :, :])
    return perms[0], us[0], vs[0], unique[0]


def assignment_kernel_many(Cs: np.ndarray):
    """Solve and certify a (k, n, n) stack of assignment instances in one
    dispatch; returns assignment_kernel's outputs stacked (unique as a (k,)
    bool array)."""
    increment("assignment", int(Cs.shape[0]))
    return _assign_many(Cs)


# ---------------------------------------------------------------------------
# Alignment: min-cost monotone lattice path on nodes (i, k), 0 <= i <= Tp,
# 0 <= k <= Tt.  Edge kinds: 1 = diagonal match, 2 = gap that advances the
# target index (horizontal), 3 = gap that advances the predicted index
# (vertical).  Gap edges read the match cost at the source node with
# out-of-range indices clamped to the last valid cell, scaled by gamma; the
# backtrack records each step's kind and the flat index of the cell it read.
# Ties prefer diagonal, then horizontal gap, then vertical gap.  A candidate
# within _TOL * (1 + |best|) of a node's best cost counts as tied when paths
# are counted.
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
            best = np.inf
            ch = 0
            cand_d = np.inf
            cand_h = np.inf
            cand_v = np.inf
            if i > 0 and k > 0:
                cand_d = dist[i - 1, k - 1] + m[i - 1, k - 1]
                if cand_d < best:
                    best = cand_d
                    ch = 1
            if k > 0:
                ic = i if i < Tp else Tp - 1
                cand_h = dist[i, k - 1] + gamma * m[ic, k - 1]
                if cand_h < best:
                    best = cand_h
                    ch = 2
            if i > 0:
                kc = k if k < Tt else Tt - 1
                cand_v = dist[i - 1, k] + gamma * m[i - 1, kc]
                if cand_v < best:
                    best = cand_v
                    ch = 3
            dist[i, k] = best
            choice[i, k] = ch
            tie = _TOL * (1.0 + abs(best))
            cnt = 0
            if cand_d <= best + tie:
                cnt += npaths[i - 1, k - 1]
            if cand_h <= best + tie:
                cnt += npaths[i, k - 1]
            if cand_v <= best + tie:
                cnt += npaths[i - 1, k]
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
            ch = 3
            i -= 1
            cell = i * Tt + (k if k < Tt else Tt - 1)
        kinds[pos] = ch
        cells[pos] = cell
    return float(dist[Tp, Tt]), kinds, cells, npaths[Tp, Tt] == 1


def _gsa_outputs(nb, total):
    """Stacked result arrays of ``_gsa_py``: z, kinds, cells, unique."""
    return np.empty(nb), np.empty((nb, total), np.int8), np.empty((nb, total), np.int64), np.empty(nb, np.bool_)


def _gsa_many_py(ms, gamma):
    nb, Tp, Tt = ms.shape
    out = _gsa_outputs(nb, Tp + Tt)
    for t in range(nb):
        for stacked, x in zip(out, _gsa_py(ms[t], gamma)):
            stacked[t] = x
    return out


def _gsa_many_c(ms, gamma):
    nb, Tp, Tt = ms.shape
    steps = nb * (Tp + Tt)
    block, out = _out_block(8 * nb + 9 * steps + nb)
    status = c_library().gsa_many(ms.ctypes.data, nb, Tp, Tt, gamma, _TOL, out)
    if status:
        _raise_status(status)
    cells = np.ndarray((nb, Tp + Tt), np.int64, block, 8 * nb)
    kinds = np.ndarray((nb, Tp + Tt), np.int8, block, 8 * nb + 8 * steps)
    return np.ndarray(nb, np.float64, block), kinds, cells, np.ndarray(nb, np.bool_, block, 8 * nb + 9 * steps)


def _gsa_many(ms, gamma):
    if ms.ndim != 3 or ms.shape[1] < 1 or ms.shape[2] < 1:
        raise DimensionMismatch(f"expected a (k, Tp, Tt) stack of non-empty grids, got shape {ms.shape}")
    ms = np.ascontiguousarray(ms, dtype=np.float64)
    gamma = float(gamma)
    return _gsa_many_c(ms, gamma) if get_backend() == "c" else _gsa_many_py(ms, gamma)


def gsa_grads(kinds, cells, Tp, Tt, gamma):
    """Dense (k, Tp, Tt) gradients from stacked gsa paths: each step adds 1
    (match) or gamma (gap) to the cell it paid, accumulated in path order by
    np.bincount.  The padding before a path's first step has kind 0 and
    weighs 0."""
    nb = kinds.shape[0]
    gamma = float(gamma)
    weights = np.array([0.0, 1.0, gamma, gamma]).take(kinds)
    flat = cells + np.arange(0, nb * Tp * Tt, Tp * Tt)[:, None]
    return np.bincount(flat.ravel(), weights.ravel(), minlength=nb * Tp * Tt).reshape(nb, Tp, Tt)


def gsa_kernel(m: np.ndarray, gamma: float):
    """Solve one alignment grid.  Returns (z, kinds, cells, unique): the
    optimal cost, the path (each step's kind and the flat index into m of
    the cost it paid, filled from the end, kind 0 before the first step) and
    whether the optimal path is unique."""
    increment("gsa")
    zs, kinds, cells, unique = _gsa_many(m[None, :, :], gamma)
    return float(zs[0]), kinds[0], cells[0], unique[0]


def gsa_kernel_many(ms: np.ndarray, gamma: float):
    """Solve a (k, Tp, Tt) stack of grids; returns gsa_kernel's outputs stacked."""
    increment("gsa", int(ms.shape[0]))
    return _gsa_many(ms, gamma)
