"""The single-solve path takes any array layout and hands back frozen results.

``solve_assignment``, ``assignment_gengrad``, ``AlignGrid``, ``solve_gsa``
and ``gsa_grad_matrix`` accept C-ordered, Fortran-ordered, transposed,
strided, read-only and integer arrays.  Whatever the layout, their outputs
are byte-identical to the stacked kernels run on a contiguous float64 copy
of the input, every output array is read-only, and writing to the caller's
memory after the call changes no output.
"""

import numpy as np
import pytest

from combgrad import AlignGrid, _kernels, assignment_gengrad, gsa_grad_matrix, solve_assignment, solve_gsa

GAMMA = 1.5


def _transposed(base):
    owner = np.ascontiguousarray(base.T)
    return owner.T, owner


def _strided(base):
    owner = np.zeros((2 * base.shape[0], 3 * base.shape[1]))
    owner[::2, ::3] = base
    return owner[::2, ::3], owner


def _read_only(base):
    owner = base.copy()
    x = owner.view()
    x.setflags(write=False)
    return x, owner


# Each layout returns (x, owner): the array handed to the library and the
# writable array whose memory x reads, or None when x owns its memory.
_LAYOUTS = {
    "C-ordered": lambda base: (base.copy(), None),
    "Fortran-ordered": lambda base: (np.asfortranarray(base), None),
    "transposed": _transposed,
    "strided slice": _strided,
    "read-only": _read_only,
    "integer dtype": lambda base: (base.astype(np.int64), None),
}


def _base(shape, integers):
    rng = np.random.default_rng(shape)
    # Small integers tie often, so the tie-break is part of what must agree.
    return rng.integers(0, 4, size=shape).astype(np.float64) if integers else rng.uniform(-2.0, 2.0, size=shape)


def _layout(name, shape, integers):
    x, owner = _LAYOUTS[name](_base(shape, integers or name == "integer dtype"))
    return x, x if owner is None else owner


def _frozen_bytes(arrays):
    for a in arrays:
        assert isinstance(a, np.ndarray) and not a.flags.writeable
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("integers", [True, False], ids=["tied", "uniform"])
@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_assignment_outputs_match_the_stacked_kernel_and_never_alias_the_input(layout, integers, backend):
    x, owner = _layout(layout, (6, 6), integers)
    ref = np.array(x, dtype=np.float64, order="C")
    perms, us, vs, unique = _kernels.assignment_kernel_many(ref[None])
    perm = perms[0]
    b = ref.shape[0]

    res = solve_assignment(x)
    d_c = assignment_gengrad(res).d_c
    arrays = [res.M, res.duals_u, res.duals_v, d_c]
    expected = [np.eye(b)[perm], us[0], vs[0], np.eye(b)[perm].ravel()]
    assert _frozen_bytes(arrays) == [a.tobytes() for a in expected]
    assert res.perm == tuple(perm.tolist())
    assert res.z_star == float(ref[np.arange(b), perm].sum())
    assert res.unique is bool(unique[0])

    before = _frozen_bytes(arrays)
    owner[...] = -7
    assert _frozen_bytes(arrays) == before


@pytest.mark.parametrize("integers", [True, False], ids=["tied", "uniform"])
@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_alignment_outputs_match_the_stacked_kernel_and_never_alias_the_input(layout, integers, backend):
    x, owner = _layout(layout, (6, 7), integers)
    ref = np.array(x, dtype=np.float64, order="C")
    zs, kinds, cells, unique = _kernels.gsa_kernel_many(ref[None], GAMMA)
    G = _kernels.gsa_grads(kinds, cells, *ref.shape, GAMMA)[0]
    # The kernel pads each path at its start with kind 0.
    steps = kinds[0] != 0

    grid = AlignGrid(m=x, gamma=GAMMA)
    res = solve_gsa(grid)
    arrays = [grid.m, res.kinds, res.cells, gsa_grad_matrix(grid, res)]
    expected = [ref, kinds[0][steps], cells[0][steps], G]
    assert _frozen_bytes(arrays) == [a.tobytes() for a in expected]
    assert res.z_star == float(zs[0])
    assert res.unique is bool(unique[0])

    before = _frozen_bytes(arrays)
    owner[...] = -7
    assert _frozen_bytes(arrays) == before
