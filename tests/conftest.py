from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from romkit.grid import OUTWARD, SIDE_INDEX, SIDES, FieldRows, Grid, normal_faces
from romkit.operators import KronSumSolver

CHANNEL_TAGS = {"left": "inlet", "right": "outlet_0", "top": "wall", "bottom": "wall"}


@pytest.fixture
def channel_grid():
    return Grid(16, 8, 2.0, 0.5, CHANNEL_TAGS)


@pytest.fixture
def small_grid():
    return Grid(4, 4, 1.0, 1.0, CHANNEL_TAGS)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_scalars(grid, rng, m=1):
    """m random scalar fields, as FieldRows."""
    return FieldRows(grid, "scalar", rng.standard_normal((m, grid.n_scalar)))


def random_vectors(grid, rng, m=1):
    """m random vector fields (u block, then v block), as FieldRows."""
    return FieldRows(grid, "vector2", rng.standard_normal((m, grid.n_vector)))


def face_arrays(grid, w):
    """The (u, v) face arrays of flat vector fields, leading axes kept: the
    inverse of operators.flat_faces."""
    lead = w.shape[:-1]
    return (w[..., :grid.n_u].reshape(lead + (grid.ny, grid.nx + 1)),
            w[..., grid.n_u:].reshape(lead + (grid.ny + 1, grid.nx)))


def inlet_trace(grid, w):
    """Inward-positive normal values of the flat vector field w on the inlet."""
    side = grid.inlet_side
    return -OUTWARD[side] * normal_faces(*face_arrays(grid, w), side)[SIDE_INDEX[side]]


def cell_array(grid, p):
    """The (ny, nx) cell array of flat scalar fields, leading axes kept."""
    return p.reshape(p.shape[:-1] + (grid.ny, grid.nx))


@st.composite
def layouts(draw):
    """A grid of 3..12 cells a side: inlet on any side, 1-3 outlets, walls elsewhere."""
    sides = draw(st.permutations(SIDES))
    n_out = draw(st.integers(1, 3))
    tags = {side: "wall" for side in sides}
    tags[sides[0]] = "inlet"
    for k, side in enumerate(sides[1:1 + n_out]):
        tags[side] = f"outlet_{k}"
    return Grid(draw(st.integers(3, 12)), draw(st.integers(3, 12)),
                draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0)), tags)


def wrapped_solver(residuals=None, scale=1.0):
    """A stand-in for romkit's `KronSumSolver`.  Each solve returns `scale`
    times the production solver's answer and, given a list `residuals`,
    appends the relative residual ||b - A x|| / ||b|| of each right-hand side
    to it (one per column of a block)."""
    def build(A, shape):
        solver = KronSumSolver(A, shape)

        def solve(b):
            x = solver.solve(b) * scale
            if residuals is not None:
                bs, xs = (b, x) if b.ndim == 2 else (b[:, None], x[:, None])
                residuals.extend(np.linalg.norm(bk - A @ xk) / np.linalg.norm(bk)
                                 for bk, xk in zip(bs.T, xs.T))
            return x

        return SimpleNamespace(solve=solve)

    return build
