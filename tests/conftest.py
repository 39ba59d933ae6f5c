from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from romkit.grid import SIDES, Field, Grid

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


def random_scalar(grid, rng):
    return Field.scalar(grid, rng.standard_normal(grid.n_scalar))


def random_vector(grid, rng):
    return Field.vector2(
        grid,
        rng.standard_normal((grid.ny, grid.nx + 1)),
        rng.standard_normal((grid.ny + 1, grid.nx)),
    )


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


def wrapped_splu(residuals=None, scale=1.0):
    """A stand-in for scipy's `splu`.  Each solve returns `scale` times the
    exact factorization's answer and, given a list `residuals`, appends its
    relative residual ||b - A x|| / ||b|| to it."""
    def factor(A):
        lu = splu(A)

        def solve(b):
            x = lu.solve(b) * scale
            if residuals is not None:
                residuals.append(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
            return x

        return SimpleNamespace(solve=solve)

    return factor
