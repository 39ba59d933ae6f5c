"""Consistency checks for the shared discrete operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romkit.errors import ConfigurationError, ShapeError
from romkit.grid import SIDES, Field, Grid, inner_product, side_flux
from romkit.operators import (
    _face_gradient,
    center_laplacian,
    convection,
    divergence,
    gradient,
    vec_laplacian,
    vec_laplacian_matrix,
)

from conftest import CHANNEL_TAGS, layouts, random_vector


@pytest.fixture
def grid():
    return Grid(12, 6, 1.5, 0.75, CHANNEL_TAGS)


def test_divergence_of_gradient_matches_matrix(grid, rng):
    """div(grad(p, data)) must equal -A p + bc(data) cell by cell."""
    outlet_sides = {side for _, side in grid.outlets}
    A, bc = center_laplacian(grid, frozenset(outlet_sides))
    p = rng.standard_normal((grid.ny, grid.nx))
    datum = 0.731
    gx, gy = gradient(grid, p, [datum])
    lhs = divergence(grid, gx, gy).ravel()
    rhs = -A @ p.ravel() + bc([datum])
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * max(1.0, np.abs(lhs).max()))


class TestLayoutProperties:
    """Identities of the Poisson operator on every legal boundary layout."""

    @settings(max_examples=60, deadline=None)
    @given(layouts(), st.integers(0, 2**32 - 1))
    def test_div_grad_is_bc_minus_laplacian(self, grid, seed):
        rng = np.random.default_rng(seed)
        A, bc = center_laplacian(grid, frozenset(side for _, side in grid.outlets))
        datums = rng.uniform(-5.0, 5.0, len(grid.outlets))
        rhs_bc = bc(datums)
        p = rng.standard_normal((grid.ny, grid.nx))
        lhs = divergence(grid, *gradient(grid, p, datums)).ravel()
        rhs = rhs_bc - A @ p.ravel()
        scale = max(np.abs(lhs).max(), np.abs(rhs_bc).max())
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(layouts(), st.sampled_from(["outlets", "none", "inlet+outlets"]),
           st.integers(0, 2**32 - 1))
    def test_poisson_matrix_is_the_stencil(self, grid, dirichlet, seed):
        """For each Dirichlet set, A is exactly symmetric, has the 5-point
        pattern and maps p to minus div(grad p) with the sides' zero-datum
        ghosts; with no Dirichlet side its null space is the constants."""
        outlets = {side for _, side in grid.outlets}
        sides = {"outlets": outlets, "none": set(),
                 "inlet+outlets": outlets | {grid.inlet_side}}[dirichlet]
        A, _ = center_laplacian(grid, frozenset(sides))
        assert (A != A.T).nnz == 0

        idx = np.arange(grid.n_scalar).reshape(grid.ny, grid.nx)
        pairs = [(idx, idx), (idx[:, 1:], idx[:, :-1]), (idx[:, :-1], idx[:, 1:]),
                 (idx[1:], idx[:-1]), (idx[:-1], idx[1:])]
        five_point = {(r, c) for a, b in pairs for r, c in zip(a.ravel(), b.ravel())}
        assert set(zip(*A.nonzero())) == five_point

        p = np.random.default_rng(seed).standard_normal((grid.ny, grid.nx))
        stencil = divergence(grid, *_face_gradient(grid, p, [(s, 0.0) for s in sides])).ravel()
        assert np.abs(A @ p.ravel() + stencil).max() <= 1e-12 * np.abs(stencil).max()

        if not sides:
            assert np.abs(A @ np.ones(grid.n_scalar)).max() <= 1e-12 * abs(A).max()
            assert np.linalg.matrix_rank(A.toarray()) == grid.n_scalar - 1

    @settings(max_examples=60, deadline=None)
    @given(layouts(), st.integers(0, 2**32 - 1))
    def test_gauss_identity(self, grid, seed):
        """sum(div u) * cell area equals the outward flux through the four sides."""
        f = random_vector(grid, np.random.default_rng(seed))
        cells = divergence(grid, f.u, f.v) * grid.cell_area
        fluxes = [side_flux(f, side) for side in SIDES]
        scale = np.abs(cells).sum() + np.abs(fluxes).sum()
        assert abs(cells.sum() - sum(fluxes)) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(layouts(), st.integers(0, 2**32 - 1))
    def test_probed_laplacian_matches_stencil(self, grid, seed):
        """The matrix read off five colored probes applies vec_laplacian."""
        f = random_vector(grid, np.random.default_rng(seed))
        lu, lv = vec_laplacian(grid, f.u, f.v)
        direct = np.concatenate([lu.ravel(), lv.ravel()])
        probed = vec_laplacian_matrix(grid) @ f.values
        assert np.abs(probed - direct).max() <= 1e-12 * np.abs(direct).max()


def test_stacked_stencils_match_per_field_calls(rng):
    """A leading batch axis (or a broadcast 2-D operand) changes no bit."""
    grid = Grid(9, 5, 1.5, 0.75, {"left": "wall", "right": "outlet_0", "top": "outlet_1",
                                  "bottom": "inlet"})
    a, b = ([random_vector(grid, rng) for _ in range(4)] for _ in range(2))
    p, q = rng.standard_normal((4, grid.ny, grid.nx)), rng.standard_normal(2)
    gx, gy = gradient(grid, p, q)
    U, V = np.stack([f.u for f in a]), np.stack([f.v for f in a])
    W, Z = np.stack([f.u for f in b]), np.stack([f.v for f in b])
    lu, lv = vec_laplacian(grid, U, V)
    div = divergence(grid, U, V)
    cu, cv = convection(grid, U, V, W, Z)
    bu, bv = convection(grid, a[0].u, a[0].v, W, Z)     # one advecting field for all
    for m, (f, g) in enumerate(zip(a, b)):
        for stacked, single in ((lu, vec_laplacian(grid, f.u, f.v)[0]),
                                (lv, vec_laplacian(grid, f.u, f.v)[1]),
                                (div, divergence(grid, f.u, f.v)),
                                (cu, convection(grid, f.u, f.v, g.u, g.v)[0]),
                                (cv, convection(grid, f.u, f.v, g.u, g.v)[1]),
                                (bu, convection(grid, a[0].u, a[0].v, g.u, g.v)[0]),
                                (bv, convection(grid, a[0].u, a[0].v, g.u, g.v)[1]),
                                (gx, gradient(grid, p[m], q)[0]),
                                (gy, gradient(grid, p[m], q)[1])):
            assert np.array_equal(stacked[m], single)


def test_outlet_data_keying(grid, rng):
    """Outlet data is one value per outlet; the outlet must be a Dirichlet side."""
    p = rng.standard_normal((grid.ny, grid.nx))
    A, bc = center_laplacian(grid, frozenset({"right"}))
    for bad in ([], [1.0, 2.0], [[1.0]]):
        with pytest.raises(ShapeError):
            gradient(grid, p, bad)
        with pytest.raises(ShapeError):
            bc(bad)
    assert all(np.array_equal(a, b) for a, b in zip(gradient(grid, p), gradient(grid, p, [0.0])))
    _, neumann_bc = center_laplacian(grid, frozenset())
    with pytest.raises(ConfigurationError, match="not assembled as Dirichlet"):
        neumann_bc([1.0])


def test_center_laplacian_independent_of_dirichlet_side_order():
    # at this spacing the corner cell's two Dirichlet terms round differently
    # in the two orders; a set's order follows the per-process string hash
    g = Grid(7, 5, 2.0, 0.5, {"left": "inlet", "right": "outlet_0", "top": "outlet_1",
                              "bottom": "wall"})
    a, _ = center_laplacian(g, ["right", "top"])
    b, _ = center_laplacian(g, ["top", "right"])
    assert a.data.tobytes() == b.data.tobytes()


def test_center_laplacian_spd(grid, rng):
    A, _ = center_laplacian(grid, frozenset({"right"}))
    Ad = A.toarray()
    assert np.allclose(Ad, Ad.T)
    w = np.linalg.eigvalsh(Ad)
    assert w.min() > 0


def test_neumann_laplacian_nullspace_is_constant(grid):
    A, _ = center_laplacian(grid, frozenset())
    ones = np.ones(grid.nx * grid.ny)
    assert np.abs(A @ ones).max() < 1e-12


def test_vec_laplacian_symmetric_negative(grid, rng):
    """(f, L g) = (L f, g) and (f, L f) <= 0 over advanced faces."""
    mu, mv = grid.advanced_masks

    def lap_field(f):
        lu, lv = vec_laplacian(grid, f.u, f.v)
        return Field.vector2(grid, lu, lv)

    def rand_adv():
        u = rng.standard_normal((grid.ny, grid.nx + 1))
        v = rng.standard_normal((grid.ny + 1, grid.nx))
        u[~mu] = 0.0
        v[~mv] = 0.0
        return Field.vector2(grid, u, v)

    for _ in range(5):
        f, g = rand_adv(), rand_adv()
        lf, lg = lap_field(f), lap_field(g)
        assert inner_product(f, lg) == pytest.approx(inner_product(lf, g), rel=1e-11, abs=1e-12)
        assert inner_product(f, lf) <= 1e-12


def test_gradient_divergence_adjoint_interior(grid, rng):
    """(grad p, u) = -(p, div u) exactly for interior-supported fields."""
    p = np.zeros((grid.ny, grid.nx))
    p[2:-2, 2:-2] = rng.standard_normal((grid.ny - 4, grid.nx - 4))
    u = np.zeros((grid.ny, grid.nx + 1))
    v = np.zeros((grid.ny + 1, grid.nx))
    u[2:-2, 3:-3] = rng.standard_normal(u[2:-2, 3:-3].shape)
    v[3:-3, 2:-2] = rng.standard_normal(v[3:-3, 2:-2].shape)

    gx, gy = gradient(grid, p)
    lhs = (np.sum(gx * u) + np.sum(gy * v)) * grid.cell_area
    rhs = -np.sum(p * divergence(grid, u, v)) * grid.cell_area
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_convection_bilinear(grid, rng):
    au = rng.standard_normal((grid.ny, grid.nx + 1))
    av = rng.standard_normal((grid.ny + 1, grid.nx))
    bu = rng.standard_normal((grid.ny, grid.nx + 1))
    bv = rng.standard_normal((grid.ny + 1, grid.nx))
    cu2, cv2 = convection(grid, 2.0 * au, 2.0 * av, bu, bv)
    cu1, cv1 = convection(grid, au, av, bu, bv)
    assert np.allclose(cu2, 2.0 * cu1, rtol=1e-13, atol=1e-13)
    assert np.allclose(cv2, 2.0 * cv1, rtol=1e-13, atol=1e-13)

    au2 = rng.standard_normal(au.shape)
    av2 = rng.standard_normal(av.shape)
    cu_sum, cv_sum = convection(grid, au + au2, av + av2, bu, bv)
    cu_b, cv_b = convection(grid, au2, av2, bu, bv)
    assert np.allclose(cu_sum, cu1 + cu_b, rtol=1e-12, atol=1e-12)
    assert np.allclose(cv_sum, cv1 + cv_b, rtol=1e-12, atol=1e-12)


def _interior_divfree(grid, rng):
    """Discretely divergence-free field from a compact streamfunction."""
    psi = np.zeros((grid.ny + 1, grid.nx + 1))
    psi[3:-3, 3:-3] = rng.standard_normal(psi[3:-3, 3:-3].shape)
    u = (psi[1:, :] - psi[:-1, :]) / grid.hy       # (ny, nx+1)
    v = -(psi[:, 1:] - psi[:, :-1]) / grid.hx      # (ny+1, nx)
    return u, v


def test_streamfunction_field_is_divergence_free(grid, rng):
    u, v = _interior_divfree(grid, rng)
    assert np.abs(divergence(grid, u, v)).max() < 1e-12 * max(1.0, np.abs(u).max() / grid.hx)


def test_convection_skew_symmetry_divfree_advector(grid, rng):
    """(a, conv(w, b)) + (b, conv(w, a)) ~ 0 for div-free interior advector w."""
    wu, wv = _interior_divfree(grid, rng)
    scale = max(np.abs(wu).max(), 1.0)

    def interior_field():
        u = np.zeros((grid.ny, grid.nx + 1))
        v = np.zeros((grid.ny + 1, grid.nx))
        u[2:-2, 3:-3] = rng.standard_normal(u[2:-2, 3:-3].shape)
        v[3:-3, 2:-2] = rng.standard_normal(v[3:-3, 2:-2].shape)
        return u, v

    au, av = interior_field()
    bu, bv = interior_field()
    cab_u, cab_v = convection(grid, wu, wv, bu, bv)
    cba_u, cba_v = convection(grid, wu, wv, au, av)
    s1 = (np.sum(au * cab_u) + np.sum(av * cab_v)) * grid.cell_area
    s2 = (np.sum(bu * cba_u) + np.sum(bv * cba_v)) * grid.cell_area
    assert abs(s1 + s2) < 1e-8 * scale**2
