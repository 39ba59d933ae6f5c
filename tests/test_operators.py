"""Consistency checks for the shared discrete operators."""

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import cg as scipy_cg

from romkit import fom, lifting, rom
from romkit.grid import Field, Grid, inner_product
from romkit.operators import (
    advanced_masks,
    center_laplacian,
    cg,
    convection,
    divergence,
    gradient,
    vec_laplacian,
)

from conftest import CHANNEL_TAGS


@pytest.fixture
def grid():
    return Grid(12, 6, 1.5, 0.75, CHANNEL_TAGS)


def test_divergence_of_gradient_matches_matrix(grid, rng):
    """div(grad(p, data)) must equal -A p + bc(data) cell by cell."""
    outlet_sides = {side for _, side in grid.outlets}
    A, bc = center_laplacian(grid, frozenset(outlet_sides))
    p = rng.standard_normal((grid.ny, grid.nx))
    datum = 0.731
    gx, gy = gradient(grid, p, {0: datum})
    lhs = divergence(grid, gx, gy).ravel()
    rhs = -A @ p.ravel() + bc({grid.outlet_side(0): datum})
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * max(1.0, np.abs(lhs).max()))


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
    mu, mv = advanced_masks(grid)

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

    gx, gy = gradient(grid, p, {})
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


def _cg_runs(A, b, **kw):
    """(x, info, iterates) of romkit's cg and of scipy's on the same system."""
    runs = []
    for solver in (cg, scipy_cg):
        iterates = []
        x, info = solver(A, b, callback=lambda xk: iterates.append(xk.copy()), **kw)
        runs.append((x, info, iterates))
    return runs


def _assert_same_run(ours, ref):
    assert ours[1] == ref[1]
    assert np.array_equal(ours[0], ref[0])
    assert len(ours[2]) == len(ref[2])
    assert all(np.array_equal(a, b) for a, b in zip(ours[2], ref[2]))


class TestCg:
    def test_bit_identical_to_scipy_on_poisson_matrix(self, rng):
        g = Grid(24, 12, 2.0, 0.5, CHANNEL_TAGS)
        A, bc = center_laplacian(g, frozenset({"right"}))
        b = bc({"right": 3.5}) - rng.standard_normal(g.n_scalar)
        x0 = rng.standard_normal(g.n_scalar)             # a previous step's pressure
        kept = x0.copy()
        ours, ref = _cg_runs(A, b, x0=x0, rtol=1e-10, atol=0.0, maxiter=20 * g.n_scalar)
        assert ours[1] == 0 and len(ours[2]) > 10
        _assert_same_run(ours, ref)
        assert np.array_equal(x0, kept)
        _assert_same_run(*_cg_runs(A, b, rtol=1e-12))    # cold start, default maxiter

    def test_bit_identical_to_scipy_on_supremizer_operator(self, grid, rng):
        unknown = np.concatenate([m.ravel() for m in advanced_masks(grid)])

        def matvec(x):
            w = np.zeros(grid.n_vector)
            w[unknown] = x
            u = w[:grid.n_u].reshape(grid.ny, grid.nx + 1)
            v = w[grid.n_u:].reshape(grid.ny + 1, grid.nx)
            lu, lv = vec_laplacian(grid, u, v)
            return -np.concatenate([lu.ravel(), lv.ravel()])[unknown]

        n = int(unknown.sum())
        A = LinearOperator((n, n), matvec=matvec)
        gx, gy = gradient(grid, rng.standard_normal((grid.ny, grid.nx)), {})
        b = -np.concatenate([gx.ravel(), gy.ravel()])[unknown]
        ours, ref = _cg_runs(A, b, rtol=1e-10, atol=0.0, maxiter=50 * n)
        assert ours[1] == 0
        _assert_same_run(ours, ref)

    def test_maxiter_and_zero_rhs(self, grid, rng):
        A, _ = center_laplacian(grid, frozenset({"right"}))
        b = rng.standard_normal(grid.n_scalar)
        ours, ref = _cg_runs(A, b, rtol=1e-12, maxiter=3)
        assert ours[1] == 3 and len(ours[2]) == 3
        _assert_same_run(ours, ref)
        x, info = cg(A, np.zeros(grid.n_scalar), x0=b)
        assert info == 0 and not x.any()

    def test_every_solve_uses_it(self):
        assert fom.cg is cg and lifting.cg is cg and rom.cg is cg
