"""Consistency checks for the shared discrete operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from romkit.errors import ConfigurationError, ShapeError
from romkit.grid import SIDES, Grid, normal_flux
from romkit.operators import (
    KronSumSolver,
    _face_gradient,
    _probed_matrix,
    center_laplacian,
    convection,
    convection_matrices,
    divergence,
    divergence_matrix,
    flat_faces,
    gradient,
    gradient_matrix,
    vec_laplacian,
    vec_laplacian_matrix,
)

from conftest import CHANNEL_TAGS, face_arrays, layouts, random_vectors


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
        u, v = face_arrays(grid, random_vectors(grid, np.random.default_rng(seed)).values[0])
        cells = divergence(grid, u, v) * grid.cell_area
        fluxes = [normal_flux(grid, u, v, side) for side in SIDES]
        scale = np.abs(cells).sum() + np.abs(fluxes).sum()
        assert abs(cells.sum() - sum(fluxes)) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(layouts(), st.integers(0, 2**32 - 1))
    def test_probed_laplacian_matches_stencil(self, grid, seed):
        """The matrix read off five colored probes applies vec_laplacian."""
        w = random_vectors(grid, np.random.default_rng(seed)).values[0]
        lu, lv = vec_laplacian(grid, *face_arrays(grid, w))
        direct = np.concatenate([lu.ravel(), lv.ravel()])
        probed = vec_laplacian_matrix(grid) @ w
        assert np.abs(probed - direct).max() <= 1e-12 * np.abs(direct).max()


    @settings(max_examples=60, deadline=None)
    @given(layouts(), st.integers(0, 2**32 - 1))
    def test_step_matrices_match_stencils(self, grid, seed):
        """The divergence, the gradient on [p, q] with random outlet data q,
        and self-advection as D on the products of M w's paired face means
        each apply their stencil to 1e-13 relative; self-advection also equals
        convection(a, b) with b a copy of a, bit for bit."""
        rng = np.random.default_rng(seed)
        w = random_vectors(grid, rng).values[0]
        u, v = face_arrays(grid, w)
        p = rng.standard_normal((grid.ny, grid.nx))
        q = rng.uniform(-5.0, 5.0, len(grid.outlets))
        M, pairs, D = convection_matrices(grid)
        means = M @ w
        fluxes = np.concatenate([means[a] * means[b] for a, b in pairs])
        shared = convection(grid, u, v, u, v)
        for got, want in ((divergence_matrix(grid) @ w, divergence(grid, u, v).ravel()),
                          (gradient_matrix(grid) @ np.concatenate([p.ravel(), q]),
                           flat_faces(gradient(grid, p, q))),
                          (D @ fluxes, flat_faces(shared))):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        general = convection(grid, u, v, u.copy(), v.copy())
        assert all(a.tobytes() == b.tobytes() for a, b in zip(shared, general))


def test_probe_refuses_a_wider_stencil(grid):
    """A stencil that couples two entries of one color cannot be read off
    the colored probes, and the probe says so: at a reach of 5 along a row
    the named column falls on an entry of another color, at a reach of 10
    on one of the same color, which only the check on a random input sees."""
    for reach in (5, 10):
        with pytest.raises(ValueError, match="two entries of one color"):
            _probed_matrix(lambda p: (p[..., :, reach:] + p[..., :, :-reach],),
                           [(grid.ny, 2 * reach + 3)])


def test_stacked_stencils_match_per_field_calls(rng):
    """A leading batch axis (or a broadcast 2-D operand) changes no bit."""
    grid = Grid(9, 5, 1.5, 0.75, {"left": "wall", "right": "outlet_0", "top": "outlet_1",
                                  "bottom": "inlet"})
    a, b = (random_vectors(grid, rng, 4).values for _ in range(2))
    p, q = rng.standard_normal((4, grid.ny, grid.nx)), rng.standard_normal(2)
    gx, gy = gradient(grid, p, q)
    (U, V), (W, Z) = face_arrays(grid, a), face_arrays(grid, b)
    lu, lv = vec_laplacian(grid, U, V)
    div = divergence(grid, U, V)
    cu, cv = convection(grid, U, V, W, Z)
    a0 = face_arrays(grid, a[0])
    bu, bv = convection(grid, *a0, W, Z)     # one advecting field for all
    for m in range(4):
        f, g = face_arrays(grid, a[m]), face_arrays(grid, b[m])
        for stacked, single in ((lu, vec_laplacian(grid, *f)[0]),
                                (lv, vec_laplacian(grid, *f)[1]),
                                (div, divergence(grid, *f)),
                                (cu, convection(grid, *f, *g)[0]),
                                (cv, convection(grid, *f, *g)[1]),
                                (bu, convection(grid, *a0, *g)[0]),
                                (bv, convection(grid, *a0, *g)[1]),
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

    def inner(f, g):
        return float(np.dot(flat_faces(f), flat_faces(g))) * grid.cell_area

    def rand_adv():
        u = rng.standard_normal((grid.ny, grid.nx + 1))
        v = rng.standard_normal((grid.ny + 1, grid.nx))
        u[~mu] = 0.0
        v[~mv] = 0.0
        return u, v

    for _ in range(5):
        f, g = rand_adv(), rand_adv()
        lf, lg = vec_laplacian(grid, *f), vec_laplacian(grid, *g)
        assert inner(f, lg) == pytest.approx(inner(lf, g), rel=1e-11, abs=1e-12)
        assert inner(f, lf) <= 1e-12


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


@settings(max_examples=60, deadline=None)
@given(layouts(), st.integers(0, 2**32 - 1))
def test_convection_bilinear(grid, seed):
    """Homogeneous and additive in the advecting field and additive in the
    advected one, on every layout."""
    rng = np.random.default_rng(seed)
    faces = [(grid.ny, grid.nx + 1), (grid.ny + 1, grid.nx)]
    au, av, bu, bv, au2, av2, bu2, bv2 = (rng.standard_normal(shape) for shape in faces * 4)
    cu2, cv2 = convection(grid, 2.0 * au, 2.0 * av, bu, bv)
    cu1, cv1 = convection(grid, au, av, bu, bv)
    assert np.allclose(cu2, 2.0 * cu1, rtol=1e-13, atol=1e-13)
    assert np.allclose(cv2, 2.0 * cv1, rtol=1e-13, atol=1e-13)

    cu_sum, cv_sum = convection(grid, au + au2, av + av2, bu, bv)
    cu_b, cv_b = convection(grid, au2, av2, bu, bv)
    assert np.allclose(cu_sum, cu1 + cu_b, rtol=1e-12, atol=1e-12)
    assert np.allclose(cv_sum, cv1 + cv_b, rtol=1e-12, atol=1e-12)

    cu_sum, cv_sum = convection(grid, au, av, bu + bu2, bv + bv2)
    cu_b, cv_b = convection(grid, au, av, bu2, bv2)
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


def _grid_solves(grid):
    """(name, matrix, rectangle) of every system the offline path solves: the
    FOM Poisson matrix, the Neumann potential of the velocity lifting, the
    pressure liftings' matrix and the u and v blocks of the supremizer
    solve's vector Laplacian on the advanced faces."""
    outlets = frozenset(side for _, side in grid.outlets)
    cells = (grid.ny, grid.nx)
    solves = [("poisson", center_laplacian(grid, outlets)[0], cells),
              ("potential", center_laplacian(grid, frozenset())[0], cells),
              ("pressure lifting", center_laplacian(grid, outlets | {grid.inlet_side})[0], cells)]
    unknown = np.flatnonzero(flat_faces(grid.advanced_masks))
    A = -vec_laplacian_matrix(grid)[unknown][:, unknown]
    start = 0
    for name, mask in zip(("supremizer u", "supremizer v"), grid.advanced_masks):
        block = slice(start, start + np.count_nonzero(mask))
        shape = (np.count_nonzero(mask.any(axis=1)), np.count_nonzero(mask.any(axis=0)))
        solves.append((name, A[block, block], shape))
        start = block.stop
    return solves


@settings(max_examples=40, deadline=None)
@given(layouts(), st.integers(0, 2**32 - 1))
def test_kron_solver_matches_lu(grid, seed):
    """Every grid solve is accepted as a Kronecker sum, and its solutions of a
    vector and of a block of right-hand sides match an LU solve to 10 cond(A)
    eps relative (1e-12 at least).  The singular Neumann potential is checked
    on mean-zero right-hand sides against the mean-zero solution, the LU solve
    pinning one diagonal entry."""
    rng = np.random.default_rng(seed)
    for name, A, shape in _grid_solves(grid):
        b = rng.standard_normal((A.shape[0], 3))
        M = A.tolil(copy=True)
        if name == "potential":
            b -= b.mean(axis=0)
            M[0, 0] += A.diagonal().mean()
        want = splu(M.tocsc()).solve(b)
        if name == "potential":
            want -= want.mean(axis=0)
        tol = max(1e-12, 10 * np.linalg.cond(M.toarray()) * np.finfo(float).eps)
        solver = KronSumSolver(A, shape)
        for got, ref in ((solver.solve(b), want), (solver.solve(b[:, 0]), want[:, 0])):
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref), name


@pytest.mark.parametrize("entry", ["wrapped row", "diagonal", "far", "asymmetric"])
def test_kron_solver_refuses_an_entry_off_the_pattern(grid, entry):
    """One changed entry of the Poisson matrix -- a coupling across the end of
    a row, one diagonal entry, a coupling of distant cells, one off-diagonal
    entry without its transpose -- is no Kronecker sum of symmetric factors."""
    A = center_laplacian(grid, frozenset({"right"}))[0].tolil()
    nx, n = grid.nx, grid.n_scalar
    KronSumSolver(A.tocsc(), (grid.ny, grid.nx))
    if entry == "wrapped row":
        A[nx - 1, nx] = A[nx, nx - 1] = -1.0 / grid.hx**2
    elif entry == "diagonal":
        A[nx + 2, nx + 2] += 1.0
    elif entry == "far":
        A[0, n - 1] = A[n - 1, 0] = 1.0
    else:
        A[1, 0] *= 2.0
    with pytest.raises(ValueError, match="not the Kronecker sum"):
        KronSumSolver(A.tocsc(), (grid.ny, grid.nx))


def test_kron_solver_refuses_another_rectangle(grid):
    A = center_laplacian(grid, frozenset({"right"}))[0]
    with pytest.raises(ShapeError, match="rectangle"):
        KronSumSolver(A, (grid.ny + 1, grid.nx))
