"""Discrete MAC-grid operators shared by the flow solver and ROM assembly.

Each operator is a stencil, and the stencils are linear in the stored face
values under these closures:

  * normal faces on inlet/wall sides carry Dirichlet data in-array and are
    never advanced; derived quantities are zeroed there,
  * normal faces on outlet sides are unknowns with zero-gradient ghosts,
  * tangential components use linear ghosts (value 0 on walls and inlets,
    zero-gradient on outlets).

Convection is the divergence form div(a (x) b) with arithmetic face means,
which keeps it bilinear in (a, b) -- a property the reduced convection
tensor relies on.  The stencils take cell arrays of shape (..., ny, nx) and
face arrays of shape (..., ny, nx + 1) and (..., ny + 1, nx): leading axes
are a batch and broadcast.

The sparse matrices are read off these stencils with colored probes: the
Poisson matrix (minus the divergence of the face gradient), the vector
Laplacian, the divergence, the gradient with its outlet-datum columns, and
self-advection as the flux divergence of products of two face-mean maps of
the velocity.  The last four are each probed once per grid and kept on
it: the one representation that the full-order step scales, the supremizer
solve diagonalises and ROM assembly projects.

Every grid solve is a Kronecker sum: one boundary tag per side of the
rectangle makes the center Laplacian, and each velocity block of the vector
Laplacian on the advanced faces, Ay (x) I + I (x) Ax with two symmetric
tridiagonal 1-D factors.  ``KronSumSolver`` reads the factors off such a
probed matrix and solves it by fast diagonalisation, so no sparse
factorization is needed anywhere; the FOM, the liftings and the supremizer
solve build it through their own module's ``KronSumSolver`` global.

scipy is imported only where a sparse matrix is built, so that loading a
bundle and running the online stage import numpy alone.  ``cg`` stands in
for scipy's function of the same name and imports it on its first call; it
is called nowhere: fom, lifting and rom import it only so that the
benchmark's tracer, which names ``fom.cg``, ``lifting.cg`` and ``rom.cg``,
still finds its targets.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

from .errors import ConfigurationError, ShapeError
from .grid import OUTWARD, SIDE_INDEX, Grid, normal_faces


def _ext_u_y(grid: Grid, u: np.ndarray) -> np.ndarray:
    """u with ghost rows below/above per bottom/top closure."""
    sign = grid.ghost_sign
    return np.concatenate([sign["bottom"] * u[..., :1, :], u,
                           sign["top"] * u[..., -1:, :]], axis=-2)


def _ext_v_x(grid: Grid, v: np.ndarray) -> np.ndarray:
    """v with ghost columns left/right per side closure."""
    sign = grid.ghost_sign
    return np.concatenate([sign["left"] * v[..., :1], v,
                           sign["right"] * v[..., -1:]], axis=-1)


def flat_faces(arrays) -> np.ndarray:
    """Flat layout of (stacks of) 2-D arrays, one block after the other: the
    (u block, v block) layout of a face pair, the cell layout of ``(p,)``."""
    return np.concatenate([a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))
                           for a in arrays], axis=-1)


def cg(A, b, **kwargs):
    """scipy.sparse.linalg.cg, imported on the first call."""
    from scipy.sparse.linalg import cg
    return cg(A, b, **kwargs)


def _probed_matrix(stencil, shapes):
    """The matrix of a linear ``stencil`` from arrays of the given (ny, nx)
    shapes to one or more output arrays, on their flat layouts, read off
    colored probes; the arrays may differ in shape and number on either side.
    Color (i + 2j) mod 5 of entry (j, i) differs across every 5-point
    neighbourhood (Curtis, Powell & Reid 1974), and each input array has five
    colors of its own, so an output entry that depends on a 5-point
    neighbourhood of each input sees at most one entry per color: probe c,
    ones on color c, gives that entry's coefficient, and probe c weighted by
    each entry's flat index + 1 names its column.  So ten probes per input
    array, whatever the grid, and no dense identity.  Returns a scipy CSC
    matrix.  A stencil that reaches further couples two entries of one
    color; the named column then falls between them, and where it lands on
    an entry of that color (a reach of 10 along a row) only applying the
    matrix shows the fault, so the matrix is checked against the stencil on
    one random input.  Raises ValueError on either fault."""
    color = flat_faces([5 * k + (np.arange(nx) + 2 * np.arange(ny)[:, None]) % 5
                        for k, (ny, nx) in enumerate(shapes)])
    n_colors = 5 * len(shapes)
    ones = (color == np.arange(n_colors)[:, None]).astype(np.float64)
    probes = np.concatenate([ones, ones * np.arange(1, color.size + 1)])
    ends = np.cumsum([ny * nx for ny, nx in shapes])

    def apply(x):   # the stencil on the rows of x, flat in and out
        return flat_faces(stencil(*(a.reshape(-1, ny, nx) for a, (ny, nx)
                                    in zip(np.split(x, ends[:-1], axis=1), shapes))))

    out = apply(probes)
    value, named = out[:n_colors], out[n_colors:]
    c, r = np.nonzero(value)
    column = np.rint(named[c, r] / value[c, r]).astype(np.int64) - 1
    if not (np.all((column >= 0) & (column < color.size)) and np.array_equal(color[column], c)):
        raise ValueError("the stencil couples two entries of one color of an input")
    x = np.random.default_rng(0).standard_normal(color.size)
    terms = value[c, r] * x[column]
    applied, scale = (np.bincount(r, t, out.shape[1]) for t in (terms, np.abs(terms)))
    if not np.all(np.abs(applied - apply(x[None])[0]) <= 1e-12 * scale):
        raise ValueError("the stencil couples two entries of one color of an input")
    from scipy.sparse import csc_matrix
    return csc_matrix((value[c, r], (r, column)), shape=(out.shape[1], color.size))


def _kept_on_grid(build):
    """``build(grid)``, computed once per Grid and kept on it as its cached
    properties are; every caller gets that one matrix and must not modify it."""
    name = f"_{build.__name__}"

    @wraps(build)
    def kept(grid: Grid):
        if name not in vars(grid):
            vars(grid)[name] = build(grid)
        return vars(grid)[name]
    return kept


def vec_laplacian(grid: Grid, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise 5-point Laplacian at advanced faces (zero elsewhere)."""
    hx2, hy2 = grid.hx**2, grid.hy**2

    ue = np.concatenate([u[..., :1], u, u[..., -1:]], axis=-1)
    ug = _ext_u_y(grid, u)
    lu = ((ue[..., :-2] - 2.0 * u + ue[..., 2:]) / hx2
          + (ug[..., :-2, :] - 2.0 * u + ug[..., 2:, :]) / hy2)

    ve = np.concatenate([v[..., :1, :], v, v[..., -1:, :]], axis=-2)
    vg = _ext_v_x(grid, v)
    lv = ((ve[..., :-2, :] - 2.0 * v + ve[..., 2:, :]) / hy2
          + (vg[..., :-2] - 2.0 * v + vg[..., 2:]) / hx2)

    fu, fv = grid.fixed_masks
    np.copyto(lu, 0.0, where=fu)
    np.copyto(lv, 0.0, where=fv)
    return lu, lv


def divergence(grid: Grid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cell-centered divergence of a face velocity field."""
    return (u[..., 1:] - u[..., :-1]) / grid.hx + (v[..., 1:, :] - v[..., :-1, :]) / grid.hy


@_kept_on_grid
def vec_laplacian_matrix(grid: Grid):
    """vec_laplacian as a matrix on the flat (u block, v block) layout."""
    return _probed_matrix(lambda u, v: vec_laplacian(grid, u, v),
                          [(grid.ny, grid.nx + 1), (grid.ny + 1, grid.nx)])


@_kept_on_grid
def divergence_matrix(grid: Grid):
    """divergence as a matrix from the flat (u block, v block) layout to cells."""
    return _probed_matrix(lambda u, v: (divergence(grid, u, v),),
                          [(grid.ny, grid.nx + 1), (grid.ny + 1, grid.nx)])


@_kept_on_grid
def gradient_matrix(grid: Grid):
    """gradient as a matrix from the flat [p, q] -- the cells, then one outlet
    datum per outlet in ``grid.outlets`` order -- to the flat (u block,
    v block) layout."""
    def stencil(p, q):   # q: (..., 1, n_outlets)
        return _face_gradient(grid, p, [(side, q[..., k]) for k, (_, side)
                                        in enumerate(grid.outlets)])
    return _probed_matrix(stencil, [(grid.ny, grid.nx), (1, len(grid.outlets))])


def _outlet_data(grid: Grid, q) -> np.ndarray:
    """Outlet data as one float array in ``grid.outlets`` order; None is all zeros."""
    n = len(grid.outlets)
    if q is None:
        return np.zeros(n)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (n,):
        raise ShapeError(f"outlet data needs one value per outlet ({n}), got shape {q.shape}")
    return q


def _face_gradient(grid: Grid, p: np.ndarray, dirichlet=()) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of cell arrays p (..., ny, nx) at the faces.  For each
    (side, d) in ``dirichlet`` the normal faces of the side see the ghost
    2 d - p of the datum d; every other boundary face gets zero."""
    gx = np.zeros(p.shape[:-1] + (grid.nx + 1,))
    gy = np.zeros(p.shape[:-2] + (grid.ny + 1, grid.nx))
    gx[..., 1:-1] = (p[..., 1:] - p[..., :-1]) / grid.hx
    gy[..., 1:-1, :] = (p[..., 1:, :] - p[..., :-1, :]) / grid.hy
    for side, d in dirichlet:
        at = (...,) + SIDE_INDEX[side]
        # datum minus cell along the axis; both operand orders are written out
        # so an equal datum and cell give +0.0 on every side
        diff = d - p[at] if OUTWARD[side] > 0 else p[at] - d
        normal_faces(gx, gy, side)[at] = 2.0 * diff / grid.normal_spacing(side)
    return gx, gy


def gradient(grid: Grid, p: np.ndarray, q=None) -> tuple[np.ndarray, np.ndarray]:
    """Pressure gradient at faces; outlet faces use the Dirichlet datum ghost.

    Non-outlet boundary faces get gradient zero (their velocities are data and
    are never corrected).  `q` holds the boundary value of p on each outlet,
    in ``grid.outlets`` order, for every field of a stack p; None means 0 on
    every outlet.
    """
    q = _outlet_data(grid, q)
    return _face_gradient(grid, p, [(side, d) for (_, side), d in zip(grid.outlets, q)])


def _x_means(u: np.ndarray) -> np.ndarray:
    """u at the cell centers (means of x-face pairs), with its left and right
    boundary faces at either end: (..., ny, nx + 2)."""
    return np.concatenate([u[..., :1], 0.5 * (u[..., :-1] + u[..., 1:]), u[..., -1:]], axis=-1)


def _y_means(v: np.ndarray) -> np.ndarray:
    """v at the cell centers, with its bottom and top boundary faces at either
    end: (..., ny + 2, nx)."""
    return np.concatenate([v[..., :1, :], 0.5 * (v[..., :-1, :] + v[..., 1:, :]), v[..., -1:, :]],
                          axis=-2)


def _u_nodes(grid: Grid, u: np.ndarray) -> np.ndarray:
    """u at the cell corners, with the ghost rows: (..., ny + 1, nx + 1)."""
    ue = _ext_u_y(grid, u)
    return 0.5 * (ue[..., :-1, :] + ue[..., 1:, :])


def _v_nodes(grid: Grid, v: np.ndarray) -> np.ndarray:
    """v at the cell corners, with the ghost columns: (..., ny + 1, nx + 1)."""
    ve = _ext_v_x(grid, v)
    return 0.5 * (ve[..., :-1] + ve[..., 1:])


def _flux_divergence(grid: Grid, fxx, fyx, fyy, fxy) -> tuple[np.ndarray, np.ndarray]:
    """Momentum-flux divergence at advanced faces: x-momentum from the
    center flux fxx and node flux fyx, y-momentum from fyy and fxy."""
    cu = (fxx[..., 1:] - fxx[..., :-1]) / grid.hx + (fyx[..., 1:, :] - fyx[..., :-1, :]) / grid.hy
    cv = (fyy[..., 1:, :] - fyy[..., :-1, :]) / grid.hy + (fxy[..., 1:] - fxy[..., :-1]) / grid.hx
    fu, fv = grid.fixed_masks
    np.copyto(cu, 0.0, where=fu)
    np.copyto(cv, 0.0, where=fv)
    return cu, cv


def convection(grid: Grid, au: np.ndarray, av: np.ndarray,
               bu: np.ndarray, bv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """div(a (x) b) at advanced faces: a advects b. Bilinear in (a, b).

    Each flux is a product of a face mean of a and one of b: d/dx(a_u b_u) +
    d/dy(a_v b_u) for u, d/dy(a_v b_v) + d/dx(a_u b_v) for v."""
    return _flux_divergence(grid, _x_means(au) * _x_means(bu),
                            _v_nodes(grid, av) * _u_nodes(grid, bu),
                            _y_means(av) * _y_means(bv),
                            _u_nodes(grid, au) * _v_nodes(grid, bv))


@_kept_on_grid
def convection_matrices(grid: Grid):
    """Self-advection as matrices on the flat (u block, v block) layout w:
    convection(w, w) = D ((S_a w) * (S_b w)), the flux divergence D of the
    products of two face-mean maps.  M holds each face mean once: M w is the
    x-means of u, v at the nodes, the y-means of v and u at the nodes.
    ``pairs`` gives, for each of D's three flux blocks in turn, the (a, b)
    row slices of M whose product it is (the x-means of u squared, v times u
    at the nodes, the y-means of v squared), so S_a and S_b are the rows of M
    that the a and the b slices take.  D's node flux serves both components.
    Returns (M, pairs, D)."""
    ny, nx = grid.ny, grid.nx
    M = _probed_matrix(lambda u, v: (_x_means(u), _v_nodes(grid, v), _y_means(v),
                                     _u_nodes(grid, u)),
                       [(ny, nx + 1), (ny + 1, nx)])
    sizes = [ny * (nx + 2), (ny + 1) * (nx + 1), (ny + 2) * nx, (ny + 1) * (nx + 1)]
    ends = np.cumsum(sizes).tolist()
    x_u, node_v, y_v, node_u = (slice(end - size, end) for size, end in zip(sizes, ends))
    pairs = ((x_u, x_u), (node_v, node_u), (y_v, y_v))
    D = _probed_matrix(lambda fxx, node, fyy: _flux_divergence(grid, fxx, node, fyy, node),
                       [(ny, nx + 2), (ny + 1, nx + 1), (ny + 2, nx)])
    return M, pairs, D


def center_laplacian(grid: Grid, dirichlet_sides: frozenset | set = frozenset()):
    """A = -div(grad(.)) for cell-centered scalars, read off the stencil.

    Returns (A, bc_vector) where A is SPD (with at least one Dirichlet side)
    and ``bc_vector(q)`` builds the right-hand-side contribution of the outlet
    data ``q`` (one value per outlet, in ``grid.outlets`` order): solving
    ``A p = bc_vector(q) - div_rhs`` matches ``div(gradient(grid, p, q)) =
    div_rhs`` exactly.  Every outlet side must then be a Dirichlet side.

    Dirichlet sides impose the datum on the boundary face via the linear
    ghost 2*d - p; all other sides are homogeneous Neumann.  A Dirichlet side
    that is not an outlet (the inlet of a pressure lifting) has datum 0.

    A is returned in CSC form; it is a Kronecker sum that ``KronSumSolver``
    solves on the (ny, nx) cell rectangle.
    """
    unknown_sides = set(dirichlet_sides) - set(grid.tags)
    if unknown_sides:
        raise ConfigurationError(f"unknown Dirichlet sides {sorted(unknown_sides)}")
    zero_data = [(side, 0.0) for side in dirichlet_sides]
    A = _probed_matrix(lambda p: (-divergence(grid, *_face_gradient(grid, p, zero_data)),),
                       [(grid.ny, grid.nx)])

    # column k is div(grad(0)) with unit datum on outlet k: bc_vector is linear in q
    outlet_sides = [side for _, side in grid.outlets]
    zero = np.zeros((grid.ny, grid.nx))
    columns = np.stack([divergence(grid, *_face_gradient(grid, zero, [(side, 1.0)])).ravel()
                        for side in outlet_sides], axis=1)
    neumann = [side for side in outlet_sides if side not in dirichlet_sides]

    def bc_vector(q) -> np.ndarray:
        q = _outlet_data(grid, q)
        if neumann:
            raise ConfigurationError(f"side {neumann[0]!r} was not assembled as Dirichlet")
        return np.dot(columns, q)   # not @, which skips BLAS at one outlet and is ~8x slower

    return A, bc_vector


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The dense symmetric tridiagonal matrix of a diagonal and its off-diagonal."""
    return np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)


class KronSumSolver:
    """Solves ``A x = b`` for a symmetric matrix A on the flat layout of an
    (ny, nx) rectangle that is a Kronecker sum Ay (x) I + I (x) Ax of two
    tridiagonal 1-D factors, by fast diagonalisation (Lynch, Rice & Thomas
    1964): with Ay = Qy Ly Qy^T and Ax = Qx Lx Qx^T, the solution of
    Ay X + X Ax = B is Qy ((Qy^T B Qx) / (Ly_j + Lx_i)) Qx^T.

    The factors are read off A's diagonals 0, -1 and -nx (the first row and
    the first column of the rectangle), and A is checked against their
    Kronecker sum on one random input, as ``_probed_matrix`` checks its
    stencils; a matrix that fails, being off the pattern or not symmetric,
    raises ValueError.  A singular A (the all-Neumann Laplacian) gets the
    minimum-norm solution: the coefficient of every eigenvector whose
    eigenvalue is zero to rounding, by the rank tolerance of
    ``numpy.linalg.matrix_rank``, is zero, which for a Neumann Laplacian is
    the mean-zero solution."""

    def __init__(self, A, shape: tuple[int, int]):
        ny, nx = shape
        n = ny * nx
        if A.shape != (n, n):
            raise ShapeError(f"a {A.shape} matrix is not on a {ny} x {nx} rectangle")
        d = A.diagonal()
        ay = _tridiagonal(d[::nx] - d[0], A.diagonal(-nx)[::nx])
        ax = _tridiagonal(d[:nx], A.diagonal(-1)[:nx - 1])
        x = np.random.default_rng(0).standard_normal(n)
        gap = np.abs(A @ x - (ay @ x.reshape(ny, nx) + x.reshape(ny, nx) @ ax).ravel())
        if not np.all(gap <= 1e-12 * (abs(A) @ np.abs(x))):
            raise ValueError("the matrix is not the Kronecker sum of two symmetric "
                             "tridiagonal factors on its rectangle")
        (ly, qy), (lx, qx) = np.linalg.eigh(ay), np.linalg.eigh(ax)
        # contiguous transposes: the products run about a fifth faster at 96 x 24
        self._q = qy, np.ascontiguousarray(qy.T), qx, np.ascontiguousarray(qx.T)
        lam = ly[:, None] + lx
        zero = np.abs(lam) <= np.abs(lam).max() * n * np.finfo(np.float64).eps
        self._inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=~zero)
        self.shape = (ny, nx)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x for b of shape (n,), or for each column of b of shape (n, m)."""
        b = np.asarray(b, dtype=np.float64)
        ny, nx = self.shape
        # one right-hand side per row; one b as one (ny, nx) array, which the
        # products take faster than a stack of one, with the same bits
        rows = b.reshape(ny, nx) if b.ndim == 1 else b.T.reshape(-1, ny, nx)
        qy, qy_t, qx, qx_t = self._q
        x = qy @ ((qy_t @ rows @ qx) * self._inv) @ qx_t
        return x.reshape(-1, ny * nx).T.reshape(b.shape)
