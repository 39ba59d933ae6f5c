"""Discrete MAC-grid operators shared by the flow solver and ROM assembly.

The reduced operators are Galerkin compressions of exactly these stencils,
so the same functions serve both layers.  All closures are linear in the
stored face values:

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

The sparse matrices are read off these stencils with five colored probes (the
Poisson matrix is minus the divergence of the face gradient), so each
discrete operator has one representation.

scipy is imported only where a sparse matrix is built or factored, so that
loading a bundle and running the online stage import numpy alone.  ``splu``
and ``cg`` stand in for scipy's functions of the same name and import them
on their first call; the FOM, the liftings and the supremizer solve factor
through their own module's ``splu`` global.  ``cg`` is called nowhere: fom,
lifting and rom import it only so that the benchmark's tracer, which names
``fom.cg``, ``lifting.cg`` and ``rom.cg``, still finds its targets.
"""

from __future__ import annotations

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


def splu(A, **kwargs):
    """scipy.sparse.linalg.splu, imported on the first call."""
    from scipy.sparse.linalg import splu
    return splu(A, **kwargs)


def cg(A, b, **kwargs):
    """scipy.sparse.linalg.cg, imported on the first call."""
    from scipy.sparse.linalg import cg
    return cg(A, b, **kwargs)


def _probed_matrix(stencil, shapes):
    """The matrix of a linear 5-point ``stencil`` of arrays of the given
    (ny, nx) shapes, on their flat layout, read off five probes.  Color
    (i + 2j) mod 5 of entry (j, i) differs across every 5-point stencil
    (Curtis, Powell & Reid 1974) and the arrays do not couple, so probe c
    holds at entry r the coefficient of r's one neighbour of color c.
    Returns a scipy CSC matrix."""
    colors = [(np.arange(nx) + 2 * np.arange(ny)[:, None]) % 5 for ny, nx in shapes]
    probes = [(c == np.arange(5)[:, None, None]).astype(np.float64) for c in colors]
    probed, color = flat_faces(stencil(*probes)), flat_faces(colors)
    c, r = np.nonzero(probed)
    # color c - color[r] (mod 5) is the neighbour's step: 0, +i, +j, -j or -i
    width = np.concatenate([np.full(ny * nx, nx) for ny, nx in shapes])[r]
    step = np.choose((c - color[r]) % 5, [0, 1, width, -width, -1])
    from scipy.sparse import csc_matrix
    return csc_matrix((probed[c, r], (r, r + step)), shape=(color.size,) * 2)


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


def vec_laplacian_matrix(grid: Grid):
    """vec_laplacian as a matrix on the flat (u block, v block) layout."""
    return _probed_matrix(lambda u, v: vec_laplacian(grid, u, v),
                          [(grid.ny, grid.nx + 1), (grid.ny + 1, grid.nx)])


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


def convection(grid: Grid, au: np.ndarray, av: np.ndarray,
               bu: np.ndarray, bv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """div(a (x) b) at advanced faces: a advects b. Bilinear in (a, b)."""
    hx, hy = grid.hx, grid.hy

    # x-momentum: d/dx(a_u b_u) + d/dy(a_v b_u)
    fx = 0.25 * (au[..., :-1] + au[..., 1:]) * (bu[..., :-1] + bu[..., 1:])  # (ny, nx) centers
    fxe = np.concatenate([au[..., :1] * bu[..., :1], fx, au[..., -1:] * bu[..., -1:]], axis=-1)
    ave = _ext_v_x(grid, av)
    bue = _ext_u_y(grid, bu)
    a_node = 0.5 * (ave[..., :-1] + ave[..., 1:])                       # (ny+1, nx+1)
    b_node = 0.5 * (bue[..., :-1, :] + bue[..., 1:, :])                 # (ny+1, nx+1)
    gy_flux = a_node * b_node
    cu = (fxe[..., 1:] - fxe[..., :-1]) / hx + (gy_flux[..., 1:, :] - gy_flux[..., :-1, :]) / hy

    # y-momentum: d/dy(a_v b_v) + d/dx(a_u b_v)
    fy = 0.25 * (av[..., :-1, :] + av[..., 1:, :]) * (bv[..., :-1, :] + bv[..., 1:, :])
    fye = np.concatenate([av[..., :1, :] * bv[..., :1, :], fy, av[..., -1:, :] * bv[..., -1:, :]],
                         axis=-2)
    aue = _ext_u_y(grid, au)
    bve = _ext_v_x(grid, bv)
    a_node2 = 0.5 * (aue[..., :-1, :] + aue[..., 1:, :])                # (ny+1, nx+1)
    b_node2 = 0.5 * (bve[..., :-1] + bve[..., 1:])                      # (ny+1, nx+1)
    gx_flux = a_node2 * b_node2
    cv = (fye[..., 1:, :] - fye[..., :-1, :]) / hy + (gx_flux[..., 1:] - gx_flux[..., :-1]) / hx

    fu, fv = grid.fixed_masks
    np.copyto(cu, 0.0, where=fu)
    np.copyto(cv, 0.0, where=fv)
    return cu, cv


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

    A is returned in CSC form, the format ``scipy.sparse.linalg.splu``
    factors.
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
