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
tensor relies on.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, ShapeError
from .grid import OUTWARD, SIDE_INDEX, SIDES, Grid, normal_faces


def _is_outlet(grid: Grid, side: str) -> bool:
    return grid.tags[side].startswith("outlet_")


def _tang_sign(grid: Grid, side: str) -> float:
    """Ghost multiplier for tangential components: -1 walls/inlet, +1 outlets."""
    return 1.0 if _is_outlet(grid, side) else -1.0


def advanced_masks(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the u/v faces the momentum equation advances."""
    mu = np.ones((grid.ny, grid.nx + 1), dtype=bool)
    mv = np.ones((grid.ny + 1, grid.nx), dtype=bool)
    for side in SIDES:
        if not _is_outlet(grid, side):
            normal_faces(mu, mv, side)[SIDE_INDEX[side]] = False
    return mu, mv


def _ext_u_y(grid: Grid, u: np.ndarray) -> np.ndarray:
    """u with ghost rows below/above per bottom/top closure."""
    e = np.empty((grid.ny + 2, grid.nx + 1))
    e[1:-1] = u
    e[0] = _tang_sign(grid, "bottom") * u[0]
    e[-1] = _tang_sign(grid, "top") * u[-1]
    return e


def _ext_v_x(grid: Grid, v: np.ndarray) -> np.ndarray:
    """v with ghost columns left/right per side closure."""
    e = np.empty((grid.ny + 1, grid.nx + 2))
    e[:, 1:-1] = v
    e[:, 0] = _tang_sign(grid, "left") * v[:, 0]
    e[:, -1] = _tang_sign(grid, "right") * v[:, -1]
    return e


def vec_laplacian(grid: Grid, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise 5-point Laplacian at advanced faces (zero elsewhere)."""
    hx2, hy2 = grid.hx**2, grid.hy**2

    ue = np.empty((grid.ny, grid.nx + 3))
    ue[:, 1:-1] = u
    ue[:, 0] = u[:, 0]
    ue[:, -1] = u[:, -1]
    ug = _ext_u_y(grid, u)
    lu = (ue[:, :-2] - 2.0 * u + ue[:, 2:]) / hx2 + (ug[:-2] - 2.0 * u + ug[2:]) / hy2

    ve = np.empty((grid.ny + 3, grid.nx))
    ve[1:-1] = v
    ve[0] = v[0]
    ve[-1] = v[-1]
    vg = _ext_v_x(grid, v)
    lv = (ve[:-2] - 2.0 * v + ve[2:]) / hy2 + (vg[:, :-2] - 2.0 * v + vg[:, 2:]) / hx2

    mu, mv = advanced_masks(grid)
    lu[~mu] = 0.0
    lv[~mv] = 0.0
    return lu, lv


def divergence(grid: Grid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cell-centered divergence of a face velocity field."""
    return (u[:, 1:] - u[:, :-1]) / grid.hx + (v[1:, :] - v[:-1, :]) / grid.hy


def _outlet_data(grid: Grid, q) -> np.ndarray:
    """Outlet data as one float array in ``grid.outlets`` order; None is all zeros."""
    n = len(grid.outlets)
    if q is None:
        return np.zeros(n)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (n,):
        raise ShapeError(f"outlet data needs one value per outlet ({n}), got shape {q.shape}")
    return q


def gradient(grid: Grid, p: np.ndarray, q=None) -> tuple[np.ndarray, np.ndarray]:
    """Pressure gradient at faces; outlet faces use the Dirichlet datum ghost.

    Non-outlet boundary faces get gradient zero (their velocities are data and
    are never corrected).  `q` holds the boundary value of p on each outlet,
    in ``grid.outlets`` order; None means 0 on every outlet.
    """
    q = _outlet_data(grid, q)
    gx = np.zeros((grid.ny, grid.nx + 1))
    gy = np.zeros((grid.ny + 1, grid.nx))
    gx[:, 1:-1] = (p[:, 1:] - p[:, :-1]) / grid.hx
    gy[1:-1, :] = (p[1:, :] - p[:-1, :]) / grid.hy
    for (_, side), val in zip(grid.outlets, q):
        cells = p[SIDE_INDEX[side]]
        # datum minus cell along the axis; both operand orders are written out
        # so an equal datum and cell give +0.0 on every side
        diff = val - cells if OUTWARD[side] > 0 else cells - val
        normal_faces(gx, gy, side)[SIDE_INDEX[side]] = 2.0 * diff / grid.normal_spacing(side)
    return gx, gy


def convection(grid: Grid, au: np.ndarray, av: np.ndarray,
               bu: np.ndarray, bv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """div(a (x) b) at advanced faces: a advects b. Bilinear in (a, b)."""
    hx, hy = grid.hx, grid.hy
    ny, nx = grid.ny, grid.nx

    # x-momentum: d/dx(a_u b_u) + d/dy(a_v b_u)
    fx = 0.25 * (au[:, :-1] + au[:, 1:]) * (bu[:, :-1] + bu[:, 1:])     # (ny, nx) centers
    fxe = np.empty((ny, nx + 2))
    fxe[:, 1:-1] = fx
    fxe[:, 0] = au[:, 0] * bu[:, 0]
    fxe[:, -1] = au[:, -1] * bu[:, -1]
    ave = _ext_v_x(grid, av)
    bue = _ext_u_y(grid, bu)
    a_node = 0.5 * (ave[:, :-1] + ave[:, 1:])                           # (ny+1, nx+1)
    b_node = 0.5 * (bue[:-1, :] + bue[1:, :])                           # (ny+1, nx+1)
    gy_flux = a_node * b_node
    cu = (fxe[:, 1:] - fxe[:, :-1]) / hx + (gy_flux[1:, :] - gy_flux[:-1, :]) / hy

    # y-momentum: d/dy(a_v b_v) + d/dx(a_u b_v)
    fy = 0.25 * (av[:-1, :] + av[1:, :]) * (bv[:-1, :] + bv[1:, :])     # (ny, nx) centers
    fye = np.empty((ny + 2, nx))
    fye[1:-1] = fy
    fye[0] = av[0] * bv[0]
    fye[-1] = av[-1] * bv[-1]
    aue = _ext_u_y(grid, au)
    bve = _ext_v_x(grid, bv)
    a_node2 = 0.5 * (aue[:-1, :] + aue[1:, :])                          # (ny+1, nx+1)
    b_node2 = 0.5 * (bve[:, :-1] + bve[:, 1:])                          # (ny+1, nx+1)
    gx_flux = a_node2 * b_node2
    cv = (fye[1:, :] - fye[:-1, :]) / hy + (gx_flux[:, 1:] - gx_flux[:, :-1]) / hx

    mu, mv = advanced_masks(grid)
    cu[~mu] = 0.0
    cv[~mv] = 0.0
    return cu, cv


def center_laplacian(grid: Grid, dirichlet_sides: frozenset | set = frozenset()):
    """Assemble A = -div(grad(.)) for cell-centered scalars.

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
    nx, ny = grid.nx, grid.ny
    hx2, hy2 = grid.hx**2, grid.hy**2
    n = nx * ny
    idx = np.arange(n).reshape(ny, nx)

    # data[i, c] is the entry in column c of diagonal offsets[i]
    offsets = np.array([-nx, -1, 0, 1, nx])
    data = np.zeros((5, ny, nx))
    data[0, :-1, :] = -1.0 / hy2       # A[c + nx, c]: cell above
    data[1, :, :-1] = -1.0 / hx2       # A[c + 1, c]: cell to the right
    data[3, :, 1:] = -1.0 / hx2        # A[c - 1, c]: cell to the left
    data[4, 1:, :] = -1.0 / hy2        # A[c - nx, c]: cell below

    diag = data[2]
    diag[:, :-1] += 1.0 / hx2
    diag[:, 1:] += 1.0 / hx2
    diag[:-1, :] += 1.0 / hy2
    diag[1:, :] += 1.0 / hy2

    diag = diag.reshape(n)
    # a fixed side order: a corner cell's two terms would otherwise round in
    # the set's hash order, which changes from one process to the next
    for side in sorted(dirichlet_sides, key=SIDES.index):
        diag[idx[SIDE_INDEX[side]]] += 2.0 / grid.normal_spacing(side)**2
    A = sp.dia_matrix((data.reshape(5, n), offsets), shape=(n, n)).tocsc()

    def bc_vector(q) -> np.ndarray:
        out = np.zeros(n)
        for (_, side), d in zip(grid.outlets, _outlet_data(grid, q)):
            if side not in dirichlet_sides:
                raise ConfigurationError(f"side {side!r} was not assembled as Dirichlet")
            out[idx[SIDE_INDEX[side]]] += 2.0 * float(d) / grid.normal_spacing(side)**2
        return out

    return A, bc_vector
