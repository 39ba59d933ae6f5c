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

`cg` is the conjugate-gradient solver every SPD solve in romkit uses (the
Poisson step, the lifting potentials, the supremizers).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .grid import Grid


def _is_outlet(grid: Grid, side: str) -> bool:
    return grid.tags[side].startswith("outlet_")


def _tang_sign(grid: Grid, side: str) -> float:
    """Ghost multiplier for tangential components: -1 walls/inlet, +1 outlets."""
    return 1.0 if _is_outlet(grid, side) else -1.0


def advanced_masks(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the u/v faces the momentum equation advances."""
    mu = np.ones((grid.ny, grid.nx + 1), dtype=bool)
    mv = np.ones((grid.ny + 1, grid.nx), dtype=bool)
    if not _is_outlet(grid, "left"):
        mu[:, 0] = False
    if not _is_outlet(grid, "right"):
        mu[:, -1] = False
    if not _is_outlet(grid, "bottom"):
        mv[0, :] = False
    if not _is_outlet(grid, "top"):
        mv[-1, :] = False
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


def gradient(grid: Grid, p: np.ndarray, outlet_values: Mapping[int, float] | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Pressure gradient at faces; outlet faces use the Dirichlet datum ghost.

    Non-outlet boundary faces get gradient zero (their velocities are data and
    are never corrected).  `outlet_values[k]` is the boundary value of p on
    outlet k; missing entries default to 0.
    """
    outlet_values = outlet_values or {}
    gx = np.zeros((grid.ny, grid.nx + 1))
    gy = np.zeros((grid.ny + 1, grid.nx))
    gx[:, 1:-1] = (p[:, 1:] - p[:, :-1]) / grid.hx
    gy[1:-1, :] = (p[1:, :] - p[:-1, :]) / grid.hy
    for k, side in grid.outlets:
        val = float(outlet_values.get(k, 0.0))
        if side == "right":
            gx[:, -1] = 2.0 * (val - p[:, -1]) / grid.hx
        elif side == "left":
            gx[:, 0] = 2.0 * (p[:, 0] - val) / grid.hx
        elif side == "top":
            gy[-1, :] = 2.0 * (val - p[-1, :]) / grid.hy
        elif side == "bottom":
            gy[0, :] = 2.0 * (p[0, :] - val) / grid.hy
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

    Returns (A, bc_vector) where A is SPD CSR (with at least one Dirichlet
    side) and ``bc_vector(datums)`` builds the right-hand-side contribution of
    the Dirichlet data: solving ``A p = bc_vector(datums) - div_rhs`` matches
    ``div(gradient(p, datums)) = div_rhs`` exactly.

    Dirichlet sides impose the datum on the boundary face via the linear
    ghost 2*d - p; all other sides are homogeneous Neumann.
    """
    unknown_sides = set(dirichlet_sides) - set(grid.tags)
    if unknown_sides:
        raise ConfigurationError(f"unknown Dirichlet sides {sorted(unknown_sides)}")
    nx, ny = grid.nx, grid.ny
    hx2, hy2 = grid.hx**2, grid.hy**2
    n = nx * ny
    idx = np.arange(n).reshape(ny, nx)

    diag = np.zeros(n)
    rows, cols, vals = [], [], []

    a, b = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    rows += [a, b]
    cols += [b, a]
    vals += [np.full(a.size, -1.0 / hx2), np.full(a.size, -1.0 / hx2)]
    np.add.at(diag, a, 1.0 / hx2)
    np.add.at(diag, b, 1.0 / hx2)

    a, b = idx[:-1, :].ravel(), idx[1:, :].ravel()
    rows += [a, b]
    cols += [b, a]
    vals += [np.full(a.size, -1.0 / hy2), np.full(a.size, -1.0 / hy2)]
    np.add.at(diag, a, 1.0 / hy2)
    np.add.at(diag, b, 1.0 / hy2)

    side_cells = {
        "left": idx[:, 0],
        "right": idx[:, -1],
        "bottom": idx[0, :],
        "top": idx[-1, :],
    }
    side_h2 = {"left": hx2, "right": hx2, "bottom": hy2, "top": hy2}
    for side in dirichlet_sides:
        diag[side_cells[side]] += 2.0 / side_h2[side]

    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()

    def bc_vector(datums: Mapping[str, float]) -> np.ndarray:
        out = np.zeros(n)
        for side, d in datums.items():
            if side not in dirichlet_sides:
                raise ConfigurationError(f"side {side!r} was not assembled as Dirichlet")
            out[side_cells[side]] += 2.0 * float(d) / side_h2[side]
        return out

    return A, bc_vector


def cg(A, b, x0=None, *, rtol=1e-5, atol=0.0, maxiter=None, callback=None):
    """Conjugate gradients for a real SPD `A` (anything with ``A @ x``).

    Follows scipy.sparse.linalg.cg operation for operation with the identity
    preconditioner -- ``||r|| = sqrt(r.r)``, ``rho = r.r``, one ``A @ p`` per
    iteration -- so it returns the same bits, without wrapping `A` in a
    LinearOperator on every call.  Same contract: stops once ``||r|| <
    max(atol, rtol ||b||)``; returns ``(x, info)`` with info 0 on convergence
    and `maxiter` (default 10 n) when it ran out; ``callback(x)`` runs after
    every iteration; `x0` is copied, never modified.
    """
    b = np.asarray(b, dtype=np.float64).ravel()
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b.copy(), 0
    if maxiter is None:
        maxiter = 10 * b.size
    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=np.float64).ravel()
    r = b - A @ x if x.any() else b.copy()
    rho_prev = p = None
    for iteration in range(maxiter):
        rho = np.dot(r, r)
        if np.sqrt(rho) < atol:
            return x, 0
        if iteration > 0:
            p *= rho / rho_prev
            p += r
        else:
            p = r.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback:
            callback(x)
    return x, maxiter
