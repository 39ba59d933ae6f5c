"""Lifting fields that carry the non-homogeneous boundary data.

The velocity lifting chi_u is the gradient of a potential solved with unit
inward flux on the inlet, zero flux on walls and an area-proportional
compatible flux on the outlets.  On a straight channel it reduces to the
unit plug flow.  Its discrete divergence vanishes cell by cell, so lifted
snapshots stay discretely divergence-free.

Each outlet k gets a scalar lifting chi_p_k: harmonic, value 1 on outlet k,
value 0 on the inlet and the other outlets, zero normal derivative on walls.
Snapshots are homogenized as

    u'(t) = u(t) - u_D(t) chi_u,      p'(t) = p(t) - sum_k p_Dk(t) chi_p_k,

and de-homogenized by the inverse shift at reconstruction time.  Both
liftings are FieldRows built from the solves' arrays: chi_u is one row,
chi_p one row per outlet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .grid import (SIDE_INDEX, FieldRows, Grid, SnapshotSet, load_arrays, normal_flux,
                   read_file, save_arrays, set_inward)
from .operators import KronSumSolver, _face_gradient, center_laplacian, divergence, flat_faces
from .operators import cg  # noqa: F401  (unused: perfbench/spans.py traces lifting.cg)

LIFT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class LiftingPair:
    """Velocity lifting (one row), pressure liftings (one row per outlet) and
    normalization records."""

    chi_u: FieldRows
    chi_p: FieldRows
    records: dict

    @property
    def n_outlets(self) -> int:
        return len(self.chi_p)

    def save(self, directory) -> None:
        save_arrays(directory, "romkit-lifting-3", {"records": self.records},
                    {"chi_u": self.chi_u.values[0], "chi_p": self.chi_p.values})

    @classmethod
    def load(cls, directory, grid: Grid, read=read_file) -> "LiftingPair":
        meta, arrays = load_arrays(directory, "romkit-lifting-3", read)
        return cls(FieldRows(grid, "vector2", arrays["chi_u"][None]),
                   FieldRows(grid, "scalar", arrays["chi_p"]), meta["records"])


def _velocity_lifting(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The face arrays (u, v) of chi_u."""
    inlet = grid.inlet_side  # exactly one inlet required
    outlet_area = sum(grid.side_area(s) for _, s in grid.outlets)
    q_out = grid.side_area(inlet) / outlet_area  # uniform outflow speed, flux-compatible

    ub = np.zeros((grid.ny, grid.nx + 1))
    vb = np.zeros((grid.ny + 1, grid.nx))
    set_inward(ub, vb, inlet, 1.0)
    for _, side in grid.outlets:
        set_inward(ub, vb, side, -q_out)

    known_div = divergence(grid, ub, vb).ravel()
    A, _ = center_laplacian(grid, frozenset())
    b = known_div - known_div.mean()  # project onto range of the Neumann operator
    # A is singular (constants are its null space): the solve takes the mean-zero phi
    phi = KronSumSolver(A, (grid.ny, grid.nx)).solve(b).reshape(grid.ny, grid.nx)

    # the potential's gradient is zero on every boundary face, which keeps the data
    gx, gy = _face_gradient(grid, phi)
    u, v = ub + gx, vb + gy
    resid = np.abs(divergence(grid, u, v)).max()
    scale = max(np.abs(known_div).max(), 1.0 / min(grid.hx, grid.hy))
    if resid > LIFT_RESIDUAL_TOL * scale:
        raise NumericalError(f"velocity lifting divergence residual {resid:.3e} above tolerance")
    return u, v


def _pressure_liftings(grid: Grid) -> FieldRows:
    """All chi_p_k from one diagonalisation: column k of the block right-hand
    side is outlet k's unit datum, and each column is checked on its own."""
    dirichlet = {grid.inlet_side} | {side for _, side in grid.outlets}
    A, bc = center_laplacian(grid, frozenset(dirichlet))
    b = np.column_stack([bc(e) for e in np.eye(len(grid.outlets))])
    x = KronSumSolver(A, (grid.ny, grid.nx)).solve(b)
    resid = np.abs(A @ x - b).max(axis=0)
    ok = resid <= LIFT_RESIDUAL_TOL * np.maximum(np.abs(b).max(axis=0), 1.0)
    if not np.all(ok):   # a nan residual fails too
        k = int(np.argmin(ok))
        raise NumericalError(f"pressure lifting of outlet {grid.outlets[k][0]}: residual "
                             f"{resid[k]:.3e} above tolerance")
    return FieldRows(grid, "scalar", x.T)


def compute_lifting(grid: Grid) -> LiftingPair:
    """Solve the potential-flow problems for every chi_p_k and chi_u."""
    if not grid.outlets:
        raise ConfigurationError("lifting needs at least one outlet")
    chi_p = _pressure_liftings(grid)
    u, v = _velocity_lifting(grid)
    cells = chi_p.values.reshape(-1, grid.ny, grid.nx)
    records = {
        "chi_u_inlet_flux": -normal_flux(grid, u, v, grid.inlet_side),
        "chi_p_outlet_datum": [1.0] * len(chi_p),
        "chi_p_adjacent_cell_mean": [float(c[SIDE_INDEX[side]].mean())
                                     for (_, side), c in zip(grid.outlets, cells)],
    }
    return LiftingPair(FieldRows(grid, "vector2", flat_faces((u, v))[None]), chi_p, records)


def _outlet_array(p_d, n_times: int, n_outlets: int) -> np.ndarray:
    """The (T, n_outlets) outlet-pressure array, zeros for None."""
    if p_d is None:
        return np.zeros((n_times, n_outlets))
    q = np.asarray(p_d, dtype=np.float64)
    if q.shape != (n_times, n_outlets):
        raise ShapeError(f"p_d must have shape ({n_times}, {n_outlets}), got {q.shape}")
    return q


def _shift(snaps: SnapshotSet, u_d, p_d, lift: LiftingPair, sign: float) -> SnapshotSet:
    m = len(snaps)
    u_d = np.asarray(u_d, dtype=np.float64)
    if u_d.shape != (m,):
        raise ShapeError(f"u_D series must have length {m}, got shape {u_d.shape}")
    if lift.chi_u.grid != snaps.grid:
        raise ShapeError("lifting and snapshots live on different grids")
    if np.ndim(p_d) == 1:   # a single outlet's series
        p_d = np.reshape(p_d, (-1, 1))
    p_d = _outlet_array(p_d, m, lift.n_outlets)
    vel = snaps.velocity.values + np.outer(sign * u_d, lift.chi_u.values[0])
    # einsum, not @: BLAS takes twice as long as an outer product at one outlet
    pres = snaps.pressure.values + np.einsum("tk,kn->tn", sign * p_d, lift.chi_p.values)
    op = snaps.outlet_pressure
    if op is not None and op.shape[1] == lift.n_outlets:
        op = op + sign * p_d
    return SnapshotSet(snaps.times.copy(), FieldRows(snaps.grid, "vector2", vel),
                       FieldRows(snaps.grid, "scalar", pres), snaps.nu, snaps.waveform, op)


def homogenize(snaps: SnapshotSet, u_d, p_d, lift: LiftingPair) -> SnapshotSet:
    """Subtract the boundary-data multiples of the lifting fields. ``p_d`` may
    be None to skip the pressure shift (lifting ablation)."""
    return _shift(snaps, u_d, p_d, lift, -1.0)


def dehomogenize(snaps: SnapshotSet, u_d, p_d, lift: LiftingPair) -> SnapshotSet:
    """Exact inverse of homogenize."""
    return _shift(snaps, u_d, p_d, lift, +1.0)
