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

and de-homogenized by the inverse shift at reconstruction time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import cg  # noqa: F401  (unused: perfbench/spans.py traces lifting.cg)
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, FormatError, NumericalError, ShapeError
from .grid import SIDE_INDEX, Field, FieldRows, Grid, SnapshotSet, inlet_flux, set_inward
from .operators import center_laplacian, divergence

LIFT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class LiftingPair:
    """Velocity lifting, per-outlet pressure liftings and normalization records."""

    chi_u: Field
    chi_p: tuple
    records: dict

    @property
    def n_outlets(self) -> int:
        return len(self.chi_p)

    def save(self, directory) -> None:
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        (d / "chi_u.bin").write_bytes(self.chi_u.values.astype("<f8").tobytes())
        for k, f in enumerate(self.chi_p):
            name = "chi_p.bin" if k == 0 else f"chi_p_{k}.bin"
            (d / name).write_bytes(f.values.astype("<f8").tobytes())
        (d / "lifting.json").write_text(
            json.dumps({"format": "romkit-lifting-1", "n_outlets": self.n_outlets,
                        "records": self.records}, indent=1)
        )

    @classmethod
    def load(cls, directory, grid: Grid) -> "LiftingPair":
        d = Path(directory)
        try:
            meta = json.loads((d / "lifting.json").read_text())
        except FileNotFoundError:
            raise FormatError(f"no lifting.json under {d}")
        if meta.get("format") != "romkit-lifting-1":
            raise FormatError(f"unsupported lifting format {meta.get('format')!r}")
        chi_u = Field(grid, "vector2", np.frombuffer((d / "chi_u.bin").read_bytes(), dtype="<f8"))
        chi_p = []
        for k in range(meta["n_outlets"]):
            name = "chi_p.bin" if k == 0 else f"chi_p_{k}.bin"
            chi_p.append(Field(grid, "scalar", np.frombuffer((d / name).read_bytes(), dtype="<f8")))
        return cls(chi_u, tuple(chi_p), meta["records"])


def _velocity_lifting(grid: Grid) -> Field:
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
    # pins the constant mode on the first diagonal entry; the solution has phi[0] = 0
    A[0, 0] += A.diagonal().mean()
    phi = splu(A).solve(b).reshape(grid.ny, grid.nx)

    u = ub.copy()
    v = vb.copy()
    u[:, 1:-1] = (phi[:, 1:] - phi[:, :-1]) / grid.hx
    v[1:-1, :] = (phi[1:, :] - phi[:-1, :]) / grid.hy
    chi_u = Field.vector2(grid, u, v)

    resid = np.abs(divergence(grid, u, v)).max()
    scale = max(np.abs(known_div).max(), 1.0 / min(grid.hx, grid.hy))
    if resid > LIFT_RESIDUAL_TOL * scale:
        raise NumericalError(f"velocity lifting divergence residual {resid:.3e} above tolerance")
    return chi_u


def _pressure_lifting(grid: Grid, k: int) -> Field:
    dirichlet = {grid.inlet_side} | {side for _, side in grid.outlets}
    A, bc = center_laplacian(grid, frozenset(dirichlet))
    b = bc([float(kk == k) for kk, _ in grid.outlets])
    x = splu(A).solve(b)
    resid = np.abs(A @ x - b).max()
    if resid > LIFT_RESIDUAL_TOL * max(np.abs(b).max(), 1.0):
        raise NumericalError(f"pressure lifting residual {resid:.3e} above tolerance")
    return Field.scalar(grid, x)


def compute_lifting(grid: Grid) -> LiftingPair:
    """Solve the potential-flow problems for chi_u and every chi_p_k."""
    if not grid.outlets:
        raise ConfigurationError("lifting needs at least one outlet")
    chi_u = _velocity_lifting(grid)
    chi_p = tuple(_pressure_lifting(grid, k) for k, _ in grid.outlets)
    records = {
        "chi_u_inlet_flux": inlet_flux(chi_u),
        "chi_p_outlet_datum": [1.0] * len(chi_p),
        "chi_p_adjacent_cell_mean": [float(f.c[SIDE_INDEX[side]].mean())
                                     for (_, side), f in zip(grid.outlets, chi_p)],
    }
    return LiftingPair(chi_u, chi_p, records)


def _check_series(snaps: SnapshotSet, u_d, p_d, lift: LiftingPair):
    m = len(snaps)
    u_d = np.asarray(u_d, dtype=np.float64)
    if u_d.shape != (m,):
        raise ShapeError(f"u_D series must have length {m}, got shape {u_d.shape}")
    if p_d is None:
        p_d = np.zeros((m, lift.n_outlets))
    else:
        p_d = np.asarray(p_d, dtype=np.float64)
        if p_d.ndim == 1:
            p_d = p_d[:, None]
        if p_d.shape != (m, lift.n_outlets):
            raise ShapeError(
                f"p_D series must have shape ({m}, {lift.n_outlets}), got {p_d.shape}"
            )
    if lift.chi_u.grid != snaps.grid:
        raise ShapeError("lifting and snapshots live on different grids")
    return u_d, p_d


def _shift(snaps: SnapshotSet, u_d, p_d, lift: LiftingPair, sign: float) -> SnapshotSet:
    u_d, p_d = _check_series(snaps, u_d, p_d, lift)
    vel = snaps.velocity.values + np.outer(sign * u_d, lift.chi_u.values)
    pres = snaps.pressure.values
    for k in range(lift.n_outlets):
        pres = pres + np.outer(sign * p_d[:, k], lift.chi_p[k].values)
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
