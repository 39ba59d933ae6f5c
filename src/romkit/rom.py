"""Reduced dynamical system: supremizers, operator assembly, time integration.

With velocity modes phi_i, pressure modes psi_i and lifting fields chi_u /
chi_p_k, substituting

    u = sum_i a_i phi_i + g(t) chi_u,      p = sum_i b_i psi_i + sum_k q_k(t) chi_p_k

into the momentum/continuity equations and projecting on the modes gives

    da/dt = nu (B a + g d1) - [a'Ct a + g (d2 + d3) a + g^2 d4]
            - K b - sum_k q_k d5_k - dg/dt d6,
    P a = -g d7,

with B, Ct, K, P the Galerkin compressions of the discrete Laplacian,
convection, gradient and divergence (the same stencils the full-order
solver steps), and d1..d7 the lifting couplings:

    d1 = (phi, Lap chi_u)            d2 = (phi_i, div(phi_j (x) chi_u))
    d3 = (phi_i, div(chi_u (x) phi_j))   d4 = (phi, div(chi_u (x) chi_u))
    d5_k = (phi, grad chi_p_k)       d6 = (phi, chi_u)
    d7 = (psi, div chi_u)

Time stepping is semi-implicit Euler: diffusion and the pressure coupling
are implicit (a saddle solve keeps P a^{n+1} exactly on the constraint),
convection and the lifting forcings explicit.  Supremizer modes -- one
elliptic solve per pressure mode -- make the saddle matrix invertible;
without them the constraint rows vanish on (divergence-free) velocity
modes and integrate_rom reports the singularity.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .errors import FormatError, NumericalError, ShapeError, StabilityError
from .fom import Waveform
# snapshot_matrix stays importable here for perfbench/spans.py, which wraps it
from .grid import FieldRows, Grid, SnapshotSet, snapshot_matrix  # noqa: F401
from .lifting import LiftingPair
from .operators import advanced_masks, convection, divergence, gradient, vec_laplacian
from .pod import ReducedBasis, _mgs

SADDLE_COND_LIMIT = 1e12
SUPREMIZER_RTOL = 1e-10

_MAGIC = b"ROMKOPS1"


@dataclass(eq=False)
class ReducedOperators:
    """Dense Galerkin tensors of the reduced system plus lifting couplings."""

    B: np.ndarray          # (Nu, Nu) diffusion
    Ct: np.ndarray         # (Nu, Nu, Nu) convection, Ct[i, j, k] = (phi_i, div(phi_j x phi_k))
    K: np.ndarray          # (Nu, Np) pressure gradient
    P: np.ndarray          # (Np, Nu) divergence constraint
    d1: np.ndarray         # (Nu,)
    d2: np.ndarray         # (Nu, Nu)
    d3: np.ndarray         # (Nu, Nu)
    d4: np.ndarray         # (Nu,)
    d5: np.ndarray         # (n_outlets, Nu)
    d6: np.ndarray         # (Nu,)
    d7: np.ndarray         # (Np,)
    nu: float

    def __post_init__(self):
        nu_modes, npr = self.K.shape
        if self.B.shape != (nu_modes, nu_modes) or self.Ct.shape != (nu_modes,) * 3:
            raise ShapeError("B/Ct shapes inconsistent with K")
        if self.P.shape != (npr, nu_modes):
            raise ShapeError("P shape inconsistent with K")
        for name in ("d1", "d4", "d6"):
            if getattr(self, name).shape != (nu_modes,):
                raise ShapeError(f"{name} must have shape ({nu_modes},)")
        if self.d2.shape != (nu_modes, nu_modes) or self.d3.shape != (nu_modes, nu_modes):
            raise ShapeError("d2/d3 shape mismatch")
        if self.d5.ndim != 2 or self.d5.shape[1] != nu_modes:
            raise ShapeError("d5 must be (n_outlets, Nu)")
        if self.d7.shape != (npr,):
            raise ShapeError("d7 shape mismatch")

    @property
    def n_u(self) -> int:
        return self.B.shape[0]

    @property
    def n_p(self) -> int:
        return self.P.shape[0]

    @property
    def n_outlets(self) -> int:
        return self.d5.shape[0]

    def subset(self, u_idx, n_p: int) -> "ReducedOperators":
        """Operators of the sub-basis given by velocity indices and the
        first n_p pressure modes (valid because modes are orthonormal)."""
        u_idx = np.asarray(u_idx, dtype=int)
        return ReducedOperators(
            B=self.B[np.ix_(u_idx, u_idx)],
            Ct=self.Ct[np.ix_(u_idx, u_idx, u_idx)],
            K=self.K[np.ix_(u_idx, np.arange(n_p))] if n_p else np.zeros((u_idx.size, 0)),
            P=self.P[:n_p][:, u_idx],
            d1=self.d1[u_idx],
            d2=self.d2[np.ix_(u_idx, u_idx)],
            d3=self.d3[np.ix_(u_idx, u_idx)],
            d4=self.d4[u_idx],
            d5=self.d5[:, u_idx],
            d6=self.d6[u_idx],
            d7=self.d7[:n_p],
            nu=self.nu,
        )

    # -- persistence: magic, header length, JSON header, raw float64 blocks --
    _ARRAY_ORDER = ("B", "Ct", "K", "P", "d1", "d2", "d3", "d4", "d5", "d6", "d7")

    def save(self, path) -> None:
        header = {
            "format": "romkit-operators-1",
            "nu": repr(float(self.nu)),
            "arrays": [{"name": n, "shape": list(getattr(self, n).shape)}
                       for n in self._ARRAY_ORDER],
        }
        blob = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for n in self._ARRAY_ORDER:
                fh.write(np.ascontiguousarray(getattr(self, n), dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "ReducedOperators":
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise FormatError(f"{path} is not a reduced-operator file")
            (hlen,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(hlen).decode())
            if header.get("format") != "romkit-operators-1":
                raise FormatError(f"unsupported operator format {header.get('format')!r}")
            arrays = {}
            for spec in header["arrays"]:
                shape = tuple(spec["shape"])
                count = int(np.prod(shape)) if shape else 1
                raw = np.frombuffer(fh.read(8 * count), dtype="<f8")
                arrays[spec["name"]] = raw.reshape(shape).copy()
        return cls(nu=float(header["nu"]), **arrays)


@dataclass(eq=False)
class ReducedTrajectory:
    times: np.ndarray
    a: np.ndarray          # (T, Nu)
    b: np.ndarray          # (T, Np)
    saddle_cond: float | None = None   # 2-norm condition number of the saddle matrix
                                       # integrate_rom inverted

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.a = np.atleast_2d(np.asarray(self.a, dtype=np.float64))
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.b.ndim == 1:
            self.b = self.b.reshape(self.times.size, -1)
        if self.a.shape[0] != self.times.size or self.b.shape[0] != self.times.size:
            raise ShapeError("trajectory arrays must align with times")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ShapeError("trajectory contains non-finite entries")


def _flat(uv) -> np.ndarray:
    """Flat (u block, v block) layout of a pair of face arrays."""
    return np.concatenate([uv[0].ravel(), uv[1].ravel()])


def supremizer_enrich(basis_u: ReducedBasis, basis_p: ReducedBasis | None,
                      grid: Grid) -> ReducedBasis:
    """Append one elliptic supremizer per pressure mode and re-orthonormalize.

    Each s_j solves  -Lap s_j = -grad psi_j  with homogeneous velocity
    boundary closures, giving the constraint matrix P a strictly positive
    smallest singular value on the enriched basis.
    """
    if basis_p is None or basis_p.n_modes == 0:
        return basis_u
    if basis_u.grid != grid or basis_p.grid != grid:
        raise ShapeError("bases must live on the provided grid")

    # the unknowns are the advanced faces, in the flat (u block, v block) layout
    unknown = np.concatenate([m.ravel() for m in advanced_masks(grid)])
    n_unknown = int(unknown.sum())

    def matvec(x):
        w = np.zeros(grid.n_vector)
        w[unknown] = x
        u, v = w[:grid.n_u].reshape(grid.ny, grid.nx + 1), w[grid.n_u:].reshape(grid.ny + 1, grid.nx)
        return -_flat(vec_laplacian(grid, u, v))[unknown]

    A = LinearOperator((n_unknown, n_unknown), matvec=matvec)

    sup = np.zeros((basis_p.n_modes, grid.n_vector))
    for j, psi in enumerate(basis_p.modes):
        rhs = -_flat(gradient(grid, psi.c))[unknown]
        x, info = cg(A, rhs, rtol=SUPREMIZER_RTOL, atol=0.0, maxiter=50 * n_unknown)
        if info != 0:
            raise NumericalError(f"supremizer solve for pressure mode {j} failed (info={info})")
        sup[j, unknown] = x

    # _mgs leaves the rows before `start` (the velocity modes) untouched
    ortho = _mgs(np.vstack([basis_u.modes.values, sup]), grid.cell_area,
                 start=basis_u.n_modes)
    return ReducedBasis(FieldRows(grid, "vector2", ortho), basis_u.eigenvalues,
                        "velocity+supremizer", basis_u.M,
                        n_supremizer=basis_u.n_supremizer + sup.shape[0])


def assemble_operators(basis_u: ReducedBasis, basis_p: ReducedBasis | None,
                       lift: LiftingPair, nu: float, grid: Grid,
                       include_convection: bool = True) -> ReducedOperators:
    """Galerkin-compress the discrete operators over the given bases.

    ``include_convection`` is the full-order model's: without it (a Stokes
    run) the convection terms Ct, d2, d3 and d4 are left zero, uncomputed.
    """
    if basis_u.grid != grid:
        raise ShapeError("velocity basis grid mismatch")
    if basis_p is not None and basis_p.grid != grid:
        raise ShapeError("pressure basis grid mismatch")
    if lift.chi_u.grid != grid:
        raise ShapeError("lifting grid mismatch")

    area = grid.cell_area
    Phi = basis_u.modes.values
    n_u = Phi.shape[0]
    n_p = basis_p.n_modes if basis_p is not None else 0
    Psi = basis_p.modes.values if n_p else np.zeros((0, grid.n_scalar))
    umodes = [(f.u, f.v) for f in basis_u.modes]
    cu_u, cu_v = lift.chi_u.u, lift.chi_u.v

    def proj(uv):
        """Galerkin projection of one vector field on the velocity modes."""
        return area * (Phi @ _flat(uv))

    B = area * (Phi @ np.array([_flat(vec_laplacian(grid, u, v)) for u, v in umodes]).T)
    K = np.zeros((n_u, n_p))
    for j in range(n_p):
        K[:, j] = proj(gradient(grid, Psi[j].reshape(grid.ny, grid.nx)))
    P = area * (Psi @ np.array([divergence(grid, u, v).ravel() for u, v in umodes]).T)
    d7 = area * (Psi @ divergence(grid, cu_u, cu_v).ravel())

    d1 = proj(vec_laplacian(grid, cu_u, cu_v))
    if include_convection:
        Ct = np.empty((n_u, n_u, n_u))
        for j, (au, av) in enumerate(umodes):
            for k, (bu, bv) in enumerate(umodes):
                Ct[:, j, k] = proj(convection(grid, au, av, bu, bv))
        d2 = np.column_stack([proj(convection(grid, u, v, cu_u, cu_v)) for u, v in umodes])
        d3 = np.column_stack([proj(convection(grid, cu_u, cu_v, u, v)) for u, v in umodes])
        d4 = proj(convection(grid, cu_u, cu_v, cu_u, cu_v))
    else:
        Ct, d2, d3, d4 = (np.zeros((n_u,) * r) for r in (3, 2, 2, 1))
    d6 = proj((cu_u, cu_v))
    unit = np.eye(len(lift.chi_p))
    d5 = np.array([proj(gradient(grid, chi.c, unit[k])) for k, chi in enumerate(lift.chi_p)])

    return ReducedOperators(B=B, Ct=Ct, K=K, P=P, d1=d1, d2=d2, d3=d3, d4=d4,
                            d5=d5, d6=d6, d7=d7, nu=float(nu))


def _outlet_array(p_d, n_times: int, n_outlets: int) -> np.ndarray:
    """The (T, n_outlets) outlet-pressure array, zeros for None."""
    if p_d is None:
        return np.zeros((n_times, n_outlets))
    q = np.asarray(p_d, dtype=np.float64)
    if q.shape != (n_times, n_outlets):
        raise ShapeError(f"p_d must have shape ({n_times}, {n_outlets}), got {q.shape}")
    return q


def integrate_rom(ops: ReducedOperators, a0: np.ndarray, times, waveform: Waveform,
                  p_d=None, b0=None) -> ReducedTrajectory:
    """Semi-implicit Euler integration of the reduced system on a uniform grid.

    ``p_d`` is the (T, n_outlets) array of outlet pressures at the times, or
    None for homogeneous outlet pressure.  The saddle matrix of the one step
    size is inverted once and all boundary forcing is mapped through that
    inverse before the loop, so a step is one outer product and one matvec.
    The pressure multiplier only exists from the first step onward; ``b0``
    seeds the reported initial value (backfilled from step one when omitted).
    The trajectory carries the saddle matrix's condition number as checked
    against SADDLE_COND_LIMIT.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ShapeError("need at least two time points")
    dt = (times[-1] - times[0]) / (times.size - 1)
    if not (dt > 0 and np.abs(np.diff(times) - dt).max() <= 1e-6 * dt):
        raise ShapeError("times must be increasing and uniformly spaced")
    a0 = np.asarray(a0, dtype=np.float64)
    if a0.shape != (ops.n_u,):
        raise ShapeError(f"a0 must have length {ops.n_u}")
    q = _outlet_array(p_d, times.size, ops.n_outlets)

    n_u, n_p = ops.n_u, ops.n_p
    M = np.block([[np.eye(n_u) / dt - ops.nu * ops.B, ops.K],
                  [ops.P, np.zeros((n_p, n_p))]])
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > SADDLE_COND_LIMIT:
        raise StabilityError(
            f"reduced saddle matrix is numerically singular "
            f"(cond ~ {cond:.2e}); enrich the velocity basis with "
            f"supremizer modes before integrating"
        )
    S = np.linalg.inv(M)

    # boundary forcing of step m -> m+1, mapped through S: lifting terms at
    # t_{m+1}, the explicit g^2 d4 convection term at t_m
    g = waveform.magnitude(times)
    forcing = np.hstack([
        (ops.nu * g[1:, None]) * ops.d1 - q[1:] @ ops.d5
        - waveform.magnitude_dot(times[1:])[:, None] * ops.d6 - (g[:-1, None] ** 2) * ops.d4,
        -g[1:, None] * ops.d7,
    ])
    sol = np.empty((times.size, n_u + n_p))
    sol[0, :n_u] = a0
    sol[1:] = forcing @ S.T

    # the rest of a step is one matvec on the rows of outer([1, g_m, a], a),
    # i.e. on [a; g_m a; a (x) a]: L = S[:, :n_u] [I/dt, -(d2 + d3), -Ct]
    L = S[:, :n_u] @ np.hstack([np.eye(n_u) / dt, -(ops.d2 + ops.d3),
                                -ops.Ct.reshape(n_u, n_u * n_u)])
    z = np.ones(n_u + 2)
    z[2:] = a0
    for m in range(times.size - 1):
        z[1] = g[m]
        sol[m + 1] += L @ np.outer(z, z[2:]).ravel()
        z[2:] = sol[m + 1, :n_u]
    if not np.all(np.isfinite(sol[1:])):
        raise NumericalError("reduced trajectory diverged")
    if b0 is None:
        sol[0, n_u:] = sol[1, n_u:]
    else:
        b0 = np.asarray(b0, dtype=np.float64)
        if b0.shape != (n_p,):
            raise ShapeError(f"b0 must have length {n_p}")
        sol[0, n_u:] = b0
    return ReducedTrajectory(times.copy(), sol[:, :n_u], sol[:, n_u:], saddle_cond=float(cond))


def reconstruct(basis_u: ReducedBasis, basis_p: ReducedBasis | None,
                traj: ReducedTrajectory, lift: LiftingPair, waveform: Waveform,
                p_d=None, nu: float = 0.0) -> SnapshotSet:
    """Full-field snapshots from reduced coefficients plus boundary lifting:
    one mode product per field and one rank-1 term per lifting field.
    ``p_d`` is the (T, n_outlets) outlet-pressure array at the trajectory
    times, or None for homogeneous outlet pressure."""
    grid = basis_u.grid
    if traj.a.shape[1] != basis_u.n_modes:
        raise ShapeError("trajectory width does not match velocity basis")
    if basis_p is not None and traj.b.shape[1] != basis_p.n_modes:
        raise ShapeError("trajectory width does not match pressure basis")

    vel = traj.a @ basis_u.modes.values + np.outer(waveform.magnitude(traj.times),
                                                    lift.chi_u.values)
    q = _outlet_array(p_d, traj.times.size, lift.n_outlets)
    pres = (traj.b @ basis_p.modes.values if basis_p is not None
            else np.zeros((traj.times.size, grid.n_scalar)))
    for k in range(lift.n_outlets):
        pres += np.outer(q[:, k], lift.chi_p[k].values)
    return SnapshotSet(traj.times.copy(), FieldRows(grid, "vector2", vel),
                       FieldRows(grid, "scalar", pres), nu=nu,
                       waveform=waveform.to_dict(), outlet_pressure=q)
