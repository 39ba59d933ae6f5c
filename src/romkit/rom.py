"""Reduced dynamical system: supremizers, operator assembly, time integration.

With velocity modes phi_i, pressure modes psi_i and lifting fields chi_u /
chi_p_k, substituting

    u = sum_i a_i phi_i + g(t) chi_u,      p = sum_i b_i psi_i + sum_k q_k(t) chi_p_k

into the momentum/continuity equations and projecting on the modes gives

    da/dt = nu (B a + g d1) - [a'Ct a + g (d2 + d3) a + g^2 d4]
            - K b - sum_k q_k d5_k - dg/dt d6,
    P a = -g d7,

with B, Ct, K, P the Galerkin compressions of the discrete Laplacian,
convection, gradient and divergence (the modes times the matrices the
full-order solver steps with), and d1..d7 the lifting couplings:

    d1 = (phi, Lap chi_u)            d2 = (phi_i, div(phi_j (x) chi_u))
    d3 = (phi_i, div(chi_u (x) phi_j))   d4 = (phi, div(chi_u (x) chi_u))
    d5_k = (phi, grad chi_p_k)       d6 = (phi, chi_u)
    d7 = (psi, div chi_u)

Time stepping is semi-implicit Euler: diffusion and the pressure coupling
are implicit (a saddle solve keeps P a^{n+1} exactly on the constraint),
convection and the lifting forcings explicit.  Supremizer modes -- one
vector-Laplacian solve for all pressure modes, by fast diagonalisation of
its u and v blocks -- make the saddle matrix invertible; without them the
constraint rows vanish on (divergence-free) velocity modes and prepare_step
reports the singularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError, StabilityError
from .fom import Waveform
from .grid import FieldRows, Grid, SnapshotSet, load_arrays, read_file, save_arrays
# snapshot_matrix stays importable here for perfbench/spans.py, which wraps it
from .grid import snapshot_matrix  # noqa: F401
from .lifting import LiftingPair, _outlet_array
from .operators import (KronSumSolver, convection_matrices, divergence_matrix, flat_faces,
                        gradient, gradient_matrix, vec_laplacian_matrix)
# unused: perfbench/spans.py traces them here
from .operators import cg, convection, divergence, vec_laplacian  # noqa: F401
from .pod import ReducedBasis, _mgs

SADDLE_COND_LIMIT = 1e12
SUPREMIZER_RTOL = 1e-10


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
        n, n_p = self.K.shape
        for name, shape in (("B", (n, n)), ("Ct", (n, n, n)), ("P", (n_p, n)), ("d1", (n,)),
                            ("d2", (n, n)), ("d3", (n, n)), ("d4", (n,)),
                            ("d5", self.d5.shape[:1] + (n,)), ("d6", (n,)), ("d7", (n_p,))):
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} has shape {getattr(self, name).shape}, not {shape} "
                                 f"as K's {self.K.shape} implies")

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
        u = np.asarray(u_idx, dtype=int)
        uu = np.ix_(u, u)
        return ReducedOperators(B=self.B[uu], Ct=self.Ct[np.ix_(u, u, u)], K=self.K[u, :n_p],
                                P=self.P[:n_p, u], d1=self.d1[u], d2=self.d2[uu], d3=self.d3[uu],
                                d4=self.d4[u], d5=self.d5[:, u], d6=self.d6[u], d7=self.d7[:n_p],
                                nu=self.nu)

    # -- persistence: nu in meta.json, one array file per tensor
    def save(self, directory) -> None:
        arrays = {name: a for name, a in vars(self).items() if name != "nu"}
        save_arrays(directory, "romkit-operators-2", {"nu": float(self.nu)}, arrays)

    @classmethod
    def load(cls, directory, read=read_file) -> "ReducedOperators":
        meta, arrays = load_arrays(directory, "romkit-operators-2", read)
        return cls(nu=meta["nu"], **arrays)


@dataclass(eq=False)
class ReducedTrajectory:
    times: np.ndarray
    a: np.ndarray          # (T, Nu)
    b: np.ndarray          # (T, Np)

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


def supremizer_enrich(basis_u: ReducedBasis, basis_p: ReducedBasis | None,
                      grid: Grid) -> ReducedBasis:
    """Append one elliptic supremizer per pressure mode and re-orthonormalize.

    Each s_j solves  -Lap s_j = -grad psi_j  with homogeneous velocity
    boundary closures, giving the constraint matrix P a strictly positive
    smallest singular value on the enriched basis.  The grid's Laplacian
    matrix on the advanced faces has no coupling between its u and its v
    block, and each block is a Kronecker sum on its own rectangle of faces:
    one KronSumSolver per block solves for all j, each checked on the whole
    matrix to relative residual SUPREMIZER_RTOL.
    """
    if basis_p is None or basis_p.n_modes == 0:
        return basis_u
    if basis_u.grid != grid or basis_p.grid != grid:
        raise ShapeError("bases must live on the provided grid")

    # the unknowns are the advanced faces, in the flat (u block, v block) layout
    unknown = np.flatnonzero(flat_faces(grid.advanced_masks))
    A = -vec_laplacian_matrix(grid)[unknown][:, unknown]
    Psi = basis_p.modes.values.reshape(-1, grid.ny, grid.nx)
    rhs = -flat_faces(gradient(grid, Psi))[:, unknown].T
    x = np.empty_like(rhs)
    start = 0
    for mask in grid.advanced_masks:   # the u and the v block, each its own rectangle
        block = slice(start, start + np.count_nonzero(mask))
        shape = (np.count_nonzero(mask.any(axis=1)), np.count_nonzero(mask.any(axis=0)))
        x[block] = KronSumSolver(A[block, block], shape).solve(rhs[block])
        start = block.stop
    res = np.linalg.norm(rhs - A @ x, axis=0) / np.linalg.norm(rhs, axis=0)
    if not np.all(res <= SUPREMIZER_RTOL):   # a nan residual fails too
        j = int(np.argmin(res <= SUPREMIZER_RTOL))
        raise NumericalError(f"supremizer solve for pressure mode {j} failed: relative "
                             f"residual {res[j]:.3e} above {SUPREMIZER_RTOL:.0e}")
    sup = np.zeros((basis_p.n_modes, grid.n_vector))
    sup[:, unknown] = x.T

    # _mgs leaves the rows before `start` (the velocity modes) untouched
    ortho = _mgs(np.vstack([basis_u.modes.values, sup]), grid.cell_area,
                 start=basis_u.n_modes)
    return ReducedBasis(FieldRows(grid, "vector2", ortho), basis_u.eigenvalues,
                        "velocity+supremizer", basis_u.M,
                        n_supremizer=basis_u.n_supremizer + sup.shape[0])


def assemble_operators(basis_u: ReducedBasis, basis_p: ReducedBasis | None,
                       lift: LiftingPair, nu: float, grid: Grid,
                       include_convection: bool = True) -> ReducedOperators:
    """Galerkin-compress the full-order step's matrices over the given bases.

    Over X = [Phi', chi_u], Phi L X holds B and d1, Psi Div X holds P and d7,
    and Phi Grad [Psi' chi_p'; 0 I] holds K and d5.  With (S, D) the
    convection matrices, convection(a, b) = D_u ((S_a a) * (S_b b)) + D_v
    ((S_a b) * (S_b a)) for the halves S_a, S_b of S and the u and v rows
    D_u, D_v of D (D's node flux serves the u rows as a_v b_u and the v rows
    as a_u b_v), so the flux products of all column pairs of X hold Ct, d2,
    d3 and d4.  ``include_convection`` is the full-order model's: without
    it (a Stokes run) those four are left zero, uncomputed.
    """
    grids = [basis_u.grid, lift.chi_u.grid] + ([basis_p.grid] if basis_p is not None else [])
    if any(g != grid for g in grids):
        raise ShapeError("bases and lifting must live on the provided grid")

    area, Phi = grid.cell_area, basis_u.modes.values
    Psi = basis_p.modes.values if basis_p is not None else np.zeros((0, grid.n_scalar))
    (n, n_p), n_out = (Phi.shape[0], Psi.shape[0]), lift.n_outlets
    chi_u = lift.chi_u.values[0]
    X = np.column_stack([Phi.T, chi_u])
    Y = np.block([[Psi.T, lift.chi_p.values.T], [np.zeros((n_out, n_p)), np.eye(n_out)]])
    LX = area * (Phi @ (vec_laplacian_matrix(grid) @ X))
    DX = area * (Psi @ (divergence_matrix(grid) @ X))
    GY = area * (Phi @ (gradient_matrix(grid) @ Y))
    T = np.zeros((2, n, n + 1, n + 1))       # T[:, i, j, k]: the u and the v rows' parts
    if include_convection:
        S, D = convection_matrices(grid)
        A, Bs = np.split(S @ X, 2)              # S_a X, S_b X
        G, nf = area * Phi, grid.n_u            # the projection, the u faces
        block = max(1, 2**16 // A.size)
        for j in range(0, n + 1, block):        # D (S_a X_j * S_b X_k), j in the block
            div = D @ (A[:, j:j + block, None] * Bs[:, None, :]).reshape(A.shape[0], -1)
            T[0, :, j:j + block] = (G[:, :nf] @ div[:nf]).reshape(n, -1, n + 1)
            T[1, :, j:j + block] = (G[:, nf:] @ div[nf:]).reshape(n, -1, n + 1)
    T = T[0] + T[1].transpose(0, 2, 1)       # the v rows take the products of (k, j)
    return ReducedOperators(B=LX[:, :n], Ct=T[:, :n, :n], K=GY[:, :n_p], P=DX[:, :n],
                            d1=LX[:, n], d2=T[:, :n, n], d3=T[:, n, :n], d4=T[:, n, n],
                            d5=GY[:, n_p:].T, d6=area * (chi_u @ Phi.T),
                            d7=DX[:, n], nu=float(nu))


@dataclass(frozen=True, eq=False)
class ReducedStep:
    """The trajectory-independent part of a semi-implicit step of size ``dt``.

    With S the inverse of the saddle matrix [[I/dt - nu B, K], [P, 0]], step
    m -> m+1 is [a_{m+1}; b_{m+1}] = S times the explicit right-hand side.
    That is linear in the boundary data s_m = [g_{m+1}, q_{m+1}, dg/dt_{m+1},
    g_m^2] through ``forcing`` and bilinear in z_m = [1, g_m, a_m] and a_m
    through ``quad``: row k (n_u + n_p) + i, column j of ``quad`` is the
    coefficient of z_k a_j in entry i of [a_{m+1}; b_{m+1}].  ``ops`` is the
    operator set it was prepared from, the one integrate_rom integrates.
    """

    ops: ReducedOperators = field(repr=False)
    dt: float
    cond: float            # 2-norm condition number of the saddle matrix
    forcing: np.ndarray    # (n_u + n_p, n_outlets + 3)
    quad: np.ndarray       # ((n_u + 2)(n_u + n_p), n_u), Fortran order


def prepare_step(ops: ReducedOperators, dt: float) -> ReducedStep:
    """Check, invert and fold the saddle matrix of step size ``dt``.

    Raises StabilityError when the saddle matrix is numerically singular
    (condition number above SADDLE_COND_LIMIT), as it is on a velocity
    basis without supremizers.
    """
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
    # one right-hand-side column per entry of s_m: the lifting terms at
    # t_{m+1}, the explicit g^2 d4 convection term at t_m
    boundary = np.zeros((n_u + n_p, ops.n_outlets + 3))
    boundary[:n_u] = np.column_stack([ops.nu * ops.d1, -ops.d5.T, -ops.d6, -ops.d4])
    boundary[n_u:, 0] = -ops.d7
    # the rest of the right-hand side, on the entries of outer([1, g_m, a_m], a_m)
    L = S[:, :n_u] @ np.hstack([np.eye(n_u) / dt, -(ops.d2 + ops.d3),
                                -ops.Ct.reshape(n_u, n_u * n_u)])
    # in Fortran order the matvec with a_m adds up n_u long columns instead of
    # taking (n_u + 2)(n_u + n_p) short dot products: about 15% off a step
    quad = L.reshape(n_u + n_p, n_u + 2, n_u).transpose(1, 0, 2).reshape(-1, n_u)
    return ReducedStep(ops=ops, dt=float(dt), cond=float(cond), forcing=S @ boundary,
                       quad=np.asfortranarray(quad))


def integrate_rom(step: ReducedStep, a0: np.ndarray, times, waveform: Waveform,
                  p_d=None, b0=None) -> ReducedTrajectory:
    """Semi-implicit Euler integration of ``step.ops`` on a uniform time grid.

    ``step`` is prepare_step of the operators at the times' spacing (to
    rounding); prepared once, it serves any number of calls.  prepare_step,
    not this function, checks the saddle matrix (StabilityError) and reports
    its condition number.  ``p_d`` is the (T, n_outlets) array of outlet
    pressures at the times, or None for homogeneous outlet pressure.
    Row m of one trajectory array holds [s_m, 1, g_m, a_m, b_m], the boundary
    data s_m of step m -> m+1 filled in before the loop, so a step is two
    matvecs: ``quad`` times a_m gives the a_m-dependent rows of a buffer whose
    other rows are ``forcing``, and the buffer times the head [s_m, 1, g_m,
    a_m] of row m is the tail [a_{m+1}, b_{m+1}] of row m + 1.
    The pressure multiplier only exists from the first step onward; ``b0``
    seeds the reported initial value (backfilled from step one when omitted).
    """
    ops = step.ops
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
    n_u, n_p, n_s = ops.n_u, ops.n_p, ops.n_outlets + 3
    if not abs(step.dt - dt) <= 1e-12 * dt:   # rounding only
        raise ShapeError(f"the prepared step (dt {step.dt!r}) does not match the "
                         f"times' step {dt!r}")

    g = waveform.magnitude(times)
    sol = np.empty((times.size, n_s + n_u + n_p + 2))
    sol[:-1, 0] = g[1:]
    sol[:-1, 1:n_s - 2] = q[1:]
    sol[:-1, n_s - 2] = waveform.magnitude_dot(times[1:])
    np.square(g[:-1], out=sol[:-1, n_s - 1])
    sol[:, n_s] = 1.0
    sol[:, n_s + 1] = g
    sol[0, n_s + 2:n_s + 2 + n_u] = a0

    buf = np.empty((n_s + n_u + 2, n_u + n_p))
    buf[:n_s] = step.forcing.T
    # the bound dot methods skip np.dot's dispatch: about a fifth off a step
    quad_rows, buf_dot, quad_dot = buf[n_s:].reshape(-1), buf.T.dot, step.quad.dot
    head, a_row, tail = sol[:-1, :n_s + n_u + 2], sol[:-1, n_s + 2:n_s + n_u + 2], sol[1:, n_s + 2:]
    for h_m, a_m, row in zip(head, a_row, tail):   # views of rows m and m + 1
        quad_dot(a_m, out=quad_rows)
        buf_dot(h_m, out=row)
    a, b = sol[:, n_s + 2:n_s + n_u + 2], sol[:, n_s + n_u + 2:]
    if not np.all(np.isfinite(sol[1:, n_s + 2:])):
        raise NumericalError("reduced trajectory diverged")
    if b0 is None:
        b[0] = b[1]
    else:
        b0 = np.asarray(b0, dtype=np.float64)
        if b0.shape != (n_p,):
            raise ShapeError(f"b0 must have length {n_p}")
        b[0] = b0
    return ReducedTrajectory(times.copy(), a, b)


def reconstruct(basis_u: ReducedBasis, basis_p: ReducedBasis | None,
                traj: ReducedTrajectory, lift: LiftingPair, waveform: Waveform,
                p_d=None, nu: float = 0.0) -> SnapshotSet:
    """Full-field snapshots from reduced coefficients plus boundary lifting:
    one mode product per field, a rank-1 term for chi_u and one product of
    the outlet pressures with the stacked chi_p.
    ``p_d`` is the (T, n_outlets) outlet-pressure array at the trajectory
    times, or None for homogeneous outlet pressure."""
    grid = basis_u.grid
    if traj.a.shape[1] != basis_u.n_modes:
        raise ShapeError("trajectory width does not match velocity basis")
    if basis_p is not None and traj.b.shape[1] != basis_p.n_modes:
        raise ShapeError("trajectory width does not match pressure basis")

    vel = traj.a @ basis_u.modes.values + np.outer(waveform.magnitude(traj.times),
                                                    lift.chi_u.values[0])
    q = _outlet_array(p_d, traj.times.size, lift.n_outlets)
    pres = np.einsum("tk,kn->tn", q, lift.chi_p.values)   # as in lifting._shift
    if basis_p is not None:
        pres += traj.b @ basis_p.modes.values
    return SnapshotSet(traj.times.copy(), FieldRows(grid, "vector2", vel),
                       FieldRows(grid, "scalar", pres), nu=nu,
                       waveform=waveform.to_dict(), outlet_pressure=q)
