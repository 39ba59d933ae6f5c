"""Desk-scale full-order model: 2D incompressible flow on a MAC grid.

One time step advances the state with a first-order pressure-projection
split, the structured-grid counterpart of segregated pressure-velocity
coupling:

  1. predictor   u* = u + dt (nu Lap(u) - div(u (x) u))          (explicit)
  2. boundary    inlet faces get the pulsatile Dirichlet profile at t+dt,
                 wall faces stay zero, outlet faces stay predicted (the
                 faces are the grid's fixed_masks, the profile set_inward's)
  3. Windkessel  each outlet integrates its RCR state with the outward flux
                 of the current velocity (grid.normal_flux); the resulting
                 downstream pressure is the Dirichlet datum of the Poisson solve
  4. pressure    div(grad(p)) = div(u*)/dt, a direct solve by fast
                 diagonalisation of the Poisson matrix, a Kronecker sum of
                 two 1-D factors diagonalised once, checked to relative
                 residual 1e-10
  5. corrector   u = u* - dt grad(p)

A step works on the flat (u block, v block) vector w of the state, and each
linear map of the step is a scaled copy of a sparse matrix that operators.py
reads off its stencil once per grid:

  predictor   u* = [I + dt nu L, -dt D] [w; (S_a w) * (S_b w)], with
              self-advection div(w (x) w) = D ((S_a w) * (S_b w)) the flux
              divergence D of products of two face-mean maps
  pressure    rhs = bc(q) - (Div/dt) u*
  corrector   u = u* - (dt Grad) [p; q], the outlet data q as extra columns

Each product is one call of scipy's compiled csr_matvec on the matrix's CSR
arrays, into a work array that the solver allocates once: no `@` dispatch and
no new output per product.  The loop sums each row's terms in the order that
M @ x does, so a step has the bits of the same step written with `@`.  The
predictor takes two calls.  One matrix, each face mean of S_a and S_b once
stacked on I + dt nu L, gives the face means and the linear part; -dt D
then adds the flux terms to each row after its linear ones, as
[I + dt nu L, -dt D] sums a row.

ROM assembly projects the same matrices, so the reduced model is
operator-consistent with this solver.  The post-correction divergence check
applies the divergence stencil itself.  With convection on, a state at
convective CFL 1 or more is not advanced.  The outlet pressure datum applied
at each step is recorded next to the snapshots: that series is what the
outflow-pressure network trains on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .grid import SIDE_INDEX, FieldRows, Grid, SnapshotSet, normal_flux, set_inward
from .operators import (KronSumSolver, center_laplacian, convection_matrices, divergence,
                        divergence_matrix, flat_faces, gradient_matrix, vec_laplacian_matrix)
# unused: perfbench/spans.py traces them here
from .operators import cg, convection, gradient, vec_laplacian  # noqa: F401
from .windkessel import WindkesselParams, WindkesselState, wk_step

POISSON_RTOL = 1e-10
DIV_TOL_FACTOR = 1e-8


@dataclass(frozen=True)
class Waveform:
    """Synthetic pulsatile inlet: u_D(t) = u_sys sin(pi s/(alpha T_c)) during
    systole (s = t mod T_c < alpha T_c), zero in diastole.  kind="constant"
    holds u_sys for all t."""

    kind: str = "pulse"
    u_sys: float = 7.4e-4
    t_cycle: float = 0.6
    systole_frac: float = 0.4
    shape: str = "plug"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u_sys, self.t_cycle, self.systole_frac))):
            raise ConfigurationError(f"waveform values must be finite: {self}")
        if self.kind not in ("pulse", "constant"):
            raise ConfigurationError(f"unknown waveform kind {self.kind!r}")
        if self.shape not in ("plug", "parabola"):
            raise ConfigurationError(f"unknown inlet shape {self.shape!r}")
        if self.kind == "pulse" and (self.t_cycle <= 0 or not 0 < self.systole_frac <= 1):
            raise ConfigurationError("pulse waveform needs t_cycle > 0 and 0 < systole_frac <= 1")

    def magnitude(self, t):
        """u_D(t): a float for a scalar t, an array of t's shape otherwise."""
        if self.kind == "constant":
            return np.full(np.shape(t), self.u_sys) if np.ndim(t) else self.u_sys
        t_sys = self.systole_frac * self.t_cycle
        if isinstance(t, float):   # the FOM's call each step: the same operations on a float
            s = t % self.t_cycle
            return float(self.u_sys * np.sin(np.pi * s / t_sys)) if s < t_sys else 0.0
        s = np.mod(t, self.t_cycle)
        out = np.where(s < t_sys, self.u_sys * np.sin(np.pi * s / t_sys), 0.0)
        return out if np.ndim(t) else float(out)

    def magnitude_dot(self, t):
        """Analytic du_D/dt (used by the reduced model's lifting forcing),
        shaped like magnitude(t)."""
        if self.kind == "constant":
            return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
        s = np.mod(t, self.t_cycle)
        t_sys = self.systole_frac * self.t_cycle
        out = np.where(s < t_sys, self.u_sys * np.pi / t_sys * np.cos(np.pi * s / t_sys), 0.0)
        return out if np.ndim(t) else float(out)

    def profile(self, grid: Grid) -> np.ndarray:
        """Spatial inlet shape over the inlet faces, normalized to mean 1."""
        n = np.zeros((grid.ny, grid.nx))[SIDE_INDEX[grid.inlet_side]].size  # inlet faces
        if self.shape == "plug":
            return np.ones(n)
        xi = (np.arange(n) + 0.5) / n
        prof = 6.0 * xi * (1.0 - xi)
        return prof / prof.mean()  # discrete mean exactly 1 so flux = u_D * area

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "u_sys": self.u_sys,
            "t_cycle": self.t_cycle,
            "systole_frac": self.systole_frac,
            "shape": self.shape,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Waveform":
        return cls(**d)


@dataclass(frozen=True)
class FomConfig:
    grid: Grid
    nu: float
    dt: float
    t0: float
    t_end: float
    waveform: Waveform
    windkessel: dict
    snap_stride: int | None = 1
    snap_start: float | None = None
    include_convection: bool = True

    def __post_init__(self):
        if not 0 < self.nu < math.inf:
            raise ConfigurationError(f"nu must be positive and finite, got {self.nu}")
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if not -math.inf < self.t0 < self.t_end < math.inf:
            raise ConfigurationError(f"need finite t0 < t_end, got [{self.t0}, {self.t_end}]")
        g = self.grid
        h_min = min(g.hx, g.hy)
        cfl = self.waveform.u_sys * self.dt / h_min
        if cfl >= 1.0:
            raise ConfigurationError(f"convective CFL {cfl:.3g} >= 1 at the waveform peak")
        dt_diff = 1.0 / (3.0 * self.nu * (1.0 / g.hx**2 + 1.0 / g.hy**2))
        if self.dt > dt_diff:
            raise ConfigurationError(
                f"dt={self.dt} exceeds the explicit diffusion limit {dt_diff:.3g}"
            )
        want = {k for k, _ in g.outlets}
        have = set(self.windkessel)
        if want != have:
            raise ConfigurationError(f"windkessel params for outlets {sorted(have)}, grid has {sorted(want)}")
        for k, p in self.windkessel.items():
            if not isinstance(p, WindkesselParams):
                raise ConfigurationError(f"outlet {k}: expected WindkesselParams")
            if self.dt >= p.tau:
                raise ConfigurationError(f"outlet {k}: dt >= Rd*C = {p.tau:.3g} (unstable Windkessel step)")
        if self.snap_stride is not None and self.snap_stride < 1:
            raise ConfigurationError("snap_stride must be >= 1 (or None for a single snapshot)")
        if self.snap_start is not None and not (self.t0 <= self.snap_start <= self.t_end):
            raise ConfigurationError("snap_start must lie in [t0, t_end]")


@dataclass
class FomState:
    grid: Grid
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    wk: tuple                       # WindkesselState per outlet, grid.outlets order
    t: float
    poisson_residual: float = 0.0   # true relative residual ||rhs - A p|| / ||rhs|| of the
                                    # Poisson solve of the step that produced this state
    div_max: float = 0.0            # max |div u| after its pressure correction
    outlet_flux: tuple = ()         # outward flux Q per outlet (grid.outlets order)
                                    # that its Windkessel integrated in that step


def _csr_args(matrix) -> tuple:
    """(rows, columns, indptr, indices, data) of a sparse matrix's CSR form, the
    leading arguments of scipy's compiled csr_matvec."""
    matrix = matrix.tocsr()
    return (*matrix.shape, matrix.indptr, matrix.indices, matrix.data)


class FomSolver:
    """Holds the step's matrices as CSR arrays and the work arrays that their
    products write into, diagonalises the Poisson matrix once and advances
    FOM states.  The work arrays are reused by every step, so a solver
    advances one state at a time; each state it returns owns its arrays."""

    def __init__(self, cfg: FomConfig):
        from scipy.sparse import identity, vstack
        from scipy.sparse._sparsetools import csr_matvec

        self.cfg = cfg
        g = self.grid = cfg.grid
        dt = cfg.dt
        outlet_sides = frozenset(side for _, side in g.outlets)
        A, self._bc = center_laplacian(g, outlet_sides)
        self._poisson = KronSumSolver(A, (g.ny, g.nx))
        self._matvec = csr_matvec
        # the step's maps on the flat (u block, v block) layout, scaled copies
        # of the grid's matrices, each kept as csr_matvec's arguments
        step = (identity(g.n_vector) + (dt * cfg.nu) * vec_laplacian_matrix(g)).tocsr()
        n_means = 0
        if cfg.include_convection:
            # each face mean once (convection_matrices' M), stacked on the step
            means, pairs, flux_div = convection_matrices(g)
            step = vstack([means.tocsr(), step], format="csr")   # all CSR: no COO detour
            n_means = means.shape[0]
            self._flux_div = _csr_args(-dt * flux_div)
        self._step = _csr_args(step)
        self._div_dt = _csr_args(divergence_matrix(g) / dt)
        self._dt_grad = _csr_args(dt * gradient_matrix(g))      # on [p, q]
        self._A = _csr_args(A)     # csc_matvec would run at half the speed

        # work arrays: the step's [face means, predictor], the fluxes and the
        # outputs of the other products
        self._y = np.empty(n_means + g.n_vector)
        self._ws = self._y[n_means:]
        if cfg.include_convection:
            # the fluxes, one block per pair of face means, in D's column order
            m = self._y
            self._f = np.empty(flux_div.shape[1])
            blocks = np.split(self._f, np.cumsum([a.stop - a.start for a, _ in pairs])[:-1])
            self._products = tuple((m[a], m[b], f) for (a, b), f in zip(pairs, blocks))
        self._cells = np.empty(g.n_scalar)
        self._pq = np.empty(g.n_scalar + len(g.outlets))
        self._faces = np.empty(g.n_vector)

        # the faces that hold boundary data (the grid's fixed_masks) and their
        # data at unit inflow: the inward profile on the inlet, zero on walls
        self._fixed = np.flatnonzero(flat_faces(g.fixed_masks))
        u, v = np.zeros((g.ny, g.nx + 1)), np.zeros((g.ny + 1, g.nx))
        set_inward(u, v, g.inlet_side, cfg.waveform.profile(g))
        self._fixed_data = flat_faces((u, v))[self._fixed]

    def _product(self, matrix: tuple, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = M x for a CSR matrix's arguments, by the compiled loop that M @ x
        runs into zeros, so with M @ x's bits."""
        out.fill(0.0)
        self._matvec(*matrix, x, out)
        return out

    def _predict(self, w: np.ndarray) -> np.ndarray:
        """u* = w + dt (nu Lap(w) - div(w (x) w)) into the solver's work array.
        One product gives the unique face means and (I + dt nu L) w; -dt D then
        adds the flux products' terms to each row after its linear ones, the
        order in which [I + dt nu L, -dt D] [w; fluxes] sums a row."""
        self._product(self._step, w, self._y)
        if self.cfg.include_convection:
            for a, b, out in self._products:
                np.multiply(a, b, out=out)
            self._matvec(*self._flux_div, self._f, self._ws)
        return self._ws

    def initial_state(self) -> FomState:
        g = self.grid
        return FomState(
            grid=g,
            u=np.zeros((g.ny, g.nx + 1)),
            v=np.zeros((g.ny + 1, g.nx)),
            p=np.zeros((g.ny, g.nx)),
            wk=tuple(WindkesselState(t=self.cfg.t0) for _ in g.outlets),
            t=self.cfg.t0,
        )

    def advance(self, state: FomState) -> FomState:
        cfg, g = self.cfg, self.grid
        dt = cfg.dt
        t_new = state.t + dt
        w = flat_faces((state.u, state.v))

        if cfg.include_convection:
            # the explicit convection of this state is stable only below CFL 1
            speed = np.abs(w)
            cfl = dt * max(speed[:g.n_u].max() / g.hx, speed[g.n_u:].max() / g.hy)
            if not cfl < 1.0:  # also catches nan
                raise NumericalError(
                    f"convective CFL {cfl:.3g} >= 1 in the state of step "
                    f"{round((state.t - cfg.t0) / dt)} (t = {state.t:.6g}): the explicit "
                    f"step would be unstable")

        # predictor w + dt (nu Lap(w) - div(w (x) w)), then the boundary data
        ws = self._predict(w)
        ws[self._fixed] = cfg.waveform.magnitude(t_new) * self._fixed_data

        fluxes = [normal_flux(g, state.u, state.v, side) for _, side in g.outlets]
        wk_new = [wk_step(wk, flux, dt, cfg.windkessel[k])
                  for (k, _), wk, flux in zip(g.outlets, state.wk, fluxes)]
        q = np.array([wk.p for wk in wk_new])

        rhs = self._bc(q)
        rhs -= self._product(self._div_dt, ws, self._cells)
        p_flat = self._poisson.solve(rhs)
        r = np.subtract(rhs, self._product(self._A, p_flat, self._cells), out=self._cells)
        rhs_norm = math.sqrt(rhs.dot(rhs))     # both norms as np.linalg.norm takes them
        res = math.sqrt(r.dot(r)) / rhs_norm if rhs_norm > 0 else 0.0
        if not res <= POISSON_RTOL:  # also catches nan
            raise NumericalError(
                f"pressure Poisson solve failed its residual check (relative residual "
                f"{res:.3e}, tolerance {POISSON_RTOL:.0e})"
            )

        # corrector ws - dt grad(p, q)
        pq = self._pq
        pq[:g.n_scalar], pq[g.n_scalar:] = p_flat, q
        w_new = ws - self._product(self._dt_grad, pq, self._faces)
        u_new = w_new[:g.n_u].reshape(g.ny, g.nx + 1)
        v_new = w_new[g.n_u:].reshape(g.ny + 1, g.nx)

        u_ref = max(cfg.waveform.u_sys, np.abs(w_new).max())
        div_inf = np.abs(divergence(g, u_new, v_new)).max()
        if div_inf > DIV_TOL_FACTOR * u_ref / min(g.hx, g.hy):
            raise NumericalError(
                f"post-correction divergence {div_inf:.3e} exceeds tolerance "
                f"{DIV_TOL_FACTOR * u_ref / min(g.hx, g.hy):.3e}"
            )

        return FomState(grid=g, u=u_new, v=v_new, p=p_flat.reshape(g.ny, g.nx),
                        wk=tuple(wk_new), t=t_new, poisson_residual=res,
                        div_max=float(div_inf), outlet_flux=tuple(fluxes))

    def run(self) -> "FomResult":
        cfg, g = self.cfg, self.grid
        n_steps = int(np.floor((cfg.t_end - cfg.t0) / cfg.dt + 1e-9))
        snap_start = cfg.t0 if cfg.snap_start is None else cfg.snap_start
        i_start = int(np.ceil((snap_start - cfg.t0) / cfg.dt - 1e-9))
        stride = cfg.snap_stride

        recorded = list(range(i_start, n_steps + 1, stride or n_steps + 1))  # None: i_start only
        row = {i: m for m, i in enumerate(recorded)}
        vels = np.empty((len(row), g.n_vector))
        pres = np.empty((len(row), g.n_scalar))
        times_full, pouts_full = [], []
        poisson_res = np.zeros(n_steps)
        div_max = np.zeros(n_steps)
        outlet_flux = np.zeros((n_steps, len(g.outlets)))

        def record(i: int, state: FomState):
            times_full.append(state.t)
            pouts_full.append([wk.p for wk in state.wk])
            if i in row:
                vels[row[i]] = flat_faces((state.u, state.v))
                pres[row[i]] = state.p.ravel()

        t_wall = time.perf_counter()
        state = self.initial_state()
        record(0, state)
        cycle_ref = None
        t_ref = cfg.t_end - cfg.waveform.t_cycle if cfg.waveform.kind == "pulse" else None
        for i in range(1, n_steps + 1):
            state = self.advance(state)
            record(i, state)
            poisson_res[i - 1] = state.poisson_residual
            div_max[i - 1], outlet_flux[i - 1] = state.div_max, state.outlet_flux
            if t_ref is not None and cycle_ref is None and state.t >= t_ref - 1e-12:
                cycle_ref = (state.u.copy(), state.v.copy())
        t_wall = time.perf_counter() - t_wall

        drift = None
        if cycle_ref is not None and cfg.t_end - cfg.t0 >= 2 * cfg.waveform.t_cycle - 1e-12:
            ref = flat_faces((state.u, state.v))
            du = ref - flat_faces(cycle_ref)
            denom = np.linalg.norm(ref) * np.sqrt(g.cell_area)
            drift = float(np.linalg.norm(du) * np.sqrt(g.cell_area) / max(denom, 1e-300))

        step_times, step_pouts = np.array(times_full), np.array(pouts_full)
        snaps = SnapshotSet(step_times[recorded], FieldRows(g, "vector2", vels),
                            FieldRows(g, "scalar", pres), nu=cfg.nu,
                            waveform=cfg.waveform.to_dict(),
                            outlet_pressure=step_pouts[recorded])
        return FomResult(snapshots=snaps, wall_time=t_wall, cycle_drift=drift, n_steps=n_steps,
                         step_times=step_times, step_outlet_pressure=step_pouts,
                         poisson_residual=poisson_res,
                         div_max=div_max, outlet_flux=outlet_flux)


@dataclass
class FomResult:
    snapshots: SnapshotSet             # outlet_pressure: the datum per snapshot time
    wall_time: float
    cycle_drift: float | None
    n_steps: int
    step_times: np.ndarray | None = None            # every step, for fine queries
    step_outlet_pressure: np.ndarray | None = None
    poisson_residual: np.ndarray | None = None      # per step 1..n_steps: the Poisson solve's
                                                    # relative residual ||rhs - A p||/||rhs||,
    div_max: np.ndarray | None = None               # max |div u| after the correction
    outlet_flux: np.ndarray | None = None           # and (n_steps, n_outlets) Windkessel inflow Q


def fom_run(cfg: FomConfig) -> FomResult:
    """Run the configured simulation and collect snapshots at the stride."""
    return FomSolver(cfg).run()
