import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import hstack, identity
from scipy.sparse.linalg import splu

from romkit import fom, lifting
from romkit.errors import ConfigurationError, NumericalError
from romkit.fom import FomConfig, FomSolver, Waveform, fom_run
from romkit.grid import SIDE_INDEX, Grid, normal_faces, normal_flux, set_inward
from romkit.lifting import compute_lifting
from romkit.operators import (center_laplacian, convection, convection_matrices, divergence,
                              divergence_matrix, flat_faces, gradient, gradient_matrix,
                              vec_laplacian, vec_laplacian_matrix)
from romkit.windkessel import WindkesselParams, wk_step

from conftest import CHANNEL_TAGS, face_arrays, layouts, wrapped_solver


def channel_cfg(nx=16, ny=8, lx=2.0, ly=0.5, nu=5e-3, dt=0.01, t_end=0.1,
                waveform=None, stride=1, snap_start=None, convection=True):
    grid = Grid(nx, ny, lx, ly, CHANNEL_TAGS)
    wf = waveform or Waveform(kind="pulse", u_sys=0.01, t_cycle=0.6, systole_frac=0.4)
    wk = {0: WindkesselParams(Rp=1.0, Rd=10.0, C=0.1)}
    return FomConfig(grid=grid, nu=nu, dt=dt, t0=0.0, t_end=t_end, waveform=wf,
                     windkessel=wk, snap_stride=stride, snap_start=snap_start,
                     include_convection=convection)


class TestWaveform:
    def test_zero_at_cycle_start(self):
        wf = Waveform(u_sys=0.3, t_cycle=0.6, systole_frac=0.4)
        assert wf.magnitude(0.0) == 0.0

    def test_peak_at_half_systole(self):
        wf = Waveform(u_sys=0.3, t_cycle=0.6, systole_frac=0.4)
        assert wf.magnitude(0.5 * 0.4 * 0.6) == pytest.approx(0.3, rel=1e-14)

    def test_zero_in_diastole(self):
        wf = Waveform(u_sys=0.3, t_cycle=0.6, systole_frac=0.4)
        assert wf.magnitude(0.5) == 0.0

    def test_periodic(self):
        wf = Waveform(u_sys=0.3, t_cycle=0.6, systole_frac=0.4)
        for t in (0.05, 0.11, 0.2, 0.55):
            assert wf.magnitude(t + 0.6) == pytest.approx(wf.magnitude(t), abs=2e-15)

    def test_nonnegative_and_derivative_consistent(self):
        wf = Waveform(u_sys=0.3, t_cycle=0.6, systole_frac=0.4)
        ts = np.linspace(0, 1.2, 241)
        vals = [wf.magnitude(t) for t in ts]
        assert min(vals) >= 0.0
        h = 1e-7
        for t in (0.03, 0.1, 0.21, 0.5):
            fd = (wf.magnitude(t + h) - wf.magnitude(t - h)) / (2 * h)
            assert wf.magnitude_dot(t) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("kind", ["pulse", "constant"])
    def test_scalar_path_matches_array_path(self, kind):
        """magnitude(t) of a float t, the FOM's call each step, has the bits
        of the array path's element and of a 0-d array's value: at 0, at the
        end of systole and at multiples of t_cycle (and either side of both),
        at negative t and at 1000 random t."""
        wf = Waveform(kind=kind, u_sys=8.0, t_cycle=0.6, systole_frac=0.4)
        k = np.arange(-3, 8)
        edges = np.concatenate([k * 0.6, 0.24 + k * 0.6])
        ts = np.concatenate([[0.0, -0.0, 0.24], edges, np.nextafter(edges, -np.inf),
                             np.nextafter(edges, np.inf), -np.geomspace(1e-300, 5.0, 20),
                             np.random.default_rng(3).uniform(-2.0, 5.0, 1000)])
        scalar = np.array([wf.magnitude(float(t)) for t in ts])
        zero_d = np.array([wf.magnitude(np.array(t)) for t in ts])
        assert all(type(wf.magnitude(float(t))) is float for t in ts[:50])
        assert np.array_equal(scalar.view(np.int64), wf.magnitude(ts).view(np.int64))
        assert np.array_equal(scalar.view(np.int64), zero_d.view(np.int64))
        if kind == "pulse":
            assert np.count_nonzero(scalar) > 100 and np.count_nonzero(scalar == 0) > 100

    def test_profile_mean_one(self, channel_grid):
        for shape in ("plug", "parabola"):
            wf = Waveform(shape=shape)
            prof = wf.profile(channel_grid)
            assert prof.mean() == pytest.approx(1.0, rel=1e-12)


class TestConfigValidation:
    def test_cfl_guard(self):
        with pytest.raises(ConfigurationError):
            channel_cfg(waveform=Waveform(u_sys=50.0), dt=0.01)

    def test_diffusion_limit_guard(self):
        with pytest.raises(ConfigurationError):
            channel_cfg(nu=0.5, dt=0.05)

    def test_windkessel_coverage(self):
        grid = Grid(8, 8, 1.0, 1.0, CHANNEL_TAGS)
        with pytest.raises(ConfigurationError):
            FomConfig(grid=grid, nu=1e-3, dt=1e-3, t0=0.0, t_end=0.1,
                      waveform=Waveform(), windkessel={})


class TestAdvance:
    def test_zero_inlet_stays_zero(self):
        cfg = channel_cfg(waveform=Waveform(kind="constant", u_sys=0.0), t_end=0.05)
        solver = FomSolver(cfg)
        state = solver.initial_state()
        for _ in range(5):
            state = solver.advance(state)
        assert np.all(state.u == 0.0) and np.all(state.v == 0.0) and np.all(state.p == 0.0)

    def test_divergence_small_after_random_impulse(self, rng):
        cfg = channel_cfg(waveform=Waveform(kind="constant", u_sys=0.0), t_end=0.05)
        solver = FomSolver(cfg)
        state = solver.initial_state()
        mu, mv = cfg.grid.advanced_masks
        state.u[mu.nonzero()] = 0.01 * rng.standard_normal(mu.sum())
        state.v[mv.nonzero()] = 0.01 * rng.standard_normal(mv.sum())
        state = solver.advance(state)
        div = np.abs(divergence(cfg.grid, state.u, state.v)).max()
        assert div < 1e-8 * 0.1 / min(cfg.grid.hx, cfg.grid.hy)

    def test_viscous_energy_decay(self, rng):
        cfg = channel_cfg(waveform=Waveform(kind="constant", u_sys=0.0), nu=5e-3, dt=0.01)
        solver = FomSolver(cfg)
        state = solver.initial_state()
        mu, mv = cfg.grid.advanced_masks
        state.u[mu.nonzero()] = 0.01 * rng.standard_normal(mu.sum())
        state.v[mv.nonzero()] = 0.01 * rng.standard_normal(mv.sum())
        state = solver.advance(state)  # project the impulse first
        energy = [np.sum(state.u**2) + np.sum(state.v**2)]
        for _ in range(30):
            state = solver.advance(state)
            energy.append(np.sum(state.u**2) + np.sum(state.v**2))
        assert all(e1 <= e0 * (1 + 1e-12) for e0, e1 in zip(energy, energy[1:]))

    def test_poiseuille_profile(self):
        """Steady parabolic inflow relaxes onto the analytic parabola."""
        wf = Waveform(kind="constant", u_sys=0.01, shape="parabola")
        cfg = channel_cfg(nx=8, ny=16, lx=1.0, ly=0.5, nu=5e-3, dt=0.05, t_end=40.0,
                          waveform=wf, stride=None)
        solver = FomSolver(cfg)
        state = solver.initial_state()
        for _ in range(800):
            state = solver.advance(state)
        g = cfg.grid
        y = (np.arange(g.ny) + 0.5) * g.hy
        xi = y / g.ly
        exact = 0.01 * 6.0 * xi * (1.0 - xi)
        mid = state.u[:, g.nx // 2]
        rel = np.linalg.norm(mid - exact) / np.linalg.norm(exact)
        assert rel < 0.02

    def test_first_order_time_convergence(self):
        """Consecutive-halving error ratio ~2 on a smooth startup window."""
        t_end = 0.08
        sols = {}
        for dt in (8e-3, 4e-3, 2e-3):
            cfg = channel_cfg(nx=12, ny=6, nu=5e-3, dt=dt, t_end=t_end,
                              waveform=Waveform(u_sys=0.01, t_cycle=0.6, systole_frac=0.4),
                              stride=None)
            solver = FomSolver(cfg)
            state = solver.initial_state()
            for _ in range(round(t_end / dt)):
                state = solver.advance(state)
            sols[dt] = np.concatenate([state.u.ravel(), state.v.ravel()])
        e_coarse = np.linalg.norm(sols[8e-3] - sols[4e-3])
        e_fine = np.linalg.norm(sols[4e-3] - sols[2e-3])
        assert 1.7 <= e_coarse / e_fine <= 2.3

    def test_unconverged_poisson_solve_raises(self, monkeypatch):
        solver = FomSolver(channel_cfg())
        state = solver.advance(solver.initial_state())
        assert state.poisson_residual <= fom.POISSON_RTOL
        # a solver whose solves are off by 1e-6 relative
        monkeypatch.setattr(fom, "KronSumSolver", wrapped_solver(scale=1 + 1e-6))
        with pytest.raises(NumericalError, match="residual check"):
            FomSolver(channel_cfg()).advance(state)

    @pytest.mark.parametrize("convection", [True, False])
    def test_convective_cfl_checked(self, convection):
        """With convection on, a state at CFL 2 is not advanced: the error
        names its step and CFL number.  A Stokes step has no such limit."""
        cfg = channel_cfg(convection=convection)
        solver = FomSolver(cfg)
        state = solver.advance(solver.initial_state())
        state.u[:, 1:-1] = 2.0 * cfg.grid.hx / cfg.dt
        if convection:
            with pytest.raises(NumericalError, match=r"CFL 2 >= 1 in the state of step 1 "):
                solver.advance(state)
        else:
            solver.advance(state)


class TestRun:
    def test_snapshot_counting(self):
        cfg = channel_cfg(dt=0.01, t_end=0.1, stride=2)
        res = fom_run(cfg)
        assert len(res.snapshots) == 10 // 2 + 1
        assert np.allclose(res.snapshots.times, np.arange(0, 0.11, 0.02), atol=1e-12)

    def test_stride_none_single_snapshot(self):
        cfg = channel_cfg(dt=0.01, t_end=0.05, stride=None)
        res = fom_run(cfg)
        assert len(res.snapshots) == 1
        assert res.snapshots.times[0] == 0.0

    def test_snap_start_offsets_window(self):
        cfg = channel_cfg(dt=0.01, t_end=0.1, stride=5, snap_start=0.05)
        res = fom_run(cfg)
        assert np.allclose(res.snapshots.times, [0.05, 0.1], atol=1e-12)

    def test_outlet_pressure_recorded(self):
        cfg = channel_cfg(dt=0.01, t_end=0.1, stride=1)
        res = fom_run(cfg)
        assert res.snapshots.outlet_pressure.shape == (len(res.snapshots), 1)
        assert np.all(np.isfinite(res.snapshots.outlet_pressure))
        assert res.snapshots.outlet_pressure[0, 0] == 0.0
        assert res.snapshots.outlet_pressure[-1, 0] > 0.0  # systolic inflow pressurized the outlet

    def test_deterministic_rerun(self):
        cfg = channel_cfg(dt=0.01, t_end=0.08, stride=2)
        a = fom_run(cfg)
        b = fom_run(cfg)
        for fa, fb in zip(a.snapshots.velocity, b.snapshots.velocity):
            assert np.array_equal(fa.values, fb.values)
        for fa, fb in zip(a.snapshots.pressure, b.snapshots.pressure):
            assert np.array_equal(fa.values, fb.values)
        assert np.array_equal(a.snapshots.outlet_pressure, b.snapshots.outlet_pressure)

    def test_cycle_drift_reported(self):
        wf = Waveform(u_sys=0.01, t_cycle=0.05, systole_frac=0.4)
        cfg = channel_cfg(dt=0.005, t_end=0.2, stride=2, waveform=wf)
        res = fom_run(cfg)
        assert res.cycle_drift is not None and res.cycle_drift >= 0.0

    def test_step_diagnostics_recorded(self, monkeypatch):
        residuals = []
        monkeypatch.setattr(fom, "KronSumSolver", wrapped_solver(residuals))
        cfg = channel_cfg(dt=0.01, t_end=0.1, stride=2)
        res = fom_run(cfg)
        assert res.poisson_residual.shape == res.div_max.shape == (res.n_steps,)
        assert res.poisson_residual.tolist() == residuals
        assert res.poisson_residual.max() < 1e-9
        g = cfg.grid
        faces = face_arrays(g, res.snapshots.velocity.values)
        assert res.snapshots.times[-1] == res.step_times[-1]
        assert res.div_max[-1] == np.abs(divergence(g, faces[0][-1], faces[1][-1])).max()
        # step i+1 feeds the Windkessel the outward flux of the state at step i
        assert res.outlet_flux.shape == (res.n_steps, 1)
        for m, t in enumerate(res.snapshots.times[:-1]):
            i = int(np.flatnonzero(res.step_times == t)[0])
            assert res.outlet_flux[i, 0] == normal_flux(g, faces[0][m], faces[1][m], "right")
        assert np.all(res.outlet_flux[1:] > 0)


def _layout_solver(grid, t0=0.0, shape="plug", seed=None, convective=True):
    """(solver at a stable step for the grid, its state at t0): at rest or,
    given a seed, random; with convection or (convective False) Stokes."""
    wf = Waveform(kind="pulse", u_sys=1.0, t_cycle=0.6, systole_frac=0.4, shape=shape)
    nu = 0.04
    dt = 0.5 * min(min(grid.hx, grid.hy) / wf.u_sys,
                   1.0 / (3.0 * nu * (1.0 / grid.hx**2 + 1.0 / grid.hy**2)))
    wk = {k: WindkesselParams(Rp=1.0, Rd=10.0, C=0.1) for k, _ in grid.outlets}
    solver = FomSolver(FomConfig(grid=grid, nu=nu, dt=dt, t0=t0, t_end=t0 + 10 * dt,
                                 waveform=wf, windkessel=wk, include_convection=convective))
    s = solver.initial_state()
    if seed is not None:
        rng = np.random.default_rng(seed)
        s = dataclasses.replace(s, u=rng.uniform(-1, 1, s.u.shape),
                                v=rng.uniform(-1, 1, s.v.shape))
    return solver, s


def _layout_step(grid, t0=0.0, shape="plug", seed=None):
    """(waveform, state after one step) from rest or, given a seed, from a
    random state, at a stable step for the grid."""
    solver, s = _layout_solver(grid, t0, shape, seed)
    return solver.cfg.waveform, solver.advance(s)


def _stencil_step(solver, s):
    """(u, v, p) after one step of the projection scheme written with the
    vec_laplacian, convection and gradient stencils and a default-ordered
    splu solve of the Poisson matrix."""
    cfg, g = solver.cfg, solver.grid
    dt, nu, t = cfg.dt, cfg.nu, s.t + cfg.dt
    lu, lv = vec_laplacian(g, s.u, s.v)
    cu, cv = convection(g, s.u, s.v, s.u, s.v)
    us, vs = s.u + dt * (nu * lu - cu), s.v + dt * (nu * lv - cv)
    set_inward(us, vs, g.inlet_side, cfg.waveform.magnitude(t) * cfg.waveform.profile(g))
    for side in g.sides_with("wall"):
        normal_faces(us, vs, side)[SIDE_INDEX[side]] = 0.0
    q = [wk_step(wk, normal_flux(g, s.u, s.v, side), dt, cfg.windkessel[k]).p
         for (k, side), wk in zip(g.outlets, s.wk)]
    A, bc = center_laplacian(g, frozenset(side for _, side in g.outlets))
    p = splu(A).solve(bc(q) - divergence(g, us, vs).ravel() / dt).reshape(g.ny, g.nx)
    gx, gy = gradient(g, p, q)
    return us - dt * gx, vs - dt * gy, p


def _scipy_predictor(cfg, w):
    """u* of w as scipy's product [I + dt nu L, -dt D] [w; (S_a w) * (S_b w)]
    of the grid's matrices, (I + dt nu L) w without convection."""
    g, dt = cfg.grid, cfg.dt
    matrix, x = identity(g.n_vector) + (dt * cfg.nu) * vec_laplacian_matrix(g), w
    if cfg.include_convection:
        means, pairs, flux_div = convection_matrices(g)
        m = means.tocsr() @ w
        matrix = hstack([matrix, -dt * flux_div])
        x = np.concatenate([w] + [m[a] * m[b] for a, b in pairs])
    return matrix.tocsr() @ x


def _scipy_step(solver, s):
    """(w, p, Poisson residual, max |div u|, outlet fluxes, outlet pressures)
    after one step of the solver's scheme with each sparse product written as
    scipy's M @ x on the grid's matrices."""
    cfg, g = solver.cfg, solver.grid
    dt = cfg.dt
    ws = _scipy_predictor(cfg, flat_faces((s.u, s.v)))
    ws[solver._fixed] = cfg.waveform.magnitude(s.t + dt) * solver._fixed_data
    fluxes = tuple(normal_flux(g, s.u, s.v, side) for _, side in g.outlets)
    q = [wk_step(wk, flux, dt, cfg.windkessel[k]).p
         for (k, _), wk, flux in zip(g.outlets, s.wk, fluxes)]
    A, bc = center_laplacian(g, frozenset(side for _, side in g.outlets))
    rhs = bc(q) - (divergence_matrix(g) / dt).tocsr() @ ws
    p = solver._poisson.solve(rhs)
    r = rhs - A @ p
    w = ws - (dt * gradient_matrix(g)).tocsr() @ np.concatenate((p, q))
    u, v = w[:g.n_u].reshape(g.ny, g.nx + 1), w[g.n_u:].reshape(g.ny + 1, g.nx)
    res = math.sqrt(r.dot(r)) / math.sqrt(rhs.dot(rhs))
    return w, p, res, float(np.abs(divergence(g, u, v)).max()), fluxes, q


class TestLayouts:
    @settings(max_examples=40, deadline=None)
    @given(layouts(), st.floats(0.0, 0.2), st.sampled_from(["plug", "parabola"]),
           st.none() | st.integers(0, 2**32 - 1))
    def test_step_sets_inlet_and_walls(self, grid, t0, shape, seed):
        """After one step, from rest or (given a seed) from a random state, the
        inlet faces carry the inward g(t) profile and the wall faces zero normal
        velocity, whatever side either lies on."""
        wf, s = _layout_step(grid, t0, shape, seed)
        inward = {"left": s.u[:, 0], "right": -s.u[:, -1],
                  "bottom": s.v[0, :], "top": -s.v[-1, :]}
        assert np.array_equal(inward[grid.inlet_side], wf.magnitude(s.t) * wf.profile(grid))
        for side in grid.sides_with("wall"):
            assert not inward[side].any()

    @settings(max_examples=40, deadline=None)
    @given(layouts(), st.floats(0.0, 0.2), st.none() | st.integers(0, 2**32 - 1))
    def test_step_matches_stencil_step(self, grid, t0, seed):
        """FomSolver.advance (the probed Laplacian as one matvec, the Poisson
        matrix solved by fast diagonalisation) gives the step written with the
        stencils and an LU solve to 1e-12 relative, from rest or from a random
        state.  Two backward-stable solves by different methods agree only to
        about cond(A) eps, so where the Poisson matrix's condition number passes
        ~450 (long cells, a short outlet) the bound is 10 cond(A) eps."""
        solver, s = _layout_solver(grid, t0, seed=seed)
        new = solver.advance(s)
        u, v, p = _stencil_step(solver, s)
        A, _ = center_laplacian(grid, frozenset(side for _, side in grid.outlets))
        tol = max(1e-12, 10 * np.linalg.cond(A.toarray()) * np.finfo(float).eps)
        for got, want in (((new.u, new.v), (u, v)), ((new.p,), (p,))):
            got, want = flat_faces(got), flat_faces(want)
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    @settings(max_examples=40, deadline=None)
    @given(layouts(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_predictor_matrix_matches_stencils(self, grid, convective, seed):
        """The solver's predictor (the unique face means and (I + dt nu L) w in
        one product, then -dt D on the flux products) with convection on, and
        (I + dt nu L) w without, is w + dt (nu Lap(w) - div(w (x) w)) of the
        stencils to 1e-13 relative on random fields (the divergence, gradient
        and convection matrices are checked in test_operators.py)."""
        solver, s = _layout_solver(grid, seed=seed, convective=convective)
        cfg = solver.cfg
        w = flat_faces((s.u, s.v))
        rate = cfg.nu * flat_faces(vec_laplacian(grid, s.u, s.v))
        if convective:
            rate -= flat_faces(convection(grid, s.u, s.v, s.u, s.v))
        want = w + cfg.dt * rate
        assert np.linalg.norm(solver._predict(w) - want) <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=40, deadline=None)
    @given(layouts(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_step_products_match_scipy(self, grid, convective, seed):
        """Every sparse product of a step, run by csr_matvec into the solver's
        work arrays, has the bits of scipy's M @ x on random fields: the
        predictor those of [I + dt nu L, -dt D] [w; fluxes] (of (I + dt nu L) w
        without convection), and a step from a random state those of the step
        written with @ (Div/dt, the CSC Poisson matrix in the residual, dt Grad
        on [p; q]), also when taken a second time, which leaves the first
        step's state as it was."""
        solver, s = _layout_solver(grid, seed=seed, convective=convective)
        w = np.random.default_rng(seed).uniform(-1, 1, grid.n_vector)
        assert np.array_equal(solver._predict(w), _scipy_predictor(solver.cfg, w))
        first = solver.advance(s)
        kept = flat_faces((first.u, first.v, first.p)).copy()
        w_new, p, res, div_max, fluxes, q = _scipy_step(solver, s)
        for new in (first, solver.advance(s)):
            assert np.array_equal(flat_faces((new.u, new.v)), w_new)
            assert np.array_equal(new.p.ravel(), p)
            assert (new.poisson_residual, new.div_max, new.outlet_flux) == (res, div_max, fluxes)
            assert [wk.p for wk in new.wk] == q
        assert np.array_equal(flat_faces((first.u, first.v, first.p)), kept)

    @settings(max_examples=40, deadline=None)
    @given(layouts(), st.integers(0, 2**32 - 1))
    def test_direct_solves_reach_residual(self, grid, seed):
        """The FOM Poisson step, the velocity-lifting potential and the block
        of pressure liftings are three solvers, and every right-hand side (one
        per outlet in the block) solves to relative residual 1e-12 or
        better."""
        residuals, built = [], []

        def build(A, shape):
            built.append(A)
            return wrapped_solver(residuals)(A, shape)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fom, "KronSumSolver", build)
            mp.setattr(lifting, "KronSumSolver", build)
            _layout_step(grid, seed=seed)
            compute_lifting(grid)
        assert len(built) == 3
        assert len(residuals) == 2 + len(grid.outlets)
        assert max(residuals) <= 1e-12
