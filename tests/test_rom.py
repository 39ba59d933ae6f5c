import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romkit import rom
from romkit.errors import NumericalError, ShapeError, StabilityError
from romkit.fom import FomConfig, Waveform, fom_run
from romkit.grid import FieldRows, Grid, l2_norm
from romkit.lifting import LiftingPair, compute_lifting, homogenize
from romkit.operators import convection, divergence, flat_faces, gradient, vec_laplacian
from romkit.pod import ReducedBasis, _mgs, pod_basis, project_coefficients, symmetric_eig
from romkit.rom import (
    ReducedOperators,
    ReducedTrajectory,
    assemble_operators,
    integrate_rom,
    prepare_step,
    reconstruct,
    supremizer_enrich,
)
from romkit.windkessel import WindkesselParams

from conftest import CHANNEL_TAGS, cell_array, face_arrays, inlet_trace, layouts, wrapped_splu


@pytest.fixture(scope="module")
def stokes_setup():
    """Small Stokes channel run shared by the ROM tests."""
    grid = Grid(32, 8, 2.0, 0.5, CHANNEL_TAGS)
    wf = Waveform(kind="pulse", u_sys=0.01, t_cycle=0.24, systole_frac=0.4)
    wk = {0: WindkesselParams(Rp=0.05, Rd=1.0, C=0.5)}
    cfg = FomConfig(grid=grid, nu=2e-5, dt=1e-3, t0=0.0, t_end=0.24, waveform=wf,
                    windkessel=wk, snap_stride=4, include_convection=False)
    res = fom_run(cfg)
    lift = compute_lifting(grid)
    u_d = np.array([wf.magnitude(t) for t in res.snapshots.times])
    hom = homogenize(res.snapshots, u_d, res.snapshots.outlet_pressure, lift)
    basis_u = pod_basis(hom.velocity, kind="velocity")
    basis_p = pod_basis(hom.pressure, kind="pressure")
    return dict(grid=grid, cfg=cfg, res=res, lift=lift, hom=hom,
                basis_u=basis_u, basis_p=basis_p, wf=wf)


def _stokes(ops):
    """The operators with every convection tensor zeroed."""
    return dataclasses.replace(ops, Ct=np.zeros_like(ops.Ct), d2=np.zeros_like(ops.d2),
                               d3=np.zeros_like(ops.d3), d4=np.zeros_like(ops.d4))


def _integrate(ops, a0, times, *args, **kw):
    """integrate_rom of ``ops`` with a step prepared at the times' spacing."""
    times = np.asarray(times, dtype=np.float64)
    step = prepare_step(ops, (times[-1] - times[0]) / (times.size - 1))
    return integrate_rom(step, a0, times, *args, **kw)


def _random_problem(rng, n_p, n_u=6, n_out=2):
    """(ops, a0, times, waveform, q): random operators, so that every
    convection and lifting term counts, on 25 uniform steps."""
    A = rng.standard_normal((n_u, n_u))
    K = rng.standard_normal((n_u, n_p))
    ops = ReducedOperators(
        B=-(A @ A.T) - np.eye(n_u), Ct=0.3 * rng.standard_normal((n_u,) * 3), K=K, P=-K.T,
        d1=rng.standard_normal(n_u), d2=rng.standard_normal((n_u, n_u)),
        d3=rng.standard_normal((n_u, n_u)), d4=rng.standard_normal(n_u),
        d5=rng.standard_normal((n_out, n_u)), d6=rng.standard_normal(n_u),
        d7=rng.standard_normal(n_p), nu=0.05)
    wf = Waveform(kind="pulse", u_sys=1.0, t_cycle=0.24, systole_frac=0.4)
    times = np.linspace(0.0, 0.12, 25)
    q = rng.standard_normal((times.size, n_out))
    return ops, 0.1 * rng.standard_normal(n_u), times, wf, q


def _dense_oracle(ops, a0, times, wf, q):
    """Reference semi-implicit Euler: one dense saddle solve per step."""
    n_u, n_p = ops.n_u, ops.n_p
    a, a_out, b_out = a0.copy(), [a0.copy()], [np.zeros(n_p)]
    for m in range(times.size - 1):
        dt = times[m + 1] - times[m]
        g0, g1 = wf.magnitude(float(times[m])), wf.magnitude(float(times[m + 1]))
        M = np.zeros((n_u + n_p, n_u + n_p))
        M[:n_u, :n_u] = np.eye(n_u) / dt - ops.nu * ops.B
        M[:n_u, n_u:] = ops.K
        M[n_u:, :n_u] = ops.P
        rhs_u = (a / dt + ops.nu * g1 * ops.d1 - q[m + 1] @ ops.d5
                 - wf.magnitude_dot(float(times[m + 1])) * ops.d6
                 - np.einsum("ijk,j,k->i", ops.Ct, a, a)
                 - g0 * (ops.d2 + ops.d3) @ a - g0 * g0 * ops.d4)
        sol = np.linalg.solve(M, np.concatenate([rhs_u, -g1 * ops.d7]))
        a = sol[:n_u]
        a_out.append(a)
        b_out.append(sol[n_u:])
    return np.array(a_out), np.array(b_out)


def _zero_lifting(grid):
    return LiftingPair(FieldRows(grid, "vector2", np.zeros((1, grid.n_vector))),
                       FieldRows(grid, "scalar", np.zeros((len(grid.outlets), grid.n_scalar))),
                       {"chi_u_inlet_flux": 0.0})


def _interior_vector(grid, rng):
    u = np.zeros((grid.ny, grid.nx + 1))
    v = np.zeros((grid.ny + 1, grid.nx))
    u[2:-2, 3:-3] = rng.standard_normal(u[2:-2, 3:-3].shape)
    v[3:-3, 2:-2] = rng.standard_normal(v[3:-3, 2:-2].shape)
    return flat_faces((u, v))


def _orthonormalize(grid, kind, fields):
    """FieldRows of the orthonormalized flat fields."""
    return FieldRows(grid, kind, _mgs(np.stack(fields), grid.cell_area))


def _inner(grid, f, g):
    """The discrete L2 inner product of two flat fields."""
    return float(np.dot(f, g)) * grid.cell_area


class TestSupremizer:
    def test_no_pressure_modes_is_identity(self, stokes_setup):
        s = stokes_setup
        out = supremizer_enrich(s["basis_u"], None, s["grid"])
        assert out is s["basis_u"]

    def test_enriched_gram_identity(self, stokes_setup):
        s = stokes_setup
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        assert enriched.n_modes == s["basis_u"].n_modes + s["basis_p"].n_modes
        assert enriched.n_supremizer == s["basis_p"].n_modes
        G = enriched.gram()
        assert np.abs(G - np.eye(enriched.n_modes)).max() < 1e-10

    def test_infsup_proxy_improves(self, stokes_setup):
        s = stokes_setup
        grid, lift = s["grid"], s["lift"]

        def sigma_min(basis_u):
            ops = assemble_operators(basis_u, s["basis_p"], lift, s["cfg"].nu, grid)
            w, _ = symmetric_eig(ops.P @ ops.P.T)
            return np.sqrt(max(w.min(), 0.0))

        plain = sigma_min(s["basis_u"])
        enriched = sigma_min(supremizer_enrich(s["basis_u"], s["basis_p"], grid))
        assert enriched > 0
        assert enriched >= 10.0 * plain

    def test_solves_reach_residual(self, stokes_setup, monkeypatch):
        s = stokes_setup
        residuals = []
        monkeypatch.setattr(rom, "splu", wrapped_splu(residuals))
        supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        assert len(residuals) == s["basis_p"].n_modes   # one per column of the block
        assert max(residuals) <= rom.SUPREMIZER_RTOL

    def test_perturbed_factor_raises(self, stokes_setup, monkeypatch):
        s = stokes_setup
        monkeypatch.setattr(rom, "splu", wrapped_splu(scale=1 + 1e-6))
        with pytest.raises(NumericalError, match="supremizer solve for pressure mode 0"):
            supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])


class TestAssemble:
    def test_matches_per_field_stencil_calls(self, stokes_setup):
        """Stacked assembly against one stencil call per mode (pair)."""
        s = stokes_setup
        grid, lift = s["grid"], s["lift"]
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], grid)
        ops = assemble_operators(enriched, s["basis_p"], lift, s["cfg"].nu, grid)
        modes = enriched.modes.values
        chi, faces = face_arrays(grid, lift.chi_u.values[0]), face_arrays(grid, modes)

        def proj(uv):
            flat = np.concatenate([uv[0].ravel(), uv[1].ravel()])
            return np.array([_inner(grid, m, flat) for m in modes])

        B = np.column_stack([proj(vec_laplacian(grid, *f)) for f in zip(*faces)])
        Ct = np.stack([np.column_stack([proj(convection(grid, *f, *g)) for g in zip(*faces)])
                       for f in zip(*faces)], axis=1)
        d2 = np.column_stack([proj(convection(grid, *f, *chi)) for f in zip(*faces)])
        d3 = np.column_stack([proj(convection(grid, *chi, *f)) for f in zip(*faces)])
        psis = s["basis_p"].modes.values
        K = np.column_stack([proj(gradient(grid, c)) for c in cell_array(grid, psis)])
        P = np.array([[_inner(grid, psi, divergence(grid, *f).ravel()) for f in zip(*faces)]
                      for psi in psis])
        for name, ref in (("B", B), ("Ct", Ct), ("d2", d2), ("d3", d3), ("K", K), ("P", P)):
            got = getattr(ops, name)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

    @settings(max_examples=25, deadline=None)
    @given(layouts(), st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_every_operator_on_every_layout(self, grid, n_u, n_p, seed):
        """All eleven operators, convection on, against one stencil call per
        mode (pair) on every boundary layout, with random orthonormal modes and
        the layout's own lifting.  Each array is bounded relative to its
        largest entry; d4 and d7 also relative to d2 and P, which they
        accompany in the step, since either can be zero to rounding."""
        rng = np.random.default_rng(seed)
        lift = compute_lifting(grid)
        Phi = _mgs(rng.standard_normal((n_u, grid.n_vector)), grid.cell_area)
        Psi = _mgs(rng.standard_normal((n_p, grid.n_scalar)), grid.cell_area)
        bu = ReducedBasis(FieldRows(grid, "vector2", Phi), np.ones(n_u), "velocity", n_u)
        bp = (ReducedBasis(FieldRows(grid, "scalar", Psi), np.ones(n_p), "pressure", n_p)
              if n_p else None)
        ops = assemble_operators(bu, bp, lift, 0.1, grid)

        def uv(w):
            return face_arrays(grid, w)

        def proj(rows, fields):   # area-weighted dot products, a row per mode, a column per field
            return grid.cell_area * np.array([[r @ f.ravel() for f in fields] for r in rows])

        chi = lift.chi_u.values[0]
        cols = list(Phi) + [chi]
        lap = [flat_faces(vec_laplacian(grid, *uv(w))) for w in cols]
        conv = [[flat_faces(convection(grid, *uv(a), *uv(b))) for b in cols] for a in cols]
        Ct = np.stack([proj(Phi, conv[j][:n_u]) for j in range(n_u)], axis=1)
        want = {
            "B": proj(Phi, lap[:n_u]), "d1": proj(Phi, lap[n_u:])[:, 0], "Ct": Ct,
            "d2": proj(Phi, [conv[j][n_u] for j in range(n_u)]),
            "d3": proj(Phi, conv[n_u][:n_u]), "d4": proj(Phi, conv[n_u][n_u:])[:, 0],
            "K": proj(Phi, [flat_faces(gradient(grid, p.reshape(grid.ny, grid.nx)))
                            for p in Psi]).reshape(n_u, n_p),
            "P": proj(Psi, [divergence(grid, *uv(w)) for w in Phi]).reshape(n_p, n_u),
            "d5": proj(Phi, [flat_faces(gradient(grid, c, e)) for c, e in
                             zip(cell_array(grid, lift.chi_p.values), np.eye(lift.n_outlets))]).T,
            "d6": proj(Phi, [chi])[:, 0],
            "d7": proj(Psi, [divergence(grid, *uv(chi))]).reshape(n_p),
        }
        scale = {name: np.abs(ref).max(initial=0.0) for name, ref in want.items()}
        scale["d4"], scale["d7"] = max(scale["d4"], scale["d2"]), max(scale["d7"], scale["P"])
        for name, ref in want.items():
            got = getattr(ops, name)
            assert got.shape == ref.shape, name
            assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * scale[name], name

    def test_single_mode_diffusion_scalar(self, stokes_setup, rng):
        s = stokes_setup
        grid = s["grid"]
        mode = _orthonormalize(grid, "vector2", [_interior_vector(grid, rng)])
        basis = ReducedBasis(mode, np.array([1.0]), "velocity", 1)
        ops = assemble_operators(basis, None, _zero_lifting(grid), 1e-3, grid)
        assert ops.B.shape == (1, 1)
        w = mode.values[0]
        direct = _inner(grid, w, flat_faces(vec_laplacian(grid, *face_arrays(grid, w))))
        assert ops.B[0, 0] == pytest.approx(direct, rel=1e-12)
        assert ops.B[0, 0] <= 0.0

    def test_b_symmetric_negative_semidefinite(self, stokes_setup):
        s = stokes_setup
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        ops = assemble_operators(enriched, s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        sym_dev = np.abs(ops.B - ops.B.T).max()
        assert sym_dev <= 1e-10 * max(1.0, np.abs(ops.B).max())
        w = np.linalg.eigvalsh(0.5 * (ops.B + ops.B.T))
        assert w.max() <= 1e-10 * abs(w.min())

    @settings(max_examples=25, deadline=None)
    @given(layouts(), st.integers(0, 2**32 - 1))
    def test_gradient_divergence_adjoint_blocks(self, grid, seed):
        """P = -K^T on every layout for velocity modes that vanish on the
        boundary faces (summation by parts leaves no boundary term)."""
        rng = np.random.default_rng(seed)
        u = np.zeros((3, grid.ny, grid.nx + 1))
        v = np.zeros((3, grid.ny + 1, grid.nx))
        u[:, :, 1:-1] = rng.standard_normal(u[:, :, 1:-1].shape)
        v[:, 1:-1, :] = rng.standard_normal(v[:, 1:-1, :].shape)
        umodes = _orthonormalize(grid, "vector2", flat_faces((u, v)))
        pmodes = _orthonormalize(grid, "scalar", rng.standard_normal((2, grid.n_scalar)))
        bu = ReducedBasis(umodes, np.ones(3), "velocity", 3)
        bp = ReducedBasis(pmodes, np.ones(2), "pressure", 2)
        ops = assemble_operators(bu, bp, _zero_lifting(grid), 1e-3, grid)
        assert np.abs(ops.P + ops.K.T).max() <= 1e-12 * np.abs(ops.K).max()

    def test_convection_tensor_skew(self, stokes_setup, rng):
        grid = stokes_setup["grid"]
        psi = np.zeros((grid.ny + 1, grid.nx + 1))
        psi[3:-3, 3:-3] = rng.standard_normal(psi[3:-3, 3:-3].shape)
        u = (psi[1:, :] - psi[:-1, :]) / grid.hy
        v = -(psi[:, 1:] - psi[:, :-1]) / grid.hx
        divfree = flat_faces((u, v))
        others = [_interior_vector(grid, rng) for _ in range(2)]
        modes = _orthonormalize(grid, "vector2", [divfree] + others)
        basis = ReducedBasis(modes, np.ones(3), "velocity", 3)
        ops = assemble_operators(basis, None, _zero_lifting(grid), 1e-3, grid)
        j = 0  # the (near) divergence-free advector after orthonormalization
        for i in range(3):
            for k in range(3):
                skew = ops.Ct[i, j, k] + ops.Ct[k, j, i]
                assert abs(skew) < 1e-8

    def test_reduced_rhs_matches_projected_full_rhs(self, stokes_setup, rng):
        """Two-route check of the d1..d7 lifting couplings.

        For u = sum a phi + g chi_u, p = sum b psi + q chi_p the reduced
        right-hand side must equal the mode projection of the full-grid
        operators applied to the assembled fields, exactly up to rounding.
        """
        s = stokes_setup
        grid, lift = s["grid"], s["lift"]
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], grid)
        ops = assemble_operators(enriched, s["basis_p"], lift, s["cfg"].nu, grid)
        n_u, n_p = ops.n_u, ops.n_p
        a = rng.standard_normal(n_u)
        b = rng.standard_normal(n_p)
        g = 0.37
        q = -1.3
        nu = s["cfg"].nu

        Phi = enriched.modes.values
        Psi = s["basis_p"].modes.values
        uvals = a @ Phi + g * lift.chi_u.values[0]
        fu, fv = face_arrays(grid, uvals)
        pvals = b @ Psi + q * lift.chi_p[0].values
        p2 = pvals.reshape(grid.ny, grid.nx)

        lu, lv = vec_laplacian(grid, fu, fv)
        cu, cv = convection(grid, fu, fv, fu, fv)
        gx, gy = gradient(grid, p2, [q])
        full_rhs = nu * np.concatenate([lu.ravel(), lv.ravel()])
        full_rhs -= np.concatenate([cu.ravel(), cv.ravel()])
        full_rhs -= np.concatenate([gx.ravel(), gy.ravel()])
        projected = (Phi @ full_rhs) * grid.cell_area

        reduced = nu * (ops.B @ a + g * ops.d1)
        reduced -= ops.Ct.reshape(n_u, -1) @ np.outer(a, a).ravel()
        reduced -= g * ((ops.d2 + ops.d3) @ a) + g * g * ops.d4
        reduced -= ops.K @ b + q * ops.d5[0]
        scale = np.abs(projected).max()
        assert np.abs(projected - reduced).max() <= 1e-11 * max(scale, 1.0)

        # continuity route: (psi_j, div u) = P a + g d7
        dv = divergence(grid, fu, fv).ravel()
        proj_div = (Psi @ dv) * grid.cell_area
        assert np.abs(proj_div - (ops.P @ a + g * ops.d7)).max() <= 1e-11 * max(
            np.abs(proj_div).max(), 1.0)

    def test_operator_persistence_roundtrip(self, stokes_setup, tmp_path):
        s = stokes_setup
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        ops = assemble_operators(enriched, s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        ops.save(tmp_path / "operators")
        back = ReducedOperators.load(tmp_path / "operators")
        assert vars(back).keys() == vars(ops).keys()
        for name, a in vars(ops).items():
            assert np.asarray(a).tobytes() == np.asarray(getattr(back, name)).tobytes(), name

    def test_subset_matches_direct_slices(self, stokes_setup):
        s = stokes_setup
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        ops = assemble_operators(enriched, s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        n_prim = enriched.n_primary
        u_idx = [0, n_prim]  # first velocity mode + first supremizer
        sub = ops.subset(u_idx, 1)
        assert sub.n_u == 2 and sub.n_p == 1
        assert sub.B[0, 1] == ops.B[0, n_prim]
        assert sub.Ct[1, 0, 1] == ops.Ct[n_prim, 0, n_prim]
        assert sub.K[1, 0] == ops.K[n_prim, 0]
        assert sub.P[0, 0] == ops.P[0, 0]
        assert sub.d5[0, 1] == ops.d5[0, n_prim]


class TestIntegrate:
    def test_zero_everything_stays_zero(self, stokes_setup):
        s = stokes_setup
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        ops = assemble_operators(enriched, s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        quiet = Waveform(kind="constant", u_sys=0.0)
        traj = _integrate(ops, np.zeros(ops.n_u), np.linspace(0, 0.1, 11), quiet, None)
        assert np.all(traj.a == 0.0)
        assert np.all(traj.b == 0.0)

    def test_stokes_equivalence_with_projected_fom(self, stokes_setup):
        s = stokes_setup
        res, hom, wf = s["res"], s["hom"], s["wf"]
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        ops = assemble_operators(enriched, s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        a_fom = project_coefficients(hom.velocity, enriched)
        traj = _integrate(_stokes(ops), a_fom[0], res.step_times, wf,
                             res.step_outlet_pressure)
        idx = np.searchsorted(res.step_times, res.snapshots.times)
        diff = np.linalg.norm(traj.a[idx] - a_fom, axis=1)
        full = np.array([l2_norm(f) for f in res.snapshots.velocity])
        rel = np.sqrt(np.mean(diff**2)) / np.sqrt(np.mean(full**2))
        assert rel < 5e-6  # dt = 1e-3 here; the acceptance case runs dt = 1e-4

    def test_missing_supremizers_raise_stability_error(self, stokes_setup):
        s = stokes_setup
        ops = assemble_operators(s["basis_u"], s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        with pytest.raises(StabilityError):
            _integrate(ops, np.zeros(ops.n_u), np.linspace(0, 0.1, 11), s["wf"], None)

    def test_prepare_step_rejects_missing_supremizers(self, stokes_setup):
        s = stokes_setup
        ops = assemble_operators(s["basis_u"], s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        with pytest.raises(StabilityError):
            prepare_step(ops, 0.01)

    @pytest.mark.parametrize("n_p", [0, 3])
    def test_prepared_step_matches_plain_call(self, rng, n_p):
        """A step prepared once serves any number of calls: each gives the
        trajectory of a call with a freshly prepared step, bit for bit.  A
        step of another size, also by 1e-9 relative, is refused."""
        ops, a0, times, wf, q = _random_problem(rng, n_p)
        dt = times[1] - times[0]
        step = prepare_step(ops, dt)
        assert step.ops is ops
        first, again = (integrate_rom(step, a0, times, wf, q) for _ in range(2))
        fresh = integrate_rom(prepare_step(ops, dt), a0, times, wf, q)
        for traj in (again, fresh):
            assert np.array_equal(traj.a, first.a) and np.array_equal(traj.b, first.b)
        for factor in (2.0, 1 + 1e-9):
            with pytest.raises(ShapeError, match="prepared step"):
                integrate_rom(prepare_step(ops, factor * dt), a0, times, wf, q)

    def test_energy_decay_unforced(self, stokes_setup, rng):
        s = stokes_setup
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        ops = assemble_operators(enriched, s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        quiet = Waveform(kind="constant", u_sys=0.0)
        a0 = rng.standard_normal(ops.n_u)
        traj = _integrate(_stokes(ops), a0, np.linspace(0, 0.5, 51), quiet, None)
        norms = np.linalg.norm(traj.a, axis=1)
        assert np.all(np.diff(norms) <= 1e-12 * norms[0])

    def test_deterministic(self, stokes_setup, rng):
        s = stokes_setup
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        ops = assemble_operators(enriched, s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        a0 = rng.standard_normal(ops.n_u)
        times = np.linspace(0, 0.2, 21)
        t1 = _integrate(ops, a0, times, s["wf"], None)
        t2 = _integrate(ops, a0, times, s["wf"], None)
        assert np.array_equal(t1.a, t2.a) and np.array_equal(t1.b, t2.b)

    def test_bad_inputs(self, stokes_setup):
        s = stokes_setup
        enriched = supremizer_enrich(s["basis_u"], s["basis_p"], s["grid"])
        ops = assemble_operators(enriched, s["basis_p"], s["lift"], s["cfg"].nu, s["grid"])
        step = prepare_step(ops, 0.01)
        with pytest.raises(ShapeError):
            integrate_rom(step, np.zeros(ops.n_u + 1), [0.0, 0.01], s["wf"], None)
        with pytest.raises(ShapeError):
            integrate_rom(step, np.zeros(ops.n_u), [0.1, 0.1], s["wf"], None)
        with pytest.raises(ShapeError, match="uniform"):
            integrate_rom(step, np.zeros(ops.n_u), [0.0, 0.01, 0.025, 0.03], s["wf"], None)
        times = np.linspace(0, 0.1, 11)
        for bad in (np.zeros(times.size), np.zeros((times.size, 2)), np.zeros((10, 1))):
            with pytest.raises(ShapeError, match="p_d"):
                integrate_rom(step, np.zeros(ops.n_u), times, s["wf"], bad)

    @pytest.mark.parametrize("n_p", [0, 3])
    def test_matches_dense_per_step_solve(self, rng, n_p):
        ops, a0, times, wf, q = _random_problem(rng, n_p)
        n_u, K = ops.n_u, ops.K
        a_ref, b_ref = _dense_oracle(ops, a0, times, wf, q)
        step = prepare_step(ops, times[1] - times[0])
        traj = integrate_rom(step, a0, times, wf, q)
        assert np.abs(traj.a - a_ref).max() <= 1e-10 * np.abs(a_ref).max()
        assert traj.b.shape == (times.size, n_p)
        M = np.block([[np.eye(n_u) / (times[1] - times[0]) - ops.nu * ops.B, K],
                      [ops.P, np.zeros((n_p, n_p))]])
        assert step.cond == pytest.approx(np.linalg.cond(M), rel=1e-9)
        if n_p:
            assert np.abs(traj.b[1:] - b_ref[1:]).max() <= 1e-10 * np.abs(b_ref).max()
            assert np.array_equal(traj.b[0], traj.b[1])


class TestReconstruct:
    def test_zero_coefficients_give_lifted_fields(self, stokes_setup):
        s = stokes_setup
        grid, lift, wf = s["grid"], s["lift"], s["wf"]
        times = np.array([0.03, 0.06])
        traj = ReducedTrajectory(times, np.zeros((2, s["basis_u"].n_modes)),
                                 np.zeros((2, s["basis_p"].n_modes)))
        rec = reconstruct(s["basis_u"], s["basis_p"], traj, lift, wf, np.full((2, 1), 2.5))
        for m, t in enumerate(times):
            g = wf.magnitude(float(t))
            assert np.allclose(rec.velocity[m].values, g * lift.chi_u.values[0], atol=0)
            assert np.allclose(rec.pressure[m].values, 2.5 * lift.chi_p[0].values, atol=0)

    def test_projected_snapshot_roundtrip(self, stokes_setup):
        s = stokes_setup
        hom, res, wf, lift = s["hom"], s["res"], s["wf"], s["lift"]
        bu, bp = s["basis_u"], s["basis_p"]
        m = 3
        t_m = float(res.snapshots.times[m])
        a = project_coefficients(hom.velocity[m:m + 1], bu)[0]
        b = project_coefficients(hom.pressure[m:m + 1], bp)[0]
        eps = 1e-6
        traj = ReducedTrajectory(np.array([t_m, t_m + eps]), np.vstack([a, a]), np.vstack([b, b]))
        q = res.snapshots.outlet_pressure[m, 0]
        rec = reconstruct(bu, bp, traj, lift, wf, np.full((2, 1), q))
        # reconstruction equals P_N of the snapshot plus lifting
        Phi = bu.modes.values
        expect = a @ Phi + wf.magnitude(t_m) * lift.chi_u.values[0]
        assert np.abs(rec.velocity[0].values - expect).max() <= 1e-12 * max(
            1.0, np.abs(expect).max())

    def test_inlet_trace_matches_waveform(self, stokes_setup, rng):
        s = stokes_setup
        bu, bp, lift, wf = s["basis_u"], s["basis_p"], s["lift"], s["wf"]
        times = np.array([0.02, 0.05, 0.09])
        a = rng.standard_normal((3, bu.n_modes))
        b = rng.standard_normal((3, bp.n_modes))
        rec = reconstruct(bu, bp, ReducedTrajectory(times, a, b), lift, wf, None)
        for m, t in enumerate(times):
            g = wf.magnitude(float(t))
            trace = inlet_trace(s["grid"], rec.velocity[m].values)
            assert np.abs(trace - g).max() <= 1e-9 * max(abs(g), 1e-12)
