import json

import numpy as np
import pytest
from hypothesis import given, settings

from romkit import lifting
from romkit.fom import FomConfig, Waveform, fom_run
from romkit.grid import SIDE_INDEX, FieldRows, Grid, SnapshotSet, l2_norm, normal_flux
from romkit.errors import NumericalError, ShapeError
from romkit.lifting import LiftingPair, compute_lifting, dehomogenize, homogenize
from romkit.operators import divergence, gradient
from romkit.windkessel import WindkesselParams

from conftest import (CHANNEL_TAGS, cell_array, face_arrays, inlet_trace, layouts,
                      random_scalars, random_vectors, wrapped_solver)


@pytest.fixture(scope="module")
def channel():
    return Grid(16, 8, 2.0, 0.5, CHANNEL_TAGS)


@pytest.fixture(scope="module")
def lift(channel):
    return compute_lifting(channel)


def chi_u_faces(grid, pair):
    """The (u, v) face arrays of the velocity lifting."""
    return face_arrays(grid, pair.chi_u.values[0])


def fluxes(grid, pair):
    """Inward flux of chi_u through the inlet, outward flux through each outlet."""
    u, v = chi_u_faces(grid, pair)
    return (-normal_flux(grid, u, v, grid.inlet_side),
            [normal_flux(grid, u, v, side) for _, side in grid.outlets])


class TestComputeLifting:
    def test_channel_chi_u_is_unit_plug(self, channel, lift):
        u, v = chi_u_faces(channel, lift)
        assert np.allclose(u, 1.0, atol=1e-10)
        assert np.allclose(v, 0.0, atol=1e-10)

    def test_chi_u_inlet_trace_is_one(self, channel, lift):
        assert np.array_equal(inlet_trace(channel, lift.chi_u.values[0]), np.ones(channel.ny))

    def test_chi_u_divergence_free(self, channel, lift):
        div = divergence(channel, *chi_u_faces(channel, lift))
        assert np.abs(div).max() < 1e-10 / min(channel.hx, channel.hy)

    def test_flux_conservation(self, channel, lift):
        fin, (fout,) = fluxes(channel, lift)
        assert abs(fin - fout) <= 1e-10 * abs(fin)
        assert fin == pytest.approx(channel.ly, rel=1e-12)
        assert lift.records["chi_u_inlet_flux"] == fin

    def test_chi_p_is_linear_ramp(self, channel, lift):
        # Dirichlet 0 at inlet face, 1 at outlet face -> linear in x at centers
        x = (np.arange(channel.nx) + 0.5) * channel.hx
        expected = x / channel.lx
        assert np.allclose(cell_array(channel, lift.chi_p.values[0]), expected[None, :], atol=1e-10)

    def test_deterministic(self, channel):
        a = compute_lifting(channel)
        b = compute_lifting(channel)
        assert np.array_equal(a.chi_u.values, b.chi_u.values)
        assert np.array_equal(a.chi_p[0].values, b.chi_p[0].values)

    def test_two_outlet_grid(self):
        grid = Grid(8, 8, 1.0, 1.0, {"left": "inlet", "right": "outlet_0", "top": "outlet_1", "bottom": "wall"})
        pair = compute_lifting(grid)
        assert pair.n_outlets == 2
        fin, (f0, f1) = fluxes(grid, pair)
        assert abs(fin - f0 - f1) <= 1e-10 * fin
        # chi_p_k is 1 on its own outlet, 0 on the other (adjacent-cell means reflect it)
        assert pair.records["chi_p_adjacent_cell_mean"][0] > 0.5
        # near top (outlet_1) the datum is 0
        assert cell_array(grid, pair.chi_p.values[0])[-1, :].mean() < 0.5

    def test_perturbed_block_solve_raises(self, monkeypatch):
        """The pressure liftings of both outlets are one block solve, and a
        solver that is off by 1e-6 fails its per-column residual check."""
        grid = Grid(8, 8, 1.0, 1.0, {"left": "inlet", "right": "outlet_0", "top": "outlet_1",
                                     "bottom": "wall"})
        monkeypatch.setattr(lifting, "KronSumSolver", wrapped_solver(scale=1 + 1e-6))
        with pytest.raises(NumericalError, match="pressure lifting of outlet 0"):
            compute_lifting(grid)

    def test_persistence_roundtrip(self, channel, lift, tmp_path):
        lift.save(tmp_path / "lift")
        back = LiftingPair.load(tmp_path / "lift", channel)
        assert np.array_equal(back.chi_u.values, lift.chi_u.values)
        assert np.array_equal(back.chi_p[0].values, lift.chi_p[0].values)
        assert back.records["chi_u_inlet_flux"] == lift.records["chi_u_inlet_flux"]
        # chi_u is one row in memory and a flat array on disk
        meta = json.loads((tmp_path / "lift" / "meta.json").read_text())
        assert meta["arrays"]["chi_u"] == [channel.n_vector]


class TestLayouts:
    """The lifting's defining properties on every legal boundary layout."""

    @settings(max_examples=40, deadline=None)
    @given(layouts())
    def test_chi_u(self, grid):
        pair = compute_lifting(grid)
        div = divergence(grid, *chi_u_faces(grid, pair))
        assert np.abs(div).max() <= 1e-9 * np.abs(pair.chi_u.values).max() / min(grid.hx, grid.hy)
        fin, fout = fluxes(grid, pair)
        assert fin == pytest.approx(grid.side_area(grid.inlet_side), rel=1e-12)
        assert sum(fout) == pytest.approx(fin, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(layouts())
    def test_chi_p_harmonic_with_unit_datum(self, grid):
        """div(gradient(chi_p_k, e_k)) vanishes in every cell.  `gradient` is zero
        on the inlet faces (their velocity is data), so the cells next to the
        inlet get the datum-0 ghost term 2 chi / h^2 added back first."""
        unit = np.eye(len(grid.outlets))
        inlet = SIDE_INDEX[grid.inlet_side]
        scale = 2.0 / min(grid.hx, grid.hy)**2
        for e_k, chi in zip(unit, cell_array(grid, compute_lifting(grid).chi_p.values)):
            r = divergence(grid, *gradient(grid, chi, e_k))
            r[inlet] -= 2.0 * chi[inlet] / grid.normal_spacing(grid.inlet_side)**2
            assert np.abs(r).max() <= 1e-10 * scale


def _toy_set(grid, rng, m=4):
    times = np.linspace(0.0, 1.0, m)
    vel = random_vectors(grid, rng, m)
    pres = random_scalars(grid, rng, m)
    op = rng.standard_normal((m, 1))
    return SnapshotSet(times, vel, pres, nu=1e-3, outlet_pressure=op)


class TestHomogenize:
    def test_zero_series_is_identity(self, channel, lift, rng):
        snaps = _toy_set(channel, rng)
        out = homogenize(snaps, np.zeros(len(snaps)), np.zeros((len(snaps), 1)), lift)
        for a, b in zip(snaps.velocity, out.velocity):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(snaps.pressure, out.pressure):
            assert np.array_equal(a.values, b.values)

    def test_exact_cancellation(self, channel, lift):
        g_vals = np.array([0.3, -1.7])
        vel = FieldRows(channel, "vector2", g_vals[:, None] * lift.chi_u.values)
        pres = FieldRows(channel, "scalar", np.zeros((2, channel.n_scalar)))
        snaps = SnapshotSet([0.0, 1.0], vel, pres, nu=1e-3)
        out = homogenize(snaps, g_vals, None, lift)
        for f in out.velocity:
            assert l2_norm(f) <= 1e-12 * max(abs(g_vals)) * l2_norm(lift.chi_u[0])

    def test_inlet_trace_vanishes_on_fom_output(self, channel, lift):
        wf = Waveform(kind="pulse", u_sys=0.01, t_cycle=0.2, systole_frac=0.4)
        cfg = FomConfig(grid=channel, nu=5e-3, dt=0.005, t0=0.0, t_end=0.2, waveform=wf,
                        windkessel={0: WindkesselParams(1.0, 10.0, 0.1)}, snap_stride=4)
        res = fom_run(cfg)
        u_d = np.array([wf.magnitude(t) for t in res.snapshots.times])
        hom = homogenize(res.snapshots, u_d, res.snapshots.outlet_pressure, lift)
        bound = 1e-9 * max(np.abs(u_d).max(), 1e-300)
        for f in hom.velocity:
            assert np.abs(inlet_trace(channel, f.values)).max() <= bound

    def test_outlet_datum_zeroed_on_fom_output(self, channel, lift):
        wf = Waveform(kind="pulse", u_sys=0.01, t_cycle=0.2, systole_frac=0.4)
        cfg = FomConfig(grid=channel, nu=5e-3, dt=0.005, t0=0.0, t_end=0.2, waveform=wf,
                        windkessel={0: WindkesselParams(1.0, 10.0, 0.1)}, snap_stride=4)
        res = fom_run(cfg)
        u_d = np.array([wf.magnitude(t) for t in res.snapshots.times])
        hom = homogenize(res.snapshots, u_d, res.snapshots.outlet_pressure, lift)
        assert np.abs(hom.outlet_pressure).max() <= 1e-9 * max(np.abs(res.snapshots.outlet_pressure).max(), 1e-300)

    def test_roundtrip_identity(self, channel, lift, rng):
        snaps = _toy_set(channel, rng)
        u_d = rng.standard_normal(len(snaps))
        p_d = rng.standard_normal((len(snaps), 1))
        back = dehomogenize(homogenize(snaps, u_d, p_d, lift), u_d, p_d, lift)
        for a, b in zip(snaps.velocity, back.velocity):
            assert np.abs(a.values - b.values).max() <= 1e-13 * max(1.0, np.abs(a.values).max())
        for a, b in zip(snaps.pressure, back.pressure):
            assert np.abs(a.values - b.values).max() <= 1e-13 * max(1.0, np.abs(a.values).max())

    def test_dehomogenize_of_zero_recovers_lifting(self, channel, lift):
        zero = SnapshotSet([0.0], FieldRows(channel, "vector2", np.zeros((1, channel.n_vector))),
                           FieldRows(channel, "scalar", np.zeros((1, channel.n_scalar))), nu=1e-3)
        out = dehomogenize(zero, np.array([1.0]), np.array([[1.0]]), lift)
        assert np.array_equal(out.velocity.values, lift.chi_u.values)
        assert np.array_equal(out.pressure[0].values, lift.chi_p[0].values)

    def test_linearity(self, channel, lift, rng):
        snaps = _toy_set(channel, rng)
        u_d = rng.standard_normal(len(snaps))
        alpha = 2.5
        scaled = dehomogenize(
            _scale_set(snaps, alpha), alpha * u_d, None, lift)
        ref = dehomogenize(snaps, u_d, None, lift)
        for a, b in zip(scaled.velocity, ref.velocity):
            assert np.allclose(a.values, alpha * b.values, rtol=1e-12, atol=1e-13)

    def test_misaligned_series_raises(self, channel, lift, rng):
        snaps = _toy_set(channel, rng)
        with pytest.raises(ShapeError):
            homogenize(snaps, np.zeros(len(snaps) + 1), None, lift)
        with pytest.raises(ShapeError):
            homogenize(snaps, np.zeros(len(snaps)), np.zeros((len(snaps), 3)), lift)


def _scale_set(snaps, alpha):
    return SnapshotSet(
        snaps.times.copy(),
        FieldRows(snaps.grid, "vector2", alpha * snaps.velocity.values),
        FieldRows(snaps.grid, "scalar", alpha * snaps.pressure.values),
        snaps.nu,
        snaps.waveform,
        None if snaps.outlet_pressure is None else alpha * snaps.outlet_pressure,
    )
