import json

import numpy as np
import pytest

from romkit.errors import ConfigurationError, FormatError, ShapeError
from romkit.grid import (
    Field,
    FieldRows,
    Grid,
    SnapshotSet,
    build_grid,
    inlet_flux,
    inlet_trace,
    inner_product,
    l2_norm,
    normal_flux,
    outlet_flux,
    set_inward,
    side_flux,
)

from conftest import CHANNEL_TAGS, random_scalar, random_vector


class TestBuildGrid:
    def test_unit_square_spacing(self):
        g = build_grid(3, 3, 1.0, 1.0, CHANNEL_TAGS)
        assert g.hx == pytest.approx(1.0 / 3.0, abs=0) and g.hy == pytest.approx(1.0 / 3.0, abs=0)

    def test_channel_spacing(self):
        g = build_grid(64, 16, 2.0, 0.5, CHANNEL_TAGS)
        assert g.hx == 0.03125 and g.hy == 0.03125

    def test_missing_edge_tag_rejected(self):
        tags = {k: v for k, v in CHANNEL_TAGS.items() if k != "top"}
        with pytest.raises(ConfigurationError):
            build_grid(8, 8, 1.0, 1.0, tags)

    def test_needs_inlet_and_outlet(self):
        with pytest.raises(ConfigurationError):
            build_grid(8, 8, 1.0, 1.0, {"left": "wall", "right": "wall", "top": "wall", "bottom": "wall"})
        with pytest.raises(ConfigurationError):
            build_grid(8, 8, 1.0, 1.0, {"left": "inlet", "right": "wall", "top": "wall", "bottom": "wall"})

    def test_small_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(2, 8, 1.0, 1.0, CHANNEL_TAGS)

    def test_duplicate_outlet_rejected(self):
        tags = {"left": "inlet", "right": "outlet_0", "top": "outlet_0", "bottom": "wall"}
        with pytest.raises(ConfigurationError):
            build_grid(8, 8, 1.0, 1.0, tags)

    def test_outlet_enumeration(self):
        tags = {"left": "inlet", "right": "outlet_0", "top": "outlet_1", "bottom": "wall"}
        g = build_grid(8, 8, 1.0, 1.0, tags)
        assert g.outlets == [(0, "right"), (1, "top")]


class TestInnerProduct:
    def test_unit_constant_on_unit_square(self, small_grid):
        f = Field.scalar(small_grid, np.ones(small_grid.n_scalar))
        assert inner_product(f, f) == pytest.approx(1.0, rel=1e-15)

    def test_mirror_antisymmetry_is_orthogonal(self, small_grid):
        g = small_grid
        vals = np.arange(1.0, g.n_scalar + 1).reshape(g.ny, g.nx)
        f = Field.scalar(g, vals)
        mirrored = Field.scalar(g, -vals[:, ::-1])
        ip = inner_product(f, mirrored)
        direct = -np.sum(vals * vals[:, ::-1]) * g.cell_area
        assert ip == pytest.approx(direct, rel=1e-14)

    def test_matches_direct_summation_oracle(self, small_grid, rng):
        f = random_scalar(small_grid, rng)
        g2 = random_scalar(small_grid, rng)
        acc = 0.0
        for a, b in zip(f.values, g2.values):
            acc += a * b * small_grid.cell_area
        assert abs(inner_product(f, g2) - acc) <= 1e-14 * max(1.0, abs(acc))

    def test_vector_oracle(self, small_grid, rng):
        f = random_vector(small_grid, rng)
        g2 = random_vector(small_grid, rng)
        acc = sum(a * b for a, b in zip(f.values, g2.values)) * small_grid.cell_area
        assert abs(inner_product(f, g2) - acc) <= 1e-13 * max(1.0, abs(acc))

    def test_exact_symmetry(self, channel_grid, rng):
        for _ in range(5):
            f = random_vector(channel_grid, rng)
            g2 = random_vector(channel_grid, rng)
            assert inner_product(f, g2) == inner_product(g2, f)

    def test_bilinearity(self, small_grid, rng):
        f = random_scalar(small_grid, rng)
        h = random_scalar(small_grid, rng)
        g2 = random_scalar(small_grid, rng)
        a, b = 0.37, -2.2
        lhs = inner_product(a * f + b * h, g2)
        rhs = a * inner_product(f, g2) + b * inner_product(h, g2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_positive_definite(self, small_grid, rng):
        f = random_scalar(small_grid, rng)
        assert inner_product(f, f) > 0
        z = Field.scalar(small_grid)
        assert inner_product(z, z) == 0.0

    def test_kind_mismatch_raises(self, small_grid):
        with pytest.raises(ShapeError):
            inner_product(Field.scalar(small_grid), Field.vector2(small_grid))

    def test_grid_mismatch_raises(self, small_grid, channel_grid):
        with pytest.raises(ShapeError):
            inner_product(Field.scalar(small_grid), Field.scalar(channel_grid))


class TestNorm:
    def test_zero_field(self, small_grid):
        assert l2_norm(Field.scalar(small_grid)) == 0.0

    def test_unit_constant(self, small_grid):
        f = Field.scalar(small_grid, np.ones(small_grid.n_scalar))
        assert l2_norm(f) == pytest.approx(1.0, rel=1e-15)

    def test_homogeneity(self, small_grid, rng):
        f = random_scalar(small_grid, rng)
        alpha = -2.5
        assert l2_norm(alpha * f) == pytest.approx(abs(alpha) * l2_norm(f), rel=1e-12)

    def test_triangle_inequality(self, small_grid, rng):
        for _ in range(10):
            f = random_scalar(small_grid, rng)
            g2 = random_scalar(small_grid, rng)
            assert l2_norm(f + g2) <= l2_norm(f) + l2_norm(g2) + 1e-12


class TestField:
    def test_wrong_length_rejected(self, small_grid):
        with pytest.raises(ShapeError):
            Field.scalar(small_grid, np.zeros(small_grid.n_scalar + 1))

    def test_non_finite_rejected(self, small_grid):
        vals = np.zeros(small_grid.n_scalar)
        vals[3] = np.nan
        with pytest.raises(ShapeError):
            Field.scalar(small_grid, vals)

    def test_immutable(self, small_grid):
        f = Field.scalar(small_grid)
        with pytest.raises(ValueError):
            f.values[0] = 1.0
        with pytest.raises(AttributeError):
            f.kind = "vector2"

    def test_views_shapes(self, channel_grid):
        f = Field.vector2(channel_grid)
        assert f.u.shape == (channel_grid.ny, channel_grid.nx + 1)
        assert f.v.shape == (channel_grid.ny + 1, channel_grid.nx)

    def test_flux_helpers(self, channel_grid):
        g = channel_grid
        u = np.ones((g.ny, g.nx + 1))
        f = Field.vector2(g, u, None)
        assert inlet_flux(f) == pytest.approx(g.ly, rel=1e-14)
        assert outlet_flux(f, 0) == pytest.approx(g.ly, rel=1e-14)
        assert np.allclose(inlet_trace(f), 1.0)


# each side's normal faces and outward sign, written out by hand
SIDE_CASES = [
    ("left", lambda u, v: u[:, 0], -1.0, "hy", "hx"),
    ("right", lambda u, v: u[:, -1], 1.0, "hy", "hx"),
    ("bottom", lambda u, v: v[0, :], -1.0, "hx", "hy"),
    ("top", lambda u, v: v[-1, :], 1.0, "hx", "hy"),
]


@pytest.mark.parametrize("side, faces, outward, measure, spacing", SIDE_CASES)
def test_side_table(side, faces, outward, measure, spacing, rng):
    g = Grid(5, 4, 1.5, 0.7, CHANNEL_TAGS)
    u, v = np.zeros((g.ny, g.nx + 1)), np.zeros((g.ny + 1, g.nx))
    vals = rng.standard_normal(faces(u, v).size)
    set_inward(u, v, side, vals)
    assert np.array_equal(faces(u, v), -outward * vals)
    assert np.count_nonzero(u) + np.count_nonzero(v) == vals.size
    assert g.side_measure(side) == getattr(g, measure)
    assert g.normal_spacing(side) == getattr(g, spacing)
    inflow = float(np.sum(vals)) * g.side_measure(side)
    assert normal_flux(g, u, v, side) == pytest.approx(-inflow, rel=1e-14)
    assert side_flux(Field.vector2(g, u, v), side) == normal_flux(g, u, v, side)


class TestSnapshotSet:
    def _make(self, grid, rng, m=3):
        times = np.linspace(0.0, 1.0, m)
        vel = [random_vector(grid, rng) for _ in range(m)]
        pres = [random_scalar(grid, rng) for _ in range(m)]
        op = rng.standard_normal((m, 1))
        return SnapshotSet(times, vel, pres, nu=3.7e-6, waveform={"kind": "pulse"}, outlet_pressure=op)

    def test_roundtrip_bit_identical(self, small_grid, rng, tmp_path):
        s = self._make(small_grid, rng)
        s.save(tmp_path / "snaps")
        s2 = SnapshotSet.load(tmp_path / "snaps")
        assert np.array_equal(s.times, s2.times)
        assert s2.nu == s.nu
        for a, b in zip(s.velocity, s2.velocity):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(s.pressure, s2.pressure):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(s.outlet_pressure, s2.outlet_pressure)

    def test_rows_are_read_only_views(self, small_grid, rng):
        s = self._make(small_grid, rng)
        assert s.velocity.values.shape == (3, small_grid.n_vector)
        assert s.pressure.values.shape == (3, small_grid.n_scalar)
        f = s.velocity[1]
        assert isinstance(f, Field) and f.kind == "vector2"
        assert np.shares_memory(f.values, s.velocity.values)
        assert np.array_equal(f.values, s.velocity.values[1])
        with pytest.raises(ValueError):
            f.values[0] = 1.0
        with pytest.raises(ValueError):
            s.pressure.values[0, 0] = 1.0
        sub = s.take(slice(1, None))
        assert np.array_equal(sub.times, s.times[1:])
        assert np.array_equal(sub.velocity.values, s.velocity.values[1:])
        assert np.array_equal(sub.outlet_pressure, s.outlet_pressure[1:])

    def test_non_finite_rows_rejected(self, small_grid):
        vals = np.zeros((2, small_grid.n_scalar))
        vals[1, 3] = np.nan
        with pytest.raises(ShapeError):
            FieldRows(small_grid, "scalar", vals)

    def test_meta_uses_decimal_strings(self, small_grid, rng, tmp_path):
        s = self._make(small_grid, rng)
        s.save(tmp_path / "snaps")
        meta = json.loads((tmp_path / "snaps" / "meta.json").read_text())
        assert isinstance(meta["nu"], str) and float(meta["nu"]) == s.nu
        assert all(isinstance(t, str) for t in meta["times"])

    def test_missing_row_file_rejected(self, small_grid, rng, tmp_path):
        self._make(small_grid, rng).save(tmp_path / "snaps")
        (tmp_path / "snaps" / "u_000001.bin").unlink()
        with pytest.raises(FormatError, match="u_000001.bin"):
            SnapshotSet.load(tmp_path / "snaps")

    def test_length_mismatch_rejected(self, small_grid, rng):
        with pytest.raises(ShapeError):
            SnapshotSet(
                [0.0, 1.0],
                [random_vector(small_grid, rng)],
                [random_scalar(small_grid, rng), random_scalar(small_grid, rng)],
                nu=1e-3,
            )

    def test_times_must_increase(self, small_grid, rng):
        with pytest.raises(ShapeError):
            SnapshotSet(
                [0.0, 0.0],
                [random_vector(small_grid, rng)] * 2,
                [random_scalar(small_grid, rng)] * 2,
                nu=1e-3,
            )
