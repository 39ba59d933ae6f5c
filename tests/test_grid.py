import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from romkit.errors import ConfigurationError, FormatError, ShapeError
from romkit.grid import (
    SIDES,
    Field,
    FieldRows,
    Grid,
    SnapshotSet,
    build_grid,
    inlet_flux,
    inlet_trace,
    inner_product,
    l2_norm,
    load_arrays,
    normal_flux,
    outlet_flux,
    save_arrays,
    set_inward,
    side_flux,
)

from conftest import CHANNEL_TAGS, layouts, random_scalar, random_vector


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
        assert g.outlets == ((0, "right"), (1, "top"))


@settings(max_examples=40, deadline=None)
@given(layouts())
def test_cached_boundary_data(grid):
    """The boundary data a Grid computes once equals a fresh computation from
    its tags, every piece of it refuses a write, and a pickled or deep-copied
    Grid recomputes it."""
    outlets = sorted((int(t.split("_")[1]), s) for s, t in grid.tags.items()
                     if t.startswith("outlet_"))
    assert grid.outlets == tuple(outlets)
    assert grid.wall_sides == tuple(s for s in SIDES if grid.tags[s] == "wall")
    assert dict(grid.ghost_sign) == {s: 1.0 if grid.tags[s].startswith("outlet_") else -1.0
                                     for s in SIDES}
    mu, mv = np.ones((grid.ny, grid.nx + 1), bool), np.ones((grid.ny + 1, grid.nx), bool)
    fixed = {"left": mu[:, 0], "right": mu[:, -1], "bottom": mv[0, :], "top": mv[-1, :]}
    for side in SIDES:
        if not grid.tags[side].startswith("outlet_"):
            fixed[side][:] = False
    for got, want in zip(grid.advanced_masks + grid.fixed_masks, (mu, mv, ~mu, ~mv)):
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0, 0] = not got[0, 0]
    assert grid.outlets is grid.outlets and grid.advanced_masks is grid.advanced_masks
    with pytest.raises(TypeError):
        grid.ghost_sign["left"] = 0.0
    with pytest.raises(TypeError):
        grid.outlets[0] = (9, "left")
    for twin in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid)):
        assert twin == grid and twin.outlets == grid.outlets
        assert np.array_equal(twin.advanced_masks[0], grid.advanced_masks[0])


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

    def test_meta_holds_scalars_and_shapes(self, small_grid, rng, tmp_path):
        s = self._make(small_grid, rng)
        s.save(tmp_path / "snaps")
        meta = json.loads((tmp_path / "snaps" / "meta.json").read_text())
        assert meta["nu"] == s.nu and "times" not in meta
        assert meta["arrays"] == {"times": [3], "u": [3, small_grid.n_vector],
                                  "p": [3, small_grid.n_scalar], "outlet_pressure": [3, 1]}

    def test_array_files_hold_raw_rows(self, small_grid, rng, tmp_path):
        s = self._make(small_grid, rng)
        s.save(tmp_path / "snaps")
        assert sorted(p.name for p in (tmp_path / "snaps").iterdir()) == \
            ["meta.json", "outlet_pressure.bin", "p.bin", "times.bin", "u.bin"]
        raw = (tmp_path / "snaps" / "u.bin").read_bytes()
        assert raw == s.velocity.values.astype("<f8").tobytes()

    def test_missing_row_file_rejected(self, small_grid, rng, tmp_path):
        self._make(small_grid, rng).save(tmp_path / "snaps")
        (tmp_path / "snaps" / "u.bin").unlink()
        with pytest.raises(FormatError, match="u.bin"):
            SnapshotSet.load(tmp_path / "snaps")

    def test_truncated_array_file_rejected(self, small_grid, rng, tmp_path):
        self._make(small_grid, rng).save(tmp_path / "snaps")
        u_bin = tmp_path / "snaps" / "u.bin"
        u_bin.write_bytes(u_bin.read_bytes()[:-8])
        with pytest.raises(FormatError, match="u.bin"):
            SnapshotSet.load(tmp_path / "snaps")

    def test_old_format_rejected(self, small_grid, rng, tmp_path):
        # the version-1 layout: one u_%06d.bin / p_%06d.bin file per snapshot
        s = self._make(small_grid, rng)
        s.save(tmp_path / "snaps")
        d = tmp_path / "snaps"
        for m in range(len(s)):
            (d / f"u_{m:06d}.bin").write_bytes(s.velocity.values[m].tobytes())
            (d / f"p_{m:06d}.bin").write_bytes(s.pressure.values[m].tobytes())
        (d / "u.bin").unlink()
        (d / "p.bin").unlink()
        meta = json.loads((d / "meta.json").read_text())
        (d / "meta.json").write_text(json.dumps({**meta, "format": "romkit-snapshots-1"}))
        with pytest.raises(FormatError, match="romkit-snapshots-1"):
            SnapshotSet.load(d)

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


class TestArrayFiles:
    """save_arrays/load_arrays, the one on-disk format of every bundle part."""

    ARRAYS = {"x": np.array([0.1, -0.0, 5e-324, 1.7976931348623157e308]),
              "cube": np.arange(24.0).reshape(2, 3, 4) / 7.0,
              "empty": np.zeros((5, 0)),
              "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3) / 3.0)}

    def _save(self, tmp_path):
        d = tmp_path / "part"
        save_arrays(d, "romkit-test-1", {"nu": 0.1 + 0.2, "tags": {"left": "inlet"}}, self.ARRAYS)
        return d

    def test_roundtrip_bit_exact(self, tmp_path):
        d = self._save(tmp_path)
        meta, arrays = load_arrays(d, "romkit-test-1")
        assert meta == {"format": "romkit-test-1", "nu": 0.1 + 0.2, "tags": {"left": "inlet"}}
        assert list(arrays) == list(self.ARRAYS)
        for name, a in self.ARRAYS.items():
            assert arrays[name].dtype == np.float64 and arrays[name].shape == a.shape
            assert arrays[name].tobytes() == np.ascontiguousarray(a).tobytes(), name
        # raw little-endian float64 in C order, nothing else
        assert (d / "fortran.bin").read_bytes() == np.ascontiguousarray(
            self.ARRAYS["fortran"], "<f8").tobytes()
        assert sorted(p.name for p in d.iterdir()) == [
            "cube.bin", "empty.bin", "fortran.bin", "meta.json", "x.bin"]

    @pytest.mark.parametrize("edit", ["truncated", "long", "deleted"])
    def test_bad_array_file_named(self, tmp_path, edit):
        d = self._save(tmp_path)
        path = d / "cube.bin"
        if edit == "deleted":
            path.unlink()
        else:
            raw = path.read_bytes()
            path.write_bytes(raw[:-1] if edit == "truncated" else raw + bytes(8))
        with pytest.raises(FormatError, match="cube.bin"):
            load_arrays(d, "romkit-test-1")

    def test_missing_meta_and_wrong_format(self, tmp_path):
        with pytest.raises(FormatError, match="meta.json"):
            load_arrays(tmp_path / "nowhere", "romkit-test-1")
        d = self._save(tmp_path)
        with pytest.raises(FormatError, match="romkit-test-1"):
            load_arrays(d, "romkit-test-2")
