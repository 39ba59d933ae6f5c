"""Structured staggered (MAC) grid, field rows, boundary fluxes and array files.

Layout for an ``nx x ny`` cell grid over ``[0, lx] x [0, ly]``:

    scalars  p[j, i]  at cell centers   x=(i+0.5)hx, y=(j+0.5)hy   shape (ny, nx)
    u[j, i]           at x-faces        x=i*hx,      y=(j+0.5)hy   shape (ny, nx+1)
    v[j, i]           at y-faces        x=(i+0.5)hx, y=j*hy        shape (ny+1, nx)

A field is one flat float64 vector in this layout (u block then v block for
vector fields).  Snapshot sets, bases and liftings hold M fields of one kind
as the rows of a single read-only (M, n) array (``FieldRows``); ``rows[m]``
is a ``Field``, the (grid, kind, values) view of row m, without a copy.
Boundary fluxes are read off the face arrays (``normal_flux``).  Every part
of a bundle is stored by ``save_arrays``: a meta.json plus one raw float64
file per array; every CSV table romkit writes goes through ``write_table``.

The discrete L2 norm (``l2_norm``) is the sum of squares over unknowns times
the cell area hx*hy, for both scalar and vector fields.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, FormatError, ShapeError

SIDES = ("left", "right", "bottom", "top")
# The boundary geometry, in one place.  SIDE_INDEX[side] picks the side's
# boundary column (left/right) or row (bottom/top) of any cell or face array;
# OUTWARD[side] is the sign of the outward normal along the face-normal axis.
SIDE_INDEX = {"left": np.s_[:, 0], "right": np.s_[:, -1],
              "bottom": np.s_[0, :], "top": np.s_[-1, :]}
OUTWARD = {"left": -1.0, "right": 1.0, "bottom": -1.0, "top": 1.0}
_X_NORMAL = ("left", "right")   # sides whose normal faces are x-faces (the u array)
_OUTLET_RE = re.compile(r"^outlet_(\d+)$")


def _tag_ok(tag: str) -> bool:
    return tag in ("inlet", "wall") or _OUTLET_RE.match(tag) is not None


@dataclass(frozen=True)
class Grid:
    """Uniform MAC grid with one boundary tag per side."""

    nx: int
    ny: int
    lx: float
    ly: float
    tags: Mapping[str, str]

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ConfigurationError(f"need nx, ny >= 3, got {self.nx} x {self.ny}")
        if not (0 < self.lx < math.inf and 0 < self.ly < math.inf):
            raise ConfigurationError(f"lx, ly must be positive and finite, got {self.lx} x {self.ly}")
        missing = [s for s in SIDES if s not in self.tags]
        if missing:
            raise ConfigurationError(f"boundary sides without a tag: {missing}")
        extra = [s for s in self.tags if s not in SIDES]
        if extra:
            raise ConfigurationError(f"unknown boundary sides: {extra}")
        bad = {s: t for s, t in self.tags.items() if not _tag_ok(t)}
        if bad:
            raise ConfigurationError(f"invalid boundary tags: {bad}")
        ks = [int(_OUTLET_RE.match(t).group(1)) for t in self.tags.values() if _OUTLET_RE.match(t)]
        if len(ks) != len(set(ks)):
            raise ConfigurationError(f"duplicate outlet indices in tags: {sorted(ks)}")
        if "inlet" not in self.tags.values():
            raise ConfigurationError("grid needs at least one inlet side")
        if not ks:
            raise ConfigurationError("grid needs at least one outlet side")
        object.__setattr__(self, "tags", dict(self.tags))

    # -- geometry -----------------------------------------------------------
    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def n_scalar(self) -> int:
        return self.nx * self.ny

    @property
    def n_u(self) -> int:
        return self.ny * (self.nx + 1)

    @property
    def n_v(self) -> int:
        return (self.ny + 1) * self.nx

    @property
    def n_vector(self) -> int:
        return self.n_u + self.n_v

    # -- boundary bookkeeping ------------------------------------------------
    def sides_with(self, tag: str) -> list[str]:
        return [s for s in SIDES if self.tags[s] == tag]

    @property
    def inlet_sides(self) -> list[str]:
        return self.sides_with("inlet")

    @property
    def inlet_side(self) -> str:
        sides = self.inlet_sides
        if len(sides) != 1:
            raise ConfigurationError(f"exactly one inlet side required, got {sides}")
        return sides[0]

    # Boundary data that depends only on the tags, computed once per Grid and
    # handed out read-only (tuples, a mapping proxy, frozen arrays).
    @cached_property
    def outlets(self) -> tuple[tuple[int, str], ...]:
        """Sorted (index, side) pairs of all outlet_k tags."""
        return tuple(sorted((int(m.group(1)), s) for s in SIDES
                            if (m := _OUTLET_RE.match(self.tags[s]))))

    @cached_property
    def wall_sides(self) -> tuple[str, ...]:
        return tuple(self.sides_with("wall"))

    @cached_property
    def ghost_sign(self) -> Mapping[str, float]:
        """Ghost multiplier of the tangential velocity across each side: +1 on
        outlets (zero gradient), -1 on walls and the inlet (value 0)."""
        return MappingProxyType({s: 1.0 if _OUTLET_RE.match(self.tags[s]) else -1.0
                                 for s in SIDES})

    @cached_property
    def advanced_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Boolean masks of the u/v faces the momentum equation advances:
        every face but the normal faces of the inlet and wall sides."""
        mu = np.ones((self.ny, self.nx + 1), dtype=bool)
        mv = np.ones((self.ny + 1, self.nx), dtype=bool)
        for side in SIDES:
            if not _OUTLET_RE.match(self.tags[side]):
                normal_faces(mu, mv, side)[SIDE_INDEX[side]] = False
        return _frozen(mu), _frozen(mv)

    @cached_property
    def fixed_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Complements of ``advanced_masks``: the faces that hold boundary data."""
        return tuple(_frozen(~m) for m in self.advanced_masks)

    def outlet_side(self, k: int) -> str:
        for kk, s in self.outlets:
            if kk == k:
                return s
        raise ConfigurationError(f"no outlet_{k} in grid tags")

    def side_measure(self, side: str) -> float:
        """Face length along the given side (hy for left/right, hx otherwise)."""
        return self.hy if side in _X_NORMAL else self.hx

    def side_area(self, side: str) -> float:
        return self.ly if side in _X_NORMAL else self.lx

    def normal_spacing(self, side: str) -> float:
        """Cell width across the given side (hx for left/right, hy otherwise)."""
        return self.hx if side in _X_NORMAL else self.hy

    def _key(self) -> tuple:
        return (self.nx, self.ny, self.lx, self.ly, tuple(sorted(self.tags.items())))

    def __getstate__(self):
        # pickle and copy the fields only; the cached boundary data (a mapping
        # proxy among it) is recomputed on first use
        return {name: getattr(self, name) for name in ("nx", "ny", "lx", "ly", "tags")}

    def __eq__(self, other):
        return isinstance(other, Grid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_grid(nx: int, ny: int, lx: float, ly: float, tags: Mapping[str, str]) -> Grid:
    """Construct a validated grid; derived spacings are hx=lx/nx, hy=ly/ny."""
    return Grid(int(nx), int(ny), float(lx), float(ly), tags)


@dataclass(frozen=True, eq=False)
class Field:
    """Row m of a FieldRows: its grid, its kind and a read-only view of the row."""

    grid: Grid
    kind: str
    values: np.ndarray


def l2_norm(f: Field) -> float:
    """Discrete L2 norm of a row: the square root of its sum of squares times
    the cell area."""
    return float(np.sqrt(float(np.dot(f.values, f.values)) * f.grid.cell_area))


# -- boundary traces and fluxes ----------------------------------------------

def normal_faces(u: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
    """The face array normal to `side`: u for left/right, v for bottom/top."""
    return u if side in _X_NORMAL else v


def set_inward(u: np.ndarray, v: np.ndarray, side: str, values) -> None:
    """Write inward-positive normal velocities onto the faces of `side`, in place."""
    normal_faces(u, v, side)[SIDE_INDEX[side]] = -OUTWARD[side] * values


def normal_flux(grid: Grid, u: np.ndarray, v: np.ndarray, side: str) -> float:
    """Outward volume flux of the face arrays (u, v) through `side`."""
    vals = normal_faces(u, v, side)[SIDE_INDEX[side]]
    return OUTWARD[side] * float(np.sum(vals)) * grid.side_measure(side)


def write_table(out, header: Sequence[str], rows, line_end: str = "\n") -> None:
    """Write a CSV table, the header line and then one line per row, to a file
    path or an open text stream.  A float cell is written as repr(float(x)),
    None as an empty cell and anything else as str(x)."""
    def cell(x) -> str:
        if x is None:
            return ""
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    text = "".join(",".join(map(cell, row)) + line_end for row in [header, *rows])
    if isinstance(out, (str, os.PathLike)):
        Path(out).write_text(text, newline="")
    else:
        out.write(text)


def read_file(path) -> bytearray:
    """The bytes of a file, in a writable buffer (arrays parsed from it stay
    writable)."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
    return data


# -- snapshot containers -------------------------------------------------------

class FieldRows(Sequence):
    """M fields of one kind and grid as the rows of one read-only (M, n) array.

    The array is taken over (copied only if it is not C-contiguous float64)
    and frozen in place.  ``rows[m]`` is a Field view of row m; slices and
    index arrays give FieldRows.
    """

    __slots__ = ("grid", "kind", "values")

    def __init__(self, grid: Grid, kind: str, values):
        n = {"scalar": grid.n_scalar, "vector2": grid.n_vector}.get(kind)
        if n is None:
            raise ShapeError(f"unknown field kind {kind!r}")
        vals = np.require(values, np.float64, "C")
        if vals.ndim != 2 or vals.shape[1] != n:
            raise ShapeError(f"{kind} rows need shape (M, {n}), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ShapeError(f"{kind} rows contain non-finite entries")
        vals.flags.writeable = False
        self.grid, self.kind, self.values = grid, kind, vals

    def __len__(self):
        return self.values.shape[0]

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return Field(self.grid, self.kind, self.values[i])
        return FieldRows(self.grid, self.kind, self.values[i])


@dataclass(eq=False)
class SnapshotSet:
    """Time-ordered velocity/pressure snapshots plus run metadata.

    ``velocity`` and ``pressure`` are FieldRows: ``velocity.values`` is the
    (M, n_vector) array.  ``outlet_pressure[m, k]`` is the outflow-pressure
    datum of outlet k that was in force when snapshot m was recorded (the
    series the neural network trains on).
    """

    times: np.ndarray
    velocity: FieldRows
    pressure: FieldRows
    nu: float
    waveform: dict | None = None
    outlet_pressure: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        m = self.times.size
        if m < 1:
            raise ShapeError("SnapshotSet needs at least one snapshot")
        if len(self.velocity) != m or len(self.pressure) != m:
            raise ShapeError(
                f"snapshot counts differ: {m} times, "
                f"{len(self.velocity)} velocity, {len(self.pressure)} pressure"
            )
        if m > 1 and not np.all(np.diff(self.times) > 0):
            raise ShapeError("snapshot times must be strictly increasing")
        if not isinstance(self.velocity, FieldRows) or self.velocity.kind != "vector2":
            raise ShapeError("velocity snapshots must be vector2 FieldRows")
        if (not isinstance(self.pressure, FieldRows) or self.pressure.kind != "scalar"
                or self.pressure.grid != self.velocity.grid):
            raise ShapeError("pressure snapshots must be scalar FieldRows on the velocity grid")
        if self.outlet_pressure is not None:
            op = np.asarray(self.outlet_pressure, dtype=np.float64)
            if op.ndim == 1:
                op = op[:, None]
            if op.shape[0] != m:
                raise ShapeError("outlet_pressure rows must match snapshot count")
            self.outlet_pressure = op

    @property
    def grid(self) -> Grid:
        return self.velocity.grid

    def __len__(self):
        return self.times.size

    def take(self, rows) -> "SnapshotSet":
        """The snapshots at a slice or index array of rows."""
        op = None if self.outlet_pressure is None else self.outlet_pressure[rows]
        return SnapshotSet(self.times[rows], self.velocity[rows], self.pressure[rows],
                           self.nu, self.waveform, op)

    # -- persistence: times, u, p and outlet_pressure as array files
    def save(self, directory) -> None:
        g = self.grid
        arrays = {"times": self.times, "u": self.velocity.values, "p": self.pressure.values}
        if self.outlet_pressure is not None:
            arrays["outlet_pressure"] = self.outlet_pressure
        save_arrays(directory, "romkit-snapshots-3",
                    {"nx": g.nx, "ny": g.ny, "lx": g.lx, "ly": g.ly, "tags": dict(g.tags),
                     "nu": float(self.nu), "waveform": self.waveform}, arrays)

    @classmethod
    def load(cls, directory, read=read_file) -> "SnapshotSet":
        meta, arrays = load_arrays(directory, "romkit-snapshots-3", read)
        grid = Grid(meta["nx"], meta["ny"], meta["lx"], meta["ly"], meta["tags"])
        return cls(arrays["times"], FieldRows(grid, "vector2", arrays["u"]),
                   FieldRows(grid, "scalar", arrays["p"]), meta["nu"], meta["waveform"],
                   arrays.get("outlet_pressure"))


def snapshot_matrix(rows: FieldRows) -> np.ndarray:
    """A writable copy of the (M, n) array of the rows.  Nothing in romkit
    calls it; perfbench/spans.py traces it here, in pod and in rom."""
    return np.array(rows.values)


# -- array files: the one on-disk format of every bundle part ------------------

def save_arrays(directory, fmt: str, meta: dict, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``directory/meta.json`` (the format string, ``meta`` and each
    array's shape) and one raw little-endian float64 C-order ``<name>.bin``
    per array."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    shapes = {}
    for name, a in arrays.items():
        a = np.ascontiguousarray(a, "<f8")
        (d / f"{name}.bin").write_bytes(a.tobytes())
        shapes[name] = list(a.shape)
    (d / "meta.json").write_text(json.dumps({"format": fmt, **meta, "arrays": shapes}, indent=1))


def load_arrays(directory, fmt: str, read=read_file) -> tuple[dict, dict]:
    """(meta, arrays) of a directory ``save_arrays`` wrote in format ``fmt``;
    FormatError names the meta.json that is missing or of another format, or
    the array file that is missing or does not hold its recorded shape.
    ``read(path)`` returns a file's bytes (a caller that has already read and
    checked them hands them over) and raises FileNotFoundError for a missing
    file."""
    d = Path(directory)
    try:
        meta = json.loads(read(d / "meta.json"))
    except FileNotFoundError:
        raise FormatError(f"no meta.json under {d}") from None
    if meta.get("format") != fmt:
        raise FormatError(f"{d / 'meta.json'}: format {meta.get('format')!r}, not {fmt!r}")
    arrays = {}
    for name, shape in meta.pop("arrays").items():
        path = d / f"{name}.bin"
        try:
            data = read(path)
        except FileNotFoundError:
            raise FormatError(f"missing array file {path}") from None
        if len(data) != 8 * math.prod(shape):
            raise FormatError(f"{path} holds {len(data)} bytes, not a {tuple(shape)} float64 array")
        arrays[name] = np.frombuffer(data, "<f8").reshape(shape)
    return meta, arrays
