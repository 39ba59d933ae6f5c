"""Structured staggered (MAC) grid, discrete fields and L2 inner products.

Layout for an ``nx x ny`` cell grid over ``[0, lx] x [0, ly]``:

    scalars  p[j, i]  at cell centers   x=(i+0.5)hx, y=(j+0.5)hy   shape (ny, nx)
    u[j, i]           at x-faces        x=i*hx,      y=(j+0.5)hy   shape (ny, nx+1)
    v[j, i]           at y-faces        x=(i+0.5)hx, y=j*hy        shape (ny+1, nx)

A ``Field`` stores one flat float64 vector in this layout (u block then v
block for vector fields).  Fields are immutable after construction so they
can be shared freely across threads; all operations on them are pure.
Snapshot sets and bases hold M fields of one kind as the rows of a single
read-only (M, n) array (``FieldRows``); indexing it yields Field views of
the rows without copying.

The discrete inner product is the unweighted L2 sum over unknowns times the
cell area hx*hy, for both scalar and vector fields.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
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
        if self.lx <= 0 or self.ly <= 0:
            raise ConfigurationError(f"domain lengths must be positive, got {self.lx} x {self.ly}")
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

    @property
    def outlets(self) -> list[tuple[int, str]]:
        """Sorted (index, side) pairs of all outlet_k tags."""
        out = []
        for s in SIDES:
            m = _OUTLET_RE.match(self.tags[s])
            if m:
                out.append((int(m.group(1)), s))
        return sorted(out)

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

    def __eq__(self, other):
        return isinstance(other, Grid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def build_grid(nx: int, ny: int, lx: float, ly: float, tags: Mapping[str, str]) -> Grid:
    """Construct a validated grid; derived spacings are hx=lx/nx, hy=ly/ny."""
    return Grid(int(nx), int(ny), float(lx), float(ly), tags)


class Field:
    """Immutable scalar or vector2 field on a MAC grid (flat float64 storage)."""

    __slots__ = ("grid", "kind", "values")

    def __init__(self, grid: Grid, kind: str, values):
        if kind not in ("scalar", "vector2"):
            raise ShapeError(f"unknown field kind {kind!r}")
        vals = np.asarray(values, dtype=np.float64).reshape(-1)
        expect = grid.n_scalar if kind == "scalar" else grid.n_vector
        if vals.size != expect:
            raise ShapeError(f"{kind} field needs {expect} values, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ShapeError(f"{kind} field contains non-finite entries")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def _view(cls, grid: Grid, kind: str, values: np.ndarray) -> "Field":
        """Field over a read-only row the caller has already checked."""
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "kind", kind)
        object.__setattr__(f, "values", values)
        return f

    # -- constructors ---------------------------------------------------------
    @classmethod
    def scalar(cls, grid: Grid, values=None) -> "Field":
        if values is None:
            values = np.zeros(grid.n_scalar)
        return cls(grid, "scalar", values)

    @classmethod
    def vector2(cls, grid: Grid, u=None, v=None) -> "Field":
        uu = np.zeros((grid.ny, grid.nx + 1)) if u is None else np.asarray(u, dtype=np.float64)
        vv = np.zeros((grid.ny + 1, grid.nx)) if v is None else np.asarray(v, dtype=np.float64)
        if uu.shape != (grid.ny, grid.nx + 1) or vv.shape != (grid.ny + 1, grid.nx):
            raise ShapeError(
                f"vector2 components need shapes {(grid.ny, grid.nx + 1)} and "
                f"{(grid.ny + 1, grid.nx)}, got {uu.shape} and {vv.shape}"
            )
        return cls(grid, "vector2", np.concatenate([uu.ravel(), vv.ravel()]))

    # -- views ---------------------------------------------------------------
    @property
    def u(self) -> np.ndarray:
        if self.kind != "vector2":
            raise ShapeError("u view only exists for vector2 fields")
        return self.values[: self.grid.n_u].reshape(self.grid.ny, self.grid.nx + 1)

    @property
    def v(self) -> np.ndarray:
        if self.kind != "vector2":
            raise ShapeError("v view only exists for vector2 fields")
        return self.values[self.grid.n_u :].reshape(self.grid.ny + 1, self.grid.nx)

    @property
    def c(self) -> np.ndarray:
        if self.kind != "scalar":
            raise ShapeError("c view only exists for scalar fields")
        return self.values.reshape(self.grid.ny, self.grid.nx)

    # -- arithmetic (pure, returns new Field) ---------------------------------
    def _check_mate(self, other: "Field"):
        if not isinstance(other, Field):
            raise ShapeError(f"cannot combine Field with {type(other).__name__}")
        if other.kind != self.kind or other.grid != self.grid:
            raise ShapeError("field kind/grid mismatch")

    def __add__(self, other: "Field") -> "Field":
        self._check_mate(other)
        return Field(self.grid, self.kind, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_mate(other)
        return Field(self.grid, self.kind, self.values - other.values)

    def __mul__(self, alpha) -> "Field":
        return Field(self.grid, self.kind, self.values * float(alpha))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, self.kind, -self.values)

    def __repr__(self):
        return f"Field({self.kind}, {self.grid.nx}x{self.grid.ny})"


def inner_product(f: Field, g: Field) -> float:
    """Discrete L2 inner product: sum over unknowns of f*g times cell area."""
    if f.kind != g.kind or f.grid != g.grid:
        raise ShapeError("inner_product needs fields of the same kind on the same grid")
    return float(np.dot(f.values, g.values)) * f.grid.cell_area


def l2_norm(f: Field) -> float:
    return float(np.sqrt(inner_product(f, f)))


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


def side_flux(f: Field, side: str) -> float:
    """Outward volume flux through a side (sum of normal values times face length)."""
    return normal_flux(f.grid, f.u, f.v, side)


def inlet_trace(f: Field) -> np.ndarray:
    """Inward-positive normal values on the (single) inlet side."""
    side = f.grid.inlet_side
    return -OUTWARD[side] * normal_faces(f.u, f.v, side)[SIDE_INDEX[side]]


def inlet_flux(f: Field) -> float:
    return -side_flux(f, f.grid.inlet_side)


def outlet_flux(f: Field, k: int) -> float:
    return side_flux(f, f.grid.outlet_side(k))


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
            return Field._view(self.grid, self.kind, self.values[i])
        return FieldRows(self.grid, self.kind, self.values[i])


def field_rows(fields) -> FieldRows:
    """``fields`` itself if it is a FieldRows, else the stack of its Fields."""
    if isinstance(fields, FieldRows):
        return fields
    fields = list(fields)
    if not fields:
        raise ShapeError("empty field list")
    g, kind = fields[0].grid, fields[0].kind
    if any(f.grid != g or f.kind != kind for f in fields):
        raise ShapeError("fields must share one grid and kind")
    return FieldRows(g, kind, snapshot_matrix(fields))


@dataclass(eq=False)
class SnapshotSet:
    """Time-ordered velocity/pressure snapshots plus run metadata.

    ``velocity`` and ``pressure`` are FieldRows (given as FieldRows or as
    sequences of Fields): ``velocity.values`` is the (M, n_vector) array,
    ``velocity[m]`` a Field view of snapshot m.  ``outlet_pressure[m, k]``
    is the outflow-pressure datum of outlet k that was in force when
    snapshot m was recorded (the series the neural network trains on).
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
        self.velocity = field_rows(self.velocity)
        self.pressure = field_rows(self.pressure)
        if self.velocity.kind != "vector2":
            raise ShapeError("velocity snapshots must be vector2 fields")
        if self.pressure.kind != "scalar" or self.pressure.grid != self.velocity.grid:
            raise ShapeError("pressure snapshots must be scalar on the velocity grid")
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

    # -- persistence: meta.json + one raw little-endian float64 file per field
    def save(self, directory) -> None:
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        g = self.grid
        meta = {
            "format": "romkit-snapshots-1",
            "nx": g.nx,
            "ny": g.ny,
            "lx": repr(g.lx),
            "ly": repr(g.ly),
            "tags": dict(g.tags),
            "times": [repr(float(t)) for t in self.times],
            "nu": repr(float(self.nu)),
            "waveform": self.waveform,
            "outlet_pressure": None
            if self.outlet_pressure is None
            else [[repr(float(x)) for x in row] for row in self.outlet_pressure],
        }
        (d / "meta.json").write_text(json.dumps(meta, indent=1))
        for m in range(len(self)):
            (d / f"u_{m:06d}.bin").write_bytes(self.velocity.values[m].astype("<f8").tobytes())
            (d / f"p_{m:06d}.bin").write_bytes(self.pressure.values[m].astype("<f8").tobytes())

    @classmethod
    def load(cls, directory) -> "SnapshotSet":
        d = Path(directory)
        try:
            meta = json.loads((d / "meta.json").read_text())
        except FileNotFoundError:
            raise FormatError(f"no meta.json under {d}")
        if meta.get("format") != "romkit-snapshots-1":
            raise FormatError(f"unsupported snapshot format {meta.get('format')!r}")
        grid = Grid(meta["nx"], meta["ny"], float(meta["lx"]), float(meta["ly"]), meta["tags"])
        times = np.array([float(t) for t in meta["times"]])
        vel = _load_rows(grid, "vector2", [d / f"u_{m:06d}.bin" for m in range(times.size)])
        pres = _load_rows(grid, "scalar", [d / f"p_{m:06d}.bin" for m in range(times.size)])
        op = meta.get("outlet_pressure")
        if op is not None:
            op = np.array([[float(x) for x in row] for row in op])
        return cls(times, vel, pres, float(meta["nu"]), meta.get("waveform"), op)


def _load_rows(grid: Grid, kind: str, paths) -> FieldRows:
    """FieldRows from raw little-endian float64 files, one file per row."""
    out = np.empty((len(paths), grid.n_scalar if kind == "scalar" else grid.n_vector))
    for m, path in enumerate(paths):
        try:
            row = np.frombuffer(path.read_bytes(), dtype="<f8")
        except FileNotFoundError:
            raise FormatError(f"missing row file {path}") from None
        if row.size != out.shape[1]:
            raise ShapeError(f"{path} holds {row.size} values, expected {out.shape[1]}")
        out[m] = row
    return FieldRows(grid, kind, out)


def snapshot_matrix(fields: Sequence[Field]) -> np.ndarray:
    """Stack field values as rows of an (M, n) matrix."""
    if not fields:
        raise ShapeError("empty field list")
    return np.stack([f.values for f in fields])
