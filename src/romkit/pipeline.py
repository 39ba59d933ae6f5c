"""Offline/online orchestration, bundle persistence and run reports.

offline: FOM run -> lifting -> homogenize -> POD (velocity, pressure) ->
supremizer enrichment -> operator assembly -> outflow-pressure network per
outlet -> bundle directory.  online: load bundle, integrate the reduced
system at the query times (substepping at the recorded full-order dt by
default), read the coefficients at the query instants, reconstruct those
fields, compare against the stored snapshots and write errors/timings/report
files.

A bundle directory holds rom.json (scalars and the config), one array-file
directory (grid.save_arrays) per part -- snapshots_fine, lifting, basis_u,
basis_p, operators and nn_<k> -- the loss_<k>.csv fit histories and a
manifest.json with the SHA-256 of each of them.  The training snapshots are
every train_subsample-th fine one, so they are not stored a second time.

Everything written into the bundle is deterministic given the config and
seed; wall-clock artifacts (timings.csv, report.json) live next to it and
stay outside the determinism manifest.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, ShapeError
from .fom import FomConfig, FomResult, Waveform, fom_run
from .grid import SIDES, Grid, SnapshotSet, read_file, write_table
from .lifting import LiftingPair, compute_lifting, homogenize
from .nn import (
    NNModel,
    fit_outflow,
    init_model,  # noqa: F401  (re-exported: the trace targets name pipeline.init_model)
    load_model,
    nn_train,  # noqa: F401  (and pipeline.nn_train)
    predict_outflow,
    save_loss_history,
    save_model,
)
from .pod import ReducedBasis, _residual, pod_basis, project_coefficients, truncation_rank
from .rom import (ReducedOperators, ReducedTrajectory, assemble_operators, integrate_rom,
                  prepare_step, reconstruct, supremizer_enrich)
from .windkessel import WindkesselParams

BUNDLE_FORMAT = "romkit-bundle-3"

DEFAULT_CONFIG = {
    # grid and tags
    "nx": "64", "ny": "16", "lx": "2.0", "ly": "0.5",
    "tag_left": "inlet", "tag_right": "outlet_0", "tag_top": "wall", "tag_bottom": "wall",
    # full-order run (desk-scaled channel: Re ~ 100, resolved pulsatile layer)
    "nu": "0.04", "dt": "2.5e-3", "t0": "0.0", "t_end": "1.8",
    "waveform": "pulse", "u_sys": "8.0", "t_cycle": "0.6", "systole_frac": "0.4",
    "inlet_shape": "plug",
    "wk_0": "35.0,590.0,8e-4",
    # snapshots: fine 0.005 grid over the last cycle; training uses every 2nd
    "snap_start": "1.2", "snap_stride": "2", "train_subsample": "2",
    "include_convection": "true",
    # reduction
    "n_u": "6", "n_p": "6", "n_u_max": "16", "n_p_max": "8",
    "lift_pressure": "true",
    # outflow-pressure curve (nn.fit_outflow): nn_split is its train fraction.
    # nn_epochs is read by nothing; it stays accepted only because the
    # perfbench warmup config (perfbench/run.py) sets it.
    "nn_epochs": "30000", "nn_split": "0.8",
    "seed": "0",
}


def _check_keys(cfg: dict) -> None:
    """Reject keys outside DEFAULT_CONFIG, ``wk_file`` and ``wk_<k>``."""
    unknown = sorted(k for k in cfg if k not in DEFAULT_CONFIG and k != "wk_file"
                     and not re.fullmatch(r"wk_\d+", k))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {unknown}")


def parse_config(source: Path | str) -> dict:
    """Flat key=value config; '#' starts a comment.  A Path is read as a file,
    a str is the config text itself.  An unreadable file and unknown keys
    raise ConfigurationError."""
    if isinstance(source, Path):
        try:
            text = source.read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {source}: {exc.strerror}") from exc
    else:
        text = source
    out = dict(DEFAULT_CONFIG)
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {ln}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = val
    _check_keys(out)
    return out


def _f(cfg, key) -> float:
    try:
        return float(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}")


def _i(cfg, key) -> int:
    try:
        return int(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}")


def _s(cfg, key) -> str:
    try:
        return str(cfg[key])
    except KeyError:
        raise ConfigurationError(f"config key {key!r} is missing") from None


def _b(cfg, key) -> bool:
    val = _s(cfg, key).lower()
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"config key {key!r}: expected a boolean, got {val!r}")


def build_grid_from_config(cfg: dict) -> Grid:
    tags = {side: _s(cfg, f"tag_{side}") for side in SIDES}
    return Grid(_i(cfg, "nx"), _i(cfg, "ny"), _f(cfg, "lx"), _f(cfg, "ly"), tags)


def build_fom_config(cfg: dict) -> FomConfig:
    grid = build_grid_from_config(cfg)
    waveform = Waveform(
        kind=_s(cfg, "waveform"),
        u_sys=_f(cfg, "u_sys"),
        t_cycle=_f(cfg, "t_cycle"),
        systole_frac=_f(cfg, "systole_frac"),
        shape=_s(cfg, "inlet_shape"),
    )
    if "wk_file" in cfg:
        from .windkessel import load_params_csv

        wk = load_params_csv(cfg["wk_file"])
    else:
        wk = {}
        for k, _ in grid.outlets:
            key = f"wk_{k}"
            if key not in cfg:
                raise ConfigurationError(f"missing Windkessel parameters {key!r}")
            parts = [p.strip() for p in str(cfg[key]).split(",")]
            if len(parts) != 3:
                raise ConfigurationError(f"{key!r} must be 'Rp,Rd,C'")
            wk[k] = WindkesselParams(*(float(p) for p in parts))
    stride = _s(cfg, "snap_stride")
    return FomConfig(
        grid=grid,
        nu=_f(cfg, "nu"),
        dt=_f(cfg, "dt"),
        t0=_f(cfg, "t0"),
        t_end=_f(cfg, "t_end"),
        waveform=waveform,
        windkessel=wk,
        snap_stride=None if stride.lower() in ("none", "inf") else _i(cfg, "snap_stride"),
        snap_start=_f(cfg, "snap_start"),
        include_convection=_b(cfg, "include_convection"),
    )


@dataclass(eq=False)
class Bundle:
    """Everything the online stage needs, plus the validation snapshots."""

    config: dict
    grid: Grid
    waveform: Waveform
    nu: float
    dt_fom: float
    train: SnapshotSet
    fine: SnapshotSet
    lifting: LiftingPair
    basis_u: ReducedBasis          # supremizer-enriched
    basis_p: ReducedBasis | None
    operators: ReducedOperators
    nn_models: dict                # outlet index -> NNModel
    fom_wall_time: float
    cycle_drift: float | None
    lift_pressure: bool
    n_u: int
    n_p: int

    @property
    def velocity_only(self) -> bool:
        return self.basis_p is None or self.n_p == 0

    def outlet_pressure_fn(self):
        """Continuous per-outlet outflow pressure from the trained networks."""
        if not self.nn_models:
            return None
        models = [self.nn_models[k] for k in sorted(self.nn_models)]
        return lambda t: np.stack([np.asarray(predict_outflow(m, t)) for m in models], axis=-1)

    def select(self, n_u: int | None = None, n_p: int | None = None):
        """(operators, basis_u, basis_p or None) of the reduced model of the
        first n_u primary velocity modes, the first n_p supremizers and the
        first n_p pressure modes; the counts default to the bundle's n_u, n_p.
        A count that is not an integer, or that the bundle does not store,
        raises ConfigurationError."""
        n_u = self.n_u if n_u is None else n_u
        n_p = self.n_p if n_p is None else n_p
        bu, bp = self.basis_u, self.basis_p
        n_prim = bu.n_primary
        p_max = min(bu.n_supremizer, 0 if bp is None else bp.n_modes)
        for name, n, lo, hi in (("n_u", n_u, 1, n_prim), ("n_p", n_p, 0, p_max)):
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not lo <= n <= hi:
                raise ConfigurationError(f"{name} must be an integer in [{lo}, {hi}], got {n!r}")
        idx = np.r_[0:n_u, n_prim:n_prim + n_p]
        basis_u = ReducedBasis(bu.modes[idx], bu.eigenvalues, bu.kind, bu.M, n_supremizer=n_p)
        basis_p = ReducedBasis(bp.modes[:n_p], bp.eigenvalues, bp.kind, bp.M) if n_p else None
        return self.operators.subset(idx, n_p), basis_u, basis_p

    # -- persistence -----------------------------------------------------------
    def save(self, directory) -> None:
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        self.fine.save(d / "snapshots_fine")
        self.lifting.save(d / "lifting")
        self.basis_u.save(d / "basis_u")
        if self.basis_p is not None:
            self.basis_p.save(d / "basis_p")
        self.operators.save(d / "operators")
        for k, model in self.nn_models.items():
            save_model(model, d / f"nn_{k}")
        rom = {
            "format": BUNDLE_FORMAT,
            "nu": self.nu,
            "dt_fom": self.dt_fom,
            "scheme": "semi-implicit-euler",
            "waveform": self.waveform.to_dict(),
            "lift_pressure": self.lift_pressure,
            "n_u": self.n_u,
            "n_p": self.n_p,
            "cycle_drift": self.cycle_drift,
            "nn_outlets": sorted(self.nn_models),
            "config": self.config,
        }
        (d / "rom.json").write_text(json.dumps(rom, indent=1))
        # wall-clock numbers vary run to run and stay outside the manifest
        (d / "runtime.json").write_text(json.dumps({"fom_wall_time": self.fom_wall_time}))
        self._write_manifest(d)

    @staticmethod
    def _manifest_files(d: Path):
        skip = {"manifest.json", "timings.csv", "report.json", "runtime.json"}
        for p in sorted(d.rglob("*")):
            if p.is_file() and p.name not in skip:
                yield p

    def _write_manifest(self, d: Path) -> None:
        files = {}
        for p in self._manifest_files(d):
            files[p.relative_to(d).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
        payload = {"format": BUNDLE_FORMAT, "files": files}
        # fom_wall_time varies run to run; hash only the deterministic artifacts
        (d / "manifest.json").write_text(json.dumps(payload, indent=1, sort_keys=True))

    @staticmethod
    def _checked_reader(d: Path):
        """read(path) over the files manifest.json names.  Each is read once and
        checked against its SHA-256 here, before any of it is used; FormatError
        for a missing or altered file, and for a read of one the manifest does
        not name."""
        try:
            files = json.loads(read_file(d / "manifest.json"))["files"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"no readable manifest.json under {d}: {exc}")
        checked = {}
        for name, digest in files.items():
            try:
                data = read_file(d / name)
            except OSError:
                raise FormatError(f"bundle file {name!r} named in manifest.json is missing")
            if hashlib.sha256(data).hexdigest() != digest:
                raise FormatError(f"bundle file {name!r} does not match its manifest hash")
            checked[d / name] = data

        def read(path: Path) -> bytearray:
            try:
                return checked[path]
            except KeyError:
                raise FormatError(f"bundle file {path} is not named in manifest.json") from None

        return read

    @classmethod
    def load(cls, directory) -> "Bundle":
        d = Path(directory)
        read = cls._checked_reader(d)
        rom = json.loads(read(d / "rom.json"))
        if rom.get("format") != BUNDLE_FORMAT:
            raise FormatError(f"unsupported bundle format {rom.get('format')!r}")
        fine = SnapshotSet.load(d / "snapshots_fine", read)
        grid = fine.grid
        lifting = LiftingPair.load(d / "lifting", grid, read)
        basis_u = ReducedBasis.load(d / "basis_u", grid, read)
        basis_p = (ReducedBasis.load(d / "basis_p", grid, read) if (d / "basis_p").exists()
                   else None)
        operators = ReducedOperators.load(d / "operators", read)
        nn_models = {int(k): load_model(d / f"nn_{k}", read) for k in rom.get("nn_outlets", [])}
        return cls(
            config=rom["config"],
            grid=grid,
            waveform=Waveform.from_dict(rom["waveform"]),
            nu=rom["nu"],
            dt_fom=rom["dt_fom"],
            train=_training_set(fine, rom["config"]),
            fine=fine,
            lifting=lifting,
            basis_u=basis_u,
            basis_p=basis_p,
            operators=operators,
            nn_models=nn_models,
            fom_wall_time=_read_fom_wall_time(d / "runtime.json"),
            cycle_drift=rom.get("cycle_drift"),
            lift_pressure=bool(rom.get("lift_pressure", True)),
            n_u=int(rom["n_u"]),
            n_p=int(rom["n_p"]),
        )


def _read_fom_wall_time(path: Path) -> float:
    """The FOM wall time in the unhashed runtime.json: NaN without the file,
    FormatError naming it when it is there but holds no number."""
    try:
        value = json.loads(path.read_text())["fom_wall_time"]
    except FileNotFoundError:
        return float("nan")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"unreadable {path.name} under {path.parent}: {exc!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{path.name} under {path.parent}: fom_wall_time {value!r} "
                          "is not a number")
    return float(value)


def _training_set(fine: SnapshotSet, cfg: dict) -> SnapshotSet:
    """Every ``train_subsample``-th fine snapshot: the set the bases and the
    outlet curves are built from.  The bundle stores only the fine set."""
    sub = _i(cfg, "train_subsample")
    return fine.take(slice(0, None, sub)) if sub > 1 else fine


def _homogenized(snaps: SnapshotSet, waveform: Waveform, lift: LiftingPair,
                lift_pressure: bool) -> SnapshotSet:
    """The snapshots minus their lifting, the outlet-pressure part only when
    ``lift_pressure`` (false is the ablation).  offline, online and compare
    all homogenize here, so they agree on which pressure lifting applies."""
    p_d = snaps.outlet_pressure if lift_pressure else None
    return homogenize(snaps, waveform.magnitude(snaps.times), p_d, lift)


def offline(config: dict | Path | str, out_dir=None, fom_result: FomResult | None = None):
    """Run the whole offline stage; returns (Bundle, timings dict).

    ``config`` is a dict of config keys, or a file Path or config text as
    parse_config reads them.  ``fom_result`` short-circuits the snapshot
    generation (used by ablation studies that share one full-order run).  Any
    stage failure is re-raised with the stage name attached.  An ``out_dir``
    this call created is removed with its partial output; one that existed
    before the call is left in place.
    """
    created = out_dir is not None and not Path(out_dir).exists()
    stage = "config"
    try:
        if isinstance(config, dict):
            cfg = {**DEFAULT_CONFIG, **config}
            _check_keys(cfg)
        else:
            cfg = parse_config(config)
        fom_cfg = build_fom_config(cfg)
        if fom_cfg.waveform.shape != "plug":
            raise ConfigurationError("the reduced pipeline requires the plug inlet shape "
                                     "(the velocity lifting carries a uniform unit trace)")
        # the reduction keys, refused here rather than after the full-order run
        for key, lo in (("n_u", 1), ("n_p", 0), ("n_u_max", 1), ("n_p_max", 0),
                        ("train_subsample", 1), ("seed", 0)):
            if _i(cfg, key) < lo:
                raise ConfigurationError(f"config key {key!r} must be >= {lo}, got {cfg[key]!r}")
        if not 0 < _f(cfg, "nn_split") < 1:
            raise ConfigurationError(f"config key 'nn_split' must lie in (0, 1), "
                                     f"got {cfg['nn_split']!r}")
        seed = _i(cfg, "seed")
        # the stages below build sparse matrices; importing scipy here keeps
        # its import time out of their timers
        import scipy.sparse  # noqa: F401
        timings = {}

        stage = "fom"
        if fom_result is None:
            fom_result = fom_run(fom_cfg)
        timings["fom"] = fom_result.wall_time
        fine = fom_result.snapshots
        train = _training_set(fine, cfg)

        stage = "lifting"
        t0 = time.perf_counter()
        lifting = compute_lifting(fom_cfg.grid)
        timings["lifting"] = time.perf_counter() - t0

        stage = "homogenize"
        lift_pressure = _b(cfg, "lift_pressure")
        hom = _homogenized(train, fom_cfg.waveform, lifting, lift_pressure)

        stage = "pod"
        t0 = time.perf_counter()
        basis_u_plain = pod_basis(hom.velocity, n_modes=_i(cfg, "n_u_max"), kind="velocity")
        timings["pod_u"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        n_p_max = _i(cfg, "n_p_max")
        basis_p = pod_basis(hom.pressure, n_modes=n_p_max, kind="pressure") if n_p_max > 0 else None
        timings["pod_p"] = time.perf_counter() - t0
        n_u = min(_i(cfg, "n_u"), basis_u_plain.n_modes)
        n_p = min(_i(cfg, "n_p"), basis_p.n_modes) if basis_p is not None else 0

        stage = "supremizer"
        t0 = time.perf_counter()
        basis_u = supremizer_enrich(basis_u_plain, basis_p, fom_cfg.grid)
        timings["supremizer"] = time.perf_counter() - t0

        stage = "operators"
        t0 = time.perf_counter()
        operators = assemble_operators(basis_u, basis_p, lifting, fom_cfg.nu, fom_cfg.grid,
                                       include_convection=fom_cfg.include_convection)
        timings["operators"] = time.perf_counter() - t0

        stage = "nn_train"
        t0 = time.perf_counter()
        nn_models, histories = {}, {}
        split = _f(cfg, "nn_split")
        for j, (k, _) in enumerate(fom_cfg.grid.outlets):
            nn_models[k], histories[k] = fit_outflow(
                train.times, train.outlet_pressure[:, j], fom_cfg.waveform.t_cycle, split, seed)
        timings["nn_train"] = time.perf_counter() - t0

        bundle = Bundle(
            config=dict(cfg),
            grid=fom_cfg.grid,
            waveform=fom_cfg.waveform,
            nu=fom_cfg.nu,
            dt_fom=fom_cfg.dt,
            train=train,
            fine=fine,
            lifting=lifting,
            basis_u=basis_u,
            basis_p=basis_p,
            operators=operators,
            nn_models=nn_models,
            fom_wall_time=fom_result.wall_time,
            cycle_drift=fom_result.cycle_drift,
            lift_pressure=lift_pressure,
            n_u=n_u,
            n_p=n_p,
        )
        timings["total"] = sum(timings.values())

        if out_dir is not None:
            stage = "save"
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for k, hist in histories.items():
                save_loss_history(out / f"loss_{k}.csv", hist)
            bundle.save(out)  # writes the manifest last, covering the loss files
            _write_timings(out / "timings.csv", timings)
        return bundle, timings
    except BaseException as exc:
        if created:
            import shutil

            shutil.rmtree(out_dir, ignore_errors=True)
        exc.args = (f"[offline stage {stage!r}] {exc}",) + exc.args[1:]
        raise


@dataclass(eq=False)
class RunReport:
    """Per-time errors, sweep table, spectra, timings and the speedups:
    ``speedup`` over the timed reduced solve, ``speedup_total`` over the
    whole online cost, solve plus reconstruction."""

    times: np.ndarray
    err_u: np.ndarray | None
    err_p: np.ndarray | None
    proj_u: np.ndarray | None
    proj_p: np.ndarray | None
    sweep: list = field(default_factory=list)       # dicts per N
    spectrum_u: np.ndarray | None = None
    spectrum_p: np.ndarray | None = None
    timings: dict = field(default_factory=dict)
    speedup: float | None = None
    speedup_total: float | None = None
    extras: dict = field(default_factory=dict)

    def time_avg(self, name: str) -> float | None:
        arr = getattr(self, name)
        return None if arr is None else float(np.mean(arr))

    def write(self, out_dir) -> None:
        d = Path(out_dir)
        d.mkdir(parents=True, exist_ok=True)
        cols = ("err_u", "err_p", "proj_u", "proj_p")
        heads = [f"{c}_abs" for c in cols]     # absolute L2 errors and floors
        if self.err_u is not None:
            arrays = [getattr(self, c) for c in cols]
            write_table(d / "errors.csv", ["t", *heads],
                        ([t] + [None if a is None else a[m] for a in arrays]
                         for m, t in enumerate(self.times)))
        if self.spectrum_u is not None:
            spectra = (self.spectrum_u, () if self.spectrum_p is None else self.spectrum_p)
            write_table(d / "spectrum.csv", ["i", "lambda_u", "lambda_p"],
                        ([i] + [s[i] if i < len(s) else None for s in spectra]
                         for i in range(max(map(len, spectra)))))
        if self.sweep:
            write_table(d / "errors_vs_n.csv", ["N", *heads],
                        ([entry["N"]] + [entry[c] for c in cols] for entry in self.sweep))
        if self.timings:
            _write_timings(d / "timings.csv", self.timings)
        summary = {
            "time_avg_err_u": self.time_avg("err_u"),
            "time_avg_err_p": self.time_avg("err_p"),
            "time_avg_proj_u": self.time_avg("proj_u"),
            "time_avg_proj_p": self.time_avg("proj_p"),
            "speedup": self.speedup,
            "speedup_total": self.speedup_total,
            "timings": self.timings,
            **self.extras,
        }
        (d / "report.json").write_text(json.dumps(summary, indent=1))


def _write_timings(path, timings: dict) -> None:
    write_table(path, ["stage", "seconds"], timings.items())


def _match_indices(query: np.ndarray, reference: np.ndarray):
    """Positions of the query times among the reference times, or None
    unless every query time is a reference time (to 1e-9)."""
    pos = np.abs(reference[None, :] - query[:, None]).argmin(axis=1)
    return pos if np.all(np.abs(reference[pos] - query) <= 1e-9) else None


def _row_norms(R: np.ndarray, area: float) -> np.ndarray:
    """Discrete L2 norm of every row of R."""
    return np.sqrt(np.sum(R * R, axis=1) * area)


def projection_errors(snaps: SnapshotSet, hom: SnapshotSet, basis_u: ReducedBasis,
                      basis_p: ReducedBasis | None):
    """Per-time distances of homogenized snapshots to the basis spans, the
    norms of pod's projection residual rows."""
    area = snaps.grid.cell_area
    return tuple(None if basis is None else
                 _row_norms(_residual(rows.values, basis.modes.values, area), area)
                 for rows, basis in ((hom.velocity, basis_u), (hom.pressure, basis_p)))


def compare(fom_set: SnapshotSet, rom_set: SnapshotSet, basis_u: ReducedBasis | None = None,
            basis_p: ReducedBasis | None = None, lift: LiftingPair | None = None,
            lift_pressure: bool = True) -> RunReport:
    """Absolute per-time L2 errors plus projection errors when a basis is given.

    Each instant of ``rom_set`` is compared with the ``fom_set`` snapshot at
    it, so the full-order set may hold more instants (a bundle's fine set).
    ``lift_pressure`` is the bundle's: the projection floor is measured on
    the snapshots homogenized the way its bases were built.
    """
    at = _match_indices(rom_set.times, fom_set.times)
    if at is None:
        raise ShapeError("every compared instant must be a full-order snapshot time")
    if fom_set.grid != rom_set.grid:
        raise ShapeError("snapshot sets must share one grid")
    fom_set = fom_set.take(at)
    area = fom_set.grid.cell_area
    err_u = _row_norms(fom_set.velocity.values - rom_set.velocity.values, area)
    err_p = _row_norms(fom_set.pressure.values - rom_set.pressure.values, area)
    proj_u = proj_p = None
    if basis_u is not None and lift is not None:
        if fom_set.waveform is None:
            raise ConfigurationError("projection errors need the waveform metadata")
        hom = _homogenized(fom_set, Waveform.from_dict(fom_set.waveform), lift, lift_pressure)
        proj_u, proj_p = projection_errors(fom_set, hom, basis_u, basis_p)
    return RunReport(times=fom_set.times.copy(), err_u=err_u, err_p=err_p,
                     proj_u=proj_u, proj_p=proj_p)


def _interpolate(steps: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows given at the step times, linearly interpolated to the instants t."""
    i = np.clip(np.searchsorted(steps, t, side="right") - 1, 0, steps.size - 2)
    w = np.clip((t - steps[i]) / (steps[i + 1] - steps[i]), 0.0, 1.0)[:, None]
    return (1.0 - w) * rows[i] + w * rows[i + 1]


def online(bundle: Bundle, query_times=None, dt_r: float | None = None,
           modes: tuple | None = None, timing_reps: int = 5):
    """Reduced solve + reconstruction at the query times, with a RunReport.

    ``modes`` is the (n_u, n_p) of Bundle.select, by default the bundle's;
    pressure is answered iff n_p > 0.  dt_r sets the reduced step (default:
    the full-order dt recorded in the bundle).  The reduced system steps on
    the uniform dt_r grid from the training-window start, where the stored
    initial state is; the coefficients at an instant between two steps are
    interpolated linearly from them, and only the query instants are
    reconstructed.  Query times must be a non-empty 1-D array of finite
    instants in [t_lo, t_hi + 10% of the window span], and dt_r finite,
    positive and no longer than the window.

    ``timings["rom_solve"]`` is the median over ``timing_reps`` runs of the
    online work of one solve: the outlet-pressure curve at every step, the
    boundary forcing and the step loop.  prepare_step (the saddle matrix's
    condition check, its inverse, the folded step matrices) runs once per
    call, before the clock starts, as the recorded FOM wall time starts
    after its Poisson matrix is diagonalised; a singular saddle matrix still
    raises StabilityError on every call, and ``extras["saddle_cond"]`` is
    the condition number it checked.
    """
    substep = bundle.dt_fom if dt_r is None else float(dt_r)
    if not (np.isfinite(substep) and substep > 0):
        raise ConfigurationError(f"dt_r must be finite and positive, got {substep!r}")
    train_times = bundle.train.times
    t_lo, t_hi = float(train_times[0]), float(train_times[-1])
    if substep > t_hi - t_lo:
        raise ConfigurationError(f"dt_r {substep!r} exceeds the training window "
                                 f"[{t_lo!r}, {t_hi!r}]")
    t_end = t_hi + 0.1 * (t_hi - t_lo)      # the network's own extrapolation bound
    if query_times is None:
        query_times = train_times.copy()
    query_times = np.asarray(query_times, dtype=np.float64)
    if query_times.ndim != 1 or query_times.size == 0:
        raise ConfigurationError(
            f"query times must be a non-empty 1-D array, got shape {query_times.shape}")
    if not np.all(np.isfinite(query_times)):
        raise ConfigurationError("query times must be finite")
    if query_times.min() < t_lo - 1e-9:
        raise ConfigurationError(f"query times start before the training window ({t_lo!r})")
    if query_times.max() > t_end:
        raise ConfigurationError("query times exceed the training window by more than 10%")

    try:
        n_u, n_p = (None, None) if modes is None else modes
    except (TypeError, ValueError):
        raise ConfigurationError(f"modes must be a pair (n_u, n_p), got {modes!r}") from None
    ops, bu, bp = bundle.select(n_u, n_p)

    # steps k*dt_r from t_lo, covering the window and every instant; an
    # instant within 1e-9 steps past the last step counts as on it
    k_hi = max(1, int(np.ceil((max(t_hi, query_times.max()) - t_lo) / substep - 1e-9)))
    steps = t_lo + substep * np.arange(k_hi + 1)

    first = bundle.train.take(slice(0, 1))
    hom0 = _homogenized(first, bundle.waveform, bundle.lifting, bundle.lift_pressure)
    a0 = project_coefficients(hom0.velocity, bu)[0]
    b0 = None if bp is None else project_coefficients(hom0.pressure, bp)[0]

    p_d = bundle.outlet_pressure_fn() if bundle.lift_pressure else None
    step = prepare_step(ops, substep)    # set-up, outside the timed solve

    # the timed solve includes the network evaluation at the steps; the last
    # step may land up to one step past t_end, and the network is read at
    # t_end there (the integration is causal: only that step sees it)
    solve_times = []
    traj = None
    for _ in range(max(1, timing_reps)):
        t0 = time.perf_counter()
        q_steps = None if p_d is None else p_d(np.minimum(steps, t_end))
        traj = integrate_rom(step, a0, steps, bundle.waveform, q_steps, b0=b0)
        solve_times.append(time.perf_counter() - t0)
    # imported here, not at start-up (4 ms); np.median imports numpy.ma (13-17 ms)
    import statistics
    t_solve = statistics.median(solve_times)

    t0 = time.perf_counter()
    at_query = ReducedTrajectory(query_times, _interpolate(steps, traj.a, query_times),
                                 _interpolate(steps, traj.b, query_times))
    q_query = None if p_d is None else p_d(query_times)
    rec = reconstruct(bu, bp, at_query, bundle.lifting, bundle.waveform, q_query,
                      nu=bundle.nu)
    t_reconstruct = time.perf_counter() - t0

    # errors against the stored snapshots when every query instant is one
    report = RunReport(times=query_times.copy(), err_u=None, err_p=None,
                       proj_u=None, proj_p=None)
    if _match_indices(query_times, bundle.fine.times) is not None:
        cmp = compare(bundle.fine, rec, bu, bp, bundle.lifting, bundle.lift_pressure)
        report.err_u, report.err_p = cmp.err_u, cmp.err_p
        report.proj_u, report.proj_p = cmp.proj_u, cmp.proj_p
    if bp is None:
        report.err_p = None
        report.proj_p = None

    report.spectrum_u = bundle.basis_u.eigenvalues.copy()
    report.spectrum_p = None if bundle.basis_p is None else bundle.basis_p.eigenvalues.copy()
    t_total = t_solve + t_reconstruct
    report.timings = {"rom_solve": t_solve, "reconstruct": t_reconstruct,
                      "online_total": t_total, "fom_recorded": bundle.fom_wall_time}
    report.speedup = bundle.fom_wall_time / t_solve if t_solve > 0 else None
    report.speedup_total = bundle.fom_wall_time / t_total if t_total > 0 else None
    report.extras = {
        "n_u": bu.n_primary, "n_p": ops.n_p, "n_supremizer": ops.n_p,
        "dt_r": substep, "velocity_only": ops.n_p == 0,
        "saddle_cond": step.cond,
        "windkessel_params": {k: str(v) for k, v in bundle.config.items()
                              if k.startswith("wk_")},
        "nn_hyperparameters": {"nn_split": bundle.config.get("nn_split")},
    }
    return rec, report


def error_vs_n(bundle: Bundle, n_values=None, dt_r: float | None = None) -> list:
    """Time-averaged errors and projection floors from one online() call per
    mode count N; each call re-homogenizes the stored snapshots and projects
    them on that N's bases.  One N counts velocity modes, pressure modes
    (up to the stored ones) and supremizers alike, the reference convention.
    By default N runs up to the 99.99% energy knee of the velocity spectrum,
    capped at the stored modes.
    """
    if n_values is None:
        knee = truncation_rank(bundle.basis_u.eigenvalues, 0.9999)
        n_values = range(1, min(max(2, knee), bundle.basis_u.n_primary) + 1)
    out = []
    for n in n_values:
        n_p = min(n, bundle.basis_p.n_modes if bundle.basis_p is not None else 0)
        rec, rep = online(bundle, modes=(n, n_p), dt_r=dt_r, timing_reps=1)
        out.append({
            "N": int(n),
            "err_u": rep.time_avg("err_u"),
            "err_p": rep.time_avg("err_p"),
            "proj_u": rep.time_avg("proj_u"),
            "proj_p": rep.time_avg("proj_p"),
        })
    return out
