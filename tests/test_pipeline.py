import dataclasses
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from romkit import fom, operators, pipeline, rom
from romkit.cli import main as cli_main
from romkit.errors import ConfigurationError, FormatError, StabilityError
from romkit.fom import fom_run
from romkit.grid import SnapshotSet, l2_norm
from romkit.lifting import LiftingPair
from romkit.nn import ExtrapolationWarning, load_model, save_model
from romkit.pod import ReducedBasis, truncation_rank
from romkit.rom import ReducedOperators
from romkit.pipeline import (
    Bundle,
    DEFAULT_CONFIG,
    build_fom_config,
    compare,
    error_vs_n,
    offline,
    online,
    parse_config,
)

from conftest import layouts, wrapped_solver

# runtime.json contents that Bundle.load refuses, naming the file
DAMAGED_RUNTIME = {
    "empty_object": "{}",
    "list": "[1]",
    "invalid_json": "{",
    "non_numeric": '{"fom_wall_time": "fast"}',
}

SMALL_CONFIG = {
    "nx": "24", "ny": "8", "lx": "2.0", "ly": "0.5",
    "nu": "0.04", "dt": "2.5e-3", "t0": "0.0", "t_end": "0.9",
    "u_sys": "8.0", "t_cycle": "0.3", "systole_frac": "0.4",
    "wk_0": "35.0,590.0,5e-4",
    "snap_start": "0.6", "snap_stride": "2", "train_subsample": "2",
    "n_u": "4", "n_p": "3", "n_u_max": "10", "n_p_max": "6",
    "nn_split": "0.8",
    "seed": "0",
}


def _run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    this romkit; fails the test if the code raises."""
    src = str(Path(pipeline.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _scale(rows, grid) -> float:
    """Root mean square over time of the fields' L2 norms, as perfbench scales errors."""
    return float(np.sqrt(np.mean(np.sum(rows * rows, axis=1) * grid.cell_area)))


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundles") / "channel"
    offline(SMALL_CONFIG, out_dir=d)
    return d


@pytest.fixture(scope="module")
def bundle(bundle_dir):
    return Bundle.load(bundle_dir)


@pytest.fixture(scope="module")
def small_fom():
    return fom_run(build_fom_config({**DEFAULT_CONFIG, **SMALL_CONFIG}))


@pytest.fixture(scope="module")
def ablation_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundles") / "no_pressure_lift"
    offline({**SMALL_CONFIG, "lift_pressure": "false"}, out_dir=d)
    return d


class TestConfig:
    def test_defaults_plus_overrides(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("# channel run\nnx = 32\nnu = 0.01\n")
        cfg = parse_config(f)
        assert cfg["nx"] == "32" and cfg["nu"] == "0.01"
        assert cfg["ny"] == DEFAULT_CONFIG["ny"]

    def test_bad_line_rejected(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("this is not a key value pair\n")
        with pytest.raises(ConfigurationError):
            parse_config(f)

    def test_fom_config_construction(self):
        cfg = build_fom_config(dict(DEFAULT_CONFIG))
        assert cfg.grid.nx == 64 and cfg.waveform.t_cycle == 0.6
        assert 0 in cfg.windkessel

    def test_missing_windkessel_rejected(self):
        cfg = dict(DEFAULT_CONFIG)
        del cfg["wk_0"]
        with pytest.raises(ConfigurationError):
            build_fom_config(cfg)

    def test_windkessel_csv_file(self, tmp_path):
        from romkit.windkessel import WindkesselParams, save_params_csv

        path = tmp_path / "wk.csv"
        save_params_csv(path, {0: WindkesselParams(35.0, 590.0, 8e-4)})
        cfg = dict(DEFAULT_CONFIG)
        del cfg["wk_0"]
        cfg["wk_file"] = str(path)
        fom_cfg = build_fom_config(cfg)
        assert fom_cfg.windkessel[0].Rd == 590.0

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("nn_epoch = 5\n")  # typo of nn_epochs
        with pytest.raises(ConfigurationError, match="nn_epoch"):
            parse_config(f)
        with pytest.raises(ConfigurationError, match="nn_epoch"):
            offline({**SMALL_CONFIG, "nn_epoch": "5"})
        assert cli_main(["offline", "--config", str(f), "--out", str(tmp_path / "b")]) == 2
        assert not (tmp_path / "b").exists()

    def test_missing_config_file_rejected(self, tmp_path):
        missing = tmp_path / "no_such.txt"
        with pytest.raises(ConfigurationError, match="no_such.txt"):
            parse_config(missing)
        assert cli_main(["fom", "--config", str(missing), "--out", str(tmp_path / "s")]) == 2
        assert cli_main(["offline", "--config", str(missing), "--out", str(tmp_path / "b")]) == 2
        # a str is config text even when it names an existing file
        f = tmp_path / "cfg.txt"
        f.write_text("nx = 32\n")
        with pytest.raises(ConfigurationError, match="expected key = value"):
            parse_config(str(f))

    @pytest.mark.parametrize("key", ["tag_top", "waveform", "inlet_shape", "snap_stride",
                                     "snap_start", "include_convection"])
    def test_missing_key_named(self, key):
        cfg = dict(DEFAULT_CONFIG)
        del cfg[key]
        with pytest.raises(ConfigurationError, match=key):
            build_fom_config(cfg)

    def test_energy_key_retired(self):
        assert "energy" not in DEFAULT_CONFIG
        with pytest.raises(ConfigurationError, match="energy"):
            parse_config("energy = 0.9999\n")

    def test_windkessel_keys_accepted(self):
        cfg = parse_config("wk_0 = 35.0,590.0,8e-4\nwk_1 = 1,2,3\nwk_file = wk.csv\n")
        assert cfg["wk_1"] == "1,2,3" and cfg["wk_file"] == "wk.csv"


class TestOffline:
    def test_bundle_files_present(self, bundle_dir):
        names = {p.name for p in bundle_dir.iterdir()}
        assert names == {"rom.json", "manifest.json", "runtime.json", "timings.csv",
                         "loss_0.csv", "snapshots_fine", "lifting", "basis_u", "basis_p",
                         "operators", "nn_0"}
        for part in ("snapshots_fine", "lifting", "basis_u", "basis_p", "operators", "nn_0"):
            assert (bundle_dir / part / "meta.json").exists(), part
        assert (bundle_dir / "lifting" / "chi_u.bin").exists()

    def test_rerun_bit_identical_manifest(self, bundle_dir, tmp_path):
        offline(SMALL_CONFIG, out_dir=tmp_path / "again")
        a = json.loads((bundle_dir / "manifest.json").read_text())
        b = json.loads((tmp_path / "again" / "manifest.json").read_text())
        assert a["files"] == b["files"]

    def test_outflow_model_is_fourier_fit(self, bundle, bundle_dir):
        # 31 training instants, 25 of them in the fit: 6 harmonics
        assert bundle.nn_models[0].activation == "cos"
        assert bundle.nn_models[0].layer_sizes == (1, 12, 1)
        rows = (bundle_dir / "loss_0.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,")

    def test_timings_positive(self, bundle_dir):
        rows = (bundle_dir / "timings.csv").read_text().splitlines()[1:]
        stages = dict(r.split(",") for r in rows)
        for stage in ("fom", "lifting", "pod_u", "pod_p", "supremizer", "operators", "nn_train"):
            assert float(stages[stage]) > 0.0

    def test_bundle_roundtrip_bitwise(self, bundle_dir, bundle):
        again = Bundle.load(bundle_dir)
        assert np.array_equal(again.operators.B, bundle.operators.B)
        assert np.array_equal(again.operators.Ct, bundle.operators.Ct)
        for a, b in zip(again.basis_u.modes, bundle.basis_u.modes):
            assert np.array_equal(a.values, b.values)
        for k in bundle.nn_models:
            for wa, wb in zip(again.nn_models[k].weights, bundle.nn_models[k].weights):
                assert np.array_equal(wa, wb)

    def test_corrupted_bundle_rejected(self, bundle_dir, tmp_path):
        flipped = tmp_path / "flipped"
        shutil.copytree(bundle_dir, flipped)
        raw = bytearray((flipped / "operators" / "Ct.bin").read_bytes())
        raw[-1] ^= 0x01
        (flipped / "operators" / "Ct.bin").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="operators/Ct.bin"):
            Bundle.load(flipped)
        assert cli_main(["online", "--bundle", str(flipped), "--out", str(tmp_path / "r")]) == 2

        missing = tmp_path / "missing"
        shutil.copytree(bundle_dir, missing)
        (missing / "nn_0" / "W1.bin").unlink()
        with pytest.raises(FormatError, match="missing"):
            Bundle.load(missing)

    def test_bundle_files_read_once(self, bundle_dir, monkeypatch):
        """Bundle.load reads each file the manifest names once, hashing and
        parsing the same bytes, and opens no other bundle file than the
        unhashed runtime.json."""
        files = json.loads((bundle_dir / "manifest.json").read_text())["files"]
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(Path(path).relative_to(bundle_dir).as_posix())
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr("io.open", counting_open)
        Bundle.load(bundle_dir)
        assert sorted(opened) == sorted([*files, "manifest.json", "runtime.json"])

    @pytest.mark.parametrize("text", DAMAGED_RUNTIME.values(), ids=DAMAGED_RUNTIME.keys())
    def test_damaged_runtime_json_rejected(self, bundle_dir, tmp_path, text):
        d = tmp_path / "damaged"
        shutil.copytree(bundle_dir, d)
        (d / "runtime.json").write_text(text)
        with pytest.raises(FormatError, match="runtime.json"):
            Bundle.load(d)

    def test_missing_runtime_json_reads_nan(self, bundle_dir, tmp_path):
        d = tmp_path / "no_runtime"
        shutil.copytree(bundle_dir, d)
        (d / "runtime.json").unlink()
        assert np.isnan(Bundle.load(d).fom_wall_time)

    def test_online_imports_no_scipy(self, bundle_dir, tmp_path):
        """Loading a bundle and querying it, in the API and through the CLI,
        never imports scipy: only building sparse matrices does.
        Nor numpy.ma, which np.median imports on its first call."""
        code = f"""
import sys
import numpy as np
import romkit
from romkit import cli, fom, lifting, operators, rom
from romkit.pipeline import Bundle, online
bundle = Bundle.load({str(bundle_dir)!r})
online(bundle, timing_reps=1)
t = bundle.train.times
online(bundle, query_times=np.linspace(t[0], t[-1] + 0.05 * (t[-1] - t[0]), 7),
       dt_r=2 * bundle.dt_fom, modes=(3, 2), timing_reps=1)
assert cli.main(["online", "--bundle", {str(bundle_dir)!r},
                 "--out", {str(tmp_path / "run")!r}]) == 0
assert fom.cg is lifting.cg is rom.cg is operators.cg
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
"""
        assert _run_fresh(code).splitlines()[-1] == "[]"
        assert (tmp_path / "run" / "errors.csv").exists()

    def test_scipy_imported_before_stage_timers(self, small_fom, tmp_path):
        """offline(fom_result=...) in a process that has not imported scipy
        imports it before the lifting stage's timer starts, so no row of
        timings.csv counts the import."""
        (tmp_path / "fom.pkl").write_bytes(pickle.dumps(small_fom))
        code = f"""
import pickle, sys
from pathlib import Path
from romkit import pipeline
fom_result = pickle.loads(Path({str(tmp_path / "fom.pkl")!r}).read_bytes())
assert "scipy" not in sys.modules
compute_lifting = pipeline.compute_lifting

def checked_lifting(grid):
    assert "scipy.sparse" in sys.modules
    return compute_lifting(grid)

pipeline.compute_lifting = checked_lifting
pipeline.offline({SMALL_CONFIG!r}, fom_result=fom_result)
"""
        _run_fresh(code)

    def test_offline_and_online_import_no_sparse_solvers(self):
        """Building the default bundle and querying it solves every grid
        system by fast diagonalisation: neither scipy.sparse.linalg nor
        scipy.linalg is imported."""
        code = """
import sys
from romkit.pipeline import DEFAULT_CONFIG, offline, online
bundle, _ = offline(dict(DEFAULT_CONFIG))
online(bundle, timing_reps=1)
print(sorted(m for m in sys.modules if m.startswith(("scipy.sparse.linalg", "scipy.linalg"))))
"""
        assert _run_fresh(code).splitlines()[-1] == "[]"

    def test_unlisted_bundle_file_rejected(self, bundle_dir, tmp_path):
        d = tmp_path / "unlisted"
        shutil.copytree(bundle_dir, d)
        manifest = json.loads((d / "manifest.json").read_text())
        del manifest["files"]["basis_u/modes.bin"]
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="modes.bin is not named in manifest.json"):
            Bundle.load(d)

    def test_stored_config_not_rechecked(self, bundle, bundle_dir, tmp_path):
        """A bundle written while ``energy`` was a config key still loads."""
        old = tmp_path / "old"
        shutil.copytree(bundle_dir, old)
        rom_json = json.loads((old / "rom.json").read_text())
        rom_json["config"]["energy"] = "0.9999"
        (old / "rom.json").write_text(json.dumps(rom_json, indent=1))
        bundle._write_manifest(old)
        loaded = Bundle.load(old)
        assert loaded.config["energy"] == "0.9999"
        assert online(loaded, timing_reps=1)[1].err_u is not None

    def test_velocity_only_flagged(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["n_p"] = "0"
        cfg["n_p_max"] = "0"
        b, _ = offline(cfg, out_dir=tmp_path / "vonly")
        assert b.velocity_only
        loaded = Bundle.load(tmp_path / "vonly")
        assert loaded.velocity_only

    def test_shared_fom_result_reused(self):
        from romkit.fom import fom_run

        fom_cfg = build_fom_config({**DEFAULT_CONFIG, **SMALL_CONFIG})
        res = fom_run(fom_cfg)
        b1, t1 = offline(SMALL_CONFIG, fom_result=res)
        assert np.array_equal(b1.train.times, res.snapshots.times[::2])

    @pytest.mark.parametrize("convection", ["true", "false"])
    def test_each_step_matrix_probed_once(self, monkeypatch, convection):
        """One offline() reads each of the grid's step matrices off its stencil
        once, shared by the FOM, the supremizer solve and assembly; a Stokes
        run reads no convection matrices."""
        probed, probe = [], operators._probed_matrix

        def counted(stencil, shapes):
            probed.append(sys._getframe(1).f_code.co_name)   # the matrix builder
            return probe(stencil, shapes)

        monkeypatch.setattr(operators, "_probed_matrix", counted)
        offline({**SMALL_CONFIG, "include_convection": convection})
        for name in ("vec_laplacian_matrix", "divergence_matrix", "gradient_matrix"):
            assert probed.count(name) == 1, name
        # S and D, each once
        assert probed.count("convection_matrices") == (2 if convection == "true" else 0)


class TestBundleParts:
    """Every bundle part is one array-file directory; the training snapshots
    are not stored, but taken from the fine ones on load."""

    # (part, loader, the format string one version back, one of its array files)
    PARTS = [
        ("snapshots_fine", lambda d, g: SnapshotSet.load(d), "romkit-snapshots-2", "u.bin"),
        ("lifting", LiftingPair.load, "romkit-lifting-2", "chi_p.bin"),
        ("basis_u", ReducedBasis.load, "romkit-basis-2", "eigenvalues.bin"),
        ("operators", lambda d, g: ReducedOperators.load(d), "romkit-operators-1", "Ct.bin"),
        ("nn_0", lambda d, g: load_model(d), "romkit-nn-1", "W1.bin"),
    ]
    PART_IDS = [p[0] for p in PARTS]

    @pytest.mark.parametrize("part, load, old, array", PARTS, ids=PART_IDS)
    def test_load_save_roundtrip_bit_exact(self, bundle_dir, bundle, tmp_path, part, load,
                                           old, array):
        obj = load(bundle_dir / part, bundle.grid)
        if part == "nn_0":
            save_model(obj, tmp_path / part)
        else:
            obj.save(tmp_path / part)
        names = sorted(p.name for p in (bundle_dir / part).iterdir())
        assert sorted(p.name for p in (tmp_path / part).iterdir()) == names
        for name in names:
            assert (tmp_path / part / name).read_bytes() == \
                (bundle_dir / part / name).read_bytes(), name

    @pytest.mark.parametrize("part, load, old, array", PARTS, ids=PART_IDS)
    def test_bad_part_rejected(self, bundle_dir, bundle, tmp_path, part, load, old, array):
        d = tmp_path / part
        shutil.copytree(bundle_dir / part, d)
        raw = (d / array).read_bytes()
        (d / array).write_bytes(raw[:-8])
        with pytest.raises(FormatError, match=array):
            load(d, bundle.grid)
        (d / array).unlink()
        with pytest.raises(FormatError, match=f"missing array file.*{array}"):
            load(d, bundle.grid)
        (d / array).write_bytes(raw)
        meta = json.loads((d / "meta.json").read_text())
        (d / "meta.json").write_text(json.dumps({**meta, "format": old}))
        with pytest.raises(FormatError, match=old):
            load(d, bundle.grid)

    def test_previous_bundle_format_rejected(self, bundle_dir, bundle, tmp_path):
        d = tmp_path / "old"
        shutil.copytree(bundle_dir, d)
        rom_json = json.loads((d / "rom.json").read_text())
        (d / "rom.json").write_text(json.dumps({**rom_json, "format": "romkit-bundle-2"}))
        bundle._write_manifest(d)
        with pytest.raises(FormatError, match="romkit-bundle-2"):
            Bundle.load(d)

    @pytest.mark.parametrize("sub", [1, 2])
    def test_training_set_taken_from_fine(self, small_fom, tmp_path, sub):
        built, _ = offline({**SMALL_CONFIG, "train_subsample": str(sub)}, out_dir=tmp_path / "b",
                           fom_result=small_fom)
        assert not (tmp_path / "b" / "snapshots_train").exists()
        loaded = Bundle.load(tmp_path / "b")
        taken = loaded.fine.take(slice(0, None, sub))
        for s in (built.train, taken):
            for name in ("times", "outlet_pressure"):
                assert getattr(loaded.train, name).tobytes() == getattr(s, name).tobytes()
            assert loaded.train.velocity.values.tobytes() == s.velocity.values.tobytes()
            assert loaded.train.pressure.values.tobytes() == s.pressure.values.tobytes()
        assert len(loaded.train) == (len(small_fom.snapshots) + sub - 1) // sub


class TestOnline:
    def test_reports_written(self, bundle, tmp_path):
        rec, report = online(bundle)
        report.sweep = error_vs_n(bundle)
        report.write(tmp_path / "report")
        names = {p.name for p in (tmp_path / "report").iterdir()}
        assert {"errors.csv", "spectrum.csv", "timings.csv", "report.json",
                "errors_vs_n.csv"} <= names
        header = (tmp_path / "report" / "errors.csv").read_text().splitlines()[0]
        assert header == "t,err_u_abs,err_p_abs,proj_u_abs,proj_p_abs"

    def test_training_time_queries_reproducible(self, bundle):
        _, r1 = online(bundle, timing_reps=1)
        _, r2 = online(bundle, timing_reps=1)
        assert np.array_equal(r1.err_u, r2.err_u)
        assert np.array_equal(r1.err_p, r2.err_p)

    def test_errors_bounded_by_projection(self, bundle):
        _, report = online(bundle)
        assert report.err_u is not None and report.proj_u is not None
        assert np.all(report.err_u >= report.proj_u - 1e-12)

    def test_speedup_positive(self, bundle):
        _, report = online(bundle)
        assert report.speedup is not None and report.speedup > 1.0

    def test_end_to_end_cost_reported(self, bundle, tmp_path):
        """online_total adds reconstruction to the timed solve, so its speedup
        is the smaller one; report.json carries both."""
        _, report = online(bundle, timing_reps=1)
        t = report.timings
        assert t["online_total"] == t["rom_solve"] + t["reconstruct"] >= t["rom_solve"]
        assert report.speedup_total <= report.speedup
        report.write(tmp_path)
        summary = json.loads((tmp_path / "report.json").read_text())
        assert summary["speedup_total"] == report.speedup_total

    def test_refined_query_step_uses_fine_set(self, bundle):
        times = np.round(np.arange(0.6, 0.9 + 1e-12, 0.005), 9)
        rec, report = online(bundle, query_times=times, dt_r=0.005)
        assert report.err_u is not None and report.err_u.size == times.size

    def test_rows_the_benchmark_reads(self, bundle):
        """perfbench iterates a loaded bundle's training sets and a
        reconstruction, reads each row's values and takes l2_norm of each."""
        rec, _ = online(bundle, timing_reps=1)
        area = bundle.grid.cell_area
        for rows in (bundle.train.velocity, bundle.train.pressure, rec.velocity, rec.pressure):
            seen = 0
            for m, f in enumerate(rows):
                assert not f.values.flags.writeable
                assert np.array_equal(f.values, rows.values[m])
                assert l2_norm(f) == float(np.sqrt(area * np.dot(f.values, f.values)))
                seen += 1
            assert seen == len(rows) > 1

    def test_instants_next_to_a_step(self, bundle):
        # instants a few ns to a us past a stored one once made sub-us steps
        # and a false StabilityError
        t = bundle.train.times[3] + np.array([0.0, 2e-9, 1e-7, 1e-6])
        rec, _ = online(bundle, query_times=t, timing_reps=1)
        assert np.array_equal(rec.times, t)
        assert np.all(np.isfinite(rec.velocity.values)) and np.all(np.isfinite(rec.pressure.values))

    def test_off_step_instant_interpolates_coefficients(self, bundle):
        wf, lift, dt = bundle.waveform, bundle.lifting, bundle.dt_fom
        t = bundle.train.times[3] + np.array([0.0, 0.25 * dt, dt])
        rec, _ = online(bundle, query_times=t, timing_reps=1)
        # the reduced part (field minus lifting) is affine in the coefficients
        hom = rec.velocity.values - np.outer(wf.magnitude(t), lift.chi_u.values[0])
        assert np.allclose(hom[1], 0.75 * hom[0] + 0.25 * hom[2], rtol=0, atol=1e-9 * np.abs(hom).max())
        q = rec.outlet_pressure[:, 0]
        hom_p = rec.pressure.values - np.outer(q, lift.chi_p[0].values)
        assert np.allclose(hom_p[1], 0.75 * hom_p[0] + 0.25 * hom_p[2], rtol=0,
                           atol=1e-9 * np.abs(hom_p).max())

    def test_query_window_guard(self, bundle):
        with pytest.raises(ConfigurationError):
            online(bundle, query_times=np.array([0.6, 1.2]))

    @pytest.mark.parametrize("bad", [[], [[0.6, 0.7]], [np.nan], [0.7, np.inf], 0.7])
    def test_bad_query_times_rejected_before_any_work(self, bundle, monkeypatch, bad):
        def no_work(*args, **kw):
            raise AssertionError("online() integrated an invalid query")

        monkeypatch.setattr(pipeline, "integrate_rom", no_work)
        with pytest.raises(ConfigurationError, match="query times"):
            online(bundle, query_times=bad, timing_reps=1)

    def test_dt_r_past_window_rejected(self, bundle, monkeypatch):
        times = bundle.train.times
        span = float(times[-1] - times[0])
        rec, _ = online(bundle, dt_r=span, timing_reps=1)   # one step spans the window
        assert np.all(np.isfinite(rec.velocity.values))

        def no_work(*args, **kw):
            raise AssertionError("online() integrated past the window")

        monkeypatch.setattr(pipeline, "integrate_rom", no_work)
        with pytest.raises(ConfigurationError, match="dt_r .* exceeds the training window"):
            online(bundle, dt_r=1.01 * span, timing_reps=1)

    @pytest.mark.parametrize("dt_mult", [1, 2])
    def test_window_end_does_not_extrapolate(self, bundle, dt_mult):
        times = bundle.train.times
        t_end = times[-1] + 0.1 * (times[-1] - times[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            rec, _ = online(bundle, query_times=np.array([times[3], t_end]),
                            dt_r=dt_mult * bundle.dt_fom, timing_reps=1)
        assert np.all(np.isfinite(rec.velocity.values)) and np.all(np.isfinite(rec.pressure.values))

    def test_timed_solve_evaluates_the_curve(self, bundle, monkeypatch):
        """Each timed repetition reads every outlet's curve at the steps once,
        and the reconstruction reads it once more at the query instants."""
        calls = []
        predict = pipeline.predict_outflow

        def counted(model, t):
            calls.append(np.size(t))
            return predict(model, t)

        monkeypatch.setattr(pipeline, "predict_outflow", counted)
        online(bundle, timing_reps=3)
        n_out = len(bundle.nn_models)
        t = bundle.train.times
        n_steps = round((t[-1] - t[0]) / bundle.dt_fom) + 1     # dt_r = dt_fom over the window
        assert calls == [n_steps] * (3 * n_out) + [bundle.train.times.size] * n_out

    def test_supremizer_free_operators_raise(self, bundle):
        """With the supremizer columns of the divergence constraint zeroed the
        saddle matrix is singular, and online() says so before any solve."""
        P = bundle.operators.P.copy()
        P[:, bundle.basis_u.n_primary:] = 0.0
        crippled = dataclasses.replace(bundle,
                                       operators=dataclasses.replace(bundle.operators, P=P))
        with pytest.raises(StabilityError, match="supremizer"):
            online(crippled, timing_reps=1)

    def test_saddle_condition_reported(self, bundle, tmp_path):
        _, report = online(bundle, timing_reps=1)
        cond = report.extras["saddle_cond"]
        assert 1.0 <= cond < rom.SADDLE_COND_LIMIT
        report.write(tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["saddle_cond"] == cond

    def test_instant_before_window_rejected(self, bundle):
        t_lo = float(bundle.train.times[0])
        with pytest.raises(ConfigurationError, match="before the training window"):
            online(bundle, query_times=np.array([t_lo - 0.02, t_lo]), timing_reps=1)

    def test_stored_rows_independent_of_later_instants(self, bundle):
        times = bundle.train.times
        stored = times[[0, 3, times.size - 1]]
        later = np.append(stored, times[-1] + 0.05 * (times[-1] - times[0]))
        rec, _ = online(bundle, query_times=stored, timing_reps=1)
        ext, _ = online(bundle, query_times=later, timing_reps=1)
        for a, b in ((rec.velocity.values, ext.velocity.values[:3]),
                     (rec.pressure.values, ext.pressure.values[:3])):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_mode_override(self, bundle):
        _, r_small = online(bundle, modes=(2, 2), timing_reps=1)
        _, r_big = online(bundle, modes=(4, 3), timing_reps=1)
        assert r_big.time_avg("proj_u") <= r_small.time_avg("proj_u")

    def test_velocity_only_refuses_pressure(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["n_p"] = "0"
        cfg["n_p_max"] = "0"
        b, _ = offline(cfg)
        with pytest.raises(ConfigurationError, match=r"n_p must be an integer in \[0, 0\]"):
            online(b, modes=(3, 2), timing_reps=1)
        _, report = online(b, timing_reps=1)
        assert report.err_p is None
        assert report.err_u is not None

    def test_n_p_zero_bundle_answers_pressure_modes(self):
        """A bundle whose default query has no pressure still stores pressure
        modes, and a query that asks for them gets them."""
        b, _ = offline({**SMALL_CONFIG, "n_p": "0"})
        assert b.velocity_only and b.basis_p.n_modes == 6
        _, default = online(b, timing_reps=1)
        assert default.extras["n_p"] == 0 and default.err_p is None
        _, report = online(b, modes=(3, 2), timing_reps=1)
        assert report.extras["n_p"] == report.extras["n_supremizer"] == 2
        assert report.err_p is not None and report.proj_p is not None

    def test_velocity_only_reports_the_query(self, bundle, small_fom):
        """extras["velocity_only"] says whether the query answers pressure,
        whatever the bundle's default query does."""
        b, _ = offline({**SMALL_CONFIG, "n_p": "0"}, fom_result=small_fom)
        assert b.velocity_only
        assert online(b, modes=(3, 2), timing_reps=1)[1].extras["velocity_only"] is False
        assert not bundle.velocity_only
        assert online(bundle, modes=(3, 0), timing_reps=1)[1].extras["velocity_only"] is True

    def test_select_slices_the_stored_model(self, bundle):
        ops, bu, bp = bundle.select(3, 2)
        n_prim = bundle.basis_u.n_primary
        idx = [0, 1, 2, n_prim, n_prim + 1]
        assert np.array_equal(bu.modes.values, bundle.basis_u.modes.values[idx])
        assert bu.n_primary == 3 and bu.n_supremizer == 2
        assert np.array_equal(bp.modes.values, bundle.basis_p.modes.values[:2])
        assert np.array_equal(ops.B, bundle.operators.B[np.ix_(idx, idx)])
        assert ops.n_p == 2
        assert bundle.select(3, 0)[2] is None
        default = bundle.select()
        assert (default[1].n_primary, default[0].n_p) == (bundle.n_u, bundle.n_p)

    @pytest.mark.parametrize("modes, match", [
        ((0, 1), r"n_u must be an integer in \[1, 10\]"),
        ((11, 1), r"n_u must be an integer in \[1, 10\]"),
        ((2.0, 1), "n_u must be an integer"),
        ((3, 7), r"n_p must be an integer in \[0, 6\]"),
        ((3, -1), "n_p must be an integer"),
        ((3, True), "n_p must be an integer"),
        ((3,), "modes must be a pair"),
        ((3, 2, 1), "modes must be a pair"),
        (3, "modes must be a pair"),
    ])
    def test_bad_modes_rejected_before_any_work(self, bundle, monkeypatch, modes, match):
        def no_work(*args, **kw):
            raise AssertionError("online() integrated an invalid query")

        monkeypatch.setattr(pipeline, "integrate_rom", no_work)
        with pytest.raises(ConfigurationError, match=match):
            online(bundle, modes=modes, timing_reps=1)

    def test_error_vs_n_table_complete(self, bundle):
        sweep = error_vs_n(bundle, n_values=[1, 2, 3])
        assert [e["N"] for e in sweep] == [1, 2, 3]
        for e in sweep:
            for col in ("err_u", "err_p", "proj_u", "proj_p"):
                assert e[col] is not None and np.isfinite(e[col])
        proj = [e["proj_u"] for e in sweep]
        assert all(b <= a + 1e-12 for a, b in zip(proj, proj[1:]))


    def test_error_vs_n_default_range_capped(self, tmp_path):
        # the 99.99% knee of the spectrum lies past the two stored modes
        cfg = {"nx": "16", "ny": "4", "n_u_max": "2", "n_u": "2", "n_p": "2", "n_p_max": "2"}
        b, _ = offline(cfg, out_dir=tmp_path / "b")
        assert truncation_rank(b.basis_u.eigenvalues, 0.9999) > b.basis_u.n_primary == 2
        assert [e["N"] for e in error_vs_n(b)] == [1, 2]
        assert cli_main(["online", "--bundle", str(tmp_path / "b"),
                         "--out", str(tmp_path / "run")]) == 0


class TestLayoutRoundTrip:
    """offline -> save -> load -> online() answers as the in-memory bundle
    does, bit for bit, on every boundary layout the grid accepts."""

    @settings(max_examples=8, deadline=None)
    @given(layouts())
    def test_loaded_bundle_answers_bit_identically(self, grid):
        # a Stokes run of two short cycles, trained on the second, with dt at most
        # half the diffusion limit, the CFL limit and 0.01 (below Rd*C = 0.47)
        nu, u_sys, steps = 0.04, 1.0, 40
        dt_diff = 1.0 / (3.0 * nu * (1.0 / grid.hx**2 + 1.0 / grid.hy**2))
        dt = 0.5 * min(dt_diff, min(grid.hx, grid.hy) / u_sys, 0.01)
        cfg = {"nx": str(grid.nx), "ny": str(grid.ny), "lx": repr(grid.lx), "ly": repr(grid.ly),
               **{f"tag_{side}": tag for side, tag in grid.tags.items()},
               **{f"wk_{k}": "35.0,590.0,8e-4" for k, _ in grid.outlets},
               "nu": repr(nu), "u_sys": repr(u_sys), "dt": repr(dt),
               "t_cycle": repr(steps // 2 * dt), "snap_start": repr(steps // 2 * dt),
               "t_end": repr(steps * dt), "snap_stride": "1", "include_convection": "false"}
        with tempfile.TemporaryDirectory() as tmp:
            built, _ = offline(cfg, out_dir=Path(tmp) / "b")
            loaded = Bundle.load(Path(tmp) / "b")
        t_lo, t_hi = built.train.times[0], built.train.times[-1]
        arbitrary = np.linspace(t_lo, t_hi + 0.1 * (t_hi - t_lo), 7)
        for query_times in (None, arbitrary):
            (rec, report), (rec_loaded, report_loaded) = (
                online(b, query_times=query_times, timing_reps=1) for b in (built, loaded))
            assert np.array_equal(rec.velocity.values, rec_loaded.velocity.values)
            assert np.array_equal(rec.pressure.values, rec_loaded.pressure.values)
            for name in ("err_u", "err_p", "proj_u", "proj_p"):
                a, b = getattr(report, name), getattr(report_loaded, name)
                assert (a is None and b is None) or np.array_equal(a, b), name
            assert (report.err_u is None) == (query_times is arbitrary)
        # the stored model's saddle matrix is well conditioned, and the same
        # operators without their supremizer rows leave it singular
        assert report.extras["saddle_cond"] <= rom.SADDLE_COND_LIMIT
        ops, n_primary = built.operators, built.basis_u.n_primary
        assert built.n_p > 0
        with pytest.raises(StabilityError):
            rom.prepare_step(ops.subset(range(n_primary), built.n_p), built.dt_fom)


class TestStokes:
    """A full-order run without convection gets a reduced model without it."""

    def test_convection_terms_left_zero(self):
        b, _ = offline({**SMALL_CONFIG, "include_convection": "false"})
        for name in ("Ct", "d2", "d3", "d4"):
            assert not getattr(b.operators, name).any(), name
        _, report = online(b, timing_reps=1)
        # 0.69% of the velocity scale; a reduced model with convection on
        # this Stokes run reads 2.8%
        assert report.time_avg("err_u") <= 0.01 * _scale(b.train.velocity.values, b.grid)

    def test_two_outlets_against_projection_floor(self, tmp_path):
        # right and top outlets with different RCR parameters, offline -> save
        # -> load -> online.  Measured: err_u 4.3% of the velocity scale, 44x
        # its projection floor (0.098%); err_p 0.28% of the pressure scale
        # (floor 7e-7).  The GD network at 3000 epochs reads err_u 20% and
        # err_p 1.3% on the 64x16 version of this layout.
        cfg = {"nx": "32", "ny": "8", "tag_top": "outlet_1", "wk_1": "50.0,800.0,6e-4",
               "include_convection": "false"}
        offline(cfg, out_dir=tmp_path / "b")
        b = Bundle.load(tmp_path / "b")
        assert sorted(b.nn_models) == [0, 1]
        _, report = online(b, timing_reps=1)
        err_u, proj_u = report.time_avg("err_u"), report.time_avg("proj_u")
        err_p, proj_p = report.time_avg("err_p"), report.time_avg("proj_p")
        assert err_u <= 60.0 * proj_u
        assert err_u <= 0.06 * _scale(b.train.velocity.values, b.grid)
        assert err_p <= proj_p + 0.005 * _scale(b.train.pressure.values, b.grid)


class TestCompare:
    def test_identical_sets_zero_error(self, bundle):
        report = compare(bundle.train, bundle.train)
        assert np.all(report.err_u == 0.0) and np.all(report.err_p == 0.0)

    def test_projected_rom_matches_projection_error(self, bundle):
        from romkit.grid import FieldRows
        from romkit.lifting import homogenize
        from romkit.pod import project_coefficients

        _, bu, bp = bundle.select()
        wf = bundle.waveform
        u_d = np.array([wf.magnitude(t) for t in bundle.train.times])
        hom = homogenize(bundle.train, u_d, bundle.train.outlet_pressure, bundle.lifting)
        Phi = bu.modes.values
        Psi = bp.modes.values
        vel = (project_coefficients(hom.velocity, bu) @ Phi
               + np.outer(u_d, bundle.lifting.chi_u.values[0]))
        pres = (project_coefficients(hom.pressure, bp) @ Psi
                + bundle.train.outlet_pressure @ bundle.lifting.chi_p.values)
        rom_set = SnapshotSet(bundle.train.times.copy(), FieldRows(bundle.grid, "vector2", vel),
                              FieldRows(bundle.grid, "scalar", pres), bundle.nu,
                              bundle.train.waveform, bundle.train.outlet_pressure)
        report = compare(bundle.train, rom_set, bu, bp, bundle.lifting)
        assert np.allclose(report.err_u, report.proj_u, rtol=1e-10, atol=1e-12)
        assert np.allclose(report.err_p, report.proj_p, rtol=1e-10, atol=1e-12)

    def test_misaligned_times_rejected(self, bundle):
        shifted = SnapshotSet(bundle.train.times + 0.001, bundle.train.velocity,
                              bundle.train.pressure, bundle.nu, bundle.train.waveform,
                              bundle.train.outlet_pressure)
        with pytest.raises(Exception):
            compare(bundle.train, shifted)


class TestPressureLiftAblation:
    """A lift_pressure = false bundle measures its projection floor on the
    snapshots homogenized as its bases were built: without the outlet-pressure
    shift."""

    @staticmethod
    def _floor(b):
        from romkit.lifting import homogenize

        hom = homogenize(b.train, b.waveform.magnitude(b.train.times), None, b.lifting)
        P, Psi, area = hom.pressure.values, b.select()[2].modes.values, b.grid.cell_area
        R = P - ((P @ Psi.T) * area) @ Psi
        return np.sqrt(np.sum(R * R, axis=1) * area)

    def test_online_projection_floor(self, ablation_dir):
        b = Bundle.load(ablation_dir)
        assert not b.lift_pressure
        _, report = online(b, timing_reps=1)
        np.testing.assert_allclose(report.proj_p, self._floor(b), rtol=1e-12)

    def test_cli_compare_projection_floor(self, ablation_dir, tmp_path):
        b = Bundle.load(ablation_dir)
        rec, _ = online(b, timing_reps=1)
        rec.save(tmp_path / "rec")
        assert cli_main(["compare", "--fom", str(ablation_dir / "snapshots_fine"),
                         "--rom", str(tmp_path / "rec"), "--bundle", str(ablation_dir),
                         "--out", str(tmp_path / "cmp")]) == 0
        rows = (tmp_path / "cmp" / "errors.csv").read_text().splitlines()
        assert rows[0] == "t,err_u_abs,err_p_abs,proj_u_abs,proj_p_abs"
        proj_p = np.array([float(r.split(",")[4]) for r in rows[1:]])
        np.testing.assert_allclose(proj_p, self._floor(b), rtol=1e-12)


class TestFailedOffline:
    """A failed offline call removes the output directory it created, and
    leaves one that existed before it in place."""

    def test_existing_out_dir_survives(self, tmp_path, monkeypatch, capsys):
        # a Poisson solver whose solves are off by 1e-6 relative fails
        # the fom stage's residual check (NumericalError, exit 3)
        monkeypatch.setattr(fom, "KronSumSolver", wrapped_solver(scale=1 + 1e-6))
        cfg = tmp_path / "small.txt"
        cfg.write_text("nx = 16\nny = 4\n")
        existing = tmp_path / "existing"
        existing.mkdir()
        (existing / "notes.txt").write_text("keep\n")
        assert cli_main(["offline", "--config", str(cfg), "--out", str(existing)]) == 3
        assert cli_main(["offline", "--config", str(cfg), "--out", str(tmp_path / "fresh")]) == 3
        assert "offline stage 'fom'" in capsys.readouterr().err
        assert (existing / "notes.txt").read_text() == "keep\n"
        assert not (tmp_path / "fresh").exists()
        with pytest.raises(ConfigurationError, match="nn_epoch"):
            offline({"nn_epoch": "5"}, out_dir=existing)
        assert (existing / "notes.txt").read_text() == "keep\n"

    @pytest.mark.parametrize("key, value", [("seed", "-1"), ("nn_split", "1.5"),
                                            ("n_u_max", "0")])
    def test_reduction_key_refused_before_fom(self, key, value, monkeypatch):
        """Keys that used to fail only after the full-order run, at the
        nn_train or pod stage, fail at the config stage, named."""
        monkeypatch.setattr(pipeline, "fom_run", None)   # never reached
        with pytest.raises(ConfigurationError, match=f"offline stage 'config'.*{key}"):
            offline({**SMALL_CONFIG, key: value})

    def test_partial_output_removed(self, tmp_path, monkeypatch):
        def fail(path, timings):
            raise OSError("disk full")

        # the bundle is written by then; only the timings file is missing
        monkeypatch.setattr(pipeline, "_write_timings", fail)
        fresh = tmp_path / "fresh"
        with pytest.raises(OSError, match="offline stage 'save'.*disk full"):
            offline({**SMALL_CONFIG, "nn_epochs": "50"}, out_dir=fresh)
        assert not fresh.exists()


class TestCli:
    def _write_config(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("".join(f"{k} = {v}\n" for k, v in SMALL_CONFIG.items()))
        return f

    def test_fom_command(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert cli_main(["fom", "--config", str(cfg), "--out", str(tmp_path / "snaps")]) == 0
        assert (tmp_path / "snaps" / "outlet_pressure.csv").exists()
        loaded = SnapshotSet.load(tmp_path / "snaps")
        assert len(loaded) > 1
        rows = (tmp_path / "snaps" / "diagnostics.csv").read_text().splitlines()
        assert rows[0] == "step,t,poisson_residual,div_max,Q_0,P_0"
        fom_result = fom_run(build_fom_config(parse_config(cfg)))
        assert len(rows) == fom_result.n_steps + 1
        step, t, res, div, q, p = rows[-1].split(",")
        assert int(step) == fom_result.n_steps and float(t) == fom_result.step_times[-1]
        assert float(res) == fom_result.poisson_residual[-1] < 1e-9
        assert float(div) == fom_result.div_max[-1]
        assert float(q) == fom_result.outlet_flux[-1, 0]
        assert float(p) == fom_result.step_outlet_pressure[-1, 0] > 0

    def test_offline_online_compare_roundtrip(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert cli_main(["offline", "--config", str(cfg), "--out", str(tmp_path / "bundle")]) == 0
        assert cli_main(["online", "--bundle", str(tmp_path / "bundle"),
                         "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "errors.csv").exists()
        assert (tmp_path / "run" / "report.json").exists()
        assert cli_main(["compare",
                         "--fom", str(tmp_path / "bundle" / "snapshots_fine"),
                         "--rom", str(tmp_path / "run" / "reconstruction"),
                         "--bundle", str(tmp_path / "bundle"),
                         "--out", str(tmp_path / "cmp")]) == 0
        assert (tmp_path / "cmp" / "errors.csv").exists()

    def test_compare_floors_of_the_online_modes(self, bundle_dir, tmp_path):
        """compare --bundle --modes 2,1 reports the projection floors that
        online --modes 2,1 wrote, not those of the bundle's default model."""
        assert cli_main(["online", "--bundle", str(bundle_dir), "--modes", "2,1",
                         "--out", str(tmp_path / "run")]) == 0
        argv = ["compare", "--fom", str(bundle_dir / "snapshots_fine"),
                "--rom", str(tmp_path / "run" / "reconstruction"), "--bundle", str(bundle_dir)]
        assert cli_main(argv + ["--modes", "2,1", "--out", str(tmp_path / "cmp")]) == 0
        assert cli_main(argv + ["--out", str(tmp_path / "default")]) == 0

        def floors(d):
            rows = (tmp_path / d / "errors.csv").read_text().splitlines()
            assert rows[0] == "t,err_u_abs,err_p_abs,proj_u_abs,proj_p_abs"
            return np.array([[float(c) for c in r.split(",")[3:]] for r in rows[1:]])

        np.testing.assert_allclose(floors("cmp"), floors("run"), rtol=1e-12)
        assert not np.allclose(floors("default"), floors("run"), rtol=1e-3)

    def test_compare_modes_need_a_bundle(self, bundle_dir, tmp_path, capsys):
        snaps = str(bundle_dir / "snapshots_fine")
        assert cli_main(["compare", "--fom", snaps, "--rom", snaps, "--modes", "2,1",
                         "--out", str(tmp_path / "cmp")]) == 2
        assert "needs --bundle" in capsys.readouterr().err

    def test_rb_command(self, tmp_path):
        out = tmp_path / "rb.csv"
        assert cli_main(["rb", "--train", "8", "--modes", "3", "--test", "5",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,s_fom,s_rb,err"
        assert len(lines) == 6

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nx = 2\n")  # below the minimum cell count
        assert cli_main(["fom", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_bad_modes_exit_code(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert cli_main(["offline", "--config", str(cfg), "--out", str(tmp_path / "b2"),
                         "--modes", "nonsense"]) == 2


# -- every CLI exit code, one row per way to reach it ---------------------------

def _tiny_fom(tmp, bundle_dir, monkeypatch):
    cfg = tmp / "tiny.txt"
    cfg.write_text("nx = 16\nny = 4\nt_end = 0.05\nsnap_start = 0.0\n")
    return ["fom", "--config", str(cfg), "--out", str(tmp / "snaps")]


def _non_finite(line):
    """The tiny run with one more config line that sets a value to inf or nan."""
    def make_argv(tmp, bundle_dir, monkeypatch):
        argv = _tiny_fom(tmp, bundle_dir, monkeypatch)
        with open(tmp / "tiny.txt", "a") as fh:
            fh.write(line + "\n")
        return argv
    return make_argv


def _bad_reduction(line):
    """`offline` on the tiny run with one reduction key out of its range."""
    def make_argv(tmp, bundle_dir, monkeypatch):
        _tiny_fom(tmp, bundle_dir, monkeypatch)
        with open(tmp / "tiny.txt", "a") as fh:
            fh.write(line + "\n")
        return ["offline", "--config", str(tmp / "tiny.txt"), "--out", str(tmp / "b")]
    return make_argv


# reduction keys that used to build a bundle, refused at the config stage
BAD_REDUCTION = {"n_u_zero": "n_u = 0", "n_u_negative": "n_u = -3", "n_p_negative": "n_p = -1",
                 "train_subsample_zero": "train_subsample = 0",
                 "n_p_max_negative": "n_p_max = -2"}


# one config line per value that Grid, FomConfig, Waveform or WindkesselParams
# refuses as non-finite (a nan that fails a comparison check was refused before)
NON_FINITE = {"t_end": "t_end = inf", "t0": "t0 = -inf", "lx": "lx = inf", "nu": "nu = nan",
              "u_sys": "u_sys = nan", "t_cycle": "t_cycle = inf",
              "Rd": "wk_0 = 35,inf,5e-4", "C": "wk_0 = 35,590,inf"}


def _failed_residual(tmp, bundle_dir, monkeypatch):
    monkeypatch.setattr(fom, "KronSumSolver", wrapped_solver(scale=1 + 1e-6))
    return _tiny_fom(tmp, bundle_dir, monkeypatch)


def _two_outlet_cfl(nx, ny):
    """The convective channel with a second outlet on top: its inflow through
    that outlet drives the explicit step past CFL 1 (at step 22 on 64x16, at
    step 15 on 40x20), which stops the run with exit 3."""
    def make_argv(tmp, bundle_dir, monkeypatch):
        cfg = tmp / "two_outlet.txt"
        cfg.write_text(f"nx = {nx}\nny = {ny}\ntag_top = outlet_1\nwk_1 = 50,800,6e-4\n")
        return ["fom", "--config", str(cfg), "--out", str(tmp / "snaps")]
    return make_argv


def _unknown_key(tmp, bundle_dir, monkeypatch):
    cfg = tmp / "typo.txt"
    cfg.write_text("nn_epoch = 5\n")
    return ["offline", "--config", str(cfg), "--out", str(tmp / "b")]


def _missing_config(tmp, bundle_dir, monkeypatch):
    return ["fom", "--config", str(tmp / "no_such.txt"), "--out", str(tmp / "snaps")]


def _hash_mismatch(tmp, bundle_dir, monkeypatch):
    shutil.copytree(bundle_dir, tmp / "bundle")
    rom_json = tmp / "bundle" / "rom.json"
    rom_json.write_text(rom_json.read_text() + " ")
    return ["online", "--bundle", str(tmp / "bundle"), "--out", str(tmp / "run")]


def _compare_copied_snapshots(tmp, bundle_dir, edit):
    """`compare` on a copy of the bundle's snapshots after ``edit(copy)``."""
    shutil.copytree(bundle_dir / "snapshots_fine", tmp / "snaps")
    edit(tmp / "snaps")
    return ["compare", "--fom", str(tmp / "snaps"),
            "--rom", str(bundle_dir / "snapshots_fine"), "--out", str(tmp / "cmp")]


def _truncated_snapshots(tmp, bundle_dir, monkeypatch):
    def truncate(d):
        (d / "u.bin").write_bytes((d / "u.bin").read_bytes()[:-8])
    return _compare_copied_snapshots(tmp, bundle_dir, truncate)


def _missing_snapshot_array(tmp, bundle_dir, monkeypatch):
    return _compare_copied_snapshots(tmp, bundle_dir, lambda d: (d / "u.bin").unlink())


def _old_format(tmp, bundle_dir, monkeypatch):
    def downgrade(d):
        meta = json.loads((d / "meta.json").read_text())
        (d / "meta.json").write_text(json.dumps({**meta, "format": "romkit-snapshots-1"}))
    return _compare_copied_snapshots(tmp, bundle_dir, downgrade)


def _damaged_runtime(key):
    def make_argv(tmp, bundle_dir, monkeypatch):
        shutil.copytree(bundle_dir, tmp / "bundle")
        (tmp / "bundle" / "runtime.json").write_text(DAMAGED_RUNTIME[key])
        return ["online", "--bundle", str(tmp / "bundle"), "--out", str(tmp / "run")]
    return make_argv


def _modes_out_of_range(tmp, bundle_dir, monkeypatch):
    return ["online", "--bundle", str(bundle_dir), "--out", str(tmp / "run"),
            "--modes", "99,1"]


def _pressure_modes_on_velocity_only(tmp, bundle_dir, monkeypatch):
    offline({"nx": "16", "ny": "4", "n_p": "0", "n_p_max": "0"}, out_dir=tmp / "vonly")
    return ["online", "--bundle", str(tmp / "vonly"), "--out", str(tmp / "run"),
            "--modes", "3,2"]


def _dt_r(value):
    def make_argv(tmp, bundle_dir, monkeypatch):
        return ["online", "--bundle", str(bundle_dir), "--out", str(tmp / "run"),
                "--dt-r", value]
    return make_argv


EXIT_CODES = [
    pytest.param(0, _tiny_fom, id="success"),
    pytest.param(2, _unknown_key, id="unknown_key"),
    pytest.param(2, _missing_config, id="missing_config"),
    pytest.param(2, _hash_mismatch, id="hash_mismatch"),
    pytest.param(2, _truncated_snapshots, id="truncated_snapshots"),
    pytest.param(2, _missing_snapshot_array, id="missing_snapshot_array"),
    pytest.param(2, _old_format, id="old_format"),
    *[pytest.param(2, _damaged_runtime(key), id=f"runtime_{key}") for key in DAMAGED_RUNTIME],
    pytest.param(2, _modes_out_of_range, id="modes_out_of_range"),
    pytest.param(2, _pressure_modes_on_velocity_only, id="pressure_modes_on_velocity_only"),
    pytest.param(2, _dt_r("0"), id="dt_r_zero"),
    pytest.param(2, _dt_r("nan"), id="dt_r_nan"),
    pytest.param(2, _dt_r("10"), id="dt_r_past_window"),
    *[pytest.param(2, _non_finite(line), id=f"non_finite_{name}")
      for name, line in NON_FINITE.items()],
    *[pytest.param(2, _bad_reduction(line), id=name) for name, line in BAD_REDUCTION.items()],
    pytest.param(3, _failed_residual, id="failed_residual_check"),
    pytest.param(3, _two_outlet_cfl(64, 16), id="two_outlet_cfl_64x16"),
    pytest.param(3, _two_outlet_cfl(40, 20), id="two_outlet_cfl_40x20"),
]


@pytest.mark.parametrize("code, make_argv", EXIT_CODES)
def test_exit_codes(code, make_argv, tmp_path, bundle_dir, monkeypatch):
    assert cli_main(make_argv(tmp_path, bundle_dir, monkeypatch)) == code
