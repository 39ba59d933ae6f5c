import json
import shutil

import numpy as np
import pytest

from romkit.cli import main as cli_main
from romkit.errors import ConfigurationError, FormatError
from romkit.fom import fom_run
from romkit.grid import SnapshotSet
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

SMALL_CONFIG = {
    "nx": "24", "ny": "8", "lx": "2.0", "ly": "0.5",
    "nu": "0.04", "dt": "2.5e-3", "t0": "0.0", "t_end": "0.9",
    "u_sys": "8.0", "t_cycle": "0.3", "systole_frac": "0.4",
    "wk_0": "35.0,590.0,5e-4",
    "snap_start": "0.6", "snap_stride": "2", "train_subsample": "2",
    "n_u": "4", "n_p": "3", "n_u_max": "10", "n_p_max": "6",
    "nn_hidden": "24", "nn_layers": "2", "nn_activation": "tanh",
    "nn_epochs": "4000", "nn_lr": "0.2", "nn_split": "0.8",
    "seed": "0",
}


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundles") / "channel"
    offline(SMALL_CONFIG, out_dir=d)
    return d


@pytest.fixture(scope="module")
def bundle(bundle_dir):
    return Bundle.load(bundle_dir)


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

    def test_windkessel_keys_accepted(self):
        cfg = parse_config("wk_0 = 35.0,590.0,8e-4\nwk_1 = 1,2,3\nwk_file = wk.csv\n")
        assert cfg["wk_1"] == "1,2,3" and cfg["wk_file"] == "wk.csv"


class TestOffline:
    def test_bundle_files_present(self, bundle_dir):
        names = {p.name for p in bundle_dir.iterdir()}
        assert {"rom.json", "operators.bin", "manifest.json", "timings.csv",
                "nn_0.json", "loss_0.csv"} <= names
        assert (bundle_dir / "basis_u" / "basis.json").exists()
        assert (bundle_dir / "lifting" / "chi_u.bin").exists()
        assert (bundle_dir / "snapshots_train" / "meta.json").exists()

    def test_rerun_bit_identical_manifest(self, bundle_dir, tmp_path):
        offline(SMALL_CONFIG, out_dir=tmp_path / "again")
        a = json.loads((bundle_dir / "manifest.json").read_text())
        b = json.loads((tmp_path / "again" / "manifest.json").read_text())
        assert a["files"] == b["files"]

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
        raw = bytearray((flipped / "operators.bin").read_bytes())
        raw[-1] ^= 0x01
        (flipped / "operators.bin").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="operators.bin"):
            Bundle.load(flipped)
        assert cli_main(["online", "--bundle", str(flipped), "--out", str(tmp_path / "r")]) == 2

        missing = tmp_path / "missing"
        shutil.copytree(bundle_dir, missing)
        (missing / "nn_0.json").unlink()
        with pytest.raises(FormatError, match="missing"):
            Bundle.load(missing)

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


class TestOnline:
    def test_reports_written(self, bundle, tmp_path):
        rec, report = online(bundle)
        report.sweep = error_vs_n(bundle)
        report.write(tmp_path / "report")
        names = {p.name for p in (tmp_path / "report").iterdir()}
        assert {"errors.csv", "spectrum.csv", "timings.csv", "report.json",
                "errors_vs_n.csv"} <= names
        header = (tmp_path / "report" / "errors.csv").read_text().splitlines()[0]
        assert header == "t,err_u,err_p,proj_u,proj_p"

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

    def test_refined_query_step_uses_fine_set(self, bundle):
        times = np.round(np.arange(0.6, 0.9 + 1e-12, 0.005), 9)
        rec, report = online(bundle, query_times=times, dt_r=0.005)
        assert report.err_u is not None and report.err_u.size == times.size

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
        hom = rec.velocity.values - np.outer(wf.magnitude(t), lift.chi_u.values)
        assert np.allclose(hom[1], 0.75 * hom[0] + 0.25 * hom[2], rtol=0, atol=1e-9 * np.abs(hom).max())
        q = rec.outlet_pressure[:, 0]
        hom_p = rec.pressure.values - np.outer(q, lift.chi_p[0].values)
        assert np.allclose(hom_p[1], 0.75 * hom_p[0] + 0.25 * hom_p[2], rtol=0,
                           atol=1e-9 * np.abs(hom_p).max())

    def test_query_window_guard(self, bundle):
        with pytest.raises(ConfigurationError):
            online(bundle, query_times=np.array([0.6, 1.2]))

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
        with pytest.raises(ConfigurationError):
            online(b, want_pressure=True)
        _, report = online(b, timing_reps=1)
        assert report.err_p is None
        assert report.err_u is not None

    def test_error_vs_n_table_complete(self, bundle):
        sweep = error_vs_n(bundle, n_values=[1, 2, 3])
        assert [e["N"] for e in sweep] == [1, 2, 3]
        for e in sweep:
            for col in ("err_u", "err_p", "proj_u", "proj_p"):
                assert e[col] is not None and np.isfinite(e[col])
        proj = [e["proj_u"] for e in sweep]
        assert all(b <= a + 1e-12 for a, b in zip(proj, proj[1:]))


class TestCompare:
    def test_identical_sets_zero_error(self, bundle):
        report = compare(bundle.train, bundle.train)
        assert np.all(report.err_u == 0.0) and np.all(report.err_p == 0.0)

    def test_projected_rom_matches_projection_error(self, bundle):
        from romkit.grid import Field
        from romkit.lifting import homogenize
        from romkit.pod import project_coefficients

        idx, n_p = bundle.mode_selection()
        bu = bundle.sliced_basis_u(idx)
        bp = bundle.sliced_basis_p(n_p)
        wf = bundle.waveform
        u_d = np.array([wf.magnitude(t) for t in bundle.train.times])
        hom = homogenize(bundle.train, u_d, bundle.train.outlet_pressure, bundle.lifting)
        Phi = bu.modes.values
        Psi = bp.modes.values
        vel, pres = [], []
        for m in range(len(bundle.train)):
            cu = project_coefficients(hom.velocity[m], bu)
            cp = project_coefficients(hom.pressure[m], bp)
            vel.append(Field(bundle.grid, "vector2",
                             cu @ Phi + u_d[m] * bundle.lifting.chi_u.values))
            pvals = cp @ Psi
            for k in range(bundle.lifting.n_outlets):
                pvals = pvals + bundle.train.outlet_pressure[m, k] * bundle.lifting.chi_p[k].values
            pres.append(Field(bundle.grid, "scalar", pvals))
        rom_set = SnapshotSet(bundle.train.times.copy(), vel, pres, bundle.nu,
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
        assert rows[0] == "step,t,poisson_iters,div_max"
        fom_result = fom_run(build_fom_config(parse_config(cfg)))
        assert len(rows) == fom_result.n_steps + 1
        step, t, iters, div = rows[-1].split(",")
        assert int(step) == fom_result.n_steps and float(t) == fom_result.step_times[-1]
        assert int(iters) == fom_result.poisson_iters[-1] > 0
        assert float(div) == fom_result.div_max[-1]

    def test_offline_online_compare_roundtrip(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert cli_main(["offline", "--config", str(cfg), "--out", str(tmp_path / "bundle")]) == 0
        assert cli_main(["online", "--bundle", str(tmp_path / "bundle"),
                         "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "errors.csv").exists()
        assert (tmp_path / "run" / "report.json").exists()
        assert cli_main(["compare",
                         "--fom", str(tmp_path / "bundle" / "snapshots_train"),
                         "--rom", str(tmp_path / "run" / "reconstruction"),
                         "--bundle", str(tmp_path / "bundle"),
                         "--out", str(tmp_path / "cmp")]) == 0
        assert (tmp_path / "cmp" / "errors.csv").exists()

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
