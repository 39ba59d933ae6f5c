"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The default channel experiment (bundle fixtures below) is shared
across criteria so the full-order solver runs once.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from romkit.fom import FomConfig, Waveform, fom_run
from romkit.grid import FieldRows, Grid, l2_norm
from romkit.lifting import compute_lifting, dehomogenize, homogenize
from romkit.nn import TrainConfig, init_model, nn_backprop, nn_train
from romkit.pod import pod_basis, project_coefficients, projection_error, truncation_rank
from romkit.pipeline import DEFAULT_CONFIG, build_fom_config, error_vs_n, offline, online
from romkit.rom import assemble_operators, integrate_rom, prepare_step, supremizer_enrich
from romkit.affine_rb import demo_problem, fom_solve, rb_offline, rb_online
from romkit.windkessel import (
    REFERENCE_OUTLET_PARAMS,
    WindkesselParams,
    WindkesselState,
    wk_steady_pressure,
    wk_step,
)

from conftest import CHANNEL_TAGS, inlet_trace, random_vectors


def _report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def default_fom():
    cfg = build_fom_config(dict(DEFAULT_CONFIG))
    return fom_run(cfg)


@pytest.fixture(scope="module")
def default_bundle(default_fom):
    bundle, timings = offline(dict(DEFAULT_CONFIG), fom_result=default_fom)
    return bundle, timings


@pytest.fixture(scope="module")
def ablation_bundle(default_fom):
    cfg = dict(DEFAULT_CONFIG)
    cfg["lift_pressure"] = "false"
    bundle, _ = offline(cfg, fom_result=default_fom)
    return bundle


def test_criterion_1_pod_tail_identity(default_bundle, rng):
    """(1/M) sum ||psi - P_N psi||^2 equals the neglected-eigenvalue sum."""
    t0 = time.perf_counter()
    grid = Grid(12, 6, 1.0, 0.5, CHANNEL_TAGS)
    fields = random_vectors(grid, rng, 128)
    checked = 0
    for case in (fields, default_bundle[0].train.pressure):
        basis = pod_basis(case, kind="snapshots")
        w = basis.eigenvalues
        total = float(w.sum())
        for n in range(basis.n_modes + 1):
            direct = projection_error(case, basis, n)
            tail = float(w[n:].sum())
            assert abs(direct - tail) <= 1e-10 * total, (n, direct, tail)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("1 (POD tail identity)", f"{checked} truncation levels, {elapsed:.1f}s")


def test_criterion_2_basis_orthonormality(default_bundle):
    bundle = default_bundle[0]
    worst = 0.0
    g = bundle.waveform.magnitude(bundle.train.times)
    hom_u = bundle.train.velocity.values - np.outer(g, bundle.lifting.chi_u.values[0])
    plain_u = pod_basis(FieldRows(bundle.grid, "vector2", hom_u), n_modes=8, kind="velocity")
    for basis in (plain_u, bundle.basis_p, bundle.basis_u):
        G = basis.gram()
        dev = np.abs(G - np.eye(basis.n_modes)).max()
        worst = max(worst, dev)
        assert dev < 1e-10
    _report("2 (basis orthonormality)", f"worst Gram deviation {worst:.2e}")


def test_criterion_3_eigensolver_oracle(rng):
    from romkit.pod import symmetric_eig

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 65))
        A = rng.standard_normal((n, n))
        C = A + A.T
        w, V = symmetric_eig(C)
        err = np.linalg.norm(V @ np.diag(w) @ V.T - C, "fro") / np.linalg.norm(C, "fro")
        worst = max(worst, err)
        assert err <= 1e-12
    _report("3 (symmetric eigensolver)", f"worst reconstruction {worst:.2e} over 50 matrices")


def test_criterion_4_windkessel_steady_and_order(rng):
    def steady_by_iteration(params, Q):
        s = WindkesselState()
        dt = 0.2 * params.tau
        for _ in range(10_000_000):
            s_new = wk_step(s, Q, dt, params)
            if abs(s_new.pp - s.pp) < 1e-13 * max(abs(s_new.pp), 1e-300):
                return s_new.p
            s = s_new
        raise AssertionError("no fixed point")

    rows = list(REFERENCE_OUTLET_PARAMS.values())
    for _ in range(20):
        rows.append(WindkesselParams(Rp=10 ** rng.uniform(0, 8),
                                     Rd=10 ** rng.uniform(0, 9),
                                     C=10 ** rng.uniform(-9, -1)))
    worst = 0.0
    for params in rows:
        Q = 1e-5
        p = steady_by_iteration(params, Q)
        ref = wk_steady_pressure(Q, params)
        rel = abs(p - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel < 1e-3

    params = WindkesselParams(Rp=1.0, Rd=2.0, C=0.5)
    t_end = 0.4 * params.tau
    exact = np.exp(-t_end / params.tau)

    def decay_error(dt):
        s = WindkesselState(pp=1.0, p=1.0)
        for _ in range(round(t_end / dt)):
            s = wk_step(s, 0.0, dt, params)
        return abs(s.pp - exact)

    ratio = decay_error(t_end / 50) / decay_error(t_end / 100)
    assert 1.8 <= ratio <= 2.2
    _report("4 (Windkessel steady + order)",
            f"worst steady deviation {worst:.2e}, dt-halving ratio {ratio:.2f}")


def test_criterion_5_nn_gradients_and_sin_target(rng):
    t0 = time.perf_counter()
    worst_rel = 0.0
    h = 1e-6
    for trial in range(10):
        activation = "softplus" if trial % 2 == 0 else "tanh"
        model = init_model(hidden_neurons=int(rng.integers(3, 7)), hidden_layers=2,
                           activation=activation, seed=int(rng.integers(1 << 30)))
        x = rng.uniform(0, 1, 10)
        y = rng.uniform(0, 1, 10)
        gw, gb, _ = nn_backprop(model, x, y)

        def loss(m):
            return nn_backprop(m, x, y)[2]

        for l in range(len(model.weights)):
            w = model.weights[l]
            for idx in np.ndindex(w.shape):
                wp = [a.copy() for a in model.weights]
                wm = [a.copy() for a in model.weights]
                wp[l][idx] += h
                wm[l][idx] -= h
                fd = (loss(replace(model, weights=tuple(wp)))
                      - loss(replace(model, weights=tuple(wm)))) / (2 * h)
                rel = abs(gw[l][idx] - fd) / max(abs(fd), abs(gw[l][idx]), 1e-8)
                worst_rel = max(worst_rel, rel)
                assert rel < 1e-4
            b = model.biases[l]
            for idx in range(b.size):
                bp = [a.copy() for a in model.biases]
                bm = [a.copy() for a in model.biases]
                bp[l][idx] += h
                bm[l][idx] -= h
                fd = (loss(replace(model, biases=tuple(bp)))
                      - loss(replace(model, biases=tuple(bm)))) / (2 * h)
                rel = abs(gb[l][idx] - fd) / max(abs(fd), abs(gb[l][idx]), 1e-8)
                worst_rel = max(worst_rel, rel)
                assert rel < 1e-4

    m = init_model(hidden_neurons=32, hidden_layers=2, activation="tanh", seed=4)
    t = np.linspace(0, 1, 64)
    p = np.sin(2 * np.pi * t)
    _, hist = nn_train(m, t, p, TrainConfig(epochs=30000, learning_rate=0.25, seed=4))
    test_mse = hist[-1, 2]
    assert test_mse < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("5 (NN gradients + sin target)",
            f"worst gradient deviation {worst_rel:.2e}, sin test MSE {test_mse:.2e}, {elapsed:.0f}s")


def test_criterion_6_lifting(default_bundle, ablation_bundle, rng):
    bundle = default_bundle[0]
    wf = bundle.waveform
    u_d = np.array([wf.magnitude(t) for t in bundle.train.times])
    hom = homogenize(bundle.train, u_d, bundle.train.outlet_pressure, bundle.lifting)
    bound = 1e-9 * np.abs(u_d).max()
    worst_trace = max(np.abs(inlet_trace(bundle.grid, f.values)).max() for f in hom.velocity)
    assert worst_trace <= bound

    back = dehomogenize(hom, u_d, bundle.train.outlet_pressure, bundle.lifting)
    worst_round = 0.0
    for a, b in zip(bundle.train.velocity, back.velocity):
        scale = max(np.abs(a.values).max(), 1e-300)
        worst_round = max(worst_round, np.abs(a.values - b.values).max() / scale)
    for a, b in zip(bundle.train.pressure, back.pressure):
        scale = max(np.abs(a.values).max(), 1e-300)
        worst_round = max(worst_round, np.abs(a.values - b.values).max() / scale)
    assert worst_round <= 1e-13

    _, rep_with = online(bundle, timing_reps=1)
    _, rep_without = online(ablation_bundle, timing_reps=1)
    assert rep_without.extras["n_p"] == bundle.n_p > 0
    ratio = rep_without.time_avg("err_p") / rep_with.time_avg("err_p")
    assert ratio >= 10.0
    _report("6 (lifting)",
            f"inlet trace {worst_trace:.1e} <= {bound:.1e}, roundtrip {worst_round:.1e}, "
            f"pressure ablation blow-up {ratio:.0f}x")


def test_criterion_7_rom_fidelity(default_bundle, default_fom):
    bundle, timings = default_bundle
    assert timings["fom"] <= 600.0
    rom_pipeline_time = timings["total"] - timings["fom"]
    assert rom_pipeline_time <= 120.0

    _, report = online(bundle, modes=(6, 6), timing_reps=1)
    err_u = report.time_avg("err_u")
    proj_u = report.time_avg("proj_u")
    assert err_u <= 3.0 * proj_u

    knee = truncation_rank(bundle.basis_u.eigenvalues, 0.9999)
    sweep = error_vs_n(bundle, n_values=range(1, max(knee, 2) + 1))
    errs = [e["err_u"] for e in sweep]
    projs = [e["proj_u"] for e in sweep]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
    assert all(b <= a * (1 + 1e-9) for a, b in zip(projs, projs[1:]))
    _report("7 (ROM fidelity)",
            f"N=6 reconstruction/projection = {err_u / proj_u:.2f} <= 3, "
            f"monotone to knee N={knee}, FOM {timings['fom']:.0f}s, "
            f"pipeline {rom_pipeline_time:.0f}s")


def test_criterion_8_stokes_equivalence():
    grid = Grid(32, 8, 2.0, 0.5, CHANNEL_TAGS)
    wf = Waveform(kind="pulse", u_sys=0.01, t_cycle=0.24, systole_frac=0.4)
    wk = {0: WindkesselParams(Rp=0.05, Rd=1.0, C=0.5)}
    cfg = FomConfig(grid=grid, nu=2e-5, dt=1e-4, t0=0.0, t_end=0.24, waveform=wf,
                    windkessel=wk, snap_stride=20, include_convection=False)
    res = fom_run(cfg)
    lift = compute_lifting(grid)
    u_d = np.array([wf.magnitude(t) for t in res.snapshots.times])
    hom = homogenize(res.snapshots, u_d, res.snapshots.outlet_pressure, lift)
    basis_u = pod_basis(hom.velocity, kind="velocity")
    basis_p = pod_basis(hom.pressure, kind="pressure")
    enriched = supremizer_enrich(basis_u, basis_p, grid)
    stokes = assemble_operators(enriched, basis_p, lift, cfg.nu, grid,
                                include_convection=cfg.include_convection)
    a_fom = project_coefficients(hom.velocity, enriched)
    t = res.step_times        # accumulated steps: prepare at their mean spacing
    step = prepare_step(stokes, (t[-1] - t[0]) / (t.size - 1))
    traj = integrate_rom(step, a_fom[0], t, wf, res.step_outlet_pressure)
    idx = np.searchsorted(res.step_times, res.snapshots.times)
    diff = np.linalg.norm(traj.a[idx] - a_fom, axis=1)
    full = np.array([l2_norm(f) for f in res.snapshots.velocity])
    rel = np.sqrt(np.mean(diff**2)) / np.sqrt(np.mean(full**2))
    assert rel < 1e-6
    _report("8 (Stokes equivalence)", f"relative trajectory deviation {rel:.2e} < 1e-6")


def test_criterion_9_speedup(default_bundle):
    bundle = default_bundle[0]
    _, report = online(bundle, timing_reps=5)
    assert report.speedup >= 100.0
    _report("9 (speedup)",
            f"{report.speedup:.0f}x (FOM {report.timings['fom_recorded']:.2f}s, "
            f"online solve {report.timings['rom_solve'] * 1e3:.1f}ms, median of 5)")


def test_criterion_10_affine_rb():
    problem = demo_problem(n_dof=4096)
    train_mus = np.linspace(0.1, 10.0, 10)[:, None]
    space = rb_offline(problem, train_mus, n_modes=3)

    worst_repro = 0.0
    for mu in train_mus:
        _, s_fom = fom_solve(problem, mu)
        _, s_rb = rb_online(space, mu)
        rel = abs(s_rb - s_fom) / abs(s_fom)
        worst_repro = max(worst_repro, rel)
        assert rel <= 1e-10

    test_grid = np.linspace(0.12, 9.95, 50)
    fom_values = {float(mu): fom_solve(problem, [mu])[1] for mu in test_grid}
    max_err = []
    for n in (1, 2, 3):
        sp_n = rb_offline(problem, train_mus, n_modes=n)
        errs = [abs(fom_values[float(mu)] - rb_online(sp_n, [mu])[1]) for mu in test_grid]
        max_err.append(max(errs))
    assert all(b <= a * (1 + 1e-9) for a, b in zip(max_err, max_err[1:]))

    # online touches only N-sized data: structural check plus timing ratio
    model = space.reduced
    assert all(arr.size < problem.n_dof for arr in (model.A_rb, model.f_rb))
    mu = np.array([3.3])
    fom_solve(problem, mu)
    rb_online(model, mu)
    import gc

    gc.collect()
    gc.disable()
    try:
        t_fom = []
        for _ in range(9):
            t0 = time.perf_counter()
            fom_solve(problem, mu)
            t_fom.append(time.perf_counter() - t0)
        t_rb = []
        for _ in range(500):
            t0 = time.perf_counter()
            rb_online(model, mu)
            t_rb.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    # min is the standard robust cost estimator for microsecond-scale calls
    ratio = np.median(t_fom) / min(t_rb)
    assert ratio >= 100.0
    _report("10 (affine RB)",
            f"snapshot reproduction {worst_repro:.1e}, error decay "
            f"{max_err[0]:.1e}->{max_err[-1]:.1e}, online {ratio:.0f}x faster at N_delta=4096")


def test_criterion_11_refined_time_step(default_bundle):
    bundle = default_bundle[0]
    t_lo, t_hi = bundle.train.times[0], bundle.train.times[-1]
    runs = {}
    for dtr in (0.01, 0.005):
        qt = np.round(np.arange(t_lo, t_hi + 1e-12, dtr), 9)
        _, report = online(bundle, query_times=qt, dt_r=dtr, timing_reps=1)
        runs[dtr] = report
    for name in ("err_u", "err_p"):
        coarse = runs[0.01].time_avg(name)
        fine = runs[0.005].time_avg(name)
        change = max(coarse, fine) / min(coarse, fine)
        assert change < 2.0, (name, coarse, fine)
    # trends: the refined error curve sampled at the coarse times tracks the
    # coarse curve
    coarse_curve = runs[0.01].err_u
    at = np.searchsorted(np.round(runs[0.005].times, 9), np.round(runs[0.01].times, 9))
    fine_curve = runs[0.005].err_u[at]
    corr = np.corrcoef(coarse_curve, fine_curve)[0, 1]
    assert corr > 0.5
    change_u = runs[0.005].time_avg("err_u") / runs[0.01].time_avg("err_u")
    change_p = runs[0.005].time_avg("err_p") / runs[0.01].time_avg("err_p")
    _report("11 (refined online step)",
            f"halving dt_r changes err_u by {change_u:.2f}x, err_p by {change_p:.2f}x, "
            f"trend correlation {corr:.2f}")
