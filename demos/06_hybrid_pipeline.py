"""The whole hybrid pipeline on the default channel experiment.

Offline: full-order run, lifting, POD, supremizers, Galerkin operators and
the outflow-pressure network.  Online: the reduced solve at the training
cycle and at refined times, with the error-versus-modes sweep and the
pressure-lifting ablation that motivates the hybrid treatment.
"""

import numpy as np

from romkit import error_vs_n, offline, online
from romkit.fom import fom_run
from romkit.pipeline import DEFAULT_CONFIG, build_fom_config

print("offline stage (default channel experiment)...")
fom_result = fom_run(build_fom_config(dict(DEFAULT_CONFIG)))
bundle, timings = offline(dict(DEFAULT_CONFIG), fom_result=fom_result)
print(f"  FOM: {fom_result.n_steps} steps, {timings['fom']:.1f}s, "
      f"cycle drift {fom_result.cycle_drift:.1e}")
print(f"  bases: {bundle.basis_u.n_primary} velocity + {bundle.basis_u.n_supremizer} "
      f"supremizer modes, {bundle.basis_p.n_modes} pressure modes")
print(f"  stages [s]: " + ", ".join(f"{k}={v:.2f}" for k, v in timings.items()))

print("\nonline stage at the training times (N_u = N_p = 6)...")
rec, report = online(bundle, modes=(6, 6))
print(f"  time-averaged velocity error {report.time_avg('err_u'):.3e} "
      f"(projection floor {report.time_avg('proj_u'):.3e})")
print(f"  time-averaged pressure error {report.time_avg('err_p'):.3e}")
print(f"  speedup: {report.speedup:.0f}x "
      f"(solve {1e3 * report.timings['rom_solve']:.1f}ms vs FOM "
      f"{report.timings['fom_recorded']:.1f}s)")

print("\nerror versus modes (one N for velocity, pressure and supremizers):")
print(f"{'N':>3} {'reconstruction':>15} {'projection':>12}")
for entry in error_vs_n(bundle):
    print(f"{entry['N']:3d} {entry['err_u']:15.4e} {entry['proj_u']:12.4e}")

print("\nrefined online step (0.01 -> 0.005):")
t_lo, t_hi = bundle.train.times[0], bundle.train.times[-1]
for dtr in (0.01, 0.005):
    qt = np.round(np.arange(t_lo, t_hi + 1e-12, dtr), 9)
    _, rep = online(bundle, query_times=qt, dt_r=dtr, timing_reps=1)
    print(f"  dt_r={dtr}: err_u {rep.time_avg('err_u'):.3e}, "
          f"err_p {rep.time_avg('err_p'):.3e}")

print("\npressure-lifting ablation (same snapshots, no pressure lifting):")
cfg = dict(DEFAULT_CONFIG)
cfg["lift_pressure"] = "false"
ablated, _ = offline(cfg, fom_result=fom_result)
_, rep_ab = online(ablated, timing_reps=1)
ratio = rep_ab.time_avg("err_p") / report.time_avg("err_p")
print(f"  pressure error grows from {report.time_avg('err_p'):.2e} to "
      f"{rep_ab.time_avg('err_p'):.2e}  ({ratio:.0f}x)")
