"""Full-order channel flow: projection solver sanity checks.

Runs the MAC-grid solver twice: a steady parabolic inflow that relaxes onto
the analytic Poiseuille profile, and a pulsatile inflow with a Windkessel
outlet, reporting incompressibility and the outlet-pressure excursion.
"""

import numpy as np

from romkit import FomConfig, FomSolver, Grid, Waveform, WindkesselParams, fom_run
from romkit.operators import divergence

tags = {"left": "inlet", "right": "outlet_0", "top": "wall", "bottom": "wall"}

# --- steady Poiseuille -------------------------------------------------------
grid = Grid(8, 16, 1.0, 0.5, tags)
wf = Waveform(kind="constant", u_sys=0.01, shape="parabola")
cfg = FomConfig(grid=grid, nu=5e-3, dt=0.05, t0=0.0, t_end=40.0, waveform=wf,
                windkessel={0: WindkesselParams(1.0, 10.0, 0.1)}, snap_stride=None)
solver = FomSolver(cfg)
state = solver.initial_state()
for _ in range(800):
    state = solver.advance(state)
y = (np.arange(grid.ny) + 0.5) * grid.hy
exact = 0.01 * 6.0 * (y / grid.ly) * (1.0 - y / grid.ly)
mid = state.u[:, grid.nx // 2]
print("steady Poiseuille profile vs analytic parabola:")
print(f"  relative L2 deviation: {np.linalg.norm(mid - exact) / np.linalg.norm(exact):.2%}")

# --- pulsatile channel with a Windkessel outlet --------------------------------
grid = Grid(64, 16, 2.0, 0.5, tags)
wf = Waveform(kind="pulse", u_sys=8.0, t_cycle=0.6, systole_frac=0.4)
cfg = FomConfig(grid=grid, nu=0.04, dt=2.5e-3, t0=0.0, t_end=1.8, waveform=wf,
                windkessel={0: WindkesselParams(35.0, 590.0, 8e-4)},
                snap_stride=10, snap_start=1.2)
res = fom_run(cfg)
w = res.snapshots.velocity.values        # one snapshot per row: u faces, then v faces
u = w[:, :grid.n_u].reshape(-1, grid.ny, grid.nx + 1)
v = w[:, grid.n_u:].reshape(-1, grid.ny + 1, grid.nx)
div_worst = np.abs(divergence(grid, u, v)).max()
print(f"pulsatile channel: {res.n_steps} steps in {res.wall_time:.1f}s, "
      f"{len(res.snapshots)} snapshots")
print(f"  worst divergence over snapshots: {div_worst:.2e}")
print(f"  cycle-to-cycle drift of the recorded cycle: {res.cycle_drift:.2e}")
print(f"  outlet pressure range: [{res.snapshots.outlet_pressure.min():.0f}, "
      f"{res.snapshots.outlet_pressure.max():.0f}]")
