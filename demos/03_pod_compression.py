"""Method-of-snapshots POD on channel snapshots.

Builds the correlation matrix, diagonalizes it with the Jacobi sweep, and
tabulates the eigenvalue tail against the directly computed mean squared
projection residual -- the two must agree, and the cumulative energy shows
how few modes the pulsatile channel really needs.
"""

import numpy as np

from romkit import (
    FomConfig, Grid, Waveform, WindkesselParams, compute_lifting, fom_run,
    homogenize, pod_basis, projection_error, truncation_rank,
)

tags = {"left": "inlet", "right": "outlet_0", "top": "wall", "bottom": "wall"}
grid = Grid(48, 12, 2.0, 0.5, tags)
wf = Waveform(kind="pulse", u_sys=8.0, t_cycle=0.6, systole_frac=0.4)
cfg = FomConfig(grid=grid, nu=0.04, dt=2.5e-3, t0=0.0, t_end=1.8, waveform=wf,
                windkessel={0: WindkesselParams(35.0, 590.0, 8e-4)},
                snap_stride=4, snap_start=1.2)
res = fom_run(cfg)
lift = compute_lifting(grid)
u_d = np.array([wf.magnitude(t) for t in res.snapshots.times])
hom = homogenize(res.snapshots, u_d, res.snapshots.outlet_pressure, lift)

basis = pod_basis(hom.velocity, kind="velocity")
w = basis.eigenvalues
total = w.sum()
print(f"M = {len(hom.velocity)} homogenized velocity snapshots, "
      f"numerical rank {basis.n_modes}")
print(f"modes for 99.99% cumulative energy: {truncation_rank(w, 0.9999)}")
print(f"{'N':>3} {'tail sum':>12} {'direct residual':>16} {'energy %':>9}")
for n in range(0, min(10, basis.n_modes) + 1):
    tail = w[n:].sum()
    direct = projection_error(hom.velocity, basis, n)
    print(f"{n:3d} {tail:12.4e} {direct:16.4e} {100 * (1 - tail / total):8.4f}%")
gram = np.abs(basis.gram() - np.eye(basis.n_modes)).max()
print(f"basis orthonormality deviation: {gram:.2e}")
