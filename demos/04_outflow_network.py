"""Feedforward network as a continuous outflow-pressure curve.

The Windkessel datum exists only at the discrete solver steps; the network
turns those samples into a function of time, which the online reduced
solver queries between and beyond the stored instants.  The GD-trained
network (the paper's) is shown next to the least-squares Fourier fit that
the offline pipeline uses.
"""

import numpy as np

from romkit import (TrainConfig, WindkesselParams, WindkesselState, fit_outflow, init_model,
                    nn_train, wk_step)
from romkit.nn import predict_outflow

params = WindkesselParams(Rp=1.0, Rd=10.0, C=0.05)
state = WindkesselState()
ts, ps = [], []
dt, t_cycle = 0.01, 0.5
for _ in range(round(2 * t_cycle / dt) + 1):
    ts.append(state.t)
    ps.append(state.p)
    q = max(np.sin(2 * np.pi * state.t / t_cycle), 0.0) * 1e-3
    state = wk_step(state, q, dt, params)
ts, ps = np.array(ts), np.array(ps)
print(f"dataset: {ts.size} Windkessel samples over [{ts[0]}, {ts[-1]:.2f}]s")

model = init_model(hidden_neurons=32, hidden_layers=2, activation="tanh", seed=4)
trained, hist = nn_train(model, ts, ps, TrainConfig(epochs=30000, learning_rate=0.25, seed=4))
print(f"training: {hist.shape[0]} epochs, final train/test MSE "
      f"{hist[-1, 1]:.2e}/{hist[-1, 2]:.2e} (normalized units)")
# the trace starts from rest, so its first cycle is a transient that no
# periodic curve follows; the pipeline fits one settled cycle instead
fourier, fhist = fit_outflow(ts, ps, t_cycle, seed=4)
print(f"Fourier fit: {fourier.layer_sizes[1] // 2} harmonics, train/test MSE "
      f"{fhist[0, 1]:.2e}/{fhist[0, 2]:.2e} (normalized units)")

# refined trace as the oracle at unseen half-step times
state = WindkesselState()
fine = {0.0: 0.0}
for _ in range(round(1.0 / 0.005)):
    q = max(np.sin(2 * np.pi * state.t / t_cycle), 0.0) * 1e-3
    state = wk_step(state, q, 0.005, params)
    fine[round(state.t, 10)] = state.p
print(f"{'t (new)':>9} {'GD network':>12} {'Fourier fit':>12} {'refined oracle':>15}")
for i in (12, 37, 61, 80):
    t_mid = 0.5 * (ts[i] + ts[i + 1])
    print(f"{t_mid:9.4f} {predict_outflow(trained, t_mid):12.6f} "
          f"{predict_outflow(fourier, t_mid):12.6f} {fine[round(t_mid, 10)]:15.6f}")
