import warnings
from dataclasses import replace

import numpy as np
import pytest

from romkit.errors import ConfigurationError, ShapeError, TrainingError
from romkit.nn import (
    FOURIER_HARMONICS,
    ExtrapolationWarning,
    NNModel,
    TrainConfig,
    REFERENCE_NN_DEFAULTS,
    fit_outflow,
    init_model,
    load_model,
    nn_backprop,
    nn_forward,
    nn_train,
    predict_outflow,
    save_loss_history,
    save_model,
)
from romkit.windkessel import WindkesselParams, WindkesselState, wk_step


def linear_neuron(w=2.0, b=1.0):
    return NNModel(
        layer_sizes=(1, 1),
        weights=(np.array([[w]]),),
        biases=(np.array([b]),),
        activation="identity",
    )


class TestForward:
    def test_zero_network_outputs_denormalized_zero(self):
        m = init_model(hidden_neurons=4, hidden_layers=2, activation="identity", seed=0,
                       y_range=(3.0, 5.0))
        zeroed = NNModel(m.layer_sizes, tuple(np.zeros_like(w) for w in m.weights),
                         tuple(np.zeros_like(b) for b in m.biases), "identity",
                         m.x_range, m.y_range)
        # normalized output 0 maps back to the lower end of the y range
        assert nn_forward(zeroed, 0.7) == pytest.approx(3.0, abs=1e-15)

    def test_single_linear_neuron(self):
        assert nn_forward(linear_neuron(), 3.0) == pytest.approx(7.0, abs=1e-15)

    def test_softplus_at_zero(self):
        m = NNModel(
            layer_sizes=(1, 1, 1),
            weights=(np.array([[0.0]]), np.array([[1.0]])),
            biases=(np.array([0.0]), np.array([0.0])),
            activation="softplus",
        )
        assert nn_forward(m, 0.3) == pytest.approx(np.log(2.0), rel=1e-14)

    def test_vectorized_matches_scalar(self):
        m = init_model(hidden_neurons=8, hidden_layers=2, activation="tanh", seed=3)
        ts = np.linspace(0, 1, 7)
        vec = nn_forward(m, ts)
        assert np.allclose(vec, [nn_forward(m, float(t)) for t in ts], atol=1e-15)


BAD_LAYOUTS = [(1, 0, 1), (2, 3, 1), (1, 3, 2)]


def _random_layers(sizes, rng):
    """Weights and biases of the given widths."""
    pairs = [(rng.standard_normal((n_out, n_in)), rng.standard_normal(n_out))
             for n_in, n_out in zip(sizes[:-1], sizes[1:])]
    return tuple(w for w, _ in pairs), tuple(b for _, b in pairs)


class TestLayout:
    """Only [1, H, ..., H, 1] networks with widths >= 1 are accepted, at
    construction, initialization and load, before any array is drawn or used."""

    @pytest.mark.parametrize("sizes", BAD_LAYOUTS)
    def test_model_refuses_layout(self, sizes, rng):
        weights, biases = _random_layers(sizes, rng)
        with pytest.raises(ConfigurationError, match="layer sizes"):
            NNModel(sizes, weights, biases, "softplus")

    def test_model_refuses_negative_width(self):
        with pytest.raises(ConfigurationError, match="layer sizes"):
            NNModel((1, -2, -2, 1), (np.zeros((1, 1)),) * 3, (np.zeros(1),) * 3, "softplus")

    @pytest.mark.parametrize("kw, name", [({"hidden_neurons": 0}, "hidden_neurons"),
                                          ({"hidden_neurons": -2}, "hidden_neurons"),
                                          ({"hidden_neurons": 2.5}, "hidden_neurons"),
                                          ({"hidden_layers": -1}, "hidden_layers")])
    def test_init_refuses_layout(self, kw, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no RuntimeWarning from a draw
            with pytest.raises(ConfigurationError, match=name):
                init_model(**kw)

    def test_init_without_hidden_layers(self):
        assert init_model(hidden_layers=0).layer_sizes == (1, 1)

    @pytest.mark.parametrize("sizes", BAD_LAYOUTS)
    def test_load_refuses_layout(self, sizes, tmp_path, rng):
        from romkit.grid import save_arrays

        weights, biases = _random_layers(sizes, rng)
        arrays = {}
        for l, (w, b) in enumerate(zip(weights, biases)):
            arrays[f"W{l}"], arrays[f"b{l}"] = w, b
        save_arrays(tmp_path / "nn_0", "romkit-nn-2",
                    {"layer_sizes": list(sizes), "activation": "softplus",
                     "x_range": [0.0, 1.0], "y_range": [0.0, 1.0]}, arrays)
        with pytest.raises(ConfigurationError, match="layer sizes"):
            load_model(tmp_path / "nn_0")


class TestBackprop:
    def test_zero_residual_gives_zero_gradients(self):
        m = init_model(hidden_neurons=6, hidden_layers=2, activation="tanh", seed=1)
        x = np.linspace(0, 1, 9)
        y = nn_forward(m, x)
        gw, gb, mse = nn_backprop(m, x, y)
        assert mse <= 1e-28
        for g in gw + gb:
            assert np.abs(g).max() <= 1e-14

    def test_single_linear_neuron_analytic(self):
        m = linear_neuron(w=1.5, b=-0.25)
        x, y = np.array([0.4]), np.array([2.0])
        gw, gb, _ = nn_backprop(m, x, y)
        resid = 1.5 * 0.4 - 0.25 - 2.0
        assert gw[0][0, 0] == pytest.approx(2.0 * resid * 0.4, rel=1e-14)
        assert gb[0][0] == pytest.approx(2.0 * resid, rel=1e-14)

    @pytest.mark.parametrize("activation", ["softplus", "tanh", "identity"])
    def test_finite_difference_oracle(self, activation, rng):
        m = init_model(hidden_neurons=5, hidden_layers=2, activation=activation,
                       seed=int(rng.integers(1 << 30)))
        x = rng.uniform(0, 1, 12)
        y = rng.uniform(0, 1, 12)
        gw, gb, _ = nn_backprop(m, x, y)
        h = 1e-6

        def loss(model):
            _, _, mse = nn_backprop(model, x, y)
            return mse

        from dataclasses import replace

        for l in range(len(m.weights)):
            w = m.weights[l]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                wp = [a.copy() for a in m.weights]
                wm = [a.copy() for a in m.weights]
                wp[l][idx] += h
                wm[l][idx] -= h
                fd = (loss(replace(m, weights=tuple(wp))) - loss(replace(m, weights=tuple(wm)))) / (2 * h)
                assert gw[l][idx] == pytest.approx(fd, rel=1e-4, abs=1e-10)
            bp = [a.copy() for a in m.biases]
            bm = [a.copy() for a in m.biases]
            bp[l][0] += h
            bm[l][0] -= h
            fd = (loss(replace(m, biases=tuple(bp))) - loss(replace(m, biases=tuple(bm)))) / (2 * h)
            assert gb[l][0] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_relu_finite_difference_off_the_kinks(self, rng):
        # a difference quotient is no oracle on relu's kink: with zero biases
        # and the test above's draw for relu, the first layer is dead and every
        # second-layer pre-activation is exactly 0.  Random biases keep each
        # one well off it here; at 0 the derivative is 0.
        sizes = (1, 5, 5, 1)
        weights, biases = _random_layers(sizes, rng)
        m = NNModel(sizes, weights, biases, "relu")
        x, y = rng.uniform(0, 1, 12), rng.uniform(0, 1, 12)
        u1 = weights[0] @ x[None, :] + biases[0][:, None]
        u2 = weights[1] @ np.maximum(u1, 0.0) + biases[1][:, None]
        assert min(np.abs(u1).min(), np.abs(u2).min()) > 1e-3
        assert 0 < np.count_nonzero(u2 > 0) < u2.size
        gw, gb, _ = nn_backprop(m, x, y)
        h = 1e-6
        for params, grads in (("weights", gw), ("biases", gb)):
            for l, g in enumerate(grads):
                for idx in np.ndindex(g.shape):
                    losses = []
                    for step in (h, -h):
                        arrays = list(getattr(m, params))
                        arrays[l] = arrays[l].copy()
                        arrays[l][idx] += step
                        losses.append(nn_backprop(replace(m, **{params: tuple(arrays)}), x, y)[2])
                    fd = (losses[0] - losses[1]) / (2 * h)
                    assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-10)
        pre_kink = NNModel((1, 1, 1), (np.array([[1.0]]), np.array([[1.0]])),
                           (np.array([0.0]), np.array([0.0])), "relu")
        gw, gb, _ = nn_backprop(pre_kink, np.array([0.0]), np.array([1.0]))
        assert gw[0][0, 0] == gb[0][0] == 0.0

    def test_empty_batch_rejected(self):
        m = linear_neuron()
        with pytest.raises(ShapeError):
            nn_backprop(m, np.array([]), np.array([]))


class TestTraining:
    def test_constant_target_converges(self):
        # a bias-only exact fit exists; plain full-batch descent from the
        # uniform init settles at a stationary point near it, so the loss
        # floor sits around 1e-6 rather than at machine precision
        m = init_model(hidden_neurons=4, hidden_layers=2, activation="softplus", seed=0)
        t = np.linspace(0, 1, 16)
        p = np.full(16, 7.5)
        cfg = TrainConfig(epochs=2000, learning_rate=0.1, train_fraction=0.8, seed=0)
        trained, hist = nn_train(m, t, p, cfg)
        assert hist[-1, 1] < 2e-5
        assert hist[-1, 1] < 1e-4 * hist[0, 1]  # several orders below the start

    def test_sin_target_test_mse(self):
        m = init_model(hidden_neurons=32, hidden_layers=2, activation="tanh", seed=4)
        t = np.linspace(0, 1, 64)
        p = np.sin(2 * np.pi * t)
        cfg = TrainConfig(epochs=30000, learning_rate=0.25, train_fraction=0.8, seed=4)
        trained, hist = nn_train(m, t, p, cfg)
        assert hist[-1, 2] < 1e-4

    def test_deterministic_given_seed(self):
        t = np.linspace(0, 1, 20)
        p = np.cos(t)
        cfg = TrainConfig(epochs=50, learning_rate=0.05, seed=3)
        m = init_model(hidden_neurons=6, hidden_layers=2, seed=11)
        a, ha = nn_train(m, t, p, cfg)
        b, hb = nn_train(m, t, p, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(ha, hb)

    def test_convex_identity_loss_non_increasing(self):
        # linear model + identity activation: full-batch descent on a convex bowl
        m = init_model(hidden_neurons=1, hidden_layers=1, activation="identity", seed=5)
        t = np.linspace(0, 1, 32)
        p = 2.0 * t + 0.3
        cfg = TrainConfig(epochs=400, learning_rate=0.05, seed=0)
        _, hist = nn_train(m, t, p, cfg)
        train = hist[:, 1]
        assert np.all(np.diff(train) <= 1e-15)

    def test_divergence_detected(self):
        import warnings as _warnings

        m = init_model(hidden_neurons=16, hidden_layers=2, activation="softplus", seed=0)
        t = np.linspace(0, 1, 16)
        p = np.sin(2 * np.pi * t)
        with pytest.raises(TrainingError), _warnings.catch_warnings():
            _warnings.simplefilter("ignore", RuntimeWarning)  # overflow precedes the raise
            nn_train(m, t, p, TrainConfig(epochs=5000, learning_rate=1e4, seed=0))

    @pytest.mark.parametrize("kw", [
        pytest.param({"epochs": 2.5}, id="epochs_float"),
        pytest.param({"epochs": True}, id="epochs_bool"),
        pytest.param({"epochs": "5"}, id="epochs_str"),
        pytest.param({"epochs": 0}, id="epochs_zero"),
        pytest.param({"learning_rate": float("nan")}, id="lr_nan"),
        pytest.param({"learning_rate": float("inf")}, id="lr_inf"),
        pytest.param({"learning_rate": "0.1"}, id="lr_str"),
        pytest.param({"learning_rate": 0.0}, id="lr_zero"),
    ])
    def test_config_refused_when_built(self, kw):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kw)

    def test_reference_defaults_recorded(self):
        cfg = TrainConfig()
        assert cfg.epochs == REFERENCE_NN_DEFAULTS["epochs"] == 50000
        assert cfg.learning_rate == REFERENCE_NN_DEFAULTS["learning_rate"] == 5e-6
        assert cfg.train_fraction == 0.8
        m = init_model()
        assert m.layer_sizes == (1, 150, 150, 1)
        assert m.activation == "softplus"


def _reference_train(model, t, p, cfg):
    """nn_train as first written, kept as its bit-for-bit oracle: per-layer
    arrays, a model rebuilt and re-validated every epoch, `w @ y` for every
    layer, np.clip/np.mean/.sum, and a separate forward pass for the test MSE."""
    from dataclasses import replace

    def span(lo, hi):
        return hi - lo if hi > lo else 1.0

    def softplus_d(u):
        out = np.empty_like(u)
        pos = u >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
        e = np.exp(u[~pos])
        out[~pos] = e / (1.0 + e)
        return out

    act, dact = {
        "tanh": (np.tanh, lambda u: 1.0 / np.cosh(np.clip(u, -300.0, 300.0)) ** 2),
        "softplus": (lambda u: np.logaddexp(0.0, u), softplus_d),
    }[model.activation]

    def forward(current, xn):
        y = xn[None, :]
        pre, post = [], [y]
        last = len(current.weights) - 1
        for l, (w, b) in enumerate(zip(current.weights, current.biases)):
            u = w @ y + b[:, None]
            pre.append(u)
            y = u if l == last else act(u)
            post.append(y)
        return pre, post

    def normalized(current, xa, ya):
        xlo, xhi = current.x_range
        ylo, yhi = current.y_range
        return (xa - xlo) / span(xlo, xhi), (ya - ylo) / span(ylo, yhi)

    def backprop(current, xa, ya):
        xn, yn = normalized(current, xa, ya)
        pre, post = forward(current, xn)
        m, n_layers = xa.size, len(current.weights)
        grad_w, grad_b = [None] * n_layers, [None] * n_layers
        resid = post[-1][0] - yn
        mse = float(np.mean(resid**2))
        delta = (2.0 / m) * resid[None, :]
        for l in range(n_layers - 1, -1, -1):
            grad_w[l] = delta @ post[l].T
            grad_b[l] = delta.sum(axis=1)
            if l > 0:
                delta = (current.weights[l].T @ delta) * dact(pre[l - 1])
        return grad_w, grad_b, mse

    def norm_mse(current, xa, ya):
        xn, yn = normalized(current, xa, ya)
        _, post = forward(current, xn)
        return float(np.mean((post[-1][0] - yn) ** 2))

    ta, pa = np.asarray(t, dtype=np.float64), np.asarray(p, dtype=np.float64)
    model = replace(model, x_range=(float(ta.min()), float(ta.max())),
                    y_range=(float(pa.min()), float(pa.max())))
    perm = np.random.default_rng(cfg.seed).permutation(ta.size)
    n_train = min(max(1, int(round(cfg.train_fraction * ta.size))), ta.size - 1)
    idx_train, idx_test = perm[:n_train], perm[n_train:]
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    history = np.empty((cfg.epochs, 3))
    for epoch in range(cfg.epochs):
        current = replace(model, weights=tuple(weights), biases=tuple(biases))
        gw, gb, train_mse = backprop(current, ta[idx_train], pa[idx_train])
        history[epoch] = (epoch, train_mse, norm_mse(current, ta[idx_test], pa[idx_test]))
        for l in range(len(weights)):
            weights[l] -= cfg.learning_rate * gw[l]
            biases[l] -= cfg.learning_rate * gb[l]
    return weights, biases, history


class TestTrainingOracle:
    @pytest.mark.parametrize("hidden_layers", [1, 2])
    @pytest.mark.parametrize("activation", ["tanh", "softplus"])
    def test_bit_identical_to_reference_loop(self, activation, hidden_layers):
        # full-batch GD at lr 0.25 sits at the edge of stability, where a
        # last-bit change in one epoch grows into a visibly different network
        t = np.linspace(0.0, 1.2, 61)
        p = 80.0 + 30.0 * np.sin(2 * np.pi * t / 0.6) + 5.0 * np.cos(6 * np.pi * t)
        m = init_model(hidden_neurons=12, hidden_layers=hidden_layers,
                       activation=activation, seed=7)
        cfg = TrainConfig(epochs=200, learning_rate=0.25, train_fraction=0.8, seed=2)
        trained, hist = nn_train(m, t, p, cfg)
        weights, biases, ref_hist = _reference_train(m, t, p, cfg)
        assert np.array_equal(hist, ref_hist)
        for w, ref in zip(trained.weights, weights):
            assert np.array_equal(w, ref)
        for b, ref in zip(trained.biases, biases):
            assert np.array_equal(b, ref)


class TestNormalization:
    def test_roundtrip(self):
        m = init_model(hidden_neurons=4, hidden_layers=1, seed=0,
                       x_range=(2.0, 6.0), y_range=(-1.0, 3.0))
        xlo, xhi = m.x_range
        x = np.array([2.0, 3.7, 6.0])
        xn = (x - xlo) / (xhi - xlo)
        back = xn * (xhi - xlo) + xlo
        assert np.abs(back - x).max() <= 1e-14 * np.abs(x).max()

    def test_training_sets_ranges(self):
        m = init_model(hidden_neurons=4, hidden_layers=1, seed=0)
        t = np.linspace(5.4, 6.0, 10)
        p = np.linspace(10.0, 20.0, 10)
        trained, _ = nn_train(m, t, p, TrainConfig(epochs=1, learning_rate=1e-3))
        assert trained.x_range == (5.4, 6.0)
        assert trained.y_range == (10.0, 20.0)


def _windkessel_trace(cycles=2, dt=0.01, t_cycle=0.5):
    params = WindkesselParams(Rp=1.0, Rd=10.0, C=0.05)
    s = WindkesselState()
    ts, ps = [], []
    for _ in range(round(cycles * t_cycle / dt) + 1):
        ts.append(s.t)
        ps.append(s.p)
        q = max(np.sin(2 * np.pi * s.t / t_cycle), 0.0) * 1e-3
        s = wk_step(s, q, dt, params)
    return np.array(ts), np.array(ps)


@pytest.fixture(scope="module")
def outflow_model():
    ts, ps = _windkessel_trace()
    m = init_model(hidden_neurons=32, hidden_layers=2, activation="tanh", seed=4)
    trained, hist = nn_train(m, ts, ps, TrainConfig(epochs=30000, learning_rate=0.25, seed=4))
    return trained, ts, ps, hist


class TestPredictOutflow:
    def test_training_sample_within_error_band(self, outflow_model):
        trained, ts, ps, hist = outflow_model
        span = ps.max() - ps.min()
        band = max(3.0 * np.sqrt(hist[-1, 1:].max()) * span, 1e-12)
        i = len(ts) // 3
        assert abs(predict_outflow(trained, ts[i]) - ps[i]) <= band

    def test_midpoint_against_refined_windkessel(self, outflow_model):
        trained, ts, ps, _ = outflow_model
        # half-step trace as the independent oracle
        params = WindkesselParams(Rp=1.0, Rd=10.0, C=0.05)
        s = WindkesselState()
        fine = {0.0: 0.0}
        dt = 0.005
        for _ in range(round(1.0 / dt)):
            q = max(np.sin(2 * np.pi * s.t / 0.5), 0.0) * 1e-3
            s = wk_step(s, q, dt, params)
            fine[round(s.t, 10)] = s.p
        max_adjacent_dev = np.abs(np.diff(ps)).max()
        for i in (12, 37, 61, 80):
            t_mid = 0.5 * (ts[i] + ts[i + 1])
            pred = predict_outflow(trained, t_mid)
            oracle = fine[round(t_mid, 10)]
            assert abs(pred - oracle) <= 2.0 * max_adjacent_dev

    def test_pseudo_periodicity(self):
        # fast-relaxing outlet (tau = 0.05 s): valid on cycle 2 of 2, so the
        # trace itself is periodic to ~3e-5 at the query times
        params = WindkesselParams(Rp=1.0, Rd=10.0, C=0.005)
        s = WindkesselState()
        ts, ps = [], []
        for _ in range(round(1.0 / 0.005) + 1):
            ts.append(s.t)
            ps.append(s.p)
            q = max(np.sin(2 * np.pi * s.t / 0.5), 0.0) * 1e-3
            s = wk_step(s, q, 0.005, params)
        ts, ps = np.array(ts), np.array(ps)
        m = init_model(hidden_neurons=32, hidden_layers=2, activation="tanh", seed=4)
        trained, _ = nn_train(m, ts, ps, TrainConfig(epochs=30000, learning_rate=0.25, seed=4))
        a = predict_outflow(trained, 0.30)
        b = predict_outflow(trained, 0.80)
        assert abs(a - b) <= 0.05 * max(abs(a), abs(b))

    def test_extrapolation_warns(self, outflow_model):
        trained, ts, ps, _ = outflow_model
        span = ts[-1] - ts[0]
        with pytest.warns(ExtrapolationWarning):
            predict_outflow(trained, ts[-1] + 0.2 * span)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predict_outflow(trained, ts[-1] + 0.05 * span)  # inside the 10% margin


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        m = init_model(hidden_neurons=9, hidden_layers=2, activation="softplus",
                       seed=17, x_range=(5.4, 6.0), y_range=(-2.5, 88.0))
        path = tmp_path / "nn_0"
        save_model(m, path)
        back = load_model(path)
        assert back.layer_sizes == m.layer_sizes
        assert back.activation == m.activation
        assert back.x_range == m.x_range and back.y_range == m.y_range
        for a, b in zip(m.weights, back.weights):
            assert np.array_equal(a, b)
        for a, b in zip(m.biases, back.biases):
            assert np.array_equal(a, b)

    def test_loss_history_csv(self, tmp_path):
        hist = np.array([[0, 1.0, 2.0], [1, 0.5, 1.5]])
        save_loss_history(tmp_path / "loss_0.csv", hist)
        text = (tmp_path / "loss_0.csv").read_text().splitlines()
        assert text[0] == "epoch,train_mse,test_mse"
        assert text[1].startswith("0,1.0,2.0")


T_CYCLE = 0.6


def _trig_poly(t, coef):
    """c_0 + sum_k (a_k cos + b_k sin)(2 pi k t / T_CYCLE); coef rows (a_k, b_k)."""
    k = np.arange(1, len(coef) + 1)[:, None]
    phase = 2 * np.pi * k * np.asarray(t)[None, :] / T_CYCLE
    return 80.0 + coef[:, 0] @ np.cos(phase) + coef[:, 1] @ np.sin(phase)


class TestFourierFit:
    # one cycle of 61 samples, as the default channel's training window
    t = np.linspace(1.2, 1.8, 61)

    def test_recovers_trig_polynomial(self, rng):
        coef = rng.uniform(-10.0, 10.0, (FOURIER_HARMONICS, 2))
        model, hist = fit_outflow(self.t, _trig_poly(self.t, coef), T_CYCLE, 0.8, 3)
        assert model.layer_sizes == (1, 2 * FOURIER_HARMONICS, 1)
        dense = np.linspace(1.2, 1.8, 997)
        exact = _trig_poly(dense, coef)
        assert np.abs(nn_forward(model, dense) - exact).max() <= 1e-10 * np.abs(exact).max()
        assert hist.shape == (1, 3) and hist[0, 0] == 0 and hist[0, 1:].max() <= 1e-20

    def test_cycle_periodic(self):
        _, ps = _windkessel_trace(cycles=1, dt=0.01, t_cycle=T_CYCLE)   # not periodic itself
        model, _ = fit_outflow(self.t, ps, T_CYCLE, 0.8, 0)
        q = np.linspace(1.2, 1.8, 101)
        a, b = nn_forward(model, q), nn_forward(model, q + T_CYCLE)
        assert np.abs(b - a).max() <= 1e-9 * np.abs(a).max()

    def test_continuous_in_the_targets(self, rng):
        _, ps = _windkessel_trace(cycles=1, dt=0.01, t_cycle=T_CYCLE)
        nudged = ps * (1.0 + 1e-15 * rng.choice([-1.0, 1.0], ps.size))
        assert not np.array_equal(nudged, ps)
        q = np.linspace(1.2, 1.8, 997)
        a = nn_forward(fit_outflow(self.t, ps, T_CYCLE, 0.8, 0)[0], q)
        b = nn_forward(fit_outflow(self.t, nudged, T_CYCLE, 0.8, 0)[0], q)
        assert np.abs(b - a).max() <= 1e-9 * np.abs(a).max()

    def test_cos_model_roundtrip_and_gradient(self, tmp_path, rng):
        _, ps = _windkessel_trace(cycles=1, dt=0.01, t_cycle=T_CYCLE)
        model, _ = fit_outflow(self.t, ps, T_CYCLE, 0.8, 0)
        assert model.activation == "cos"
        save_model(model, tmp_path / "nn_0")
        back = load_model(tmp_path / "nn_0")
        assert back.activation == "cos" and back.layer_sizes == model.layer_sizes
        assert back.x_range == model.x_range and back.y_range == model.y_range
        for a, b in zip(model.weights + model.biases, back.weights + back.biases):
            assert np.array_equal(a, b)

        x = rng.uniform(1.2, 1.8, 12)
        y = rng.uniform(ps.min(), ps.max(), 12)
        gw, gb, _ = nn_backprop(model, x, y)
        h = 1e-6

        def loss(params, l, idx, step):
            arrays = [list(model.weights), list(model.biases)][params]
            bumped = arrays[l].copy()
            bumped[idx] += step
            arrays[l] = bumped
            m = replace(model, **{("weights", "biases")[params]: tuple(arrays)})
            return nn_backprop(m, x, y)[2]

        for params, grads in ((0, gw), (1, gb)):
            for l, g in enumerate(grads):
                for idx in np.ndindex(g.shape):
                    fd = (loss(params, l, idx, h) - loss(params, l, idx, -h)) / (2 * h)
                    assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_harmonic_cap(self):
        # 31 samples at split 0.8 leave 25 for training: K = 25 // 4 = 6
        t = np.linspace(0.6, 0.9, 31)
        model, _ = fit_outflow(t, np.sin(2 * np.pi * t / 0.3), 0.3, 0.8, 0)
        assert model.layer_sizes == (1, 12, 1)
        long = np.linspace(0.0, 0.9, 301)
        model, _ = fit_outflow(long, np.sin(2 * np.pi * long / 0.3), 0.3, 0.8, 0)
        assert model.layer_sizes == (1, 2 * FOURIER_HARMONICS, 1)

    def test_coarse_multi_cycle_window_does_not_alias(self, rng):
        # three cycles at 15 samples per cycle, 36 of the 45 in the fit: 12
        # per cycle, so K = 11 // 2 = 5.  n_train // 4 alone would give 9
        # harmonics, past the Nyquist limit 7 of the sampling grid: there
        # harmonics 8 and 9 take the values of 7 and 6 at every sample.
        t = np.arange(45) * (T_CYCLE / 15)
        coef = rng.uniform(-10.0, 10.0, (5, 2))
        model, _ = fit_outflow(t, _trig_poly(t, coef), T_CYCLE, 0.8, 0)
        assert model.layer_sizes == (1, 10, 1)
        w, b = model.weights[0][:, 0], model.biases[0]
        xn = (t - model.x_range[0]) / (model.x_range[1] - model.x_range[0])
        features = np.hstack([np.cos(np.outer(xn, w) + b), np.ones((t.size, 1))])
        assert np.linalg.matrix_rank(features) == features.shape[1]
        between = np.linspace(t[0], t[-1], 997)
        exact = _trig_poly(between, coef)
        assert np.abs(nn_forward(model, between) - exact).max() <= 1e-10 * np.abs(exact).max()

    def test_split_as_nn_train(self):
        # the history's train MSE is the one over nn_train's training split
        _, ps = _windkessel_trace(cycles=1, dt=0.01, t_cycle=T_CYCLE)
        model, hist = fit_outflow(self.t, ps, T_CYCLE, 0.8, 5)
        perm = np.random.default_rng(5).permutation(self.t.size)
        span = ps.max() - ps.min()
        for cols, idx in ((1, perm[:49]), (2, perm[49:])):
            resid = (nn_forward(model, self.t[idx]) - ps[idx]) / span
            assert hist[0, cols] == pytest.approx(np.mean(resid ** 2), rel=1e-9)

    def test_bad_input_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_outflow(self.t, np.ones_like(self.t), 0.0, 0.8, 0)
        with pytest.raises(ConfigurationError):
            fit_outflow(self.t, np.ones_like(self.t), T_CYCLE, 1.0, 0)
        t = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ShapeError, match="4 training samples"):
            fit_outflow(t, np.sin(t), 1.0, 0.8, 0)
