"""From-scratch feedforward network for the outflow-pressure time curve.

Layout is [1, H, ..., H, 1]: scalar time in, scalar pressure out.  Each
neuron applies the affine propagation u = W y + b followed by the activation;
the output layer is linear.  Inputs and targets are min-max normalized to
[0, 1]; predictions are mapped back before they leave the model.

Two ways to fit it share one seeded train/test split:

* ``fit_outflow``, which the offline pipeline runs, fixes the hidden layer
  to a Fourier encoding of the cardiac cycle -- [1, 2K, 1] with activation
  cos, neurons reading cos and sin of 2 pi k t / T_c -- and fits the linear
  output layer by one least-squares solve.  The fit is convex and the curve
  periodic.
* ``nn_train`` is the paper's training, kept as a library function: full-
  batch gradient descent on the mean squared error,

      w <- w - eta dL/dw,     b <- b - eta dL/db,

  the gradients coming from reverse-mode accumulation of the layer chain.
  Default hyperparameters (150 neurons per layer, two hidden layers,
  softplus, 50000 epochs, learning rate 5e-6) reproduce the reference
  setup.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ShapeError, TrainingError
from .grid import load_arrays, read_file, save_arrays

REFERENCE_NN_DEFAULTS = {
    "hidden_neurons": 150,
    "hidden_layers": 2,
    "activation": "softplus",
    "epochs": 50000,
    "learning_rate": 5e-6,
    "train_fraction": 0.8,
}


def _softplus(u, out):
    return np.logaddexp(0.0, u, out=out)


def _softplus_d(u, out):
    # stable sigmoid: exp only ever sees non-positive arguments
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _tanh_d(u, out):
    # 1/cosh(u)**2 with u clipped to [-300, 300] so that cosh stays finite
    np.maximum(u, -300.0, out=out)
    np.minimum(out, 300.0, out=out)
    np.cosh(out, out=out)
    np.square(out, out=out)
    return np.divide(1.0, out, out=out)


def _relu(u, out):
    return np.maximum(u, 0.0, out=out)


def _relu_d(u, out):
    return np.greater(u, 0.0, out=out)


def _one(u, out):
    out.fill(1.0)
    return out


def _cos_d(u, out):
    np.sin(u, out=out)
    return np.negative(out, out=out)


# name: (activation(u, out), derivative(u, out)); each writes into `out` the
# same bits as its allocating form
ACTIVATIONS = {
    "softplus": (_softplus, _softplus_d),
    "tanh": (np.tanh, _tanh_d),
    "relu": (_relu, _relu_d),
    "identity": (np.positive, _one),
    "cos": (np.cos, _cos_d),
}


# the most harmonics fit_outflow uses
FOURIER_HARMONICS = 12


class ExtrapolationWarning(UserWarning):
    """Raised when the model is queried well outside its training range."""


@dataclass(frozen=True)
class NNModel:
    layer_sizes: tuple
    weights: tuple
    biases: tuple
    activation: str
    x_range: tuple = (0.0, 1.0)
    y_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        sizes = self.layer_sizes
        if len(sizes) < 2 or sizes[0] != 1 or sizes[-1] != 1 or not all(
                isinstance(n, numbers.Integral) and n >= 1 for n in sizes):
            raise ConfigurationError(f"layer sizes must be [1, H, ..., H, 1] with integer "
                                     f"widths >= 1, got {tuple(sizes)}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ShapeError("one weight/bias pair per layer transition required")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
                raise ShapeError(f"layer {l}: weight {w.shape} / bias {b.shape} "
                                 f"do not match sizes {sizes[l]}->{sizes[l + 1]}")

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def _span(lo: float, hi: float) -> float:
    return hi - lo if hi > lo else 1.0


def init_model(hidden_neurons: int = 150, hidden_layers: int = 2,
               activation: str = "softplus", seed: int = 0,
               x_range=(0.0, 1.0), y_range=(0.0, 1.0)) -> NNModel:
    """Seeded Glorot-uniform initialization of a [1, H, ..., H, 1] network."""
    if not (isinstance(hidden_neurons, numbers.Integral) and hidden_neurons >= 1):
        raise ConfigurationError(f"hidden_neurons must be an integer >= 1, got {hidden_neurons!r}")
    if not (isinstance(hidden_layers, numbers.Integral) and hidden_layers >= 0):
        raise ConfigurationError(f"hidden_layers must be an integer >= 0, got {hidden_layers!r}")
    sizes = (1,) + (hidden_neurons,) * hidden_layers + (1,)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for l in range(len(sizes) - 1):
        bound = np.sqrt(6.0 / (sizes[l] + sizes[l + 1]))
        weights.append(rng.uniform(-bound, bound, size=(sizes[l + 1], sizes[l])))
        biases.append(np.zeros(sizes[l + 1]))
    return NNModel(sizes, tuple(weights), tuple(biases), activation,
                   tuple(map(float, x_range)), tuple(map(float, y_range)))


def _layer_views(flat: np.ndarray, sizes) -> list:
    """(W_l, b_l) views of a flat parameter or gradient array, layer by layer."""
    views, i = [], 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = flat[i:i + n_out * n_in].reshape(n_out, n_in)
        i += n_out * n_in
        views.append((w, flat[i:i + n_out]))
        i += n_out
    return views


class _Batch:
    """Normalized samples (inputs as a (1, m) row) and the buffers of a
    forward pass over them; with targets `yn`, also those of a backward pass."""

    def __init__(self, sizes, xn: np.ndarray, yn: np.ndarray | None = None):
        m = xn.size
        self.yn = yn
        self.pre = [np.empty((s, m)) for s in sizes[1:]]
        # post[l] is the input of layer l; the linear output layer's is its pre
        self.post = [xn[None, :]] + [np.empty((s, m)) for s in sizes[1:-1]] + [self.pre[-1]]
        if yn is not None:
            self.delta = [np.empty((s, m)) for s in sizes[1:]]
            self.dact = [np.empty((s, m)) for s in sizes[1:-1]]


def _matmul(a, b, out):
    # with K = 1 each entry is one product, which a broadcast gives faster
    return np.multiply(a, b, out=out) if a.shape[1] == 1 else np.matmul(a, b, out=out)


def _forward(layers, act, batch: _Batch) -> np.ndarray:
    """Fill the batch's pre-activations and layer outputs; returns the output row."""
    pre, post = batch.pre, batch.post
    last = len(layers) - 1
    for l, (w, b) in enumerate(layers):
        u = _matmul(w, post[l], pre[l])
        u += b[:, None]
        if l < last:
            act(u, out=post[l + 1])
    return pre[last][0]


def _mse(resid: np.ndarray) -> float:
    return float(np.add.reduce(resid * resid) / resid.size)


def _backprop(layers, grads, activation, batch: _Batch) -> float:
    """Mean squared error over the batch; writes its gradients into `grads`."""
    act, dact = activation
    resid = _forward(layers, act, batch) - batch.yn
    delta = np.multiply(2.0 / resid.size, resid[None, :], out=batch.delta[-1])  # dL/du, output
    for l in range(len(layers) - 1, -1, -1):
        gw, gb = grads[l]
        _matmul(delta, batch.post[l].T, gw)
        np.add.reduce(delta, axis=1, out=gb)
        if l > 0:
            back = _matmul(layers[l][0].T, delta, batch.delta[l - 1])
            back *= dact(batch.pre[l - 1], out=batch.dact[l - 1])
            delta = back
    return _mse(resid)


def _normalize(v: np.ndarray, lo_hi: tuple) -> np.ndarray:
    return (v - lo_hi[0]) / _span(*lo_hi)


def nn_forward(model: NNModel, x) -> np.ndarray | float:
    """De-normalized prediction for raw input(s) x."""
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(xa)):
        raise ShapeError("non-finite network input")
    batch = _Batch(model.layer_sizes, _normalize(xa, model.x_range))
    yn = _forward(list(zip(model.weights, model.biases)), ACTIVATIONS[model.activation][0], batch)
    ylo, yhi = model.y_range
    out = yn * _span(ylo, yhi) + ylo
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def nn_backprop(model: NNModel, x, y):
    """Mean-squared-error gradients for a raw-sample batch.

    Returns (grad_w, grad_b, mse); the loss and its gradients live in the
    normalized space the training loop works in.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    ya = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if xa.size == 0 or xa.shape != ya.shape:
        raise ShapeError("backprop needs a nonempty batch of matching x/y")
    sizes = model.layer_sizes
    grads = _layer_views(np.empty(model.n_params), sizes)
    batch = _Batch(sizes, _normalize(xa, model.x_range), _normalize(ya, model.y_range))
    mse = _backprop(list(zip(model.weights, model.biases)), grads,
                    ACTIVATIONS[model.activation], batch)
    return [gw for gw, _ in grads], [gb for _, gb in grads], mse


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = REFERENCE_NN_DEFAULTS["epochs"]
    learning_rate: float = REFERENCE_NN_DEFAULTS["learning_rate"]
    train_fraction: float = REFERENCE_NN_DEFAULTS["train_fraction"]
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")


def _samples(t, p):
    ta = np.asarray(t, dtype=np.float64).ravel()
    pa = np.asarray(p, dtype=np.float64).ravel()
    if ta.size < 2 or ta.size != pa.size:
        raise ShapeError("training needs >= 2 aligned (t, p) samples")
    return ta, pa


def _split(n: int, train_fraction: float, seed: int):
    """Seeded (train, test) index arrays over n samples, neither empty."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError("train fraction must be in (0, 1)")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = max(1, int(round(train_fraction * n)))
    if n_train == n:
        n_train = n - 1
    return perm[:n_train], perm[n_train:]


def _batches(model: NNModel, ta, pa, split):
    """The (train, test) batches of a split, normalized by the model's ranges."""
    return tuple(_Batch(model.layer_sizes, _normalize(ta[idx], model.x_range),
                        _normalize(pa[idx], model.y_range)) for idx in split)


def nn_train(model: NNModel, t, p, cfg: TrainConfig):
    """Full-batch gradient descent on (t, p) samples.

    Normalization ranges are fitted to the dataset first.  Returns the
    trained model and the loss history array with columns
    (epoch, train_mse, test_mse); MSE values are in normalized units.
    """
    ta, pa = _samples(t, p)
    model = replace(model,
                    x_range=(float(ta.min()), float(ta.max())),
                    y_range=(float(pa.min()), float(pa.max())))

    sizes = model.layer_sizes
    train, test = _batches(model, ta, pa, _split(ta.size, cfg.train_fraction, cfg.seed))
    # one flat parameter array and its gradient, so that a step is one update
    theta = np.concatenate([a.ravel() for wb in zip(model.weights, model.biases) for a in wb])
    grad = np.empty_like(theta)
    layers, grads = _layer_views(theta, sizes), _layer_views(grad, sizes)
    activation = ACTIVATIONS[model.activation]
    history = np.empty((cfg.epochs, 3))
    history[:, 0] = np.arange(cfg.epochs)
    eta = cfg.learning_rate

    for epoch in range(cfg.epochs):
        train_mse = _backprop(layers, grads, activation, train)
        if not np.isfinite(train_mse):
            raise TrainingError(
                f"training diverged at epoch {epoch} (loss={train_mse}); "
                f"reduce the learning rate (eta={eta})"
            )
        history[epoch, 1] = train_mse
        history[epoch, 2] = _mse(_forward(layers, activation[0], test) - test.yn)
        theta -= eta * grad
    trained = replace(model, weights=tuple(w.copy() for w, _ in layers),
                      biases=tuple(b.copy() for _, b in layers))
    return trained, history


def fit_outflow(t, p, t_cycle: float,
                train_fraction: float = REFERENCE_NN_DEFAULTS["train_fraction"],
                seed: int = 0):
    """Least-squares fit of a cycle-periodic curve to (t, p) samples.

    The model is a [1, 2K, 1] network whose hidden layer is a fixed Fourier
    encoding: with the activation cos, neuron k reads cos(2 pi k t / T_c) and
    neuron K + k reads sin(2 pi k t / T_c) (a -pi/2 bias shift), k = 1..K.
    Only the linear output layer is fitted, by one least-squares solve in
    normalized units over the seeded training split nn_train uses, so the fit
    is convex and the curve periodic in t_cycle.  K is the least of
    FOURIER_HARMONICS, n_train // 4, which keeps the system well
    overdetermined, and (m - 1) // 2 for m = n_train t_cycle / (window span)
    training samples per cycle, below which no harmonic aliases another on a
    coarse multi-cycle window.  Returns the model and a one-row loss history
    (0, train_mse, test_mse), as nn_train's.
    """
    ta, pa = _samples(t, p)
    if not t_cycle > 0:
        raise ConfigurationError(f"cycle length must be positive, got {t_cycle!r}")
    split = _split(ta.size, train_fraction, seed)
    n_train = split[0].size
    x_range = (float(ta.min()), float(ta.max()))
    per_cycle = int(n_train * t_cycle / _span(*x_range))
    n_harm = min(FOURIER_HARMONICS, n_train // 4, (per_cycle - 1) // 2)
    if n_harm < 1:
        raise ShapeError("the Fourier fit needs >= 4 training samples, >= 3 per cycle")
    omega = np.tile(2.0 * np.pi * np.arange(1, n_harm + 1) / t_cycle, 2)
    phase = np.repeat([0.0, -0.5 * np.pi], n_harm)
    model = NNModel((1, 2 * n_harm, 1),
                    ((omega * _span(*x_range))[:, None], np.zeros((1, 2 * n_harm))),
                    (omega * x_range[0] + phase, np.zeros(1)), "cos",
                    x_range, (float(pa.min()), float(pa.max())))
    train, test = _batches(model, ta, pa, split)
    layers = list(zip(model.weights, model.biases))
    _forward(layers, np.cos, train)
    design = np.hstack([train.post[1].T, np.ones((train.yn.size, 1))])
    coef = np.linalg.lstsq(design, train.yn, rcond=None)[0]
    model = replace(model, weights=(model.weights[0], coef[None, :-1]),
                    biases=(model.biases[0], coef[-1:]))
    layers = list(zip(model.weights, model.biases))
    history = np.array([[0.0] + [_mse(_forward(layers, np.cos, b) - b.yn)
                                 for b in (train, test)]])
    return model, history


def predict_outflow(model: NNModel, t) -> np.ndarray | float:
    """Evaluate the trained pressure curve at arbitrary times.

    Warns (ExtrapolationWarning) when queried more than 10% of the training
    span outside the fitted range.
    """
    ta = np.atleast_1d(np.asarray(t, dtype=np.float64))
    xlo, xhi = model.x_range
    margin = 0.1 * _span(xlo, xhi)
    if np.any(ta < xlo - margin) or np.any(ta > xhi + margin):
        warnings.warn(
            f"query outside [{xlo - margin:.6g}, {xhi + margin:.6g}] extrapolates the "
            f"outflow-pressure model", ExtrapolationWarning, stacklevel=2)
    return nn_forward(model, t)


# -- persistence: W<l>.bin and b<l>.bin per layer, the rest in meta.json -------

def save_model(model: NNModel, directory) -> None:
    arrays = {}
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"W{l}"], arrays[f"b{l}"] = w, b
    save_arrays(directory, "romkit-nn-2",
                {"layer_sizes": list(model.layer_sizes), "activation": model.activation,
                 "x_range": list(model.x_range), "y_range": list(model.y_range)}, arrays)


def load_model(directory, read=read_file) -> NNModel:
    meta, arrays = load_arrays(directory, "romkit-nn-2", read)
    layers = range(len(meta["layer_sizes"]) - 1)
    return NNModel(tuple(meta["layer_sizes"]), tuple(arrays[f"W{l}"] for l in layers),
                   tuple(arrays[f"b{l}"] for l in layers), meta["activation"],
                   tuple(meta["x_range"]), tuple(meta["y_range"]))


def save_loss_history(path, history: np.ndarray) -> None:
    """(epoch, train_mse, test_mse) rows as CSV with CRLF line ends."""
    rows = ["epoch,train_mse,test_mse"] + [f"{int(e)},{float(tr)!r},{float(te)!r}"
                                           for e, tr, te in history]
    Path(path).write_text("".join(r + "\r\n" for r in rows), newline="")
