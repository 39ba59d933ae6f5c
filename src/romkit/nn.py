"""From-scratch feedforward network for the outflow-pressure time curve.

Layout is [1, H, ..., H, 1]: scalar time in, scalar pressure out.  Each
neuron applies the affine propagation u = W y + b followed by the activation;
the output layer is linear.  Training minimizes the mean squared error with
full-batch gradient descent,

    w <- w - eta dL/dw,     b <- b - eta dL/db,

the gradients coming from reverse-mode accumulation of the layer chain.
Inputs and targets are min-max normalized to [0, 1]; predictions are mapped
back before they leave the model.

Default hyperparameters (150 neurons per layer, two hidden layers, softplus,
50000 epochs, learning rate 5e-6) reproduce the reference setup; desk-scale
runs override them in their config and report the values actually used.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, ShapeError, TrainingError

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


# name: (activation(u, out), derivative(u, out)); each writes into `out` the
# same bits as its allocating form
ACTIVATIONS = {
    "softplus": (_softplus, _softplus_d),
    "tanh": (np.tanh, _tanh_d),
    "relu": (_relu, _relu_d),
    "identity": (np.positive, _one),
}


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
        if len(sizes) < 2:
            raise ConfigurationError("need at least input and output layers")
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
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError("train fraction must be in (0, 1)")


def nn_train(model: NNModel, t, p, cfg: TrainConfig):
    """Full-batch gradient descent on (t, p) samples.

    Normalization ranges are fitted to the dataset first.  Returns the
    trained model and the loss history array with columns
    (epoch, train_mse, test_mse); MSE values are in normalized units.
    """
    ta = np.asarray(t, dtype=np.float64).ravel()
    pa = np.asarray(p, dtype=np.float64).ravel()
    if ta.size < 2 or ta.size != pa.size:
        raise ShapeError("training needs >= 2 aligned (t, p) samples")

    model = replace(model,
                    x_range=(float(ta.min()), float(ta.max())),
                    y_range=(float(pa.min()), float(pa.max())))

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(ta.size)
    n_train = max(1, int(round(cfg.train_fraction * ta.size)))
    if n_train == ta.size:
        n_train = ta.size - 1
    idx_train, idx_test = perm[:n_train], perm[n_train:]
    t_train, p_train = ta[idx_train], pa[idx_train]
    t_test, p_test = ta[idx_test], pa[idx_test]

    sizes = model.layer_sizes
    train = _Batch(sizes, _normalize(t_train, model.x_range), _normalize(p_train, model.y_range))
    test = _Batch(sizes, _normalize(t_test, model.x_range), _normalize(p_test, model.y_range))
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


# -- persistence: decimal strings for bit-exact round trips --------------------

def save_model(model: NNModel, path) -> None:
    doc = {
        "format": "romkit-nn-1",
        "layer_sizes": list(model.layer_sizes),
        "activation": model.activation,
        "x_range": [repr(v) for v in model.x_range],
        "y_range": [repr(v) for v in model.y_range],
        "weights": [[[repr(float(x)) for x in row] for row in w] for w in model.weights],
        "biases": [[repr(float(x)) for x in b] for b in model.biases],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_model(path) -> NNModel:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise FormatError(f"no model file at {path}")
    if doc.get("format") != "romkit-nn-1":
        raise FormatError(f"unsupported model format {doc.get('format')!r}")
    weights = tuple(np.array([[float(x) for x in row] for row in w]) for w in doc["weights"])
    biases = tuple(np.array([float(x) for x in b]) for b in doc["biases"])
    return NNModel(tuple(doc["layer_sizes"]), weights, biases, doc["activation"],
                   tuple(float(v) for v in doc["x_range"]),
                   tuple(float(v) for v in doc["y_range"]))


def save_loss_history(path, history: np.ndarray) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_mse", "test_mse"])
        for epoch, train_mse, test_mse in history:
            writer.writerow([int(epoch), repr(float(train_mse)), repr(float(test_mse))])
