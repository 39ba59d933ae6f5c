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

Every pass is plain numpy on per-layer weight and bias arrays: ``w @ y +
b`` for each layer (``w * y + b`` for the input layer, whose width of 1 makes
the broadcast product bit for bit the matmul) and fresh arrays for every
intermediate.  No offline stage trains by gradient descent, so nothing is
traded for speed here, and any change to the loop must keep its bits: at the
learning rates that train fast, a last-bit change grows into a visibly
different network.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ShapeError, TrainingError
from .grid import load_arrays, read_file, save_arrays, write_table

REFERENCE_NN_DEFAULTS = {
    "hidden_neurons": 150,
    "hidden_layers": 2,
    "activation": "softplus",
    "epochs": 50000,
    "learning_rate": 5e-6,
    "train_fraction": 0.8,
}


def _softplus_d(u):
    # stable sigmoid: exp only ever sees non-positive arguments
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# name: (activation(u), derivative(u))
ACTIVATIONS = {
    "softplus": (lambda u: np.logaddexp(0.0, u), _softplus_d),
    # 1/cosh(u)**2 with u clipped to [-300, 300] so that cosh stays finite
    "tanh": (np.tanh, lambda u: 1.0 / np.cosh(np.minimum(np.maximum(u, -300.0), 300.0)) ** 2),
    "relu": (lambda u: np.maximum(u, 0.0), lambda u: np.heaviside(u, 0.0)),
    "identity": (np.positive, np.ones_like),
    "cos": (np.cos, lambda u: -np.sin(u)),
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


def _forward(weights, biases, act, xn: np.ndarray):
    """(pre, post) of normalized inputs xn: each layer's pre-activations, and
    the layer inputs (post[0] is xn as a (1, m) row) followed by the output
    row (post[-1]); the output layer is linear."""
    y = xn[None, :]
    pre, post = [], [y]
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        # the input width is 1: the broadcast product holds the matmul's bits
        u = (w * y if l == 0 else w @ y) + b[:, None]
        pre.append(u)
        y = u if l == last else act(u)
        post.append(y)
    return pre, post


def _mse(resid: np.ndarray) -> float:
    # np.mean's sum and quotient, without its dispatch overhead
    return float(np.add.reduce(resid * resid) / resid.size)


def _backprop(weights, biases, activation, xn, yn):
    """(grad_w, grad_b, mse) of the mean squared error over normalized samples."""
    act, dact = activation
    pre, post = _forward(weights, biases, act, xn)
    resid = post[-1][0] - yn
    delta = (2.0 / resid.size) * resid[None, :]          # dL/du at the output
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        grad_w[l] = delta @ post[l].T
        grad_b[l] = delta.sum(axis=1)
        if l > 0:
            delta = (weights[l].T @ delta) * dact(pre[l - 1])
    return grad_w, grad_b, _mse(resid)


def _normalize(v: np.ndarray, lo_hi: tuple) -> np.ndarray:
    return (v - lo_hi[0]) / _span(*lo_hi)


def nn_forward(model: NNModel, x) -> np.ndarray | float:
    """De-normalized prediction for raw input(s) x."""
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(xa)):
        raise ShapeError("non-finite network input")
    _, post = _forward(model.weights, model.biases, ACTIVATIONS[model.activation][0],
                       _normalize(xa, model.x_range))
    ylo, yhi = model.y_range
    out = post[-1][0] * _span(ylo, yhi) + ylo
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
    return _backprop(model.weights, model.biases, ACTIVATIONS[model.activation],
                     _normalize(xa, model.x_range), _normalize(ya, model.y_range))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = REFERENCE_NN_DEFAULTS["epochs"]
    learning_rate: float = REFERENCE_NN_DEFAULTS["learning_rate"]
    train_fraction: float = REFERENCE_NN_DEFAULTS["train_fraction"]
    seed: int = 0

    def __post_init__(self):
        epochs, eta = self.epochs, self.learning_rate
        if isinstance(epochs, bool) or not isinstance(epochs, numbers.Integral) or epochs < 1:
            raise ConfigurationError(f"epochs must be an integer >= 1, got {epochs!r}")
        if not (isinstance(eta, numbers.Real) and np.isfinite(eta) and eta > 0):
            raise ConfigurationError(f"learning rate must be finite and positive, got {eta!r}")


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


def _normalized(model: NNModel, ta, pa, split):
    """The (x, y) samples of each part of a split, normalized by the model's ranges."""
    return [(_normalize(ta[idx], model.x_range), _normalize(pa[idx], model.y_range))
            for idx in split]


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
    train, test = _normalized(model, ta, pa, _split(ta.size, cfg.train_fraction, cfg.seed))
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    activation = ACTIVATIONS[model.activation]
    history = np.empty((cfg.epochs, 3))
    eta = cfg.learning_rate

    for epoch in range(cfg.epochs):
        grad_w, grad_b, train_mse = _backprop(weights, biases, activation, *train)
        if not np.isfinite(train_mse):
            raise TrainingError(
                f"training diverged at epoch {epoch} (loss={train_mse}); "
                f"reduce the learning rate (eta={eta})"
            )
        test_mse = _mse(_forward(weights, biases, activation[0], test[0])[1][-1][0] - test[1])
        history[epoch] = (epoch, train_mse, test_mse)
        for w, b, gw, gb in zip(weights, biases, grad_w, grad_b):
            w -= eta * gw
            b -= eta * gb
    return replace(model, weights=tuple(weights), biases=tuple(biases)), history


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
    train, test = _normalized(model, ta, pa, split)
    hidden = _forward(model.weights, model.biases, np.cos, train[0])[1][1]
    design = np.hstack([hidden.T, np.ones((hidden.shape[1], 1))])
    coef = np.linalg.lstsq(design, train[1], rcond=None)[0]
    model = replace(model, weights=(model.weights[0], coef[None, :-1]),
                    biases=(model.biases[0], coef[-1:]))
    train_mse, test_mse = (_mse(_forward(model.weights, model.biases, np.cos, xn)[1][-1][0] - yn)
                           for xn, yn in (train, test))
    return model, np.array([[0.0, train_mse, test_mse]])


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
    write_table(path, ["epoch", "train_mse", "test_mse"],
                ((int(e), tr, te) for e, tr, te in history), line_end="\r\n")
