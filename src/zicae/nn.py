"""Minimal dense-network engine with analytic backpropagation.

Arrays are shaped (batch, features).  Training runs on float64: each
layer's training forward caches what its backward needs, and that backward
consumes the cache, so a trained network holds only parameters and
gradients.  The training contract: call a training forward once before each
backward, and run the backwards in reverse layer order.  A backward with no
cache to consume raises RuntimeError.  A tanh layer's backward writes over
its forward output, which is dead by then.  Each layer instance appears
exactly once in a computation graph.  Gradients are summed over the batch
(losses carry their own 1/batch factor).  A batch may also go through a
stack in row slices, each slice's forward followed by its backward:
``backward(grad, accumulate=True)`` adds a slice's dW/db to what the first
slice wrote, and :func:`bce_loss_grad` divides by the whole batch's rows.
:func:`row_slices` is the one slicing rule, for training and inference.

A ``training=False`` forward of any layer reads the parameters and writes
nothing.  The frozen receivers run in float32 through :func:`frozen_forward`,
one in-place pass over row slices that casts the weights once per call.

Besides the usual dense/residual blocks this module provides the two
power-related normalizations of the transmitter: a multiplicative-only batch
power normalization (per-column unit mean square, no centering) and a
row-wise power normalization that rescales vectors to a fixed total power.
"""

from __future__ import annotations

import math

import numpy as np

TANH = "tanh"
SIGMOID = "sigmoid"
LINEAR = "none"

_EPS_NORM = 1e-12  # floor inside both normalization denominators
_MOMENTUM = 0.99  # weight of BatchPowerNorm's running mean square in each update


def take_cache(owner):
    """The cache of ``owner``'s latest forward, removed so a backward runs once on it."""
    cache = owner._cache
    if cache is None:
        raise RuntimeError(f"{type(owner).__name__}.backward has no forward cache to "
                           "consume: call a training forward once before each backward")
    owner._cache = None
    return cache


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """Activation of the fresh pre-activation z, written over z."""
    if kind == TANH:
        return np.tanh(z, out=z)
    if kind == SIGMOID:  # 1 / (1 + exp(-z))
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)
    if kind == LINEAR:
        return z
    raise ValueError(f"unknown activation {kind!r}")


def _activation_grad(y: np.ndarray, grad_out: np.ndarray, kind: str) -> np.ndarray:
    """grad_out times the derivative, expressed through the consumed output y.

    tanh writes the result over y; sigmoid's y is the caller's output and
    stays intact.
    """
    if kind == TANH:
        np.multiply(y, y, out=y)
        np.subtract(1.0, y, out=y)
        y *= grad_out
        return y
    if kind == SIGMOID:
        return grad_out * (y * (1.0 - y))
    if kind == LINEAR:
        return grad_out
    raise ValueError(f"unknown activation {kind!r}")


class Dense:
    """Fully connected layer y = act(x @ W.T + b) with gradient buffers."""

    def __init__(self, n_in: int, n_out: int, activation: str = TANH, *,
                 rng: np.random.Generator):
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.W = rng.uniform(-limit, limit, size=(n_out, n_in))
        self.b = np.zeros(n_out)
        self.activation = activation
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.shape[1] != self.W.shape[1]:
            raise ValueError(f"expected {self.W.shape[1]} input columns, got {x.shape[1]}")
        z = x @ self.W.T
        z += self.b
        y = _activate(z, self.activation)
        if training:
            self._cache = (x, y)
        return y

    def backward(self, grad_out: np.ndarray, accumulate: bool = False) -> np.ndarray:
        """Input gradient; dW/db are written, or added to with ``accumulate``."""
        x, y = take_cache(self)
        gz = _activation_grad(y, grad_out, self.activation)
        if accumulate:
            self.dW += gz.T @ x
            self.db += gz.sum(axis=0)
        else:
            self.dW = gz.T @ x
            self.db = gz.sum(axis=0)
        return gz @ self.W

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]


class Residual:
    """Shortcut y = x + f(x) around an inner layer; gradient flows to both."""

    def __init__(self, inner: Dense):
        self.inner = inner

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return x + self.inner.forward(x, training)

    def backward(self, grad_out: np.ndarray, accumulate: bool = False) -> np.ndarray:
        grad_in = self.inner.backward(grad_out, accumulate)
        grad_in += grad_out
        return grad_in

    def params(self) -> list[np.ndarray]:
        return self.inner.params()

    def grads(self) -> list[np.ndarray]:
        return self.inner.grads()


def row_slices(n: int, max_rows: int) -> list[slice]:
    """Equal slices of at most ``max_rows`` rows that cover ``range(n)`` in order.

    Each is ``ceil(n / ceil(n / max_rows))`` rows long, the last one
    shorter if needed: 1000 rows in slices of at most 512 go as 500 + 500.
    """
    if not n:
        return []
    step = math.ceil(n / math.ceil(n / max_rows))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def frozen_forward(stack: list, x: np.ndarray, max_rows: int):
    """Inference of a stack of ``Dense`` and ``Residual`` layers in ``x``'s dtype.

    Yields ``(rows, y)`` for each of the :func:`row_slices` of at most
    ``max_rows`` rows of ``x``: ``y`` is the stack's output on ``x[rows]``,
    held in a buffer that the next slice overwrites.  Each layer's weights
    are cast once per call and used as the view ``W.astype(dtype).T``:
    float32 bits depend on the operand layout of the matrix product.  Two buffers of one
    slice take the layers' outputs in turn, so bias, activation and shortcut
    run in place.  Nothing outlives the call: Adam updates W and b in place,
    so a kept copy would go stale.
    """
    slices = row_slices(len(x), max_rows)
    if not slices:
        return
    step = slices[0].stop
    layers = []
    for layer in stack:
        dense = layer.inner if isinstance(layer, Residual) else layer
        layers.append((dense.W.astype(x.dtype).T, dense.b.astype(x.dtype), dense.activation,
                       isinstance(layer, Residual)))
    size = step * max(w.shape[1] for w, *_ in layers)
    buffers = np.empty(size, x.dtype), np.empty(size, x.dtype)
    for rows in slices:
        y = x[rows]
        n = len(y)
        for i, (w, b, activation, shortcut) in enumerate(layers):
            z = buffers[i % 2][:n * w.shape[1]].reshape(n, w.shape[1])  # y is in the other
            np.matmul(y, w, out=z)
            z += b
            _activate(z, activation)
            if shortcut:
                z += y
            y = z
        yield rows, y


class BatchPowerNorm:
    """Scale each column to unit mean square; multiplicative only.

    Training mode uses the batch statistic and updates an exponential running
    mean square; inference mode uses the frozen running value.  There is no
    mean subtraction and no learned affine term.
    """

    def __init__(self, n_cols: int = 2):
        self.running_ms = np.ones(n_cols)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if not training:
            return x * (1.0 / np.sqrt(np.maximum(self.running_ms, _EPS_NORM)))
        ms = np.mean(x * x, axis=0)
        self.running_ms = _MOMENTUM * self.running_ms + (1.0 - _MOMENTUM) * ms
        floored = ms < _EPS_NORM
        ms = np.maximum(ms, _EPS_NORM)
        beta = 1.0 / np.sqrt(ms)
        self._cache = (x, ms, floored, beta)
        return x * beta

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, ms, floored, beta = take_cache(self)
        corr = x * (np.sum(grad_out * x, axis=0) / (len(x) * ms**1.5))
        return grad_out * beta - np.where(floored, 0.0, corr)


class PowerNorm:
    """Rescale each row to squared norm ``total_power`` (gamma.T @ gamma = P_t)."""

    def __init__(self, total_power: float):
        if total_power <= 0:
            raise ValueError(f"total_power must be > 0, got {total_power}")
        self.total_power = total_power
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        r = np.maximum(np.sqrt(np.sum(x * x, axis=1, keepdims=True)), _EPS_NORM)
        if training:
            self._cache = (x, r)
        return np.sqrt(self.total_power) * x / r

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, r = take_cache(self)
        dot = np.sum(grad_out * x, axis=1, keepdims=True)
        corr = np.where(r <= _EPS_NORM, 0.0, x * dot / r**3)
        return np.sqrt(self.total_power) * (grad_out / r - corr)


def gaussian_noise(x: np.ndarray, var_per_component: float,
                   rng: np.random.Generator | None) -> np.ndarray:
    """Additive iid zero-mean Gaussian noise; identity in the backward pass."""
    if var_per_component < 0:
        raise ValueError(f"variance must be >= 0, got {var_per_component}")
    if rng is None or var_per_component == 0.0:
        return x
    return x + np.sqrt(var_per_component) * rng.standard_normal(x.shape)


_BCE_CLIP = 1e-7


def bce_loss(s: np.ndarray, s_hat: np.ndarray) -> float:
    """Mean-over-batch binary cross entropy, summed over bit positions."""
    p = np.clip(s_hat, _BCE_CLIP, 1.0 - _BCE_CLIP)
    n = s.shape[0]
    return float(-(s * np.log(p) + (1.0 - s) * np.log(1.0 - p)).sum() / n)


def bce_loss_grad(s: np.ndarray, s_hat: np.ndarray, batch: int) -> np.ndarray:
    """Gradient of :func:`bce_loss` over ``batch`` rows with respect to the predictions.

    Elementwise, so the rows ``s``/``s_hat`` may be any slice of the batch:
    each entry is the one the whole batch gives.
    """
    p = np.clip(s_hat, _BCE_CLIP, 1.0 - _BCE_CLIP)
    return -(s / p - (1.0 - s) / (1.0 - p)) / batch


# Adam moment decay rates and denominator floor
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment optimizer over a fixed list of parameter arrays.

    Parameters are updated in place so layer references stay valid.  The
    learning rate decays multiplicatively via :meth:`decay_lr`.
    """

    def __init__(self, params: list[np.ndarray], lr: float = 1e-2, decay: float = 0.95):
        self.params = params
        self.lr = lr
        self.decay = decay
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)

    def decay_lr(self) -> None:
        self.lr *= self.decay
