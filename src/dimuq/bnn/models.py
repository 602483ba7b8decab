"""The two probabilistic network regressors.

Model kind one: a deterministic trunk (dense -> batch norm -> ReLU, three
hidden layers) feeding a two-parameter Gaussian output head. It learns the
data noise (aleatoric spread) but has a single fixed set of weights.

Model kind two: a single variational dense layer (sigmoid) over batch-
normalized inputs, feeding the same Gaussian head through a deterministic
output layer. Sampling its weight posterior turns it into an ensemble whose
spread of means is the model (epistemic) uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, TrainingError
from ..metrics import Prediction, PredictiveDistribution
from ..optim import Adam, FlatParameters, RmsProp
from .layers import (
    STDDEV_FLOOR,
    BatchNormLayer,
    DenseLayer,
    VariationalDenseLayer,
    pack_layers,
    sigmoid,
    softplus,
)
from .losses import gaussian_nll, nll_grads

DEFAULT_HEAD_EPOCHS = 4000
DEFAULT_ENSEMBLE_EPOCHS = 3000


@dataclass(frozen=True)
class GaussianHead:
    """Raw two-column network output interpreted as a Gaussian per query."""

    raw_mean: np.ndarray
    raw_scale: np.ndarray

    @property
    def means(self) -> np.ndarray:
        return self.raw_mean

    @property
    def stddevs(self) -> np.ndarray:
        return softplus(self.raw_scale) + STDDEV_FLOOR


@dataclass(frozen=True)
class HeadConfig:
    hidden_sizes: tuple[int, ...] = (24, 16, 8)
    learning_rate: float = 0.001
    kl_weight: float | None = None  # None -> 1 / n_train
    output_prior_regularizer: bool = True

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be nonempty positive counts")


@dataclass(frozen=True)
class EnsembleConfig:
    n_units: int = 8
    learning_rate: float = 0.001
    kl_weight: float | None = None  # None -> 1 / n_train

    def __post_init__(self):
        if self.n_units < 1:
            raise ConfigError("n_units must be >= 1")


class _Network(FlatParameters):
    """A network of the layers ``named_layers()`` lists, in parameter order,
    each with the key prefix of its arrays in a snapshot. ``KIND`` names the
    network in a snapshot, ``ARCHITECTURE`` the constructor arguments saved
    with it."""

    def params(self):
        return [p for _, layer in self.named_layers() for p in layer.params()]

    def grads(self):
        return [g for _, layer in self.named_layers() for g in layer.grads()]


class HeadNetwork(_Network):
    """Deterministic trunk with a trainable-mean/-variance Gaussian output."""

    KIND = "head"
    ARCHITECTURE = ("hidden_sizes", "n_inputs")

    def __init__(self, n_inputs: int, hidden_sizes=(24, 16, 8), seed: int = 0):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        self.n_inputs = n_inputs
        self.hidden_sizes = tuple(hidden_sizes)
        self.hidden: list[tuple[DenseLayer, BatchNormLayer]] = []
        previous = n_inputs
        for width in self.hidden_sizes:
            self.hidden.append((DenseLayer(previous, width, rng), BatchNormLayer(width)))
            previous = width
        self.output = DenseLayer(previous, 2, rng)
        self.theta, self.gradient = pack_layers(layer for _, layer in self.named_layers())
        self._relu_cache: list[np.ndarray] = []
        self._raw_scale: np.ndarray | None = None
        self.loss_trace: list[tuple[int, float, float, float]] = []

    def named_layers(self):
        pairs = []
        for i, (dense, bn) in enumerate(self.hidden):
            pairs += [(f"dense{i}_", dense), (f"bn{i}_", bn)]
        return pairs + [("out_", self.output)]

    def diagnostics(self) -> dict:
        return _trace_diagnostics(self.loss_trace, "regularizer")

    def forward(self, X: np.ndarray) -> GaussianHead:
        """Training pass: batch statistics, caches for ``loss_and_grads``."""
        self._relu_cache = []
        h = np.atleast_2d(np.asarray(X, dtype=np.float64))
        for dense, bn in self.hidden:
            h = np.maximum(bn.forward(dense.forward(h)), 0.0)
            self._relu_cache.append(h)
        raw = self.output.forward(h)
        self._raw_scale = raw[:, 1]
        return GaussianHead(raw_mean=raw[:, 0], raw_scale=raw[:, 1])

    def loss_and_grads(self, X, y, kl_weight: float):
        """Mean NLL plus the output-prior proximity penalty; fills the grads."""
        y = np.asarray(y, dtype=np.float64).ravel()
        head = self.forward(X)
        mu, sigma = head.means, head.stddevs
        m = y.size
        nll = gaussian_nll(mu, sigma, y)
        d_mu, d_sigma = nll_grads(mu, sigma, y)
        reg = 0.0
        if kl_weight > 0.0:
            per_sample = -np.log(sigma) + 0.5 * (sigma ** 2 + mu ** 2) - 0.5
            reg = kl_weight * float(per_sample.mean())
            d_mu = d_mu + kl_weight * mu / m
            d_sigma = d_sigma + kl_weight * (sigma - 1.0 / sigma) / m
        dz = np.column_stack([d_mu, d_sigma * sigmoid(head.raw_scale)])
        upstream = self.output.backward(dz)
        for (dense, bn), post in zip(reversed(self.hidden), reversed(self._relu_cache)):
            upstream = upstream * (post > 0.0)
            upstream = bn.backward(upstream)
            upstream = dense.backward(upstream)
        return nll, reg

    def infer(self, X: np.ndarray) -> GaussianHead:
        """Inference pass that touches no shared caches (thread-safe)."""
        h = np.atleast_2d(np.asarray(X, dtype=np.float64))
        for dense, bn in self.hidden:
            h = np.maximum(bn.apply(dense.apply(h)), 0.0)
        raw = self.output.apply(h)
        return GaussianHead(raw_mean=raw[:, 0], raw_scale=raw[:, 1])

    def predict_dist(self, features) -> PredictiveDistribution:
        head = self.infer(features)
        return PredictiveDistribution(means=head.means, stddevs=head.stddevs)

    def predict(self, features) -> Prediction:
        return Prediction(self.infer(features).means)


class EnsembleNetwork(_Network):
    """Variational-weight network sampled as an ensemble at prediction time."""

    KIND = "ensemble"
    ARCHITECTURE = ("n_inputs", "n_units")

    def __init__(self, n_inputs: int, n_units: int = 8, seed: int = 0):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        self.n_inputs = n_inputs
        self.n_units = n_units
        self.input_norm = BatchNormLayer(n_inputs)
        self.variational = VariationalDenseLayer(n_inputs, n_units, rng)
        self.output = DenseLayer(n_units, 2, rng)
        self.theta, self.gradient = pack_layers(layer for _, layer in self.named_layers())
        self._sigmoid_cache: np.ndarray | None = None
        self.loss_trace: list[tuple[int, float, float, float]] = []

    def named_layers(self):
        return [("bn_", self.input_norm), ("", self.variational), ("out_", self.output)]

    def diagnostics(self) -> dict:
        return _trace_diagnostics(self.loss_trace, "kl")

    def draw_noise(self, rng):
        return self.variational.draw_noise(rng)

    def forward(self, X: np.ndarray, noise) -> GaussianHead:
        """Training pass with one weight draw ``noise``."""
        h = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self.forward_normalized(self.input_norm.forward(h), noise)

    def forward_normalized(self, h: np.ndarray, noise) -> GaussianHead:
        """The forward pass from the input normalization's output on."""
        h = sigmoid(self.variational.forward(h, noise))
        self._sigmoid_cache = h
        raw = self.output.forward(h)
        return GaussianHead(raw_mean=raw[:, 0], raw_scale=raw[:, 1])

    def sample_heads(self, X: np.ndarray, noises):
        """One inference pass per noise draw, touching no shared caches
        (thread-safe). The inputs are normalized and the posterior stddevs
        computed once for all draws."""
        h = self.input_norm.apply(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        stddevs = self.variational.posterior_stddevs()
        for noise in noises:
            W, b = self.variational.sampled_weights(noise, stddevs)
            raw = self.output.apply(sigmoid(h @ W + b))
            yield GaussianHead(raw_mean=raw[:, 0], raw_scale=raw[:, 1])

    def elbo(self, head: GaussianHead, y: np.ndarray, kl_weight: float,
             with_grads: bool):
        """(total, nll, kl) of the last forward pass, which returned ``head``;
        ``with_grads`` also fills the gradient vector."""
        mu, sigma = head.means, head.stddevs
        nll = gaussian_nll(mu, sigma, y)
        kl = self.variational.forward_kl()
        total = nll + kl_weight * kl
        if with_grads:
            d_mu, d_sigma = nll_grads(mu, sigma, y)
            dz = np.column_stack([d_mu, d_sigma * sigmoid(head.raw_scale)])
            upstream = self.output.backward(dz)
            upstream = upstream * self._sigmoid_cache * (1.0 - self._sigmoid_cache)
            upstream = self.variational.backward(upstream, kl_weight)
            self.input_norm.param_backward(upstream)
        return total, nll, kl


def _trace_diagnostics(loss_trace, penalty: str) -> dict:
    if not loss_trace:
        return {"epochs": 0}
    epoch, nll, penalty_value, total = loss_trace[-1]
    return {"epochs": epoch + 1, "nll": nll, penalty: penalty_value, "total": total}


def _check_finite(epoch: int, total: float, raw_scale: np.ndarray) -> None:
    # softplus takes a raw scale of -inf to a finite stddev, so a loss that
    # is finite does not prove the network output is
    if not (np.isfinite(total) and np.isfinite(raw_scale).all()):
        raise TrainingError("training loss or network output became non-finite",
                            iteration=epoch)


def elbo_loss(model: EnsembleNetwork, X, y, kl_weight: float, noise=None, rng=None,
              with_grads: bool = False):
    """Single-draw variational objective: mean NLL + kl_weight * analytic KL.

    Returns (total, nll, kl). The expectation over weights uses one
    reparameterized draw, supplied either as frozen ``noise`` or via ``rng``.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if noise is None:
        if rng is None:
            raise ConfigError("elbo_loss needs either frozen noise or an rng")
        noise = model.draw_noise(rng)
    head = model.forward(X, noise)
    return model.elbo(head, y, kl_weight, with_grads)


def train_head_model(matrix, config: HeadConfig | None = None,
                     epochs: int = DEFAULT_HEAD_EPOCHS, seed: int = 0) -> HeadNetwork:
    """Full-batch Adam on the Gaussian-head network; deterministic given seed."""
    config = config or HeadConfig()
    if matrix.n_rows == 0:
        raise ConfigError("cannot train on empty data")
    X, y = matrix.features, matrix.targets
    kl_weight = config.kl_weight if config.kl_weight is not None else 1.0 / matrix.n_rows
    if not config.output_prior_regularizer:
        kl_weight = 0.0
    model = HeadNetwork(matrix.width, config.hidden_sizes, seed=seed)
    optimizer = Adam(lr=config.learning_rate)
    for epoch in range(epochs):
        nll, reg = model.loss_and_grads(X, y, kl_weight)
        total = nll + reg
        _check_finite(epoch, total, model._raw_scale)
        model.loss_trace.append((epoch, nll, reg, total))
        optimizer.step([model.theta], [model.gradient])
    return model


def train_ensemble_model(matrix, config: EnsembleConfig | None = None,
                         epochs: int = DEFAULT_ENSEMBLE_EPOCHS,
                         seed: int = 0) -> EnsembleNetwork:
    """RMSprop on the single-draw variational objective; deterministic given seed."""
    config = config or EnsembleConfig()
    if matrix.n_rows == 0:
        raise ConfigError("cannot train on empty data")
    X, y = matrix.features, np.asarray(matrix.targets, dtype=np.float64).ravel()
    kl_weight = config.kl_weight if config.kl_weight is not None else 1.0 / matrix.n_rows
    model = EnsembleNetwork(matrix.width, config.n_units, seed=seed)
    train_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    optimizer = RmsProp(lr=config.learning_rate)
    # full batch: the input normalization sees the same X, so the same
    # moments, every epoch
    mean, var, inv_std, xhat = model.input_norm.batch_moments(X)
    for epoch in range(epochs):
        noise = model.draw_noise(train_rng)
        model.input_norm.update_running(mean, var)
        head = model.forward_normalized(model.input_norm.scale_shift(xhat, inv_std), noise)
        total, nll, kl = model.elbo(head, y, kl_weight, with_grads=True)
        _check_finite(epoch, total, head.raw_scale)
        model.loss_trace.append((epoch, nll, kl, total))
        optimizer.step([model.theta], [model.gradient])
    return model
