"""The two probabilistic network regressors.

Model kind one: a deterministic trunk (dense -> batch norm -> ReLU, three
hidden layers) feeding a two-parameter Gaussian output head. It learns the
data noise (aleatoric spread) but has a single fixed set of weights.

Model kind two: a single variational dense layer (sigmoid) over batch-
normalized inputs, feeding the same Gaussian head through a deterministic
output layer. Sampling its weight posterior turns it into an ensemble whose
spread of means is the model (epistemic) uncertainty.

Each network trains with one fused forward and backward pass
(``loss_and_grads``) rather than a chain of per-layer passes:

- column means and sums are vector products with a ones vector; the head's
  batch norms centre and scale in place, and their backward pass takes its
  two means from the scale and shift gradients;
- the head's hidden dense biases enter only the running means, since the
  batch norm after each cancels them (their gradient is zero);
- the ensemble folds its input batch norm into the sampled weights,
  xhat @ (gamma W) + (beta W + b), and takes every input-side gradient from
  xhat^T dz and 1^T dz, so no step touches an input-sized array elementwise.

This rounds differently from a per-layer chain. On the uq benchmark's
instances 0-21 the ensemble's RMSEs kept their value and its trend values
moved by < 1e-16 mm; 2000 full-batch Adam epochs amplify the head's
rounding, and its RMSE moved by up to 8.8e-3 mm (instance 17).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, TrainingError
from ..metrics import PredictiveDistribution
from ..optim import Adam, RmsProp
from .layers import (
    STDDEV_FLOOR,
    BatchNormLayer,
    DenseLayer,
    VariationalDenseLayer,
    pack_layers,
    sigmoid,
    softplus,
)
from .losses import gaussian_nll, standard_normal_kl

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

    def raw_gradient(self, d_means, d_stddevs, out: np.ndarray) -> np.ndarray:
        """Write into the two-column ``out`` the gradient with respect to the
        raw output, given the gradients with respect to the means and the
        stddevs, and return it."""
        out[:, 0] = d_means
        np.multiply(d_stddevs, sigmoid(self.raw_scale), out=out[:, 1])
        return out


@dataclass(frozen=True)
class HeadConfig:
    hidden_sizes: tuple[int, ...] = (24, 16, 8)
    learning_rate: float = 0.001
    kl_weight: float | None = None  # None -> 1 / n_train; 0 turns the output prior off

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be nonempty positive counts")
        _check_training(self)


@dataclass(frozen=True)
class EnsembleConfig:
    n_units: int = 8
    learning_rate: float = 0.001
    kl_weight: float | None = None  # None -> 1 / n_train

    def __post_init__(self):
        if self.n_units < 1:
            raise ConfigError("n_units must be >= 1")
        _check_training(self)


def _check_training(config) -> None:
    if not config.learning_rate > 0:
        raise ConfigError("learning_rate must be > 0")
    if config.kl_weight is not None and not config.kl_weight >= 0:
        raise ConfigError("kl_weight must be >= 0")


class _Network:
    """A network of the layers ``named_layers()`` lists, in parameter order,
    each with the key prefix of its arrays in a snapshot. ``KIND`` names the
    network in a snapshot, ``ARCHITECTURE`` the constructor arguments saved
    with it, and ``PENALTY`` the loss term its loss trace records beside the
    NLL. ``pack_layers`` makes the layers' arrays views into ``theta`` and
    their gradients views into ``gradient``."""

    def diagnostics(self) -> dict:
        if not self.loss_trace:
            return {"epochs": 0}
        epoch, nll, penalty, total = self.loss_trace[-1]
        return {"epochs": epoch + 1, "nll": nll, self.PENALTY: penalty, "total": total}

    def _run_epochs(self, optimizer, epochs: int, step) -> None:
        """The training loop: ``epochs`` optimizer steps on ``theta``. Each
        ``step()`` makes one forward and backward pass, filling ``gradient``,
        and returns (output head, total loss, mean NLL, penalty)."""
        for epoch in range(epochs):
            head, total, nll, penalty = step()
            # softplus takes a raw scale of -inf to a finite stddev, so a loss
            # that is finite does not prove the network output is
            if not (np.isfinite(total) and np.isfinite(head.raw_scale).all()):
                raise TrainingError("training loss or network output became non-finite",
                                    iteration=epoch)
            self.loss_trace.append((epoch, nll, penalty, total))
            optimizer.step(self.theta, self.gradient)

    def _output_pass(self, h: np.ndarray, y: np.ndarray, prior_weight: float):
        """Forward and backward through the output layer and the Gaussian
        head from the last hidden activations ``h``: writes the output
        layer's gradients and returns (head, mean NLL, penalty, gradient
        with respect to ``h``). A positive ``prior_weight`` adds the penalty
        prior_weight * mean KL(predicted Gaussian || N(0, 1))."""
        output = self.output
        raw = output.apply(h)
        head = GaussianHead(raw_mean=raw[:, 0], raw_scale=raw[:, 1])
        mu, sigma = head.means, head.stddevs
        nll, d_mu, d_sigma = gaussian_nll(mu, sigma, y)
        penalty = 0.0
        if prior_weight > 0.0:
            m = y.size
            penalty = prior_weight * float(standard_normal_kl(mu, sigma).mean())
            d_mu = d_mu + prior_weight * mu / m
            d_sigma = d_sigma + prior_weight * (sigma - 1.0 / sigma) / m
        d_raw = head.raw_gradient(d_mu, d_sigma, np.empty_like(raw))
        output.dW[...] = h.T @ d_raw
        output.db[...] = np.ones(y.size) @ d_raw
        return head, nll, penalty, d_raw @ output.W.T


class HeadNetwork(_Network):
    """Deterministic trunk with a trainable-mean/-variance Gaussian output."""

    KIND = "head"
    ARCHITECTURE = ("hidden_sizes", "n_inputs")
    PENALTY = "regularizer"

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
        self.loss_trace: list[tuple[int, float, float, float]] = []

    def named_layers(self):
        pairs = []
        for i, (dense, bn) in enumerate(self.hidden):
            pairs += [(f"dense{i}_", dense), (f"bn{i}_", bn)]
        return pairs + [("out_", self.output)]

    def loss_and_grads(self, X, y: np.ndarray, kl_weight: float):
        """One training pass on float targets ``y``, normalizing by batch
        statistics: updates the running statistics, fills the gradient
        vector and returns (head, mean NLL + output-prior penalty, mean NLL,
        penalty)."""
        h = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n = h.shape[0]
        ones = np.ones(n)
        saved = []
        for dense, bn in self.hidden:
            # the batch norm cancels the dense bias: it enters only the
            # running mean, and its gradient is zero
            z = h @ dense.W
            mean, var, inv_std, xhat = bn.batch_moments(z, out=z)
            bn.update_running(mean + dense.b, var)
            h_out = xhat * bn.gamma
            h_out += bn.beta
            np.maximum(h_out, 0.0, out=h_out)
            saved.append((h, xhat, inv_std, h_out))
            h = h_out
        head, nll, reg, dy = self._output_pass(h, y, kl_weight)
        for depth in reversed(range(len(self.hidden))):
            dense, bn = self.hidden[depth]
            h_in, xhat, inv_std, h_out = saved[depth]
            dy *= h_out > 0.0  # through the ReLU
            bn.dbeta[...] = ones @ dy
            bn.dgamma[...] = ones @ (dy * xhat)
            # dx = gamma inv_std (dy - mean(dy) - xhat mean(dy xhat)); the two
            # means are dbeta / n and dgamma / n
            dy -= xhat * (bn.dgamma / n)
            dy -= bn.dbeta / n
            dy *= bn.gamma * inv_std
            dense.dW[...] = h_in.T @ dy
            dense.db[...] = 0.0
            if depth > 0:
                dy = dy @ dense.W.T
        return head, nll + reg, nll, reg

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


class EnsembleNetwork(_Network):
    """Variational-weight network sampled as an ensemble at prediction time."""

    KIND = "ensemble"
    ARCHITECTURE = ("n_inputs", "n_units")
    PENALTY = "kl"

    def __init__(self, n_inputs: int, n_units: int = 8, seed: int = 0):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        self.n_inputs = n_inputs
        self.n_units = n_units
        self.input_norm = BatchNormLayer(n_inputs)
        self.variational = VariationalDenseLayer(n_inputs, n_units, rng)
        self.output = DenseLayer(n_units, 2, rng)
        self.theta, self.gradient = pack_layers(layer for _, layer in self.named_layers())
        self.loss_trace: list[tuple[int, float, float, float]] = []

    def named_layers(self):
        return [("bn_", self.input_norm), ("", self.variational), ("out_", self.output)]

    def draw_noise(self, rng):
        return self.variational.draw_noise(rng)

    def loss_and_grads(self, moments, noise, y: np.ndarray, kl_weight: float):
        """One training pass with the weight draw ``noise`` over inputs whose
        ``input_norm.batch_moments`` are ``moments``: updates the running
        statistics, fills the gradient vector and returns (head, mean NLL +
        kl_weight * KL, mean NLL, KL)."""
        mean, var, _, xhat = moments
        norm, variational = self.input_norm, self.variational
        norm.update_running(mean, var)
        stddevs = variational.posterior_stddevs()
        W, b = variational.sampled_weights(noise, stddevs)
        # (gamma xhat + beta) @ W + b with the batch norm folded into W
        z = xhat @ (norm.gamma[:, None] * W)
        z += norm.beta @ W + b
        hidden = sigmoid(z)
        head, nll, _, dz = self._output_pass(hidden, y, 0.0)
        dz *= hidden  # through the sigmoid
        dz *= 1.0 - hidden
        # the gradients through the folded weights, from G = xhat^T dz and
        # s = 1^T dz: dW = gamma G + beta s^T, dgamma = rowsum(G W), dbeta = W s
        G = xhat.T @ dz
        s = np.ones(dz.shape[0]) @ dz
        variational.write_gradients(norm.gamma[:, None] * G + norm.beta[:, None] * s, s,
                                    noise, stddevs, kl_weight)
        norm.dgamma[...] = (G * W).sum(axis=1)
        norm.dbeta[...] = W @ s
        kl = variational.kl(stddevs)
        return head, nll + kl_weight * kl, nll, kl

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


def _training_data(matrix, config):
    """Features, float targets and the KL weight (default 1 / rows) of a fit."""
    if matrix.n_rows == 0:
        raise ConfigError("cannot train on empty data")
    kl_weight = config.kl_weight if config.kl_weight is not None else 1.0 / matrix.n_rows
    return matrix.features, np.asarray(matrix.targets, dtype=np.float64).ravel(), kl_weight


def train_head_model(matrix, config: HeadConfig | None = None,
                     epochs: int = DEFAULT_HEAD_EPOCHS, seed: int = 0) -> HeadNetwork:
    """Full-batch Adam on the Gaussian-head network; deterministic given seed."""
    config = config or HeadConfig()
    X, y, kl_weight = _training_data(matrix, config)
    model = HeadNetwork(matrix.width, config.hidden_sizes, seed=seed)
    model._run_epochs(Adam(lr=config.learning_rate), epochs,
                      lambda: model.loss_and_grads(X, y, kl_weight))
    return model


def train_ensemble_model(matrix, config: EnsembleConfig | None = None,
                         epochs: int = DEFAULT_ENSEMBLE_EPOCHS,
                         seed: int = 0) -> EnsembleNetwork:
    """RMSprop on the single-draw variational objective; deterministic given seed."""
    config = config or EnsembleConfig()
    X, y, kl_weight = _training_data(matrix, config)
    model = EnsembleNetwork(matrix.width, config.n_units, seed=seed)
    train_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    # full batch: the input normalization sees the same X, so the same
    # moments, every epoch
    moments = model.input_norm.batch_moments(X)
    model._run_epochs(RmsProp(lr=config.learning_rate), epochs,
                      lambda: model.loss_and_grads(moments, model.draw_noise(train_rng), y,
                                                   kl_weight))
    return model
