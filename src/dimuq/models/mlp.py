"""Fully connected feed-forward regressor trained full-batch.

Loss is half the mean squared error; ``loss_and_grads`` backpropagates it
through the dense layers of ``bnn.layers``, and the gradient feeds either
Adam or the limited-memory quasi-Newton solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bnn.layers import DenseLayer, pack_layers
from ..errors import ConfigError, TrainingError
from ..metrics import Prediction, Regressor
from ..optim import Adam, minimize_lbfgs

ACTIVATIONS = ("tanh", "relu")
OPTIMIZERS = ("lbfgs", "adam")


@dataclass(frozen=True)
class MlpConfig:
    hidden_sizes: tuple[int, ...] = (16, 8, 4)
    activation: str = "tanh"
    optimizer: str = "lbfgs"
    learning_rate: float = 0.001
    max_iter: int = 5000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be nonempty positive counts")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")


class MlpRegressor(Regressor):
    def __init__(self, config: MlpConfig | None = None):
        self.config = config or MlpConfig()

    def init_params(self, n_inputs: int) -> None:
        """Glorot-uniform dense layers; ``theta`` holds all their weights,
        then all their biases."""
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed]))
        sizes = [n_inputs, *self.config.hidden_sizes, 1]
        self.layers = [DenseLayer(n_in, n_out, rng) for n_in, n_out in zip(sizes, sizes[1:])]
        self.theta, self.gradient = pack_layers(self.layers)

    # -- forward / backward ---------------------------------------------------

    def _activate(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z) if self.config.activation == "tanh" else np.maximum(z, 0.0)

    def _activate_grad(self, a: np.ndarray) -> np.ndarray:
        if self.config.activation == "tanh":
            return 1.0 - a ** 2
        return (a > 0.0).astype(np.float64)

    def forward(self, X: np.ndarray) -> np.ndarray:
        h = X
        for layer in self.layers[:-1]:
            h = self._activate(layer.apply(h))
        return self.layers[-1].apply(h).ravel()

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray) -> float:
        """Half-MSE loss; writes its gradient into ``gradient``."""
        inputs = [X]  # each layer's input
        for layer in self.layers[:-1]:
            inputs.append(self._activate(layer.apply(inputs[-1])))
        diff = self.layers[-1].apply(inputs[-1]).ravel() - y
        loss = 0.5 * float(np.mean(diff ** 2))
        upstream = (diff / y.size)[:, None]
        for layer, h in zip(reversed(self.layers), reversed(inputs)):
            layer.dW[...] = h.T @ upstream
            layer.db[...] = upstream.sum(axis=0)
            if h is not X:  # nothing reads the gradient with respect to X
                upstream = (upstream @ layer.W.T) * self._activate_grad(h)
        return loss

    # -- training --------------------------------------------------------------

    def fit(self, matrix) -> "MlpRegressor":
        X, y = matrix.features, matrix.targets
        self.init_params(X.shape[1])
        if self.config.optimizer == "adam":
            self._fit_adam(X, y)
        else:
            self._fit_lbfgs(X, y)
        self.width = matrix.width
        return self

    def _fit_adam(self, X, y):
        optimizer = Adam(lr=self.config.learning_rate)
        previous = np.inf
        stalled = 0
        for it in range(self.config.max_iter):
            loss = self.loss_and_grads(X, y)
            if not np.isfinite(loss):
                raise TrainingError("training loss became non-finite", iteration=it)
            # full-batch Adam oscillates; stop only after 10 consecutive
            # iterations whose loss change is below the improvement threshold
            if abs(previous - loss) < 1e-8:
                stalled += 1
                if stalled >= 10:
                    self.n_iter = it
                    return
            else:
                stalled = 0
            previous = loss
            optimizer.step(self.theta, self.gradient)
        self.n_iter = self.config.max_iter

    def _fit_lbfgs(self, X, y):
        def objective(flat):
            self.theta[...] = flat
            # a copy: the optimizer keeps earlier gradients beside the next one
            return self.loss_and_grads(X, y), self.gradient.copy()

        result = minimize_lbfgs(objective, self.theta,
                                memory=10, max_iter=self.config.max_iter,
                                grad_tol=1e-10, f_tol=1e-8)
        if not np.isfinite(result.fun):
            raise TrainingError("training loss became non-finite", iteration=result.n_iter)
        self.theta[...] = result.x
        self.n_iter = result.n_iter

    def predict(self, features) -> Prediction:
        return Prediction(self.forward(self.queries(features)))
