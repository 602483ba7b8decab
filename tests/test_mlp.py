import numpy as np
import pytest

from dimuq import rmse
from dimuq.errors import ConfigError
from dimuq.models import MlpConfig, MlpRegressor

from helpers import central_difference, matrix_from_arrays


def smooth_fixture(n, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2] + noise * rng.standard_normal(n)
    return matrix_from_arrays(X, y)


class TestMlp:
    def test_zeroed_output_layer_predicts_bias(self):
        model = MlpRegressor(MlpConfig(hidden_sizes=(5, 3), seed=0))
        model.init_params(4)
        model.layers[-1].W[...] = 0.0
        model.layers[-1].b[...] = 0.37
        rng = np.random.default_rng(0)
        np.testing.assert_allclose(model.forward(rng.normal(size=(6, 4))), 0.37,
                                   rtol=1e-12)

    def test_weights_and_biases_are_views_of_one_vector(self):
        model = MlpRegressor(MlpConfig(hidden_sizes=(5, 3), seed=0))
        model.init_params(4)
        weights = [layer.W for layer in model.layers]
        biases = [layer.b for layer in model.layers]
        assert all(np.shares_memory(p, model.theta) for p in weights + biases)
        # all weights, then all biases
        np.testing.assert_array_equal(
            model.theta, np.concatenate([p.ravel() for p in weights + biases]))
        model.theta[...] = np.arange(model.theta.size, dtype=np.float64)
        assert model.layers[-1].b[0] == model.theta.size - 1

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_gradients_match_finite_differences(self, activation):
        train = smooth_fixture(4, seed=1)
        model = MlpRegressor(MlpConfig(hidden_sizes=(4, 3), activation=activation,
                                       seed=2))
        model.init_params(3)

        def loss_of(flat):
            model.theta[...] = flat
            return model.loss_and_grads(train.features, train.targets)

        flat0 = model.theta.copy()
        loss_of(flat0)
        analytic = model.gradient.copy()
        numeric = central_difference(loss_of, flat0, h=1e-5)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_lbfgs_fits_smooth_function(self):
        train = smooth_fixture(120, seed=3)
        test = smooth_fixture(60, seed=4)
        model = MlpRegressor(MlpConfig(hidden_sizes=(16, 8), activation="tanh",
                                       optimizer="lbfgs", max_iter=800, seed=0)).fit(train)
        assert rmse(model.predict(test.features).values, test.targets) < 0.1

    def test_adam_fits_smooth_function(self):
        train = smooth_fixture(120, seed=5)
        test = smooth_fixture(60, seed=6)
        model = MlpRegressor(MlpConfig(hidden_sizes=(16, 8), activation="tanh",
                                       optimizer="adam", learning_rate=0.02,
                                       max_iter=5000, seed=0)).fit(train)
        assert rmse(model.predict(test.features).values, test.targets) < 0.15

    def test_same_seed_bit_identical(self):
        train = smooth_fixture(50, seed=7)
        queries = train.features[:9]
        config = MlpConfig(hidden_sizes=(6, 4), optimizer="adam", learning_rate=0.01,
                           max_iter=200, seed=11)
        first = MlpRegressor(config).fit(train).predict(queries).values
        second = MlpRegressor(config).fit(train).predict(queries).values
        np.testing.assert_array_equal(first, second)

    def test_tiny_fit_predictions_are_pinned_bit_for_bit(self):
        # the MLP shares DenseLayer and pack_layers with the probabilistic
        # networks; evaluate-point's 0.025 mm tolerance would hide a change
        # of their arithmetic, so a short L-BFGS fit pins their bits
        train = smooth_fixture(12, seed=9)
        model = MlpRegressor(MlpConfig(hidden_sizes=(4, 3), max_iter=25, seed=1)).fit(train)
        expected = ["0x1.06d83b69962e2p+0", "0x1.295d2eccc261fp+0",
                    "0x1.e8ee72c5729efp-3", "-0x1.a652c90dff6f8p-3"]
        assert model.n_iter == 25
        assert [float(v).hex() for v in model.predict(train.features[:4]).values] == expected

    def test_divergence_reports_iteration(self):
        import warnings
        rng = np.random.default_rng(8)
        X = rng.uniform(1e3, 1e5, size=(20, 2))
        y = rng.uniform(1e6, 1e8, size=20)
        # a step size at float64 overflow scale forces a non-finite loss
        config = MlpConfig(hidden_sizes=(8,), activation="relu", optimizer="adam",
                           learning_rate=1e160, max_iter=50, seed=0)
        from dimuq.errors import TrainingError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingError) as excinfo:
                MlpRegressor(config).fit(matrix_from_arrays(X, y))
        assert excinfo.value.iteration is not None

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MlpConfig(hidden_sizes=())
        with pytest.raises(ConfigError):
            MlpConfig(activation="gelu")
        with pytest.raises(ConfigError):
            MlpConfig(optimizer="sgd")
