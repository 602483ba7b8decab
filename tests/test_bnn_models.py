import functools
import warnings

import numpy as np
import pytest

from dimuq import apply_scaler, fit_scaler, synthetic_matrix
from dimuq.bnn import (
    EnsembleConfig,
    EnsembleNetwork,
    HeadConfig,
    HeadNetwork,
    decompose_uncertainty,
    ensemble_predict,
    load_snapshot,
    save_snapshot,
    softplus,
    train_ensemble_model,
    train_head_model,
)
from dimuq.bnn.layers import sigmoid, softplus_inverse
from dimuq.bnn.snapshot import FORMAT_VERSION
from dimuq.errors import ConfigError, TrainingError
from dimuq.harness import Fractions, build_model, dual_mc_split

from helpers import central_difference


def scaled_fixture(n, noise, seed, train_fraction=0.8):
    data = synthetic_matrix(n, noise, seed)
    plan = dual_mc_split(n, Fractions(train_fraction, 1 - train_fraction, 0.0), seed, 0)
    train = data.take(plan.train)
    test = data.take(plan.test)
    scaler = fit_scaler(train)
    return apply_scaler(scaler, train), apply_scaler(scaler, test)


@functools.cache
def known_noise_head_fit():
    """The head network trained on a fixture of known noise 0.05, and that
    fixture's test side. Training takes ~20 s, so the tests that check the
    recovered noise share one fit per session."""
    train, test = scaled_fixture(2400, noise=0.05, seed=21)
    return train_head_model(train, HeadConfig(), epochs=4000, seed=5), test


def layer_arrays(model, names: str) -> list:
    """The arrays that the ``PARAMS`` or ``GRADS`` of the layers of ``model``
    name, in the order of the network's vectors: the first name of every
    layer, then the second, and so on."""
    layers = [layer for _, layer in model.named_layers()]
    depth = max(len(layer.PARAMS) for layer in layers)
    return [getattr(layer, getattr(layer, names)[i]) for i in range(depth)
            for layer in layers if i < len(layer.PARAMS)]


class TestElbo:
    def test_zero_kl_weight_reduces_to_nll(self):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((6, 4)), rng.standard_normal(6) * 0.1
        model = EnsembleNetwork(4, 3, seed=1)
        noise = model.draw_noise(np.random.default_rng(2))
        _, total, nll, kl = model.loss_and_grads(model.input_norm.batch_moments(X), noise, y,
                                                 kl_weight=0.0)
        assert total == nll
        assert kl > 0.0

    def test_posterior_pinned_to_prior_has_zero_kl(self):
        model = EnsembleNetwork(4, 3, seed=1)
        model.variational.mu_W[...] = 0.0
        model.variational.mu_b[...] = 0.0
        model.variational.rho_W[...] = softplus_inverse(1.0)
        model.variational.rho_b[...] = softplus_inverse(1.0)
        stddevs = model.variational.posterior_stddevs()
        assert model.variational.kl(stddevs) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_noise_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        X, y = rng.standard_normal((6, 5)), rng.standard_normal(6) * 0.1
        model = EnsembleNetwork(5, 4, seed=2)
        noise = model.draw_noise(np.random.default_rng(9))
        # the step train_ensemble_model runs each epoch, with its draw frozen
        moments = model.input_norm.batch_moments(X)

        def loss_of(flat):
            model.theta[...] = flat
            _, total, _, _ = model.loss_and_grads(moments, noise, y, kl_weight=0.05)
            return total

        flat0 = model.theta.copy()
        loss_of(flat0)
        analytic = model.gradient.copy()
        numeric = central_difference(loss_of, flat0, h=1e-6)
        # covers every trainable class: batch-norm gamma/beta, variational
        # mu/rho, and the output layer weights
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


class TestHeadNetworkGradients:
    def test_full_model_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        X, y = rng.standard_normal((6, 5)), rng.standard_normal(6) * 0.1
        model = HeadNetwork(5, (4, 3), seed=1)

        def loss_of(flat):
            model.theta[...] = flat
            _, total, nll, reg = model.loss_and_grads(X, y, kl_weight=0.01)
            assert total == nll + reg
            return total

        flat0 = model.theta.copy()
        loss_of(flat0)
        analytic = model.gradient.copy()
        numeric = central_difference(loss_of, flat0, h=1e-6)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_sigma_floor_keeps_stddev_positive(self):
        model = HeadNetwork(3, (2,), seed=0)
        model.output.W[...] = 0.0
        model.output.b[...] = np.array([0.0, -40.0])  # deeply negative raw scale
        head = model.infer(np.zeros((2, 3)))
        assert np.all(head.stddevs > 0)


def _gaussian_head_oracle(raw, y, prior_weight):
    """Mean NLL, output-prior penalty and the gradient with respect to the
    raw output, from the formulas; stddev = softplus(raw scale) + 1e-6."""
    m = y.size
    mu, scale = raw[:, 0], raw[:, 1]
    sigma = np.log1p(np.exp(-np.abs(scale))) + np.maximum(scale, 0.0) + 1e-6
    residual = mu - y
    nll = np.mean(0.5 * np.log(2 * np.pi * sigma ** 2) + residual ** 2 / (2 * sigma ** 2))
    penalty = prior_weight * np.mean(-np.log(sigma) + 0.5 * (sigma ** 2 + mu ** 2) - 0.5)
    d_mu = residual / sigma ** 2 / m + prior_weight * mu / m
    d_sigma = (1 / sigma - residual ** 2 / sigma ** 3) / m + prior_weight * (sigma - 1 / sigma) / m
    return nll, penalty, np.column_stack([d_mu, d_sigma / (1 + np.exp(-scale))])


def _batch_norm_oracle(a, bn):
    """Training-mode batch norm of ``a``: (xhat, 1/std, batch mean)."""
    inv_std = 1.0 / np.sqrt(a.var(axis=0) + bn.eps)
    return (a - a.mean(axis=0)) * inv_std, inv_std, a.mean(axis=0)


def _batch_norm_backward_oracle(dy, xhat, inv_std, bn):
    """(d input, d gamma, d beta) of a training-mode batch norm."""
    dxhat = dy * bn.gamma
    dx = inv_std * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
    return dx, (dy * xhat).sum(axis=0), dy.sum(axis=0)


def _vector_in_network_order(model, grads: dict) -> np.ndarray:
    """Concatenate per-layer gradient lists in the order of ``pack_layers``."""
    layers = [layer for _, layer in model.named_layers()]
    depth = max(len(layer.PARAMS) for layer in layers)
    return np.concatenate([grads[id(layer)][i].ravel() for i in range(depth)
                           for layer in layers if i < len(layer.PARAMS)])


def perturbed(model, seed):
    """``model`` with every parameter moved off its initial value, so that
    batch-norm scales, shifts and dense biases all matter."""
    model.theta[...] += 0.3 * np.random.default_rng(seed).standard_normal(model.theta.size)
    return model


class TestFusedStepsMatchUnfusedOracles:
    """The fused training passes against per-layer chains written out here,
    at the shapes the benchmark trains: 200 rows of 16 columns, a (24, 16, 8)
    head trunk and an 8-unit ensemble layer."""

    def fixture(self):
        rng = np.random.default_rng(17)
        return rng.standard_normal((200, 16)), 0.3 * rng.standard_normal(200)

    def test_head_step(self):
        X, y = self.fixture()
        model = perturbed(HeadNetwork(16, (24, 16, 8), seed=4), seed=5)
        kl_weight = 1.0 / 200
        grads, saved, running_means = {}, [], []
        h = X
        for dense, bn in model.hidden:
            xhat, inv_std, mean = _batch_norm_oracle(h @ dense.W + dense.b, bn)
            running_means.append(bn.momentum * bn.running_mean + (1 - bn.momentum) * mean)
            out = np.maximum(bn.gamma * xhat + bn.beta, 0.0)
            saved.append((h, xhat, inv_std, out))
            h = out
        raw = h @ model.output.W + model.output.b
        nll, penalty, d_raw = _gaussian_head_oracle(raw, y, kl_weight)
        grads[id(model.output)] = [h.T @ d_raw, d_raw.sum(axis=0)]
        upstream = d_raw @ model.output.W.T
        for (dense, bn), (h_in, xhat, inv_std, out) in zip(reversed(model.hidden),
                                                           reversed(saved)):
            da, dgamma, dbeta = _batch_norm_backward_oracle(upstream * (out > 0), xhat,
                                                            inv_std, bn)
            grads[id(bn)] = [dgamma, dbeta]
            grads[id(dense)] = [h_in.T @ da, da.sum(axis=0)]
            upstream = da @ dense.W.T
        expected = _vector_in_network_order(model, grads)

        _, total, got_nll, got_penalty = model.loss_and_grads(X, y, kl_weight)
        np.testing.assert_allclose([total, got_nll, got_penalty],
                                   [nll + penalty, nll, penalty], rtol=1e-10)
        # the dense biases' gradients are zero up to rounding
        np.testing.assert_allclose(model.gradient, expected, rtol=1e-10,
                                   atol=1e-10 * np.abs(expected).max())
        # the batch norm cancels a dense bias, but its running mean keeps it
        assert all(np.any(dense.b != 0.0) for dense, _ in model.hidden)
        for (_, bn), running_mean in zip(model.hidden, running_means):
            np.testing.assert_allclose(bn.running_mean, running_mean, rtol=1e-10, atol=1e-14)

    def test_ensemble_step(self):
        X, y = self.fixture()
        model = perturbed(EnsembleNetwork(16, 8, seed=4), seed=6)
        layer, bn, output = model.variational, model.input_norm, model.output
        noise = model.draw_noise(np.random.default_rng(7))
        kl_weight = 1.0 / 200
        xhat, _, _ = _batch_norm_oracle(X, bn)
        h = bn.gamma * xhat + bn.beta
        sigma_W = np.log1p(np.exp(-np.abs(layer.rho_W))) + np.maximum(layer.rho_W, 0.0)
        sigma_b = np.log1p(np.exp(-np.abs(layer.rho_b))) + np.maximum(layer.rho_b, 0.0)
        W = layer.mu_W + sigma_W * noise[0]
        b = layer.mu_b + sigma_b * noise[1]
        hidden = 1.0 / (1.0 + np.exp(-(h @ W + b)))
        raw = hidden @ output.W + output.b
        nll, _, d_raw = _gaussian_head_oracle(raw, y, 0.0)
        kl = sum(np.sum(-np.log(s) + 0.5 * (s ** 2 + mu ** 2) - 0.5)
                 for mu, s in ((layer.mu_W, sigma_W), (layer.mu_b, sigma_b)))
        dz = (d_raw @ output.W.T) * hidden * (1 - hidden)
        dW, db = h.T @ dz, dz.sum(axis=0)
        slope_W = 1.0 / (1.0 + np.exp(-layer.rho_W))
        slope_b = 1.0 / (1.0 + np.exp(-layer.rho_b))
        dh = dz @ W.T
        grads = {
            id(bn): [(dh * xhat).sum(axis=0), dh.sum(axis=0)],
            id(layer): [dW + kl_weight * layer.mu_W,
                        (dW * noise[0] + kl_weight * (sigma_W - 1 / sigma_W)) * slope_W,
                        db + kl_weight * layer.mu_b,
                        (db * noise[1] + kl_weight * (sigma_b - 1 / sigma_b)) * slope_b],
            id(output): [hidden.T @ d_raw, d_raw.sum(axis=0)],
        }
        expected = _vector_in_network_order(model, grads)

        _, total, got_nll, got_kl = model.loss_and_grads(bn.batch_moments(X), noise, y,
                                                         kl_weight)
        np.testing.assert_allclose([total, got_nll, got_kl],
                                   [nll + kl_weight * kl, nll, kl], rtol=1e-10)
        np.testing.assert_allclose(model.gradient, expected, rtol=1e-10)


class TestTraining:
    def test_head_model_recovers_known_noise(self):
        model, test = known_noise_head_fit()
        head = model.infer(test.features)
        assert 0.04 <= float(head.stddevs.mean()) <= 0.06

    def test_head_training_is_deterministic(self):
        train, _ = scaled_fixture(200, noise=0.05, seed=1)
        first = train_head_model(train, HeadConfig(), epochs=50, seed=3)
        second = train_head_model(train, HeadConfig(), epochs=50, seed=3)
        np.testing.assert_array_equal(first.theta, second.theta)

    def test_head_loss_trace_schema(self):
        train, _ = scaled_fixture(150, noise=0.05, seed=2)
        model = train_head_model(train, HeadConfig(), epochs=20, seed=0)
        assert len(model.loss_trace) == 20
        epoch, nll, reg, total = model.loss_trace[-1]
        assert epoch == 19
        assert total == pytest.approx(nll + reg)

    def test_zero_kl_weight_turns_the_output_prior_off(self):
        train, _ = scaled_fixture(150, noise=0.05, seed=2)
        model = train_head_model(train, HeadConfig(kl_weight=0.0), epochs=20, seed=0)
        for _, nll, penalty, total in model.loss_trace:
            assert penalty == 0.0
            assert total == nll

    def test_ensemble_training_is_deterministic(self):
        train, _ = scaled_fixture(200, noise=0.05, seed=4)
        first = train_ensemble_model(train, EnsembleConfig(), epochs=80, seed=7)
        second = train_ensemble_model(train, EnsembleConfig(), epochs=80, seed=7)
        np.testing.assert_array_equal(first.theta, second.theta)

    def test_huge_kl_weight_collapses_posterior_toward_prior(self):
        train, _ = scaled_fixture(200, noise=0.05, seed=5)
        model = train_ensemble_model(train, EnsembleConfig(kl_weight=1e6),
                                     epochs=400, seed=1)
        mean_mu = float(np.mean(np.abs(model.variational.mu_W)))
        assert mean_mu < 0.1

    def test_ensemble_loss_trace_records_kl(self):
        train, _ = scaled_fixture(150, noise=0.05, seed=6)
        model = train_ensemble_model(train, EnsembleConfig(), epochs=15, seed=2)
        epoch, nll, kl, total = model.loss_trace[-1]
        assert kl >= 0.0
        assert total == pytest.approx(nll + kl / train.n_rows, rel=1e-9)


class TestFlatParameters:
    @pytest.mark.parametrize("network, size", [(HeadNetwork, (4, 3)),
                                               (EnsembleNetwork, 4)])
    def test_params_and_grads_are_views_of_the_network_vectors(self, network, size):
        model = network(5, size, seed=1)
        assert all(np.shares_memory(p, model.theta) for p in layer_arrays(model, "PARAMS"))
        assert all(np.shares_memory(g, model.gradient) for g in layer_arrays(model, "GRADS"))
        np.testing.assert_array_equal(
            model.theta, np.concatenate([p.ravel() for p in layer_arrays(model, "PARAMS")]))
        assert model.gradient.size == model.theta.size

    @pytest.mark.parametrize("train, config", [(train_head_model, HeadConfig()),
                                               (train_ensemble_model, EnsembleConfig())])
    def test_training_keeps_the_views_bound(self, train, config):
        data, _ = scaled_fixture(120, noise=0.05, seed=14)
        model = train(data, config, epochs=5, seed=0)
        assert all(np.shares_memory(p, model.theta) for p in layer_arrays(model, "PARAMS"))
        assert all(np.shares_memory(g, model.gradient) for g in layer_arrays(model, "GRADS"))


class TestDivergence:
    @pytest.mark.parametrize("train, config", [
        (train_head_model, HeadConfig(learning_rate=1e300)),
        (train_ensemble_model, EnsembleConfig(learning_rate=1e300)),
    ], ids=["head", "ensemble"])
    def test_exploding_step_raises_training_error_with_epoch(self, train, config):
        data, _ = scaled_fixture(60, noise=0.05, seed=15)
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as caught:
            train(data, config, epochs=50, seed=0)
        assert caught.value.iteration is not None


class TestDiagnostics:
    @pytest.mark.parametrize("family, penalty", [("bnn_head", "regularizer"),
                                                 ("bnn_ensemble", "kl")])
    def test_final_loss_terms_from_the_trace(self, family, penalty):
        train, _ = scaled_fixture(80, noise=0.05, seed=16)
        model = build_model(family, {"epochs": 7}, seed=3).fit(train)
        epoch, nll, term, total = model.network.loss_trace[-1]
        assert model.diagnostics() == {"epochs": 7, "nll": nll, penalty: term,
                                       "total": total}


def test_sigmoid_matches_masked_reference_on_edge_values():
    def masked(x):
        out = np.empty_like(x)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return out

    tiny = np.finfo(np.float64).tiny
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, tiny / 2, -tiny / 2, 745.0, -745.0,
                      800.0, -800.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
    x = np.concatenate([edges, np.random.default_rng(0).normal(scale=30.0, size=100_000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected, actual = masked(x), sigmoid(x)
    np.testing.assert_array_equal(actual, expected)
    finite = ~np.isnan(x)
    assert np.array_equal(actual[finite].view(np.uint64), expected[finite].view(np.uint64))


class TestEnsemblePrediction:
    def test_draw_count_and_shapes(self):
        train, test = scaled_fixture(150, noise=0.05, seed=7)
        model = train_ensemble_model(train, EnsembleConfig(), epochs=50, seed=0)
        means, stddevs = ensemble_predict(model, test.features, n_draws=200, seed=1)
        assert means.shape == (200, test.n_rows)
        assert stddevs.shape == (200, test.n_rows)

    def test_single_draw_rejected(self):
        train, test = scaled_fixture(120, noise=0.05, seed=8)
        model = train_ensemble_model(train, EnsembleConfig(), epochs=20, seed=0)
        with pytest.raises(ConfigError):
            ensemble_predict(model, test.features, n_draws=1, seed=0)

    def test_collapsed_posterior_gives_zero_epistemic(self):
        train, test = scaled_fixture(120, noise=0.05, seed=9)
        model = train_ensemble_model(train, EnsembleConfig(), epochs=30, seed=0)
        model.variational.rho_W[...] = softplus_inverse(1e-12)
        model.variational.rho_b[...] = softplus_inverse(1e-12)
        _, _, epistemic = decompose_uncertainty(
            *ensemble_predict(model, test.features, n_draws=50, seed=3))
        np.testing.assert_allclose(epistemic, 0.0, atol=1e-9)

    def test_seed_stability_of_decomposition(self):
        train, test = scaled_fixture(400, noise=0.05, seed=10)
        model = train_ensemble_model(train, EnsembleConfig(), epochs=600, seed=0)
        _, first_aleatoric, first_epistemic = decompose_uncertainty(
            *ensemble_predict(model, test.features, n_draws=200, seed=100))
        _, second_aleatoric, second_epistemic = decompose_uncertainty(
            *ensemble_predict(model, test.features, n_draws=200, seed=200))
        assert first_aleatoric.mean() == pytest.approx(second_aleatoric.mean(), rel=0.10)
        assert first_epistemic.mean() == pytest.approx(second_epistemic.mean(), rel=0.10)

    def test_matches_per_draw_reference_bit_for_bit(self):
        train, test = scaled_fixture(120, noise=0.05, seed=14)
        model = train_ensemble_model(train, EnsembleConfig(), epochs=30, seed=0)
        means, stddevs = ensemble_predict(model, test.features, n_draws=6, seed=4)
        norm, layer, out = model.input_norm, model.variational, model.output
        for d in range(6):
            # one full inference pass per draw: normalize, sample, propagate
            eps_W, eps_b = model.draw_noise(
                np.random.default_rng(np.random.SeedSequence([4, d])))
            inv_std = 1.0 / np.sqrt(norm.running_var + norm.eps)
            h = norm.gamma * (test.features - norm.running_mean) * inv_std + norm.beta
            W = layer.mu_W + softplus(layer.rho_W) * eps_W
            b = layer.mu_b + softplus(layer.rho_b) * eps_b
            raw = sigmoid(h @ W + b) @ out.W + out.b
            assert np.array_equal(means[d], raw[:, 0])
            assert np.array_equal(stddevs[d], softplus(raw[:, 1]) + 1e-6)

    def test_mixture_mean_is_mean_of_draw_means(self):
        rng = np.random.default_rng(11)
        means = rng.normal(size=(40, 7))
        stddevs = rng.uniform(0.01, 0.2, size=(40, 7))
        mixture, _, _ = decompose_uncertainty(means, stddevs)
        np.testing.assert_allclose(mixture, means.mean(axis=0), rtol=1e-12)


class TestDecomposition:
    def test_two_draw_hand_example(self):
        _, aleatoric, epistemic = decompose_uncertainty(np.array([[0.0], [1.0]]),
                                                        np.array([[1.0], [2.0]]))
        assert aleatoric[0] == pytest.approx(np.sqrt(2.5), abs=1e-12)
        assert epistemic[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_equal_means_zero_epistemic(self):
        _, _, epistemic = decompose_uncertainty(np.full((5, 3), 0.4), np.full((5, 3), 0.1))
        np.testing.assert_array_equal(epistemic, 0.0)

    def test_constant_sigma_recovers_it(self):
        _, aleatoric, _ = decompose_uncertainty(np.random.default_rng(0).normal(size=(6, 2)),
                                                np.full((6, 2), 0.07))
        np.testing.assert_allclose(aleatoric, 0.07, rtol=1e-12)

    def test_sum_of_squares_exceeds_mixture_variance_by_the_ddof(self):
        rng = np.random.default_rng(1)
        means = rng.normal(size=(30, 9))
        stddevs = rng.uniform(0.01, 0.5, size=(30, 9))
        mixture, aleatoric, epistemic = decompose_uncertainty(means, stddevs)
        between = means.var(axis=0)  # the mixture's ddof=0 part
        mixture_variance = (stddevs ** 2 + means ** 2).mean(axis=0) - mixture ** 2
        np.testing.assert_allclose(aleatoric ** 2 + epistemic ** 2,
                                   mixture_variance + between / 29, rtol=1e-12)


class TestSnapshots:
    def test_head_round_trip(self, tmp_path):
        train, test = scaled_fixture(150, noise=0.05, seed=12)
        model = train_head_model(train, HeadConfig(), epochs=30, seed=1)
        path = tmp_path / "head.npz"
        save_snapshot(model, path)
        restored = load_snapshot(path)
        first = model.infer(test.features)
        second = restored.infer(test.features)
        np.testing.assert_array_equal(first.means, second.means)
        np.testing.assert_array_equal(first.stddevs, second.stddevs)

    def test_ensemble_round_trip(self, tmp_path):
        train, test = scaled_fixture(150, noise=0.05, seed=13)
        model = train_ensemble_model(train, EnsembleConfig(), epochs=30, seed=1)
        path = tmp_path / "ensemble.npz"
        save_snapshot(model, path)
        restored = load_snapshot(path)
        original = ensemble_predict(model, test.features, n_draws=20, seed=5)
        reloaded = ensemble_predict(restored, test.features, n_draws=20, seed=5)
        np.testing.assert_array_equal(original[0], reloaded[0])
        np.testing.assert_array_equal(original[1], reloaded[1])

    def test_archive_keys_and_version_unchanged(self, tmp_path):
        train, _ = scaled_fixture(100, noise=0.05, seed=17)
        head = train_head_model(train, HeadConfig(hidden_sizes=(4, 3)), epochs=5, seed=1)
        ensemble = train_ensemble_model(train, EnsembleConfig(), epochs=5, seed=1)
        common = {"format_version", "model_kind", "n_inputs", "out_W", "out_b"}
        expected = {
            "head": common | {"hidden_sizes"} | {
                f"{kind}{i}_{name}" for i in range(2) for kind, name in (
                    ("dense", "W"), ("dense", "b"), ("bn", "gamma"), ("bn", "beta"),
                    ("bn", "running_mean"), ("bn", "running_var"))},
            "ensemble": common | {"n_units", "bn_gamma", "bn_beta", "bn_running_mean",
                                  "bn_running_var", "mu_W", "rho_W", "mu_b", "rho_b"},
        }
        assert FORMAT_VERSION == 1
        for kind, model in (("head", head), ("ensemble", ensemble)):
            path = tmp_path / f"{kind}.npz"
            save_snapshot(model, path)
            with np.load(path) as archive:
                assert set(archive.files) == expected[kind]
                assert int(archive["format_version"]) == FORMAT_VERSION
            restored = load_snapshot(path)
            np.testing.assert_array_equal(restored.theta, model.theta)
            assert all(np.shares_memory(p, restored.theta)
                       for p in layer_arrays(restored, "PARAMS"))


def test_softplus_matches_reference():
    x = np.linspace(-30, 30, 200)
    np.testing.assert_allclose(softplus(x), np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0),
                               rtol=1e-12)
