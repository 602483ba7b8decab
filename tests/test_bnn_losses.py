import numpy as np
import pytest

from dimuq.bnn.losses import gaussian_nll, standard_normal_kl

from helpers import central_difference, kl_diag_gaussians


class TestNll:
    def test_zero_residual_unit_sigma(self):
        y = np.array([0.3, -0.2, 1.1])
        value = gaussian_nll(y, np.ones(3), y)[0]
        assert value == pytest.approx(0.5 * np.log(2 * np.pi), rel=1e-12)

    def test_widening_sigma_away_from_optimum_increases_loss(self):
        targets = np.zeros(4)
        means = np.full(4, 0.1)  # fixed residual 0.1
        at_optimum = gaussian_nll(means, np.full(4, 0.1), targets)[0]
        doubled = gaussian_nll(means, np.full(4, 0.2), targets)[0]
        assert doubled > at_optimum

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        means = rng.normal(size=5)
        raw = rng.normal(size=5)  # parameterize sigma > 0 via exp
        targets = rng.normal(size=5)

        _, d_mean, d_std = gaussian_nll(means, np.exp(raw), targets)
        numeric_mean = central_difference(
            lambda m: gaussian_nll(m, np.exp(raw), targets)[0], means, h=1e-6)
        numeric_raw = central_difference(
            lambda r: gaussian_nll(means, np.exp(r), targets)[0], raw, h=1e-6)
        np.testing.assert_allclose(d_mean, numeric_mean, rtol=1e-5, atol=1e-10)
        np.testing.assert_allclose(d_std * np.exp(raw), numeric_raw, rtol=1e-5, atol=1e-10)


class TestKlDiagGaussians:
    def test_identical_distributions_zero(self):
        assert kl_diag_gaussians([0.0], [1.0], [0.0], [1.0]) == 0.0

    def test_shifted_unit_gaussian(self):
        assert kl_diag_gaussians([1.0], [1.0], [0.0], [1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_widened_gaussian(self):
        expected = np.log(0.5) + 2.0 - 0.5
        assert kl_diag_gaussians([0.0], [2.0], [0.0], [1.0]) == pytest.approx(
            expected, abs=1e-12)

    def test_sums_over_parameters(self):
        single = kl_diag_gaussians([1.0], [1.0], [0.0], [1.0])
        double = kl_diag_gaussians([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_nonnegative_on_random_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            mu_q, mu_p = rng.normal(size=2, scale=3)
            sigma_q, sigma_p = rng.uniform(0.05, 5.0, size=2)
            value = kl_diag_gaussians([mu_q], [sigma_q], [mu_p], [sigma_p])
            assert value >= -1e-12

    def test_zero_only_when_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mu = rng.normal()
            sigma = rng.uniform(0.1, 3.0)
            assert kl_diag_gaussians([mu], [sigma], [mu], [sigma]) == pytest.approx(
                0.0, abs=1e-12)
            perturbed = kl_diag_gaussians([mu + 0.1], [sigma], [mu], [sigma])
            assert perturbed > 1e-6

    def test_standard_normal_terms_sum_to_the_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            mu = rng.normal(size=5)
            sigma = rng.uniform(0.05, 3.0, size=5)
            terms = standard_normal_kl(mu, sigma)
            assert terms.shape == (5,)
            assert float(terms.sum()) == pytest.approx(
                kl_diag_gaussians(mu, sigma, np.zeros(5), np.ones(5)), abs=1e-12)

    def test_monte_carlo_agreement(self):
        # independent oracle: estimate E_q[log q - log p] by sampling
        rng = np.random.default_rng(3)
        mu_q, sigma_q, mu_p, sigma_p = 0.7, 1.4, -0.2, 0.9
        draws = mu_q + sigma_q * rng.standard_normal(400_000)

        def log_pdf(x, mu, sigma):
            return -0.5 * np.log(2 * np.pi * sigma ** 2) - (x - mu) ** 2 / (2 * sigma ** 2)

        estimate = float(np.mean(log_pdf(draws, mu_q, sigma_q)
                                 - log_pdf(draws, mu_p, sigma_p)))
        exact = kl_diag_gaussians([mu_q], [sigma_q], [mu_p], [sigma_p])
        assert exact == pytest.approx(estimate, abs=0.02)
