"""Spike-and-slab building blocks: reparametrizations, divergences, densities."""

import numpy as np
import pytest

from slabnn.distributions import (HyperParams, concrete_from_logits, kl_bernoulli,
                                  kl_gaussian, logit_normal_mean, logpdf_beta,
                                  logpdf_inv_gamma)
from scipy import integrate
from scipy.special import expit

from slabnn.errors import DomainError
from slabnn.numkernel import RngStream, logit, sigmoid

LN2 = 0.6931471805599453


class TestConcrete:
    def test_frozen_value(self):
        # logit 0, nu 1/4, delta 1/2: sigmoid(2 ln 3) = 9/10
        out = concrete_from_logits(logit(np.array([0.5])), np.array([0.25]), 0.5)
        np.testing.assert_allclose(out, [0.9], atol=1e-12)

    def test_nu_equal_alpha_gives_half(self):
        # the kernel is sigmoid((logit a - logit nu) / delta)
        out = concrete_from_logits(logit(np.array([0.7])), np.array([0.7]), 0.3)
        np.testing.assert_allclose(out, [0.5], atol=1e-12)

    def test_low_temperature_approaches_indicator(self):
        nu = np.array([0.2, 0.9])
        alpha = np.array([0.6, 0.6])
        out = concrete_from_logits(logit(alpha), nu, 1e-3)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_monotone_in_alpha(self):
        nu = np.full(5, 0.35)
        alphas = np.linspace(0.1, 0.9, 5)
        out = concrete_from_logits(logit(alphas), nu, 0.4)
        assert np.all(np.diff(out) > 0.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            concrete_from_logits(np.array([0.0]), np.array([0.0]), 0.1)
        with pytest.raises(DomainError):
            concrete_from_logits(np.array([0.0]), np.array([0.5]), 0.0)

    def test_logit_kernel_survives_saturated_alpha(self):
        # sigmoid(40) rounds to 1.0; the logit-space kernel must not care
        out = concrete_from_logits(np.array([40.0]), np.array([0.5]), 0.1)
        np.testing.assert_allclose(out, [1.0], atol=1e-12)

    def test_derivative_wrt_logits(self):
        rng = RngStream(1, 0)
        nu = rng.uniform(50)
        la = np.linspace(-3.0, 3.0, 50)
        delta = 0.2
        h = 1e-6
        num = (concrete_from_logits(la + h, nu, delta)
               - concrete_from_logits(la - h, nu, delta)) / (2 * h)
        g = concrete_from_logits(la, nu, delta)
        np.testing.assert_allclose(num, g * (1.0 - g) / delta, atol=1e-7)

    def test_mean_approaches_alpha_at_low_temperature(self):
        # E[gamma_tilde] -> alpha as delta -> 0 (hard limit is Bern(alpha))
        rng = RngStream(11, 0)
        nu = rng.uniform(200_000)
        for alpha in (0.1, 0.5, 0.9):
            g = concrete_from_logits(logit(np.full_like(nu, alpha)), nu, 0.01)
            se = np.sqrt(alpha * (1 - alpha) / nu.size)
            assert abs(g.mean() - alpha) < 0.003 + 5 * se


class TestKl:
    def test_gaussian_frozen_value(self):
        assert kl_gaussian(0.0, 2.0, 1.0) == pytest.approx(0.8068528194400547, abs=1e-15)

    def test_gaussian_zero_at_match(self):
        assert kl_gaussian(0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_nonnegative(self):
        gen = np.random.default_rng(3)
        kappa = gen.normal(size=200)
        tau = np.exp(gen.normal(size=200))
        s2 = np.exp(gen.normal(size=200))
        assert np.all(kl_gaussian(kappa, tau, s2) >= 0.0)

    def test_gaussian_monte_carlo_identity(self):
        # KL = E_q[log q - log p] under q = N(kappa, tau^2)
        kappa, tau, s2 = 0.7, 0.6, 2.3
        z = kappa + tau * RngStream(5, 0).std_normal(400_000)
        log_q = -0.5 * np.log(2 * np.pi) - np.log(tau) - (z - kappa) ** 2 / (2 * tau**2)
        log_p = -0.5 * np.log(2 * np.pi * s2) - z**2 / (2 * s2)
        mc = np.mean(log_q - log_p)
        se = np.std(log_q - log_p) / np.sqrt(z.size)
        assert abs(mc - kl_gaussian(kappa, tau, s2)) < 4 * se

    def test_bernoulli_frozen_values(self):
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(LN2, abs=1e-15)
        assert kl_bernoulli(0.0, 0.25) == pytest.approx(0.28768207245178085, abs=1e-15)
        assert kl_bernoulli(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_bernoulli_closed_endpoints_allowed_for_alpha_only(self):
        assert np.isfinite(kl_bernoulli(0.0, 0.5))
        assert np.isfinite(kl_bernoulli(1.0, 0.1))
        with pytest.raises(DomainError):
            kl_bernoulli(0.5, 0.0)
        with pytest.raises(DomainError):
            kl_bernoulli(0.5, 1.0)


class TestLogDensities:
    def test_inv_gamma_frozen_value(self):
        assert logpdf_inv_gamma(1.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_inv_gamma_matches_reference_implementation(self):
        from scipy import stats
        xs = np.array([0.05, 0.3, 1.0, 2.7, 15.0])
        for a, b in [(2.0, 1.5), (0.5, 0.5), (4.0, 2.0)]:
            ours = logpdf_inv_gamma(xs, a, b)
            ref = stats.invgamma.logpdf(xs, a, scale=b)
            np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_beta_frozen_value(self):
        assert logpdf_beta(0.25, 2.0, 2.0) == pytest.approx(0.11778303565638346, abs=1e-15)

    def test_beta_matches_reference_implementation(self):
        from scipy import stats
        xs = np.array([0.03, 0.25, 0.5, 0.92])
        for a, b in [(2.0, 2.0), (0.5, 1.5), (5.0, 1.0)]:
            np.testing.assert_allclose(
                logpdf_beta(xs, a, b), stats.beta.logpdf(xs, a, b), atol=1e-12)

    def test_beta_uniform_case(self):
        assert logpdf_beta(0.77, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            logpdf_inv_gamma(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            logpdf_beta(1.5, 2.0, 2.0)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                HyperParams(a_beta=bad)
            with pytest.raises(DomainError):
                HyperParams(b_psi=bad)


def _quad_logit_normal_mean(mean, sd):
    """Adaptive reference: integrate sigmoid(mean + sd z) against N(0, 1) on |z| <= 40.

    Breakpoints around the sigmoid's step at z = -mean / sd let ``quad``
    resolve it even when sd is large.
    """
    def f(z):
        return expit(mean + sd * z) * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)

    points = None
    if sd > 0.0:
        offsets = np.array([-40.0, -10.0, -3.0, -1.0, 0.0, 1.0, 3.0, 10.0, 40.0])
        p = (offsets - mean) / sd
        p = p[np.abs(p) < 40.0]
        points = list(p) if p.size else None
    return integrate.quad(f, -40.0, 40.0, points=points, epsabs=1e-13, epsrel=1e-13,
                          limit=2000)[0]


class TestLogitNormalMean:
    MEANS = (-30.0, -5.0, -0.3, 0.0, 0.3, 5.0, 30.0)
    SDS = (0.0, 1e-8, 1e-3, 0.5, 0.999, 1.0, 1.001, 3.0, 50.0, 1e3)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_matches_adaptive_quadrature(self):
        m, s = np.meshgrid(self.MEANS, self.SDS, indexing="ij")
        got = logit_normal_mean(m, s)
        want = np.vectorize(_quad_logit_normal_mean)(m, s)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_zero_mean_is_exactly_half(self):
        sds = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 200)])
        np.testing.assert_array_equal(logit_normal_mean(np.zeros(sds.size), sds), 0.5)

    def test_zero_sd_is_the_sigmoid(self):
        m = np.linspace(-20.0, 20.0, 81)
        np.testing.assert_allclose(logit_normal_mean(m, 0.0), sigmoid(m),
                                   rtol=0, atol=1e-15)

    def test_broadcast_scalar_and_domain(self):
        assert isinstance(logit_normal_mean(0.7, 2.0), float)
        out = logit_normal_mean(np.array([[0.5], [-0.5]]), np.array([0.2, 4.0]))
        assert out.shape == (2, 2)
        # odd in the mean: E sigmoid(-l) = 1 - E sigmoid(l)
        np.testing.assert_allclose(out[0] + out[1], 1.0, rtol=0, atol=1e-15)
        with pytest.raises(DomainError):
            logit_normal_mean(0.0, -1e-3)
        with pytest.raises(DomainError):
            logit_normal_mean(0.0, np.nan)
