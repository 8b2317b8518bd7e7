"""Objective and gradients: likelihood, KL, reparametrized derivatives."""

import numpy as np
import pytest
from scipy import stats

from conftest import ALL_FAMILIES, make_batch, make_state
from slabnn.distributions import kl_bernoulli, kl_gaussian
from slabnn.elbo import (Batch, elbo_estimate, elbo_gradient, forward,
                         hyperprior_logdensity, kl_state)
from slabnn.errors import DomainError, NumericError, ShapeError
from slabnn.model import Family, PriorConfig, sample_network
from slabnn.numkernel import RngStream, sigmoid


class TestBatch:
    def test_validation(self):
        with pytest.raises(ShapeError):
            Batch(np.zeros(4), np.zeros(4, dtype=int), 4)
        with pytest.raises(ShapeError):
            Batch(np.zeros((4, 2)), np.zeros(3, dtype=int), 4)
        with pytest.raises(DomainError):
            Batch(np.zeros((4, 2)), np.array([0, 0, -1, 0]), 4)
        with pytest.raises(DomainError):
            Batch(np.zeros((4, 2)), np.zeros(4, dtype=int), 3)


class TestLikelihood:
    def test_zero_network_gives_uniform_loglik(self):
        # kappa = 0 with a frozen slab makes every logit zero, so each
        # observation scores exactly -ln(n_classes).
        st = make_state(widths=(4, 3, 3), prior=PriorConfig(fixed_dense=True))
        for lp in st.layers:
            lp.kappa[...] = 0.0
            lp.rho[...] = -40.0
        st.bump_version()
        batch = make_batch(n=6, p=4, classes=3)
        net = sample_network(st, 0.1, "relaxed", RngStream(0, 2))
        loglik, _ = forward(net, batch)
        np.testing.assert_allclose(loglik, -np.log(3.0), atol=1e-12)

    def test_single_layer_score_matches_softmax_regression(self):
        # With indicators pinned on and the slab frozen at kappa, the
        # kappa gradient must equal the multinomial logistic score
        # scale * X_ext^T (onehot - probs) minus the Gaussian KL pull.
        st = make_state(widths=(3, 2), prior=PriorConfig(fixed_dense=True), seed=5)
        st.layers[0].rho[...] = -40.0
        st.bump_version()
        batch = make_batch(n=12, p=3, classes=2, seed=4)
        value, grads = elbo_gradient(st, batch, 1, 0.1, RngStream(6, 2))
        kappa = st.layers[0].kappa
        x_ext = np.hstack([np.ones((12, 1)), batch.features])
        logits = x_ext @ kappa
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        onehot = np.eye(2)[batch.labels]
        score = x_ext.T @ (onehot - probs)
        expected = score - kappa / st.layers[0].sigma2()
        np.testing.assert_allclose(grads.get(0, "kappa"), expected, atol=1e-9)


def _fd_check(family, rank, phase, kl_mode, seed=17, h=1e-5, rtol=1e-4):
    """Central differences over every differentiated parameter entry."""
    st = make_state(family, rank, seed=seed, widths=(3, 2, 2))
    batch = make_batch(n=6, p=3, classes=2, seed=seed + 1)
    include_h = phase == "pretrain"

    def objective():
        return elbo_estimate(st, batch, 1, 0.1, RngStream(seed, 2),
                             kl_mode=kl_mode, include_hyperprior=include_h)

    value, bundle = elbo_gradient(st, batch, 1, 0.1, RngStream(seed, 2),
                                  phase=phase, kl_mode=kl_mode)
    est = elbo_estimate(st, batch, 1, 0.1, RngStream(seed, 2), kl_mode=kl_mode)
    assert abs(value - est) < 1e-9 * (1 + abs(est))
    worst = 0.0
    for l, name, grad in bundle.items():
        if grad is None:
            continue
        arr = getattr(st.layers[l], name)
        flat_g = grad.reshape(-1)
        flat_a = arr.reshape(-1)
        for i in range(flat_a.size):
            keep = flat_a[i]
            flat_a[i] = keep + h
            f_plus = objective()
            flat_a[i] = keep - h
            f_minus = objective()
            flat_a[i] = keep
            fd = (f_plus - f_minus) / (2 * h)
            err = abs(flat_g[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    assert worst < rtol, f"{family} {phase} {kl_mode}: worst rel err {worst:.2e}"


class TestGradientAgainstFiniteDifferences:
    @pytest.mark.parametrize("family,rank", ALL_FAMILIES)
    def test_train_phase_analytic(self, family, rank):
        _fd_check(family, rank, "train", "analytic")

    def test_pretrain_includes_prior_parameters(self):
        _fd_check(Family.MF, 0, "pretrain", "analytic")

    def test_pretrain_correlated_family(self):
        _fd_check(Family.MVN_LOWRANK, 2, "pretrain", "analytic")

    def test_sampled_kl_mode(self):
        _fd_check(Family.MF, 0, "train", "sampled")

    def test_fixed_masks_freeze_structure(self):
        st = make_state(seed=7, widths=(3, 2, 2))
        masks = [np.ones(lp.shape) for lp in st.layers]
        masks[0][1, 0] = 0.0
        batch = make_batch(n=6, p=3, classes=2, seed=8)
        _, bundle = elbo_gradient(st, batch, 1, 0.1, RngStream(1, 2),
                                  fixed_masks=masks)
        assert bundle.get(0, "omega") is None
        assert bundle.get(0, "kappa") is not None


class TestKl:
    def test_fixed_dense_reduces_to_gaussian_sum(self):
        st = make_state(seed=9, prior=PriorConfig(fixed_dense=True, sigma2=1.3))
        expected = sum(
            float(np.sum(kl_gaussian(lp.kappa, lp.tau(), 1.3)))
            for lp in st.layers
        )
        np.testing.assert_allclose(kl_state(st), expected, rtol=1e-12)

    def test_mf_analytic_matches_term_sum(self):
        st = make_state(seed=10)
        st.layers[0].omega[...] = 0.7
        st.bump_version()
        expected = 0.0
        for lp in st.layers:
            alpha = sigmoid(lp.omega)
            expected += float(np.sum(kl_bernoulli(alpha, lp.psi())))
            expected += float(np.sum(alpha * kl_gaussian(lp.kappa, lp.tau(),
                                                         lp.sigma2())))
        np.testing.assert_allclose(kl_state(st), expected, rtol=1e-12)

    def test_sampled_mode_is_unbiased_for_analytic(self):
        st = make_state(seed=12, widths=(3, 2, 2))
        st.layers[0].omega[...] = 0.6
        st.bump_version()
        analytic = kl_state(st)
        rng = RngStream(30, 2)
        n = 20_000
        draws = np.empty(n)
        for i in range(n):
            net = sample_network(st, 0.1, "relaxed", rng)
            draws[i] = kl_state(st, net, mode="sampled")
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - analytic) < 3.5 * se

    def test_correlated_family_needs_sample(self):
        st = make_state(Family.MVN_FULL)
        with pytest.raises(DomainError):
            kl_state(st)
        net = sample_network(st, 0.1, "relaxed", RngStream(0, 2))
        assert np.isfinite(kl_state(st, net))

    def test_mode_validated(self):
        with pytest.raises(DomainError):
            kl_state(make_state(), mode="exact")


class TestHyperprior:
    def test_matches_scipy_densities(self):
        st = make_state(seed=14, widths=(3, 2, 2))
        for lp, (s2, psi) in zip(st.layers, [(0.8, 0.3), (1.4, 0.6)]):
            lp.log_sigma2[...] = np.log(s2)
            lp.logit_psi[...] = np.log(psi / (1 - psi))
            lp.a_beta[...] = 2.0
            lp.b_beta[...] = 3.0
            lp.a_psi[...] = 1.5
            lp.b_psi[...] = 2.5
        st.bump_version()
        expected = 0.0
        for lp in st.layers:
            expected += stats.invgamma.logpdf(lp.sigma2(), 2.0, scale=3.0)
            expected += stats.beta.logpdf(lp.psi(), 1.5, 2.5)
        np.testing.assert_allclose(hyperprior_logdensity(st), expected, rtol=1e-10)

    def test_flag_adds_exactly_the_density(self):
        st = make_state(seed=15)
        batch = make_batch(seed=16)
        base = elbo_estimate(st, batch, 1, 0.1, RngStream(2, 2))
        with_h = elbo_estimate(st, batch, 1, 0.1, RngStream(2, 2),
                               include_hyperprior=True)
        np.testing.assert_allclose(with_h - base, hyperprior_logdensity(st),
                                   rtol=1e-9)


class TestSaturatedPriorsRaiseNumericError:
    """Prior values that training can reach must fail as NumericError.

    The trainer rolls back on NumericError only; a DomainError from a
    checked kernel would turn a recoverable blow-up into a hard abort.
    """

    FAMILIES = [(Family.MF, 0), (Family.MVN_FULL, 0), (Family.MVN_LOWRANK, 2)]

    @staticmethod
    def _state(family, rank, name, value):
        st = make_state(family, rank, seed=31, widths=(3, 2, 2))
        for lp in st.layers:
            getattr(lp, name)[...] = value
        st.bump_version()
        return st

    @pytest.mark.parametrize("name,value", [("logit_psi", 40.0), ("log_sigma2", -800.0)])
    @pytest.mark.parametrize("phase", ["train", "pretrain"])
    @pytest.mark.parametrize("family,rank", FAMILIES)
    def test_gradient(self, family, rank, phase, name, value):
        st = self._state(family, rank, name, value)
        with pytest.raises(NumericError):
            elbo_gradient(st, make_batch(n=6, p=3), 1, 0.1, RngStream(3, 2),
                          phase=phase)

    @pytest.mark.parametrize("name,value", [("logit_psi", 40.0), ("log_sigma2", -800.0)])
    @pytest.mark.parametrize("family,rank", FAMILIES)
    def test_estimate_with_hyperprior(self, family, rank, name, value):
        st = self._state(family, rank, name, value)
        with pytest.raises(NumericError):
            elbo_estimate(st, make_batch(n=6, p=3), 1, 0.1, RngStream(3, 2),
                          include_hyperprior=True)


class TestEstimatorIdentities:
    def test_minibatch_partition_identity(self):
        # Equal-size batches sharing the sampled network average to the
        # full-batch value exactly: the (N / batch) upweighting cancels.
        st = make_state(seed=18, widths=(4, 3, 2))
        feats, labels = make_batch(n=12, p=4, classes=2, seed=19).features, None
        batch_full = make_batch(n=12, p=4, classes=2, seed=19)
        full = elbo_estimate(st, batch_full, 1, 0.1, RngStream(9, 2))
        parts = []
        for k in range(3):
            sl = slice(4 * k, 4 * (k + 1))
            b = Batch(batch_full.features[sl], batch_full.labels[sl], n_total=12)
            parts.append(elbo_estimate(st, b, 1, 0.1, RngStream(9, 2)))
        np.testing.assert_allclose(np.mean(parts), full, rtol=1e-12, atol=1e-10)

    def test_doubling_draws_averages_successive_estimates(self):
        st = make_state(seed=20)
        batch = make_batch(seed=21)
        rng = RngStream(11, 2)
        v1 = elbo_estimate(st, batch, 1, 0.1, rng)
        v2 = elbo_estimate(st, batch, 1, 0.1, rng)
        both = elbo_estimate(st, batch, 2, 0.1, RngStream(11, 2))
        assert both == (v1 + v2) / 2.0

    def test_rescaling_n_total_scales_likelihood_part(self):
        st = make_state(seed=22)
        b1 = make_batch(n=8, p=4, classes=2, seed=23, n_total=8)
        b2 = Batch(b1.features, b1.labels, n_total=16)
        kl = kl_state(st)
        e1 = elbo_estimate(st, b1, 1, 0.1, RngStream(13, 2))
        e2 = elbo_estimate(st, b2, 1, 0.1, RngStream(13, 2))
        np.testing.assert_allclose(e2 + kl, 2.0 * (e1 + kl), rtol=1e-10)

    def test_shape_and_label_checks(self):
        st = make_state()
        with pytest.raises(ShapeError):
            elbo_estimate(st, make_batch(n=4, p=5), 1, 0.1, RngStream(0, 2))
        bad = Batch(np.zeros((4, 4)), np.array([0, 1, 2, 0]), 4)
        with pytest.raises(DomainError):
            elbo_estimate(st, bad, 1, 0.1, RngStream(0, 2))
        with pytest.raises(DomainError):
            elbo_estimate(st, make_batch(), 0, 0.1, RngStream(0, 2))
        with pytest.raises(DomainError):
            elbo_gradient(st, make_batch(), 1, 0.1, RngStream(0, 2), phase="warm")
