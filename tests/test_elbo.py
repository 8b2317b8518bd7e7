"""Objective and gradients: likelihood, KL, reparametrized derivatives."""

import numpy as np
import pytest
from scipy import stats

from conftest import ALL_FAMILIES, make_batch, make_state
from slabnn.distributions import kl_bernoulli, kl_gaussian
from slabnn.elbo import (Batch, elbo_estimate, elbo_gradient, forward, forward_logits,
                         hyperprior_logdensity, kl_state)
from slabnn.errors import DomainError, NumericError, ShapeError
from slabnn.model import Family, PriorConfig, draw_noise, sample_network
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


def _fd_check(family, rank, phase, kl_mode, seed=17, h=1e-5, rtol=1e-4,
              prior=None, activations=None, fixed_masks=None):
    """Central differences over every differentiated parameter entry."""
    st = make_state(family, rank, seed=seed, widths=(3, 2, 2), prior=prior,
                    activations=activations)
    batch = make_batch(n=6, p=3, classes=2, seed=seed + 1)
    include_h = phase == "pretrain"

    def objective():
        return elbo_estimate(st, batch, 1, 0.1, RngStream(seed, 2),
                             kl_mode=kl_mode, include_hyperprior=include_h,
                             fixed_masks=fixed_masks)

    value, bundle = elbo_gradient(st, batch, 1, 0.1, RngStream(seed, 2),
                                  phase=phase, kl_mode=kl_mode, fixed_masks=fixed_masks)
    est = elbo_estimate(st, batch, 1, 0.1, RngStream(seed, 2), kl_mode=kl_mode,
                        fixed_masks=fixed_masks)
    assert value == est
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

    @pytest.mark.parametrize("family,rank", [(Family.MF, 0), (Family.MVN_FULL, 0),
                                             (Family.MVN_LOWRANK, 2)])
    def test_pretrain_sampled_kl_mode(self, family, rank):
        _fd_check(family, rank, "pretrain", "sampled")

    @pytest.mark.parametrize("kl_mode", ["analytic", "sampled"])
    def test_fixed_mask(self, kl_mode):
        masks = [np.ones((4, 2)), np.ones((3, 2))]
        masks[0][1, 0] = masks[1][2, 1] = 0.0
        _fd_check(Family.MF, 0, "pretrain", kl_mode, fixed_masks=masks)

    def test_identity_activation(self):
        _fd_check(Family.MF, 0, "train", "analytic", activations=("identity",))

    def test_fixed_dense_pretrain(self):
        _fd_check(Family.MF, 0, "pretrain", "analytic", prior=PriorConfig(fixed_dense=True))

    def test_fixed_masks_freeze_structure(self):
        st = make_state(seed=7, widths=(3, 2, 2))
        masks = [np.ones(lp.shape) for lp in st.layers]
        masks[0][1, 0] = 0.0
        batch = make_batch(n=6, p=3, classes=2, seed=8)
        _, bundle = elbo_gradient(st, batch, 1, 0.1, RngStream(1, 2),
                                  fixed_masks=masks)
        assert bundle.get(0, "omega") is None
        assert bundle.get(0, "kappa") is not None

    @pytest.mark.parametrize("family,rank", ALL_FAMILIES)
    @pytest.mark.parametrize("kl_mode", ["analytic", "sampled"])
    def test_posttrain_leaves_structure_undifferentiated(self, family, rank, kl_mode):
        # Posttrain freezes every structure group, so a drawn network's
        # structure entries stay None; the value, the slab gradients and
        # the stream position are the train phase's.
        st = make_state(family, rank, seed=9, widths=(3, 4, 2))
        batch = make_batch(n=6, p=3, classes=2, seed=10)
        post_rng, train_rng = RngStream(12, 2), RngStream(12, 2)
        value, post = elbo_gradient(st, batch, 2, 0.1, post_rng, phase="posttrain",
                                    kl_mode=kl_mode)
        want, train = elbo_gradient(st, batch, 2, 0.1, train_rng, kl_mode=kl_mode)
        assert value == want
        assert np.array_equal(post_rng.state_words(), train_rng.state_words())
        for l, name, g in post.items():
            if name in ("kappa", "rho"):
                assert g.tobytes() == train.get(l, name).tobytes(), f"{l}/{name}"
            else:
                assert g is None, f"{l}/{name}"


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

    def test_gradient_value_is_the_estimate(self):
        # One draw loop: the same sum in the same order, so == holds,
        # for every family, KL mode and draw count, drawn or fixed.
        masks = [np.ones((4, 4)), np.ones((5, 2))]
        masks[0][1, 0] = masks[1][2, 1] = 0.0
        batch = make_batch(n=6, p=3, classes=2, seed=41, n_total=600)
        differ = []
        for family, rank in ALL_FAMILIES:
            for seed in range(40, 44):
                st = make_state(family, rank, seed=seed, widths=(3, 4, 2))
                for fixed in (None, masks):
                    for kl_mode in ("analytic", "sampled"):
                        for M in (1, 2, 3):
                            value, _ = elbo_gradient(st, batch, M, 0.1, RngStream(seed, 2),
                                                     kl_mode=kl_mode, fixed_masks=fixed)
                            est = elbo_estimate(st, batch, M, 0.1, RngStream(seed, 2),
                                                kl_mode=kl_mode, fixed_masks=fixed)
                            if value != est:
                                differ.append((family.value, rank, seed, fixed is None,
                                               kl_mode, M))
        assert differ == []

    def test_pre_drawn_noise_gives_the_gradient_bytes(self):
        # M draw_noise results, drawn ahead on the same stream, stand in for
        # the draws: value and every gradient entry keep their bytes.
        masks = [np.ones((4, 4)), np.ones((5, 2))]
        masks[0][1, 0] = 0.0
        batch = make_batch(n=6, p=3, classes=2, seed=42, n_total=600)
        for family, rank in ALL_FAMILIES:
            st = make_state(family, rank, seed=45, widths=(3, 4, 2))
            for fixed, kept in ((None, None), (masks, [np.flatnonzero(masks[0]), None])):
                rng = RngStream(46, 2)
                value, grads = elbo_gradient(st, batch, 2, 0.1, rng, fixed_masks=fixed)
                ahead = RngStream(46, 2)
                noise = [draw_noise(st, ahead, kept) for _ in range(2)]
                got, got_grads = elbo_gradient(st, batch, 2, 0.1, None, fixed_masks=fixed,
                                               noise=noise)
                assert got == value
                for (_, _, a), (_, _, b) in zip(grads.items(), got_grads.items()):
                    assert (a is None and b is None) or a.tobytes() == b.tobytes()
                assert ahead.state_words().tobytes() == rng.state_words().tobytes()
                with pytest.raises(ShapeError, match="M = 3"):
                    elbo_gradient(st, batch, 3, 0.1, None, fixed_masks=fixed, noise=noise)

    def test_refused_kl_mode_draws_nothing(self):
        rng = RngStream(4, 2)
        words = rng.state_words()
        for call in (elbo_estimate, elbo_gradient):
            with pytest.raises(DomainError, match="kl mode"):
                call(make_state(), make_batch(), 1, 0.1, rng, kl_mode="exact")
            assert np.array_equal(rng.state_words(), words), call.__name__

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
        with pytest.raises(ShapeError):
            elbo_gradient(st, make_batch(n=4, p=5), 1, 0.1, RngStream(0, 2))
        with pytest.raises(DomainError):
            elbo_gradient(st, bad, 1, 0.1, RngStream(0, 2))

    @pytest.mark.parametrize("t", [0, 1])
    def test_non_finite_activations_name_their_transition(self, t):
        sampled = sample_network(make_state(), 0.1, "relaxed", RngStream(0, 2))
        sampled.layers[t].effective[0, 0] = np.inf  # a bias: every row's pre-activation
        with pytest.raises(NumericError, match=f"^non-finite activations at transition {t}$"):
            forward_logits(sampled, make_batch().features)
