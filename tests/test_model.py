"""Network state: shapes, initialization, sampling, inclusion summaries."""

import numpy as np
import pytest

from conftest import ALL_FAMILIES, make_state
from slabnn.distributions import MVN_BLOCK_ELEMENTS
from slabnn.errors import ConfigError, DomainError, ShapeError
from slabnn.model import (Family, NetworkSpec, PriorConfig, init_state,
                          marginal_inclusion, median_model,
                          posterior_mean_weights, sample_network)
from slabnn.numkernel import RngStream, sigmoid, softplus_inv


class TestNetworkSpec:
    def test_shapes_include_bias_row(self):
        spec = NetworkSpec((4, 2, 3, 2))
        assert spec.n_transitions == 3
        assert spec.n_classes == 2
        assert [spec.weight_shape(l) for l in range(3)] == [(5, 2), (3, 3), (4, 2)]
        assert [spec.n_weights(l) for l in range(3)] == [10, 9, 8]

    def test_no_bias_variant(self):
        spec = NetworkSpec((4, 3), include_bias=False)
        assert spec.weight_shape(0) == (4, 3)

    def test_default_activations_are_relu(self):
        spec = NetworkSpec((4, 2, 3, 2))
        assert spec.activations == ("relu", "relu")
        assert NetworkSpec((4, 2)).activations == ()

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkSpec((4,))
        with pytest.raises(ConfigError):
            NetworkSpec((4, 0, 2))
        with pytest.raises(ConfigError):
            NetworkSpec((4, 3, 2), activations=("tanh",))
        with pytest.raises(ConfigError):
            NetworkSpec((4, 3, 2), activations=("relu", "relu"))


class TestInit:
    def test_lowrank_parameter_shapes(self):
        st = make_state(Family.MVN_LOWRANK, rank=2, widths=(4, 2, 3, 2))
        assert [lp.xi.shape for lp in st.layers] == [(10,), (9,), (8,)]
        assert [lp.factor.shape for lp in st.layers] == [(10, 2), (9, 2), (8, 2)]
        assert [lp.log_diag.shape for lp in st.layers] == [(10,), (9,), (8,)]

    def test_inclusion_starts_at_half(self):
        for family, rank in ALL_FAMILIES:
            st = make_state(family, rank)
            alpha = marginal_inclusion(st, n_mc=4000, rng=RngStream(0, 9))
            for a in alpha:
                # exactly 1/2 for MF (omega zero); MC-close for MVN
                assert np.all(np.abs(a - 0.5) < 0.05)

    def test_tau_starts_at_init_value(self):
        st = make_state(init_tau=0.07)
        for lp in st.layers:
            np.testing.assert_allclose(lp.tau(), 0.07, atol=1e-12)

    def test_kappa_scale_tracks_fan_in(self):
        spec = NetworkSpec((400, 100, 2))
        st = init_state(spec, PriorConfig(), Family.MF, RngStream(0, 0))
        sd0 = st.layers[0].kappa.std()
        assert abs(sd0 - 1.0 / np.sqrt(400)) < 0.005
        sd1 = st.layers[1].kappa.std()
        assert abs(sd1 - 1.0 / np.sqrt(100)) < 0.02

    def test_full_family_cap(self):
        spec = NetworkSpec((200, 100, 2))  # 201*100 weights > 10000
        with pytest.raises(ConfigError):
            init_state(spec, PriorConfig(), Family.MVN_FULL, RngStream(0, 0))

    def test_prior_values_must_sit_in_hyperprior_support(self):
        with pytest.raises(ConfigError):
            PriorConfig(sigma2=-1.0)
        with pytest.raises(ConfigError):
            PriorConfig(psi=1.0)

    def test_lowrank_rank_zero_is_diagonal(self):
        st = make_state(Family.MVN_LOWRANK, rank=0)
        assert st.layers[0].factor.shape == (15, 0)


class TestSampleNetwork:
    def test_effective_is_product_exactly(self):
        for family, rank in ALL_FAMILIES:
            st = make_state(family, rank)
            net = sample_network(st, 0.1, "relaxed", RngStream(5, 2))
            for ls in net.layers:
                np.testing.assert_array_equal(ls.effective, ls.gamma_tilde * ls.beta)

    def test_modes_validated(self):
        st = make_state()
        with pytest.raises(DomainError):
            sample_network(st, 0.1, "soft", RngStream(0, 0))
        with pytest.raises(DomainError):
            sample_network(st, 0.0, "relaxed", RngStream(0, 0))
        # hard mode ignores delta entirely
        sample_network(st, 0.0, "hard", RngStream(0, 0))

    def test_hard_equals_rounded_relaxed(self):
        # 1[nu < alpha] = round(concrete) for any temperature: both
        # indicators cross 1/2 exactly where nu crosses alpha.
        for family, rank in ALL_FAMILIES:
            st = make_state(family, rank, seed=11)
            for delta in (0.01, 0.1, 0.7):
                hard = sample_network(st, delta, "hard", RngStream(3, 4))
                relaxed = sample_network(st, delta, "relaxed", RngStream(3, 4))
                for h, r in zip(hard.layers, relaxed.layers):
                    np.testing.assert_array_equal(
                        h.gamma_tilde, np.rint(r.gamma_tilde))

    def test_hard_frequency_matches_alpha(self):
        st = make_state(seed=2)
        st.layers[0].omega[...] = 1.2  # alpha = sigmoid(1.2)
        st.bump_version()
        rng = RngStream(8, 0)
        n = 4000
        count = np.zeros(st.layers[0].shape)
        for _ in range(n):
            net = sample_network(st, 0.1, "hard", rng)
            count += net.layers[0].gamma_tilde
        alpha = sigmoid(1.2)
        se = np.sqrt(alpha * (1 - alpha) / n)
        assert np.all(np.abs(count / n - alpha) < 4 * se)

    def test_fixed_dense_forces_all_ones(self):
        for family, rank in ALL_FAMILIES:
            st = make_state(family, rank, prior=PriorConfig(fixed_dense=True))
            net = sample_network(st, 0.1, "relaxed", RngStream(1, 1))
            for ls in net.layers:
                np.testing.assert_array_equal(ls.gamma_tilde, np.ones(ls.beta.shape))
                assert ls.fixed_indicators

    def test_fixed_masks_condition_sampling(self):
        st = make_state()
        masks = [np.zeros(lp.shape) for lp in st.layers]
        masks[0][0, 0] = 1.0
        net = sample_network(st, 0.1, "relaxed", RngStream(2, 2), fixed_masks=masks)
        assert net.layers[0].gamma_tilde[0, 0] == 1.0
        assert np.sum(net.layers[0].effective != 0.0) <= 1
        np.testing.assert_array_equal(net.layers[1].effective, 0.0)

    def test_fixed_masks_shape_checked(self):
        st = make_state()
        with pytest.raises(ShapeError):
            sample_network(st, 0.1, "hard", RngStream(0, 0),
                           fixed_masks=[np.ones((2, 2)), np.ones((2, 2))])

    def test_rho_at_minus_forty_pins_beta_to_kappa(self):
        st = make_state()
        for lp in st.layers:
            lp.rho[...] = -40.0  # tau = softplus(-40) ~ 4e-18
        st.bump_version()
        net = sample_network(st, 0.1, "hard", RngStream(9, 9))
        for ls, lp in zip(net.layers, st.layers):
            np.testing.assert_allclose(ls.beta, lp.kappa, atol=1e-15)

    def test_slab_draw_is_affine(self):
        st = make_state()
        lp = st.layers[0]
        lp.kappa[...] = 1.5
        lp.rho[...] = softplus_inv(0.5)
        st.bump_version()
        ls = sample_network(st, 0.1, "relaxed", RngStream(4, 2)).layers[0]
        np.testing.assert_allclose(ls.beta, 1.5 + 0.5 * ls.eps, atol=1e-15)

    def test_underflowed_lowrank_diagonal_still_samples(self):
        # exp(-800) is 0.0, which training can reach: the draw stays valid.
        st = make_state(Family.MVN_LOWRANK, 0)
        st.layers[1].log_diag[...] = -800.0
        st.bump_version()
        ls = sample_network(st, 0.1, "relaxed", RngStream(4, 2)).layers[1]
        np.testing.assert_array_equal(ls.logits.reshape(-1), st.layers[1].xi)

    def test_same_stream_reproduces_draw_for_draw(self):
        for family, rank in ALL_FAMILIES:
            st = make_state(family, rank)
            a = sample_network(st, 0.1, "relaxed", RngStream(7, 3))
            b = sample_network(st, 0.1, "relaxed", RngStream(7, 3))
            for la, lb in zip(a.layers, b.layers):
                np.testing.assert_array_equal(la.effective, lb.effective)


class TestInclusionSummaries:
    def test_mf_marginals_are_exact(self):
        st = make_state()
        st.layers[1].omega[...] = 0.8
        st.bump_version()
        alpha = marginal_inclusion(st)
        np.testing.assert_allclose(alpha[1], sigmoid(0.8), atol=1e-15)

    def test_mvn_needs_rng(self):
        st = make_state(Family.MVN_FULL)
        with pytest.raises(DomainError):
            marginal_inclusion(st)

    def test_mvn_symmetric_case_is_half(self):
        # xi = 0 keeps the logit distribution symmetric around zero, so
        # the marginal is exactly 1/2 regardless of the covariance.
        st = make_state(Family.MVN_FULL, seed=4)
        st.layers[0].chol_raw[np.diag_indices(15)] = 2.0
        st.bump_version()
        alpha = marginal_inclusion(st, n_mc=20_000, rng=RngStream(1, 5))
        assert np.all(np.abs(alpha[0] - 0.5) < 0.02)

    def test_mvn_tiny_noise_approaches_sigmoid_xi(self):
        st = make_state(Family.MVN_LOWRANK, rank=0, seed=6)
        lp = st.layers[0]
        lp.xi[...] = np.linspace(-2.0, 2.0, lp.xi.size)
        lp.log_diag[...] = np.log(1e-12)
        st.bump_version()
        alpha = marginal_inclusion(st, n_mc=50, rng=RngStream(2, 6))
        np.testing.assert_allclose(alpha[0].reshape(-1), sigmoid(lp.xi), atol=1e-5)

    def test_cache_hit_and_invalidation(self):
        st = make_state(Family.MVN_FULL)
        a1 = marginal_inclusion(st, n_mc=500, rng=RngStream(3, 7))
        a2 = marginal_inclusion(st, n_mc=500, rng=RngStream(3, 7))
        for x, y in zip(a1, a2):
            np.testing.assert_array_equal(x, y)
        st.layers[0].xi += 1.0
        st.bump_version()
        a3 = marginal_inclusion(st, n_mc=500, rng=RngStream(3, 7))
        assert not np.allclose(a1[0], a3[0])

    def test_cache_keys_on_stream_position(self):
        st = make_state(Family.MVN_FULL)
        marginal_inclusion(st, n_mc=50, rng=RngStream(3, 7))  # warm from the start
        moved = RngStream(3, 7)
        moved.std_normal(5)
        got = marginal_inclusion(st, n_mc=50, rng=moved)
        ref = RngStream(3, 7)
        ref.std_normal(5)
        want = marginal_inclusion(st.copy(), n_mc=50, rng=ref)  # copies start uncached
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(moved.state_words(), ref.state_words())

    def test_cache_hit_leaves_stream_where_a_miss_would(self):
        st = make_state(Family.MVN_LOWRANK, 2)
        miss = RngStream(3, 7)
        a1 = marginal_inclusion(st, n_mc=50, rng=miss)
        hit = RngStream(3, 7)

        def no_draw(n):
            raise AssertionError("a cache hit must not draw")

        hit.std_normal = hit.uniform = no_draw
        a2 = marginal_inclusion(st, n_mc=50, rng=hit)
        for x, y in zip(a1, a2):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(hit.state_words(), miss.state_words())

    def test_median_model_strict_threshold(self):
        st = make_state()
        st.layers[0].omega[...] = 0.0  # alpha exactly 1/2
        st.layers[1].omega[...] = 0.2
        st.bump_version()
        masks = median_model(st)
        np.testing.assert_array_equal(masks[0], 0.0)
        np.testing.assert_array_equal(masks[1], 1.0)

    def test_posterior_mean_weights(self):
        st = make_state()
        st.layers[0].omega[...] = -0.4
        st.bump_version()
        weights = posterior_mean_weights(st)
        np.testing.assert_allclose(
            weights[0], sigmoid(-0.4) * st.layers[0].kappa, atol=1e-15)

    def test_fixed_dense_summaries_are_ones(self):
        st = make_state(prior=PriorConfig(fixed_dense=True))
        for a in marginal_inclusion(st):
            np.testing.assert_array_equal(a, 1.0)
        for m in median_model(st):
            np.testing.assert_array_equal(m, 1.0)


def _random_mvn_state(family, rank, widths, seed=11):
    """A correlated-family state with every logit parameter off its init value."""
    st = make_state(family, rank, seed=seed, widths=widths)
    gen = np.random.default_rng(seed)
    for lp in st.layers:
        lp.xi[...] = gen.normal(size=lp.xi.size)
        if family is Family.MVN_FULL:
            lp.chol_raw[...] = np.tril(0.05 * gen.normal(size=lp.chol_raw.shape))
            lp.chol_raw[np.diag_indices(lp.n_weights)] += softplus_inv(0.8)
        else:
            lp.log_diag[...] = gen.normal(scale=0.3, size=lp.n_weights)
    st.bump_version()
    return st


def _loop_marginal_inclusion(state, n_mc, rng):
    """Reference estimator: one logit draw at a time, layer after layer."""
    out = []
    for lp in state.layers:
        chol = lp.chol() if state.family is Family.MVN_FULL else None
        acc = np.zeros(lp.n_weights)
        for _ in range(n_mc):
            if chol is not None:
                logits = lp.xi + chol @ rng.std_normal(lp.n_weights)
            else:
                logits = lp.xi.copy()
                if lp.rank > 0:
                    logits += lp.factor @ rng.std_normal(lp.rank)
                logits += np.sqrt(lp.diag()) * rng.std_normal(lp.n_weights)
            acc += sigmoid(logits)
        out.append((acc / n_mc).reshape(lp.shape))
    return out


class TestBatchedMonteCarlo:
    """The block-drawn Monte Carlo against the draw-by-draw definition."""

    @pytest.mark.parametrize("family,rank,widths", [
        (Family.MVN_FULL, 0, (30, 15, 2)),
        (Family.MVN_LOWRANK, 0, (30, 15, 2)),
        (Family.MVN_LOWRANK, 4, (30, 15, 2)),
        # layer 0 holds (B // 100 + 2) * 100 > B weights, B the block budget
        (Family.MVN_LOWRANK, 4, (MVN_BLOCK_ELEMENTS // 100 + 1, 100, 2)),
    ])
    def test_marginal_inclusion_matches_loop(self, family, rank, widths):
        st = _random_mvn_state(family, rank, widths)
        # two full blocks and a remainder on layer 0
        block_rows = max(1, MVN_BLOCK_ELEMENTS // (st.layers[0].n_weights + rank))
        n_mc = 2 * block_rows + 3
        batched, looped = RngStream(4, 9), RngStream(4, 9)
        got = marginal_inclusion(st, n_mc=n_mc, rng=batched)
        want = _loop_marginal_inclusion(st, n_mc, looped)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(batched.state_words(), looped.state_words())

    @pytest.mark.parametrize("family,rank", [
        (Family.MVN_FULL, 0), (Family.MVN_LOWRANK, 0), (Family.MVN_LOWRANK, 4),
    ])
    def test_sample_network_logits_match_single_draw(self, family, rank):
        st = _random_mvn_state(family, rank, (30, 15, 2))
        net = sample_network(st, 0.1, "relaxed", RngStream(5, 8))
        ref = RngStream(5, 8)
        for lp, ls in zip(st.layers, net.layers):
            if family is Family.MVN_FULL:
                eps = ref.std_normal(lp.n_weights)
                np.testing.assert_array_equal(ls.eps_full, eps)
                expected = lp.xi + lp.chol() @ eps
            else:
                expected = lp.xi.copy()
                if rank > 0:
                    eps1 = ref.std_normal(rank)
                    np.testing.assert_array_equal(ls.eps_factor, eps1)
                    expected += lp.factor @ eps1
                else:
                    assert ls.eps_factor is None
                eps2 = ref.std_normal(lp.n_weights)
                np.testing.assert_array_equal(ls.eps_diag, eps2)
                expected += np.sqrt(lp.diag()) * eps2
            np.testing.assert_array_equal(ls.logits.reshape(-1), expected)
            ref.uniform(lp.n_weights)     # nu
            ref.std_normal(lp.n_weights)  # slab eps


class TestLayerParams:
    def test_chol_frozen_value(self):
        st = make_state(Family.MVN_FULL, widths=(1, 1))
        lp = st.layers[0]
        lp.chol_raw[...] = [[softplus_inv(2.0), 7.0], [1.0, softplus_inv(2.0)]]
        np.testing.assert_allclose(lp.chol(), [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)


class TestStateCopy:
    def test_copy_then_mutate_is_isolated(self):
        st = make_state()
        snap = st.copy()
        st.layers[0].kappa += 1.0
        assert not np.allclose(st.layers[0].kappa, snap.layers[0].kappa)
        st.restore_from(snap)
        np.testing.assert_array_equal(st.layers[0].kappa, snap.layers[0].kappa)

    def test_param_items_covers_family_params(self):
        names_mf = {n for _, n, _ in make_state().param_items()}
        assert "omega" in names_mf and "xi" not in names_mf
        names_lr = {n for _, n, _ in make_state(Family.MVN_LOWRANK, 2).param_items()}
        assert {"xi", "factor", "log_diag"} <= names_lr
        names_full = {n for _, n, _ in make_state(Family.MVN_FULL).param_items()}
        assert "chol_raw" in names_full
