"""Network state: shapes, initialization, sampling, inclusion summaries."""

import numpy as np
import pytest

from conftest import ALL_FAMILIES, make_state
from slabnn import model
from slabnn.distributions import logit_normal_mean
from slabnn.elbo import GradientBundle
from slabnn.errors import ConfigError, DomainError, ShapeError
from slabnn.model import (BLOCK_VALUES, GROUPS, Family, LayerParams, NetworkSpec,
                          PriorConfig, _layer_consts, draw_noise, family_problems,
                          init_state, marginal_inclusion, median_model, pack_lower,
                          posterior_mean_weights, sample_network, unpack_lower)
from slabnn.numkernel import RngStream, sigmoid, softplus, softplus_inv
from slabnn.trainer import AdamMoments, adam_step


class TestNetworkSpec:
    def test_shapes_include_bias_row(self):
        spec = NetworkSpec((4, 2, 3, 2))
        assert spec.n_transitions == 3
        assert spec.n_classes == 2
        assert [spec.weight_shape(l) for l in range(3)] == [(5, 2), (3, 3), (4, 2)]
        assert [spec.n_weights(l) for l in range(3)] == [10, 9, 8]

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
        # omega or xi starts at zero, and the quadrature is exactly 1/2 there
        for family, rank in ALL_FAMILIES:
            for a in marginal_inclusion(make_state(family, rank)):
                np.testing.assert_array_equal(a, 0.5)

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
        # 100001 * 100 weights: the Cholesky factor alone is 8e14 bytes
        spec = NetworkSpec((100_000, 100, 2))
        with pytest.raises(ConfigError, match="bytes"):
            init_state(spec, PriorConfig(), Family.MVN_FULL, RngStream(0, 0))

    def test_full_family_byte_estimate(self, monkeypatch):
        # One 3x2 layer, n_w = 6: kappa, rho, xi (6 each), the packed
        # chol_raw (21) and six scalars make 45 entries.  Five copies,
        # three temporaries of the largest (21) and the dense 6x6 factor:
        # 8 * (5 * 45 + 3 * 21 + 36) = 2592 bytes.
        st = make_state(Family.MVN_FULL, widths=(2, 2))
        assert st.layers[0].chol_raw.shape == (21,)
        message = ("widths: the mvn_full parameters and a step's arrays need about "
                   "2592 bytes, over the 2591 bytes of physical memory")
        for have, expected in ((2592, []), (2591, [message])):
            monkeypatch.setattr("slabnn.model.os.sysconf",
                                {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}.get)
            assert family_problems(Family.MVN_FULL, 0, st.spec) == expected

    def test_prior_values_must_sit_in_hyperprior_support(self):
        for sigma2 in (-1.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                PriorConfig(sigma2=sigma2)
        for psi in (1.0, np.nan):
            with pytest.raises(ConfigError):
                PriorConfig(psi=psi)

    def test_init_tau_must_be_finite_and_positive(self):
        for tau in (0.0, np.nan, np.inf, 1e155, 1e308):
            with pytest.raises(DomainError):
                make_state(init_tau=tau)
        assert make_state(init_tau=1e150).layers[0].tau()[0, 0] == 1e150

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
                assert ls.logits is None

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

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan, np.inf])
    def test_fixed_masks_hold_only_zero_and_one(self, bad):
        st = make_state()
        masks = [np.ones(lp.shape) for lp in st.layers]
        masks[1][1, 0] = bad
        with pytest.raises(DomainError, match="layer 1"):
            sample_network(st, 0.1, "hard", RngStream(0, 0), fixed_masks=masks)
        # -0.0 is 0: the weight is dropped.
        masks[1][1, 0] = -0.0
        net = sample_network(st, 0.1, "hard", RngStream(0, 0), fixed_masks=masks)
        assert net.layers[1].effective[1, 0] == 0.0

    def test_fixed_draw_reads_kept_normals_only(self):
        # A med/sim replicate: one std_normal(n_kept) per layer, whose
        # values fill the kept positions in row-major order.
        st = _median_state()
        masks = median_model(st)
        rng = RngStream(4, 1000)
        net = sample_network(st, 0.0, "hard", rng, fixed_masks=masks)
        n_kept = [int(np.count_nonzero(m)) for m in masks]
        assert 0 < n_kept[0] < st.layers[0].n_weights
        ref = RngStream(4, 1000)
        draws = ref.std_normal(sum(n_kept))
        assert rng.state_words().tobytes() == ref.state_words().tobytes()
        kept_eps = np.concatenate([ls.eps[m != 0.0] for ls, m in zip(net.layers, masks)])
        assert kept_eps.tobytes() == draws.tobytes()

    def test_fixed_draw_dropped_weights_are_zero(self):
        st = _median_state()
        masks = median_model(st)
        net = sample_network(st, 0.0, "hard", RngStream(4, 1001), fixed_masks=masks)
        for ls, lp, m in zip(net.layers, st.layers, masks):
            kept = m != 0.0
            assert ls.alpha is ls.gamma_tilde
            assert ls.gamma_tilde.tobytes() == m.tobytes()
            assert np.all(ls.eps[~kept] == 0.0) and np.all(ls.effective[~kept] == 0.0)
            expected = lp.kappa[kept] + lp.tau()[kept] * ls.eps[kept]
            assert ls.effective[kept].tobytes() == expected.tobytes()

    def test_fixed_dense_draws_every_slab(self):
        # Guard: an all-ones mask reads std_normal(n_w) per layer, as a
        # drawn layer's slab does.
        for family, rank in ALL_FAMILIES:
            st = make_state(family, rank, prior=PriorConfig(fixed_dense=True), seed=9)
            rng, ref = RngStream(6, 3), RngStream(6, 3)
            net = sample_network(st, 0.1, "relaxed", rng)
            for ls, lp in zip(net.layers, st.layers):
                eps = ref.std_normal(lp.n_weights).reshape(lp.shape)
                assert ls.eps.tobytes() == eps.tobytes()
                assert ls.effective.tobytes() == (1.0 * (lp.kappa + lp.tau() * eps)).tobytes()
            assert rng.state_words().tobytes() == ref.state_words().tobytes()

    def test_rho_at_minus_forty_pins_beta_to_kappa(self):
        st = make_state()
        for lp in st.layers:
            lp.rho[...] = -40.0  # tau = softplus(-40) ~ 4e-18
        net = sample_network(st, 0.1, "hard", RngStream(9, 9))
        for ls, lp in zip(net.layers, st.layers):
            np.testing.assert_allclose(ls.beta, lp.kappa, atol=1e-15)

    def test_slab_draw_is_affine(self):
        st = make_state()
        lp = st.layers[0]
        lp.kappa[...] = 1.5
        lp.rho[...] = softplus_inv(0.5)
        ls = sample_network(st, 0.1, "relaxed", RngStream(4, 2)).layers[0]
        np.testing.assert_allclose(ls.beta, 1.5 + 0.5 * ls.eps, atol=1e-15)

    def test_underflowed_lowrank_diagonal_still_samples(self):
        # exp(-800) is 0.0, which training can reach: the draw stays valid.
        st = make_state(Family.MVN_LOWRANK, 0)
        st.layers[1].log_diag[...] = -800.0
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
        alpha = marginal_inclusion(st)
        np.testing.assert_allclose(alpha[1], sigmoid(0.8), atol=1e-15)

    def test_mvn_needs_no_rng(self):
        for family, rank in ALL_FAMILIES[1:]:
            st = _random_mvn_state(family, rank, (4, 3, 2))
            rng = RngStream(3, 7)
            seeded = marginal_inclusion(st, n_mc=50, rng=rng)
            for a, b in zip(marginal_inclusion(st), seeded):
                np.testing.assert_array_equal(a, b)
            # nothing was drawn
            np.testing.assert_array_equal(rng.state_words(),
                                          RngStream(3, 7).state_words())

    def test_mvn_symmetric_case_is_half(self):
        # A zero logit mean keeps the logit distribution symmetric around
        # zero, so the marginal is exactly 1/2 regardless of the covariance.
        for family, rank in ALL_FAMILIES:
            st = make_state(family, rank, seed=4)
            if family is Family.MVN_FULL:
                square = unpack_lower(st.layers[0].chol_raw)
                square[np.diag_indices(15)] = 2.0
                st.layers[0].chol_raw[...] = pack_lower(square)
                st.layers[1].chol_raw[...] = pack_lower(np.tril(np.full((8, 8), 0.3)))
            elif family is Family.MVN_LOWRANK:
                for lp in st.layers:
                    lp.factor *= 20.0
                    lp.log_diag[...] = np.linspace(-9.0, 5.0, lp.n_weights)
            for a in marginal_inclusion(st):
                np.testing.assert_array_equal(a, 0.5)

    def test_mvn_tiny_noise_approaches_sigmoid_xi(self):
        st = make_state(Family.MVN_LOWRANK, rank=0, seed=6)
        lp = st.layers[0]
        lp.xi[...] = np.linspace(-2.0, 2.0, lp.xi.size)
        lp.log_diag[...] = np.log(1e-12)
        alpha = marginal_inclusion(st, n_mc=50, rng=RngStream(2, 6))
        np.testing.assert_allclose(alpha[0].reshape(-1), sigmoid(lp.xi), atol=1e-5)

    def test_alpha_follows_in_place_edit(self):
        # Nothing may serve alpha from before an in-place edit.
        st = make_state(Family.MVN_FULL)
        a1 = marginal_inclusion(st, n_mc=500, rng=RngStream(3, 7))
        lp = st.layers[0]
        lp.xi += 1.0
        a2 = marginal_inclusion(st, n_mc=500, rng=RngStream(3, 7))
        assert np.all(a2[0] > a1[0])
        np.testing.assert_array_equal(
            a2[0], logit_normal_mean(lp.xi, lp.logit_sd()).reshape(lp.shape))
        np.testing.assert_array_equal(a2[1], a1[1])

    def test_median_model_strict_threshold(self):
        st = make_state()
        st.layers[0].omega[...] = 0.0  # alpha exactly 1/2
        st.layers[1].omega[...] = 0.2
        masks = median_model(st)
        np.testing.assert_array_equal(masks[0], 0.0)
        np.testing.assert_array_equal(masks[1], 1.0)

    def test_posterior_mean_weights(self):
        st = make_state()
        st.layers[0].omega[...] = -0.4
        weights = posterior_mean_weights(st)
        np.testing.assert_allclose(
            weights[0], sigmoid(-0.4) * st.layers[0].kappa, atol=1e-15)

    def test_fixed_dense_summaries_are_ones(self):
        st = make_state(prior=PriorConfig(fixed_dense=True))
        for a in marginal_inclusion(st):
            np.testing.assert_array_equal(a, 1.0)
        for m in median_model(st):
            np.testing.assert_array_equal(m, 1.0)


CORRELATED = [(Family.MVN_FULL, 0), (Family.MVN_LOWRANK, 0), (Family.MVN_LOWRANK, 2)]


def _counted(monkeypatch, name):
    """Calls of ``model.<name>`` from here on, one entry per call."""
    calls = []
    fn = getattr(model, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(model, name, counting)
    return calls


def _structure(lp) -> list:
    """The structure arrays a correlated layer's alpha_hat is computed from."""
    names = ("xi", "chol_raw") if lp.family is Family.MVN_FULL else ("xi", "factor", "log_diag")
    return [getattr(lp, name).reshape(-1) for name in names if getattr(lp, name).size]


def _fresh(lp) -> bytes:
    return logit_normal_mean(lp.xi, lp.logit_sd()).reshape(lp.shape).tobytes()


class TestInclusionReuse:
    """A correlated layer reuses alpha_hat while its structure keeps its bytes."""

    @pytest.mark.parametrize("family, rank", CORRELATED)
    def test_hit_is_a_fresh_computation(self, family, rank, monkeypatch):
        st = _random_mvn_state(family, rank, (4, 3, 2))
        first = marginal_inclusion(st)
        calls = _counted(monkeypatch, "logit_normal_mean")
        again = marginal_inclusion(st)
        assert calls == []
        fresh = marginal_inclusion(st.copy())
        assert len(calls) == st.n_transitions
        for a, b, c in zip(first, again, fresh):
            assert a.tobytes() == b.tobytes() == c.tobytes()

    @pytest.mark.parametrize("family, rank", CORRELATED)
    def test_every_changed_byte_recomputes(self, family, rank, monkeypatch):
        st = _random_mvn_state(family, rank, (4, 3, 2))
        lp = st.layers[0]
        calls = _counted(monkeypatch, "logit_normal_mean")
        lp.inclusion()
        edits = []
        for arr in _structure(lp):
            edits += [(arr, np.nextafter(arr[1], np.inf)), (arr, 0.0), (arr, -0.0)]
        for arr, value in edits:
            arr[1] = value
            before = len(calls)
            assert lp.inclusion().tobytes() == _fresh(lp)
            assert len(calls) == before + 1
            assert lp.inclusion().tobytes() == _fresh(lp)
            assert len(calls) == before + 1

    @pytest.mark.parametrize("family, rank", CORRELATED)
    def test_restore_from_recomputes(self, family, rank, monkeypatch):
        st = _random_mvn_state(family, rank, (4, 3, 2))
        snap = st.copy()
        st.layers[0].xi[0] = np.nextafter(st.layers[0].xi[0], np.inf)
        marginal_inclusion(st)
        calls = _counted(monkeypatch, "logit_normal_mean")
        st.restore_from(snap)
        alpha = marginal_inclusion(st)
        assert len(calls) == 1  # layer 1 kept its bytes
        for a, b in zip(alpha, marginal_inclusion(snap)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("family, rank", CORRELATED)
    @pytest.mark.parametrize("group, recomputes", [("weights", False), ("xi", True),
                                                   ("cov", True)])
    def test_adam_step_recomputes_when_the_structure_moves(self, family, rank, group,
                                                           recomputes, monkeypatch):
        st = _random_mvn_state(family, rank, (4, 3, 2))
        marginal_inclusion(st)
        grads = GradientBundle(st, GROUPS)
        for _, _, g in grads.items():
            g[...] = 0.1
        calls = _counted(monkeypatch, "logit_normal_mean")
        adam_step(st, grads, AdamMoments(), {group: 0.01})
        alpha = marginal_inclusion(st)
        assert len(calls) == (st.n_transitions if recomputes else 0)
        for a, lp in zip(alpha, st.layers):
            assert a.tobytes() == _fresh(lp)

    @pytest.mark.parametrize("family, rank", CORRELATED)
    def test_returned_alpha_is_the_callers(self, family, rank):
        lp = _random_mvn_state(family, rank, (4, 3, 2)).layers[0]
        computed = lp.inclusion()
        computed[...] = 7.0
        reused = lp.inclusion()
        assert reused.tobytes() == _fresh(lp)
        reused[...] = 7.0
        assert lp.inclusion().tobytes() == _fresh(lp)

    def test_mean_field_computes_every_call(self, monkeypatch):
        lp = make_state().layers[0]
        calls = _counted(monkeypatch, "sigmoid")
        for n in (1, 2, 3):
            np.testing.assert_array_equal(lp.inclusion(), sigmoid(lp.omega))
            assert len(calls) == n


def _median_state(seed=12, widths=(8, 6, 3)):
    """MF state whose median mask keeps some, not all, of each layer's weights."""
    st = make_state(seed=seed, widths=widths)
    for lp in st.layers:
        lp.omega[...] = np.random.default_rng(seed).normal(size=lp.shape)
    return st


def _random_mvn_state(family, rank, widths, seed=11):
    """A correlated-family state with every logit parameter off its init value."""
    st = make_state(family, rank, seed=seed, widths=widths)
    gen = np.random.default_rng(seed)
    for lp in st.layers:
        lp.xi[...] = gen.normal(size=lp.xi.size)
        if family is Family.MVN_FULL:
            square = np.tril(0.05 * gen.normal(size=(lp.n_weights, lp.n_weights)))
            square[np.diag_indices(lp.n_weights)] += softplus_inv(0.8)
            lp.chol_raw[...] = pack_lower(square)
        else:
            lp.log_diag[...] = gen.normal(scale=0.3, size=lp.n_weights)
    return st


def _loop_logit_draws(state, n_mc, rng):
    """Reference sampler: one logit draw at a time, layer after layer.

    Returns one (n_mc, n_weights) array of draws per layer.
    """
    out = []
    for lp in state.layers:
        chol = lp.chol() if state.family is Family.MVN_FULL else None
        draws = np.empty((n_mc, lp.n_weights))
        for i in range(n_mc):
            if chol is not None:
                draws[i] = lp.xi + chol @ rng.std_normal(lp.n_weights)
            else:
                draws[i] = lp.xi
                if lp.rank > 0:
                    draws[i] += lp.factor @ rng.std_normal(lp.rank)
                draws[i] += np.sqrt(lp.diag()) * rng.std_normal(lp.n_weights)
        out.append(draws)
    return out


def _blocked_logit_draws(state, n_mc, rng):
    """The same draws from each layer's ``logit_blocks``."""
    return [np.concatenate([logits for logits, _ in
                            lp.logit_blocks(rng, n_mc, lp.logit_factor())])
            for lp in state.layers]


class TestExactInclusion:
    @pytest.mark.parametrize("family,rank", [
        (Family.MVN_FULL, 0), (Family.MVN_LOWRANK, 0), (Family.MVN_LOWRANK, 4),
    ])
    def test_within_four_standard_errors_of_monte_carlo(self, family, rank):
        st = _random_mvn_state(family, rank, (6, 5, 3))
        exact = marginal_inclusion(st)
        for a, draws in zip(exact, _loop_logit_draws(st, 2000, RngStream(6, 9))):
            p = sigmoid(draws)
            se = p.std(axis=0, ddof=1) / np.sqrt(p.shape[0])
            assert np.all(np.abs(a.reshape(-1) - p.mean(axis=0)) <= 4.0 * se)

    @pytest.mark.parametrize("family,rank", [
        (Family.MVN_FULL, 0), (Family.MVN_LOWRANK, 0), (Family.MVN_LOWRANK, 4),
    ])
    def test_logit_sd_is_root_covariance_diagonal(self, family, rank):
        st = _random_mvn_state(family, rank, (4, 3, 2))
        for lp in st.layers:
            if family is Family.MVN_FULL:
                cov = lp.chol() @ lp.chol().T
            else:
                cov = lp.factor @ lp.factor.T + np.diag(lp.diag())
            np.testing.assert_allclose(lp.logit_sd(), np.sqrt(np.diag(cov)),
                                       rtol=1e-14, atol=0)


class TestBatchedMonteCarlo:
    """The block sampler that the correlation metric uses, against single draws."""

    @pytest.mark.parametrize("family,rank,widths", [
        (Family.MVN_FULL, 0, (30, 15, 2)),
        (Family.MVN_LOWRANK, 0, (30, 15, 2)),
        (Family.MVN_LOWRANK, 4, (30, 15, 2)),
        # layer 0 holds (B // 100 + 2) * 100 > B weights, B the block budget
        (Family.MVN_LOWRANK, 4, (BLOCK_VALUES // 100 + 1, 100, 2)),
    ])
    def test_marginal_inclusion_matches_loop(self, family, rank, widths):
        # The Monte Carlo inclusion estimate from blocked draws equals the
        # draw-by-draw one: same draws, same stream position after.
        st = _random_mvn_state(family, rank, widths)
        # two full blocks and a remainder on layer 0
        block_rows = max(1, BLOCK_VALUES // (st.layers[0].n_weights + rank))
        n_mc = 2 * block_rows + 3
        batched, looped = RngStream(4, 9), RngStream(4, 9)
        got = _blocked_logit_draws(st, n_mc, batched)
        want = _loop_logit_draws(st, n_mc, looped)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sigmoid(g).mean(axis=0), sigmoid(w).mean(axis=0),
                                       rtol=0, atol=1e-12)
        np.testing.assert_array_equal(batched.state_words(), looped.state_words())

    @pytest.mark.parametrize("family,rank", [
        (Family.MVN_FULL, 0), (Family.MVN_LOWRANK, 0), (Family.MVN_LOWRANK, 4),
    ])
    def test_sample_network_logits_match_single_draw(self, family, rank):
        st = _random_mvn_state(family, rank, (30, 15, 2))
        net = sample_network(st, 0.1, "relaxed", RngStream(5, 8))
        ref = RngStream(5, 8)
        for lp, ls in zip(st.layers, net.layers):
            # the noise row: eps, or eps1 (rank values) then eps2
            assert ls.noise.shape == (lp.n_weights + rank,)
            if family is Family.MVN_FULL:
                eps = ref.std_normal(lp.n_weights)
                np.testing.assert_array_equal(ls.noise, eps)
                expected = lp.xi + lp.chol() @ eps
            else:
                expected = lp.xi.copy()
                if rank > 0:
                    eps1 = ref.std_normal(rank)
                    np.testing.assert_array_equal(ls.noise[:rank], eps1)
                    expected += lp.factor @ eps1
                eps2 = ref.std_normal(lp.n_weights)
                np.testing.assert_array_equal(ls.noise[rank:], eps2)
                expected += np.sqrt(lp.diag()) * eps2
            np.testing.assert_array_equal(ls.logits.reshape(-1), expected)
            ref.uniform(lp.n_weights)     # nu
            ref.std_normal(lp.n_weights)  # slab eps


class TestLogitFactor:
    """Per-layer draw constants built once serve every draw of a fixed state."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["drawn", "fixed"])
    @pytest.mark.parametrize("family,rank", [
        (Family.MF, 0), (Family.MVN_FULL, 0), (Family.MVN_LOWRANK, 2),
    ])
    def test_sample_network_same_bytes_with_consts(self, family, rank, fixed):
        if family is Family.MF:
            st = make_state(family, seed=5, widths=(6, 5, 3))
            for lp in st.layers:
                lp.omega[...] = np.random.default_rng(5).normal(size=lp.shape)
        else:
            st = _random_mvn_state(family, rank, (6, 5, 3))
        masks = median_model(st) if fixed else None
        consts = _layer_consts(st, masks)
        kept = [c.kept for c in consts] if fixed else None
        # The noise draw reads no parameter value: a state of NaNs draws the same.
        blank = st.copy()
        for _, _, arr in blank.param_items():
            arr[...] = np.nan
        for mode, delta in (("hard", 0.0), ("relaxed", 0.1)):
            own, shared, ahead = RngStream(7, 1), RngStream(7, 1), RngStream(7, 1)
            a = sample_network(st, delta, mode, own, fixed_masks=masks)
            b = sample_network(st, delta, mode, shared, fixed_masks=masks, consts=consts)
            noise = draw_noise(blank, ahead, kept)
            c = sample_network(st, delta, mode, None, fixed_masks=masks, noise=noise)
            for la, lb, lc in zip(a.layers, b.layers, c.layers):
                for name in ("alpha", "gamma_tilde", "beta", "effective", "eps", "tau",
                             "logits", "noise"):
                    va, vb, vc = getattr(la, name), getattr(lb, name), getattr(lc, name)
                    assert ((va is None) == (vb is None) == (vc is None)
                            == (fixed and name in ("logits", "noise")))
                    if va is not None:
                        assert va.tobytes() == vb.tobytes() == vc.tobytes(), name
            assert (own.state_words().tobytes() == shared.state_words().tobytes()
                    == ahead.state_words().tobytes())
        # Noise drawn for the other kind of draw is refused.
        other = draw_noise(st, RngStream(7, 1), None if fixed else [None] * 2)
        with pytest.raises(ShapeError):
            sample_network(st, 0.0, "hard", None, fixed_masks=masks, noise=other)
        with pytest.raises(ShapeError):
            sample_network(st, 0.0, "hard", RngStream(7, 1), fixed_masks=masks,
                           consts=consts[:1])
        # Constants built for the other kind of draw are refused.
        other = _layer_consts(st, None if fixed else median_model(st))
        with pytest.raises(ShapeError):
            sample_network(st, 0.0, "hard", RngStream(7, 1), fixed_masks=masks,
                           consts=other)

    def test_full_logit_sd_is_row_norm_bits(self):
        # A 915-weight layer, as in the full-covariance benchmark.
        lp = LayerParams(Family.MVN_FULL, (61, 15))
        lp.chol_raw[...] = np.random.default_rng(4).normal(size=lp.chol_raw.size)
        assert lp.logit_sd().tobytes() == np.linalg.norm(lp.chol(), axis=1).tobytes()


class _Fixed:
    def std_normal(self, n):
        return np.resize([1.0, -1.0, 0.0, 1.0, 2.0, 0.0], n)


class _Ones:
    def std_normal(self, n):
        return np.ones(n)


class _Ramp:
    def std_normal(self, n):
        return np.arange(float(n))


def _lowrank_layer(shape, rank, diag, factor=None):
    lp = LayerParams(Family.MVN_LOWRANK, shape, rank)
    with np.errstate(divide="ignore"):
        lp.log_diag[...] = np.log(diag)
    if factor is not None:
        lp.factor[...] = factor
    return lp


class TestLogitBlocks:
    """``LayerParams.logit_blocks``: row order, noise layout, block split, stream end."""

    def test_full_cholesky_kernel(self):
        lp = LayerParams(Family.MVN_FULL, (2, 1))
        lp.xi[...] = [1.0, -1.0]
        lp.chol_raw[...] = pack_lower([[softplus_inv(2.0), 0.0], [1.0, softplus_inv(2.0)]])
        [(out, eps)] = lp.logit_blocks(_Fixed(), 1, lp.logit_factor())
        np.testing.assert_allclose(out, [[3.0, -2.0]], atol=1e-15)
        np.testing.assert_array_equal(eps, [[1.0, -1.0]])
        # a block of three: row i is draw i, noise split by rows in order
        [(out, eps)] = lp.logit_blocks(_Fixed(), 3, lp.logit_factor())
        np.testing.assert_allclose(out, [[3.0, -2.0], [1.0, 1.0], [5.0, 1.0]],
                                   atol=1e-15)
        np.testing.assert_array_equal(eps, [[1.0, -1.0], [0.0, 1.0], [2.0, 0.0]])

    def test_lowrank_covariance_mc(self):
        gen = np.random.default_rng(8)
        lp = _lowrank_layer((2, 2), 2, np.exp(gen.normal(size=4)),
                            gen.normal(size=(4, 2)) * 0.7)
        lp.xi[...] = gen.normal(size=4)
        draws = np.concatenate(
            [b for b, _ in lp.logit_blocks(RngStream(21, 0), 200, lp.logit_factor())])
        # 200 draws only check the mean; covariance accuracy is covered
        # by the dedicated acceptance criterion
        assert np.all(np.abs(draws.mean(axis=0) - lp.xi) < 5 * np.sqrt(
            (np.sum(lp.factor**2, axis=1) + lp.diag()) / draws.shape[0]))

    def test_diag_only_matches_scaled_normal(self):
        lp = _lowrank_layer((3, 1), 0, [4.0, 9.0, 16.0])
        [(out, noise)] = lp.logit_blocks(_Ones(), 1, lp.logit_factor())
        np.testing.assert_allclose(out, [[2.0, 3.0, 4.0]], atol=1e-15)
        np.testing.assert_array_equal(noise, np.ones((1, 3)))
        # a block of three: the noise splits by rows in draw order
        [(out, noise)] = lp.logit_blocks(_Ramp(), 3, lp.logit_factor())
        np.testing.assert_allclose(out, [[0.0, 3.0, 8.0], [6.0, 12.0, 20.0],
                                         [12.0, 21.0, 32.0]], atol=1e-14)
        np.testing.assert_array_equal(noise, np.arange(9.0).reshape(3, 3))
        # a variance that underflowed to zero is a valid degenerate entry
        lp = _lowrank_layer((3, 1), 0, [0.0, 1.0, 4.0])
        [(out, _)] = lp.logit_blocks(_Ones(), 1, lp.logit_factor())
        np.testing.assert_allclose(out, [[0.0, 1.0, 2.0]], atol=1e-15)

    def test_lowrank_noise_row_is_eps1_then_eps2(self):
        lp = _lowrank_layer((2, 1), 1, [1.0, 4.0], [[2.0], [-1.0]])
        [(out, noise)] = lp.logit_blocks(_Ramp(), 2, lp.logit_factor())
        np.testing.assert_array_equal(noise, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        # xi + F eps1 + sqrt(diag) eps2, eps1 the first value of each row
        np.testing.assert_allclose(out, [[1.0, 4.0], [10.0, 7.0]], atol=1e-14)

    @pytest.mark.parametrize("family,rank,shape", [
        (Family.MF, 0, (301, 2)),
        (Family.MVN_FULL, 0, (30, 15)),
        (Family.MVN_LOWRANK, 4, (30, 15)),
        # one draw holds more values than a block: one row per block
        (Family.MVN_LOWRANK, 4, (BLOCK_VALUES // 100 + 1, 100)),
    ])
    def test_block_split_and_stream_end(self, family, rank, shape):
        if family is Family.MF:
            lp = LayerParams(family, shape)
            lp.omega[...] = np.random.default_rng(3).normal(size=shape)
        else:
            lp = _random_mvn_state(family, rank, (shape[0] - 1, shape[1])).layers[0]
        width = lp.n_weights + rank
        per_block = max(1, BLOCK_VALUES // width)
        n = 2 * per_block + 1  # two full blocks and one row
        rng, ref = RngStream(4, 9), RngStream(4, 9)
        blocks = list(lp.logit_blocks(rng, n, lp.logit_factor()))
        assert [b.shape[0] for b, _ in blocks] == [per_block, per_block, 1]
        noise_width = 0 if family is Family.MF else width
        assert all(e.shape == (b.shape[0], noise_width) for b, e in blocks)
        if family is Family.MF:
            # nothing drawn: read-only rows of omega
            assert not any(b.flags.writeable for b, _ in blocks)
            np.testing.assert_array_equal(np.concatenate([b for b, _ in blocks]),
                                          np.tile(lp.omega.reshape(-1), (n, 1)))
        else:
            # the noise is the stream read in order, and it stops there
            np.testing.assert_array_equal(np.concatenate([e for _, e in blocks]),
                                          ref.std_normal(n * width).reshape(n, width))
        np.testing.assert_array_equal(rng.state_words(), ref.state_words())


class TestLayerParams:
    def test_chol_frozen_value(self):
        st = make_state(Family.MVN_FULL, widths=(1, 1))
        lp = st.layers[0]
        lp.chol_raw[...] = pack_lower([[softplus_inv(2.0), 7.0], [1.0, softplus_inv(2.0)]])
        np.testing.assert_allclose(lp.chol(), [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_pack_round_trip(self):
        square = np.arange(16.0).reshape(4, 4)
        packed = pack_lower(square)
        np.testing.assert_array_equal(packed, [0, 4, 5, 8, 9, 10, 12, 13, 14, 15])
        np.testing.assert_array_equal(unpack_lower(packed), np.tril(square))
        with pytest.raises(ShapeError):
            pack_lower(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            unpack_lower(np.zeros(4))

    def test_chol_matches_dense_construction(self):
        # The dense form: np.tril below the diagonal, softplus on it.
        st = _random_mvn_state(Family.MVN_FULL, 0, (30, 15, 2))
        for lp in st.layers:
            raw = unpack_lower(lp.chol_raw)
            dense = np.tril(raw, -1)
            dense[np.diag_indices_from(dense)] = softplus(np.diagonal(raw))
            assert lp.chol().tobytes() == dense.tobytes()

    def test_packed_logit_grad_matches_dense_rule(self):
        # The dense form: tril(outer(dlogit, eps)), its diagonal scaled by
        # sigmoid of the raw diagonal (the softplus derivative).
        st = _random_mvn_state(Family.MVN_FULL, 0, (30, 15, 2))
        net = sample_network(st, 0.1, "relaxed", RngStream(5, 8))
        gen = np.random.default_rng(2)
        for lp, ls in zip(st.layers, net.layers):
            dlogit = gen.normal(size=lp.shape)
            grads = {"xi": np.zeros_like(lp.xi), "chol_raw": np.zeros_like(lp.chol_raw)}
            lp.route_logit_grad(dlogit, ls.noise, grads)
            douter = np.outer(dlogit.reshape(-1), ls.noise)
            dense = np.tril(douter)
            dense[np.diag_indices_from(dense)] = (
                np.diagonal(douter) * sigmoid(np.diagonal(unpack_lower(lp.chol_raw))))
            assert grads["chol_raw"].shape == (lp.n_weights * (lp.n_weights + 1) // 2,)
            assert grads["chol_raw"].tobytes() == pack_lower(dense).tobytes()
            assert unpack_lower(grads["chol_raw"]).tobytes() == dense.tobytes()


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
