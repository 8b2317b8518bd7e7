"""Prediction modes, abstention, density, and CSV export."""

import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import ALL_FAMILIES, make_state, pin_cores
from slabnn import elbo, predictor
from slabnn.errors import ConfigError, DomainError, NumericError, ShapeError
from slabnn.model import (Family, LayerParams, PriorConfig, SampledLayer,
                          SampledNetwork, median_model, posterior_mean_weights,
                          sample_network)
from slabnn.numkernel import RngStream, log_softmax
from slabnn.predictor import (DoubtDecisions, PredictionMode, PredictiveResult,
                              classify_with_doubt, density_level,
                              export_predictions_csv, predict)


def _features(n=9, p=4, seed=50):
    return RngStream(seed, 0).std_normal(n * p).reshape(n, p)


class TestPredictionMode:
    def test_rules_validated(self):
        with pytest.raises(ConfigError):
            PredictionMode("some", "sim")
        with pytest.raises(ConfigError):
            PredictionMode("sim", "map")
        with pytest.raises(ConfigError):
            PredictionMode("sim", "sim", replicates=0)
        with pytest.raises(ConfigError, match="gamma=sim with beta=mea"):
            PredictionMode("sim", "mea")
        assert PredictionMode("med", "mea").deterministic
        assert not PredictionMode("med", "sim").deterministic


class TestPredict:
    def test_rows_are_distributions(self):
        for family, rank in ALL_FAMILIES:
            st = make_state(family, rank, seed=51)
            res = predict(st, _features(), PredictionMode("sim", "sim", 4),
                          rng=RngStream(1, 99))
            assert res.probs.shape == (9, 2)
            np.testing.assert_allclose(res.probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(res.probs >= 0)
            assert res.replicate_probs.shape == (4, 9, 2)

    def test_average_is_mean_of_replicates(self):
        st = make_state(seed=52)
        res = predict(st, _features(), PredictionMode("sim", "sim", 5),
                      rng=RngStream(2, 99))
        np.testing.assert_allclose(res.probs,
                                   res.replicate_probs.mean(axis=0), atol=1e-15)

    def test_replicates_extend_instead_of_reshuffling(self):
        # The first R replicates of a longer run are the same draws, so
        # growing R only refines the average.
        st = make_state(seed=53)
        x = _features()
        r3 = predict(st, x, PredictionMode("sim", "sim", 3), rng=RngStream(3, 99))
        r5 = predict(st, x, PredictionMode("sim", "sim", 5), rng=RngStream(3, 99))
        np.testing.assert_array_equal(r3.replicate_probs,
                                      r5.replicate_probs[:3])

    def test_sim_sim_builds_one_factor_per_layer(self, monkeypatch):
        # All R replicates of an unchanged state draw from one dense factor.
        st = make_state(Family.MVN_FULL, seed=54)
        calls = []
        chol = LayerParams.chol

        def counting(self):
            calls.append(1)
            return chol(self)

        monkeypatch.setattr(LayerParams, "chol", counting)
        predict(st, _features(), PredictionMode("sim", "sim", 5), rng=RngStream(4, 99))
        assert len(calls) == st.n_transitions == 2

    @pytest.mark.parametrize("gamma", ["sim", "med"])
    def test_sampled_modes_need_an_rng(self, gamma):
        with pytest.raises(DomainError, match="^this prediction mode needs an rng$"):
            predict(make_state(seed=54), _features(), PredictionMode(gamma, "sim"))

    def test_deterministic_modes_need_no_rng_for_mf(self):
        st = make_state(seed=54)
        x = _features()
        res_med = predict(st, x, PredictionMode("med", "mea"))
        res_all = predict(st, x, PredictionMode("all", "mea"))
        assert res_med.replicate_probs is None
        again = predict(st, x, PredictionMode("med", "mea"))
        np.testing.assert_array_equal(res_med.probs, again.probs)
        assert not np.allclose(res_med.probs, res_all.probs)

    def test_correlated_family_mean_modes_need_no_rng(self):
        st = make_state(Family.MVN_FULL, seed=55)
        st.layers[0].xi[...] = np.linspace(-2.0, 2.0, st.layers[0].n_weights)
        st.layers[1].xi[...] = 1.0
        x = _features()
        for gamma in ("med", "all"):
            free = predict(st, x, PredictionMode(gamma, "mea"))
            seeded = predict(st, x, PredictionMode(gamma, "mea"), rng=RngStream(0, 99))
            np.testing.assert_array_equal(free.probs, seeded.probs)
        # the median mask is neither empty nor full, so med/mea is a real check
        kept = sum(float(m.sum()) for m in median_model(st))
        assert 0.0 < kept < sum(lp.n_weights for lp in st.layers)

    def test_all_sim_rejected_unless_dense(self):
        st = make_state(seed=56)
        with pytest.raises(ConfigError):
            predict(st, _features(), PredictionMode("all", "sim", 2),
                    rng=RngStream(1, 99))
        dense = make_state(seed=56, prior=PriorConfig(fixed_dense=True))
        res = predict(dense, _features(), PredictionMode("all", "sim", 2),
                      rng=RngStream(1, 99))
        assert res.replicate_probs.shape[0] == 2

    def test_all_sim_draws_every_slab(self):
        # Guard: replicate r reads std_normal(n_w) per layer from its own
        # stream, and its network keeps every weight.
        dense = make_state(seed=57, prior=PriorConfig(fixed_dense=True))
        x = _features()
        res = predict(dense, x, PredictionMode("all", "sim", 3), rng=RngStream(1, 99))
        refs = []
        for r in range(3):
            sub = RngStream(1, 100 + r)
            layers = []
            for lp in dense.layers:
                eps = sub.std_normal(lp.n_weights).reshape(lp.shape)
                w = np.ones(lp.shape) * (lp.kappa + lp.tau() * eps)
                layers.append(SampledLayer(alpha=None, gamma_tilde=None, beta=None,
                                           effective=w, eps=eps, tau=None))
            refs.append(_blocked_probs(SampledNetwork(layers, dense.spec, 0.0), x))
        assert res.replicate_probs.tobytes() == np.stack(refs).tobytes()
        assert res.probs.tobytes() == np.stack(refs).mean(axis=0).tobytes()

    @pytest.mark.parametrize("gamma,dense", [("med", False), ("sim", False), ("all", True)])
    def test_sampled_modes_take_slab_sd_once_per_call(self, monkeypatch, gamma, dense):
        st = make_state(Family.MVN_LOWRANK, 2, seed=59,
                        prior=PriorConfig(fixed_dense=dense))
        calls = []
        tau = LayerParams.tau

        def counting(self):
            calls.append(1)
            return tau(self)

        monkeypatch.setattr(LayerParams, "tau", counting)
        predict(st, _features(), PredictionMode(gamma, "sim", 4), rng=RngStream(4, 99))
        assert len(calls) == st.n_transitions == 2

    def test_med_modes_condition_on_median_mask(self):
        st = make_state(seed=57)
        st.layers[0].omega[...] = np.linspace(-3, 3, 15).reshape(5, 3)
        st.layers[0].rho[...] = -40.0  # slab frozen at kappa
        st.layers[1].rho[...] = -40.0
        st.layers[1].omega[...] = 3.0
        x = _features()
        sim = predict(st, x, PredictionMode("med", "sim", 3), rng=RngStream(4, 99))
        mea = predict(st, x, PredictionMode("med", "mea"))
        # frozen slab makes every sampled beta equal kappa, so the two
        # median modes coincide
        np.testing.assert_allclose(sim.probs, mea.probs, atol=1e-12)
        mask = median_model(st)
        for rep in sim.masks:
            for m, ref in zip(rep, mask):
                np.testing.assert_array_equal(m, ref)

    def test_all_mea_uses_posterior_mean_weights(self):
        st = make_state(seed=58)
        x = _features()
        res = predict(st, x, PredictionMode("all", "mea"))
        from slabnn.elbo import forward_logits
        from slabnn.model import sample_network
        weights = posterior_mean_weights(st)
        dense = make_state(seed=58, prior=PriorConfig(fixed_dense=True))
        for lp, w in zip(dense.layers, weights):
            lp.kappa[...] = w
            lp.rho[...] = -40.0
        net = sample_network(dense, 0.0, "hard", RngStream(9, 9))
        from slabnn.numkernel import log_softmax
        logits, _ = forward_logits(net, x)
        np.testing.assert_allclose(res.probs, np.exp(log_softmax(logits)),
                                   atol=1e-12)

    def test_feature_width_checked(self):
        st = make_state()
        with pytest.raises(ShapeError):
            predict(st, np.zeros((3, 7)), PredictionMode("med", "mea"))

    @pytest.mark.parametrize("gamma", ["sim", "med"])
    def test_absurd_replicate_count_refused_before_drawing(self, monkeypatch, gamma):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the replicate count")

        monkeypatch.setattr("slabnn.predictor.sample_network", refuse)
        mode = PredictionMode(gamma, "sim", replicates=12345678901234567890)
        with pytest.raises(ConfigError, match="replicates: .* need about"):
            predict(make_state(), _features(), mode, rng=RngStream(1, 0))

    def test_replicate_estimate_counts_what_replicates_keep(self, monkeypatch):
        # 9 rows x 2 classes of probabilities per replicate; sim/sim also
        # keeps each replicate's masks (5x3 + 4x2 = 23 weights), med/sim
        # and all/sim share one mask; the mean modes keep no replicates.
        seen = []
        monkeypatch.setattr("slabnn.predictor.memory_problems",
                            lambda nbytes, what: seen.append(nbytes) or [])
        for gamma, beta in (("sim", "sim"), ("med", "sim"), ("med", "mea"), ("all", "mea")):
            predict(make_state(), _features(), PredictionMode(gamma, beta, 3),
                    rng=RngStream(1, 0))
        predict(make_state(prior=PriorConfig(fixed_dense=True)), _features(),
                PredictionMode("all", "sim", 3), rng=RngStream(1, 0))
        assert seen == [8 * 3 * (18 + 23), 8 * 3 * 18, 8 * 3 * 18]


def _sparse_state(kept=125, seed=70, widths=(784, 16, 3)):
    """MF state whose median mask keeps ``kept`` of layer 0's non-bias weights.

    Layer 0's bias row and every later layer are kept whole; slab means
    are scaled up so that the logits, and so the argmax, are far from ties.
    """
    st = make_state(seed=seed, widths=widths)
    first = st.layers[0]
    first.omega[...] = -4.0
    first.omega[0] = 4.0
    flat = first.omega[1:].reshape(-1)
    flat[np.random.default_rng(seed).permutation(flat.size)[:kept]] = 4.0
    first.kappa[...] *= 20.0
    for layer in st.layers[1:]:
        layer.omega[...] = 4.0
    return st


def _blocked_probs(net, x):
    """The dense forward through predict's row blocks."""
    logits, _ = elbo.forward_logits(net, x, products=predictor.BlockedProducts(x))
    return np.exp(log_softmax(logits))


def _mean_network(st, mask):
    weights = posterior_mean_weights(st, alpha_hat=mask)
    layers = [SampledLayer(alpha=None, gamma_tilde=None, beta=w, effective=w,
                           eps=None, tau=None) for w in weights]
    return SampledNetwork(layers=layers, spec=st.spec, delta=0.0)


class TestSparseMedianModel:
    """Below the share, the median rules multiply through the kept weights only.

    The dense reference runs through the same row blocks as ``predict``.
    """

    def _check_against_dense(self, st, x, exact):
        mask = median_model(st)
        compare = (np.testing.assert_array_equal if exact else
                   lambda got, ref: np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12))
        sim = predict(st, x, PredictionMode("med", "sim", 3), rng=RngStream(8, 99))
        for r in range(3):
            net = sample_network(st, 0.0, "hard", RngStream(8, 100 + r), fixed_masks=mask)
            ref = _blocked_probs(net, x)
            compare(sim.replicate_probs[r], ref)
            np.testing.assert_array_equal(np.argmax(sim.replicate_probs[r], axis=1),
                                          np.argmax(ref, axis=1))
        mea = predict(st, x, PredictionMode("med", "mea"))
        ref = _blocked_probs(_mean_network(st, mask), x)
        compare(mea.probs, ref)
        np.testing.assert_array_equal(np.argmax(mea.probs, axis=1), np.argmax(ref, axis=1))

    def test_sparse_mask_matches_dense_forward(self):
        st = _sparse_state()  # 125 of 12,544 weights: 1% dense
        x = _features(n=200, p=784)
        layers = predictor.BlockedProducts(x, median_model(st)).layers
        assert layers[0] is not None and layers[1] is None
        self._check_against_dense(st, x, exact=False)

    def test_live_columns_copy_is_the_gather(self):
        st = _sparse_state()
        x = _features(n=300, p=784)  # not a multiple of the 128-row copy blocks
        kept = predictor.BlockedProducts(x, median_model(st)).layers[0]
        assert kept.z_t.shape == (kept.live.size, 300)
        assert kept.z_t.tobytes() == x.T[kept.live].tobytes()

    def test_fully_pruned_first_layer(self):
        st = _sparse_state(kept=0)
        st.layers[0].omega[...] = -4.0  # the bias row goes too
        x = _features(n=50, p=784)
        assert predictor.BlockedProducts(x, median_model(st)).layers[0].live.size == 0
        self._check_against_dense(st, x, exact=False)

    def test_mask_above_share_stays_dense_bit_for_bit(self):
        share = int(predictor.SPARSE_SHARE * 784 * 16)
        st = _sparse_state(kept=share + 1)
        x = _features(n=50, p=784)
        assert predictor.BlockedProducts(x, median_model(st)).layers == [None, None]
        self._check_against_dense(st, x, exact=True)

    def test_share_is_inclusive(self):
        share = int(predictor.SPARSE_SHARE * 784 * 16)
        x = _features(n=5, p=784)
        assert predictor.BlockedProducts(x, median_model(_sparse_state(kept=share))).layers[0] \
            is not None

    def test_nan_in_dropped_column_still_raises(self):
        # The dense product turns any non-finite feature into non-finite
        # activations at transition 0; a product that skips the column
        # must fail the same way.
        st = _sparse_state()
        x = _features(n=20, p=784)
        dropped = np.flatnonzero(median_model(st)[0][1:].sum(axis=1) == 0)[0]
        x[7, dropped] = np.nan
        for mode in (PredictionMode("med", "sim", 2), PredictionMode("med", "mea")):
            with pytest.raises(NumericError, match="transition 0"):
                predict(st, x, mode, rng=RngStream(8, 99))

    def test_products_bound_to_their_block(self):
        st = _sparse_state()
        x = _features(n=10, p=784)
        products = predictor.BlockedProducts(x, median_model(st))
        net = sample_network(st, 0.0, "hard", RngStream(1, 1), fixed_masks=median_model(st))
        with pytest.raises(ShapeError, match="another design block"):
            elbo.forward_logits(net, x.copy(), products=products)


class TestDoubt:
    def test_threshold_is_strict(self):
        probs = np.array([[0.95, 0.05], [0.951, 0.049], [0.5, 0.5]])
        d = classify_with_doubt(probs, 0.95)
        np.testing.assert_array_equal(d.decisions, [-1, 0, -1])
        assert d.n_abstained == 2 and d.n_classified == 1
        np.testing.assert_array_equal(d.classified, [1])

    def test_zero_threshold_classifies_everything(self):
        probs = np.array([[0.6, 0.4], [0.1, 0.9]])
        d = classify_with_doubt(probs, 0.0)
        np.testing.assert_array_equal(d.decisions, [0, 1])

    def test_tie_picks_lowest_index(self):
        d = classify_with_doubt(np.array([[0.4, 0.4, 0.2]]), 0.0)
        assert d.decisions[0] == 0

    def test_threshold_domain(self):
        with pytest.raises(DomainError):
            classify_with_doubt(np.array([[1.0, 0.0]]), 1.0)
        with pytest.raises(DomainError):
            classify_with_doubt(np.array([[1.0, 0.0]]), -0.1)
        with pytest.raises(ShapeError):
            classify_with_doubt(np.array([0.5, 0.5]))


class TestDensity:
    def test_union_over_replicates_is_monotone(self):
        st = make_state(seed=59)
        x = _features()
        levels = []
        for r in (1, 3, 8):
            res = predict(st, x, PredictionMode("sim", "sim", r),
                          rng=RngStream(5, 99))
            levels.append(density_level(res.masks))
        assert levels[0] <= levels[1] <= levels[2]

    def test_median_mode_density_matches_mask(self):
        st = make_state(seed=60)
        st.layers[0].omega[...] = np.linspace(-1, 1, 15).reshape(5, 3)
        res = predict(st, _features(), PredictionMode("med", "mea"))
        mask = median_model(st)
        expected = sum(float(m.sum()) for m in mask) / sum(m.size for m in mask)
        assert density_level(res.masks) == expected

    def test_all_connections_modes_are_fully_dense(self):
        st = make_state(seed=61)
        res = predict(st, _features(), PredictionMode("all", "mea"))
        assert density_level(res.masks) == 1.0

    def test_empty_masks_rejected(self):
        with pytest.raises(DomainError):
            density_level([])
        with pytest.raises(DomainError, match="at least one layer"):
            density_level([[]])


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        st = make_state(seed=62)
        x = _features(n=5)
        res = predict(st, x, PredictionMode("sim", "sim", 3), rng=RngStream(6, 99))
        d = classify_with_doubt(res.probs, 0.4)
        path = tmp_path / "preds.csv"
        export_predictions_csv(path, res, d)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,p_class0,p_class1,decision,abstained"
        assert len(lines) == 6
        got = np.array([[float(v) for v in ln.split(",")[1:3]] for ln in lines[1:]])
        np.testing.assert_array_equal(got, res.probs)  # repr round trip is exact
        for ln, dec in zip(lines[1:], d.decisions):
            cols = ln.split(",")
            assert int(cols[3]) == dec
            assert int(cols[4]) == (1 if dec < 0 else 0)

    def test_decisions_must_match_rows(self, tmp_path):
        probs = np.full((5, 2), 0.5)
        path = tmp_path / "p.csv"
        with pytest.raises(ShapeError, match="5 probability rows but 2 decisions"):
            export_predictions_csv(path, PredictiveResult(probs, None, []),
                                   DoubtDecisions(np.array([0, 1]), 0.5))
        assert not path.exists()

    def test_bytes_match_per_value_repr(self, tmp_path):
        probs = np.array([[-0.0, 5e-324, 1.0], [0.1 + 0.2, 0.5, 1.0 - 2.0**-53]])
        decisions = DoubtDecisions(np.array([2, -1]), 0.5)
        path = tmp_path / "p.csv"
        export_predictions_csv(path, PredictiveResult(probs, None, []), decisions)
        expected = "row,p_class0,p_class1,p_class2,decision,abstained\n"
        for i, (dec, flag) in enumerate(((2, 0), (-1, 1))):
            row = [str(i)] + [repr(float(v)) for v in probs[i]] + [str(dec), str(flag)]
            expected += ",".join(row) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_export_at_zero_threshold_is_argmax(self, tmp_path):
        st = make_state(seed=63)
        res = predict(st, _features(n=4), PredictionMode("med", "mea"))
        path = tmp_path / "p.csv"
        export_predictions_csv(path, res, classify_with_doubt(res.probs, 0.0))
        rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
        for i, cols in enumerate(rows):
            assert int(cols[3]) == int(np.argmax(res.probs[i]))
            assert cols[4] == "0"


def _varied_state(family, rank, seed, widths=(6, 5, 3), fixed_dense=False):
    """A state whose logits spread over N(0, 4): about half of each mask kept."""
    st = make_state(family, rank, seed=seed, widths=widths,
                    prior=PriorConfig(fixed_dense=fixed_dense), init_tau=0.3)
    for layer in st.layers:
        logits = layer.omega if family is Family.MF else layer.xi
        logits[...] = np.random.default_rng(seed).normal(scale=2.0, size=logits.shape)
    return st


def _sparse_family_state(family, rank, seed):
    """A 64-4-2 state whose median mask keeps 5 of layer 0's 256 non-bias weights."""
    st = make_state(family, rank, seed=seed, widths=(64, 4, 2))
    for l, layer in enumerate(st.layers):
        logits = layer.omega if family is Family.MF else layer.xi
        logits[...] = 4.0 if l else -4.0
    logits = st.layers[0].omega if family is Family.MF else st.layers[0].xi
    logits[0] = 4.0
    flat = logits[1:].reshape(-1)
    flat[np.random.default_rng(seed).permutation(flat.size)[:5]] = 4.0
    st.layers[0].kappa[...] *= 20.0
    return st


def _result_bytes(res):
    return (res.probs.tobytes(), res.replicate_probs.tobytes(),
            [[m.tobytes() for m in rep] for rep in res.masks])


class TestReplicateThreads:
    """Replicates of one sampled call run on the caller and k - 1 threads."""

    @pytest.mark.parametrize("family,rank", ALL_FAMILIES)
    def test_threaded_replicates_are_the_sequential_bytes(self, monkeypatch, family, rank):
        # Guard: whatever k is, every replicate reads its own stream and
        # lands at its own index.  4 cores at 1 BLAS thread run min(R, 4)
        # threads; at 4 BLAS threads the same call runs sequentially.
        sparse_st = _sparse_family_state(family, rank, seed=81)
        x_sparse = _features(n=40, p=64)
        assert predictor.BlockedProducts(x_sparse, median_model(sparse_st)).layers[0] is not None
        cases = [(_varied_state(family, rank, 82), _features(n=30, p=6), "sim"),
                 (_varied_state(family, rank, 83), _features(n=30, p=6), "med"),
                 (sparse_st, x_sparse, "med"),
                 (_varied_state(family, rank, 84, fixed_dense=True), _features(n=30, p=6),
                  "all")]
        for st, x, gamma in cases:
            for replicates in (1, 2, 3, 5):
                mode = PredictionMode(gamma, "sim", replicates)
                got = []
                for blas in ("1", "4"):
                    pin_cores(monkeypatch, cores=4, openblas=blas)
                    got.append(_result_bytes(predict(st, x, mode, rng=RngStream(6, 99))))
                assert got[0] == got[1], (gamma, replicates)

    def test_kept_weights_pre_is_reentrant(self):
        # Six threads share one sparse transition, each multiplying its
        # own weights through it while the interpreter switches threads
        # every microsecond; a product read through another call's
        # weights would differ from the sequential one.
        st = _sparse_state()
        x = _features(n=64, p=784)
        kept = predictor.BlockedProducts(x, median_model(st)).layers[0]
        weights = [RngStream(90, i).std_normal(785 * 16).reshape(785, 16) for i in range(6)]
        refs = [kept.pre(x, w).tobytes() for w in weights]
        calls, wrong = [0] * 6, [0] * 6

        def hammer(i):
            for n in range(200):
                j = (i + n) % 6
                if kept.pre(x, weights[j]).tobytes() != refs[j]:
                    wrong[i] += 1
                calls[i] += 1

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calls == [200] * 6
        assert wrong == [0] * 6

    def test_thread_count_follows_cores_and_blas(self, monkeypatch, started):
        st = make_state(seed=61)
        x = _features()
        mode = PredictionMode("sim", "sim", 5)
        pin_cores(monkeypatch, cores=4)  # BLAS not pinned: it fills the cores
        predict(st, x, mode, rng=RngStream(1, 99))
        assert started == []
        pin_cores(monkeypatch, cores=4, openblas="1")
        predict(st, x, mode, rng=RngStream(1, 99))
        assert len(started) == 3  # k = min(5, 4 // 1)
        pin_cores(monkeypatch, cores=4, openblas="0", omp="2")  # first positive wins
        predict(st, x, mode, rng=RngStream(1, 99))
        assert len(started) == 4  # k = 4 // 2
        predict(st, x, PredictionMode("sim", "sim", 1), rng=RngStream(1, 99))
        assert len(started) == 4  # k = min(R, ...)
        assert not any(t.is_alive() for t in started)

    def test_small_calls_run_threaded_with_the_sequential_bytes(self, monkeypatch, started):
        # Call size does not matter: 9 rows through 5-3-2 (207
        # multiply-adds) and a 784-16-3 median model keeping 125 of
        # layer 0's weights both run on threads at pinned BLAS.
        cases = [(make_state(seed=61), _features(), "sim"),
                 (_sparse_state(), _features(n=20, p=784), "med")]
        for st, x, gamma in cases:
            mode = PredictionMode(gamma, "sim", 4)
            pin_cores(monkeypatch, cores=4, openblas="4")
            sequential = _result_bytes(predict(st, x, mode, rng=RngStream(7, 99)))
            assert started == []
            pin_cores(monkeypatch, cores=4, openblas="1")
            assert _result_bytes(predict(st, x, mode, rng=RngStream(7, 99))) == sequential
            assert len(started) == 3, gamma
            assert not any(t.is_alive() for t in started)
            started.clear()

    def test_lowest_failing_replicate_raises_after_every_thread(self, monkeypatch, started):
        # Replicate 3 fails at once, replicate 2 a little later, so the
        # first failure seen is not the one a sequential loop raises.
        draw = predictor.sample_network

        def failing(state, delta, mode, rng, **kwargs):
            r = rng.stream_id - 100
            if r == 2:
                time.sleep(0.05)
            if r in (2, 3):
                raise NumericError(f"replicate {r} failed")
            return draw(state, delta, mode, rng, **kwargs)

        monkeypatch.setattr(predictor, "sample_network", failing)
        pin_cores(monkeypatch, cores=4, openblas="1")
        with pytest.raises(NumericError, match="replicate 2 failed"):
            predict(make_state(seed=62), _features(), PredictionMode("sim", "sim", 6),
                    rng=RngStream(1, 99))
        assert len(started) == 3
        assert not any(t.is_alive() for t in started)


_MODES = [PredictionMode("sim", "sim", 2), PredictionMode("all", "mea"),
          PredictionMode("med", "sim", 2), PredictionMode("med", "mea")]

# 1 row, 37 rows, across a 256-row boundary, and to the last row; twice each.
_SLICES = [(0, 1), (500, 501), (3, 40), (600, 637), (230, 300), (700, 790),
           (963, 1000), (999, 1000)]


# 1, 37 and 300 rows of a 1,400-row call, four of each: at both ends,
# across a 256-row block boundary and inside.
_CALL_SLICES = [(0, 1), (255, 256), (700, 701), (1399, 1400), (0, 37), (250, 287),
                (600, 637), (1363, 1400), (0, 300), (200, 500), (700, 1000), (1100, 1400)]


def _differing_slices():
    """Every (widths, mode, slice) whose rows alone differ from the whole 1,400-row call.

    all/mea, med/sim and sim/sim on a 784-64-32-10 state and on the
    784-16-3 state whose median model runs layer 0 sparse.
    """
    x = _features(n=1400, p=784)
    states = [_varied_state(Family.MF, 0, 97, (784, 64, 32, 10)), _sparse_state()]
    modes = [PredictionMode("all", "mea"), PredictionMode("med", "sim", 2),
             PredictionMode("sim", "sim", 2)]
    differ = []
    for st in states:
        for mode in modes:
            whole = predict(st, x, mode, rng=RngStream(6, 99)).probs
            differ += [(st.spec.widths, mode.gamma, mode.beta, lo, hi)
                       for lo, hi in _CALL_SLICES
                       if predict(st, x[lo:hi], mode, rng=RngStream(6, 99)).probs.tobytes()
                       != whole[lo:hi].tobytes()]
    return differ


class TestRowBlocks:
    """A row's probabilities are the same bytes alone or inside any block of rows."""

    def test_slices_are_the_bytes_of_the_whole_call_at_two_blas_threads(self):
        # OpenBLAS reads its thread count once, when it loads, so the
        # calls run in a fresh interpreter.  At two threads it splits a
        # 256 x 785 by 785 x 16 product over both (twice the CPU time of
        # the wall time on OpenBLAS 0.3.31).
        tests = pathlib.Path(__file__).parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
            [str(tests), str(pathlib.Path(predictor.__file__).parents[1])]))
        code = "import test_predictor; print(test_predictor._differing_slices())"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"

    @pytest.mark.parametrize("family,rank,widths", [
        (Family.MF, 0, (784, 16, 3)), (Family.MF, 0, (784, 64, 32, 10)),
        (Family.MVN_FULL, 0, (60, 15, 5)), (Family.MVN_LOWRANK, 2, (784, 16, 3))])
    def test_slices_are_the_bytes_of_the_whole_call(self, family, rank, widths):
        x = _features(n=1000, p=widths[0])
        cases = [(_varied_state(family, rank, 91, widths), m) for m in _MODES]
        cases.append((_varied_state(family, rank, 92, widths, fixed_dense=True),
                      PredictionMode("all", "sim", 2)))
        if widths == (784, 16, 3) and family is Family.MF:
            sparse = _sparse_state()
            assert predictor.BlockedProducts(x, median_model(sparse)).layers[0] is not None
            cases += [(sparse, PredictionMode("med", "sim", 2)),
                      (sparse, PredictionMode("med", "mea"))]
        for st, mode in cases:
            whole = predict(st, x, mode, rng=RngStream(6, 99)).probs
            differ = [(lo, hi) for lo, hi in _SLICES
                      if predict(st, x[lo:hi], mode, rng=RngStream(6, 99)).probs.tobytes()
                      != whole[lo:hi].tobytes()]
            assert differ == [], (mode, differ)

    @pytest.mark.parametrize("gamma", ["all", "med"])
    def test_mean_modes_split_rows_over_cores_with_the_same_bytes(self, monkeypatch,
                                                                   started, gamma):
        # 1,000 rows through 784-64-32-10 (52.5M multiply-adds) are 4 blocks:
        # one run at 1 core, two at 2, three (1, 1 and 2 blocks) at 3.
        st = _varied_state(Family.MF, 0, 93, (784, 64, 32, 10))
        x = _features(n=1000, p=784)
        got = []
        for cores in (1, 2, 3):
            pin_cores(monkeypatch, cores=cores, openblas="1")
            got.append(predict(st, x, PredictionMode(gamma, "mea")).probs.tobytes())
            assert len(started) == cores - 1
            started.clear()
        assert got[0] == got[1] == got[2]

    def test_call_below_the_floor_starts_no_thread(self, monkeypatch, started):
        st = _varied_state(Family.MF, 0, 94, (60, 15, 5))
        x = _features(n=1000, p=60)  # 975k multiply-adds in 4 blocks
        assert 1000 * (60 * 15 + 15 * 5) < predictor.SPLIT_MULTIPLY_ADDS
        pin_cores(monkeypatch, cores=4, openblas="1")
        for gamma in ("all", "med"):
            predict(st, x, PredictionMode(gamma, "mea"))
        assert started == []

    def test_sparse_median_layer_counts_its_kept_weights(self, monkeypatch, started):
        # 2,000 rows through 784-16-3 are 25.2M dense multiply-adds, but
        # the 1%-dense median mask forms layer 0 from 125 kept weights:
        # 2,000 x (125 + 16 x 3) = 346k.
        st = _sparse_state()
        x = _features(n=2000, p=784)
        assert predictor.multiply_adds(st.spec.widths, median_model(st)) == 125 + 16 * 3
        assert predictor.multiply_adds(st.spec.widths) == 784 * 16 + 16 * 3
        pin_cores(monkeypatch, cores=2, openblas="1")
        predict(st, x, PredictionMode("med", "mea"))
        assert started == []
        predict(st, x, PredictionMode("all", "mea"))
        assert len(started) == 1

    def test_sparse_median_builds_one_pattern_per_run(self, monkeypatch, started):
        # 1,000 rows are 4 blocks: k runs at k cores, each building its own plan.
        st = _sparse_state()
        x = _features(n=1000, p=784)
        monkeypatch.setattr(predictor, "SPLIT_MULTIPLY_ADDS", 0)
        built = []
        init = predictor._KeptWeights.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(predictor._KeptWeights, "__init__", counting)
        got = []
        for cores in (1, 2, 3):
            pin_cores(monkeypatch, cores=cores, openblas="1")
            got.append(predict(st, x, PredictionMode("med", "mea")).probs.tobytes())
            assert (len(started), len(built)) == (cores - 1, cores)
            started.clear()
            built.clear()
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("gamma", ["all", "med"])
    def test_non_finite_row_of_the_second_run_raises_after_both_threads(
            self, monkeypatch, started, gamma):
        st = _varied_state(Family.MF, 0, 95, (784, 64, 32, 10))
        x = _features(n=1000, p=784)
        x[700, 5] = np.inf  # run 1 holds blocks 2 and 3, rows 512-999
        pin_cores(monkeypatch, cores=2, openblas="1")
        with pytest.raises(NumericError, match="non-finite activations at transition 0"):
            predict(st, x, PredictionMode(gamma, "mea"))
        assert len(started) == 1
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("family,rank", ALL_FAMILIES)
    def test_zero_rows_give_zero_rows(self, family, rank):
        for st, mode in [(_varied_state(family, rank, 96), m) for m in _MODES] + [
                (_varied_state(family, rank, 96, fixed_dense=True),
                 PredictionMode("all", "sim", 2))]:
            res = predict(st, np.zeros((0, 6)), mode, rng=RngStream(6, 99))
            assert res.probs.shape == (0, 3), mode
