"""Optimizer, phase schedule, and full training loop behavior."""

import json

import numpy as np
import pytest

from conftest import make_batch, make_state
from slabnn.checkpoint import load_checkpoint
from slabnn.dataio import synth_clusters
from slabnn.elbo import Batch, elbo_gradient
from slabnn.errors import ConfigError, NumericError
from slabnn.model import Family, NetworkSpec, PriorConfig, init_state, median_model
from slabnn.numkernel import RngStream, sigmoid
from slabnn.trainer import (GROUPS, HYPER_CLAMP, PARAM_GROUP, STREAM_INIT,
                            AdamMoments, PhaseConfig, TrainingAborted,
                            adam_step, default_phases, run_phase, train,
                            validate_schedule)


class TestPhaseConfig:
    def test_defaults_cover_all_phases_in_order(self):
        for family in (Family.MF, Family.MVN_FULL, Family.MVN_LOWRANK):
            phases = default_phases(family, posttrain_epochs=5)
            assert [p.name for p in phases] == ["pretrain", "train", "posttrain"]
            assert validate_schedule(phases) == []
            # posttrain is opt-in
            assert [p.name for p in default_phases(family)] == ["pretrain", "train"]

    def test_validation_collects_problems(self):
        with pytest.raises(ConfigError) as err:
            PhaseConfig("warmup", epochs=-1, lr={"weights": 0.1})
        msg = str(err.value)
        assert "warmup" in msg and "epochs" in msg

    def test_bad_lr_group_rejected(self):
        with pytest.raises(ConfigError):
            PhaseConfig("train", epochs=1, lr={"momentum": 0.1})

    def test_schedule_order_enforced(self):
        a = PhaseConfig("train", epochs=1, lr={"weights": 0.1})
        b = PhaseConfig("pretrain", epochs=1, lr={"weights": 0.1})
        assert any("order" in p for p in validate_schedule([a, b]))
        assert any("duplicate" in p for p in validate_schedule([a, a]))
        assert validate_schedule([]) == ["schedule needs at least one phase"]

    def test_parameter_ranges(self):
        with pytest.raises(ConfigError):
            PhaseConfig("train", epochs=1, lr={"weights": 0.1}, delta=0.0)
        with pytest.raises(ConfigError):
            PhaseConfig("train", epochs=1, lr={"weights": 0.1}, draws=0)
        with pytest.raises(ConfigError):
            PhaseConfig("train", epochs=1, lr={"weights": 0.1}, batch_size=0)
        with pytest.raises(ConfigError):
            PhaseConfig("train", epochs=1, lr={"weights": 0.1}, kl_mode="mc")
        with pytest.raises(ConfigError):
            PhaseConfig("posttrain", epochs=1, lr={"weights": 0.1},
                        gamma_policy="frozen")


class TestAdamStep:
    def test_matches_hand_recursion(self):
        # Oracle: run the textbook recursion by hand for three steps on
        # a copy of the gradients and compare parameters bitwise-close.
        st = make_state(seed=31, widths=(3, 2, 2))
        batch = make_batch(n=6, p=3, classes=2, seed=32)
        moments = AdamMoments(st)
        lr = {g: 0.01 for g in GROUPS}
        kappa0 = st.layers[0].kappa.copy()
        m = np.zeros_like(kappa0)
        v = np.zeros_like(kappa0)
        expected = kappa0.copy()
        rng = RngStream(33, 2)
        for t in range(1, 4):
            _, grads = elbo_gradient(st, batch, 1, 0.1, rng)
            g = grads.get(0, "kappa").copy()
            adam_step(st, grads, moments, lr)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            expected += 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(st.layers[0].kappa, expected, rtol=1e-12)

    def test_zero_lr_leaves_parameters_bit_identical(self):
        st = make_state(seed=34)
        batch = make_batch(seed=35)
        moments = AdamMoments(st)
        lr = {"weights": 0.01}  # every other group stays frozen
        before = {(l, n): a.copy() for l, n, a in st.param_items()}
        _, grads = elbo_gradient(st, batch, 1, 0.1, RngStream(36, 2))
        adam_step(st, grads, moments, lr)
        for l, name, arr in st.param_items():
            if PARAM_GROUP[name] == "weights":
                assert not np.array_equal(arr, before[(l, name)])
            else:
                np.testing.assert_array_equal(arr, before[(l, name)])

    def test_moments_accumulate_even_when_lr_zero(self):
        # Freezing a group does not freeze its moment history.
        st = make_state(seed=37)
        batch = make_batch(seed=38)
        moments = AdamMoments(st)
        _, grads = elbo_gradient(st, batch, 1, 0.1, RngStream(39, 2))
        adam_step(st, grads, moments, {"weights": 0.01})
        assert np.any(moments.m[(0, "omega")] != 0.0)

    def test_hyper_shapes_clamped(self):
        st = make_state(seed=40)
        moments = AdamMoments(st)
        batch = make_batch(seed=41)
        _, grads = elbo_gradient(st, batch, 1, 0.1, RngStream(42, 2),
                                 phase="pretrain")
        grads.get(0, "a_beta")[...] = 1e9
        adam_step(st, grads, moments, {"beta_hyper": 1e6})
        assert st.layers[0].a_beta[0] <= HYPER_CLAMP[1]

    def test_nonfinite_gradient_raises(self):
        st = make_state(seed=43)
        moments = AdamMoments(st)
        batch = make_batch(seed=44)
        _, grads = elbo_gradient(st, batch, 1, 0.1, RngStream(45, 2))
        grads.get(0, "kappa")[0, 0] = np.nan
        with pytest.raises(NumericError):
            adam_step(st, grads, moments, {"weights": 0.01})


def _tiny_phases(epochs=3, **kw):
    lr = {"weights": 0.01, "omega": 0.05}
    return [PhaseConfig("train", epochs=epochs, lr=lr, batch_size=16, **kw)]


class TestRunPhase:
    def test_trace_improves_on_separable_data(self):
        ds = synth_clusters(n=120, p=4, n_classes=2, separation=4.0, seed=1)
        st = make_state(seed=46, widths=(4, 2))
        data = Batch(ds.features, ds.labels, n_total=ds.n)
        phase = PhaseConfig("train", epochs=12, lr={"weights": 0.02, "omega": 0.05},
                            batch_size=30)
        records = run_phase(st, data, phase, RngStream(1, 2), RngStream(1, 1))
        assert len(records) == 12
        assert records[-1]["elbo"] > records[0]["elbo"]
        assert all(r["phase"] == "train" for r in records)

    def test_determinism(self):
        ds = synth_clusters(n=60, p=3, n_classes=2, seed=2)
        data = Batch(ds.features, ds.labels, n_total=ds.n)

        def run():
            st = make_state(seed=47, widths=(3, 2))
            recs = run_phase(st, data, _tiny_phases()[0],
                             RngStream(5, 2), RngStream(5, 1))
            return [r["elbo"] for r in recs], st.layers[0].kappa.copy()

        (e1, k1), (e2, k2) = run(), run()
        assert e1 == e2
        np.testing.assert_array_equal(k1, k2)

    def test_abort_rolls_back_to_last_complete_epoch(self):
        # A divergent step size eventually produces non-finite numbers;
        # after the abort the state must equal a deterministic replay of
        # exactly the completed epochs.
        ds = synth_clusters(n=40, p=3, n_classes=2, seed=3)
        data = Batch(ds.features, ds.labels, n_total=ds.n)
        st = make_state(seed=48, widths=(3, 2))
        start = st.copy()
        bad = PhaseConfig("train", epochs=8, lr={"weights": 1e18}, batch_size=16)
        with pytest.raises(TrainingAborted) as err:
            run_phase(st, data, bad, RngStream(7, 2), RngStream(7, 1))
        k = len(err.value.records)
        assert k < 8
        replay = PhaseConfig("train", epochs=k, lr={"weights": 1e18},
                             batch_size=16)
        run_phase(start, data, replay, RngStream(7, 2), RngStream(7, 1))
        for (l, name, a), (_, _, b) in zip(st.param_items(),
                                           start.param_items()):
            np.testing.assert_array_equal(a, b, err_msg=f"{l}/{name}")

    def test_median_fixed_posttrain_freezes_structure(self):
        st = make_state(seed=49, widths=(3, 2))
        st.layers[0].omega[...] = np.linspace(-2, 2, 8).reshape(4, 2)
        st.bump_version()
        masks_before = median_model(st)
        ds = synth_clusters(n=40, p=3, n_classes=2, seed=4)
        data = Batch(ds.features, ds.labels, n_total=ds.n)
        phase = PhaseConfig("posttrain", epochs=3, lr={"weights": 0.01},
                            batch_size=20, gamma_policy="median_fixed")
        omega_before = st.layers[0].omega.copy()
        run_phase(st, data, phase, RngStream(8, 2), RngStream(8, 1),
                  rng_alpha=RngStream(8, 3))
        # structure untouched, median mask unchanged
        np.testing.assert_array_equal(st.layers[0].omega, omega_before)
        for a, b in zip(median_model(st), masks_before):
            np.testing.assert_array_equal(a, b)


class TestTrain:
    def test_full_run_writes_checkpoints_and_trace(self, tmp_path):
        ds = synth_clusters(n=80, p=4, n_classes=2, seed=5)
        spec = NetworkSpec((4, 3, 2))
        phases = [
            PhaseConfig("pretrain", epochs=2,
                        lr={"weights": 1e-3, "omega": 1e-2, "sigma2": 1e-3,
                            "psi": 1e-3, "psi_hyper": 1e-3, "beta_hyper": 1e-4}),
            PhaseConfig("train", epochs=3, lr={"weights": 1e-3, "omega": 1e-3}),
            PhaseConfig("posttrain", epochs=2, lr={"weights": 1e-3},
                        gamma_policy="median_fixed"),
        ]
        state, report = train(spec, PriorConfig(), Family.MF, phases,
                              ds.features, ds.labels, seed=3,
                              checkpoint_dir=tmp_path)
        assert len(report.records) == 7
        names = {p.name for p in phases}
        for name in names:
            assert (tmp_path / f"checkpoint_{name}.lbnn").exists()
        final = load_checkpoint(tmp_path / "checkpoint_final.lbnn")
        assert final.counters["phases_completed"] == 3
        assert final.counters["epochs"] == 7
        for l, name, arr in state.param_items():
            stored = dict((f"{ll}/{nn}", aa) for ll, nn, aa
                          in final.state.param_items())[f"{l}/{name}"]
            np.testing.assert_array_equal(arr, stored)
        trace = tmp_path / "trace.jsonl"
        report.to_jsonl(trace)
        lines = [json.loads(s) for s in trace.read_text().splitlines()]
        assert len(lines) == 7
        assert all("wall_seconds" not in rec for rec in lines)
        assert [rec["phase"] for rec in lines] == (
            ["pretrain"] * 2 + ["train"] * 3 + ["posttrain"] * 2)

    def test_same_seed_reproduces_bitwise(self, tmp_path):
        ds = synth_clusters(n=50, p=3, n_classes=2, seed=6)
        spec = NetworkSpec((3, 2))
        phases = _tiny_phases(epochs=2)

        def go(sub):
            d = tmp_path / sub
            d.mkdir()
            return train(spec, PriorConfig(), Family.MF, phases,
                         ds.features, ds.labels, seed=9, checkpoint_dir=d), d

        (_, _), d1 = go("a")
        (_, _), d2 = go("b")
        assert (d1 / "checkpoint_final.lbnn").read_bytes() == \
               (d2 / "checkpoint_final.lbnn").read_bytes()

    _PRIOR_PARAMS = {"learn_sigma2": ("log_sigma2",),
                     "learn_psi": ("logit_psi",),
                     "learn_hyper": ("a_beta", "b_beta", "a_psi", "b_psi")}

    @pytest.mark.parametrize("flag", sorted(_PRIOR_PARAMS))
    def test_learn_flags_freeze_their_parameters(self, flag):
        ds = synth_clusters(n=40, p=3, n_classes=2, seed=10)
        spec = NetworkSpec((3, 2))
        prior = PriorConfig(psi=0.3, **{flag: False})
        lr = {g: 1e-2 for g in GROUPS}
        state, _ = train(spec, prior, Family.MF, [PhaseConfig("pretrain", 1, lr)],
                         ds.features, ds.labels, seed=4)
        start = init_state(spec, prior, Family.MF, RngStream(4, STREAM_INIT))
        for flag_name, names in self._PRIOR_PARAMS.items():
            for name in names:
                before = getattr(start.layers[0], name)
                after = getattr(state.layers[0], name)
                if flag_name == flag:
                    np.testing.assert_array_equal(after, before)
                else:
                    assert not np.array_equal(after, before), name

    def test_zero_epoch_phase_is_allowed(self):
        ds = synth_clusters(n=30, p=3, n_classes=2, seed=7)
        spec = NetworkSpec((3, 2))
        phases = [PhaseConfig("train", epochs=0, lr={"weights": 0.01})]
        _, report = train(spec, PriorConfig(), Family.MF, phases,
                          ds.features, ds.labels, seed=1)
        assert report.records == []

    def test_sparsifying_run_lowers_density(self):
        # On small noisy data the Bernoulli KL pulls inclusion toward
        # the sparse prior, so mean alpha should drop below its 0.5 start.
        ds = synth_clusters(n=60, p=6, n_classes=2, separation=0.1, seed=8)
        spec = NetworkSpec((6, 2))
        prior = PriorConfig(psi=0.1)
        phases = [PhaseConfig("train", epochs=30,
                              lr={"weights": 0.01, "omega": 0.2}, batch_size=30)]
        state, _ = train(spec, prior, Family.MF, phases,
                         ds.features, ds.labels, seed=5)
        mean_alpha = float(np.mean(sigmoid(state.layers[0].omega)))
        assert mean_alpha < 0.35
