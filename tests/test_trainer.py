"""Optimizer, phase schedule, and full training loop behavior."""

import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_batch, make_state, pin_cores, write_tensors
from slabnn import trainer
from slabnn.checkpoint import load_checkpoint, read_manifest
from slabnn.dataio import synth_clusters
from slabnn.elbo import Batch, elbo_gradient
from slabnn.errors import ConfigError, DomainError, NumericError, ShapeError
from slabnn.model import (GROUPS, PARAM_GROUP, Family, NetworkSpec, PriorConfig,
                          init_state, median_model)
from slabnn.numkernel import RngStream, sigmoid
from slabnn.trainer import (HYPER_CLAMP, MAX_DRAWS, STOCK_LR, STREAM_INIT, AdamMoments,
                            PhaseConfig, TrainingAborted, adam_step, default_phases,
                            run_phase, train, validate_schedule)


class TestPhaseConfig:
    def test_defaults_cover_all_phases_in_order(self):
        for family in (Family.MF, Family.MVN_FULL, Family.MVN_LOWRANK):
            phases = default_phases(family, posttrain_epochs=5)
            assert [p.name for p in phases] == ["pretrain", "train", "posttrain"]
            assert validate_schedule(phases) == []
            assert phases[-1].gamma_policy == "median_fixed"
            # Each phase holds its own copy of the stock table's entry.
            for p in phases:
                assert p.lr == STOCK_LR[family][p.name] and p.lr is not STOCK_LR[family][p.name]
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
        for delta in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                PhaseConfig("train", epochs=1, lr={"weights": 0.1}, delta=delta)
        for step in (-0.1, np.nan, np.inf):
            with pytest.raises(ConfigError):
                PhaseConfig("train", epochs=1, lr={"weights": step})
        with pytest.raises(ConfigError):
            PhaseConfig("train", epochs=1, lr={"weights": 0.1}, draws=0)
        with pytest.raises(ConfigError):
            PhaseConfig("train", epochs=1, lr={"weights": 0.1}, batch_size=0)
        with pytest.raises(ConfigError):
            PhaseConfig("train", epochs=1, lr={"weights": 0.1}, kl_mode="mc")
        with pytest.raises(ConfigError):
            PhaseConfig("posttrain", epochs=1, lr={"weights": 0.1},
                        gamma_policy="frozen")

    @pytest.mark.parametrize("name,lr,policy,expected", [
        ("pretrain", dict.fromkeys(GROUPS, 0.1), "resample", []),
        ("train", {"weights": 0.1, "omega": 0.1, "xi": 0.1, "cov": 0.1, "psi": 0.0},
         "resample", []),
        ("train", {"weights": 0.1, "sigma2": 1e-3}, "resample",
         ["train: group sigma2 may only move during pretrain"]),
        ("posttrain", {"weights": 0.1, "beta_hyper": 1e-5, "omega": 0.0, "cov": 0.1},
         "resample", ["posttrain: group beta_hyper may only move during pretrain",
                      "posttrain: structure group cov must be frozen"]),
        ("train", {"weights": 0.1}, "median_fixed",
         ["median_fixed is only valid in the posttrain phase"]),
    ])
    def test_phase_group_rules(self, name, lr, policy, expected):
        phase = PhaseConfig("train", epochs=1, lr={"weights": 0.1})
        phase.name, phase.lr, phase.gamma_policy = name, lr, policy
        assert phase.validate() == expected
        if expected:
            with pytest.raises(ConfigError, match=re.escape(expected[0])):
                PhaseConfig(name, epochs=1, lr=lr, gamma_policy=policy)

    def test_draws_bounded_above(self):
        phase = PhaseConfig("train", epochs=1, lr={"weights": 0.1}, draws=MAX_DRAWS)
        assert MAX_DRAWS >= 64
        assert phase.validate() == []
        phase.draws = 12345678901234567890
        assert phase.validate() == [f"train: draws must be between 1 and {MAX_DRAWS}, "
                                    f"got 12345678901234567890"]
        with pytest.raises(ConfigError, match="draws"):
            PhaseConfig("train", epochs=1, lr={"weights": 0.1}, draws=MAX_DRAWS + 1)


class TestAdamStep:
    def test_matches_hand_recursion(self):
        # Oracle: run the textbook recursion by hand for three steps on
        # a copy of the gradients and compare parameters bitwise-close.
        st = make_state(seed=31, widths=(3, 2, 2))
        batch = make_batch(n=6, p=3, classes=2, seed=32)
        moments = AdamMoments()
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
        moments = AdamMoments()
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
        moments = AdamMoments()
        _, grads = elbo_gradient(st, batch, 1, 0.1, RngStream(39, 2))
        adam_step(st, grads, moments, {"weights": 0.01})
        assert np.any(moments.m[(0, "omega")] != 0.0)

    def test_hyper_shapes_clamped(self):
        st = make_state(seed=40)
        moments = AdamMoments()
        batch = make_batch(seed=41)
        _, grads = elbo_gradient(st, batch, 1, 0.1, RngStream(42, 2),
                                 phase="pretrain")
        grads.get(0, "a_beta")[...] = 1e9
        adam_step(st, grads, moments, {"beta_hyper": 1e6})
        assert st.layers[0].a_beta[0] <= HYPER_CLAMP[1]

    def test_nonfinite_gradient_raises(self):
        # A refused step changes nothing.  The NaN sits in layer 1, after
        # every layer-0 array in scan order, so nothing of layer 0 may
        # have stepped when it raises.
        st = make_state(seed=50, widths=(3, 2, 2))
        moments = AdamMoments()
        batch = make_batch(n=6, p=3, classes=2, seed=51)
        lr = {"weights": 0.01, "omega": 0.01}
        rng = RngStream(52, 2)
        adam_step(st, elbo_gradient(st, batch, 1, 0.1, rng)[1], moments, lr)
        _, grads = elbo_gradient(st, batch, 1, 0.1, rng)
        grads.get(1, "kappa")[0, 0] = np.nan
        params = [a.copy() for _, _, a in st.param_items()]
        m = {key: a.copy() for key, a in moments.m.items()}
        v = {key: a.copy() for key, a in moments.v.items()}
        with pytest.raises(NumericError, match="layer 1 parameter kappa"):
            adam_step(st, grads, moments, lr)
        assert moments.t == 1
        for before, (l, name, after) in zip(params, st.param_items()):
            assert after.tobytes() == before.tobytes(), f"{l}/{name}"
        for saved, live in ((m, moments.m), (v, moments.v)):
            assert saved.keys() == live.keys()
            for key, arr in live.items():
                assert arr.tobytes() == saved[key].tobytes(), key
        # A refused first step allocates no moment either.
        fresh = AdamMoments()
        with pytest.raises(NumericError, match="layer 1 parameter kappa"):
            adam_step(st, grads, fresh, lr)
        assert fresh.t == 0 and fresh.m == {} and fresh.v == {}

    def test_moments_allocated_on_first_filled_gradient(self, monkeypatch):
        # A median_fixed posttrain differentiates the slabs only, so on a
        # 60-15-5 mvn_full state (a 915-weight layer) no chol_raw or xi
        # pair exists; allocating them would hold 6.7 MB of zeros.
        made = []

        class Spy(AdamMoments):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr("slabnn.trainer.AdamMoments", Spy)
        st = make_state(Family.MVN_FULL, seed=53, widths=(60, 15, 5))
        for lp in st.layers:
            lp.xi[...] = np.random.default_rng(53).normal(size=lp.xi.size)
        ds = synth_clusters(n=40, p=60, n_classes=5, seed=54)
        data = Batch(ds.features, ds.labels, n_total=ds.n)
        phase = PhaseConfig("posttrain", epochs=1, lr={"weights": 0.01},
                            batch_size=20, gamma_policy="median_fixed")
        run_phase(st, data, phase, RngStream(55, 2), RngStream(55, 1))
        [moments] = made
        assert moments.t == 2
        assert sorted(moments.m) == sorted(moments.v) == [
            (l, name) for l in range(2) for name in ("kappa", "rho")]


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
            # 100 steps of earlier phases
            run_phase(st, data, bad, RngStream(7, 2), RngStream(7, 1), first_step=100)
        k = len(err.value.records)
        assert k < 8
        # the message names the epoch, the 1-based minibatch within it
        # (40 rows at 16 per batch: three minibatches) and the run's step
        found = re.search(r"train epoch (\d+) minibatch (\d+) \(global step (\d+)\)",
                          str(err.value))
        assert found is not None, str(err.value)
        epoch, batch, step = (int(g) for g in found.groups())
        assert epoch == k + 1 and 1 <= batch <= 3
        assert step == 100 + 3 * k + batch
        replay = PhaseConfig("train", epochs=k, lr={"weights": 1e18},
                             batch_size=16)
        run_phase(start, data, replay, RngStream(7, 2), RngStream(7, 1))
        for (l, name, a), (_, _, b) in zip(st.param_items(),
                                           start.param_items()):
            np.testing.assert_array_equal(a, b, err_msg=f"{l}/{name}")

    def test_median_fixed_posttrain_freezes_structure(self):
        st = make_state(seed=49, widths=(3, 2))
        st.layers[0].omega[...] = np.linspace(-2, 2, 8).reshape(4, 2)
        masks_before = median_model(st)
        ds = synth_clusters(n=40, p=3, n_classes=2, seed=4)
        data = Batch(ds.features, ds.labels, n_total=ds.n)
        phase = PhaseConfig("posttrain", epochs=3, lr={"weights": 0.01},
                            batch_size=20, gamma_policy="median_fixed")
        omega_before = st.layers[0].omega.copy()
        run_phase(st, data, phase, RngStream(8, 2), RngStream(8, 1))
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

    def test_checkpoints_hold_sample_and_shuffle_streams(self, tmp_path):
        ds = synth_clusters(n=30, p=3, n_classes=2, seed=6)
        train(NetworkSpec((3, 2)), PriorConfig(), Family.MF, _tiny_phases(epochs=1),
              ds.features, ds.labels, seed=9, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_final.lbnn"
        got = load_checkpoint(path)
        assert sorted(got.rng_words) == ["sample", "shuffle"]
        # Older files also carry rng/alpha, a stream nothing drew from; they load.
        tensors = read_manifest(path)
        tensors["rng/alpha"] = RngStream(9, 3).state_words().view(np.float64)
        write_tensors(path, tensors)
        old = load_checkpoint(path)
        assert sorted(old.rng_words) == ["alpha", "sample", "shuffle"]
        assert old.counters == got.counters
        for (_, _, a), (_, _, b) in zip(old.state.param_items(), got.state.param_items()):
            assert a.tobytes() == b.tobytes()

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

    @staticmethod
    def _abort_at_step_six(tmp_path, monkeypatch):
        # 40 rows at 20 per batch: two steps per epoch.  The sixth step,
        # train epoch 1 minibatch 2, fails after a 4-step pretrain.
        calls = [0]

        def failing(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 6:
                raise NumericError("injected")
            return elbo_gradient(*args, **kwargs)

        monkeypatch.setattr("slabnn.trainer.elbo_gradient", failing)
        ds = synth_clusters(n=40, p=3, n_classes=2, seed=11)
        lr = {"weights": 1e-2, "omega": 1e-2}
        phases = [PhaseConfig("pretrain", 2, lr, batch_size=20),
                  PhaseConfig("train", 2, lr, batch_size=20)]
        with pytest.raises(TrainingAborted,
                           match=r"train epoch 1 minibatch 2 \(global step 6\)"):
            train(NetworkSpec((3, 2)), PriorConfig(), Family.MF, phases,
                  ds.features, ds.labels, seed=2, checkpoint_dir=tmp_path)

    def test_abort_checkpoints_count_completed_epochs_only(self, tmp_path, monkeypatch):
        # The rolled-back state holds the pretrain's parameters and counts.
        self._abort_at_step_six(tmp_path, monkeypatch)
        pre = load_checkpoint(tmp_path / "checkpoint_pretrain.lbnn")
        assert pre.counters == {"phases_completed": 1, "epochs": 2, "steps": 4}
        for tag in ("train", "final"):
            got = load_checkpoint(tmp_path / f"checkpoint_{tag}.lbnn")
            assert got.counters == pre.counters, tag
            for (l, name, a), (_, _, b) in zip(got.state.param_items(),
                                               pre.state.param_items()):
                np.testing.assert_array_equal(a, b, err_msg=f"{tag} {l}/{name}")

    def test_abort_checkpoints_rewind_stream_positions(self, tmp_path, monkeypatch):
        # The abort checkpoint holds the stream positions of the last
        # completed epoch, so a resume from it replays the run.
        self._abort_at_step_six(tmp_path, monkeypatch)
        pre = load_checkpoint(tmp_path / "checkpoint_pretrain.lbnn").rng_words
        got = load_checkpoint(tmp_path / "checkpoint_train.lbnn").rng_words
        assert sorted(got) == sorted(pre) == ["sample", "shuffle"]
        for label in pre:
            np.testing.assert_array_equal(got[label], pre[label], err_msg=label)

    def test_fixed_dense_freezes_structure_and_psi_groups(self):
        # The stock MF step sizes move omega and the psi groups; a
        # fixed_dense prior drops them, so they keep their initial bits.
        ds = synth_clusters(n=40, p=3, n_classes=2, seed=12)
        spec = NetworkSpec((3, 2, 2))
        prior = PriorConfig(fixed_dense=True)
        phases = default_phases(Family.MF, pretrain_epochs=2, train_epochs=2)
        assert {"omega", "psi", "psi_hyper"} <= set(phases[0].lr)
        state, _ = train(spec, prior, Family.MF, phases, ds.features, ds.labels, seed=6)
        start = init_state(spec, prior, Family.MF, RngStream(6, STREAM_INIT))
        for (l, name, after), (_, _, before) in zip(state.param_items(),
                                                    start.param_items()):
            if PARAM_GROUP[name] in ("omega", "psi", "psi_hyper"):
                np.testing.assert_array_equal(after, before, err_msg=f"{l}/{name}")
        assert not np.array_equal(state.layers[0].kappa, start.layers[0].kappa)

    @pytest.mark.parametrize("family", [Family.MF, Family.MVN_FULL])
    def test_resample_posttrain_keeps_structure_bits(self, tmp_path, family):
        # A resample posttrain draws indicators as usual, but its frozen
        # structure groups keep the bits the train phase left.
        ds = synth_clusters(n=40, p=3, n_classes=2, seed=13)
        phases = default_phases(family, pretrain_epochs=0, train_epochs=2,
                                posttrain_epochs=3)
        phases = [replace(p, batch_size=20, gamma_policy="resample") for p in phases]
        state, _ = train(NetworkSpec((3, 2, 2)), PriorConfig(), family, phases,
                         ds.features, ds.labels, seed=8, checkpoint_dir=tmp_path)
        before = load_checkpoint(tmp_path / "checkpoint_train.lbnn").state
        for (l, name, after), (_, _, was) in zip(state.param_items(),
                                                 before.param_items()):
            if PARAM_GROUP[name] in ("omega", "xi", "cov"):
                assert after.tobytes() == was.tobytes(), f"{l}/{name}"
        assert not np.array_equal(state.layers[0].kappa, before.layers[0].kappa)

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

    def test_init_tau_with_an_overflowing_square_writes_nothing(self, tmp_path):
        ds = synth_clusters(n=60, p=3, n_classes=2, seed=17)
        with pytest.raises(DomainError, match="init_tau"):
            train(NetworkSpec((3, 2)), PriorConfig(), Family.MF, _tiny_phases(), ds.features,
                  ds.labels, seed=1, init_tau=1e308, checkpoint_dir=tmp_path / "ck")
        assert not (tmp_path / "ck").exists()


def _worker_runs():
    """The five runs the epoch worker must not change, as in ``tests/same_bytes.py``."""
    def phases(family, draws=1, **train_kw):
        out = default_phases(family, pretrain_epochs=1, train_epochs=2, posttrain_epochs=1)
        return [replace(p, batch_size=20, draws=draws,
                        **(train_kw if p.name == "train" else {})) for p in out]

    return {
        "mf": (Family.MF, 0, PriorConfig(), phases(Family.MF)),
        "mf_dense": (Family.MF, 0, PriorConfig(fixed_dense=True), phases(Family.MF)[:2]),
        "full": (Family.MVN_FULL, 0, PriorConfig(),
                 phases(Family.MVN_FULL, kl_mode="sampled")),
        "lowrank4": (Family.MVN_LOWRANK, 4, PriorConfig(),
                     phases(Family.MVN_LOWRANK, draws=2)),
        "lowrank0": (Family.MVN_LOWRANK, 0, PriorConfig(), phases(Family.MVN_LOWRANK)),
    }


def _force_worker(monkeypatch, on=True):
    """Two cores at one BLAS thread, and every step above the gate (or, off, below it)."""
    pin_cores(monkeypatch, cores=2, openblas="1")
    monkeypatch.setattr(trainer, "WORKER_VALUES", 0 if on else 2**62)


def _train_files(run, ckdir):
    """``train`` on 70 rows (batches of 20, 20, 20, 10); returns (state bytes, files)."""
    family, rank, prior, phases = run
    ds = synth_clusters(n=70, p=6, n_classes=3, separation=1.0, seed=15)
    state, _ = train(NetworkSpec((6, 5, 3)), prior, family, phases, ds.features,
                     ds.labels, seed=5, rank=rank, checkpoint_dir=ckdir)
    return ([a.tobytes() for _, _, a in state.param_items()],
            {p.name: p.read_bytes() for p in sorted(ckdir.iterdir())})


class TestEpochWorker:
    """One thread per epoch draws the next step's noise and half of each ADAM step."""

    @pytest.mark.parametrize("name", sorted(_worker_runs()))
    def test_worker_runs_are_the_sequential_bytes(self, tmp_path, monkeypatch, started,
                                                  name):
        # The interpreter switches threads every microsecond, so the
        # worker's draws and ADAM halves interleave with the caller's work
        # at many points; a shared write would show in the bytes.
        run = _worker_runs()[name]
        sequential = _train_files(run, tmp_path / "sequential")
        assert started == []  # a 6-5-3 step is far below WORKER_VALUES
        _force_worker(monkeypatch)
        threads_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _train_files(run, tmp_path / "worker")
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequential
        # One worker per epoch of every phase.
        assert len(started) == sum(p.epochs for p in run[3])
        assert all(t.name.startswith("slabnn-epoch") for t in started)
        assert threading.active_count() == threads_before

    def test_adam_halves_cut_the_straddling_parameter(self):
        # 4 + 6 + 1 values: the cut at 5 falls inside the second piece.
        arrays = [np.arange(4.0).reshape(2, 2), np.arange(6.0).reshape(3, 2), np.ones(1)]
        pieces = [(a, a + 1, a + 2, a + 3, 0.1, False) for a in arrays]
        first, second = trainer._halves(pieces)
        assert [p[0].size for p in first] == [4, 1] and [p[0].size for p in second] == [5, 1]
        for half in (first[1], second[0]):
            for view, whole in zip(half[:4], pieces[1][:4]):
                assert np.shares_memory(view, whole)
        assert second[1] is pieces[2]

    def test_draws_run_one_ahead_of_their_use(self):
        # While the caller holds result i, draw i + 1 may run but no later
        # draw has started, so at most two draws' noise are alive at once.
        calls = []

        def draw():
            calls.append(None)
            return len(calls) - 1

        got = []
        with ThreadPoolExecutor(1) as worker:
            for i, result in enumerate(trainer._drawn_ahead(worker, draw, 5)):
                got.append(result)
                assert len(calls) <= i + 2
        assert got == [0, 1, 2, 3, 4] and len(calls) == 5

    @staticmethod
    def _nan_gradient_at(monkeypatch, step):
        # The gradient of global step ``step`` holds a NaN, so its
        # adam_step refuses it after the next step's draw went to the worker.
        calls = [0]

        def poisoned(*args, **kwargs):
            value, grads = elbo_gradient(*args, **kwargs)
            calls[0] += 1
            if calls[0] == step:
                grads.get(1, "kappa")[0, 0] = np.nan
            return value, grads

        monkeypatch.setattr(trainer, "elbo_gradient", poisoned)

    def test_abort_matches_the_sequential_abort(self, tmp_path, monkeypatch, started):
        # Four steps per epoch after a one-epoch pretrain: step 7 is train
        # epoch 1 minibatch 3, and the worker has been handed step 8's draw.
        run = _worker_runs()["lowrank4"]
        got = []
        for on in (False, True):
            _force_worker(monkeypatch, on)
            self._nan_gradient_at(monkeypatch, 7)
            ckdir = tmp_path / f"worker={on}"
            with pytest.raises(TrainingAborted) as err:
                _train_files(run, ckdir)
            files = {p.name: p.read_bytes() for p in sorted(ckdir.iterdir())}
            words = load_checkpoint(ckdir / "checkpoint_final.lbnn").rng_words
            got.append((str(err.value), files, {k: v.tobytes() for k, v in words.items()}))
            assert len(started) == (2 if on else 0)
        assert got[0] == got[1]
        assert got[0][0].startswith("train epoch 1 minibatch 3 (global step 7) aborted: "
                                    "non-finite gradient for layer 1 parameter kappa")

    def test_other_errors_join_the_worker(self, tmp_path, monkeypatch, started):
        calls = [0]

        def failing(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 3:
                raise RuntimeError("injected")
            return elbo_gradient(*args, **kwargs)

        _force_worker(monkeypatch)
        monkeypatch.setattr(trainer, "elbo_gradient", failing)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            _train_files(_worker_runs()["mf"], tmp_path)
        assert len(started) == 1
        assert not started[0].is_alive()
        assert threading.active_count() == threads_before

    def test_no_worker_with_unpinned_blas_or_a_small_step(self, monkeypatch, started):
        ds = synth_clusters(n=40, p=3, n_classes=2, seed=16)
        phases = _tiny_phases(epochs=2)
        monkeypatch.setattr(trainer, "WORKER_VALUES", 0)
        pin_cores(monkeypatch, cores=2)  # BLAS not pinned: it fills the cores
        train(NetworkSpec((3, 2)), PriorConfig(), Family.MF, phases, ds.features,
              ds.labels, seed=1)
        pin_cores(monkeypatch, cores=2, openblas="2")
        train(NetworkSpec((3, 2)), PriorConfig(), Family.MF, phases, ds.features,
              ds.labels, seed=1)
        assert started == []
        # 3-2 draws 16 and updates 24 values a step.
        pin_cores(monkeypatch, cores=2, openblas="1")
        monkeypatch.setattr(trainer, "WORKER_VALUES", 41)
        train(NetworkSpec((3, 2)), PriorConfig(), Family.MF, phases, ds.features,
              ds.labels, seed=1)
        assert started == []
        monkeypatch.setattr(trainer, "WORKER_VALUES", 40)
        train(NetworkSpec((3, 2)), PriorConfig(), Family.MF, phases, ds.features,
              ds.labels, seed=1)
        assert len(started) == 2

    def test_non_finite_features_refused_before_any_work(self, tmp_path, monkeypatch,
                                                          started):
        ds = synth_clusters(n=60, p=3, n_classes=2, seed=17)
        x = ds.features.copy()
        x[37, 1] = np.nan
        x[41, 0] = np.inf

        def no_init(*args, **kwargs):
            raise AssertionError("init_state ran")

        monkeypatch.setattr(trainer, "init_state", no_init)
        _force_worker(monkeypatch)
        with pytest.raises(DomainError, match=r"^features must be finite; row 37 is not$"):
            train(NetworkSpec((3, 2)), PriorConfig(), Family.MF, _tiny_phases(), x,
                  ds.labels, seed=1, checkpoint_dir=tmp_path / "ck")
        assert not (tmp_path / "ck").exists()
        assert started == []

    @pytest.mark.parametrize("case", ["labels", "width"])
    def test_bad_labels_and_width_refused_before_any_work(self, case, tmp_path,
                                                          monkeypatch, started):
        ds = synth_clusters(n=60, p=3, n_classes=2, seed=17)
        x, y = ds.features, ds.labels
        if case == "labels":
            y = y + 5
            error, text = DomainError, r"^labels must be below the class count 2$"
        else:
            x = x[:, :2]
            error, text = ShapeError, r"^features must be \(N, 3\), got \(60, 2\)$"
        calls = []
        init_state = trainer.init_state

        def counting(*args, **kwargs):
            calls.append(1)
            return init_state(*args, **kwargs)

        monkeypatch.setattr(trainer, "init_state", counting)
        _force_worker(monkeypatch)
        with pytest.raises(error, match=text):
            train(NetworkSpec((3, 2)), PriorConfig(), Family.MF, _tiny_phases(), x, y,
                  seed=1, checkpoint_dir=tmp_path / "ck")
        assert calls == []
        assert not (tmp_path / "ck").exists()
        assert started == []
