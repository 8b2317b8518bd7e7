"""Evaluation metrics: accuracy, entropy CDFs, correlations, summaries."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_state
from slabnn.errors import ConfigError, DomainError, ShapeError
from slabnn.metrics import (EntropyCdf, MetricsReport, accuracy, entropy_cdf,
                            inclusion_correlation, layer_inclusion_means,
                            summarize_runs)
from slabnn.model import BLOCK_VALUES, Family, PriorConfig
from slabnn.numkernel import RngStream, sigmoid


class TestAccuracy:
    def test_plain_counts_abstentions_as_wrong(self):
        d = np.array([0, 1, -1, 1])
        y = np.array([0, 1, 1, 0])
        assert accuracy(d, y) == 0.5

    def test_restricted_drops_abstentions(self):
        d = np.array([0, 1, -1, 1])
        y = np.array([0, 1, 1, 0])
        assert accuracy(d, y, restrict_to_classified=True) == pytest.approx(2 / 3)

    def test_all_abstained_is_none(self):
        assert accuracy([-1, -1], [0, 1], restrict_to_classified=True) is None

    def test_validation(self):
        with pytest.raises(ShapeError):
            accuracy([0, 1], [0])
        with pytest.raises(DomainError):
            accuracy([], [])


class TestLayerInclusionMeans:
    def test_bias_row_excluded(self):
        a0 = np.array([[1.0, 1.0], [0.2, 0.4], [0.6, 0.8]])
        (rho,) = layer_inclusion_means([a0])
        assert rho == pytest.approx(0.5)  # mean of the four slope entries

    def test_fixed_dense_gives_one(self):
        st = make_state(prior=PriorConfig(fixed_dense=True))
        from slabnn.model import marginal_inclusion
        rho = layer_inclusion_means(marginal_inclusion(st))
        assert rho == (1.0, 1.0)


class TestEntropyCdf:
    def test_onehot_rows_have_zero_entropy(self):
        cdf = entropy_cdf(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(cdf.values, [0.0, 0.0])
        assert cdf.median == 0.0

    def test_uniform_rows_hit_log_c(self):
        cdf = entropy_cdf(np.full((3, 4), 0.25))
        np.testing.assert_allclose(cdf.values, np.log(4.0), atol=1e-15)

    def test_frozen_binary_entropy(self):
        cdf = entropy_cdf(np.array([[0.3, 0.7]]))
        expected = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
        assert cdf.values[0] == pytest.approx(expected, abs=1e-15)

    def test_at_is_right_continuous_fraction(self):
        cdf = EntropyCdf(values=np.array([0.1, 0.2, 0.2, 0.5]))
        assert cdf.at(0.05) == 0.0
        assert cdf.at(0.2) == 0.75
        assert cdf.at(1.0) == 1.0

    def test_lower_median(self):
        assert EntropyCdf(values=np.array([1.0, 2.0, 3.0, 4.0])).median == 2.0
        assert EntropyCdf(values=np.array([1.0, 2.0, 3.0])).median == 2.0

    def test_row_sum_validated(self):
        with pytest.raises(DomainError, match="row 1"):
            entropy_cdf(np.array([[0.5, 0.5], [0.6, 0.5]]))
        with pytest.raises(DomainError):
            entropy_cdf(np.array([[1.5, -0.5]]))

    def test_non_finite_row_refused(self):
        # The first non-finite row is named, before any sign problem.
        with pytest.raises(DomainError, match=r"row 0 does not sum to 1 \(got nan\)"):
            entropy_cdf(np.array([[np.nan, np.nan], [0.5, 0.5]]))
        with pytest.raises(DomainError, match=r"row 1 does not sum to 1 \(got nan\)"):
            entropy_cdf(np.array([[0.5, 0.5], [np.nan, 1.0], [-1.0, 2.0]]))
        with pytest.raises(DomainError, match=r"row 0 does not sum to 1 \(got inf\)"):
            entropy_cdf(np.array([[np.inf, 0.0]]))

    def test_csv_format(self, tmp_path):
        cdf = entropy_cdf(np.array([[0.5, 0.5], [1.0, 0.0]]))
        path = tmp_path / "cdf.csv"
        cdf.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "entropy,cdf"
        assert len(lines) == 3
        vals = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert vals == sorted(vals)
        assert float(lines[-1].split(",")[1]) == 1.0


def _block_draws(lp, n, rng):
    """0/1 indicator draws, one ``logit_blocks`` block at a time, as int64."""
    parts = []
    for logits, _ in lp.logit_blocks(rng, n, lp.logit_factor()):
        u = rng.uniform(logits.size).reshape(logits.shape)
        parts.append(u < sigmoid(logits))
    return np.concatenate(parts).astype(np.int64)


def _exact_reference(draws):
    """Correlations from integer co-occurrence counts, one entry at a time.

    Python ints keep the numerator n*G_ij - c_i*c_j and the variances
    exact; each entry then takes one float division by s_i*s_j and is
    clipped to [-1, 1].  Constant positions are zero, the other
    diagonal entries 1.0.
    """
    n, n_w = draws.shape
    gram = (draws.T @ draws).tolist()
    counts = [gram[i][i] for i in range(n_w)]
    sd = [math.sqrt(n * c - c * c) for c in counts]
    corr = np.zeros((n_w, n_w))
    for i in range(n_w):
        for j in range(n_w):
            if sd[i] and sd[j]:
                value = (n * gram[i][j] - counts[i] * counts[j]) / (sd[i] * sd[j])
                corr[i, j] = 1.0 if i == j else min(1.0, max(-1.0, value))
    return corr, np.array([s == 0.0 for s in sd])


_FAMILIES = ((Family.MF, 0), (Family.MVN_FULL, 0), (Family.MVN_LOWRANK, 2))


def _varied_state(family, rank, seed):
    """A (20, 3) state whose layer-0 logits spread over about N(0, 1)."""
    st = make_state(family, rank=rank, seed=seed, widths=(20, 3))
    lp = st.layers[0]
    logits = lp.omega if family is Family.MF else lp.xi
    logits[...] = np.random.default_rng(seed).normal(size=logits.shape)
    return st


class TestInclusionCorrelation:
    def test_mf_draws_are_nearly_independent(self):
        st = make_state(seed=64, widths=(3, 2))
        st.layers[0].omega[...] = 0.0
        corr, constant = inclusion_correlation(st, 0, 6000, RngStream(7, 42))
        assert not np.any(constant)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.max(np.abs(off)) < 0.06
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)

    def test_shared_factor_couples_indicators(self):
        # One strong rank-1 factor drives every logit together, so hard
        # indicator draws become strongly positively correlated.
        st = make_state(Family.MVN_LOWRANK, rank=1, seed=65, widths=(3, 2))
        lp = st.layers[0]
        lp.xi[...] = 0.0
        lp.factor[...] = 8.0
        lp.log_diag[...] = np.log(1e-6)
        corr, constant = inclusion_correlation(st, 0, 4000, RngStream(8, 42))
        live = ~constant
        assert np.sum(live) >= 2
        sub = corr[np.ix_(live, live)]
        off = sub[~np.eye(sub.shape[0], dtype=bool)]
        assert np.min(off) > 0.5

    def test_constant_positions_flagged_and_zeroed(self):
        st = make_state(seed=66, widths=(3, 2))
        st.layers[0].omega[...] = 40.0  # always included
        st.layers[0].omega[0, 0] = 0.0
        corr, constant = inclusion_correlation(st, 0, 200, RngStream(9, 42))
        assert np.sum(~constant) == 1
        idx = np.nonzero(constant)[0]
        assert np.all(corr[idx, :] == 0.0) and np.all(corr[:, idx] == 0.0)

    def test_mf_blocks_match_one_shot_draw(self):
        # Mean field runs through the blocked loop of the correlated
        # families; it must draw what one uniform call for every sample
        # would, bit for bit, and leave the stream at the same place.
        st = make_state(seed=67, widths=(3, 2))
        lp = st.layers[0]
        lp.omega[...] = np.random.default_rng(67).normal(size=lp.shape)
        n_w = lp.n_weights
        n_samples = 2 * (BLOCK_VALUES // n_w) + 3  # two full blocks and 3 rows
        rng, ref = RngStream(11, 42), RngStream(11, 42)
        corr, constant = inclusion_correlation(st, 0, n_samples, rng)
        u = ref.uniform(n_samples * n_w).reshape(n_samples, n_w)
        draws = (u < sigmoid(lp.omega).reshape(-1)).astype(np.int64)
        assert not np.any(constant)
        np.testing.assert_array_equal(corr, _exact_reference(draws)[0])
        np.testing.assert_array_equal(rng.state_words(), ref.state_words())

    @pytest.mark.parametrize("family,rank", _FAMILIES)
    def test_live_diagonal_is_exactly_one(self, family, rank):
        st = _varied_state(family, rank, 70)
        corr, constant = inclusion_correlation(st, 0, 500, RngStream(15, 42))
        assert not np.all(constant)
        np.testing.assert_array_equal(np.diag(corr), np.where(constant, 0.0, 1.0))

    @pytest.mark.parametrize("family,rank", _FAMILIES[1:])
    def test_counts_match_exact_reference_across_flushes(self, family, rank):
        # 63 weights: the count buffer holds 8 * 2**16 // 63 = 8322 rows,
        # so these draws flush it twice before the last, partial time.
        st = _varied_state(family, rank, 71)
        n_samples = 2 * (8 * BLOCK_VALUES // 63) + 100
        corr, constant = inclusion_correlation(st, 0, n_samples, RngStream(16, 42))
        draws = _block_draws(st.layers[0], n_samples, RngStream(16, 42))
        ref_corr, ref_constant = _exact_reference(draws)
        np.testing.assert_array_equal(constant, ref_constant)
        np.testing.assert_array_equal(corr, ref_corr)
        live = np.flatnonzero(~constant)
        expected = np.corrcoef(draws[:, live], rowvar=False)
        np.testing.assert_allclose(corr[np.ix_(live, live)], expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("family,rank", _FAMILIES)
    def test_stream_ends_after_block_draws(self, family, rank):
        st = _varied_state(family, rank, 72)
        rng, ref = RngStream(17, 42), RngStream(17, 42)
        inclusion_correlation(st, 0, 3000, rng)
        _block_draws(st.layers[0], 3000, ref)
        np.testing.assert_array_equal(rng.state_words(), ref.state_words())

    def test_peak_memory_does_not_grow_with_draws(self):
        # 63 weights at 5000 draws: the Gram, the result and its
        # temporary, and the 5000-row buffer take 20 * 63**2 + 4 * 5000 * 63
        # bytes; at most six block-sized float64 arrays (8 * 2**16 bytes
        # each) are live at once, and 2**17 bytes cover the logit factor
        # and small arrays.  Keeping the draw matrix and three copies of
        # it would need 4 * 5000 * 63 * 8 = 10,080,000 bytes.
        st = _varied_state(Family.MVN_FULL, 0, 73)
        bound = 20 * 63**2 + 4 * 5000 * 63 + 6 * 8 * BLOCK_VALUES + 2**17
        tracemalloc.start()
        try:
            inclusion_correlation(st, 0, 5000, RngStream(18, 42))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_one_block_at_a_time(self):
        # (20, 3) is 63 weights: the Gram, the result and its temporary,
        # and the 5000-row buffer take 20 * 63**2 + 4 * 5000 * 63 bytes.
        # Four block-sized float64 arrays (8 * 2**16 bytes each) are the
        # most one block needs: its logits and noise, which the generator
        # holds until it draws the next block, its uniforms and their
        # sigmoid.  Keeping a block's arrays while the next is drawn
        # holds six.  2**17 bytes cover the logit factor and small arrays.
        st = _varied_state(Family.MVN_FULL, 0, 73)
        bound = 20 * 63**2 + 4 * 5000 * 63 + 4 * 8 * BLOCK_VALUES + 2**17
        tracemalloc.start()
        try:
            inclusion_correlation(st, 0, 5000, RngStream(18, 42))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_fixed_dense_is_all_constant(self):
        st = make_state(prior=PriorConfig(fixed_dense=True), widths=(3, 2))
        rng = RngStream(10, 42)
        corr, constant = inclusion_correlation(st, 0, 50, rng)
        assert np.all(constant)
        np.testing.assert_array_equal(corr, 0.0)
        np.testing.assert_array_equal(rng.state_words(), RngStream(10, 42).state_words())

    @staticmethod
    def _physical_memory(monkeypatch, nbytes):
        monkeypatch.setattr("slabnn.model.os.sysconf",
                            {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}.get)

    def test_bytes_bound_before_any_draw(self, monkeypatch):
        # n_w = 8 weights, 10 samples: the float32 Gram, the float64
        # result and its temporary, and a 10-row float32 buffer,
        # 20 * 64 + 4 * 10 * 8 = 1600 bytes.
        st = make_state(seed=68, widths=(3, 2))
        self._physical_memory(monkeypatch, 1600)
        inclusion_correlation(st, 0, 10, RngStream(12, 42))
        self._physical_memory(monkeypatch, 1599)
        rng, ref = RngStream(12, 42), RngStream(12, 42)
        message = ("the layer 0 inclusion correlations need about 1600 bytes, "
                   "over the 1599 bytes of physical memory")
        with pytest.raises(ConfigError, match=message):
            inclusion_correlation(st, 0, 10, rng)
        # an absurd sample count is refused before any draw, not in numpy
        big = 12345678901234567890
        with pytest.raises(ConfigError, match=f"exact up to 2\\*\\*24 samples, got {big}"):
            inclusion_correlation(st, 0, big, rng)
        np.testing.assert_array_equal(rng.state_words(), ref.state_words())

    def test_more_than_exact_float32_counts_is_refused(self, monkeypatch):
        # Counts past 2**24 would round in float32.  With 1 GiB of
        # memory the draws of any version that kept them would not fit
        # either, so no version draws here.
        st = make_state(seed=68, widths=(3, 2))
        self._physical_memory(monkeypatch, 2**30)
        rng, ref = RngStream(12, 42), RngStream(12, 42)
        message = (f"^the layer 0 inclusion correlations count in float32, "
                   f"exact up to 2\\*\\*24 samples, got {2**24 + 1}$")
        with pytest.raises(ConfigError, match=message):
            inclusion_correlation(st, 0, 2**24 + 1, rng)
        np.testing.assert_array_equal(rng.state_words(), ref.state_words())

    def test_desk_scale_layer_zero_is_refused(self, monkeypatch):
        # 784-64-32-10: layer 0 holds 785 x 64 = 50,240 weights, so the
        # result alone is a 50,240 x 50,240 matrix (about 20 GB); the
        # buffer holds 8 * 2**16 // 50,240 = 10 rows.
        st = make_state(seed=69, widths=(784, 64, 32, 10))
        self._physical_memory(monkeypatch, 16 * 2**30)
        n_w = 785 * 64
        with pytest.raises(ConfigError, match=f"need about {20 * n_w**2 + 4 * 10 * n_w} "
                                              f"bytes, over the {16 * 2**30} bytes"):
            inclusion_correlation(st, 0, 1000, RngStream(13, 42))

    def test_validation(self):
        st = make_state(widths=(3, 2))
        with pytest.raises(DomainError):
            inclusion_correlation(st, 5, 100, RngStream(0, 0))
        with pytest.raises(DomainError):
            inclusion_correlation(st, 0, 1, RngStream(0, 0))


class TestMetricsReport:
    def _reports(self):
        return [
            MetricsReport("run", 1, all_class_accuracy=0.9, doubt_accuracy=0.95,
                          doubt_classified=80, density=0.4, layer_rho=(0.3, 0.5)),
            MetricsReport("run", 2, all_class_accuracy=0.8, doubt_accuracy=0.9,
                          doubt_classified=70, density=0.5, layer_rho=(0.2, 0.6)),
            MetricsReport("run", 3, all_class_accuracy=0.85, doubt_accuracy=None,
                          doubt_classified=None, density=0.45, layer_rho=(0.4, 0.4)),
        ]

    def test_kv_text_shape(self):
        text = self._reports()[0].to_kv_text()
        lines = dict(ln.split("=", 1) for ln in text.strip().splitlines())
        assert lines["run_id"] == "run"
        assert lines["seed"] == "1"
        assert float(lines["all_class_accuracy"]) == 0.9
        assert lines["layer_rho"] == "0.3;0.5"

    def test_none_fields_write_empty_values(self):
        text = MetricsReport("r", 1).to_kv_text()
        assert "all_class_accuracy=\n" in text

    def test_summary_uses_lower_median(self):
        summary = summarize_runs(self._reports())
        med, lo, hi = summary["all_class_accuracy"]
        assert (med, lo, hi) == (0.85, 0.8, 0.9)
        # only two runs carry doubt_accuracy: lower median is the min
        assert summary["doubt_accuracy"] == (0.9, 0.9, 0.95)
        assert summary["layer_rho_0"] == (0.3, 0.2, 0.4)

    def test_summary_needs_reports(self):
        with pytest.raises(DomainError):
            summarize_runs([])

    def test_csv_includes_all_metrics_once(self, tmp_path):
        path = tmp_path / "m.csv"
        MetricsReport.write_csv(path, self._reports())
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["run_id", "seed"]
        assert header.count("density") == 1
        assert len(lines) == 4
        # run 3 has empty doubt columns
        row3 = lines[3].split(",")
        assert row3[header.index("doubt_accuracy")] == ""
