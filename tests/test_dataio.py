"""Data loading, generation, and splitting."""

import struct

import numpy as np
import pytest

from slabnn.dataio import (Dataset, bayes_optimal_accuracy, load_csv,
                           load_idx, split, synth_clusters, synth_logistic,
                           write_idx)
from slabnn.errors import DomainError, FormatError, ShapeError
from slabnn.numkernel import sigmoid


def _write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2):
    n = len(labels)
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols)
                    + bytes(pixels))
    lab.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))
    return img, lab


class TestDataset:
    def test_validation(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros(4), np.zeros(4, dtype=int), 2)
        with pytest.raises(DomainError):
            Dataset(np.full((2, 2), np.nan), np.zeros(2, dtype=int), 2)
        with pytest.raises(DomainError):
            Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)
        with pytest.raises(DomainError):
            Dataset(np.zeros((2, 2)), np.zeros(2, dtype=int), 1)

    def test_properties(self):
        ds = Dataset(np.zeros((5, 3)), np.zeros(5, dtype=int), 2)
        assert (ds.n, ds.p) == (5, 3)


class TestIdx:
    def test_pixel_scaling_is_exact(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, [0, 128, 255, 64] * 2, [3, 1],
                                   rows=2, cols=2)
        ds = load_idx(img, lab)
        assert ds.features.shape == (2, 4)
        np.testing.assert_array_equal(
            ds.features[0],
            [0.0, 0.5019607843137255, 1.0, 0.25098039215686274])
        np.testing.assert_array_equal(ds.labels, [3, 1])
        assert ds.n_classes == 4

    def test_round_trip_values(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, list(range(16)), [0, 1, 2, 1],
                                   rows=2, cols=2)
        ds = load_idx(img, lab)
        img2, lab2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
        write_idx(ds, img2, lab2, image_shape=(2, 2))
        ds2 = load_idx(img2, lab2)
        np.testing.assert_array_equal(ds.features, ds2.features)
        np.testing.assert_array_equal(ds.labels, ds2.labels)
        assert img.read_bytes() == img2.read_bytes()

    def test_bad_magic_names_offset(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, [0] * 4, [0])
        img.write_bytes(b"\x00\x00\x09\x03" + img.read_bytes()[4:])
        with pytest.raises(FormatError, match="offset 0"):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, [0] * 8, [0, 1])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_idx(img, lab)

    def test_count_mismatch_between_files(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, [0] * 8, [0, 1])
        lab.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 0]))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_write_rejects_out_of_range(self, tmp_path):
        ds = Dataset(np.array([[2.0, 0.0]]), np.array([0]), 2)
        with pytest.raises(DomainError):
            write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx",
                      image_shape=(1, 2))

    def test_write_rejects_labels_above_a_byte(self, tmp_path):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 300]), 301)
        with pytest.raises(DomainError, match="label 300"):
            write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        assert list(tmp_path.iterdir()) == []

    def test_write_rejects_bad_shape_product(self, tmp_path):
        ds = Dataset(np.zeros((1, 4)), np.array([0]), 2)
        with pytest.raises(ShapeError):
            write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx",
                      image_shape=(3, 2))


class TestCsv:
    def test_basic_load_with_trailing_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        ds = load_csv(path)
        assert ds.features.shape == (3, 2)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.label_names == ("a", "b")  # first appearance order
        assert ds.n_classes == 2

    def test_integer_labels_are_class_ids(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,3\n2.0,0\n3.0,03\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.labels, [3, 0, 3])
        assert ds.n_classes == 4 and ds.label_names is None
        # one token that is not an integer: first appearance for all
        path.write_text("1.0,3\n2.0,0\n3.0,x\n")
        np.testing.assert_array_equal(load_csv(path).labels, [0, 1, 2])

    @pytest.mark.parametrize("token", ["9223372036854775808", "1" * 5000])
    def test_label_id_past_int64_names_file(self, tmp_path, token):
        path = tmp_path / "d.csv"
        path.write_text(f"1.0,0\n2.0,{token}\n")
        with pytest.raises(FormatError, match="d.csv"):
            load_csv(path)
        path.write_text("1.0,0\n2.0,9223372036854775806\n")
        assert load_csv(path).labels[1] == 2**63 - 2

    def test_label_column_selects(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,1.0,2.0\ny,3.0,4.0\n")
        ds = load_csv(path, label_column=0)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.label_names == ("x", "y")

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_csv(path, has_header=True)
        assert ds.n == 2

    def test_standardize_population_sd(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,0\n2.0,0\n3.0,1\n")
        ds = load_csv(path, standardize=True)
        np.testing.assert_allclose(
            ds.features[:, 0],
            [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12)
        shift, scale = ds.normalization
        assert shift[0] == 2.0
        np.testing.assert_allclose(scale[0], np.sqrt(2.0 / 3.0), atol=1e-15)

    def test_constant_column_keeps_unit_scale(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("5.0,1.0,0\n5.0,2.0,1\n")
        ds = load_csv(path, standardize=True)
        np.testing.assert_array_equal(ds.features[:, 0], [0.0, 0.0])
        assert ds.normalization[1][0] == 1.0

    def test_unlabeled_mode(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        ds = load_csv(path, label_column=None)
        assert ds.features.shape == (2, 2)
        np.testing.assert_array_equal(ds.labels, [0, 0])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(path)

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\noops,4.0,1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(path)

    def test_undecodable_bytes_name_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"1.0,2.0,0\n\xff.0,4.0,1\n")
        with pytest.raises(FormatError, match="d.csv"):
            load_csv(path)

    def test_field_over_csv_limit_names_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n" + "3" * 140_000 + ",4.0,1\n")
        with pytest.raises(FormatError, match="d.csv"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            load_csv(path)


class TestSplit:
    def _ds(self, n=20):
        feats = np.arange(n * 2, dtype=np.float64).reshape(n, 2)
        labels = np.arange(n) % 2
        return Dataset(feats, labels, 2)

    def test_disjoint_and_sized(self):
        train, test = split(self._ds(), 12, 8, seed=3)
        assert (train.n, test.n) == (12, 8)
        seen = {tuple(r) for r in train.features} | {tuple(r) for r in test.features}
        assert len(seen) == 20

    def test_deterministic_in_seed(self):
        t1, _ = split(self._ds(), 10, 10, seed=5)
        t2, _ = split(self._ds(), 10, 10, seed=5)
        np.testing.assert_array_equal(t1.features, t2.features)
        t3, _ = split(self._ds(), 10, 10, seed=6)
        assert not np.array_equal(t1.features, t3.features)

    def test_standardization_fitted_on_train_only(self):
        train, test = split(self._ds(), 10, 10, seed=7, standardize=True)
        np.testing.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train.features.std(axis=0), 1.0, atol=1e-12)
        # test uses the train statistics, so it is not centered in general
        shift, scale = test.normalization
        np.testing.assert_array_equal(shift, train.normalization[0])
        assert abs(test.features.mean()) > 1e-6

    def test_empty_test_allowed(self):
        train, test = split(self._ds(), 20, 0, seed=1)
        assert train.n == 20 and test.n == 0

    def test_oversubscription_rejected(self):
        with pytest.raises(DomainError):
            split(self._ds(), 15, 10, seed=1)
        with pytest.raises(DomainError):
            split(self._ds(), 0, 5, seed=1)


class TestSynthLogistic:
    def test_support_and_alternating_signs(self):
        ds, support, coefs = synth_logistic(50, 7, 3, 2.0, seed=1)
        np.testing.assert_array_equal(support, [1, 1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(coefs[:3], [2.0, -2.0, 2.0])
        np.testing.assert_array_equal(coefs[3:], 0.0)
        assert ds.n == 50 and ds.p == 7 and ds.n_classes == 2

    def test_zero_scale_gives_coin_flips(self):
        ds, _, coefs = synth_logistic(4000, 3, 2, 0.0, seed=2)
        np.testing.assert_array_equal(coefs, 0.0)
        assert abs(ds.labels.mean() - 0.5) < 0.03

    def test_strong_signal_matches_sign_rule(self):
        # At scale b the disagreement with the sign rule is about
        # 2 phi(0) ln(2) / b (= 1.4% at b = 40), so 97% is a safe floor.
        ds, _, coefs = synth_logistic(2000, 2, 1, 40.0, seed=3)
        margin = ds.features @ coefs
        agree = np.mean(ds.labels == (margin > 0))
        assert agree > 0.97

    def test_deterministic(self):
        d1, _, _ = synth_logistic(30, 4, 2, 1.0, seed=9)
        d2, _, _ = synth_logistic(30, 4, 2, 1.0, seed=9)
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(d1.labels, d2.labels)

    def test_validation(self):
        with pytest.raises(DomainError):
            synth_logistic(10, 3, 4, 1.0, seed=0)
        with pytest.raises(DomainError):
            synth_logistic(0, 3, 1, 1.0, seed=0)


class TestBayesOptimal:
    def test_coin_flip_floor(self):
        acc = bayes_optimal_accuracy(np.zeros(3), n_mc=1000, seed=1)
        assert acc == pytest.approx(0.5, abs=1e-12)

    def test_strong_signal_ceiling(self):
        # theory: 1 - 2 phi(0) ln(2) / 500 = 0.99889
        acc = bayes_optimal_accuracy(np.array([500.0, 0.0]), n_mc=5000, seed=2)
        assert acc > 0.995

    def test_matches_closed_form_for_single_coef(self):
        # E[max(sigmoid(bz), 1-sigmoid(bz))] over z ~ N(0,1), by quadrature.
        b = 1.7
        zs = np.linspace(-8, 8, 20001)
        ps = sigmoid(b * zs)
        target = np.trapezoid(np.maximum(ps, 1 - ps)
                              * np.exp(-zs**2 / 2) / np.sqrt(2 * np.pi), zs)
        acc = bayes_optimal_accuracy(np.array([b]), n_mc=200_000, seed=3)
        assert abs(acc - target) < 0.002


class TestSynthClusters:
    def test_labels_cycle_through_classes(self):
        ds = synth_clusters(9, 2, 3, seed=1)
        np.testing.assert_array_equal(np.bincount(ds.labels), [3, 3, 3])

    def test_separation_controls_difficulty(self):
        far = synth_clusters(200, 3, 2, separation=8.0, spread=0.5, seed=2)
        near = synth_clusters(200, 3, 2, separation=0.0, spread=0.5, seed=2)
        # same noise, means either spread out or collapsed
        d_far = np.linalg.norm(far.features[far.labels == 0].mean(axis=0)
                               - far.features[far.labels == 1].mean(axis=0))
        d_near = np.linalg.norm(near.features[near.labels == 0].mean(axis=0)
                                - near.features[near.labels == 1].mean(axis=0))
        assert d_far > d_near + 1.0

    def test_shift_translates_without_changing_noise(self):
        base = synth_clusters(40, 2, 2, shift=0.0, seed=3)
        moved = synth_clusters(40, 2, 2, shift=2.5, seed=3)
        np.testing.assert_allclose(moved.features, base.features + 2.5,
                                   atol=1e-12)
        np.testing.assert_array_equal(moved.labels, base.labels)
