"""Checkpoint serialization: bit-exact round trips and format errors."""

import struct

import numpy as np
import pytest

from conftest import ALL_FAMILIES, make_state, write_tensors
from slabnn.checkpoint import (FORMAT_VERSION, MAGIC, load_checkpoint, read_manifest,
                               save_checkpoint)
from slabnn.errors import FormatError
from slabnn.model import Family, PriorConfig, unpack_lower
from slabnn.numkernel import RngStream


def _assert_states_identical(a, b):
    assert a.spec.widths == b.spec.widths
    assert a.spec.activations == b.spec.activations
    assert a.family == b.family
    assert a.rank == b.rank
    assert a.prior == b.prior
    items_a = list(a.param_items())
    items_b = list(b.param_items())
    assert [(l, n) for l, n, _ in items_a] == [(l, n) for l, n, _ in items_b]
    for (_, _, ta), (_, _, tb) in zip(items_a, items_b):
        np.testing.assert_array_equal(ta, tb)


class TestRoundTrip:
    @pytest.mark.parametrize("family,rank", ALL_FAMILIES)
    def test_bit_exact_state(self, tmp_path, family, rank):
        st = make_state(family, rank, seed=13, widths=(5, 3, 4, 2))
        path = tmp_path / "a.lbnn"
        save_checkpoint(path, st)
        got = load_checkpoint(path)
        _assert_states_identical(st, got.state)

    def test_rng_words_and_counters(self, tmp_path):
        st = make_state()
        rng = RngStream(123, 4)
        rng.uniform(37)  # advance mid-block
        words = {"sample": rng.state_words(), "shuffle": RngStream(1, 1).state_words()}
        counters = {"phases_completed": 2, "epochs": 17, "steps": 340}
        path = tmp_path / "b.lbnn"
        save_checkpoint(path, st, rng_words=words, counters=counters)
        got = load_checkpoint(path)
        assert got.counters == counters
        np.testing.assert_array_equal(got.rng_words["sample"], words["sample"])
        # the restored stream must continue exactly where the saved one stops
        resumed = RngStream.from_state_words(got.rng_words["sample"])
        np.testing.assert_array_equal(resumed.uniform(5), rng.uniform(5))

    def test_resave_is_byte_identical(self, tmp_path):
        st = make_state(seed=21)
        p1, p2 = tmp_path / "x.lbnn", tmp_path / "y.lbnn"
        save_checkpoint(p1, st)
        save_checkpoint(p2, load_checkpoint(p1).state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mvn_full_resave_is_byte_identical(self, tmp_path):
        # chol_raw is stored as it is held in memory: the packed lower triangle.
        st = make_state(Family.MVN_FULL, seed=21, widths=(5, 3, 2))
        gen = np.random.default_rng(4)
        for lp in st.layers:
            lp.chol_raw += gen.normal(size=lp.chol_raw.shape)
        p1, p2 = tmp_path / "x.lbnn", tmp_path / "y.lbnn"
        save_checkpoint(p1, st)
        for l, lp in enumerate(st.layers):
            n = lp.n_weights
            stored = read_manifest(p1)[f"layer{l:02d}/chol_raw"]
            assert stored.shape == (n * (n + 1) // 2,)
            assert stored.tobytes() == lp.chol_raw.tobytes()
        loaded = load_checkpoint(p1).state
        assert [lp.chol_raw.shape for lp in loaded.layers] == [(171,), (36,)]
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_prior_flags_survive(self, tmp_path):
        prior = PriorConfig(sigma2=0.5, psi=0.3, fixed_dense=False,
                            learn_sigma2=True, learn_psi=True, learn_hyper=True)
        st = make_state(prior=prior)
        path = tmp_path / "c.lbnn"
        save_checkpoint(path, st)
        got = load_checkpoint(path).state
        assert got.prior.learn_sigma2 and got.prior.learn_psi and got.prior.learn_hyper
        assert got.prior.sigma2 == 0.5 and got.prior.psi == 0.3


class TestFormatErrors:
    def test_bad_magic_names_offset_zero(self, tmp_path):
        path = tmp_path / "bad.lbnn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="byte offset 0"):
            read_manifest(path)

    def test_truncated_file_names_offset(self, tmp_path):
        st = make_state()
        path = tmp_path / "t.lbnn"
        save_checkpoint(path, st)
        data = path.read_bytes()
        cut = len(data) - 11
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError, match="truncated checkpoint"):
            read_manifest(path)

    def test_unsupported_version(self, tmp_path):
        st = make_state()
        path = tmp_path / "v.lbnn"
        save_checkpoint(path, st)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 99"):
            read_manifest(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        st = make_state()
        path = tmp_path / "tr.lbnn"
        save_checkpoint(path, st)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            read_manifest(path)

    def test_missing_tensor_named(self, tmp_path):
        st = make_state()
        path = tmp_path / "m.lbnn"
        save_checkpoint(path, st)
        tensors = read_manifest(path)
        assert "layer00/kappa" in tensors and "meta/widths" in tensors
        # drop one tensor by rewriting without it
        del tensors["layer00/kappa"]
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match="layer00/kappa"):
            load_checkpoint(path)

    def test_shape_mismatch_named(self, tmp_path):
        st = make_state()
        path = tmp_path / "s.lbnn"
        save_checkpoint(path, st)
        tensors = read_manifest(path)
        tensors["layer01/kappa"] = np.zeros((2, 2))
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match="layer01/kappa"):
            load_checkpoint(path)

    def test_overflowing_dims_report_truncation(self, tmp_path):
        # 2**62 * 4 entries wrap a 64-bit product to zero.
        name = b"meta/widths"
        head = struct.pack("<I", len(name)) + name + struct.pack("<IQQ", 2, 2**62, 4)
        path = tmp_path / "huge.lbnn"
        path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, 1) + head)
        with pytest.raises(FormatError, match="truncated checkpoint"):
            read_manifest(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        head = struct.pack("<I", 2) + b"\xed\x80" + struct.pack("<IQ", 1, 0)
        path = tmp_path / "name.lbnn"
        path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, 1) + head)
        with pytest.raises(FormatError, match="name at byte offset 16 is not utf-8"):
            read_manifest(path)

    def test_duplicate_name_rejected(self, tmp_path):
        name = b"meta/widths"
        tensor = struct.pack("<I", len(name)) + name + struct.pack("<IQd", 1, 1, 2.0)
        path = tmp_path / "dup.lbnn"
        path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, 2) + 2 * tensor)
        with pytest.raises(FormatError, match="duplicate tensor meta/widths at byte offset 51"):
            read_manifest(path)

    def test_empty_tensor_with_overflowing_dims_rejected(self, tmp_path):
        # zero entries, so no bytes follow, but no array has these dims
        name = b"meta/widths"
        head = struct.pack("<I", len(name)) + name + struct.pack("<IQQ", 2, 2**63, 0)
        path = tmp_path / "empty.lbnn"
        path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, 1) + head)
        with pytest.raises(FormatError, match="unrepresentable dims"):
            read_manifest(path)

    @pytest.mark.parametrize("name,index,value", [
        ("meta/flags", 2, np.nan),
        ("meta/flags", 0, 2.0),  # the bias-row flag is always 1
        ("meta/counters", 1, np.inf),
        ("meta/activations", 0, 7.0),
        ("meta/activations", 0, -1.0),
        ("meta/prior_init", 0, np.nan),
        ("meta/prior_init", 3, np.inf),
    ])
    def test_bad_meta_codes_rejected(self, tmp_path, name, index, value):
        path = tmp_path / "meta.lbnn"
        save_checkpoint(path, make_state())
        tensors = read_manifest(path)
        tensors[name][index] = value
        write_tensors(path, tensors)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("name,value", [("omega", np.nan), ("kappa", np.inf),
                                            ("log_sigma2", -np.inf)])
    def test_non_finite_parameter_named(self, tmp_path, name, value):
        # Stream words are bit-cast uint64s that may read as NaN (all ones
        # does); only the parameter tensors must be finite.
        path = tmp_path / "nan.lbnn"
        words = np.full(15, 2**64 - 1, dtype=np.uint64)
        save_checkpoint(path, make_state(widths=(4, 8, 2)), rng_words={"sample": words})
        assert np.array_equal(load_checkpoint(path).rng_words["sample"], words)
        tensors = read_manifest(path)
        assert np.isnan(tensors["rng/sample"]).all()
        tensors[f"layer01/{name}"].reshape(-1)[0] = value
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match=rf"layer01/{name} \(layer 1 parameter "
                                              rf"{name}\) holds non-finite values"):
            load_checkpoint(path)

    @pytest.mark.parametrize("index,switch", [(3, "fixed_dense"), (4, "learn_sigma2"),
                                              (5, "learn_psi"), (6, "learn_hyper")])
    def test_switch_flags_are_zero_or_one(self, tmp_path, index, switch):
        # A 2 would load as True and re-save as 1: not the same bytes.
        path = tmp_path / "flags.lbnn"
        save_checkpoint(path, make_state())
        tensors = read_manifest(path)
        tensors["meta/flags"][index] = 2.0
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match=rf"meta/flags\[{index}\] \({switch}\)"):
            load_checkpoint(path)

    def test_dense_cholesky_layout_rejected(self, tmp_path):
        # Files from before the packed layout held chol_raw as its square.
        path = tmp_path / "dense.lbnn"
        save_checkpoint(path, make_state(Family.MVN_FULL, widths=(2, 2)))
        tensors = read_manifest(path)
        tensors["layer00/chol_raw"] = unpack_lower(tensors["layer00/chol_raw"])
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match=r"tensor layer00/chol_raw has shape "
                                              r"\(6, 6\), expected \(21,\)"):
            load_checkpoint(path)

    def test_network_without_bias_rows_rejected(self, tmp_path):
        path = tmp_path / "bias.lbnn"
        save_checkpoint(path, make_state())
        tensors = read_manifest(path)
        tensors["meta/flags"][0] = 0.0
        for name, arr in tensors.items():  # shapes consistent with no bias rows
            if name.startswith("layer") and arr.ndim == 2:
                tensors[name] = arr[1:]
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match=r"meta/flags\[0\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("family,rank,widths,bad_tensor", [
        (Family.MVN_LOWRANK, 2**40, None, "layer00/factor"),  # 64 TiB factor
        (Family.MVN_FULL, 0, (40000, 2), "layer00/kappa"),     # 47.7 GiB Cholesky
        (Family.MF, 0, (2**33, 2), "layer00/kappa"),           # 128 GiB per matrix
    ])
    def test_absurd_sizes_rejected_before_allocation(self, tmp_path, monkeypatch,
                                                      family, rank, widths, bad_tensor):
        path = tmp_path / "absurd.lbnn"
        save_checkpoint(path, make_state(family, 2 if rank else 0, widths=(4, 2)))
        tensors = read_manifest(path)
        if widths is not None:
            tensors["meta/widths"] = np.array(widths, dtype=np.float64)
        tensors["meta/flags"][2] = rank
        write_tensors(path, tensors)

        def refuse(*args, **kwargs):
            raise AssertionError("state allocated before the stored shapes were checked")

        monkeypatch.setattr("slabnn.checkpoint.VariationalState", refuse)
        with pytest.raises(FormatError, match=bad_tensor):
            load_checkpoint(path)

    @pytest.mark.parametrize("family", [Family.MF, Family.MVN_FULL])
    def test_rank_outside_lowrank_rejected(self, tmp_path, family):
        path = tmp_path / "rank.lbnn"
        save_checkpoint(path, make_state(family))
        tensors = read_manifest(path)
        tensors["meta/flags"][2] = 3
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match="rank 3"):
            load_checkpoint(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_manifest(tmp_path / "nothing.lbnn")
