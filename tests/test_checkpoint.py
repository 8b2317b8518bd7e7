"""Checkpoint serialization: bit-exact round trips and format errors."""

import struct

import numpy as np
import pytest

from conftest import ALL_FAMILIES, make_state, write_tensors
from slabnn.checkpoint import (FORMAT_VERSION, MAGIC, load_checkpoint, read_manifest,
                               save_checkpoint)
from slabnn.errors import FormatError
from slabnn.model import Family, PriorConfig
from slabnn.numkernel import RngStream


def _assert_states_identical(a, b):
    assert a.spec.widths == b.spec.widths
    assert a.spec.activations == b.spec.activations
    assert a.spec.include_bias == b.spec.include_bias
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

    @pytest.mark.parametrize("name,index,value", [
        ("meta/flags", 2, np.nan),
        ("meta/counters", 1, np.inf),
        ("meta/activations", 0, 7.0),
        ("meta/activations", 0, -1.0),
    ])
    def test_bad_meta_codes_rejected(self, tmp_path, name, index, value):
        path = tmp_path / "meta.lbnn"
        save_checkpoint(path, make_state())
        tensors = read_manifest(path)
        tensors[name][index] = value
        write_tensors(path, tensors)
        with pytest.raises(FormatError):
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
