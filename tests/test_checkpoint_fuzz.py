"""Fuzzed checkpoint bytes: the readers fail only with the package's errors.

Each example mutates a small valid checkpoint (truncation, bit flips, or
one header or data field overwritten with an extreme value) and feeds it
to ``read_manifest`` and ``load_checkpoint``.  The files stay under
2 KB, and the readers check every size against the bytes present before
they allocate, so no example allocates more than a few KB.  Runs are
derandomized and keep no example database, so the suite is repeatable.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_state
from slabnn.checkpoint import load_checkpoint, read_manifest, save_checkpoint
from slabnn.errors import SlabnnError
from slabnn.model import Family
from slabnn.numkernel import RngStream

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

CASES = {"mf": (Family.MF, 0, (3, 2, 2)),
         "mvn_full": (Family.MVN_FULL, 0, (2, 2)),
         "mvn_lowrank": (Family.MVN_LOWRANK, 1, (2, 2))}


def _valid_bytes(tmp_path, case):
    family, rank, widths = CASES[case]
    path = tmp_path / f"{case}.lbnn"
    save_checkpoint(path, make_state(family, rank, seed=21, widths=widths),
                    rng_words={"sample": RngStream(21, 2).state_words()},
                    counters={"phases_completed": 1, "epochs": 3, "steps": 12})
    return path.read_bytes()


def _fields(blob):
    """(offset, width) of every fixed-width field in a valid checkpoint."""
    out = [(4, 4), (8, 4)]
    off = 12
    (n_tensors,) = struct.unpack_from("<I", blob, 8)
    for _ in range(n_tensors):
        (name_len,) = struct.unpack_from("<I", blob, off)
        out.append((off, 4))
        off += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, off)
        out.append((off, 4))
        off += 4
        dims = struct.unpack_from(f"<{rank}Q", blob, off)
        out += [(off + 8 * i, 8) for i in range(rank)]
        off += 8 * rank
        out += [(off + 8 * i, 8) for i in range(int(np.prod(dims)))]
        off += 8 * int(np.prod(dims))
    assert off == len(blob)
    return out


# Extreme values for a field of each width.
EXTREMES = {
    4: [struct.pack("<I", v) for v in (0, 1, 2, 8, 9, 4096, 4097, 2**31, 2**32 - 1)],
    8: [struct.pack("<Q", v) for v in (0, 1, 2**31, 2**32, 2**40, 2**63, 2**64 - 1)]
    + [struct.pack("<d", v) for v in (np.nan, np.inf, -np.inf, -1.0, 0.5, 3.0, 7.0,
                                       1e300, -0.0, 5e-324)],
}


def _check_readers(path, blob):
    path.write_bytes(blob)
    for reader in (read_manifest, load_checkpoint):
        try:
            reader(path)
        except SlabnnError:
            pass


@pytest.mark.parametrize("case", sorted(CASES))
class TestFuzzedCheckpoints:
    @FUZZ
    @given(data=st.data())
    def test_truncated(self, tmp_path, case, data):
        blob = _valid_bytes(tmp_path, case)
        cut = data.draw(st.integers(0, len(blob) - 1))
        _check_readers(tmp_path / "fuzz.lbnn", blob[:cut])

    @FUZZ
    @given(data=st.data())
    def test_bit_flipped(self, tmp_path, case, data):
        blob = bytearray(_valid_bytes(tmp_path, case))
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(0, 7)),
                                   min_size=1, max_size=6))
        for pos, bit in flips:
            blob[pos] ^= 1 << bit
        _check_readers(tmp_path / "fuzz.lbnn", bytes(blob))

    @FUZZ
    @given(data=st.data())
    def test_field_overwritten(self, tmp_path, case, data):
        blob = bytearray(_valid_bytes(tmp_path, case))
        off, width = data.draw(st.sampled_from(_fields(bytes(blob))))
        value = data.draw(st.one_of(st.sampled_from(EXTREMES[width]),
                                    st.binary(min_size=width, max_size=width)))
        blob[off:off + width] = value
        _check_readers(tmp_path / "fuzz.lbnn", bytes(blob))
