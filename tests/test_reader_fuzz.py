"""Fuzzed INI, CSV and IDX input: the readers fail only with the package's errors.

Each example mutates a small valid input and feeds it to ``load_config``,
``load_csv`` or ``load_idx``.  Only ``SlabnnError`` subclasses may come
out, and a config that loads holds only finite floats.  The INI mutations
overwrite one value with an extreme token, delete or duplicate a line, or
truncate the file; the CSV mutations flip bits, truncate, or splice a
repeated slice of the file into it (up to 140 KB, past the csv module's
131,072-character field limit); the IDX mutations overwrite header
fields or truncate the files.  Runs are derandomized and keep no
example database, so the suite is repeatable.
"""

import dataclasses
import enum
import math
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slabnn.cli import load_config
from slabnn.dataio import load_csv, load_idx
from slabnn.errors import SlabnnError

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

VALID_INI = b"""\
[dataset]
format = synth_clusters
n = 90
p = 4
classes = 2
separation = 4.0
spread = 1.0
shift = 0.5
data_seed = 1
standardize = true
train_n = 60
test_n = 30
split_seed = 3

[model]
widths = 4,3,2
activations = relu
family = mvn_lowrank
rank = 1
fixed_dense = false
init_tau = 0.05

[prior]
sigma2 = 1.5
psi = 0.4
a_beta = 2.0
b_beta = 1.0
a_psi = 1.0
b_psi = 1.0
learn_sigma2 = true
learn_psi = true
learn_hyper = true

[phase:pretrain]
epochs = 2
batch_size = 30
lr_weights = 0.001
lr_xi = 0.01
lr_cov = 0.01
lr_sigma2 = 0.001
lr_psi = 0.001
lr_psi_hyper = 0.001
lr_beta_hyper = 0.00001

[phase:train]
epochs = 2
batch_size = 30
draws = 2
delta = 0.2
kl_mode = sampled

[phase:posttrain]
epochs = 1
gamma_policy = median_fixed

[predict]
gamma = med
beta = sim
replicates = 3
threshold = 0.9

[run]
seeds = 1,2
output_dir = runs
run_id = fuzz
"""

# Tokens that a value may be overwritten with.
EXTREME_VALUES = [b"nan", b"inf", b"-inf", b"1e400", b"-1", b"0",
                  b"12345678901234567890", b"", b"\xff", b"1,,2", b"none"]

VALID_CSV = b"".join(b"%d.25,%d,-%d.5e-1,c%d\n" % (i, 7 - i, i, i % 3) for i in range(12))


def _floats(value):
    """Every float reachable from a loaded RunConfig."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _floats(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name))
    elif not isinstance(value, (str, int, enum.Enum, type(None))):
        raise AssertionError(f"unexpected {type(value)} in a RunConfig")


def _check_config(path, blob):
    path.write_bytes(blob)
    try:
        cfg = load_config(path)
    except SlabnnError:
        return
    assert all(math.isfinite(x) for x in _floats(cfg))


def _check_csv(path, blob):
    path.write_bytes(blob)
    for kwargs in ({}, {"label_column": None, "has_header": True}):
        try:
            load_csv(path, **kwargs)
        except SlabnnError:
            pass


def _check_idx(tmp_path, images, labels):
    (tmp_path / "img.idx").write_bytes(images)
    (tmp_path / "lab.idx").write_bytes(labels)
    try:
        load_idx(tmp_path / "img.idx", tmp_path / "lab.idx")
    except SlabnnError:
        pass


class TestFuzzedConfig:
    def test_valid_config_loads(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(VALID_INI)
        assert load_config(path).run_id == "fuzz"

    @FUZZ
    @given(data=st.data())
    def test_value_overwritten(self, tmp_path, data):
        lines = VALID_INI.split(b"\n")
        keyed = [i for i, ln in enumerate(lines) if b" = " in ln]
        i = data.draw(st.sampled_from(keyed))
        value = data.draw(st.one_of(st.sampled_from(EXTREME_VALUES),
                                    st.binary(max_size=8)))
        lines[i] = lines[i].split(b" = ")[0] + b" = " + value
        _check_config(tmp_path / "run.ini", b"\n".join(lines))

    @FUZZ
    @given(data=st.data())
    def test_line_deleted_or_duplicated(self, tmp_path, data):
        lines = VALID_INI.split(b"\n")
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if data.draw(st.booleans()) else [lines[i]] * 2
        _check_config(tmp_path / "run.ini", b"\n".join(lines))

    @FUZZ
    @given(data=st.data())
    def test_truncated(self, tmp_path, data):
        cut = data.draw(st.integers(0, len(VALID_INI) - 1))
        _check_config(tmp_path / "run.ini", VALID_INI[:cut])


class TestFuzzedCsv:
    @FUZZ
    @given(data=st.data())
    def test_bit_flipped(self, tmp_path, data):
        blob = bytearray(VALID_CSV)
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(0, 7)),
                                   min_size=1, max_size=6))
        for pos, bit in flips:
            blob[pos] ^= 1 << bit
        _check_csv(tmp_path / "d.csv", bytes(blob))

    @FUZZ
    @given(data=st.data())
    def test_truncated(self, tmp_path, data):
        cut = data.draw(st.integers(0, len(VALID_CSV) - 1))
        _check_csv(tmp_path / "d.csv", VALID_CSV[:cut])

    @FUZZ
    @given(data=st.data())
    def test_spliced(self, tmp_path, data):
        n = len(VALID_CSV)
        at, start = data.draw(st.integers(0, n)), data.draw(st.integers(0, n - 1))
        piece = VALID_CSV[start:start + data.draw(st.integers(1, 3))]
        size = data.draw(st.sampled_from([1, 3, 1000, 140_000]))
        blob = VALID_CSV[:at] + (piece * size)[:size] + VALID_CSV[at:]
        _check_csv(tmp_path / "d.csv", blob)


IDX_IMAGES = struct.pack(">IIII", 0x00000803, 3, 2, 2) + bytes(range(0, 240, 20))
IDX_LABELS = struct.pack(">II", 0x00000801, 3) + bytes([0, 2, 1])
IDX_FIELDS = [(True, off) for off in (0, 4, 8, 12)] + [(False, off) for off in (0, 4)]
IDX_EXTREMES = [struct.pack(">I", v) for v in
                (0, 1, 2, 3, 4, 0x801, 0x803, 2**16, 2**31, 2**32 - 1)]


class TestFuzzedIdx:
    @FUZZ
    @given(data=st.data())
    def test_header_field_overwritten(self, tmp_path, data):
        images, labels = bytearray(IDX_IMAGES), bytearray(IDX_LABELS)
        for _ in range(data.draw(st.integers(1, 3))):
            is_images, off = data.draw(st.sampled_from(IDX_FIELDS))
            value = data.draw(st.one_of(st.sampled_from(IDX_EXTREMES),
                                        st.binary(min_size=4, max_size=4)))
            (images if is_images else labels)[off:off + 4] = value
        _check_idx(tmp_path, bytes(images), bytes(labels))

    @FUZZ
    @given(data=st.data())
    def test_truncated(self, tmp_path, data):
        cut_images = data.draw(st.integers(0, len(IDX_IMAGES)))
        cut_labels = data.draw(st.integers(0, len(IDX_LABELS)))
        _check_idx(tmp_path, IDX_IMAGES[:cut_images], IDX_LABELS[:cut_labels])
