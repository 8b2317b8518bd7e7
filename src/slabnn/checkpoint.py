"""Binary checkpoint format.

Layout, all multi-byte values little-endian:

    bytes 0..3   magic "LBNN"
    bytes 4..7   format version (uint32, currently 1)
    bytes 8..11  tensor count (uint32)
    then per tensor:
        uint32  name length in bytes
        utf-8   name
        uint32  rank
        uint64  dims[rank]
        float64 data, C order

Tensor names are unique.  Every field of the variational state is stored as a named tensor
(scalars as length-1 tensors), along with small "meta/..." tensors that
encode the network shape, family, prior switches and phase counters
(``meta/flags[0]`` marks the bias row every weight matrix has: always 1;
``meta/flags[3..6]`` hold the prior switches as 0 or 1, nothing else),
and "rng/..." tensors holding random stream positions as raw uint64
words bit-cast to float64 (floats cannot carry 64-bit integers exactly,
the bit-cast round-trips).  Every parameter is stored as it is held in
memory, with the shape ``LayerParams.param_shapes`` gives: a
full-covariance ``layerNN/chol_raw`` is its packed lower triangle,
n(n+1)/2 entries in row-major order.  Files written before the packed
layout stored that tensor as a dense n x n square; they fail the shape
check below with ``FormatError`` (``tensor layer00/chol_raw has shape
(n, n), expected (n(n+1)/2,)``).  Mean-field and low-rank files of
either age load the same.  Saving is atomic (temp file plus rename)
and byte-deterministic: the same state and streams always serialize to
identical bytes.  Loading checks every stored parameter shape against
the one the stored model description implies before it allocates
anything, and that every stored parameter is finite (prediction would
otherwise drop a NaN weight silently), then rebuilds the exact arrays,
so a save/load round trip is bit-exact and a file the library wrote
re-saves to the same bytes.  Every "rng/..." tensor is read back,
whatever its label and whatever its words read as floats (NaN
included): older files also carry ``rng/alpha``, a stream nothing
draws from.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .distributions import HyperParams
from .errors import ConfigError, DomainError, FormatError
from .model import (ACTIVATIONS, Family, LayerParams, NetworkSpec, PriorConfig,
                    VariationalState, family_problems)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "save_checkpoint",
    "load_checkpoint",
    "read_manifest",
    "CheckpointData",
]

MAGIC = b"LBNN"
FORMAT_VERSION = 1

_FAMILY_CODES = {Family.MF: 0, Family.MVN_FULL: 1, Family.MVN_LOWRANK: 2}
_FAMILY_FROM_CODE = {v: k for k, v in _FAMILY_CODES.items()}
# The PriorConfig switches stored as 0/1 in meta/flags[3..6], in order.
_SWITCHES = ("fixed_dense", "learn_sigma2", "learn_psi", "learn_hyper")


class CheckpointData:
    """What a checkpoint holds: the state, rng positions, phase counters.

    ``shapes`` maps every stored tensor's name to its shape, in file order.
    """

    def __init__(self, state: VariationalState, rng_words: dict, counters: dict,
                 shapes: dict):
        self.state = state
        self.rng_words = rng_words
        self.counters = counters
        self.shapes = shapes


def _encode_tensor(name: str, arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype=np.float64)
    name_b = name.encode("utf-8")
    parts = [struct.pack("<I", len(name_b)), name_b, struct.pack("<I", data.ndim)]
    for d in data.shape:
        parts.append(struct.pack("<Q", d))
    parts.append(data.astype("<f8").tobytes())
    return b"".join(parts)


def _meta_tensors(state: VariationalState, counters: dict) -> list:
    spec = state.spec
    prior = state.prior
    tensors = [
        ("meta/widths", np.array(spec.widths, dtype=np.float64)),
        ("meta/activations",
         np.array([ACTIVATIONS.index(a) for a in spec.activations], dtype=np.float64)),
        ("meta/flags", np.array([
            1.0,  # bias row: every weight matrix has one
            float(_FAMILY_CODES[state.family]),
            float(state.rank),
            *(1.0 if getattr(prior, switch) else 0.0 for switch in _SWITCHES),
        ])),
        ("meta/prior_init", np.array([
            prior.sigma2, prior.psi,
            prior.hyper.a_beta, prior.hyper.b_beta,
            prior.hyper.a_psi, prior.hyper.b_psi,
        ])),
        ("meta/counters", np.array([
            float(counters.get("phases_completed", 0)),
            float(counters.get("epochs", 0)),
            float(counters.get("steps", 0)),
        ])),
    ]
    return tensors


def save_checkpoint(path, state: VariationalState, rng_words: dict = None,
                    counters: dict = None):
    """Serialize the state (plus rng positions and counters) to ``path``.

    ``rng_words`` maps a short label to the 15 uint64 words from
    ``RngStream.state_words``.  The write is atomic: a sibling temp
    file is renamed over the target only after everything is on disk.
    """
    rng_words = rng_words or {}
    counters = counters or {}
    tensors = _meta_tensors(state, counters)
    for l, name, arr in state.param_items():
        tensors.append((f"layer{l:02d}/{name}", arr))
    for label in sorted(rng_words):
        words = np.ascontiguousarray(rng_words[label], dtype=np.uint64)
        tensors.append((f"rng/{label}", words.view(np.float64)))
    blob = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(tensors))]
    for name, arr in tensors:
        blob.append(_encode_tensor(name, arr))
    payload = b"".join(blob)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(
                f"truncated checkpoint: needed {n} bytes for {what} "
                f"at byte offset {self.off}"
            )
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def read_manifest(path):
    """Parse a checkpoint into {name: array} without interpreting it."""
    with open(path, "rb") as fh:
        data = fh.read()
    rd = _Reader(data)
    magic = rd.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(
            f"bad magic {magic!r} at byte offset 0; expected {MAGIC!r}"
        )
    version = rd.u32("format version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint format version {version}")
    n_tensors = rd.u32("tensor count")
    tensors = {}
    for _ in range(n_tensors):
        name_len = rd.u32("name length")
        if name_len > 4096:
            raise FormatError(
                f"implausible tensor name length {name_len} at byte offset {rd.off - 4}"
            )
        try:
            name = rd.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"tensor name at byte offset {rd.off - name_len} "
                              "is not utf-8") from None
        if name in tensors:
            raise FormatError(f"duplicate tensor {name} at byte offset {rd.off - name_len}")
        rank = rd.u32("tensor rank")
        if rank > 8:
            raise FormatError(
                f"implausible tensor rank {rank} at byte offset {rd.off - 4}"
            )
        dims = tuple(rd.u64("tensor dim") for _ in range(rank))
        count = math.prod(dims)  # exact: a huge count reports truncation
        raw = rd.take(8 * count, f"data of tensor {name}")
        try:
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
        except ValueError:  # e.g. an empty tensor whose other dims overflow
            raise FormatError(f"tensor {name} has unrepresentable dims {dims}") from None
    if rd.off != len(data):
        raise FormatError(f"trailing bytes after last tensor at byte offset {rd.off}")
    return tensors


def _require(tensors: dict, name: str) -> np.ndarray:
    if name not in tensors:
        raise FormatError(f"checkpoint is missing required tensor {name}")
    return tensors[name]


def _counts(tensors: dict, name: str, size: int = None) -> list:
    """A meta tensor's entries as nonnegative Python ints."""
    arr = _require(tensors, name)
    if size is not None and arr.shape != (size,):
        raise FormatError(f"{name} must have {size} entries, got {arr.shape}")
    if arr.ndim != 1 or not np.all(np.isfinite(arr)) or np.any(arr < 0) \
            or np.any(arr != np.floor(arr)):
        raise FormatError(f"{name} must hold nonnegative integers, got {arr.tolist()}")
    return [int(v) for v in arr]


def load_checkpoint(path) -> CheckpointData:
    """Rebuild the exact saved state; see module docstring for guarantees."""
    tensors = read_manifest(path)
    widths = tuple(_counts(tensors, "meta/widths"))
    act_codes = _counts(tensors, "meta/activations")
    if any(c >= len(ACTIVATIONS) for c in act_codes):
        raise FormatError(f"unknown activation code in {act_codes}")
    activations = tuple(ACTIVATIONS[c] for c in act_codes)
    flags = _counts(tensors, "meta/flags", 7)
    if flags[0] != 1:
        raise FormatError(f"meta/flags[0] marks the bias row and must be 1, got {flags[0]}")
    family = _FAMILY_FROM_CODE.get(flags[1])
    if family is None:
        raise FormatError(f"unknown family code {flags[1]}")
    rank = flags[2]
    for i, switch in enumerate(_SWITCHES, start=3):
        if flags[i] > 1:
            raise FormatError(f"meta/flags[{i}] ({switch}) must be 0 or 1, got {flags[i]}")
    pri = _require(tensors, "meta/prior_init")
    if pri.shape != (6,):
        raise FormatError(f"meta/prior_init must have 6 entries, got {pri.shape}")
    if not np.all(np.isfinite(pri)):  # a NaN passes every range check below
        raise FormatError(f"meta/prior_init must be finite, got {pri.tolist()}")
    try:
        prior = PriorConfig(
            sigma2=float(pri[0]), psi=float(pri[1]),
            hyper=HyperParams(float(pri[2]), float(pri[3]), float(pri[4]),
                              float(pri[5])),
            **{switch: flags[i] == 1 for i, switch in enumerate(_SWITCHES, start=3)},
        )
        spec = NetworkSpec(widths=widths, activations=activations)
    except (ConfigError, DomainError) as exc:
        raise FormatError(f"checkpoint model description is invalid: {exc}") from None
    problems = family_problems(family, rank, None)
    if problems:
        raise FormatError(f"stored rank {rank} is invalid: {'; '.join(problems)}")
    # Check every stored shape against the one the description implies
    # before allocating: absurd widths or ranks fail here, not in numpy.
    for l in range(spec.n_transitions):
        shapes = LayerParams.param_shapes(family, spec.weight_shape(l), rank)
        for name, expected in shapes.items():
            stored = _require(tensors, f"layer{l:02d}/{name}")
            if stored.shape != expected:
                raise FormatError(
                    f"tensor layer{l:02d}/{name} has shape {stored.shape}, "
                    f"expected {expected}"
                )
            if not np.all(np.isfinite(stored)):
                raise FormatError(f"tensor layer{l:02d}/{name} (layer {l} parameter "
                                  f"{name}) holds non-finite values")
    state = VariationalState(spec, prior, family, rank)
    for l, name, arr in state.param_items():
        arr[...] = tensors[f"layer{l:02d}/{name}"]
    cnt = _counts(tensors, "meta/counters", 3)
    counters = {"phases_completed": cnt[0], "epochs": cnt[1], "steps": cnt[2]}
    rng_words = {}
    for name, arr in tensors.items():
        if name.startswith("rng/"):
            rng_words[name[4:]] = np.ascontiguousarray(arr).view(np.uint64)
    shapes = {name: arr.shape for name, arr in tensors.items()}
    return CheckpointData(state, rng_words, counters, shapes)
