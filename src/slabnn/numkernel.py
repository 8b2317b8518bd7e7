"""Dense float64 kernels and a reproducible counter-based random stream.

All numeric state in this package is plain numpy float64 with C (row
major) layout; the helpers here enforce that convention for vectors and
provide the numerically careful primitives the rest of the code builds
on: a shift-by-max log-softmax, the logistic function, softplus with its
inverse, and ``RngStream``, a Philox-backed stream keyed by
``(seed, stream_id)`` whose state can be serialized exactly.

Determinism notes
-----------------
Matrix products go through numpy's BLAS, which uses a fixed reduction
order for a given build, so repeated calls on the same inputs are
bit-identical within a process.  Random draws depend only on the stream
key and position: distinct ``stream_id`` values yield independent
sequences for the same seed, and a saved state restores the exact
position so that subsequent draws continue the original sequence.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox
from scipy import special

from .errors import DomainError, NumericError, ShapeError

__all__ = [
    "as_vector",
    "sigmoid",
    "softplus",
    "softplus_inv",
    "log_sigmoid",
    "log_softmax",
    "RngStream",
]

_U64 = np.uint64


def as_vector(values, n: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a 1-D C-contiguous float64 array."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got ndim={arr.ndim}")
    if n is not None and arr.shape[0] != n:
        raise ShapeError(f"expected length {n}, got {arr.shape[0]}")
    return arr


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), overflow safe."""
    return special.expit(x)


def softplus(x):
    """log(1 + exp(x)) computed without overflow."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def softplus_inv(y):
    """Inverse of softplus for y > 0: log(expm1(y))."""
    arr = np.asarray(y, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise DomainError("softplus_inv requires y > 0")
    out = np.log(np.expm1(arr))
    return float(out) if arr.ndim == 0 else out


def log_sigmoid(x):
    """log(sigmoid(x)) = -softplus(-x), stable for large |x|."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def log_softmax(logits) -> np.ndarray:
    """Row-wise log-softmax with the shift-by-max stabilization.

    Accepts a vector or a matrix whose rows are logit vectors; rejects
    non-finite input with ``NumericError``.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ShapeError(f"log_softmax expects a vector or matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("log_softmax received non-finite logits")
    return special.log_softmax(arr, axis=-1)


class RngStream:
    """Counter-based random stream keyed by ``(seed, stream_id)``.

    Built on the Philox bit generator with a 128-bit key formed from the
    two ids, so every (seed, stream_id) pair is an independent sequence
    and no mutable state is shared between streams.  Uniform draws land
    strictly inside (0, 1): they are generated as (k + 0.5) / 2**53 from
    a 53-bit integer k, so neither endpoint is reachable.

    The full generator position is exposed through ``state_words`` /
    ``from_state_words`` (13 raw uint64 words plus the two ids), which
    round-trips exactly and is what checkpoints store;
    ``set_state_words`` moves an existing stream to such a position.
    """

    _N_STATE_WORDS = 15  # counter(4) key(2) buffer(4) buffer_pos has_uint32 uinteger + seed + stream_id

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= int(seed) < 2**64):
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if not (0 <= int(stream_id) < 2**64):
            raise DomainError("stream_id must fit in an unsigned 64-bit integer")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._bit = Philox(key=(self.seed << 64) | self.stream_id)
        self._gen = Generator(self._bit)

    def uniform(self, n: int) -> np.ndarray:
        """n independent draws from the open interval (0, 1)."""
        if n < 0:
            raise DomainError("draw count must be nonnegative")
        k = self._gen.integers(0, 1 << 53, size=int(n), dtype=np.int64)
        return (k.astype(np.float64) + 0.5) * 2.0**-53

    def std_normal(self, n: int) -> np.ndarray:
        """n independent standard normal draws."""
        if n < 0:
            raise DomainError("draw count must be nonnegative")
        return self._gen.standard_normal(int(n))

    def permutation(self, n: int) -> np.ndarray:
        """A uniform random permutation of range(n)."""
        if n < 0:
            raise DomainError("permutation length must be nonnegative")
        return self._gen.permutation(int(n))

    # -- exact state serialization ------------------------------------

    def state_words(self) -> np.ndarray:
        """Current position as 15 uint64 words (see class docstring)."""
        st = self._bit.state
        words = np.empty(self._N_STATE_WORDS, dtype=_U64)
        words[0:4] = st["state"]["counter"]
        words[4:6] = st["state"]["key"]
        words[6:10] = st["buffer"]
        words[10] = _U64(st["buffer_pos"])
        words[11] = _U64(st["has_uint32"])
        words[12] = _U64(st["uinteger"])
        words[13] = _U64(self.seed)
        words[14] = _U64(self.stream_id)
        return words

    def set_state_words(self, words):
        """Move this stream to the position captured by state_words.

        The words must come from a stream with the same (seed, stream_id).
        """
        arr = np.asarray(words, dtype=_U64)
        if arr.shape != (self._N_STATE_WORDS,):
            raise ShapeError(
                f"expected {self._N_STATE_WORDS} state words, got shape {arr.shape}"
            )
        if (int(arr[13]), int(arr[14])) != (self.seed, self.stream_id):
            raise DomainError("state words belong to a different (seed, stream_id)")
        st = self._bit.state
        st["state"]["counter"][:] = arr[0:4]
        st["state"]["key"][:] = arr[4:6]
        st["buffer"][:] = arr[6:10]
        st["buffer_pos"] = int(arr[10])
        st["has_uint32"] = int(arr[11])
        st["uinteger"] = int(arr[12])
        self._bit.state = st

    @classmethod
    def from_state_words(cls, words) -> "RngStream":
        """Rebuild a stream at the exact position captured by state_words."""
        arr = np.asarray(words, dtype=_U64)
        if arr.shape != (cls._N_STATE_WORDS,):
            raise ShapeError(
                f"expected {cls._N_STATE_WORDS} state words, got shape {arr.shape}"
            )
        stream = cls(int(arr[13]), int(arr[14]))
        stream.set_state_words(arr)
        return stream
