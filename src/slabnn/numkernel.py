"""Dense float64 kernels and a reproducible counter-based random stream.

All numeric state in this package is plain numpy float64 with C (row
major) layout; the helpers here provide the numerically careful
primitives the rest of the code builds on: a shift-by-max log-softmax,
the logistic function and its inverse, softplus with its inverse,
log-sigmoid, ``xlogy``, and ``RngStream``, a Philox-backed stream keyed
by ``(seed, stream_id)`` whose state can be serialized exactly.
``compute_threads`` is the one thread rule: how many threads
``predictor`` and ``trainer`` may keep busy next to BLAS.

The per-weight transcendentals (``sigmoid``, ``softplus``,
``log_sigmoid``, ``logit``, ``xlogy``) are the one copy of each formula
in the package.  Each is a short chain of numpy's vectorised
``exp``/``log``/``log1p`` ufuncs, mostly in place on one fresh output
array.  scipy's ``expit``, ``logit`` and ``xlogy`` and numpy's
two-argument log-sum-exp use the same formulas but loop one element at a
time through the C math library, several times slower on the arrays a
training step makes.  Each kernel keeps its reference's values at +/-inf
and NaN and its scalar-in, scalar-out behaviour, and raises no
floating-point warning.

Determinism notes
-----------------
Matrix products go through numpy's BLAS, which uses a fixed reduction
order for a given build, so repeated calls on the same inputs are
bit-identical within a process.  Random draws depend only on the stream
key and position: distinct ``stream_id`` values yield independent
sequences for the same seed, and a saved state restores the exact
position so that subsequent draws continue the original sequence.  The
blocked logit draws of ``model.LayerParams.logit_blocks`` take one
``std_normal`` call per block and split it into rows, so a block holds
the numbers of as many one-row draws, in order, and leaves the stream
where they would.  A sampled ``predictor.predict`` may run its
replicates on several threads; each reads its own stream, writes only
its own arrays and is stored at its own index, so replicate threads do
not change bytes.  Training's epoch worker (``trainer.run_phase``) draws
the sample stream in the same order as the sequential loop, only on
another thread: whichever thread draws it, the stream hands out the
same numbers to the same draws.  BLAS's own thread count can change
bytes: a product that a multi-threaded BLAS splits may sum in another
order.

BLAS tiles a product's rows, and a row in a partial tile, or in a
product above some row count, sums in another order, so one row's
result can depend on the rows that share its product.  Prediction
therefore forms every dense product on fixed 256-row blocks
(``predictor.BlockedProducts``): a row's predicted probabilities are the
same bytes alone, in a slice of its file or in the whole file, in
every mode, and a mean mode's rows split over threads keep them.  This
holds per machine, numpy build and BLAS thread count, and is tested at
one and two BLAS threads.  Training multiplies its minibatches whole.  The
CLI's ``--standardize`` still rescales each file by its own statistics.

``exp``, ``log`` and ``log1p`` run numpy's CPU-dispatched SIMD loops,
whose last bits can differ from the C math library's and between
instruction sets (AVX-512 against AVX2, say).  As with BLAS, results
therefore repeat exactly for one machine and numpy build, not across
them; the kernels stay within a few units in the last place of the
scalar references (``tests/test_numkernel.py``).
"""

from __future__ import annotations

import os

import numpy as np
from numpy.random import Generator, Philox
from scipy import special

from .errors import DomainError, NumericError, ShapeError

__all__ = [
    "sigmoid",
    "logit",
    "softplus",
    "softplus_inv",
    "log_sigmoid",
    "xlogy",
    "log_softmax",
    "RngStream",
    "compute_threads",
]

_U64 = np.uint64


def _fresh(x) -> np.ndarray:
    # A new float64 array (0-d for a scalar) for an in-place ufunc chain.
    return np.empty(np.shape(x), dtype=np.float64)


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)).

    exp(-x) overflows to inf below x = -709.78, where the result is
    then 0 rather than a subnormal; 0 maps to exactly 1/2.
    """
    out = np.negative(x, out=_fresh(x))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)[()]


def logit(p):
    """Inverse of sigmoid, log(p / (1 - p)); -inf at 0, inf at 1, NaN outside [0, 1].

    Near p = 1/2 the quotient's rounding is about eps in absolute terms,
    so the result is accurate to about eps there, not relative to it.
    """
    out = np.subtract(1.0, p, out=_fresh(p))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(p, out, out=out)
        np.log(out, out=out)
    return out[()]


def softplus(x):
    """log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)), without overflow."""
    x = np.asarray(x, dtype=np.float64)
    out = np.abs(x, out=_fresh(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out[()]


def softplus_inv(y):
    """Inverse of softplus for finite y > 0.

    log(expm1(y)) up to y = 30; above, the same value as
    y + log(-expm1(-y)), which stays finite where expm1(y) overflows
    (y > 709.78).
    """
    arr = np.asarray(y, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < np.inf)):
        raise DomainError("softplus_inv requires finite y > 0")
    out = np.where(arr > 30.0, arr + np.log(-np.expm1(-arr)),
                   np.log(np.expm1(np.minimum(arr, 30.0))))
    return float(out) if arr.ndim == 0 else out


def log_sigmoid(x):
    """log(sigmoid(x)) = -softplus(-x), stable for large |x|."""
    return -softplus(np.negative(x, dtype=np.float64))


def xlogy(x, y):
    """x * log(y), taken as 0 where x == 0 and y is not NaN (so 0 * log 0 = 0)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(x.shape, np.shape(y)))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(y, out=out)
        np.multiply(x, out, out=out)
    zero = x == 0.0
    if np.any(zero):
        out = np.where(zero & ~np.isnan(y), 0.0, out)
    return out[()]


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


def compute_threads() -> int:
    """How many threads may compute at once without crowding BLAS: cores // blas_threads.

    ``cores`` is the CPUs this process may run on; ``blas_threads`` is
    the first of ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
    ``MKL_NUM_THREADS`` set to a positive integer, else ``cores``, so
    unpinned BLAS, which fills the cores itself, leaves 1.  Never below 1.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            blas = n
            break
    return max(1, cores // blas)
