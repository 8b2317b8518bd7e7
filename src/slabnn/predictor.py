"""Prediction regimes and calibrated abstention.

Four fitted-model readouts, named by how indicators (first) and slab
weights (second) are handled:

* sim/sim : fully Bayesian model averaging; R replicates, each with
  hard Bernoulli indicators (the temperature-zero limit) and fresh slab
  draws; class probabilities are averaged across replicates.
* all/mea : the deterministic posterior-mean network, weights
  alpha_hat * kappa, every connection kept.
* med/sim : the median probability model; the mask alpha_hat > 1/2 is
  fixed and slab weights are redrawn per replicate.
* med/mea : the median mask applied to the slab means; deterministic.

Every forward of a call runs through a product plan
(``BlockedProducts``), which ``elbo.forward_logits`` asks for each
transition's product: each dense product is formed on blocks of
exactly ``BLOCK_ROWS`` (256) rows, the last one zero-padded, so a
row's probabilities are the same bytes predicted alone or inside any
file, in every mode.  The median model runs as the sparse network it
is: a layer whose mask keeps at most ``SPARSE_SHARE`` of its
non-bias weights has its product formed from the kept weights only.
Its probabilities equal the dense ones up to rounding; layers above
the share stay dense, bit for bit with the blocked dense forward.

all/sim (every connection kept but slabs sampled) only makes sense for
fixed-dense states and is rejected otherwise.  sim/mea is not a mode
and ``PredictionMode`` rejects it.  Prediction never uses
the Concrete relaxation: indicators are exact Bernoulli draws.

The two mean modes are one computation, ``posterior_mean_weights``,
given alpha_hat (all/mea) or the median mask (med/mea).  The sampled
modes are one replicate loop: med/sim passes the median mask to
``sample_network`` and all/sim relies on its fixed_dense all-ones
masks, so neither draws indicators; sim/sim draws them.  Each call
builds the per-layer draw constants once for all R replicates, which
then draw one network at a time from them: every layer's slab sd, plus
the logit factor of a drawn layer (``LayerParams.logit_factor``; for
the full family the dense Cholesky factor) or the mask and kept
positions of a fixed one.  A med/sim replicate draws slab noise for
the kept weights only, so its cost in random numbers falls with the
median model's size.  A replicate keeps only its effective weights and
indicators through its forward; the draw's noise and slab arrays are
dropped first.

Replicate r consumes stream (seed, stream_id + 1 + r) derived from the
passed rng's key, so the first replicates of an R=1 and an R=10 call
with the same rng are identical.  Replicates share nothing they write,
so every sampled call runs them on k = min(R, cores // blas_threads)
threads at once, whatever its size.  ``cores // blas_threads`` is
``numkernel.compute_threads``, the one thread rule, which training reads
too; it is 1 when BLAS is not pinned and already fills the cores.  The
calling thread runs its share and k - 1 threads start inside the call
and are joined before it returns; none outlives it.
Thread j (the caller is 0) runs replicates j, j + k, ... and each
result is placed by its index, so every replicate's bytes are those of
the sequential loop, whatever k is.  If replicates fail, the error of
the lowest-numbered failing one is raised, as the sequential loop does,
once every thread has finished.  Each extra thread costs about one
replicate's working set of resident memory, which its malloc arena
keeps after the call.

The mean modes have one network and split its rows instead: a call
whose forward takes at least ``SPLIT_MULTIPLY_ADDS`` multiply-adds
(``multiply_adds``, counting a sparse median layer's kept weights
only) hands contiguous runs of whole 256-row blocks to
k = min(compute_threads(), blocks) threads the same way, and joins
their rows in order.  Each run builds its own plan for its rows, so
its finiteness check and live-column copy run on its own thread, and
a split med/mea call builds one kept-weight pattern per run.  A row's
bytes do not depend on its block, so neither do they on k; a failing
run is raised as a failing replicate is.  A smaller call, such as
60-15-5 on 3,000 rows or med/mea on a 1%-dense median model, stays on
the calling thread, where a split measured slower.

The inclusion probabilities are exact for every family and draw
nothing, so the deterministic modes (all/mea, med/mea) run without an
rng.  A correlated state computes them once while its structure keeps
its bytes (``LayerParams.inclusion``), so repeated med and mea calls on
one state, such as ``slabnn eval``'s in-domain and OOD sets, reuse
them, with the bytes a recomputation gives.  A result records the
masks each replicate used, which is what the density level summarizes
(union across replicates, biases included).
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Thread

import numpy as np
from scipy import sparse

from .elbo import forward_logits
from .errors import ConfigError, DomainError, NumericError, ShapeError
from .model import (SampledLayer, SampledNetwork, VariationalState, _layer_consts,
                    marginal_inclusion, median_model, memory_problems,
                    posterior_mean_weights, sample_network)
from .numkernel import RngStream, compute_threads, log_softmax

__all__ = [
    "PredictionMode",
    "PredictiveResult",
    "DoubtDecisions",
    "predict",
    "classify_with_doubt",
    "density_level",
    "export_predictions_csv",
    "DOUBT_THRESHOLD",
    "BLOCK_ROWS",
    "SPARSE_SHARE",
    "BlockedProducts",
    "multiply_adds",
]

GAMMA_RULES = ("sim", "all", "med")
BETA_RULES = ("sim", "mea")

# Classify only when the top model-averaged probability exceeds this.
DOUBT_THRESHOLD = 0.95

# A mean-mode call splits its row blocks over threads only when the
# forward it runs takes at least this many multiply-adds: rows times
# the sum over transitions of widths[t] * widths[t + 1], or of the kept
# weights where a median mask forms the product from those
# (``multiply_adds``).  Medians of all/mea calls on an MF
# state, 2 cores, one BLAS thread, one thread -> two: 60-15-5 x 3,000
# rows (2.9M) 0.87 -> 1.16 ms in one pass and 1.15 -> 1.13 in another,
# 784-16-3 x 512 (6.4M) 0.85 -> 1.02, 60-15-5 x 9,000 (8.8M) 2.24 ->
# 1.77, 784-16-3 x 1,024 (12.9M) 1.87 -> 1.44, 784-64-32-10 x 2,000
# (105M) 7.41 -> 5.31.  The split pays from about 2**23; the floor
# keeps a margin above the calls where it lost.  Med/mea on trained
# benchmark states, whose median masks form layer 0 (and for the low
# rank one layer 1) from kept weights: mf_desk x 2,000 rows (5.9M
# counted, 105M dense) 6.56 -> 7.33 ms, lowrank_eval x 5,000 (1.7M
# counted, 263M dense) 7.55 -> 6.89 ms; both stay on one thread.
SPLIT_MULTIPLY_ADDS = 2**24

# A fixed mask that keeps at most this share of a transition's non-bias
# weights has that transition's product formed from the kept weights
# only (``BlockedProducts``).  At 784-64, 2000 rows and one BLAS thread,
# ten forwards per mask break even with the dense product near 9%
# density.  A single forward gains little or loses even at 1%: the
# one-off copy of the live input columns costs about what it saves.
SPARSE_SHARE = 1.0 / 32.0

# Every dense product on the predict side (``BlockedProducts``) is this
# many rows tall, so a BLAS call's shape depends on the layer only.
# OpenBLAS 0.3.31 (Haswell kernels, one thread) sums a row in a partial
# row tile, or in a call above some row count, in another order: of
# 378 slices (1, 37 and 150 rows at 9 offsets) of 1,000-row products
# over 14 layer shapes from 3x2 to 784x128, 0 differed from the whole
# call's rows in 256-row blocks.  At 784x64 on 2,000 rows, blocks of
# 64, 128, 256 and 512 rows took 6.3, 6.2, 5.8 and 6.1 ms against
# 5.5 ms for one product; at 60x15 on 3,000 rows 0.17 ms each against
# 0.27 ms.  Any one size from 8 to 256 rows keeps the slices' bytes,
# but not two sizes mixed: at 784x16 a row's bytes in 64-row blocks
# differ from its bytes in 128-row ones.  Smaller blocks pad less (a
# 1-row all/mea call at 784-64-32-10 takes 0.62 ms in 64-row blocks,
# 1.13 ms in 256-row ones) and run 2,000-row calls about 6% slower.
BLOCK_ROWS = 256


@dataclass(frozen=True)
class PredictionMode:
    """(gamma_rule, beta_rule, replicates); see module docstring.

    The defaults are the fully Bayesian sim/sim readout with 10 replicates.
    """

    gamma: str = "sim"
    beta: str = "sim"
    replicates: int = 10

    def __post_init__(self):
        if self.gamma not in GAMMA_RULES:
            raise ConfigError(f"gamma rule must be one of {GAMMA_RULES}, got {self.gamma!r}")
        if self.beta not in BETA_RULES:
            raise ConfigError(f"beta rule must be one of {BETA_RULES}, got {self.beta!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if self.gamma == "sim" and self.beta == "mea":
            raise ConfigError("gamma=sim with beta=mea is not a prediction mode; "
                              "use med/mea or all/mea")

    def check(self, fixed_dense: bool):
        """Raise ConfigError unless a state with this ``fixed_dense`` flag runs the mode."""
        if self.gamma == "all" and self.beta == "sim" and not fixed_dense:
            raise ConfigError("gamma=all with beta=sim needs fixed_dense = true: it keeps "
                              "every connection while sampling slabs")

    @property
    def deterministic(self) -> bool:
        return self.beta == "mea"


@dataclass
class PredictiveResult:
    """Averaged class probabilities plus per-replicate detail."""

    probs: np.ndarray                # (n, classes), rows sum to 1
    replicate_probs: np.ndarray      # (R, n, classes) or None for deterministic modes
    masks: list                      # per replicate: list of per-layer 0/1 masks


@dataclass
class DoubtDecisions:
    """Argmax decisions with abstention; -1 marks an abstained row."""

    decisions: np.ndarray
    threshold: float

    @property
    def classified(self) -> np.ndarray:
        return np.nonzero(self.decisions >= 0)[0]

    @property
    def n_classified(self) -> int:
        return int(np.sum(self.decisions >= 0))

    @property
    def n_abstained(self) -> int:
        return int(np.sum(self.decisions < 0))


class _KeptWeights:
    """CSR pattern of one transition's kept weights, output unit x live input.

    A live input is one with at least one kept weight.  ``z_t`` is the
    transposed live-column copy of a fixed input block, or None when the
    input changes per forward and is gathered each time.  The pattern and
    ``z_t`` are read-only after construction and each ``pre`` call fills
    its own data array, so threads may call ``pre`` at once.
    """

    def __init__(self, kept: np.ndarray, z=None):
        live_mask = kept.any(axis=1)
        self.live = np.flatnonzero(live_mask)
        units, cols = np.nonzero(kept[self.live].T)  # row-major, so CSR order
        self.take = (self.live[cols] + 1, units)     # positions in W, bias row first
        indptr = np.zeros(kept.shape[1] + 1, dtype=np.intp)
        np.cumsum(np.bincount(units, minlength=kept.shape[1]), out=indptr[1:])
        pattern = sparse.csr_array((np.zeros(units.size), cols, indptr),
                                   shape=(kept.shape[1], self.live.size))
        # In the index dtype scipy chose, so a per-call matrix shares them uncopied.
        self.indices, self.indptr = pattern.indices, pattern.indptr
        self.indices.setflags(write=False)
        self.indptr.setflags(write=False)
        self.shape = pattern.shape
        self.z_t = None
        if z is not None:
            # z.T[live], copied 128 rows at a time: faster than that
            # strided gather, with the same bytes.
            self.z_t = np.empty((self.live.size, z.shape[0]), dtype=z.dtype)
            for s in range(0, z.shape[0], 128):
                self.z_t[:, s:s + 128] = z[s:s + 128].compress(live_mask, axis=1).T

    def pre(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``z @ w[1:] + w[0]`` through the kept weights of ``w``."""
        matrix = sparse.csr_array((w[self.take], self.indices, self.indptr),
                                  shape=self.shape)
        z_t = self.z_t if self.z_t is not None else z.T[self.live]
        pre = np.empty((z.shape[0], w.shape[1]))
        np.add((matrix @ z_t).T, w[0, :], out=pre)
        return pre


def _sparse_kept(mask):
    """A 0/1 transition mask's kept non-bias weights, or None above ``SPARSE_SHARE``.

    None means the transition's product stays dense.
    """
    kept = np.asarray(mask)[1:, :] != 0.0
    return kept if np.count_nonzero(kept) <= SPARSE_SHARE * kept.size else None


def multiply_adds(widths, masks=None) -> int:
    """Multiply-adds per row of a forward through ``BlockedProducts(x, masks)``.

    A transition formed from its kept weights counts those; a dense
    one counts ``widths[t] * widths[t + 1]``.
    """
    kept = map(_sparse_kept, masks) if masks else [None] * (len(widths) - 1)
    return sum(a * b if k is None else np.count_nonzero(k)
               for a, b, k in zip(widths[:-1], widths[1:], kept))


def _blocked_pre(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``z @ w[1:] + w[0]`` with every product ``BLOCK_ROWS`` rows tall.

    The whole blocks go as one stacked matmul, which numpy hands to BLAS
    one block at a time; a last partial block is zero-padded to
    ``BLOCK_ROWS`` rows and its padded rows are dropped.
    """
    n, width = z.shape
    pre = np.empty((n, w.shape[1]))
    full = n - n % BLOCK_ROWS
    if full:
        np.matmul(z[:full].reshape(-1, BLOCK_ROWS, width), w[1:, :],
                  out=pre[:full].reshape(-1, BLOCK_ROWS, w.shape[1]))
    if full < n:
        tail = np.zeros((BLOCK_ROWS, width))
        tail[:n - full] = z[full:]
        pre[full:] = (tail @ w[1:, :])[:n - full]
    pre += w[0, :]
    return pre


class BlockedProducts:
    """How ``forward_logits`` forms each product on the predict side.

    Every dense product runs on blocks of exactly ``BLOCK_ROWS`` rows
    (``_blocked_pre``), so each BLAS call of a transition has one shape
    whatever the block of features, and a row's outputs are the same
    bytes alone or among any other rows.  Under fixed 0/1 ``masks`` (the
    median model's, held fixed over many forwards), a transition whose
    mask keeps at most ``SPARSE_SHARE`` of its non-bias weights
    multiplies through its kept weights only, a product that is per row
    already; the others stay blocked and dense, so with no sparse
    transition a forward is bit for bit the blocked dense one.  A sparse
    product skips the dropped weights, which are zero in every weight
    matrix drawn under the mask, so it equals the dense product up to
    rounding.  The first transition's live input columns are copied
    once, transposed.  A sparse first product never reads a dropped
    column, so a non-finite feature anywhere in the block raises
    ``NumericError`` here, as the dense product would at transition 0.
    A plan writes nothing after construction, so threads may share it.
    """

    def __init__(self, features: np.ndarray, masks=None):
        self.features = features
        self.layers = []
        for t, mask in enumerate(masks or ()):
            kept = _sparse_kept(mask)
            if kept is None:
                self.layers.append(None)
                continue
            if t == 0 and not np.all(np.isfinite(features)):
                raise NumericError("non-finite activations at transition 0")
            self.layers.append(_KeptWeights(kept, features if t == 0 else None))

    def pre(self, t: int, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Transition ``t``'s ``z @ w[1:] + w[0]``; at t = 0, ``z`` is the plan's block."""
        if t == 0 and z is not self.features:
            raise ShapeError("products were built for another design block")
        kept = self.layers[t] if self.layers else None
        return _blocked_pre(z, w) if kept is None else kept.pre(z, w)


def _probs(spec, weights, features, products: BlockedProducts) -> np.ndarray:
    """Softmax class probabilities of the network with these effective weights."""
    layers = [SampledLayer(alpha=None, gamma_tilde=None, beta=w, effective=w,
                           eps=None, tau=None) for w in weights]
    logits, _ = forward_logits(SampledNetwork(layers=layers, spec=spec, delta=0.0),
                               features, products=products)
    return np.exp(log_softmax(logits))


def predict(state: VariationalState, features, mode: PredictionMode,
            rng: RngStream = None, alpha_mc: int = 1000) -> PredictiveResult:
    """Class probabilities for a design block under the given mode.

    Needs an rng whenever anything is sampled (sim replicates); the
    deterministic modes run without one, for every family.  Given the
    same rng key the result is reproducible draw for draw.  ``alpha_mc``
    is accepted and not used: the inclusion probabilities are exact.
    Before the first draw, a sampled mode raises ``ConfigError`` when
    what its replicates keep would not fit in physical memory: the
    R x n x classes stacked probabilities and, for sim/sim, each
    replicate's mask set (med/sim and all/sim share one fixed mask).
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != state.spec.widths[0]:
        raise ShapeError(f"features must be (n, {state.spec.widths[0]}), got {x.shape}")
    mode.check(state.prior.fixed_dense)
    if mode.beta == "sim":
        if rng is None:
            raise DomainError("this prediction mode needs an rng")
        kept = x.shape[0] * state.spec.n_classes
        if mode.gamma == "sim":
            kept += sum(layer.n_weights for layer in state.layers)
        problems = memory_problems(8 * mode.replicates * kept,
                                   f"replicates: the probabilities and masks of "
                                   f"{mode.replicates} replicates")
        if problems:
            raise ConfigError("; ".join(problems))

    alpha_hat = marginal_inclusion(state) if mode.gamma == "med" or mode.deterministic else None
    mask = median_model(state, alpha_hat=alpha_hat) if mode.gamma == "med" else None

    if mode.beta == "mea":  # med/mea is the posterior mean with the mask as alpha_hat
        weights = posterior_mean_weights(state, alpha_hat=mask or alpha_hat)
        masks = [mask or [np.ones(layer.shape) for layer in state.layers]]
        return PredictiveResult(probs=_mean_probs(state.spec, weights, x, mask),
                                replicate_probs=None, masks=masks)

    # Sampled slabs: one derived stream per replicate; the median mask is
    # held fixed and shared by every replicate's record.  Every replicate
    # reads one set of per-layer constants and one product plan built here.
    consts = _layer_consts(state, mask)
    products = BlockedProducts(x, mask)

    def replicate(r):
        sub = RngStream(rng.seed, rng.stream_id + 1 + r)
        net = sample_network(state, 0.0, "hard", sub, fixed_masks=mask, consts=consts)
        weights = [lay.effective for lay in net.layers]
        masks = mask or [lay.gamma_tilde for lay in net.layers]
        del net  # its noise and other draw arrays are dead weight in the forward
        return _probs(state.spec, weights, x, products), masks

    done = _run_replicates(replicate, mode.replicates,
                           min(mode.replicates, compute_threads()))
    stacked = np.stack([p for p, _ in done], axis=0)
    return PredictiveResult(probs=stacked.mean(axis=0), replicate_probs=stacked,
                            masks=[m for _, m in done])


def _mean_probs(spec, weights, x, mask) -> np.ndarray:
    """A mean mode's probabilities, its row blocks split over k threads.

    Run j of k takes the rows of blocks j * blocks // k up to
    (j + 1) * blocks // k through its own plan, and the runs are joined
    in order.  A row's bytes do not depend on its block, so neither do
    they on k.
    """
    blocks = -(-x.shape[0] // BLOCK_ROWS)
    work = x.shape[0] * multiply_adds(spec.widths, mask)
    k = min(compute_threads(), blocks) if work >= SPLIT_MULTIPLY_ADDS else 1

    def run(j):
        rows = x[j * blocks // k * BLOCK_ROWS:(j + 1) * blocks // k * BLOCK_ROWS]
        return _probs(spec, weights, rows, BlockedProducts(rows, mask))

    return np.concatenate(_run_replicates(run, k, k))


def _run_replicates(fn, n: int, k: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, computed by the caller and k - 1 threads.

    Thread j (the caller is 0) runs indices j, j + k, ... in increasing
    order up to its first failure.  Every thread is joined before this
    returns or raises, and then the exception of the lowest failing
    index is raised.
    """
    results = [None] * n
    errors = [None] * n

    def work(first):
        for r in range(first, n, k):
            try:
                results[r] = fn(r)
            except Exception as exc:  # re-raised by the caller once all are joined
                errors[r] = exc
                return

    threads = []
    try:
        for first in range(1, k):
            thread = Thread(target=work, args=(first,), name=f"slabnn-replicates-{first}")
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def classify_with_doubt(probs, threshold: float = DOUBT_THRESHOLD) -> DoubtDecisions:
    """Argmax decisions, abstaining when the top probability is not above threshold.

    The comparison is strict, so a top probability exactly at the
    threshold abstains; ties pick the lowest class index.
    """
    p = np.ascontiguousarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise ShapeError("probs must be a (n, classes) matrix")
    if not (0.0 <= threshold < 1.0):
        raise DomainError("threshold must lie in [0, 1)")
    decisions = np.argmax(p, axis=1).astype(np.int64)
    decisions[np.max(p, axis=1) <= threshold] = -1
    return DoubtDecisions(decisions=decisions, threshold=float(threshold))


def density_level(masks) -> float:
    """Fraction of connections used by at least one replicate.

    ``masks`` is the PredictiveResult.masks list (per replicate, per
    layer); bias rows count like any other connection.  Deterministic
    all-connection modes give exactly 1.0.
    """
    if not masks or not masks[0]:
        raise DomainError("need at least one replicate's masks of at least one layer")
    union = [np.zeros_like(m) for m in masks[0]]
    for rep in masks:
        if len(rep) != len(union):
            raise ShapeError("replicates disagree on the number of layers")
        for u, m in zip(union, rep):
            np.maximum(u, m, out=u)
    used = sum(float(np.sum(u)) for u in union)
    total = sum(u.size for u in union)
    return used / total


def export_predictions_csv(path, result: PredictiveResult, decisions: DoubtDecisions):
    """Write one row per observation: probabilities, decision, abstain flag.

    ``classify_with_doubt(result.probs, 0.0)`` gives plain argmax rows.
    A decision count other than the row count raises ``ShapeError``
    before the file is opened.
    """
    probs = result.probs
    if len(decisions.decisions) != len(probs):
        raise ShapeError(f"{len(probs)} probability rows but {len(decisions.decisions)} decisions")
    cols = ["row"] + [f"p_class{j}" for j in range(probs.shape[1])] + ["decision", "abstained"]
    lines = [",".join(cols) + "\n"]
    for i, (p, d) in enumerate(zip(probs.tolist(), decisions.decisions.tolist())):
        dec, flag = (d, 0) if d >= 0 else (-1, 1)
        lines.append(f"{i},{','.join(map(repr, p))},{dec},{flag}\n")
    with open(path, "w") as fh:
        fh.write("".join(lines))
