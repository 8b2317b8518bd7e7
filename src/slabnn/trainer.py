"""Three-phase stochastic variational training with per-group ADAM ascent.

A schedule is a list of phases in the fixed order pretrain, train,
posttrain (each optional, no repeats).  Pre-training is where the
point-estimated prior values and their hyperprior shapes move; the main
phase freezes them and fits the variational parameters; the optional
post-training phase freezes the inclusion structure as well and only
fine-tunes slab means and sds, either resampling indicators as usual or
conditioning on the median probability mask.

Each parameter belongs to one step-size group (``model.PARAM_GROUP``);
a phase assigns a step size per group and a zero (or absent) entry
freezes that group, bit-exactly.  Which groups a phase may move at all
is ``model.PHASE_GROUPS``, the one phase policy: ``PhaseConfig``
refuses a nonzero step outside it, and ``elbo_gradient`` differentiates
exactly those groups.  ADAM moments restart at every phase boundary
since the objective and the live groups change there.  One optimizer
step per minibatch, ascent direction:

    theta <- theta + lr * m_hat / (sqrt(v_hat) + 1e-8).

Per epoch the training set is shuffled by a dedicated stream using a
seeded permutation, so (seed, config, data) fully determine every
parameter byte; wall-clock time appears only in trace records.  Each
step's gradient is scanned for finiteness once, by ``adam_step``,
before anything is updated.  A non-finite ELBO or gradient aborts the
phase after restoring the last completed epoch's parameters and stream
positions, which are then what a retained checkpoint contains; the
run's step count covers the completed epochs only.

Each epoch may run one worker thread beside the caller, with two jobs.
It draws each network's noise from the sample stream one draw ahead
(``model.draw_noise``, which reads no parameter value): while the
caller computes a draw, the worker draws the next, which at the usual
one draw per step is step s + 1's while the caller computes step s.
``elbo_gradient`` takes those draws in place of drawing them, and at
most two draws' noise are alive at a time, whatever the draw count.
After the caller's finiteness scan, the worker updates the
second half of each ADAM step (by value count, in ``grads.items()``
order) while the caller updates the first; the parameter that
straddles the cut is updated as two contiguous flat views.  The worker
runs when ``numkernel.compute_threads()`` (cores // blas_threads, the
rule prediction's replicate threads follow) is at least 2 and a step
draws plus updates at least ``WORKER_VALUES`` = 2**17 values, about
where it starts to pay on two cores; otherwise the epoch runs
sequentially.  It draws exactly the epoch's draws, in the sequential
order, and is joined before the epoch's record is written, or on any
exception before the streams roll back, so no thread outlives
``run_phase`` and no checkpoint sees a stream past the steps taken.
Every value gets the same float operations on either thread, so the
bytes do not depend on the worker.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice

import numpy as np

from . import checkpoint as ckpt
from .elbo import Batch, GradientBundle, elbo_gradient, gradient_groups
from .errors import ConfigError, DomainError, NumericError, ShapeError
from .model import (GROUPS, PARAM_GROUP, PHASE_GROUPS, STRUCTURE_GROUPS, Family,
                    LayerParams, NetworkSpec, PriorConfig, VariationalState, _layer_consts,
                    draw_noise, init_state, marginal_inclusion, median_model)
from .numkernel import RngStream, compute_threads

__all__ = [
    "STREAM_INIT",
    "STREAM_SHUFFLE",
    "STREAM_SAMPLE",
    "MAX_DRAWS",
    "WORKER_VALUES",
    "STOCK_LR",
    "PhaseConfig",
    "default_phases",
    "AdamMoments",
    "adam_step",
    "run_phase",
    "train",
    "TrainReport",
    "TrainingAborted",
    "validate_schedule",
    "live_groups",
]

PHASE_NAMES = tuple(PHASE_GROUPS)

# The trainer's stream ids per run seed; checkpoints keep the positions
# of the shuffle and sample streams.
STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_SAMPLE = 2

HYPER_CLAMP = (1e-3, 1e3)

# ADAM's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Upper bound on a phase's draws M.  Every step samples and backpropagates
# M networks, so an absurd M would run without end; it fails validation.
MAX_DRAWS = 1024

# A step must draw plus update at least this many values for
# ``run_phase`` to start an epoch worker (see the module docstring).
# Medians of five 20-step mean-field train epochs, batch 100, 2 cores,
# one BLAS thread, ms per step sequential -> worker: 6-5-3 (265 values)
# 0.72 -> 1.42, 60-15-5 (5k) 0.92 -> 1.81, 784-16-10 (64k) 2.87 -> 3.18,
# 784-32-10 (127k) 4.86 -> 4.60.  The worker pays from about 2**17.
WORKER_VALUES = 2**17

# The stock step sizes per family and phase, read by ``default_phases``
# and by the INI reader for every group a phase section leaves unset.
# The mean-field and full-covariance families share one table; the
# low-rank family uses its own (smaller structure steps).  The
# point-estimated prior values get 1e-3 during pretraining and freeze
# afterwards.
_PRIOR_LR = {"sigma2": 1e-3, "psi": 1e-3, "psi_hyper": 1e-3, "beta_hyper": 1e-5}
STOCK_LR = {
    Family.MF: {
        "pretrain": {"weights": 1e-4, "omega": 0.1, "xi": 0.1, "cov": 0.1, **_PRIOR_LR},
        "train": {"weights": 1e-4, "omega": 1e-4, "xi": 0.01, "cov": 1e-4},
        "posttrain": {"weights": 1e-4}},
    Family.MVN_LOWRANK: {
        "pretrain": {"weights": 1e-4, "xi": 0.01, "cov": 0.01, **_PRIOR_LR},
        "train": {"weights": 1e-4, "xi": 1e-4, "cov": 1e-4},
        "posttrain": {"weights": 1e-4}},
}
STOCK_LR[Family.MVN_FULL] = STOCK_LR[Family.MF]


class TrainingAborted(NumericError):
    """A phase hit non-finite numbers; the state was rolled back.

    Carries the trace records completed before the abort.
    """

    def __init__(self, message: str, records: list):
        super().__init__(message)
        self.records = records


@dataclass
class PhaseConfig:
    """One phase of the schedule.

    ``lr`` maps group names (see GROUPS) to nonnegative step sizes;
    missing groups are frozen.  ``draws`` is the number M of network
    draws averaged per step, from 1 to ``MAX_DRAWS``.  ``gamma_policy``
    only matters for the posttrain phase: "resample" keeps drawing
    indicators, while "median_fixed" conditions every step on the
    median probability mask computed at phase entry from the exact
    inclusion probabilities.  ``alpha_mc`` is accepted (and must be at least 1)
    but not used.
    """

    name: str
    epochs: int
    lr: dict
    batch_size: int = 100
    draws: int = 1
    delta: float = 0.1
    kl_mode: str = "analytic"
    gamma_policy: str = "resample"
    alpha_mc: int = 1000

    def __post_init__(self):
        problems = self.validate()
        if problems:
            raise ConfigError("; ".join(problems))

    def validate(self) -> list:
        problems = []
        if self.name not in PHASE_NAMES:
            problems.append(f"unknown phase name {self.name!r}")
        if self.epochs < 0:
            problems.append(f"{self.name}: epochs must be nonnegative")
        if self.batch_size < 1:
            problems.append(f"{self.name}: batch_size must be positive")
        if not 1 <= self.draws <= MAX_DRAWS:
            problems.append(f"{self.name}: draws must be between 1 and {MAX_DRAWS}, "
                            f"got {self.draws}")
        if not 0.0 < self.delta < np.inf:
            problems.append(f"{self.name}: delta must be positive and finite")
        if self.kl_mode not in ("analytic", "sampled"):
            problems.append(f"{self.name}: unknown kl_mode {self.kl_mode!r}")
        if self.gamma_policy not in ("resample", "median_fixed"):
            problems.append(f"{self.name}: unknown gamma_policy {self.gamma_policy!r}")
        if self.gamma_policy == "median_fixed" and self.name != "posttrain":
            problems.append("median_fixed is only valid in the posttrain phase")
        if self.alpha_mc < 1:
            problems.append(f"{self.name}: alpha_mc must be at least 1")
        for group, value in self.lr.items():
            if group not in GROUPS:
                problems.append(f"{self.name}: unknown step-size group {group!r}")
            elif not 0.0 <= value < np.inf:
                problems.append(f"{self.name}: step size for {group} must be "
                                f"nonnegative and finite")
            elif value != 0.0 and group not in PHASE_GROUPS.get(self.name, GROUPS):
                problems.append(f"{self.name}: structure group {group} must be frozen"
                                if group in STRUCTURE_GROUPS else
                                f"{self.name}: group {group} may only move during pretrain")
        return problems


def live_groups(family: Family, prior: PriorConfig) -> set:
    """Step-size groups with any movable parameter under this model.

    The family's groups are those of its parameters (``PARAM_GROUP``);
    fixed_dense freezes the inclusion structure and the prior inclusion
    probability; ``learn_sigma2``, ``learn_psi`` and ``learn_hyper``
    freeze their groups.  ``train`` drops the step size of every other
    group.
    """
    live = {PARAM_GROUP[name] for name in LayerParams.param_shapes(family, (1, 1))}
    if prior.fixed_dense:
        live -= STRUCTURE_GROUPS | {"psi", "psi_hyper"}
    if not prior.learn_psi:
        live.discard("psi")
    if not prior.learn_hyper:
        live -= {"psi_hyper", "beta_hyper"}
    if not prior.learn_sigma2:
        live.discard("sigma2")
    return live


def validate_schedule(phases) -> list:
    """All schedule-level violations (empty list when valid)."""
    problems = []
    if not phases:
        problems.append("schedule needs at least one phase")
        return problems
    order = [p.name for p in phases]
    expected = [n for n in PHASE_NAMES if n in order]
    if len(set(order)) != len(order):
        problems.append(f"duplicate phase names in schedule: {order}")
    elif order != expected:
        problems.append(
            f"phases must appear in the order {PHASE_NAMES}, got {order}"
        )
    for p in phases:
        problems.extend(p.validate())
    return problems


def default_phases(family: Family, pretrain_epochs: int = 20, train_epochs: int = 250,
                   posttrain_epochs: int = 0) -> list:
    """The stock schedule: ``STOCK_LR[family]`` with PhaseConfig's other defaults.

    The train phase is always present; pretrain and posttrain only with
    a positive epoch count.  The posttrain conditions on the median
    probability mask (``gamma_policy="median_fixed"``).
    """
    epochs = (pretrain_epochs, train_epochs, posttrain_epochs)
    return [PhaseConfig(name, n, dict(STOCK_LR[family][name]),
                        gamma_policy="median_fixed" if name == "posttrain" else "resample")
            for name, n in zip(PHASE_NAMES, epochs) if n > 0 or name == "train"]


class AdamMoments:
    """First and second moment buffers plus the shared step counter.

    ``m`` and ``v`` map ``(layer, name)`` to one parameter's buffers.  A
    pair is allocated, zero, by the first step that computes that
    parameter's gradient, so a parameter the phase never differentiates
    (the structure in posttrain, the priors outside pretrain) has none.
    """

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0


def adam_step(state: VariationalState, grads: GradientBundle, moments: AdamMoments,
              lr: dict, *, _worker=None):
    """One ADAM ascent step with per-group step sizes.

    Every computed gradient is scanned first: a non-finite one raises
    ``NumericError`` naming its layer and parameter, and a refused step
    changes nothing (no parameter, no moment, not ``moments.t``) and
    allocates no moment.  Then moments update for every parameter whose
    gradient was computed, starting from zero on its first step;
    parameters in groups with step size zero (or absent) are left
    bit-identical.  Hyperprior shapes are clamped to [1e-3, 1e3] after
    their update.

    ``_worker``, ``run_phase``'s epoch worker, updates the second half
    of the step's values (``_halves``) while the caller updates the
    first; every value gets the same float operations either way.
    """
    for l, name, g in grads.items():
        if g is not None and not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for layer {l} parameter {name}")
    moments.t += 1
    c1 = 1.0 - ADAM_BETA1**moments.t
    c2 = 1.0 - ADAM_BETA2**moments.t
    pieces = []
    for l, name, g in grads.items():
        if g is None:
            continue
        if (l, name) not in moments.m:
            moments.m[(l, name)] = np.zeros_like(g)
            moments.v[(l, name)] = np.zeros_like(g)
        group = PARAM_GROUP[name]
        pieces.append((getattr(state.layers[l], name), moments.m[(l, name)],
                       moments.v[(l, name)], g, lr.get(group, 0.0),
                       group in ("psi_hyper", "beta_hyper")))
    if _worker is None:
        _adam_update(pieces, c1, c2, _temporaries(pieces))
        return
    first, second = _halves(pieces)
    # Both halves' buffers come from this thread, so the worker allocates nothing.
    job = _worker.submit(_adam_update, second, c1, c2, _temporaries(second))
    _adam_update(first, c1, c2, _temporaries(first))
    job.result()


def _temporaries(pieces) -> np.ndarray:
    """Two flat buffers the size of the largest piece: ``_adam_update``'s temporaries."""
    return np.empty((2, max(piece[0].size for piece in pieces)))


def _adam_update(pieces, c1: float, c2: float, buffers: np.ndarray):
    """The moment and parameter updates of ``adam_step`` for each piece, in order.

    A piece is ``(param, m, v, g, step, clamp)``: four arrays of one
    shape, the group's step size and whether to clamp to ``HYPER_CLAMP``.
    Every temporary lives in ``buffers`` (``_temporaries(pieces)``), and
    each value gets the float operations, in order, of
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``param += step (m / c1) / (sqrt(v / c2) + eps)``.
    """
    for param, m, v, g, step, clamp in pieces:
        t1, t2 = (buf[:g.size].reshape(g.shape) for buf in buffers)
        np.multiply(g, 1.0 - ADAM_BETA1, out=t1)
        m *= ADAM_BETA1
        m += t1
        np.multiply(g, 1.0 - ADAM_BETA2, out=t1)
        t1 *= g
        v *= ADAM_BETA2
        v += t1
        if step == 0.0:
            continue
        np.divide(m, c1, out=t1)
        t1 *= step
        np.divide(v, c2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += ADAM_EPS
        t1 /= t2
        param += t1
        if clamp:
            np.clip(param, HYPER_CLAMP[0], HYPER_CLAMP[1], out=param)


def _halves(pieces) -> tuple:
    """``pieces`` cut at the midpoint of their values, in order: ``(first, second)``.

    The piece that straddles the cut goes into both halves as two
    contiguous flat views of its arrays, so the halves share no memory
    and the elementwise updates give every value the bits they give it
    whole.
    """
    cut = sum(piece[0].size for piece in pieces) // 2
    first, second = [], []
    for piece in pieces:
        size = piece[0].size
        if cut >= size:
            first.append(piece)
        elif cut <= 0:
            second.append(piece)
        else:
            flat = [a.reshape(-1, copy=False) for a in piece[:4]]
            first.append((*(a[:cut] for a in flat), *piece[4:]))
            second.append((*(a[cut:] for a in flat), *piece[4:]))
        cut -= size
    return first, second


def _step_values(state: VariationalState, phase: PhaseConfig, kept) -> int:
    """Random numbers one step of ``phase`` draws plus the values it updates.

    ``kept`` is what ``draw_noise`` is given: None when indicators are
    drawn, else the kept positions of each layer's fixed mask.
    """
    if kept is None:
        drawn = sum(lp.logit_width + 2 * lp.n_weights for lp in state.layers)
    else:
        drawn = sum(lp.n_weights if k is None else k.size
                    for lp, k in zip(state.layers, kept))
    groups = gradient_groups(phase.name, kept is not None)
    updated = sum(a.size for _, name, a in state.param_items() if PARAM_GROUP[name] in groups)
    return phase.draws * drawn + updated


def _drawn_ahead(worker: ThreadPoolExecutor, draw, count: int):
    """An iterator of ``count`` results of ``draw()``, each computed on ``worker``.

    The first starts at once.  Taking result i hands ``draw()`` for
    i + 1 to the worker, so it runs while the caller uses result i, and
    at most two results are alive at a time.
    """
    def results(ahead):
        for left in range(count - 1, -1, -1):
            result = ahead.result()
            if left:
                ahead = worker.submit(draw)
            yield result

    return results(worker.submit(draw))


def run_phase(state: VariationalState, data: Batch, phase: PhaseConfig,
              rng_sample: RngStream, rng_shuffle: RngStream, first_step: int = 0) -> list:
    """Run one phase in place; returns per-epoch trace records.

    Every epoch shuffles the full set with the dedicated stream,
    partitions it into minibatches of ``phase.batch_size`` (last one
    possibly smaller) and takes one optimizer step per minibatch.  The
    record per epoch carries the mean minibatch ELBO estimate and the
    wall-clock seconds spent.  On non-finite numbers the state and both
    streams roll back to the last completed epoch and
    ``TrainingAborted`` is raised with the completed records attached;
    its message names the phase, the epoch, the 1-based minibatch
    within the epoch and the run's step number, counted on from
    ``first_step``, the steps the run took before this phase.

    When ``compute_threads()`` is at least 2 and a step draws plus
    updates at least ``WORKER_VALUES`` values, each epoch runs one worker
    thread (see the module docstring); the bytes are those of the
    sequential loop.
    """
    fixed_masks = kept = None
    if phase.name == "posttrain" and phase.gamma_policy == "median_fixed":
        # Called through this module's name: perfbench/spans.py traces it here.
        fixed_masks = median_model(state, alpha_hat=marginal_inclusion(state))
    if fixed_masks is not None or state.prior.fixed_dense:
        kept = [c.kept for c in _layer_consts(state, fixed_masks)]
    threaded = compute_threads() >= 2 and _step_values(state, phase, kept) >= WORKER_VALUES
    moments = AdamMoments()
    step = first_step
    n = data.size
    n_draws = len(range(0, n, phase.batch_size)) * phase.draws  # per epoch
    records = []
    for epoch in range(1, phase.epochs + 1):
        positions = (rng_sample.state_words(), rng_shuffle.state_words())
        worker = ThreadPoolExecutor(1, "slabnn-epoch") if threaded else None
        try:
            try:
                if worker is not None:  # its first draw overlaps the snapshot
                    draws = _drawn_ahead(worker, partial(draw_noise, state, rng_sample, kept),
                                         n_draws)
                snapshot = state.copy()
                t0 = time.perf_counter()
                perm = rng_shuffle.permutation(n)
                acc = 0.0
                for batch, start in enumerate(range(0, n, phase.batch_size), 1):
                    step += 1
                    idx = perm[start:start + phase.batch_size]
                    mb = Batch(data.features[idx], data.labels[idx], n_total=n)
                    noise = None if worker is None else islice(draws, phase.draws)
                    value, grads = elbo_gradient(
                        state, mb, phase.draws, phase.delta, rng_sample,
                        phase=phase.name, kl_mode=phase.kl_mode, fixed_masks=fixed_masks,
                        noise=noise,
                    )
                    adam_step(state, grads, moments, phase.lr, _worker=worker)
                    acc += value
                mean_elbo = acc / batch
                if not np.isfinite(mean_elbo):
                    raise NumericError("epoch mean ELBO is not finite")
            finally:
                if worker is not None:
                    worker.shutdown(cancel_futures=True)
        except NumericError as exc:
            state.restore_from(snapshot)
            rng_sample.set_state_words(positions[0])
            rng_shuffle.set_state_words(positions[1])
            raise TrainingAborted(
                f"{phase.name} epoch {epoch} minibatch {batch} (global step {step}) "
                f"aborted: {exc}", records
            ) from exc
        records.append({
            "phase": phase.name,
            "epoch": epoch,
            "elbo": float(mean_elbo),
            "wall_seconds": time.perf_counter() - t0,
        })
    return records


@dataclass
class TrainReport:
    """Trace records from every executed phase plus run identity."""

    seed: int
    records: list = field(default_factory=list)

    def mean_epoch_seconds(self):
        if not self.records:
            return None
        return float(np.mean([r["wall_seconds"] for r in self.records]))

    def final_elbo(self):
        return self.records[-1]["elbo"] if self.records else None

    def to_jsonl(self, path):
        # Wall time stays out of the file so identical runs write
        # identical traces.
        import json
        with open(path, "w") as fh:
            for rec in self.records:
                stable = {k: v for k, v in rec.items() if k != "wall_seconds"}
                fh.write(json.dumps(stable) + "\n")


def train(spec: NetworkSpec, prior: PriorConfig, family: Family, phases: list,
          features, labels, seed: int, rank: int = 0, init_tau: float = 0.05,
          checkpoint_dir=None) -> tuple:
    """Initialize and run the full schedule; returns (state, report).

    Streams are carved out of the run seed by fixed ids (0 init,
    1 shuffle, 2 sampling noise), so two calls with identical arguments
    produce bit-identical states and, when ``checkpoint_dir`` is given,
    byte-identical checkpoint files (one per completed phase plus
    ``checkpoint_final.lbnn``) holding the shuffle and sample stream
    positions.  On an aborted phase the rolled-back state is still
    checkpointed before the abort propagates, with the counters and
    stream positions of the completed epochs only.  Groups
    outside ``live_groups(family, prior)`` keep their parameters
    bit-identical whatever the phases' step sizes say.  Non-finite
    features (``DomainError``), a feature width other than
    ``spec.widths[0]`` (``ShapeError``) and labels at or above the class
    count (``DomainError``) are refused before any state is built.
    """
    problems = validate_schedule(phases)
    if problems:
        raise ConfigError("; ".join(problems))
    data = Batch(features, labels, n_total=np.asarray(features).shape[0])
    bad = np.flatnonzero(~np.isfinite(data.features).all(axis=1))
    if bad.size:
        raise DomainError(f"features must be finite; row {bad[0]} is not")
    if data.features.shape[1] != spec.widths[0]:  # the forward's refusals, made up front
        raise ShapeError(f"features must be (N, {spec.widths[0]}), got {data.features.shape}")
    if np.any(data.labels >= spec.n_classes):
        raise DomainError(f"labels must be below the class count {spec.n_classes}")
    live = live_groups(family, prior)
    phases = [replace(p, lr={g: v for g, v in p.lr.items() if g in live})
              for p in phases]
    state = init_state(spec, prior, family, RngStream(seed, STREAM_INIT),
                       rank=rank, init_tau=init_tau)
    rng_shuffle = RngStream(seed, STREAM_SHUFFLE)
    rng_sample = RngStream(seed, STREAM_SAMPLE)
    report = TrainReport(seed=seed)
    counters = {"phases_completed": 0, "epochs": 0, "steps": 0}

    def write(tag):
        if checkpoint_dir is None:
            return
        import os
        os.makedirs(checkpoint_dir, exist_ok=True)
        rng_words = {
            "shuffle": rng_shuffle.state_words(),
            "sample": rng_sample.state_words(),
        }
        ckpt.save_checkpoint(
            os.path.join(checkpoint_dir, f"checkpoint_{tag}.lbnn"),
            state, rng_words=rng_words, counters=counters,
        )

    for phase in phases:
        aborted = None
        try:
            records = run_phase(state, data, phase, rng_sample, rng_shuffle,
                                first_step=counters["steps"])
        except TrainingAborted as exc:
            aborted, records = exc, exc.records
        # One count for completed and aborted phases: the completed epochs' steps.
        report.records.extend(records)
        counters["phases_completed"] += int(aborted is None)
        counters["epochs"] += len(records)
        counters["steps"] += len(records) * len(range(0, data.size, phase.batch_size))
        write(phase.name)
        if aborted is not None:
            write("final")
            raise aborted
    write("final")
    return state, report
