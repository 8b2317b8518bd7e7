"""Three-phase stochastic variational training with per-group ADAM ascent.

A schedule is a list of phases in the fixed order pretrain, train,
posttrain (each optional, no repeats).  Pre-training is where the
point-estimated prior values and their hyperprior shapes move; the main
phase freezes them and fits the variational parameters; the optional
post-training phase freezes the inclusion structure as well and only
fine-tunes slab means and sds, either resampling indicators as usual or
conditioning on the median probability mask.

Each parameter belongs to one step-size group; a phase assigns a step
size per group and a zero (or absent) entry freezes that group,
bit-exactly.  ADAM moments restart at every phase boundary since the
objective and the live groups change there.  One optimizer step per
minibatch, ascent direction:

    theta <- theta + lr * m_hat / (sqrt(v_hat) + 1e-8).

Per epoch the training set is shuffled by a dedicated stream using a
seeded permutation, so (seed, config, data) fully determine every
parameter byte; wall-clock time appears only in trace records.  A
non-finite ELBO or gradient aborts the phase after restoring the last
completed epoch's parameters, which are then what a retained checkpoint
contains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint as ckpt
from .elbo import Batch, GradientBundle, elbo_gradient
from .errors import ConfigError, NumericError
from .model import (Family, NetworkSpec, PriorConfig, VariationalState, init_state,
                    marginal_inclusion, median_model)
from .numkernel import RngStream

__all__ = [
    "GROUPS",
    "PARAM_GROUP",
    "STREAM_INIT",
    "STREAM_SHUFFLE",
    "STREAM_SAMPLE",
    "STREAM_ALPHA",
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

# Step-size groups; every state parameter maps to exactly one.
GROUPS = ("weights", "omega", "xi", "cov", "sigma2", "psi", "psi_hyper", "beta_hyper")

PARAM_GROUP = {
    "kappa": "weights",
    "rho": "weights",
    "omega": "omega",
    "xi": "xi",
    "chol_raw": "cov",
    "factor": "cov",
    "log_diag": "cov",
    "log_sigma2": "sigma2",
    "logit_psi": "psi",
    "a_psi": "psi_hyper",
    "b_psi": "psi_hyper",
    "a_beta": "beta_hyper",
    "b_beta": "beta_hyper",
}

PHASE_NAMES = ("pretrain", "train", "posttrain")

# Reserved stream ids per run seed; prediction uses 1000 + replicate.
STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_SAMPLE = 2
STREAM_ALPHA = 3

HYPER_CLAMP = (1e-3, 1e3)

_PRETRAIN_ONLY = ("sigma2", "psi", "psi_hyper", "beta_hyper")
_STRUCTURE = ("omega", "xi", "cov")


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
    missing groups are frozen.  ``gamma_policy`` only matters for the
    posttrain phase: "resample" keeps drawing indicators, while
    "median_fixed" conditions every step on the median probability
    mask computed at phase entry (``alpha_mc`` Monte Carlo draws for
    the correlated families).
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
        if self.draws < 1:
            problems.append(f"{self.name}: draws must be at least 1")
        if self.delta <= 0.0:
            problems.append(f"{self.name}: delta must be positive")
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
            elif value < 0.0:
                problems.append(f"{self.name}: step size for {group} must be nonnegative")
        if self.name != "pretrain":
            for group in _PRETRAIN_ONLY:
                if self.lr.get(group, 0.0) != 0.0:
                    problems.append(
                        f"{self.name}: group {group} may only move during pretrain"
                    )
        if self.name == "posttrain":
            for group in _STRUCTURE:
                if self.lr.get(group, 0.0) != 0.0:
                    problems.append(
                        f"posttrain: structure group {group} must be frozen"
                    )
        return problems


def live_groups(family: Family, prior: PriorConfig) -> set:
    """Step-size groups with any movable parameter under this model.

    fixed_dense freezes the inclusion structure and the prior inclusion
    probability; ``learn_sigma2``, ``learn_psi`` and ``learn_hyper``
    freeze their groups.  ``train`` drops the step size of every other
    group.
    """
    live = {"weights"}
    if not prior.fixed_dense:
        if family is Family.MF:
            live.add("omega")
        else:
            live.update(("xi", "cov"))
        if prior.learn_psi:
            live.add("psi")
        if prior.learn_hyper:
            live.add("psi_hyper")
    if prior.learn_sigma2:
        live.add("sigma2")
    if prior.learn_hyper:
        live.add("beta_hyper")
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
                   posttrain_epochs: int = 0, batch_size: int = 100, draws: int = 1,
                   delta: float = 0.1, gamma_policy: str = "median_fixed") -> list:
    """The stock schedule: per-group step sizes keyed to the family.

    The mean-field and full-covariance families share one table; the
    low-rank family uses its own (smaller structure steps after
    pretraining).  The point-estimated prior values get 1e-3 during
    pretraining and freeze afterwards.
    """
    if family in (Family.MF, Family.MVN_FULL):
        pre = {"weights": 1e-4, "omega": 0.1, "xi": 0.1, "cov": 0.1,
               "sigma2": 1e-3, "psi": 1e-3, "psi_hyper": 1e-3, "beta_hyper": 1e-5}
        main = {"weights": 1e-4, "omega": 1e-4, "xi": 0.01, "cov": 1e-4}
    else:
        pre = {"weights": 1e-4, "xi": 0.01, "cov": 0.01,
               "sigma2": 1e-3, "psi": 1e-3, "psi_hyper": 1e-3, "beta_hyper": 1e-5}
        main = {"weights": 1e-4, "xi": 1e-4, "cov": 1e-4}
    post = {"weights": 1e-4}
    phases = []
    if pretrain_epochs > 0:
        phases.append(PhaseConfig("pretrain", pretrain_epochs, pre,
                                  batch_size=batch_size, draws=draws, delta=delta))
    phases.append(PhaseConfig("train", train_epochs, main,
                              batch_size=batch_size, draws=draws, delta=delta))
    if posttrain_epochs > 0:
        phases.append(PhaseConfig("posttrain", posttrain_epochs, post,
                                  batch_size=batch_size, draws=draws, delta=delta,
                                  gamma_policy=gamma_policy))
    return phases


class AdamMoments:
    """First and second moment buffers plus the shared step counter."""

    def __init__(self, state: VariationalState):
        self.m = {}
        self.v = {}
        for l, name, arr in state.param_items():
            self.m[(l, name)] = np.zeros_like(arr)
            self.v[(l, name)] = np.zeros_like(arr)
        self.t = 0


def adam_step(state: VariationalState, grads: GradientBundle, moments: AdamMoments,
              lr: dict, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One ADAM ascent step with per-group step sizes.

    Moments update for every parameter whose gradient was computed;
    parameters in groups with step size zero (or absent) are left
    bit-identical.  Hyperprior shapes are clamped to [1e-3, 1e3] after
    their update.  Raises ``NumericError`` on non-finite gradients.
    """
    moments.t += 1
    c1 = 1.0 - beta1**moments.t
    c2 = 1.0 - beta2**moments.t
    for l, name, g in grads.items():
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for layer {l} parameter {name}")
        m = moments.m[(l, name)]
        v = moments.v[(l, name)]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        step = lr.get(PARAM_GROUP[name], 0.0)
        if step == 0.0:
            continue
        param = getattr(state.layers[l], name)
        param += step * (m / c1) / (np.sqrt(v / c2) + eps)
        if name in ("a_beta", "b_beta", "a_psi", "b_psi"):
            np.clip(param, HYPER_CLAMP[0], HYPER_CLAMP[1], out=param)
    state.bump_version()


def run_phase(state: VariationalState, data: Batch, phase: PhaseConfig,
              rng_sample: RngStream, rng_shuffle: RngStream,
              rng_alpha: RngStream = None, fixed_masks=None,
              step_counter: list = None) -> list:
    """Run one phase in place; returns per-epoch trace records.

    Every epoch shuffles the full set with the dedicated stream,
    partitions it into minibatches of ``phase.batch_size`` (last one
    possibly smaller) and takes one optimizer step per minibatch.  The
    record per epoch carries the mean minibatch ELBO estimate and the
    wall-clock seconds spent.  On non-finite numbers the state rolls
    back to the last completed epoch and ``TrainingAborted`` is raised
    with the completed records attached.
    """
    if phase.name == "posttrain" and phase.gamma_policy == "median_fixed" \
            and fixed_masks is None:
        # rng_alpha is only consumed by the correlated families.
        alpha_hat = marginal_inclusion(state, n_mc=phase.alpha_mc, rng=rng_alpha)
        fixed_masks = median_model(state, alpha_hat=alpha_hat)
    moments = AdamMoments(state)
    n = data.size
    records = []
    for epoch in range(1, phase.epochs + 1):
        snapshot = state.copy()
        t0 = time.perf_counter()
        perm = rng_shuffle.permutation(n)
        acc = 0.0
        n_batches = 0
        try:
            for start in range(0, n, phase.batch_size):
                idx = perm[start:start + phase.batch_size]
                mb = Batch(data.features[idx], data.labels[idx], n_total=n)
                value, grads = elbo_gradient(
                    state, mb, phase.draws, phase.delta, rng_sample,
                    phase=phase.name, kl_mode=phase.kl_mode, fixed_masks=fixed_masks,
                )
                adam_step(state, grads, moments, phase.lr)
                if step_counter is not None:
                    step_counter[0] += 1
                acc += value
                n_batches += 1
            mean_elbo = acc / n_batches
            if not np.isfinite(mean_elbo):
                raise NumericError("epoch mean ELBO is not finite")
        except NumericError as exc:
            state.restore_from(snapshot)
            raise TrainingAborted(
                f"{phase.name} epoch {epoch} aborted: {exc}", records
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
    1 shuffle, 2 sampling noise, 3 inclusion-probability Monte Carlo),
    so two calls with identical arguments produce bit-identical states
    and, when ``checkpoint_dir`` is given, byte-identical checkpoint
    files (one per completed phase plus ``checkpoint_final.lbnn``).
    On an aborted phase the rolled-back state is still checkpointed
    before the abort propagates.  Groups outside ``live_groups(family,
    prior)`` keep their parameters bit-identical whatever the phases'
    step sizes say.
    """
    problems = validate_schedule(phases)
    if problems:
        raise ConfigError("; ".join(problems))
    live = live_groups(family, prior)
    phases = [replace(p, lr={g: v for g, v in p.lr.items() if g in live})
              for p in phases]
    state = init_state(spec, prior, family, RngStream(seed, STREAM_INIT),
                       rank=rank, init_tau=init_tau)
    rng_shuffle = RngStream(seed, STREAM_SHUFFLE)
    rng_sample = RngStream(seed, STREAM_SAMPLE)
    rng_alpha = RngStream(seed, STREAM_ALPHA)
    data = Batch(features, labels, n_total=np.asarray(features).shape[0])
    report = TrainReport(seed=seed)
    counters = {"phases_completed": 0, "epochs": 0, "steps": 0}
    steps = [0]

    def write(tag):
        if checkpoint_dir is None:
            return
        import os
        os.makedirs(checkpoint_dir, exist_ok=True)
        rng_words = {
            "shuffle": rng_shuffle.state_words(),
            "sample": rng_sample.state_words(),
            "alpha": rng_alpha.state_words(),
        }
        ckpt.save_checkpoint(
            os.path.join(checkpoint_dir, f"checkpoint_{tag}.lbnn"),
            state, rng_words=rng_words, counters=counters,
        )

    for phase in phases:
        try:
            records = run_phase(state, data, phase, rng_sample, rng_shuffle,
                                rng_alpha=rng_alpha, step_counter=steps)
        except TrainingAborted as exc:
            report.records.extend(exc.records)
            counters["epochs"] += len(exc.records)
            counters["steps"] = steps[0]
            write(phase.name)
            write("final")
            raise
        report.records.extend(records)
        counters["phases_completed"] += 1
        counters["epochs"] += len(records)
        counters["steps"] = steps[0]
        write(phase.name)
    write("final")
    return state, report
