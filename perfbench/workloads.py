"""The three benchmark workloads and the inputs they are built from.

Each workload is one train -> predict (every mode) -> eval sequence on
synthetic Gaussian class clusters (``slabnn.dataio.synth_clusters``)
with a share of labels moved to a random other class, so that the
best reachable accuracy sits near 0.9 instead of 1.0 and a quality
loss can show.  The mix differs by workload so that each layer does
most of its work in one workload and little in another:

* ``mf_desk``: the criterion-6 schedule shape (mean field,
  784-64-32-10, batch 100, pretrain then train at the criterion-6 step
  sizes, checkpoints on), scaled to 5k rows and 4 epochs.  Training is
  bound by per-weight elementwise work and RNG; the inclusion
  probabilities are exact, so the alpha Monte Carlo is bypassed.
* ``full_cov``: full-covariance inclusion logits on a ~1k-weight first
  layer (60-15-5, 915 weights).  Cost grows with the squared weight
  count, so ADAM, the Cholesky rebuild, the per-epoch state snapshot
  and the ~7 MB checkpoints dominate.  It is the only workload on the
  sampled-KL and median-fixed paths and the only one that correlates
  inclusions.  Sixty features rather than thirty: the median-model
  density follows how many features happen to separate the classes,
  and averaging over more features halves its spread across seeds.
* ``lowrank_eval``: low-rank (r=4) inclusion logits at 784-64-32-10,
  a short write side and a heavy read side on a 5k-row held-out
  block.  Every mode that needs inclusion probabilities runs the
  Monte Carlo, which loops in Python; the eval sequence has one
  alpha-cache hit.  It draws 250 times, not the library's 1000: at
  1000 a miss takes ~2 s, a round ~10 s, and a run holds only three
  or four samples of each read-side metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Criterion-6 step sizes (tests/test_acceptance.py).
PRE_LR_MF = {"weights": 0.01, "omega": 0.05, "sigma2": 1e-3, "psi": 1e-3,
             "psi_hyper": 1e-3, "beta_hyper": 1e-5}
TRAIN_LR_MF = {"weights": 0.01, "omega": 0.1}

# Correlated families: slow structure steps keep the median model away
# from total pruning after so few epochs, so its density is a usable
# sparsity guard.
PRIOR_LR = {"sigma2": 1e-3, "psi": 1e-3, "psi_hyper": 1e-3, "beta_hyper": 1e-5}

LABEL_NOISE = 0.1   # share of labels moved to another class
SHIFT = 2.0         # out-of-domain translation per feature


@dataclass(frozen=True)
class Workload:
    """Everything one workload run needs besides the seed."""

    name: str
    family: str                 # slabnn.model.Family value
    widths: tuple
    rank: int
    separation: float           # synth_clusters class-mean scale
    train_n: int
    test_n: int
    phases: tuple               # (name, epochs, lr, extra PhaseConfig kwargs)
    predict_calls: tuple        # calls per round: all/mea, med/sim, sim/sim
    eval_reps: int = 1          # eval sequences per round
    alpha_mc: int = 1000        # inclusion Monte Carlo draws (library default)
    corr_layer: int = None      # eval: inclusion_correlation layer, if any

    @property
    def n_classes(self) -> int:
        return self.widths[-1]


WORKLOADS = {
    "mf_desk": Workload(
        name="mf_desk", family="mf", widths=(784, 64, 32, 10), rank=0,
        separation=0.3, train_n=5000, test_n=2000,
        phases=(("pretrain", 1, PRE_LR_MF, {}),
                ("train", 3, TRAIN_LR_MF, {})),
        predict_calls=(20, 4, 4), eval_reps=3,
    ),
    "full_cov": Workload(
        name="full_cov", family="mvn_full", widths=(60, 15, 5), rank=0,
        separation=0.8, train_n=1000, test_n=3000,
        phases=(("pretrain", 1, {"weights": 0.01, "xi": 0.02, "cov": 1e-3,
                                 **PRIOR_LR}, {}),
                ("train", 3, {"weights": 0.01, "xi": 0.02, "cov": 1e-3},
                 {"kl_mode": "sampled"}),
                ("posttrain", 2, {"weights": 0.01},
                 {"gamma_policy": "median_fixed"})),
        predict_calls=(2, 2, 16), corr_layer=0,
    ),
    "lowrank_eval": Workload(
        name="lowrank_eval", family="mvn_lowrank", widths=(784, 64, 32, 10),
        rank=4, separation=0.5, train_n=2000, test_n=5000,
        phases=(("pretrain", 1, {"weights": 0.01, "xi": 1e-3, "cov": 1e-3,
                                 **PRIOR_LR}, {}),
                ("train", 1, {"weights": 0.01, "xi": 1e-3, "cov": 1e-3}, {})),
        predict_calls=(1, 1, 2), alpha_mc=250,
    ),
}


@dataclass
class Inputs:
    """Generated arrays handed to the library."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    x_shift: np.ndarray


def make_inputs(slabnn, wl: Workload, seed: int) -> Inputs:
    """Build a workload's arrays from the seed; same seed, same arrays.

    The in-domain rows and the shifted block come from two
    ``synth_clusters`` calls that differ only in ``shift``, so they share
    class means.  Label noise is drawn from a numpy stream keyed to the
    seed, outside the library.
    """
    dataio = slabnn.dataio
    p = wl.widths[0]
    full = dataio.synth_clusters(wl.train_n + wl.test_n, p, wl.n_classes,
                                 separation=wl.separation, seed=seed)
    shifted = dataio.synth_clusters(wl.test_n, p, wl.n_classes,
                                    separation=wl.separation, shift=SHIFT,
                                    seed=seed)
    gen = np.random.default_rng([seed, 7])
    labels = full.labels.copy()
    moved = gen.random(labels.size) < LABEL_NOISE
    labels[moved] = (labels[moved]
                     + gen.integers(1, wl.n_classes, int(moved.sum()))) % wl.n_classes
    noisy = dataio.Dataset(full.features, labels, wl.n_classes)
    train, test = dataio.split(noisy, wl.train_n, wl.test_n, seed=seed)
    return Inputs(train.features, train.labels, test.features, test.labels,
                  shifted.features)
