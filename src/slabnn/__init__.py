"""Sparsifying Bayesian neural networks with latent binary inclusion indicators.

Feed-forward classifiers whose every weight carries a Bernoulli
inclusion indicator under a spike-and-slab prior.  Variational
inference runs doubly stochastically: minibatched likelihoods and
reparametrized samples of both slab weights and (relaxed) indicators,
with analytic KL terms where the factorization allows it.  Fitted
models predict by full model averaging, by the median probability
model, or by posterior means, and can abstain on low-confidence rows.

The public surface re-exports the main types and entry points; the
submodules hold the details (``numkernel`` primitives, ``model`` state
and sampling, ``elbo`` objective and gradients, ``trainer`` schedules,
``predictor`` decision rules, ``metrics`` evaluation, ``dataio``
datasets, ``checkpoint`` persistence, ``cli`` command line).
"""

from .checkpoint import CheckpointData, load_checkpoint, read_manifest, save_checkpoint
from .dataio import (Dataset, bayes_optimal_accuracy, load_csv, load_idx, split,
                     synth_clusters, synth_logistic, write_idx)
from .distributions import HyperParams
from .elbo import Batch, elbo_estimate, elbo_gradient
from .errors import (ConfigError, DomainError, FormatError, NumericError, ShapeError,
                     SlabnnError)
from .metrics import (EntropyCdf, MetricsReport, accuracy, entropy_cdf,
                      inclusion_correlation, layer_inclusion_means, summarize_runs)
from .model import (Family, NetworkSpec, PriorConfig, VariationalState, init_state,
                    marginal_inclusion, median_model, posterior_mean_weights,
                    sample_network)
from .numkernel import RngStream
from .predictor import (DoubtDecisions, PredictionMode, PredictiveResult,
                        classify_with_doubt, density_level, export_predictions_csv,
                        predict)
from .trainer import (PhaseConfig, TrainingAborted, TrainReport, default_phases,
                      train)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "CheckpointData",
    "ConfigError",
    "Dataset",
    "DomainError",
    "DoubtDecisions",
    "EntropyCdf",
    "Family",
    "FormatError",
    "HyperParams",
    "MetricsReport",
    "NetworkSpec",
    "NumericError",
    "PhaseConfig",
    "PredictionMode",
    "PredictiveResult",
    "PriorConfig",
    "RngStream",
    "ShapeError",
    "SlabnnError",
    "TrainReport",
    "TrainingAborted",
    "VariationalState",
    "accuracy",
    "bayes_optimal_accuracy",
    "classify_with_doubt",
    "default_phases",
    "density_level",
    "elbo_estimate",
    "elbo_gradient",
    "entropy_cdf",
    "export_predictions_csv",
    "inclusion_correlation",
    "init_state",
    "layer_inclusion_means",
    "load_checkpoint",
    "load_csv",
    "load_idx",
    "marginal_inclusion",
    "median_model",
    "posterior_mean_weights",
    "predict",
    "read_manifest",
    "sample_network",
    "save_checkpoint",
    "split",
    "summarize_runs",
    "synth_clusters",
    "synth_logistic",
    "train",
    "write_idx",
    "__version__",
]
