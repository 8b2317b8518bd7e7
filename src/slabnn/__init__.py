"""Sparsifying Bayesian neural networks with latent binary inclusion indicators.

Feed-forward classifiers whose every weight carries a Bernoulli
inclusion indicator under a spike-and-slab prior.  Variational
inference runs doubly stochastically: minibatched likelihoods and
reparametrized samples of both slab weights and (relaxed) indicators,
with analytic KL terms where the factorization allows it.  Fitted
models predict by full model averaging, by the median probability
model, or by posterior means, and can abstain on low-confidence rows.

Importing the package loads its library submodules, and every public
name has one import path, the submodule that defines it (for example
``from slabnn.trainer import train``): ``numkernel`` primitives,
``distributions`` formulas, ``model`` state and sampling, ``elbo``
objective and gradients, ``trainer`` schedules, ``predictor`` decision
rules, ``metrics`` evaluation, ``dataio`` datasets, ``checkpoint``
persistence and ``errors`` types.  The command line lives in
``slabnn.cli`` and is imported on its own.
"""

from . import (checkpoint, dataio, distributions, elbo, errors, metrics, model,
               numkernel, predictor, trainer)

__version__ = "0.1.0"

__all__ = [
    "checkpoint",
    "dataio",
    "distributions",
    "elbo",
    "errors",
    "metrics",
    "model",
    "numkernel",
    "predictor",
    "trainer",
    "__version__",
]
