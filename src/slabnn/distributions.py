"""Spike-and-slab building blocks: the one copy of each formula.

The generative story for every connection weight: a binary indicator
gamma decides whether the weight is present, and conditionally on
gamma = 1 the weight is Gaussian.  The variational family mirrors that
structure, so training needs a Concrete relaxation of the indicator
and the two KL divergences that survive after the spike terms cancel,
plus the log densities of the hyperpriors and a sampler for correlated
inclusion logits.  The objective, the model sampler and the metrics
all call these kernels rather than restating them.  Every kernel is
ufunc-style: scalars in, scalar out; arrays broadcast; arguments
outside the domain raise ``DomainError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, ShapeError
from .numkernel import as_vector, sigmoid

__all__ = [
    "HyperParams",
    "concrete_transform",
    "concrete_from_logits",
    "kl_gaussian",
    "kl_bernoulli",
    "logpdf_inv_gamma",
    "logpdf_beta",
    "MVN_BLOCK_ELEMENTS",
    "mvn_blocks",
    "sample_mvn_logits",
]


def _scalarize(out, *inputs):
    # Mirror numpy ufunc behavior: scalar inputs give a plain float back.
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


@dataclass(frozen=True)
class HyperParams:
    """Inverse-gamma (a_beta, b_beta) and beta (a_psi, b_psi) hyperprior shapes."""

    a_beta: float = 2.0
    b_beta: float = 1.0
    a_psi: float = 1.0
    b_psi: float = 1.0

    def __post_init__(self):
        for name in ("a_beta", "b_beta", "a_psi", "b_psi"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"hyperparameter {name} must be positive")


def concrete_from_logits(logit_alpha, nu, delta):
    """Concrete relaxation evaluated from inclusion logits.

    gamma_tilde = sigmoid((logit_alpha - logit(nu)) / delta) with
    nu uniform on (0, 1) and temperature delta > 0.  Working in logit
    space keeps the kernel usable when sigmoid(logit_alpha) rounds to
    0 or 1 in floating point.
    """
    if np.any(np.asarray(delta) <= 0.0):
        raise DomainError("temperature delta must be positive")
    nu_arr = np.asarray(nu, dtype=np.float64)
    if np.any(nu_arr <= 0.0) or np.any(nu_arr >= 1.0):
        raise DomainError("nu must lie in the open interval (0, 1)")
    la = np.asarray(logit_alpha, dtype=np.float64)
    out = sigmoid((la - special.logit(nu_arr)) / np.asarray(delta, dtype=np.float64))
    return _scalarize(out, logit_alpha, nu, delta)


def concrete_transform(nu, alpha, delta):
    """Concrete relaxation gamma_tilde = sigmoid((logit(alpha) - logit(nu)) / delta).

    Strictly increasing in alpha and decreasing in nu; as delta -> 0 the
    output approaches the hard indicator 1[nu < alpha].  The derivative
    with respect to logit(alpha) is gamma_tilde * (1 - gamma_tilde) / delta,
    which is what the gradient code uses.  Both nu and alpha must lie in
    the open interval (0, 1).
    """
    alpha_arr = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha_arr <= 0.0) or np.any(alpha_arr >= 1.0):
        raise DomainError("alpha must lie in the open interval (0, 1)")
    return concrete_from_logits(special.logit(alpha_arr), nu, delta)


def kl_gaussian(kappa, tau, sigma2):
    """KL( N(kappa, tau^2) || N(0, sigma2) ).

    Equals log(sqrt(sigma2)/tau) + (tau^2 + kappa^2) / (2 sigma2) - 1/2;
    this is the slab part of the state KL, weighted by the inclusion
    probability by the caller.
    """
    tau_arr = np.asarray(tau, dtype=np.float64)
    s2 = np.asarray(sigma2, dtype=np.float64)
    if np.any(tau_arr <= 0.0):
        raise DomainError("tau must be positive")
    if np.any(s2 <= 0.0):
        raise DomainError("sigma2 must be positive")
    k = np.asarray(kappa, dtype=np.float64)
    out = 0.5 * np.log(s2) - np.log(tau_arr) + (tau_arr**2 + k**2) / (2.0 * s2) - 0.5
    return _scalarize(out, kappa, tau, sigma2)


def kl_bernoulli(alpha, psi):
    """KL( Bernoulli(alpha) || Bernoulli(psi) ).

    alpha may touch the closed endpoints {0, 1} (hard or saturated
    inclusion probabilities); psi must stay inside the open interval.
    The 0 * log 0 limits are evaluated as 0.
    """
    a = np.asarray(alpha, dtype=np.float64)
    p = np.asarray(psi, dtype=np.float64)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise DomainError("alpha must lie in [0, 1]")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("psi must lie in the open interval (0, 1)")
    out = special.xlogy(a, a / p) + special.xlogy(1.0 - a, (1.0 - a) / (1.0 - p))
    return _scalarize(out, alpha, psi)


def logpdf_inv_gamma(x, a, b):
    """Log density of the inverse-gamma distribution with shape a, scale b."""
    xa = np.asarray(x, dtype=np.float64)
    aa = np.asarray(a, dtype=np.float64)
    ba = np.asarray(b, dtype=np.float64)
    if np.any(xa <= 0.0) or np.any(aa <= 0.0) or np.any(ba <= 0.0):
        raise DomainError("inverse-gamma log density requires x, a, b > 0")
    out = aa * np.log(ba) - special.gammaln(aa) - (aa + 1.0) * np.log(xa) - ba / xa
    return _scalarize(out, x, a, b)


def logpdf_beta(x, a, b):
    """Log density of the beta distribution with shapes a, b."""
    xa = np.asarray(x, dtype=np.float64)
    aa = np.asarray(a, dtype=np.float64)
    ba = np.asarray(b, dtype=np.float64)
    if np.any(xa <= 0.0) or np.any(xa >= 1.0):
        raise DomainError("beta log density requires x in the open interval (0, 1)")
    if np.any(aa <= 0.0) or np.any(ba <= 0.0):
        raise DomainError("beta log density requires a, b > 0")
    out = (
        special.gammaln(aa + ba)
        - special.gammaln(aa)
        - special.gammaln(ba)
        + special.xlogy(aa - 1.0, xa)
        + special.xlog1py(ba - 1.0, -xa)
    )
    return _scalarize(out, x, a, b)


# Element budget of one block of Monte Carlo logit draws: 2**16 float64
# values, 512 KB per block array.  Small enough that peak memory does
# not grow with the draw count, large enough that a block of a
# full-covariance layer is one matrix-matrix product.
MVN_BLOCK_ELEMENTS = 2**16


def mvn_blocks(n_draws: int, width: int):
    """Row counts splitting ``n_draws`` draws of ``width`` values into blocks.

    Each block holds at most ``MVN_BLOCK_ELEMENTS`` values, and at least
    one row even when a single draw is wider than that.
    """
    rows = max(1, MVN_BLOCK_ELEMENTS // width)
    for start in range(0, n_draws, rows):
        yield min(rows, n_draws - start)


def sample_mvn_logits(xi, rng, n, factor=None, diag=None, chol=None):
    """A block of ``n`` draws of correlated inclusion logits, with their noise.

    Two parametrizations are supported:

    * low rank plus diagonal, covariance F F^T + D: pass ``factor``
      (dim x r, r = 0 allowed via ``None`` or an empty matrix) and
      ``diag`` (the diagonal of D, nonnegative: a variance that
      underflowed to zero in training is a valid degenerate entry); a
      draw is xi + F eps1 + sqrt(diag) * eps2.
    * full covariance supplied as its lower-triangular Cholesky factor:
      pass ``chol`` only; a draw is xi + L eps.

    Row i of every returned array is draw i.  The noise is one
    ``rng.std_normal(n * width)`` call split into rows of ``width``
    values: a row is eps (width dim) on the Cholesky path, and eps1 (the
    first r values) then eps2 (dim values) on the low-rank path.  Row i
    therefore holds the same numbers, in the same order, as the i-th of
    n single-draw calls, and the stream ends where they would leave it.
    A block costs one matrix product, xi + eps L^T or xi + eps1 F^T.
    Returns ``(logits, noise)``: logits ``(n, dim)``; noise ``(eps,)``
    with eps ``(n, dim)`` on the Cholesky path, or ``(eps1, eps2)`` with
    eps1 ``(n, r)`` (None when r = 0) and eps2 ``(n, dim)``.  The
    gradient reuses the noise.
    """
    mean = as_vector(xi)
    dim = mean.shape[0]
    if chol is not None:
        if factor is not None or diag is not None:
            raise DomainError("pass either chol or (factor, diag), not both")
        ch = np.ascontiguousarray(chol, dtype=np.float64)
        if ch.shape != (dim, dim):
            raise ShapeError(f"chol must be {dim}x{dim}, got {ch.shape}")
        eps = rng.std_normal(n * dim).reshape(n, dim)
        return mean + eps @ ch.T, (eps,)
    if diag is None:
        raise DomainError("the low-rank path requires a diagonal variance vector")
    d = as_vector(diag, dim)
    if np.any(d < 0.0):
        raise DomainError("diagonal variances must be nonnegative")
    r = 0
    if factor is not None:
        f = np.ascontiguousarray(factor, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != dim:
            raise ShapeError(f"factor must have {dim} rows, got shape {f.shape}")
        r = f.shape[1]
    z = rng.std_normal(n * (r + dim)).reshape(n, r + dim)
    eps1 = z[:, :r] if r > 0 else None
    eps2 = z[:, r:]
    out = np.tile(mean, (n, 1))
    if eps1 is not None:
        out += eps1 @ f.T
    out += np.sqrt(d) * eps2
    return out, (eps1, eps2)
