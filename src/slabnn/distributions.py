"""Spike-and-slab building blocks: the one copy of each formula.

The generative story for every connection weight: a binary indicator
gamma decides whether the weight is present, and conditionally on
gamma = 1 the weight is Gaussian.  The variational family mirrors that
structure, so training needs a Concrete relaxation of the indicator
and the two KL divergences that survive after the spike terms cancel,
plus the log densities of the hyperpriors and the mean inclusion
probability of a Gaussian logit.  The objective, the model sampler and
the metrics all call these kernels rather than restating them; the
correlated logits themselves are drawn by ``model.LayerParams``, the
one place that knows the inclusion family.  Every kernel is
ufunc-style: scalars in, scalar out; arrays broadcast; arguments
outside the domain raise ``DomainError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .numkernel import logit, sigmoid, xlogy

__all__ = [
    "HyperParams",
    "concrete_from_logits",
    "kl_gaussian",
    "kl_bernoulli",
    "logpdf_inv_gamma",
    "logpdf_beta",
    "logit_normal_mean",
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
            if not 0.0 < getattr(self, name) < np.inf:
                raise DomainError(f"hyperparameter {name} must be positive and finite")


def concrete_from_logits(logit_alpha, nu, delta):
    """Concrete relaxation evaluated from inclusion logits.

    gamma_tilde = sigmoid((logit_alpha - logit(nu)) / delta) with
    nu uniform on (0, 1) and temperature delta > 0.  Strictly
    increasing in logit_alpha and decreasing in nu; as delta -> 0 the
    output approaches the hard indicator 1[nu < alpha].  The derivative
    with respect to logit_alpha is gamma_tilde * (1 - gamma_tilde) /
    delta, which is what the gradient code uses.  Working in logit
    space keeps the kernel usable when sigmoid(logit_alpha) rounds to
    0 or 1 in floating point.
    """
    if np.any(np.asarray(delta) <= 0.0):
        raise DomainError("temperature delta must be positive")
    nu_arr = np.asarray(nu, dtype=np.float64)
    if np.any(nu_arr <= 0.0) or np.any(nu_arr >= 1.0):
        raise DomainError("nu must lie in the open interval (0, 1)")
    la = np.asarray(logit_alpha, dtype=np.float64)
    out = sigmoid((la - logit(nu_arr)) / np.asarray(delta, dtype=np.float64))
    return _scalarize(out, logit_alpha, nu, delta)


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
    q = 1.0 - a
    out = xlogy(a, a / p)
    out += xlogy(q, q / (1.0 - p))
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
        + xlogy(aa - 1.0, xa)
        + special.xlog1py(ba - 1.0, -xa)
    )
    return _scalarize(out, x, a, b)


# Fixed trapezoid rules of logit_normal_mean, step 0.5, nonnegative
# half only: node t stands for the pair +/- t, and node 0 pairs with
# itself at half weight.  Both integrands are analytic in a strip around
# the real axis, so the error falls exponentially with 1/step
# (Trefethen & Weideman, SIAM Review 2014): below 1e-13 against
# adaptive quadrature on every tested (mean, sd).
_QUAD_STEP = 0.5
# sd < 1: z on [-10, 10] against the standard normal density (41 nodes).
_Z_NODES = _QUAD_STEP * np.arange(21)
_Z_WEIGHTS = _QUAD_STEP * np.exp(-0.5 * _Z_NODES**2) / np.sqrt(2.0 * np.pi)
_Z_WEIGHTS[0] /= 2.0
# sd >= 1: u on [-40, 40] against the logistic density (161 nodes).
_U_NODES = _QUAD_STEP * np.arange(81)
_U_WEIGHTS = _QUAD_STEP * np.exp(-_U_NODES) / (1.0 + np.exp(-_U_NODES))**2
_U_WEIGHTS[0] /= 2.0
# erf(x) rounds to exactly 1.0 from x = 6 on; the margin absorbs the
# rounding of the arguments.
_ERF_ONE = 6.5


def _odd_sum(f, centre, scale, nodes, weights, last=np.inf):
    """sum over nodes t < last of w * (f(centre + t scale) + f(centre - t scale))."""
    acc = np.zeros_like(centre)
    for t, w in zip(nodes, weights):
        if t >= last:
            break
        shift = t * scale
        acc += w * (f(centre + shift) + f(centre - shift))
    return acc


def logit_normal_mean(mean, sd):
    """E[sigmoid(mean + sd * Z)] for standard normal Z, elementwise.

    The marginal inclusion probability of a N(mean, sd^2) logit, by a
    fixed trapezoid rule.  For sd < 1 the rule runs over z with the
    normal density as weight.  For sd >= 1 the sigmoid is read as the
    logistic distribution function, so the mean equals
    E[Phi((mean - U) / sd)] for standard logistic U, and the rule runs
    over u with the logistic density as weight; the integrand then
    varies on the scale of sd, never faster than the weight.  Both rules
    sum the odd part over +/- node pairs, 1/2 + 1/2 * sum of w * (tanh
    or erf pair), so mean = 0 gives exactly 1/2 whatever the sd.  The
    nodes are looped over, so memory stays at a few arrays the size of
    the input; the logistic loop stops once every remaining erf pair
    cancels exactly (near sd = 1 and small means, after about a fifth
    of its nodes).  sd must be nonnegative.
    """
    m, s = np.broadcast_arrays(np.asarray(mean, dtype=np.float64),
                               np.asarray(sd, dtype=np.float64))
    if not np.all(s >= 0.0):
        raise DomainError("sd must be nonnegative")
    odd = np.empty(m.shape)
    narrow = s < 1.0
    odd[narrow] = _odd_sum(np.tanh, 0.5 * m[narrow], 0.5 * s[narrow],
                           _Z_NODES, _Z_WEIGHTS)
    m, s = m[~narrow], s[~narrow]
    scale = 1.0 / (np.sqrt(2.0) * s)
    # From this node on, every pair is erf = -1 plus erf = +1, exactly 0.
    last = np.max(np.abs(m) + np.sqrt(2.0) * _ERF_ONE * s, initial=0.0)
    odd[~narrow] = _odd_sum(special.erf, m * scale, scale, _U_NODES, _U_WEIGHTS, last)
    return _scalarize(0.5 + 0.5 * odd, mean, sd)
