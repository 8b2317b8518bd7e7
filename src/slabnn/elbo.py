"""Evidence lower bound: estimator and hand-derived reparametrized gradient.

The training objective for a minibatch S of a dataset with n points is
the unbiased single-draw estimate

    J = (1/M) sum_m [ (n/N) * sum_{i in S} log p(y_i | x_i, theta_m) ]  -  KL,

where theta_m is one reparametrized draw of all weights (Concrete
indicators times Gaussian slabs) and KL is the divergence between the
variational distribution and the prior.  The KL has a closed form per
weight because the spike components cancel:

    KL = kl_bernoulli(alpha, psi) + alpha * kl_gaussian(kappa, tau, sigma2),

with alpha exact under the mean-field family and evaluated at the
sampled alpha for the correlated families.  Both terms, and the
hyperprior log densities, come from the kernels in ``distributions``;
one per-layer helper serves the KL value and its gradient.  A fully
sampled log-ratio estimate of the KL is kept behind
``kl_mode="sampled"`` and cross-checked against the analytic form in
the tests; its indicator mass is evaluated at the rounded relaxed draw,
so its pathwise gradient at fixed noise omits the score contribution of
the mass (which has zero mean) and remains consistent with finite
differences of the estimator.  Prior values that training drives out of
a kernel's domain (psi rounding to 0 or 1, sigma2 underflowing to 0)
raise ``NumericError``, which the trainer rolls back.

Gradients are reverse-mode by hand.  The chain runs

    logits -> softmax log-likelihood -> effective weights W = gamma * beta
    beta  = kappa + softplus(rho) * eps      (d tau / d rho = sigmoid(rho))
    gamma = sigmoid((logit_alpha - logit nu) / delta)
            (d gamma / d logit_alpha = gamma (1 - gamma) / delta)
    logit_alpha = omega                       (mean field)
                = xi + L eps                  (full covariance, softplus diagonal)
                = xi + F eps1 + sqrt(d) eps2  (low rank)

plus the closed-form KL derivatives and, during pre-training, the
hyperprior log densities of the point-estimated prior values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import kl_bernoulli, kl_gaussian, logpdf_beta, logpdf_inv_gamma
from .errors import DomainError, NumericError, ShapeError
from .model import Family, SampledNetwork, VariationalState, sample_network
from .numkernel import RngStream, log_sigmoid, log_softmax, sigmoid

__all__ = [
    "Batch",
    "GradientBundle",
    "forward",
    "forward_logits",
    "kl_state",
    "hyperprior_logdensity",
    "elbo_estimate",
    "elbo_gradient",
]

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class Batch:
    """A design block, integer labels, and the size of the full dataset.

    ``n_total`` is the n in the (n/N) likelihood rescaling; it must be
    at least the number of rows carried here.
    """

    features: np.ndarray
    labels: np.ndarray
    n_total: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError("features must be a 2-D matrix")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ShapeError("labels must be a vector matching the feature rows")
        if self.features.shape[0] < 1:
            raise ShapeError("a batch needs at least one observation")
        if np.any(self.labels < 0):
            raise DomainError("labels must be nonnegative class indices")
        if self.n_total < self.features.shape[0]:
            raise DomainError("n_total cannot be smaller than the batch size")

    @property
    def size(self) -> int:
        return self.features.shape[0]


class GradientBundle:
    """Per-parameter gradient arrays mirroring ``VariationalState``.

    ``layers[l][name]`` matches the state array of the same name; the
    entry is None for parameter groups the current phase or indicator
    mode does not differentiate (structure parameters under fixed
    indicators, prior and hyperprior parameters outside pre-training).
    """

    def __init__(self, state: VariationalState, with_structure: bool, with_priors: bool):
        prior_names = set(state.layers[0].SCALARS) if state.layers else set()
        self.layers = []
        for layer in state.layers:
            grads = {}
            for name in layer.param_names():
                if name in prior_names:
                    grads[name] = np.zeros_like(getattr(layer, name)) if with_priors else None
                elif name in ("kappa", "rho"):
                    grads[name] = np.zeros_like(getattr(layer, name))
                else:
                    grads[name] = np.zeros_like(getattr(layer, name)) if with_structure else None
            self.layers.append(grads)

    def get(self, layer: int, name: str):
        return self.layers[layer][name]

    def items(self):
        for l, grads in enumerate(self.layers):
            for name, arr in grads.items():
                yield l, name, arr

    def scale(self, c: float):
        for _, _, arr in self.items():
            if arr is not None:
                arr *= c

    def check_finite(self):
        for l, name, arr in self.items():
            if arr is not None and not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite gradient for layer {l} parameter {name}")


def forward_logits(sampled: SampledNetwork, features: np.ndarray):
    """Run the sampled network on a design block.

    Returns the output logits and the activation tape (per transition:
    the input block and the pre-activation block) that backward passes
    reuse.  Raises ``NumericError`` naming the first transition whose
    activations stop being finite.
    """
    spec = sampled.spec
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.widths[0]:
        raise ShapeError(
            f"features must be (N, {spec.widths[0]}), got {x.shape}"
        )
    tape = []
    z = x
    n_trans = spec.n_transitions
    for t in range(n_trans):
        w = sampled.layers[t].effective
        if spec.include_bias:
            pre = z @ w[1:, :] + w[0, :]
        else:
            pre = z @ w
        if not np.all(np.isfinite(pre)):
            raise NumericError(f"non-finite activations at transition {t}")
        tape.append({"z_in": z, "pre": pre})
        if t < n_trans - 1:
            act = spec.activations[t]
            z = np.maximum(pre, 0.0) if act == "relu" else pre
        else:
            z = pre
    return z, tape


def forward(sampled: SampledNetwork, batch: Batch):
    """Per-observation log-likelihood under the sampled weights, plus the tape."""
    logits, tape = forward_logits(sampled, batch.features)
    n_classes = sampled.spec.n_classes
    if np.any(batch.labels >= n_classes):
        raise DomainError(f"labels must be below the class count {n_classes}")
    logp = log_softmax(logits)
    loglik = logp[np.arange(batch.size), batch.labels]
    tape.append({"logp": logp})
    return loglik, tape


def _backprop_loglik(sampled: SampledNetwork, batch: Batch, tape, scale: float):
    """Gradients of scale * sum_i loglik_i with respect to each effective weight."""
    spec = sampled.spec
    logp = tape[-1]["logp"]
    probs = np.exp(logp)
    dpre = probs.copy()
    dpre *= -1.0
    dpre[np.arange(batch.size), batch.labels] += 1.0
    dpre *= scale
    d_weights = [None] * spec.n_transitions
    for t in range(spec.n_transitions - 1, -1, -1):
        z_in = tape[t]["z_in"]
        w = sampled.layers[t].effective
        if spec.include_bias:
            dw = np.empty_like(w)
            dw[0, :] = dpre.sum(axis=0)
            dw[1:, :] = z_in.T @ dpre
            dz = dpre @ w[1:, :].T
        else:
            dw = z_in.T @ dpre
            dz = dpre @ w.T
        d_weights[t] = dw
        if t > 0:
            # Derivative of the hidden activation; relu uses 1[pre > 0].
            if spec.activations[t - 1] == "relu":
                dz = dz * (tape[t - 1]["pre"] > 0.0)
            dpre = dz
    return d_weights


def _sigma2(layer, l: int) -> float:
    sigma2 = layer.sigma2()
    if sigma2 <= 0.0:
        raise NumericError(f"prior slab variance underflowed to zero in layer {l}")
    return sigma2


def _psi(layer, l: int) -> float:
    psi = layer.psi()
    if not 0.0 < psi < 1.0:
        raise NumericError(f"prior inclusion probability saturated at {psi} in layer {l}")
    return psi


def _analytic_kl(l: int, layer, tau, alpha, fixed: bool):
    """Closed-form KL of one layer; returns (value, per-weight Gaussian KL).

    ``fixed`` marks indicators held by a mask or by fixed_dense: the
    slab terms are weighted by alpha and no indicator mass is added.
    """
    if np.any(tau <= 0.0):
        raise NumericError(f"slab sd underflowed to zero in layer {l}")
    kl_g = kl_gaussian(layer.kappa, tau, _sigma2(layer, l))
    if fixed:
        return float(np.sum(alpha * kl_g)), kl_g
    bern = kl_bernoulli(alpha, _psi(layer, l))
    return float(np.sum(bern) + np.sum(alpha * kl_g)), kl_g


def _sampled_kl(l: int, layer, ls):
    """Single-draw log ratio ln q - ln p of one layer.

    Returns (slab part, indicator part, rounded indicators g); callers
    add the two parts in that order.  The variational slab density is
    evaluated at its own draw, so (beta - kappa) / tau is the stored eps.
    """
    if np.any(ls.tau <= 0.0):
        raise NumericError(f"slab sd underflowed to zero in layer {l}")
    sigma2 = _sigma2(layer, l)
    g = np.rint(ls.gamma_tilde)
    log_q = -_HALF_LOG_2PI - np.log(ls.tau) - 0.5 * ls.eps**2
    log_p = -_HALF_LOG_2PI - 0.5 * np.log(sigma2) - ls.beta**2 / (2.0 * sigma2)
    slab = float(np.sum(g * (log_q - log_p)))
    if ls.fixed_indicators:
        return slab, 0.0, g
    lp = layer.logit_psi[0]
    mass = (g * (log_sigmoid(ls.logits) - log_sigmoid(lp))
            + (1.0 - g) * (log_sigmoid(-ls.logits) - log_sigmoid(-lp)))
    return slab, float(np.sum(mass)), g


def kl_state(state: VariationalState, sampled: SampledNetwork = None,
             mode: str = "analytic") -> float:
    """KL between the variational distribution and the prior.

    ``mode="analytic"`` evaluates the closed form; the correlated
    families need a ``sampled`` network because their Bernoulli term is
    evaluated at the sampled inclusion probabilities.  fixed_dense
    states reduce exactly to the sum of Gaussian KL terms.

    ``mode="sampled"`` evaluates the single-draw log ratio
    ln q - ln p at the sampled network, with the indicator mass taken
    at the rounded relaxed draw; its mean over draws equals the
    analytic value.
    """
    if mode not in ("analytic", "sampled"):
        raise DomainError(f"kl mode must be 'analytic' or 'sampled', got {mode!r}")
    if mode == "sampled" and sampled is None:
        raise DomainError("sampled KL mode needs a sampled network")
    total = 0.0
    for l, layer in enumerate(state.layers):
        ls = sampled.layers[l] if sampled is not None else None
        if mode == "sampled":
            slab, mass, _ = _sampled_kl(l, layer, ls)
            total += slab
            total += mass
            continue
        if ls is not None:
            alpha, fixed = ls.alpha, ls.fixed_indicators
        elif state.prior.fixed_dense:
            alpha, fixed = 1.0, True
        elif state.family is Family.MF:
            alpha, fixed = sigmoid(layer.omega), False
        else:
            raise DomainError(
                "analytic KL under a correlated family needs a sampled network"
            )
        total += _analytic_kl(l, layer, layer.tau(), alpha, fixed)[0]
    return total


def hyperprior_logdensity(state: VariationalState) -> float:
    """Sum of hyperprior log densities at the point-estimated prior values."""
    total = 0.0
    for l, layer in enumerate(state.layers):
        total += logpdf_inv_gamma(_sigma2(layer, l), layer.a_beta[0], layer.b_beta[0])
        total += logpdf_beta(_psi(layer, l), layer.a_psi[0], layer.b_psi[0])
    return float(total)


def elbo_estimate(state: VariationalState, batch: Batch, M: int, delta: float,
                  rng: RngStream, kl_mode: str = "analytic",
                  include_hyperprior: bool = False, fixed_masks=None) -> float:
    """Monte Carlo ELBO estimate with M reparametrized draws.

    Deterministic given the rng position: with a fresh stream at the
    same key the same value comes back, and an estimate with 2M draws
    is exactly the average of two successive M-draw estimates on the
    same stream.  ``include_hyperprior`` adds the hyperprior log
    densities, turning the value into the pre-training objective.
    """
    if M < 1:
        raise DomainError("M must be at least 1")
    _check_batch(state, batch)
    scale = batch.n_total / batch.size
    acc = 0.0
    for _ in range(M):
        sampled = sample_network(state, delta, "relaxed", rng, fixed_masks=fixed_masks)
        loglik, _ = forward(sampled, batch)
        acc += scale * float(np.sum(loglik)) - kl_state(state, sampled, kl_mode)
    value = acc / M
    if include_hyperprior:
        value += hyperprior_logdensity(state)
    if not np.isfinite(value):
        raise NumericError("ELBO estimate is not finite")
    return value


def _check_batch(state: VariationalState, batch: Batch):
    if batch.features.shape[1] != state.spec.widths[0]:
        raise ShapeError(
            f"batch features have width {batch.features.shape[1]}, "
            f"the network expects {state.spec.widths[0]}"
        )
    if np.any(batch.labels >= state.spec.n_classes):
        raise DomainError(f"labels must be below the class count {state.spec.n_classes}")


def elbo_gradient(state: VariationalState, batch: Batch, M: int, delta: float,
                  rng: RngStream, phase: str = "train", kl_mode: str = "analytic",
                  fixed_masks=None):
    """ELBO estimate together with its gradient with respect to every parameter.

    Consumes the rng exactly like ``elbo_estimate``, so on a fresh
    stream with the same key the returned value matches the estimate
    and the gradient is the derivative of that same function of the
    parameters at fixed noise.  ``phase="pretrain"`` also fills the
    prior and hyperprior gradient entries (the differentiated objective
    is then estimate + hyperprior log densities); other phases leave
    them as None.

    Returns ``(value, GradientBundle)`` where value is the plain ELBO
    estimate (hyperprior terms are part of the gradient objective only,
    they never enter the reported trace value).
    """
    if M < 1:
        raise DomainError("M must be at least 1")
    if phase not in ("pretrain", "train", "posttrain"):
        raise DomainError(f"unknown phase {phase!r}")
    if kl_mode not in ("analytic", "sampled"):
        raise DomainError(f"kl mode must be 'analytic' or 'sampled', got {kl_mode!r}")
    _check_batch(state, batch)
    with_structure = not state.prior.fixed_dense and fixed_masks is None
    with_priors = phase == "pretrain"
    bundle = GradientBundle(state, with_structure, with_priors)
    scale = batch.n_total / batch.size
    acc_value = 0.0
    for _ in range(M):
        sampled = sample_network(state, delta, "relaxed", rng, fixed_masks=fixed_masks)
        loglik, tape = forward(sampled, batch)
        acc_value += scale * float(np.sum(loglik))
        d_weights = _backprop_loglik(sampled, batch, tape, scale)
        acc_value -= _accumulate_backward(state, sampled, d_weights, bundle,
                                          with_structure, with_priors, kl_mode)
    bundle.scale(1.0 / M)
    value = acc_value / M
    if with_priors:
        _add_hyperprior_grads(state, bundle)
    bundle.check_finite()
    if not np.isfinite(value):
        raise NumericError("ELBO estimate is not finite")
    return value, bundle


def _accumulate_backward(state, sampled, d_weights, bundle, with_structure,
                         with_priors, kl_mode):
    """Route likelihood and KL gradients into the bundle; returns the KL value."""
    kl_value = 0.0
    for l, layer in enumerate(state.layers):
        ls = sampled.layers[l]
        grads = bundle.layers[l]
        dw = d_weights[l]
        tau = ls.tau
        sig_rho = sigmoid(layer.rho)
        # Likelihood path through W = gamma * beta, beta = kappa + tau * eps.
        dbeta = dw * ls.gamma_tilde
        grads["kappa"] += dbeta
        grads["rho"] += dbeta * ls.eps * sig_rho
        dlogit = None
        if with_structure:
            # d gamma / d logit_alpha for the Concrete relaxation.
            dgamma = dw * ls.beta
            dlogit = dgamma * ls.gamma_tilde * (1.0 - ls.gamma_tilde) / sampled.delta
        sigma2 = layer.sigma2()
        psi = layer.psi()
        if kl_mode == "analytic":
            value, kl_g = _analytic_kl(l, layer, tau, ls.alpha, ls.fixed_indicators)
            kl_value += value
            alpha = ls.alpha
            grads["kappa"] -= alpha * layer.kappa / sigma2
            grads["rho"] -= alpha * (tau / sigma2 - 1.0 / tau) * sig_rho
            if not ls.fixed_indicators:
                if dlogit is not None:
                    dlogit -= alpha * (1.0 - alpha) * (
                        (ls.logits - layer.logit_psi[0]) + kl_g
                    )
                if with_priors:
                    grads["logit_psi"] += np.sum(alpha) - alpha.size * psi
            if with_priors:
                grads["log_sigma2"] -= float(
                    np.sum(ls.alpha * (0.5 - (tau**2 + layer.kappa**2) / (2.0 * sigma2)))
                )
        else:
            slab, mass, g = _sampled_kl(l, layer, ls)
            kl_value += slab
            kl_value += mass
            grads["kappa"] -= g * ls.beta / sigma2
            grads["rho"] += g * (1.0 / tau - ls.beta * ls.eps / sigma2) * sig_rho
            if not ls.fixed_indicators:
                if dlogit is not None:
                    dlogit += ls.alpha - g
                if with_priors:
                    grads["logit_psi"] += float(np.sum(g)) - g.size * psi
            if with_priors:
                grads["log_sigma2"] -= float(
                    np.sum(g * (0.5 - ls.beta**2 / (2.0 * sigma2)))
                )
        if dlogit is not None:
            _route_logit_gradient(state, layer, ls, dlogit, bundle.layers[l])
    return kl_value


def _route_logit_gradient(state, layer, ls, dlogit, grads):
    """Push a gradient on the inclusion logits into the family parameters."""
    if state.family is Family.MF:
        grads["omega"] += dlogit
        return
    dvec = dlogit.reshape(-1)
    grads["xi"] += dvec
    if state.family is Family.MVN_FULL:
        douter = np.outer(dvec, ls.eps_full)
        dl = np.tril(douter)
        diag = np.diagonal(douter) * sigmoid(np.diagonal(layer.chol_raw))
        dl[np.diag_indices_from(dl)] = diag
        grads["chol_raw"] += dl
    else:
        if layer.rank > 0:
            grads["factor"] += np.outer(dvec, ls.eps_factor)
        grads["log_diag"] += dvec * ls.eps_diag * 0.5 * np.sqrt(layer.diag())


def _add_hyperprior_grads(state, bundle):
    """Gradients of the hyperprior log densities (pre-training only)."""
    for l, layer in enumerate(state.layers):
        grads = bundle.layers[l]
        s2 = layer.sigma2()
        psi = layer.psi()
        a_b, b_b = float(layer.a_beta[0]), float(layer.b_beta[0])
        a_p, b_p = float(layer.a_psi[0]), float(layer.b_psi[0])
        grads["log_sigma2"] += -(a_b + 1.0) + b_b / s2
        grads["logit_psi"] += (a_p - 1.0) * (1.0 - psi) - (b_p - 1.0) * psi
        grads["a_beta"] += np.log(b_b) - special.digamma(a_b) - np.log(s2)
        grads["b_beta"] += a_b / b_b - 1.0 / s2
        grads["a_psi"] += special.digamma(a_p + b_p) - special.digamma(a_p) + np.log(psi)
        grads["b_psi"] += special.digamma(a_p + b_p) - special.digamma(b_p) + np.log1p(-psi)
