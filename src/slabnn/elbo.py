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
sampled alpha for the correlated families.  A fixed draw, one whose
layers have ``logits is None`` (a fixed_dense state or a mask such as
the median model's), has no indicator mass term and no structure
gradient; ``sample_network`` decides which draws are fixed.  Both
terms, and the hyperprior log densities, come from the kernels in
``distributions``.  A fully sampled log-ratio estimate of the KL is
kept behind ``kl_mode="sampled"`` and cross-checked against the
analytic form in the tests; its indicator mass is evaluated at the
rounded relaxed draw, so its pathwise gradient at fixed noise omits the
score contribution of the mass (which has zero mean) and remains
consistent with finite differences of the estimator.

The analytic KL is the expectation of the sampled log ratio, so the
slab and prior derivatives are written once: the analytic ones are the
sampled ones with each draw quantity replaced by its mean, the rounded
indicator g by alpha, beta by kappa, beta eps by tau and beta^2 by
tau^2 + kappa^2.  Only the indicator terms differ by mode.  One
per-layer routine (``_layer_kl``) gives a layer's KL and, given its
gradients, subtracts the KL's derivative; ``kl_state`` and the one
M-draw loop behind ``elbo_estimate`` and ``elbo_gradient`` both call
it, so the gradient's value is the estimate's bit for bit.

Prior values that training drives out of a kernel's domain (psi
rounding to 0 or 1, sigma2 underflowing to 0) raise ``NumericError``,
which the trainer rolls back.

Gradients are reverse-mode by hand.  The chain runs

    logits -> softmax log-likelihood -> effective weights W = gamma * beta
    beta  = kappa + softplus(rho) * eps      (d tau / d rho = sigmoid(rho))
    gamma = sigmoid((logit_alpha - logit nu) / delta)
            (d gamma / d logit_alpha = gamma (1 - gamma) / delta)
    logit_alpha = omega                       (mean field)
                = xi + L eps                  (full covariance, softplus diagonal)
                = xi + F eps1 + sqrt(d) eps2  (low rank)

plus the closed-form KL derivatives and, during pre-training, the
hyperprior log densities of the point-estimated prior values.  Which
parameters a phase differentiates is ``model.PHASE_GROUPS``, the one
phase policy, which the trainer's step sizes obey as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import special

from .distributions import kl_bernoulli, kl_gaussian, logpdf_beta, logpdf_inv_gamma
from .errors import DomainError, NumericError, ShapeError
from .model import (PARAM_GROUP, PHASE_GROUPS, STRUCTURE_GROUPS, Family, SampledNetwork,
                    VariationalState, sample_network)
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
    "gradient_groups",
]

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

# The prior values' and hyperprior shapes' groups: those only pre-training moves.
_PRIOR_GROUPS = PHASE_GROUPS["pretrain"] - PHASE_GROUPS["train"]


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

    ``layers[l][name]`` matches the state array of the same name when
    the parameter's group (``PARAM_GROUP``) is in ``groups``, and is
    None otherwise; a name missing from ``PARAM_GROUP`` raises
    ``KeyError`` here.  ``with_structure`` says whether any structure
    group is differentiated, ``with_priors`` whether every group of the
    prior values and their hyperprior shapes is.
    """

    def __init__(self, state: VariationalState, groups):
        self.with_structure = not STRUCTURE_GROUPS.isdisjoint(groups)
        self.with_priors = _PRIOR_GROUPS.issubset(groups)
        self.layers = [{name: np.zeros_like(getattr(layer, name))
                        if PARAM_GROUP[name] in groups else None
                        for name in layer.param_names()} for layer in state.layers]

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


def forward_logits(sampled: SampledNetwork, features: np.ndarray, products=None):
    """Run the sampled network on a design block.

    Returns the output logits and the activation tape (per transition,
    its input block ``z_in``) that backward passes reuse.  A hidden relu
    runs in place on its pre-activation block, so a relu's derivative
    mask is read back as ``z_in > 0`` of the next transition, which is
    ``pre > 0`` for the finite blocks a forward lets through.  Raises
    ``NumericError`` naming the first transition whose activations stop
    being finite.  ``products``, when given, forms transition t's
    ``z @ w[1:] + w[0]`` as ``products.pre(t, z, w)`` (prediction's
    ``predictor.BlockedProducts``); training passes none and multiplies
    the block whole.
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
        pre = z @ w[1:, :] + w[0, :] if products is None else products.pre(t, z, w)
        if not np.all(np.isfinite(pre)):
            raise NumericError(f"non-finite activations at transition {t}")
        tape.append({"z_in": z})
        if t < n_trans - 1 and spec.activations[t] == "relu":
            np.maximum(pre, 0.0, out=pre)
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
        dw = np.empty_like(w)
        dw[0, :] = dpre.sum(axis=0)
        dw[1:, :] = z_in.T @ dpre
        d_weights[t] = dw
        if t > 0:  # the input gradient of transition 0 is never used
            dz = dpre @ w[1:, :].T
            # Derivative of the hidden activation; relu uses 1[pre > 0],
            # which is 1[z_in > 0] of this transition's input.
            if spec.activations[t - 1] == "relu":
                dz = dz * (z_in > 0.0)
            dpre = dz
    return d_weights


def _sigma2(layer, l: int) -> float:
    sigma2 = layer.sigma2()
    if sigma2 <= 0.0:
        raise NumericError(f"prior slab variance underflowed to zero in layer {l}")
    return sigma2


def _tau(tau, l: int) -> np.ndarray:
    if np.any(tau <= 0.0):
        raise NumericError(f"slab sd underflowed to zero in layer {l}")
    return tau


def _psi(layer, l: int) -> float:
    psi = layer.psi()
    if not 0.0 < psi < 1.0:
        raise NumericError(f"prior inclusion probability saturated at {psi} in layer {l}")
    return psi


def _check_kl_mode(mode: str, has_network: bool = True):
    if mode not in ("analytic", "sampled"):
        raise DomainError(f"kl mode must be 'analytic' or 'sampled', got {mode!r}")
    if mode == "sampled" and not has_network:
        raise DomainError("sampled KL mode needs a sampled network")


def _layer_kl(l: int, layer, ls, mode: str, bundle=None, d_weights=None, delta=None):
    """KL of layer ``l`` at the draw ``ls``, as the parts callers add in order.

    ``ls`` carries alpha, tau and logits (None marks fixed indicators:
    no indicator term, no structure gradient); the sampled mode also
    reads the draw's gamma_tilde, beta and eps.  Given a
    ``GradientBundle`` and ``d_weights`` (the likelihood gradient of
    each layer's effective weights), it routes the layer's share into
    the bundle's layer ``l`` and subtracts the KL's derivative, leaving
    the groups the bundle does not differentiate alone.  The slab and
    prior derivatives are those of the sampled log ratio; the analytic
    mode takes them at the draw quantities' means (g, beta, beta eps,
    beta^2 become alpha, kappa, tau, tau^2 + kappa^2).
    """
    tau = _tau(ls.tau, l)
    sigma2 = _sigma2(layer, l)
    drawn = ls.logits is not None
    grads = None if bundle is None else bundle.layers[l]
    with_priors = bundle is not None and bundle.with_priors
    if mode == "analytic":
        g, beta, beta_eps = ls.alpha, layer.kappa, tau
        beta_sq = tau**2 + layer.kappa**2 if with_priors else None
        kl_g = kl_gaussian(layer.kappa, tau, sigma2)
        slab = np.sum(g * kl_g)
        parts = (float(np.sum(kl_bernoulli(g, _psi(layer, l))) + slab) if drawn
                 else float(slab),)
    else:
        g, beta, beta_sq = np.rint(ls.gamma_tilde), ls.beta, ls.beta**2
        beta_eps = ls.beta * ls.eps if grads is not None else None
        # The variational slab density at its own draw: (beta - kappa) / tau = eps.
        log_q = -_HALF_LOG_2PI - np.log(tau) - 0.5 * ls.eps**2
        log_p = -_HALF_LOG_2PI - 0.5 * np.log(sigma2) - beta_sq / (2.0 * sigma2)
        parts = (float(np.sum(g * (log_q - log_p))),)
        if drawn:
            lp = layer.logit_psi[0]
            mass = (g * (log_sigmoid(ls.logits) - log_sigmoid(lp))
                    + (1.0 - g) * (log_sigmoid(-ls.logits) - log_sigmoid(-lp)))
            parts += (float(np.sum(mass)),)
    if grads is None:
        return parts
    # Likelihood path through W = gamma * beta, beta = kappa + tau * eps.
    sig_rho = sigmoid(layer.rho)
    dw = d_weights[l]
    dbeta = dw * ls.gamma_tilde
    grads["kappa"] += dbeta
    grads["rho"] += dbeta * ls.eps * sig_rho
    grads["kappa"] -= g * beta / sigma2
    grads["rho"] += g * (1.0 / tau - beta_eps / sigma2) * sig_rho
    if with_priors:
        grads["log_sigma2"] -= float(np.sum(g * (0.5 - beta_sq / (2.0 * sigma2))))
    if drawn and bundle.with_structure:
        # d gamma / d logit_alpha for the Concrete relaxation, then the KL's.
        dlogit = dw * ls.beta * ls.gamma_tilde * (1.0 - ls.gamma_tilde) / delta
        if mode == "analytic":
            dlogit -= g * (1.0 - g) * ((ls.logits - layer.logit_psi[0]) + kl_g)
        else:
            dlogit += ls.alpha - g
        if with_priors:
            grads["logit_psi"] += float(np.sum(g)) - g.size * layer.psi()
        layer.route_logit_grad(dlogit, ls.noise, grads)
    return parts


def _kl_sum(state, layers, mode, bundle=None, d_weights=None, delta=None) -> float:
    """Sum of ``_layer_kl`` over the layers, part by part, in layer order."""
    total = 0.0
    for l, layer in enumerate(state.layers):
        for part in _layer_kl(l, layer, layers[l], mode, bundle, d_weights, delta):
            total += part
    return total


def kl_state(state: VariationalState, sampled: SampledNetwork = None,
             mode: str = "analytic") -> float:
    """KL between the variational distribution and the prior.

    ``mode="analytic"`` evaluates the closed form at the draw's
    inclusion probabilities; the correlated families need a ``sampled``
    network for them, while mean-field and fixed_dense states may omit
    it (alpha = sigmoid(omega), or all ones with no indicator term, so
    fixed_dense states reduce exactly to the sum of Gaussian KL terms).

    ``mode="sampled"`` evaluates the single-draw log ratio
    ln q - ln p at the sampled network, with the indicator mass taken
    at the rounded relaxed draw; its mean over draws equals the
    analytic value.  Both modes are the one per-layer routine that
    ``elbo_estimate`` and ``elbo_gradient`` run.
    """
    _check_kl_mode(mode, sampled is not None)
    if sampled is not None:
        layers = sampled.layers
    elif state.prior.fixed_dense:
        layers = [SimpleNamespace(alpha=1.0, tau=lp.tau(), logits=None)
                  for lp in state.layers]
    elif state.family is Family.MF:
        layers = [SimpleNamespace(alpha=sigmoid(lp.omega), tau=lp.tau(), logits=lp.omega)
                  for lp in state.layers]
    else:
        raise DomainError("analytic KL under a correlated family needs a sampled network")
    return _kl_sum(state, layers, mode)


def hyperprior_logdensity(state: VariationalState) -> float:
    """Sum of hyperprior log densities at the point-estimated prior values."""
    total = 0.0
    for l, layer in enumerate(state.layers):
        total += logpdf_inv_gamma(_sigma2(layer, l), layer.a_beta[0], layer.b_beta[0])
        total += logpdf_beta(_psi(layer, l), layer.a_psi[0], layer.b_psi[0])
    return float(total)


def gradient_groups(phase: str, fixed: bool) -> frozenset:
    """The groups ``elbo_gradient`` differentiates in ``phase``.

    ``PHASE_GROUPS[phase]``, less the structure groups when the draw is
    ``fixed`` (see ``sample_network``).
    """
    return PHASE_GROUPS[phase] - STRUCTURE_GROUPS if fixed else PHASE_GROUPS[phase]


def _draws(state, batch, M, delta, rng, kl_mode, fixed_masks, phase=None, noise=None):
    """The one M-draw loop: the mean of ``scale * sum loglik - KL`` over M draws.

    M and ``kl_mode`` are checked before anything is drawn.  Given
    ``noise``, each draw takes its next item, as the loop reaches it,
    else draws from ``rng``.  Given a ``phase``, it also returns the
    mean gradient bundle of ``gradient_groups``, else None.
    """
    if M < 1:
        raise DomainError("M must be at least 1")
    _check_kl_mode(kl_mode)
    noise = None if noise is None else iter(noise)
    scale = batch.n_total / batch.size
    acc = 0.0
    bundle = d_weights = None
    for m in range(M):
        drawn = None
        if noise is not None and (drawn := next(noise, None)) is None:
            raise ShapeError(f"noise holds {m} draws, fewer than M = {M}")
        sampled = sample_network(state, delta, "relaxed", rng, fixed_masks=fixed_masks,
                                 noise=drawn)
        loglik, tape = forward(sampled, batch)
        if phase is not None:
            if bundle is None:
                bundle = GradientBundle(
                    state, gradient_groups(phase, sampled.layers[0].logits is None))
            d_weights = _backprop_loglik(sampled, batch, tape, scale)
        kl = _kl_sum(state, sampled.layers, kl_mode, bundle, d_weights, sampled.delta)
        acc += scale * float(np.sum(loglik)) - kl
    if bundle is not None and M > 1:
        bundle.scale(1.0 / M)
    return acc / M, bundle


def elbo_estimate(state: VariationalState, batch: Batch, M: int, delta: float,
                  rng: RngStream, kl_mode: str = "analytic",
                  include_hyperprior: bool = False, fixed_masks=None) -> float:
    """Monte Carlo ELBO estimate with M reparametrized draws.

    Deterministic given the rng position: with a fresh stream at the
    same key the same value comes back, and an estimate with 2M draws
    is exactly the average of two successive M-draw estimates on the
    same stream.  A refused M or ``kl_mode`` draws nothing.
    ``include_hyperprior`` adds the hyperprior log densities, turning
    the value into the pre-training objective.
    """
    value, _ = _draws(state, batch, M, delta, rng, kl_mode, fixed_masks)
    if include_hyperprior:
        value += hyperprior_logdensity(state)
    if not np.isfinite(value):
        raise NumericError("ELBO estimate is not finite")
    return value


def elbo_gradient(state: VariationalState, batch: Batch, M: int, delta: float,
                  rng: RngStream, phase: str = "train", kl_mode: str = "analytic",
                  fixed_masks=None, noise=None):
    """ELBO estimate together with its gradient with respect to every parameter.

    Runs the same draw loop as ``elbo_estimate``, so on a fresh stream
    with the same key the returned value is the estimate's, bit for
    bit, and the gradient is the derivative of that same function of
    the parameters at fixed noise.  The entries filled are those of
    ``gradient_groups``: the groups ``model.PHASE_GROUPS[phase]`` names,
    the one phase policy, less the structure groups when the draw is
    fixed (see ``sample_network``); the others are None.  Where the
    prior and hyperprior entries are filled (pre-training), the
    differentiated objective is estimate + hyperprior log densities.
    The gradient is not scanned for finiteness here:
    ``trainer.adam_step`` refuses a non-finite one.

    ``noise``, an iterable of M ``model.draw_noise`` results drawn in
    advance (the trainer's epoch worker draws them), stands in for the
    draws from ``rng``, which is then not read; each is taken when its
    draw comes, and the result is the same bytes as drawing the same
    numbers here.

    Returns ``(value, GradientBundle)`` where value is the plain ELBO
    estimate (hyperprior terms are part of the gradient objective only,
    they never enter the reported trace value).
    """
    if phase not in PHASE_GROUPS:
        raise DomainError(f"unknown phase {phase!r}")
    value, bundle = _draws(state, batch, M, delta, rng, kl_mode, fixed_masks, phase, noise)
    if bundle.with_priors:
        _add_hyperprior_grads(state, bundle)
    if not np.isfinite(value):
        raise NumericError("ELBO estimate is not finite")
    return value, bundle


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
