"""Model state: network shape, priors, variational parameters, sampling.

A classifier here is a stack of affine transitions with elementwise
activations between them and a softmax link on top.  Every connection
weight (bias row included) carries a binary inclusion indicator with a
spike-and-slab prior; the variational posterior keeps, per weight, a
slab mean ``kappa``, a softplus-parametrized slab sd ``tau`` and an
inclusion probability ``alpha``.  Three families parametrize the
inclusion side:

* ``Family.MF``: independent probabilities, one logit ``omega`` per
  weight.
* ``Family.MVN_FULL``: the layer's inclusion logits are jointly normal
  with mean ``xi`` and covariance given by a learned Cholesky factor
  (lower triangle free, softplus on the diagonal).
* ``Family.MVN_LOWRANK``: same, with covariance F F^T + D for a learned
  dim x r factor and positive diagonal (rank 0 allowed).

Per layer the state also carries the point-estimated prior slab
variance ``log_sigma2`` and prior inclusion probability ``logit_psi``
together with their hyperprior shapes, all updated only during the
pre-training phase.

All per-layer parameters are exposed through a fixed named ordering
(``VariationalState.param_items``), which the trainer, the gradient
bundle and the checkpoint format share.  Scalars are stored as
shape-(1,) arrays so every parameter is a mutable numpy buffer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .distributions import (HyperParams, concrete_from_logits, mvn_blocks,
                            sample_mvn_logits)
from .errors import ConfigError, DomainError, ShapeError
from .numkernel import RngStream, sigmoid, softplus, softplus_inv

__all__ = [
    "Family",
    "NetworkSpec",
    "PriorConfig",
    "LayerParams",
    "VariationalState",
    "SampledLayer",
    "SampledNetwork",
    "init_state",
    "sample_network",
    "marginal_inclusion",
    "median_model",
    "posterior_mean_weights",
]

ACTIVATIONS = ("relu", "identity")

# Default ceiling on per-layer weight count for the full-covariance
# family; its Cholesky factor is quadratic in that count.
MVN_FULL_WEIGHT_CAP = 10_000


class Family(enum.Enum):
    MF = "mf"
    MVN_FULL = "mvn_full"
    MVN_LOWRANK = "mvn_lowrank"


@dataclass(frozen=True)
class NetworkSpec:
    """Widths of every layer, hidden activations, bias convention.

    ``widths`` runs from the input dimension to the class count and
    needs at least two entries (a single transition is the linear
    softmax classifier).  ``activations`` has one entry per hidden
    layer, so ``len(widths) - 2`` of them.
    """

    widths: tuple
    activations: tuple = None  # defaults to relu on every hidden layer
    include_bias: bool = True

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if len(widths) < 2:
            raise ConfigError("widths needs at least input and output entries")
        if any(w < 1 for w in widths):
            raise ConfigError("layer widths must be positive")
        acts = self.activations
        if acts is None:
            acts = ("relu",) * (len(widths) - 2)
        acts = tuple(str(a) for a in acts)
        object.__setattr__(self, "activations", acts)
        if len(acts) != len(widths) - 2:
            raise ConfigError(
                f"need {len(widths) - 2} hidden activations, got {len(acts)}"
            )
        for a in acts:
            if a not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {a!r}; choose from {ACTIVATIONS}")

    @property
    def n_transitions(self) -> int:
        return len(self.widths) - 1

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    def d_in(self, layer: int) -> int:
        """Rows of the layer's weight matrix (input width plus bias row)."""
        return self.widths[layer] + (1 if self.include_bias else 0)

    def weight_shape(self, layer: int) -> tuple:
        return (self.d_in(layer), self.widths[layer + 1])

    def n_weights(self, layer: int) -> int:
        rows, cols = self.weight_shape(layer)
        return rows * cols


@dataclass(frozen=True)
class PriorConfig:
    """Initial prior values, hyperprior shapes and learning switches."""

    sigma2: float = 1.0
    psi: float = 0.5
    hyper: HyperParams = field(default_factory=HyperParams)
    learn_sigma2: bool = True
    learn_psi: bool = True
    learn_hyper: bool = True
    fixed_dense: bool = False

    def __post_init__(self):
        if self.sigma2 <= 0.0:
            raise ConfigError("prior sigma2 must be positive")
        if not (0.0 < self.psi < 1.0):
            raise ConfigError("prior psi must lie in the open interval (0, 1)")


class LayerParams:
    """Mutable parameter arrays of one transition; see module docstring."""

    SCALARS = ("log_sigma2", "logit_psi", "a_beta", "b_beta", "a_psi", "b_psi")

    def __init__(self, family: Family, shape, rank: int = 0):
        self.family = family
        self.shape = tuple(shape)
        self.rank = int(rank)
        for name, dims in self.param_shapes(family, self.shape, self.rank).items():
            setattr(self, name, np.zeros(dims))
        for name in ("a_beta", "b_beta", "a_psi", "b_psi"):
            getattr(self, name)[0] = 1.0

    @staticmethod
    def param_shapes(family: Family, shape, rank: int = 0) -> dict:
        """Every parameter's shape, in canonical order, without allocating.

        Sizes are exact Python ints, so a reader can check stored
        tensors against them before building anything.
        """
        rows, cols = shape
        n_w = rows * cols
        if family is Family.MF:
            own = {"omega": (rows, cols)}
        elif family is Family.MVN_FULL:
            own = {"xi": (n_w,), "chol_raw": (n_w, n_w)}
        else:
            own = {"xi": (n_w,), "factor": (n_w, rank), "log_diag": (n_w,)}
        return {"kappa": (rows, cols), "rho": (rows, cols), **own,
                **dict.fromkeys(LayerParams.SCALARS, (1,))}

    @property
    def n_weights(self) -> int:
        return self.shape[0] * self.shape[1]

    def param_names(self) -> tuple:
        return tuple(self.param_shapes(self.family, self.shape, self.rank))

    def tau(self) -> np.ndarray:
        return softplus(self.rho)

    def sigma2(self) -> float:
        return float(np.exp(self.log_sigma2[0]))

    def psi(self) -> float:
        return float(sigmoid(self.logit_psi[0]))

    def chol(self) -> np.ndarray:
        """Effective Cholesky factor: free lower triangle, softplus diagonal."""
        if self.family is not Family.MVN_FULL:
            raise DomainError("chol() is only defined for the full-covariance family")
        low = np.tril(self.chol_raw, -1)
        low[np.diag_indices_from(low)] = softplus(np.diagonal(self.chol_raw))
        return low

    def diag(self) -> np.ndarray:
        if self.family is not Family.MVN_LOWRANK:
            raise DomainError("diag() is only defined for the low-rank family")
        return np.exp(self.log_diag)

    def logit_cov(self) -> dict:
        """Covariance keywords of ``sample_mvn_logits`` for this layer's logits."""
        if self.family is Family.MVN_FULL:
            return {"chol": self.chol()}
        return {"factor": self.factor, "diag": self.diag()}


class VariationalState:
    """All trainable parameters plus bookkeeping shared by the trainer.

    ``version`` increments on every optimizer step and invalidates the
    cached marginal inclusion probabilities.
    """

    def __init__(self, spec: NetworkSpec, prior: PriorConfig, family: Family,
                 rank: int = 0):
        self.spec = spec
        self.prior = prior
        self.family = family
        self.rank = int(rank)
        self.layers = [
            LayerParams(family, spec.weight_shape(l), rank)
            for l in range(spec.n_transitions)
        ]
        self.version = 0
        self._alpha_cache = None

    @property
    def n_transitions(self) -> int:
        return self.spec.n_transitions

    def param_items(self):
        """Yield (layer_index, name, array) in the canonical fixed order."""
        for l, layer in enumerate(self.layers):
            for name in layer.param_names():
                yield l, name, getattr(layer, name)

    def bump_version(self):
        self.version += 1
        self._alpha_cache = None

    def copy(self) -> "VariationalState":
        """Deep copy of every parameter array (used for epoch snapshots)."""
        other = VariationalState(self.spec, self.prior, self.family, self.rank)
        for (_, name, src), (l2, n2, _) in zip(self.param_items(), other.param_items()):
            getattr(other.layers[l2], n2)[...] = src
        other.version = self.version
        return other

    def restore_from(self, snapshot: "VariationalState"):
        """Overwrite every parameter array with the snapshot's values."""
        for (l, name, dst), (_, _, src) in zip(self.param_items(), snapshot.param_items()):
            dst[...] = src
        self.bump_version()


@dataclass
class SampledLayer:
    """One transition's noise draws and derived quantities for a single sample."""

    alpha: np.ndarray          # inclusion probabilities, matrix
    gamma_tilde: np.ndarray    # relaxed or hard indicators, matrix
    beta: np.ndarray           # slab draws kappa + tau * eps, matrix
    effective: np.ndarray      # gamma_tilde * beta, the weights used by forward
    eps: np.ndarray            # slab noise
    tau: np.ndarray            # softplus(rho) at draw time
    nu: np.ndarray = None      # uniform noise (absent for fixed indicators)
    logits: np.ndarray = None  # inclusion logits, matrix view (absent when fixed dense)
    eps_factor: np.ndarray = None  # low-rank factor noise
    eps_diag: np.ndarray = None    # low-rank diagonal noise
    eps_full: np.ndarray = None    # full-covariance noise
    fixed_indicators: bool = False # True when gamma came from a mask or fixed_dense


@dataclass
class SampledNetwork:
    """A full set of sampled weights; invariant: effective = gamma_tilde * beta."""

    layers: list
    spec: NetworkSpec
    family: Family
    delta: float
    mode: str


def init_state(spec: NetworkSpec, prior: PriorConfig, family: Family, rng: RngStream,
               rank: int = 0, init_tau: float = 0.05,
               mvn_full_cap: int = MVN_FULL_WEIGHT_CAP) -> VariationalState:
    """Fresh variational state with the documented initialization.

    kappa ~ N(0, 1/fan_in) with fan_in the layer input width, tau
    starts at ``init_tau`` everywhere, inclusion probabilities start at
    1/2 (omega or xi zero), the low-rank factor is drawn N(0, 0.01) and
    its diagonal is set so each logit has unit marginal variance, and
    the full-covariance Cholesky starts at the identity.  Prior values
    come from ``prior`` and must sit in their hyperpriors' support.
    Deterministic given the rng: a fixed seed reproduces the state
    bit for bit.
    """
    if family is Family.MVN_LOWRANK and rank < 0:
        raise ConfigError("rank must be nonnegative")
    if family is not Family.MVN_LOWRANK and rank != 0:
        raise ConfigError("rank is only meaningful for the low-rank family")
    if family is Family.MVN_FULL:
        for l in range(spec.n_transitions):
            if spec.n_weights(l) > mvn_full_cap:
                raise ConfigError(
                    f"layer {l} has {spec.n_weights(l)} weights; the full-covariance "
                    f"family is capped at {mvn_full_cap} per layer"
                )
    state = VariationalState(spec, prior, family, rank)
    rho0 = softplus_inv(float(init_tau))
    for l, layer in enumerate(state.layers):
        fan_in = spec.widths[l]
        sd = 1.0 / np.sqrt(fan_in)
        layer.kappa[...] = sd * rng.std_normal(layer.n_weights).reshape(layer.shape)
        layer.rho[...] = rho0
        if family is Family.MVN_FULL:
            diag_raw = softplus_inv(1.0)  # unit marginal sd for every logit
            layer.chol_raw[np.diag_indices(layer.n_weights)] = diag_raw
        elif family is Family.MVN_LOWRANK:
            if rank > 0:
                layer.factor[...] = 0.1 * rng.std_normal(
                    layer.n_weights * rank
                ).reshape(layer.n_weights, rank)
            resid = 1.0 - np.sum(layer.factor**2, axis=1)
            layer.log_diag[...] = np.log(np.maximum(resid, 0.05))
        layer.log_sigma2[0] = np.log(prior.sigma2)
        layer.logit_psi[0] = np.log(prior.psi) - np.log1p(-prior.psi)
        layer.a_beta[0] = prior.hyper.a_beta
        layer.b_beta[0] = prior.hyper.b_beta
        layer.a_psi[0] = prior.hyper.a_psi
        layer.b_psi[0] = prior.hyper.b_psi
    return state


def sample_network(state: VariationalState, delta: float, mode: str, rng: RngStream,
                   fixed_masks=None) -> SampledNetwork:
    """Draw one set of weights from the variational distribution.

    ``mode`` is "relaxed" (Concrete indicators at temperature delta > 0)
    or "hard" (exact Bernoulli indicators, the delta -> 0 limit used by
    prediction).  ``fixed_masks`` freezes the indicators to the given
    0/1 matrices and skips all structure noise, which is how the
    median-fixed fine-tuning phase conditions on a mask.

    Noise draw order per layer is fixed and documented: structure noise
    first (full: eps, low rank: eps1 then eps2), then the uniform nu
    matrix, then the slab eps matrix.  fixed_dense states and fixed
    masks skip the structure and nu draws entirely.

    Invariant: ``effective = gamma_tilde * beta`` holds exactly, entry
    by entry, for every layer.
    """
    if mode not in ("relaxed", "hard"):
        raise DomainError(f"mode must be 'relaxed' or 'hard', got {mode!r}")
    if mode == "relaxed" and delta <= 0.0:
        raise DomainError("relaxed sampling requires a positive temperature delta")
    if fixed_masks is not None and len(fixed_masks) != state.n_transitions:
        raise ShapeError("fixed_masks must provide one mask per transition")
    layers = []
    for l, layer in enumerate(state.layers):
        shape = layer.shape
        n_w = layer.n_weights
        logits_mat = None
        eps_factor = eps_diag = eps_full = None
        nu = None
        fixed = False
        if fixed_masks is not None:
            mask = np.asarray(fixed_masks[l], dtype=np.float64)
            if mask.shape != shape:
                raise ShapeError(f"mask for layer {l} must have shape {shape}")
            alpha = mask.copy()
            gamma = mask.copy()
            fixed = True
        elif state.prior.fixed_dense:
            alpha = np.ones(shape)
            gamma = np.ones(shape)
            fixed = True
        else:
            if state.family is Family.MF:
                logits_mat = layer.omega
            else:
                block, noise = sample_mvn_logits(layer.xi, rng, 1, **layer.logit_cov())
                noise = [None if e is None else e[0] for e in noise]
                if state.family is Family.MVN_FULL:
                    (eps_full,) = noise
                else:
                    eps_factor, eps_diag = noise
                logits_mat = block[0].reshape(shape)
            alpha = sigmoid(logits_mat)
            nu = rng.uniform(n_w).reshape(shape)
            if mode == "relaxed":
                gamma = concrete_from_logits(logits_mat, nu, delta)
            else:
                gamma = (nu < alpha).astype(np.float64)
        eps = rng.std_normal(n_w).reshape(shape)
        tau = layer.tau()
        beta = layer.kappa + tau * eps
        layers.append(SampledLayer(
            alpha=alpha, gamma_tilde=gamma, beta=beta, effective=gamma * beta,
            eps=eps, tau=tau, nu=nu, logits=logits_mat,
            eps_factor=eps_factor, eps_diag=eps_diag, eps_full=eps_full,
            fixed_indicators=fixed,
        ))
    return SampledNetwork(layers=layers, spec=state.spec, family=state.family,
                          delta=float(delta), mode=mode)


def marginal_inclusion(state: VariationalState, n_mc: int = 1000,
                       rng: RngStream = None) -> list:
    """Per-weight marginal inclusion probabilities alpha_hat, one matrix per layer.

    Exact for the mean-field family and for fixed_dense states (all
    ones); the MVN families integrate the logit distribution by Monte
    Carlo with ``n_mc`` draws, which requires an rng.  Each layer draws
    its logits in blocks (``mvn_blocks``, one ``sample_mvn_logits`` call
    per block), so the stream is consumed exactly as by ``n_mc``
    single draws per layer, layer after layer, and the sigmoids are
    summed in draw order.

    MVN results are cached on the state, keyed by (version, n_mc, stream
    position at entry).  A repeated call from the same position makes
    no draw: it returns the cached values and moves the stream to the
    position a fresh computation would leave it at.
    """
    if state.prior.fixed_dense:
        return [np.ones(layer.shape) for layer in state.layers]
    if state.family is Family.MF:
        return [sigmoid(layer.omega) for layer in state.layers]
    if rng is None:
        raise DomainError("marginal_inclusion needs an rng for MVN families")
    if n_mc < 1:
        raise DomainError("n_mc must be at least 1")
    key = (state.version, int(n_mc), rng.state_words().tobytes())
    cached = state._alpha_cache
    if cached is not None and cached[0] == key:
        rng.set_state_words(cached[2])
        return [a.copy() for a in cached[1]]
    out = []
    for layer in state.layers:
        cov = layer.logit_cov()
        acc = np.zeros(layer.n_weights)
        for rows in mvn_blocks(n_mc, layer.n_weights + layer.rank):
            probs = sigmoid(sample_mvn_logits(layer.xi, rng, rows, **cov)[0])
            # Fold the running sum into the first row; the reduction then
            # adds rows in draw order, as a draw-by-draw loop would.
            probs[0] += acc
            acc = np.add.reduce(probs, axis=0)
        out.append((acc / n_mc).reshape(layer.shape))
    state._alpha_cache = (key, [a.copy() for a in out], rng.state_words())
    return out


def median_model(state: VariationalState, alpha_hat=None, n_mc: int = 1000,
                 rng: RngStream = None) -> list:
    """0/1 masks of the median probability model: include iff alpha_hat > 1/2.

    The threshold is strict, so a weight sitting exactly at 1/2 is
    excluded.  ``alpha_hat`` may be passed to reuse a cached estimate.
    """
    if alpha_hat is None:
        alpha_hat = marginal_inclusion(state, n_mc=n_mc, rng=rng)
    return [(a > 0.5).astype(np.float64) for a in alpha_hat]


def posterior_mean_weights(state: VariationalState, alpha_hat=None, n_mc: int = 1000,
                           rng: RngStream = None) -> list:
    """Deterministic weights alpha_hat * kappa used by the mean prediction mode."""
    if alpha_hat is None:
        alpha_hat = marginal_inclusion(state, n_mc=n_mc, rng=rng)
    return [a * layer.kappa for a, layer in zip(alpha_hat, state.layers)]
