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
  (lower triangle free, softplus on the diagonal).  In memory its raw
  values ``chol_raw`` are the packed lower triangle, n(n+1)/2 entries
  in row-major order, so the parameter, its gradient, its ADAM moments
  and its epoch snapshot carry no structural zeros; ``chol()`` unpacks
  the dense factor once per call, and ``logit_factor`` is the one
  caller that builds it for logit draws.  A draw of a changing state
  builds it once per draw; ``predict`` builds it once per call and
  every replicate draws from it.  Checkpoints store it in the same
  packed layout.
* ``Family.MVN_LOWRANK``: same, with covariance F F^T + D for a learned
  dim x r factor and positive diagonal (rank 0 allowed).

``LayerParams`` is the one place that knows the family: parameter
shapes, initial values, blocked logit draws, exact inclusion
probabilities and logit-gradient routing.  ``family_problems`` holds the
rank and size rules.  A correlated layer reuses its last inclusion
probabilities while its structure arrays keep their bytes, at the cost
of one copy of those arrays (``LayerParams.inclusion``).

The indicators of a draw are either sampled from that family or held
fixed (a fixed_dense state, or a mask such as the median model's);
``sample_network`` alone decides which, and records a fixed draw as
``SampledLayer.logits is None``.  A fixed draw draws slab noise for the
weights its mask keeps only.  A draw's random numbers come from
``draw_noise``, which reads no parameter value, so they can be drawn
ahead of the state they are applied to.

Per layer the state also carries the point-estimated prior slab
variance ``log_sigma2`` and prior inclusion probability ``logit_psi``
together with their hyperprior shapes, all updated only during the
pre-training phase.

All per-layer parameters are exposed through a fixed named ordering
(``VariationalState.param_items``), which the trainer, the gradient
bundle and the checkpoint format share.  Scalars are stored as
shape-(1,) arrays so every parameter is a mutable numpy buffer.  Each
parameter belongs to one step-size group (``PARAM_GROUP``), and
``PHASE_GROUPS`` is the one phase policy: the groups each training
phase differentiates and may move, which the ELBO gradient and the
trainer both read.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .distributions import HyperParams, concrete_from_logits, logit_normal_mean
from .errors import ConfigError, DomainError, ShapeError
from .numkernel import RngStream, sigmoid, softplus, softplus_inv

__all__ = [
    "Family",
    "GROUPS",
    "PARAM_GROUP",
    "STRUCTURE_GROUPS",
    "PHASE_GROUPS",
    "NetworkSpec",
    "PriorConfig",
    "LayerParams",
    "VariationalState",
    "SampledLayer",
    "SampledNetwork",
    "LayerNoise",
    "family_problems",
    "memory_problems",
    "pack_lower",
    "unpack_lower",
    "check_init_tau",
    "init_state",
    "draw_noise",
    "sample_network",
    "marginal_inclusion",
    "median_model",
    "posterior_mean_weights",
]

ACTIVATIONS = ("relu", "identity")

# Values in one block of logit draws (``LayerParams.logit_blocks``):
# 2**16 float64 values, 512 KB per block array.  Small enough that peak
# memory does not grow with the draw count, large enough that a block of
# a full-covariance layer is one matrix-matrix product.
BLOCK_VALUES = 2**16


class Family(enum.Enum):
    MF = "mf"
    MVN_FULL = "mvn_full"
    MVN_LOWRANK = "mvn_lowrank"


@dataclass(frozen=True)
class NetworkSpec:
    """Widths of every layer and hidden activations.

    ``widths`` runs from the input dimension to the class count and
    needs at least two entries (a single transition is the linear
    softmax classifier).  ``activations`` has one entry per hidden
    layer, so ``len(widths) - 2`` of them.  Every weight matrix carries
    a bias row, row 0.
    """

    widths: tuple
    activations: tuple = None  # defaults to relu on every hidden layer

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
        return self.widths[layer] + 1

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
        if not 0.0 < self.sigma2 < np.inf:
            raise ConfigError("prior sigma2 must be positive and finite")
        if not (0.0 < self.psi < 1.0):
            raise ConfigError("prior psi must lie in the open interval (0, 1)")


@functools.lru_cache(maxsize=8)
def _tril_layout(n: int) -> tuple:
    """Read-only ``(tri, diag)`` of the packed n x n lower triangle.

    ``tri`` is the boolean n x n lower-triangle mask: indexing a square
    with it visits the packed entries in order.  ``diag`` holds the
    packed positions of the diagonal.
    """
    tri = np.tri(n, dtype=bool)
    diag = np.cumsum(np.arange(1, n + 1)) - 1
    for arr in (tri, diag):
        arr.setflags(write=False)
    return tri, diag


def pack_lower(square) -> np.ndarray:
    """The lower triangle of a square matrix, diagonal included, packed row-major."""
    square = np.asarray(square, dtype=np.float64)
    if square.ndim != 2 or square.shape[0] != square.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {square.shape}")
    return square[_tril_layout(square.shape[0])[0]]


def unpack_lower(packed) -> np.ndarray:
    """The square matrix whose packed lower triangle is ``packed``; zeros above."""
    packed = np.asarray(packed, dtype=np.float64)
    n = (math.isqrt(8 * packed.size + 1) - 1) // 2
    if packed.ndim != 1 or n * (n + 1) // 2 != packed.size:
        raise ShapeError(f"{packed.shape} is not a packed triangle")
    out = np.zeros((n, n))
    out[_tril_layout(n)[0]] = packed
    return out


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
        self._inclusion_memo = None  # (structure bytes, alpha_hat); see ``inclusion``

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
            own = {"xi": (n_w,), "chol_raw": (n_w * (n_w + 1) // 2,)}
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
        """Dense effective Cholesky factor: free lower triangle, softplus diagonal."""
        if self.family is not Family.MVN_FULL:
            raise DomainError("chol() is only defined for the full-covariance family")
        low = unpack_lower(self.chol_raw)
        np.fill_diagonal(low, softplus(self.chol_raw[_tril_layout(self.n_weights)[1]]))
        return low

    def diag(self) -> np.ndarray:
        if self.family is not Family.MVN_LOWRANK:
            raise DomainError("diag() is only defined for the low-rank family")
        return np.exp(self.log_diag)

    def logit_sd(self) -> np.ndarray:
        """Marginal sd of each correlated inclusion logit (root covariance diagonal).

        For the full family these are the row norms of ``chol()``, the
        bits ``np.linalg.norm(chol(), axis=1)`` gives, squared in place
        in the fresh factor so no other n_w x n_w array is made.
        """
        if self.family is Family.MVN_FULL:
            low = self.chol()
            np.square(low, out=low)
            return np.sqrt(np.sum(low, axis=1))
        return np.sqrt(np.sum(self.factor**2, axis=1) + self.diag())

    def init_structure(self, rng: RngStream):
        """Initial structure values: every logit at mean 0, unit variance.

        The low-rank factor is drawn N(0, 0.01), the only draw, and the
        diagonal makes up the rest of the unit variance (at least 0.05).
        """
        if self.family is Family.MVN_FULL:
            self.chol_raw[_tril_layout(self.n_weights)[1]] = softplus_inv(1.0)
        elif self.family is Family.MVN_LOWRANK:
            if self.rank > 0:
                self.factor[...] = 0.1 * rng.std_normal(
                    self.n_weights * self.rank
                ).reshape(self.n_weights, self.rank)
            resid = 1.0 - np.sum(self.factor**2, axis=1)
            self.log_diag[...] = np.log(np.maximum(resid, 0.05))

    def logit_factor(self):
        """What logit draws scale their noise by; built from the current values.

        The transposed dense ``chol()`` for the full family, the
        diagonal sd ``sqrt(diag())`` for low rank, None for mean field.
        It stays valid while the parameters do not change, so a caller
        drawing many times from a fixed state builds it once.
        """
        if self.family is Family.MVN_FULL:
            return self.chol().T
        if self.family is Family.MVN_LOWRANK:
            return np.sqrt(self.diag())
        return None

    @property
    def logit_width(self) -> int:
        """Logit noise values per draw: 0 for mean field, rank + n_weights otherwise."""
        return 0 if self.family is Family.MF else self.n_weights + self.rank

    def logit_noise(self, rng: RngStream, n: int) -> np.ndarray:
        """``n`` rows of logit noise, one ``rng.std_normal`` call; reads no parameter.

        A row is laid out as ``route_logit_grad`` reads it: eps
        (n_weights values) for the full family, eps1 (rank values) then
        eps2 (n_weights values) for low rank.  Mean field draws nothing
        and its rows are empty.
        """
        if self.family is Family.MF:
            return np.empty((n, 0))
        return rng.std_normal(n * self.logit_width).reshape(n, self.logit_width)

    def logits_from_noise(self, noise: np.ndarray, factor) -> np.ndarray:
        """The logits of each row of ``noise`` (``logit_noise`` layout), one row each.

        ``factor`` is this layer's ``logit_factor()`` at its current
        values.  One matrix product for all rows: xi + eps L^T, or
        xi + eps1 F^T + sd eps2.  Mean field's rows are read-only views
        of ``omega``.
        """
        if self.family is Family.MF:
            return np.broadcast_to(self.omega.reshape(1, -1), (noise.shape[0], self.n_weights))
        if self.family is Family.MVN_FULL:
            return self.xi + noise @ factor
        r = self.rank
        logits = np.tile(self.xi, (noise.shape[0], 1))
        if r:
            logits += noise[:, :r] @ self.factor.T
        logits += factor * noise[:, r:]
        return logits

    def logit_blocks(self, rng: RngStream, n: int, factor):
        """Yield ``(logits, noise)`` blocks that hold ``n`` logit draws in order.

        ``factor`` is this layer's ``logit_factor()`` at its current
        values.  Row i of a block is one draw: ``logits`` (rows,
        n_weights) and its ``noise`` row (``logit_noise``).  A block's
        noise is one ``logit_noise`` call of at most ``BLOCK_VALUES``
        values (at least one row), so the stream ends where n one-row
        calls leave it, and a block costs one ``logits_from_noise``
        product.  Mean field draws nothing and its blocks split by
        n_weights, the uniforms a caller draws per row.
        """
        rows = max(1, BLOCK_VALUES // (self.n_weights + self.rank))
        for start in range(0, n, rows):
            noise = self.logit_noise(rng, min(rows, n - start))
            yield self.logits_from_noise(noise, factor), noise

    def inclusion(self) -> np.ndarray:
        """Exact marginal inclusion probabilities alpha_hat, as a fresh weight matrix.

        A correlated logit i is marginally N(xi_i, s_i^2), s_i from
        ``logit_sd``, so alpha_hat_i is ``logit_normal_mean(xi_i, s_i)``.
        A correlated layer keeps its last alpha_hat with a copy of the
        structure arrays it was computed from (``xi`` and ``chol_raw``,
        or ``xi``, ``factor`` and ``log_diag``) and returns a copy of it
        while those arrays hold the same bytes, compared as ``uint64``,
        so ``-0.0`` for ``0.0`` or a NaN with another payload counts as
        a change.  Any write that changes a byte, in place or not,
        recomputes; a reused alpha_hat is the bytes a recomputation
        gives.  The copy costs the structure arrays' size once more,
        plus alpha_hat (3.35 MB for a 915-weight full layer).  Mean
        field computes ``sigmoid(omega)`` every call, which costs what
        the check would.
        """
        if self.family is Family.MF:
            return sigmoid(self.omega)
        names = ("xi", "chol_raw") if self.family is Family.MVN_FULL else (
            "xi", "factor", "log_diag")
        views = [getattr(self, name).view(np.uint64) for name in names]
        memo = self._inclusion_memo
        if memo is not None and all(map(np.array_equal, views, memo[0])):
            return memo[1].copy()
        keys = [v.copy() for v in views]
        alpha = logit_normal_mean(self.xi, self.logit_sd()).reshape(self.shape)
        self._inclusion_memo = (keys, alpha)
        return alpha.copy()

    def route_logit_grad(self, dlogit: np.ndarray, noise: np.ndarray, grads: dict):
        """Add one draw's logit gradient, given its ``noise`` row, into ``grads``."""
        if self.family is Family.MF:
            grads["omega"] += dlogit
            return
        dvec = dlogit.reshape(-1)
        grads["xi"] += dvec
        if self.family is Family.MVN_FULL:
            n = self.n_weights
            tri, diag = _tril_layout(n)
            dl = np.broadcast_to(noise, (n, n))[tri]  # row i: eps_0 .. eps_i
            dl *= np.repeat(dvec, np.arange(1, n + 1))
            dl[diag] *= sigmoid(self.chol_raw[diag])
            grads["chol_raw"] += dl
            return
        r = self.rank
        if r:
            grads["factor"] += np.outer(dvec, noise[:r])
        grads["log_diag"] += dvec * noise[r:] * 0.5 * np.sqrt(self.diag())


# Step-size groups; every parameter ``LayerParams.param_shapes`` names
# maps to exactly one.
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

# The inclusion structure's groups; a fixed draw differentiates none.
STRUCTURE_GROUPS = frozenset({"omega", "xi", "cov"})

# The one phase policy, in schedule order: the groups each phase
# differentiates and may move.  Pre-training moves every group, the
# prior values and their hyperprior shapes included; training fits the
# slabs and the inclusion structure; post-training fine-tunes the slabs.
PHASE_GROUPS = {
    "pretrain": frozenset(GROUPS),
    "train": STRUCTURE_GROUPS | {"weights"},
    "posttrain": frozenset({"weights"}),
}


class VariationalState:
    """All trainable parameters plus bookkeeping shared by the trainer."""

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

    @property
    def n_transitions(self) -> int:
        return self.spec.n_transitions

    def param_items(self):
        """Yield (layer_index, name, array) in the canonical fixed order."""
        for l, layer in enumerate(self.layers):
            for name in layer.param_names():
                yield l, name, getattr(layer, name)

    def copy(self) -> "VariationalState":
        """Deep copy of every parameter array (used for epoch snapshots)."""
        other = VariationalState(self.spec, self.prior, self.family, self.rank)
        for (_, name, src), (l2, n2, _) in zip(self.param_items(), other.param_items()):
            getattr(other.layers[l2], n2)[...] = src
        return other

    def restore_from(self, snapshot: "VariationalState"):
        """Overwrite every parameter array with the snapshot's values."""
        for (l, name, dst), (_, _, src) in zip(self.param_items(), snapshot.param_items()):
            dst[...] = src


@dataclass
class SampledLayer:
    """One transition's noise draws and derived quantities for a single sample."""

    alpha: np.ndarray          # inclusion probabilities, matrix
    gamma_tilde: np.ndarray    # relaxed or hard indicators, matrix
    beta: np.ndarray           # slab draws kappa + tau * eps, matrix
    effective: np.ndarray      # gamma_tilde * beta, the weights used by forward
    eps: np.ndarray            # slab noise
    tau: np.ndarray            # softplus(rho) at draw time
    logits: np.ndarray = None  # inclusion logits, matrix view; None marks a fixed draw
    noise: np.ndarray = None   # logit noise row of this draw (see LayerParams.logit_noise)


@dataclass
class SampledNetwork:
    """A full set of sampled weights; invariant: effective = gamma_tilde * beta."""

    layers: list
    spec: NetworkSpec
    delta: float


def memory_problems(nbytes: int, what: str) -> list:
    """``[message]`` when ``nbytes`` exceeds physical memory, else ``[]``."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes <= have:
        return []
    return [f"{what} need about {nbytes} bytes, over the {have} bytes of physical memory"]


def family_problems(family: Family, rank: int, spec: NetworkSpec) -> list:
    """Messages for each broken family rule; empty when the choice is valid.

    Only the low-rank family takes a rank (nonnegative).  Given a
    ``spec`` (None skips this), a training step's arrays must fit in
    physical memory.  The estimate is 8 bytes per entry of five arrays
    per parameter in its in-memory layout (state, epoch snapshot, two
    ADAM moments, gradient; a packed triangle counts n(n+1)/2), plus
    three temporaries the size of the largest parameter (ADAM's, or
    the packed gradient of ``route_logit_grad``), plus, for the full
    family, the largest n_w x n_w square: the dense factor that
    ``chol()`` builds.  Sizes are exact Python ints, so absurd widths
    fail here and not in numpy.
    """
    problems = []
    if family is Family.MVN_LOWRANK and rank < 0:
        problems.append(f"rank: must be nonnegative, got {rank}")
    if family is not Family.MVN_LOWRANK and rank != 0:
        problems.append(f"rank: only meaningful with family = mvn_lowrank, "
                        f"got {rank} with family = {family.value}")
    if spec is not None:
        sizes, squares = [], [0]
        for l in range(spec.n_transitions):
            shape = spec.weight_shape(l)
            sizes += map(math.prod, LayerParams.param_shapes(family, shape, rank).values())
            if family is Family.MVN_FULL:
                squares.append(math.prod(shape) ** 2)
        problems += memory_problems(8 * (5 * sum(sizes) + 3 * max(sizes) + max(squares)),
                                    f"widths: the {family.value} parameters and a step's arrays")
    return problems


def check_init_tau(init_tau) -> float:
    """``init_tau`` as a float, or ``DomainError`` unless it can start a slab sd.

    It must be positive and finite with a finite square (below about
    1.34e154): the KL's tau^2 term overflows otherwise.
    """
    tau = float(init_tau)
    if not (tau > 0.0 and math.isfinite(tau * tau)):
        raise DomainError(f"init_tau: must be positive with a finite square, got {tau!r}")
    return tau


def init_state(spec: NetworkSpec, prior: PriorConfig, family: Family, rng: RngStream,
               rank: int = 0, init_tau: float = 0.05) -> VariationalState:
    """Fresh variational state with the documented initialization.

    kappa ~ N(0, 1/fan_in) with fan_in the layer input width, tau
    starts at ``init_tau`` everywhere (``check_init_tau`` refuses a
    value that cannot), and the structure parameters
    start as ``LayerParams.init_structure`` sets them (inclusion
    probabilities at 1/2).  Prior values come from ``prior`` and must
    sit in their hyperpriors' support.  Raises ``ConfigError`` for the
    problems ``family_problems`` lists.  Deterministic given the rng: a
    fixed seed reproduces the state bit for bit.
    """
    problems = family_problems(family, rank, spec)
    if problems:
        raise ConfigError("; ".join(problems))
    state = VariationalState(spec, prior, family, rank)
    rho0 = softplus_inv(check_init_tau(init_tau))
    for l, layer in enumerate(state.layers):
        fan_in = spec.widths[l]
        sd = 1.0 / np.sqrt(fan_in)
        layer.kappa[...] = sd * rng.std_normal(layer.n_weights).reshape(layer.shape)
        layer.rho[...] = rho0
        layer.init_structure(rng)
        layer.log_sigma2[0] = np.log(prior.sigma2)
        layer.logit_psi[0] = np.log(prior.psi) - np.log1p(-prior.psi)
        layer.a_beta[0] = prior.hyper.a_beta
        layer.b_beta[0] = prior.hyper.b_beta
        layer.a_psi[0] = prior.hyper.a_psi
        layer.b_psi[0] = prior.hyper.b_psi
    return state


@dataclass(frozen=True)
class _LayerConsts:
    """What every draw of one layer reads from an unchanged state.

    ``tau`` is ``softplus(rho)``.  A drawn layer has ``mask`` None and
    ``factor`` its ``LayerParams.logit_factor()``.  A fixed layer has no
    factor; ``mask`` is one read-only float copy of its 0/1 mask, which
    a draw's ``alpha`` and ``gamma_tilde`` both are, and ``kept`` holds
    the mask's kept positions in the flattened matrix, in row-major
    order, or is None when the mask keeps every weight.
    """

    tau: np.ndarray
    factor: object = None
    mask: np.ndarray = None
    kept: np.ndarray = None


def _layer_consts(state: VariationalState, fixed_masks=None) -> list:
    """One ``_LayerConsts`` per layer for draws under ``fixed_masks``.

    ``fixed_masks`` means what it means to ``sample_network``.  Each
    mask must have its layer's shape (else ``ShapeError``) and hold only
    0.0 and 1.0 (else ``DomainError`` naming the layer), since a draw
    reads every nonzero entry as kept.
    """
    if fixed_masks is None and state.prior.fixed_dense:
        fixed_masks = [np.ones(layer.shape) for layer in state.layers]
    if fixed_masks is None:
        return [_LayerConsts(tau=layer.tau(), factor=layer.logit_factor())
                for layer in state.layers]
    if len(fixed_masks) != state.n_transitions:
        raise ShapeError("fixed_masks must provide one mask per transition")
    consts = []
    for l, layer in enumerate(state.layers):
        mask = np.array(fixed_masks[l], dtype=np.float64)
        if mask.shape != layer.shape:
            raise ShapeError(f"mask for layer {l} must have shape {layer.shape}")
        dropped = mask == 0.0
        if not np.all(dropped | (mask == 1.0)):
            raise DomainError(f"fixed mask for layer {l} holds entries other than 0 and 1")
        mask.setflags(write=False)
        kept = np.flatnonzero(~dropped) if dropped.any() else None
        consts.append(_LayerConsts(tau=layer.tau(), mask=mask, kept=kept))
    return consts


@dataclass(frozen=True)
class LayerNoise:
    """One layer's share of a network draw's noise; see ``draw_noise``."""

    eps: np.ndarray           # slab noise, matrix; 0 at a fixed mask's dropped weights
    nu: np.ndarray = None     # uniforms of the indicators, matrix; None for a fixed draw
    logit: np.ndarray = None  # logit noise row (``LayerParams.logit_noise``); None if fixed


def draw_noise(state: VariationalState, rng: RngStream, kept=None) -> list:
    """One network draw's noise, one ``LayerNoise`` per layer, in the stream's order.

    ``kept`` is None for a draw whose indicators are drawn.  A fixed
    draw passes one entry per layer: the kept positions of its mask in
    the flattened matrix, in row-major order, or None when the mask
    keeps every weight (``_LayerConsts.kept``).

    This is the one place that states the draw order.  Per layer:
    structure noise first (``LayerParams.logit_noise``: full eps, low
    rank eps1 then eps2, mean field none), then the uniform nu matrix,
    then the slab eps matrix.  A fixed draw skips the structure and nu
    draws and draws slab noise for the kept weights only: one
    ``std_normal(n_kept)`` call whose values fill the kept positions in
    row-major order, the dropped entries of ``eps`` staying 0.  An
    all-ones mask therefore draws what a drawn layer's slab does.

    It reads the state's family, shapes and rank, never a parameter
    value, so one thread may draw while another updates the state.
    """
    noise = []
    for l, layer in enumerate(state.layers):
        shape, n_w = layer.shape, layer.n_weights
        logit = nu = None
        if kept is None:
            logit = layer.logit_noise(rng, 1)[0]
            nu = rng.uniform(n_w).reshape(shape)
        if kept is None or kept[l] is None:
            eps = rng.std_normal(n_w).reshape(shape)
        else:
            eps = np.zeros(shape)
            eps.reshape(-1)[kept[l]] = rng.std_normal(kept[l].size)
        noise.append(LayerNoise(eps=eps, nu=nu, logit=logit))
    return noise


def sample_network(state: VariationalState, delta: float, mode: str, rng: RngStream,
                   fixed_masks=None, consts=None, noise=None) -> SampledNetwork:
    """Draw one set of weights from the variational distribution.

    ``mode`` is "relaxed" (Concrete indicators at temperature delta > 0)
    or "hard" (exact Bernoulli indicators, the delta -> 0 limit used by
    prediction).  ``fixed_masks`` freezes the indicators to the given
    0/1 matrices and skips all structure noise, which is how the
    median-fixed fine-tuning phase conditions on a mask; a fixed_dense
    state without masks is held at all-ones masks.  This is the one
    place that decides whether indicators are drawn or fixed, and a
    fixed draw is recorded only as ``logits is None`` on every layer.
    A mask entry other than 0.0 or 1.0 raises ``DomainError``.

    ``consts`` is ``_layer_consts(state, fixed_masks)``, built once by a
    caller that draws many networks from an unchanged state
    (``predict``): each layer's slab sd, and its logit factor or its
    mask and kept positions.  Without it every draw builds its own, as a
    training step must, since the state moves between draws.  The draws
    are the same bytes either way; a fixed draw's ``alpha`` and
    ``gamma_tilde`` are then the shared read-only mask, and every
    draw's ``tau`` the shared slab sd.

    A draw is two parts: ``draw_noise`` takes the draw's random numbers
    from ``rng`` (its docstring states their order), and the rest is a
    pure function of the state and that noise.  ``noise``, a
    ``draw_noise`` result for this state and these masks drawn in
    advance, skips the first part, and ``rng`` is then not read; the
    draw is the same bytes as one that draws the same numbers itself.

    Invariant: ``effective = gamma_tilde * beta`` holds exactly, entry
    by entry, for every layer.
    """
    if mode not in ("relaxed", "hard"):
        raise DomainError(f"mode must be 'relaxed' or 'hard', got {mode!r}")
    if mode == "relaxed" and delta <= 0.0:
        raise DomainError("relaxed sampling requires a positive temperature delta")
    fixed = fixed_masks is not None or state.prior.fixed_dense
    if consts is None:
        consts = _layer_consts(state, fixed_masks)
    elif (len(consts) != state.n_transitions
          or any((c.mask is not None) != fixed for c in consts)):
        raise ShapeError("consts must be _layer_consts of this state and these masks")
    if noise is None:
        noise = draw_noise(state, rng, [c.kept for c in consts] if fixed else None)
    elif (len(noise) != state.n_transitions
          or any((z.nu is None) != fixed for z in noise)):
        raise ShapeError("noise must be draw_noise of this state and these masks")
    layers = []
    for layer, c, z in zip(state.layers, consts, noise):
        logits_mat = None
        if c.mask is not None:
            alpha = gamma = c.mask
        else:
            block = layer.logits_from_noise(z.logit.reshape(1, -1), c.factor)
            logits_mat = block[0].reshape(layer.shape)
            alpha = sigmoid(logits_mat)
            if mode == "relaxed":
                gamma = concrete_from_logits(logits_mat, z.nu, delta)
            else:
                gamma = (z.nu < alpha).astype(np.float64)
        beta = layer.kappa + c.tau * z.eps
        layers.append(SampledLayer(
            alpha=alpha, gamma_tilde=gamma, beta=beta, effective=gamma * beta,
            eps=z.eps, tau=c.tau, logits=logits_mat, noise=z.logit,
        ))
    return SampledNetwork(layers=layers, spec=state.spec, delta=float(delta))


def marginal_inclusion(state: VariationalState, n_mc: int = 1000,
                       rng: RngStream = None) -> list:
    """Per-weight marginal inclusion probabilities alpha_hat, one matrix per layer.

    Exact for every family (``LayerParams.inclusion``, which reuses a
    correlated layer's last result while its structure keeps its bytes),
    and nothing is drawn; fixed_dense states give all ones.  Every
    matrix is the caller's own.  ``n_mc`` and ``rng`` are accepted for
    compatibility and not used.
    """
    if state.prior.fixed_dense:
        return [np.ones(layer.shape) for layer in state.layers]
    return [layer.inclusion() for layer in state.layers]


def median_model(state: VariationalState, alpha_hat=None) -> list:
    """0/1 masks of the median probability model: include iff alpha_hat > 1/2.

    The threshold is strict, so a weight sitting exactly at 1/2 is
    excluded.  ``alpha_hat`` may be passed to reuse computed values.
    """
    if alpha_hat is None:
        alpha_hat = marginal_inclusion(state)
    return [(a > 0.5).astype(np.float64) for a in alpha_hat]


def posterior_mean_weights(state: VariationalState, alpha_hat=None) -> list:
    """Deterministic weights alpha_hat * kappa used by the mean prediction mode."""
    if alpha_hat is None:
        alpha_hat = marginal_inclusion(state)
    return [a * layer.kappa for a, layer in zip(alpha_hat, state.layers)]
