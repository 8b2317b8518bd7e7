"""Evaluation: accuracies, sparsity summaries, entropies, run aggregation.

The quantities reported for a fitted model: all-class accuracy,
accuracy and coverage of the doubt rule, the density level reached by
the prediction mode, per-layer mean inclusion probabilities (slope
entries only, the bias row is excluded from the average), mean epoch
wall time, and predictive-entropy distributions used to compare
in-domain against shifted data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .distributions import mvn_blocks, sample_mvn_logits
from .errors import DomainError, ShapeError
from .model import Family, VariationalState
from .numkernel import RngStream, sigmoid

__all__ = [
    "accuracy",
    "layer_inclusion_means",
    "EntropyCdf",
    "entropy_cdf",
    "inclusion_correlation",
    "MetricsReport",
    "summarize_runs",
]


def accuracy(decisions, labels, restrict_to_classified: bool = False):
    """Fraction of correct decisions; -1 entries mark abstentions.

    With ``restrict_to_classified`` the abstained rows drop out of both
    numerator and denominator; if nothing was classified the value is
    undefined and None is returned.  Without the flag an abstention
    simply counts as wrong.
    """
    d = np.ascontiguousarray(decisions, dtype=np.int64)
    y = np.ascontiguousarray(labels, dtype=np.int64)
    if d.shape != y.shape or d.ndim != 1:
        raise ShapeError("decisions and labels must be matching vectors")
    if d.size == 0:
        raise DomainError("need at least one decision")
    if restrict_to_classified:
        keep = d >= 0
        if not np.any(keep):
            return None
        return float(np.mean(d[keep] == y[keep]))
    return float(np.mean(d == y))


def layer_inclusion_means(alpha_hat, include_bias: bool = True) -> tuple:
    """Mean inclusion probability per layer over slope entries.

    The bias row (row 0 of each matrix when present) is excluded from
    the normalizer; a fixed-dense model gives exactly 1.0 everywhere.
    """
    out = []
    for a in alpha_hat:
        mat = np.ascontiguousarray(a, dtype=np.float64)
        if mat.ndim != 2:
            raise ShapeError("alpha_hat entries must be matrices")
        slopes = mat[1:, :] if include_bias else mat
        if slopes.size == 0:
            raise ShapeError("a layer has no slope entries")
        out.append(float(np.mean(slopes)))
    return tuple(out)


@dataclass
class EntropyCdf:
    """Empirical distribution of predictive entropies (natural log)."""

    values: np.ndarray  # sorted ascending

    def at(self, x: float) -> float:
        """Fraction of entropies less than or equal to x."""
        return float(np.searchsorted(self.values, x, side="right")) / self.values.size

    @property
    def median(self) -> float:
        # Lower median, consistent with summarize_runs.
        return float(self.values[(self.values.size - 1) // 2])

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("entropy,cdf\n")
            n = self.values.size
            for i, v in enumerate(self.values):
                fh.write(f"{float(v)!r},{(i + 1) / n!r}\n")


def entropy_cdf(probs) -> EntropyCdf:
    """Entropies -sum p log p of each row, packaged as an empirical CDF.

    Rows must be probability vectors: nonnegative, summing to one
    within 1e-8.  Entropy uses the natural logarithm, so the maximum
    possible value is log(n_classes).
    """
    p = np.ascontiguousarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 1:
        raise ShapeError("probs must be a nonempty (n, classes) matrix")
    if np.any(p < 0.0):
        raise DomainError("probabilities must be nonnegative")
    sums = p.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-8)[0]
    if bad.size:
        raise DomainError(f"row {bad[0]} does not sum to 1 (got {sums[bad[0]]!r})")
    ent = -np.sum(special.xlogy(p, p), axis=1)
    return EntropyCdf(values=np.sort(ent))


def inclusion_correlation(state: VariationalState, layer: int, n_samples: int,
                          rng: RngStream):
    """Pearson correlations between indicator draws of one layer.

    Draws ``n_samples`` hard indicator vectors (fresh inclusion
    probabilities per draw for the correlated families) and correlates
    the flattened weight positions.  The correlated families draw in
    blocks (``mvn_blocks``): per block, the block's logits from one
    ``sample_mvn_logits`` call, then the block's uniforms, row by row.
    Returns ``(corr, constant)``
    where ``constant`` flags positions whose draws never varied; their
    rows and columns are zero by convention (diagonal included),
    non-constant positions have unit diagonal.
    """
    if not (0 <= layer < state.n_transitions):
        raise DomainError(f"layer index {layer} out of range")
    if n_samples < 2:
        raise DomainError("need at least two samples to correlate")
    lp = state.layers[layer]
    n_w = lp.n_weights
    if state.prior.fixed_dense:
        draws = np.ones((n_samples, n_w))
    elif state.family is Family.MF:
        alpha = sigmoid(lp.omega).reshape(-1)
        u = rng.uniform(n_samples * n_w).reshape(n_samples, n_w)
        draws = (u < alpha).astype(np.float64)
    else:
        cov = lp.logit_cov()
        draws = np.empty((n_samples, n_w))
        start = 0
        for rows in mvn_blocks(n_samples, n_w + lp.rank):
            logits = sample_mvn_logits(lp.xi, rng, rows, **cov)[0]
            u = rng.uniform(rows * n_w).reshape(rows, n_w)
            draws[start:start + rows] = u < sigmoid(logits)
            start += rows
    sd = draws.std(axis=0)
    constant = sd == 0.0
    corr = np.zeros((n_w, n_w))
    live = np.nonzero(~constant)[0]
    if live.size:
        sub = draws[:, live]
        c = np.corrcoef(sub, rowvar=False)
        c = np.atleast_2d(c)
        corr[np.ix_(live, live)] = c
    return corr, constant


def _kv_value(value) -> str:
    """Plain-Python repr for a kv line; numpy scalars would leak their type."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass
class MetricsReport:
    """One run's evaluation summary; None marks an undefined value."""

    run_id: str
    seed: int
    all_class_accuracy: float = None
    doubt_accuracy: float = None
    doubt_classified: int = None
    density: float = None
    layer_rho: tuple = None
    epoch_time_s: float = None
    extra: dict = field(default_factory=dict)

    _SCALARS = ("all_class_accuracy", "doubt_accuracy", "doubt_classified",
                "density", "epoch_time_s")

    def to_kv_text(self) -> str:
        lines = [f"run_id={self.run_id}", f"seed={self.seed}"]
        for name in self._SCALARS:
            lines.append(f"{name}={_kv_value(getattr(self, name))}")
        if self.layer_rho is not None:
            lines.append("layer_rho=" + ";".join(_kv_value(v)
                                                 for v in self.layer_rho))
        for key in sorted(self.extra):
            lines.append(f"{key}={_kv_value(self.extra[key])}")
        return "\n".join(lines) + "\n"

    def numeric_items(self):
        for name in self._SCALARS:
            value = getattr(self, name)
            if value is not None:
                yield name, float(value)
        if self.layer_rho is not None:
            for i, v in enumerate(self.layer_rho):
                yield f"layer_rho_{i}", float(v)

    @staticmethod
    def csv_header(reports) -> list:
        names = []
        for rep in reports:
            for name, _ in rep.numeric_items():
                if name not in names:
                    names.append(name)
        return ["run_id", "seed"] + names

    @staticmethod
    def write_csv(path, reports):
        header = MetricsReport.csv_header(reports)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for rep in reports:
                values = dict(rep.numeric_items())
                row = [rep.run_id, rep.seed]
                row += [repr(values[n]) if n in values else "" for n in header[2:]]
                writer.writerow(row)


def summarize_runs(reports) -> dict:
    """Per-metric (median, min, max) across runs.

    The median is the lower median for even run counts.  Metrics
    missing from a run (None) are skipped; a metric absent everywhere
    does not appear in the output.
    """
    if not reports:
        raise DomainError("need at least one report")
    pools = {}
    for rep in reports:
        for name, value in rep.numeric_items():
            pools.setdefault(name, []).append(value)
    out = {}
    for name, values in pools.items():
        ordered = sorted(values)
        out[name] = (
            ordered[(len(ordered) - 1) // 2],
            ordered[0],
            ordered[-1],
        )
    return out
