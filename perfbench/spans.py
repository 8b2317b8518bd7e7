"""Span tracing of the library's layers, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in the
namespace it is called from (``from .x import f`` binds ``f`` in the
importing module at import time, so the wrapper has to go there, not
only into the defining module), and replaces the traced methods on
their classes.  ``Tracer.uninstall`` puts the originals back.

Every wrapped call appends one span ``[name, start, end, parent,
draws_start, draws_end]`` to an in-memory list; ``parent`` is the index
of the span open when the call began (-1 at top level) and the draw
fields hold the running count of random numbers drawn through
``RngStream``, so the draws inside any span are ``draws_end -
draws_start``.  Nothing is written until ``write_jsonl`` is called at
the end of a run.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter


def _phase_name(state, data, phase, *args, **kwargs):
    return f"trainer.run_phase.{phase.name}"


def _mode_name(state, features, mode, *args, **kwargs):
    return f"predictor.predict.{mode.gamma}_{mode.beta}"


def _targets(slabnn):
    """(owner, attribute, span name) for every traced function or method."""
    m = slabnn
    return [
        (m.dataio, "synth_clusters", "dataio.generate"),
        (m.dataio, "split", "dataio.generate"),
        (m.numkernel.RngStream, "std_normal", "numkernel.rng"),
        (m.numkernel.RngStream, "uniform", "numkernel.rng"),
        (m.numkernel.RngStream, "permutation", "numkernel.rng"),
        (m.model, "concrete_from_logits", "distributions.concrete"),
        (m.elbo, "sample_network", "model.sample_network"),
        (m.predictor, "sample_network", "model.sample_network"),
        (m.model, "marginal_inclusion", "model.marginal_inclusion"),
        (m.trainer, "marginal_inclusion", "model.marginal_inclusion"),
        (m.predictor, "marginal_inclusion", "model.marginal_inclusion"),
        (m.model.LayerParams, "chol", "model.chol"),
        (m.model.VariationalState, "copy", "model.state_copy"),
        (m.trainer, "elbo_gradient", "elbo.elbo_gradient"),
        (m.elbo, "forward", "elbo.forward"),
        (m.elbo, "forward_logits", "elbo.forward_logits"),
        (m.predictor, "forward_logits", "elbo.forward_logits"),
        (m.elbo, "_backprop_loglik", "elbo.backprop"),
        (m.trainer, "train", "trainer.train"),
        (m.trainer, "run_phase", _phase_name),
        (m.trainer, "adam_step", "trainer.adam_step"),
        (m.checkpoint, "save_checkpoint", "checkpoint.save"),
        (m.checkpoint, "load_checkpoint", "checkpoint.load"),
        (m.predictor, "predict", _mode_name),
        (m.predictor, "export_predictions_csv", "predictor.export_csv"),
        (m.metrics, "entropy_cdf", "metrics.entropy_cdf"),
        (m.metrics, "inclusion_correlation", "metrics.inclusion_correlation"),
    ]


# Layer stages reached through private names; a later refactor may
# rename them, and then their spans are simply absent.
_OPTIONAL = {"_backprop_loglik"}

# Computed (not measured) work of the dense products: forward z @ W per
# transition, backprop dW = z^T dpre per transition and dz = dpre W^T for
# every transition but the first.  8 bytes per float64 read or written.


def forward_work(widths, rows):
    flops = nbytes = 0
    for a, b in zip(widths[:-1], widths[1:]):
        flops += 2 * rows * a * b
        nbytes += 8 * (rows * a + a * b + rows * b)
    return flops, nbytes


def backprop_work(widths, rows):
    flops = nbytes = 0
    for t, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        flops += 2 * rows * a * b
        nbytes += 8 * (a * rows + rows * b + a * b)
        if t > 0:
            flops += 2 * rows * a * b
            nbytes += 8 * (rows * b + b * a + rows * a)
    return flops, nbytes


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.draws = 0
        self.flops = 0
        self.bytes = 0
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name):
        tracer = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.draws, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[5] = tracer.draws
                stack.pop()

        return wrapper

    def _wrap_rng(self, fn):
        inner = self._wrap(fn, "numkernel.rng")
        tracer = self

        @functools.wraps(fn)
        def wrapper(stream, n):
            tracer.draws += int(n)
            return inner(stream, n)

        return wrapper

    def _wrap_work(self, fn, name, work, rows_of):
        inner = self._wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(sampled, *args, **kwargs):
            flops, nbytes = work(sampled.spec.widths, rows_of(*args))
            tracer.flops += flops
            tracer.bytes += nbytes
            return inner(sampled, *args, **kwargs)

        return wrapper

    def install(self, slabnn):
        for owner, attr, name in _targets(slabnn):
            if attr in _OPTIONAL and not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            if name == "numkernel.rng":
                wrapped = self._wrap_rng(original)
            elif attr == "forward_logits":
                wrapped = self._wrap_work(original, name, forward_work,
                                          lambda features: features.shape[0])
            elif attr == "_backprop_loglik":
                wrapped = self._wrap_work(original, name, backprop_work,
                                          lambda batch, *rest: batch.size)
            else:
                wrapped = self._wrap(original, name)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path, t0: float):
        """Write every span, times relative to ``t0``, atomically."""
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            for name, start, end, parent, d0, d1 in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "draws": d1 - d0}) + "\n")
        os.replace(tmp, path)


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds to the call itself, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "noop")
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def summarize(spans, lo: int, hi: int, under: str = None) -> dict:
    """Per span name over spans[lo:hi]: calls, busy and self seconds, draws.

    Busy time sums every span of the name; self time subtracts the
    part of each span covered by its direct children.  With ``under``
    only spans named so, or nested in one named so, count.
    """
    child = {}
    keep = {}
    for i in range(lo, hi):
        name, start, end, parent = spans[i][:4]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + end - start
        keep[i] = under is None or name == under or keep.get(parent, False)
    out = {}
    for i in range(lo, hi):
        if not keep[i]:
            continue
        name, start, end, _, d0, d1 = spans[i]
        rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "draws": 0, "drawless_calls": 0})
        rec["calls"] += 1
        rec["busy_s"] += end - start
        rec["self_s"] += end - start - child.get(i, 0.0)
        rec["draws"] += d1 - d0
        rec["drawless_calls"] += d1 == d0
    return out
