"""The benchmark's span tracer still fits the library it wraps.

``perfbench/spans.py`` replaces library functions by name and reads
their arguments: ``forward_logits``' first argument's ``.spec.widths``
with exactly one positional argument after it, the batch size of
``_backprop_loglik``'s second, and names such as
``trainer.marginal_inclusion`` must exist.  A refactor that breaks any
of this shows here, not only in a traced benchmark run.  The tracer is
loaded from ``perfbench/`` as it stands.
"""

import importlib.util
import pathlib

import slabnn
from conftest import make_batch, make_state
from slabnn.numkernel import RngStream
from slabnn.predictor import PredictionMode

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_layers_and_restores_them():
    spans = _load_spans()
    originals = [(owner, attr, getattr(owner, attr, None))
                 for owner, attr, _ in spans._targets(slabnn)]
    tracer = spans.Tracer()
    tracer.install(slabnn)
    try:
        state = make_state(seed=5)
        batch = make_batch()
        # Through the module attributes, which the tracer has replaced.
        slabnn.predictor.predict(state, batch.features, PredictionMode("sim", "sim", 2),
                                 rng=RngStream(5, 999))
        slabnn.trainer.elbo_gradient(state, batch, 1, 0.1, RngStream(5, 2))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"elbo.forward_logits", "elbo.backprop", "model.sample_network",
            "elbo.elbo_gradient", "predictor.predict.sim_sim"} <= names
    assert tracer.flops > 0
    for owner, attr, original in originals:
        assert getattr(owner, attr, None) is original, attr
