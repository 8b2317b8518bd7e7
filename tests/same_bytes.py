"""Same-seed digests of every public output, for refactors that must keep bytes.

Run from a checkout::

    PYTHONPATH=src python tests/same_bytes.py > digests.json

and compare the JSON of two commits: identical output means every
checked output has the same bytes.  ::

    python tests/same_bytes.py --compare OLD.json NEW.json

prints how many digests moved, their names, and every name present on
one side only; it exits 1 when anything differs.  Comparing imports
nothing from slabnn, so it needs no ``PYTHONPATH``; the digest run
imports the slabnn that ``PYTHONPATH`` picks, so one script can digest
two trees.

Five runs of ``train()`` with checkpoints on 200
``synth_clusters(separation=1.0, seed=5)`` rows, widths 6-5-3, seed 5,
cover each family and both indicator modes: mean
field with a median_fixed posttrain, mean field fixed_dense, mvn_full
with a sampled-KL train and a median_fixed posttrain, and low rank at
r=4 (draws=2, median_fixed posttrain) and at r=0.  Per run the sha256
covers ``trace.jsonl``, every checkpoint file, ``marginal_inclusion``
(for the three correlated runs also a second call in a row, which
reuses alpha_hat, and a call after a one-ulp in-place change of layer
0's ``xi[0]`` on a copy, which recomputes it; the script exits 1 when
the reused one differs from the first),
``median_model``, ``inclusion_correlation`` on both layers (for
mvn_full also layer 0 at 40,000 draws, which flushes the count buffer
twice before the last time), one
``sample_network``, ``kl_state`` at that draw in both KL modes and, for
the two mean-field runs, from the state alone (the correlated families
need a draw), ``elbo_estimate`` in both KL modes with and without
the hyperprior, ``elbo_gradient`` in pretrain and train under both KL
modes, its value and ``kappa`` and ``rho`` gradients in posttrain under
both KL modes, and ``predict`` in all four modes.  Values that come
with an rng also hash the stream position it was left at.

The 6-5-3 masks never keep few enough weights for ``predict`` to run
the median model sparse, so a constructed, untrained mean-field state
at widths 784-16-3 adds ``predict`` med/sim (R=3) and med/mea on a
median mask that keeps 125 of layer 0's 12,544 non-bias weights, and
one ``sample_network`` draw under that mask, which pins the order in
which a fixed draw fills its kept slabs.  The same state adds
``predict`` sim/sim and med/sim (R=4) on 1,400 rows: with BLAS pinned
to one thread on a machine of two or more cores their replicates run
on threads, and the digests must not depend on that.  The sim/sim
call's first product, 1,400 x 785 by 785 x 16, is large enough for a
multi-threaded OpenBLAS to split, which sums in another order.  So the
script pins OpenBLAS to one thread, as the benchmark does, unless
``OPENBLAS_NUM_THREADS`` is already set; digests made under another
setting compare only with each other.

The CLI section runs ``slabnn train`` on one INI config per family
(mean field, mvn_full, and low rank at r=2; pretrain, a sampled-KL
train and a median_fixed posttrain; seeds 5 and 6), then ``predict`` in
all four modes, ``eval`` with ``--ood-csv`` and ``--corr-layer``, and
``inspect`` on each family's final checkpoint.  It hashes every file
the commands write and every stdout and exit code, with the scratch
directory replaced by ``<work>`` and the ``epoch_seconds=`` timing
dropped.

The five ``train()`` runs repeat with the trainer's epoch worker forced
on (``WORKER_VALUES`` 0 and ``compute_threads`` 2), so the worker draws
each next step's noise and runs half of each ADAM step even at 6-5-3.
Each ``threads/train/<run>`` digest covers the run's file names and
bytes (checkpoints and ``trace.jsonl``), and the script exits 1 when
one differs from the same digest of the sequential run.

A row's probabilities must not depend on the other rows of its call.
Each ``rows/<mode>`` digest covers the 784-16-3 state's 1,400 rows
predicted whole in one mode (R=3) and as slices of 1, 37 (across a
256-row block boundary) and 300 rows (the last ones), with
``compute_threads`` forced to 1; ``threads/predict/all_mea`` and
``threads/predict/med_mea`` repeat the whole mean-mode calls with it
forced to 2 and ``SPLIT_MULTIPLY_ADDS`` to 0, so their row blocks split
over two threads (the sparse med/mea call would stay below the floor).
The script exits 1 when a slice differs from its rows in the whole call
or a threaded call from its one-thread run.

Every check that fails prints its reason on stderr and makes the
script exit 1, after the digests are written, so a failing tree can
still be compared.

That makes 273 digests: 154 from the library and 119 from the CLI.

The file has no ``test_`` prefix, so pytest does not collect it.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import sys
import tempfile

# Before numpy loads OpenBLAS; see the module docstring.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

SEED = 5
WIDTHS = (6, 5, 3)
MODES = (("sim", "sim"), ("all", "mea"), ("med", "sim"), ("med", "mea"))


def _phases(family, **train_kw):
    from slabnn.trainer import default_phases
    phases = default_phases(family, pretrain_epochs=2, train_epochs=3,
                            posttrain_epochs=1)
    return [dataclasses.replace(p, batch_size=50, **(train_kw if p.name == "train" else {}))
            for p in phases]


def _runs() -> dict:
    """name -> (family, rank, prior, phases) of each ``train()`` run."""
    from slabnn.model import Family, PriorConfig
    return {
        "mf": (Family.MF, 0, PriorConfig(), _phases(Family.MF)),
        "mf_dense": (Family.MF, 0, PriorConfig(fixed_dense=True),
                     _phases(Family.MF)[:2]),
        "full": (Family.MVN_FULL, 0, PriorConfig(),
                 _phases(Family.MVN_FULL, kl_mode="sampled")),
        "lowrank4": (Family.MVN_LOWRANK, 4, PriorConfig(),
                     [dataclasses.replace(p, draws=2)
                      for p in _phases(Family.MVN_LOWRANK)]),
        "lowrank0": (Family.MVN_LOWRANK, 0, PriorConfig(), _phases(Family.MVN_LOWRANK)),
    }


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if item is None:
                self._h.update(b"<none>")
            elif isinstance(item, (bytes, str)):
                self._h.update(item.encode() if isinstance(item, str) else item)
            elif isinstance(item, float):
                self._h.update(repr(item).encode())
            elif hasattr(item, "state_words"):  # an RngStream
                self.add(np.asarray(item.state_words()))
            elif isinstance(item, (list, tuple)):
                for sub in item:
                    self.add(sub)
            else:
                arr = np.ascontiguousarray(item)
                self._h.update(f"{arr.dtype}{arr.shape}".encode())
                self._h.update(arr.tobytes())
        return self

    def hex(self) -> str:
        return self._h.hexdigest()


def _digest(*items) -> str:
    return Digest().add(*items).hex()


def _files_digest(ckdir) -> str:
    """One digest of every file a ``train()`` run left in ``ckdir``, names included."""
    digest = Digest()
    for fname in sorted(os.listdir(ckdir)):
        with open(os.path.join(ckdir, fname), "rb") as fh:
            digest.add(fname, fh.read())
    return digest.hex()


def _train_run(family, rank, prior, phases, data, ckdir):
    from slabnn.model import NetworkSpec
    from slabnn.trainer import train
    state, report = train(NetworkSpec(WIDTHS), prior, family, phases,
                          data.features, data.labels, SEED, rank=rank,
                          checkpoint_dir=ckdir)
    report.to_jsonl(os.path.join(ckdir, "trace.jsonl"))
    return state


def thread_digests(data, workdir, sequential) -> dict:
    """The ``train()`` runs again with the trainer's epoch worker forced on.

    ``sequential`` maps each run's name to ``_files_digest`` of its
    sequential run; a threaded run that differs is reported on stderr.
    """
    from slabnn import trainer
    saved = trainer.WORKER_VALUES, trainer.compute_threads
    trainer.WORKER_VALUES, trainer.compute_threads = 0, lambda: 2
    out = {}
    try:
        for name, (family, rank, prior, phases) in _runs().items():
            ckdir = os.path.join(workdir, "threads", name)
            _train_run(family, rank, prior, phases, data, ckdir)
            out[f"threads/train/{name}"] = _files_digest(ckdir)
            if out[f"threads/train/{name}"] != sequential[name]:
                print(f"threads/train/{name} differs from the sequential run",
                      file=sys.stderr)
    finally:
        trainer.WORKER_VALUES, trainer.compute_threads = saved
    return out


def run_digests(name, family, rank, prior, phases, data, workdir, sequential) -> dict:
    from slabnn.elbo import Batch, elbo_estimate, elbo_gradient, kl_state
    from slabnn.metrics import inclusion_correlation
    from slabnn.model import Family, marginal_inclusion, median_model, sample_network
    from slabnn.numkernel import RngStream
    from slabnn.predictor import PredictionMode, predict
    out = {}
    ckdir = os.path.join(workdir, name)
    state = _train_run(family, rank, prior, phases, data, ckdir)
    sequential[name] = _files_digest(ckdir)
    for fname in sorted(os.listdir(ckdir)):
        with open(os.path.join(ckdir, fname), "rb") as fh:
            out[f"{name}/{fname}"] = _digest(fh.read())

    alpha = marginal_inclusion(state)
    out[f"{name}/marginal_inclusion"] = _digest(alpha)
    if family is not Family.MF:
        # A second call in a row reuses alpha_hat; a one-ulp change recomputes it.
        out[f"{name}/marginal_inclusion/again"] = _digest(marginal_inclusion(state))
        bumped = state.copy()
        marginal_inclusion(bumped)
        bumped.layers[0].xi[0] = np.nextafter(bumped.layers[0].xi[0], np.inf)
        out[f"{name}/marginal_inclusion/xi_ulp"] = _digest(marginal_inclusion(bumped))
    out[f"{name}/median_model"] = _digest(median_model(state))
    for layer in range(state.n_transitions):
        rng = RngStream(SEED, 11)
        corr, constant = inclusion_correlation(state, layer, 300, rng)
        out[f"{name}/inclusion_correlation{layer}"] = _digest(corr, constant, rng)
    if name == "full":
        # 40,000 draws of layer 0's 35 weights fill the count buffer
        # (8 * 2**16 // 35 rows) twice before the last, partial one.
        rng = RngStream(SEED, 11)
        corr, constant = inclusion_correlation(state, 0, 40_000, rng)
        out[f"{name}/inclusion_correlation0_flush"] = _digest(corr, constant, rng)

    rng = RngStream(SEED, 12)
    net = sample_network(state, 0.1, "relaxed", rng)
    out[f"{name}/sample_network"] = _digest(
        [(ls.alpha, ls.gamma_tilde, ls.beta, ls.effective, ls.eps, ls.tau,
          ls.logits, ls.logits is None) for ls in net.layers], rng)
    for kl_mode in ("analytic", "sampled"):
        out[f"{name}/kl_state/{kl_mode}"] = _digest(kl_state(state, net, kl_mode))
    if family is Family.MF:
        out[f"{name}/kl_state"] = _digest(kl_state(state))

    batch = Batch(data.features[:50], data.labels[:50], n_total=data.n)
    for kl_mode in ("analytic", "sampled"):
        for hyper in (False, True):
            rng = RngStream(SEED, 13)
            value = elbo_estimate(state, batch, 2, 0.1, rng, kl_mode=kl_mode,
                                  include_hyperprior=hyper)
            out[f"{name}/elbo_estimate/{kl_mode}/hyper={hyper}"] = _digest(value, rng)
        for phase in ("pretrain", "train", "posttrain"):
            rng = RngStream(SEED, 14)
            value, bundle = elbo_gradient(state, batch, 2, 0.1, rng, phase=phase,
                                          kl_mode=kl_mode)
            # Posttrain digests the slab gradients only: its structure
            # groups never step, so their entries are not an output.
            grads = [(l, n, g) for l, n, g in bundle.items()
                     if phase != "posttrain" or n in ("kappa", "rho")]
            out[f"{name}/elbo_gradient/{phase}/{kl_mode}"] = _digest(value, grads, rng)

    for gamma, beta in MODES:
        rng = RngStream(SEED, 999)
        res = predict(state, data.features, PredictionMode(gamma, beta, 3), rng=rng)
        out[f"{name}/predict/{gamma}_{beta}"] = _digest(
            res.probs, res.replicate_probs, res.masks)
    return out


def _sparse_state():
    """The 784-16-3 mean-field state whose median mask keeps 125 of layer 0's weights."""
    from slabnn.model import Family, NetworkSpec, PriorConfig, init_state
    from slabnn.numkernel import RngStream
    state = init_state(NetworkSpec((784, 16, 3)), PriorConfig(), Family.MF,
                       RngStream(SEED, 0))
    first = state.layers[0]
    first.omega[...] = -4.0
    first.omega[0] = 4.0
    flat = first.omega[1:].reshape(-1)
    flat[RngStream(SEED, 1).permutation(flat.size)[:125]] = 4.0
    first.kappa[...] *= 20.0
    state.layers[1].omega[...] = 4.0
    return state


def sparse_digests() -> dict:
    """Median-model predictions, a draw whose first-layer mask is 1% dense, and
    sim/sim and med/sim calls whose replicates run on threads."""
    from slabnn.dataio import synth_clusters
    from slabnn.model import median_model, sample_network
    from slabnn.numkernel import RngStream
    from slabnn.predictor import PredictionMode, predict
    state = _sparse_state()
    data = synth_clusters(200, 784, 3, separation=1.0, seed=SEED)
    out = {}
    for gamma, beta in MODES[2:]:
        rng = RngStream(SEED, 999)
        res = predict(state, data.features, PredictionMode(gamma, beta, 3), rng=rng)
        out[f"sparse/predict/{gamma}_{beta}"] = _digest(
            res.probs, res.replicate_probs, res.masks)
    rng = RngStream(SEED, 12)
    net = sample_network(state, 0.0, "hard", rng, fixed_masks=median_model(state))
    out["sparse/sample_network"] = _digest(
        [(ls.alpha, ls.gamma_tilde, ls.beta, ls.effective, ls.eps, ls.tau,
          ls.logits is None) for ls in net.layers], rng)
    rows = synth_clusters(1400, 784, 3, separation=1.0, seed=SEED)
    for gamma in ("sim", "med"):
        res = predict(state, rows.features, PredictionMode(gamma, "sim", 4),
                      rng=RngStream(SEED, 999))
        out[f"threads/predict/{gamma}_sim"] = _digest(
            res.probs, res.replicate_probs, res.masks)
    return out


# 1 row, 37 rows across the first 256-row block boundary, and the last 300 rows.
ROW_SLICES = ((700, 701), (250, 287), (1100, 1400))


def row_digests(problems) -> dict:
    """The 784-16-3 state's 1,400 rows whole and in slices, and the mean modes on threads.

    Runs at ``compute_threads`` 1, then the mean modes again at 2 with
    the split floor at 0, where their rows split over two threads.  A
    slice whose probabilities differ from its rows in the whole call,
    or a threaded call that differs from its one-thread run, is added
    to ``problems``.
    """
    from slabnn import predictor
    from slabnn.dataio import synth_clusters
    from slabnn.numkernel import RngStream
    from slabnn.predictor import PredictionMode, predict
    state = _sparse_state()
    rows = synth_clusters(1400, 784, 3, separation=1.0, seed=SEED).features
    out, whole = {}, {}
    # getattr: a tree whose mean modes never split has no floor to lower.
    saved = predictor.compute_threads, getattr(predictor, "SPLIT_MULTIPLY_ADDS", 0)
    try:
        predictor.compute_threads = lambda: 1
        for gamma, beta in MODES:
            mode = PredictionMode(gamma, beta, 3)
            res = predict(state, rows, mode, rng=RngStream(SEED, 999))
            parts = [predict(state, rows[lo:hi], mode, rng=RngStream(SEED, 999)).probs
                     for lo, hi in ROW_SLICES]
            out[f"rows/{gamma}_{beta}"] = _digest(res.probs, res.replicate_probs,
                                                  res.masks, parts)
            whole[gamma, beta] = res.probs
            problems += [f"rows/{gamma}_{beta}: rows {lo}:{hi} alone differ from the "
                         f"whole call" for (lo, hi), part in zip(ROW_SLICES, parts)
                         if part.tobytes() != res.probs[lo:hi].tobytes()]
        predictor.compute_threads, predictor.SPLIT_MULTIPLY_ADDS = lambda: 2, 0
        for gamma in ("all", "med"):
            res = predict(state, rows, PredictionMode(gamma, "mea"))
            out[f"threads/predict/{gamma}_mea"] = _digest(res.probs, res.replicate_probs,
                                                          res.masks)
            if res.probs.tobytes() != whole[gamma, "mea"].tobytes():
                problems.append(f"threads/predict/{gamma}_mea differs from one thread")
    finally:
        predictor.compute_threads, predictor.SPLIT_MULTIPLY_ADDS = saved
    return out


CLI_CONFIG = """\
[dataset]
format = synth_clusters
n = 200
p = 6
classes = 3
separation = 1.0
data_seed = 5
train_n = 150
test_n = 50

[model]
widths = 6,5,3
family = {family}
rank = {rank}

[phase:pretrain]
epochs = 2
batch_size = 50

[phase:train]
epochs = 2
batch_size = 50
kl_mode = sampled

[phase:posttrain]
epochs = 1
batch_size = 50
gamma_policy = median_fixed

{predict}
[run]
seeds = 5,6
output_dir = {out}
"""

# name -> (family, rank, [predict] section; mvn_full takes every default)
CLI_RUNS = {
    "mf": ("mf", 0, "[predict]\ngamma = med\nbeta = sim\nreplicates = 3\nthreshold = 0.9\n"),
    "full": ("mvn_full", 0, ""),
    "lowrank2": ("mvn_lowrank", 2, "[predict]\ngamma = all\nbeta = mea\n"),
}


def _write_csv(path, data):
    with open(path, "w") as fh:
        for row, label in zip(data.features, data.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")


def cli_digests(workdir, codes) -> dict:
    """Digests of the CLI runs; ``codes`` collects each command's exit code."""
    from slabnn.cli import main as cli_main
    from slabnn.dataio import synth_clusters
    out = {}

    def run(tag, *argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main([str(a) for a in argv])
        text = re.sub(r" epoch_seconds=[0-9.]+", "", buf.getvalue())
        codes[tag] = code
        out[f"cli/{tag}/stdout"] = _digest(f"exit={code}\n", text.replace(workdir, "<work>"))

    eval_csv = os.path.join(workdir, "eval.csv")
    ood_csv = os.path.join(workdir, "ood.csv")
    _write_csv(eval_csv, synth_clusters(60, WIDTHS[0], WIDTHS[-1], separation=1.0,
                                        seed=SEED + 1))
    _write_csv(ood_csv, synth_clusters(60, WIDTHS[0], WIDTHS[-1], separation=1.0,
                                       shift=3.0, seed=SEED + 1))
    for name, (family, rank, predict_section) in CLI_RUNS.items():
        cfg = os.path.join(workdir, f"{name}.ini")
        with open(cfg, "w") as fh:
            fh.write(CLI_CONFIG.format(family=family, rank=rank, predict=predict_section,
                                       out=os.path.join(workdir, "runs")))
        run(f"{name}/train", "train", cfg)
        ckpt = os.path.join(workdir, "runs", name, "seed5", "checkpoint_final.lbnn")
        for gamma, beta in MODES:
            pred = os.path.join(workdir, f"predict_{name}_{gamma}_{beta}")
            os.makedirs(pred)
            run(f"{name}/predict/{gamma}_{beta}", "predict", ckpt, "--csv", eval_csv,
                "--gamma", gamma, "--beta", beta, "-R", 3, "--seed", 7,
                "--out", os.path.join(pred, "predictions.csv"))
        pred = os.path.join(workdir, f"predict_{name}_flag_defaults")
        os.makedirs(pred)
        run(f"{name}/predict/flag_defaults", "predict", ckpt, "--csv", eval_csv,
            "--out", os.path.join(pred, "predictions.csv"))
        run(f"{name}/eval", "eval", ckpt, "--csv", eval_csv, "--ood-csv", ood_csv,
            "--corr-layer", 0, "--corr-samples", 200, "--seed", 7,
            "--out", os.path.join(workdir, f"eval_{name}"))
        run(f"{name}/inspect", "inspect", ckpt)
    for root, _, files in os.walk(workdir):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                blob = fh.read().replace(workdir.encode(), b"<work>")
            out["cli/files/" + os.path.relpath(path, workdir)] = _digest(blob)
    return out


def compare(old_path, new_path) -> int:
    """Report the digests that differ between two JSON outputs; 1 if any do."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    shared = old.keys() & new.keys()
    moved = sorted(name for name in shared if old[name] != new[name])
    print(f"{len(moved)} of {len(shared)} shared digests moved")
    for name in moved:
        print(f"moved: {name}")
    for path, only in ((old_path, old.keys() - new.keys()),
                       (new_path, new.keys() - old.keys())):
        for name in sorted(only):
            print(f"only in {path}: {name}")
    return 1 if moved or old.keys() != new.keys() else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Same-seed digests of every public output.")
    parser.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"),
                        help="compare two saved outputs instead of computing digests")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    from slabnn.dataio import synth_clusters  # comparing needs no library
    data = synth_clusters(200, WIDTHS[0], WIDTHS[-1], separation=1.0, seed=SEED)
    digests, sequential = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, (family, rank, prior, phases) in _runs().items():
            digests.update(run_digests(name, family, rank, prior, phases, data,
                                       workdir, sequential))
        threaded = thread_digests(data, workdir, sequential)
    digests.update(threaded)
    digests.update(sparse_digests())
    problems = []
    digests.update(row_digests(problems))
    codes = {}
    with tempfile.TemporaryDirectory() as workdir:
        digests.update(cli_digests(workdir, codes))
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    failed = sorted(tag for tag, code in codes.items() if code != 0)
    if failed:
        problems.append(f"CLI commands failed: {failed}")
    if any(threaded[f"threads/train/{name}"] != digest for name, digest in sequential.items()):
        problems.append("a threads/train digest differs from its sequential run")
    again = [tag for tag in digests if tag.endswith("/marginal_inclusion/again")]
    if any(digests[tag] != digests[tag[:-len("/again")]] for tag in again):
        problems.append("a reused marginal_inclusion differs from the first call")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
