"""Command-line workflows: train, predict, eval, inspect.

Training runs are described by an INI file.  Every key has a default
matching the stock experimental setup, so a minimal config only names
the data and the architecture.  Unknown sections or keys are rejected,
and validation reports every problem at once (exit code 2).

Config schema (defaults in parentheses)::

    [dataset]
    format = csv | idx | synth_logistic | synth_clusters   required
    # format=csv
    path = FILE                    required; see $SLABNN_DATA_DIR below
    label_column = INT | none      (-1) column with class labels
    has_header = BOOL              (false)
    delimiter = CHAR               (,)
    # format=idx
    train_images = FILE            required
    train_labels = FILE            required
    test_images = FILE             optional, with test_labels
    test_labels = FILE
    # format=synth_logistic
    n = INT (2000)   p = INT (20)   k_true = INT (5)
    coef_scale = FLOAT (2.0)        data_seed = INT (0)
    # format=synth_clusters
    n = INT (600)    p = INT (8)    classes = INT (3)
    separation = FLOAT (3.0)  spread = FLOAT (1.0)  shift = FLOAT (0.0)
    data_seed = INT (0)
    # all formats
    standardize = BOOL             (false) fitted on the train part only
    train_n = INT  test_n = INT    optional pair; default: all rows train
    split_seed = INT               (0)

    [model]
    widths = INT,INT,...           required, input through class count
    activations = NAME[,NAME...]   (relu) one per hidden layer, or one for all
    family = mf | mvn_full | mvn_lowrank   (mf)
    rank = INT                     (0) low-rank family only
    fixed_dense = BOOL             (false) plain BNN, indicators pinned to 1
    init_tau = FLOAT               (0.05)

    [prior]
    sigma2 = FLOAT (1.0)   psi = FLOAT (0.5)
    a_beta = FLOAT (2.0)   b_beta = FLOAT (1.0)
    a_psi = FLOAT (1.0)    b_psi = FLOAT (1.0)
    learn_sigma2 = BOOL (true)  learn_psi = BOOL (true)  learn_hyper = BOOL (true)

    [phase:pretrain] / [phase:train] / [phase:posttrain]
    epochs = INT                   required per declared phase
    batch_size = INT (100)  draws = INT (1)  delta = FLOAT (0.1)
    kl_mode = analytic | sampled   (analytic)
    gamma_policy = resample | median_fixed   (resample; posttrain only)
    lr_weights / lr_omega / lr_xi / lr_cov / lr_sigma2 / lr_psi /
    lr_psi_hyper / lr_beta_hyper = FLOAT   (stock table for the family)
    # no phase sections at all: the stock 20 pretrain + 250 train schedule

    [predict]
    gamma = sim | all | med (sim)  beta = sim | mea (sim)
    replicates = INT (10)          threshold = FLOAT (0.95)
    # gamma=sim needs beta=sim; gamma=all with beta=sim needs fixed_dense

    [run]
    seeds = INT,INT,... (1)
    output_dir = DIR (runs)
    run_id = NAME (config file stem)

Relative dataset paths resolve against ``$SLABNN_DATA_DIR`` when that
variable is set, else against the working directory.  All outputs of a
command are byte-identical across reruns with the same inputs and
seeds; wall-clock timings appear only in log lines on stdout.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import struct
import sys

from . import checkpoint as ckpt
from . import dataio
from .distributions import HyperParams
from .errors import ConfigError, FormatError, SlabnnError
from .metrics import (MetricsReport, accuracy, entropy_cdf,
                      inclusion_correlation, layer_inclusion_means,
                      summarize_runs)
from .model import (Family, NetworkSpec, PriorConfig, family_problems,
                    marginal_inclusion)
from .numkernel import RngStream
from .predictor import (PredictionMode, classify_with_doubt, density_level,
                        export_predictions_csv, predict)
from .trainer import (GROUPS, PhaseConfig, default_phases, live_groups, train,
                      validate_schedule)

__all__ = ["RunConfig", "load_config", "main"]

# Stream ids 0..3 belong to the trainer; prediction replicates derive
# 1 + r from their base stream, so these bases keep all runs disjoint.
# Only STREAM_METRICS_ALPHA + 1 (inclusion correlations) draws from the
# metrics base: inclusion probabilities are exact.
STREAM_PREDICT = 999
STREAM_METRICS_ALPHA = 998

_FORMATS = ("csv", "idx", "synth_logistic", "synth_clusters")
_FAMILY_NAMES = {f.value: f for f in Family}

_KNOWN_KEYS = {
    "dataset": {
        "format", "path", "label_column", "has_header", "delimiter",
        "train_images", "train_labels", "test_images", "test_labels",
        "n", "p", "k_true", "coef_scale", "data_seed",
        "classes", "separation", "spread", "shift",
        "standardize", "train_n", "test_n", "split_seed",
    },
    "model": {"widths", "activations", "family", "rank", "fixed_dense", "init_tau"},
    "prior": {"sigma2", "psi", "a_beta", "b_beta", "a_psi", "b_psi",
              "learn_sigma2", "learn_psi", "learn_hyper"},
    "predict": {"gamma", "beta", "replicates", "threshold"},
    "run": {"seeds", "output_dir", "run_id"},
}
_PHASE_KEYS = {"epochs", "batch_size", "draws", "delta", "kl_mode",
               "gamma_policy"} | {f"lr_{g}" for g in GROUPS}

_BOOL_STATES = configparser.ConfigParser.BOOLEAN_STATES


class _SectionReader:
    """Typed access to one section's raw strings, collecting problems."""

    def __init__(self, section: str, raw: dict, problems: list):
        self.section = section
        self.raw = dict(raw)
        self.problems = problems

    def _fail(self, key, message):
        self.problems.append(f"[{self.section}] {key}: {message}")

    def has(self, key) -> bool:
        return key in self.raw

    def string(self, key, default=None, choices=None, required=False):
        if key not in self.raw:
            if required:
                self._fail(key, "required key is missing")
            return default
        value = self.raw[key].strip()
        if choices is not None and value not in choices:
            self._fail(key, f"must be one of {', '.join(choices)}; got {value!r}")
            return default
        return value

    def integer(self, key, default=None, minimum=None, required=False):
        if key not in self.raw:
            if required:
                self._fail(key, "required key is missing")
            return default
        try:
            value = int(self.raw[key].strip())
        except ValueError:
            self._fail(key, f"not an integer: {self.raw[key]!r}")
            return default
        if minimum is not None and value < minimum:
            self._fail(key, f"must be at least {minimum}")
            return default
        return value

    def floating(self, key, default=None, required=False):
        if key not in self.raw:
            if required:
                self._fail(key, "required key is missing")
            return default
        try:
            return float(self.raw[key].strip())
        except ValueError:
            self._fail(key, f"not a number: {self.raw[key]!r}")
            return default

    def boolean(self, key, default=False):
        if key not in self.raw:
            return default
        token = self.raw[key].strip().lower()
        if token not in _BOOL_STATES:
            self._fail(key, f"not a boolean: {self.raw[key]!r}")
            return default
        return _BOOL_STATES[token]

    def int_list(self, key, default=None, required=False):
        if key not in self.raw:
            if required:
                self._fail(key, "required key is missing")
            return default
        try:
            return tuple(int(tok) for tok in self.raw[key].split(","))
        except ValueError:
            self._fail(key, f"not a comma list of integers: {self.raw[key]!r}")
            return default


def _resolve_path(path: str) -> str:
    base = os.environ.get("SLABNN_DATA_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


@dataclasses.dataclass
class RunConfig:
    """A fully validated training-run description."""

    dataset: dict
    spec: NetworkSpec
    prior: PriorConfig
    family: Family
    rank: int
    init_tau: float
    phases: list
    predict_mode: PredictionMode
    threshold: float
    seeds: tuple
    output_dir: str
    run_id: str


def _dataset_config(reader: _SectionReader, problems: list) -> dict:
    fmt = reader.string("format", choices=_FORMATS, required=True)
    out = {"format": fmt}
    if fmt == "csv":
        path = reader.string("path", required=True)
        if path is not None:
            path = _resolve_path(path)
            if not os.path.exists(path):
                problems.append(f"[dataset] path: file not found: {path}")
        out["path"] = path
        token = reader.string("label_column", default="-1")
        if token == "none":
            out["label_column"] = None
        else:
            try:
                out["label_column"] = int(token)
            except ValueError:
                problems.append(f"[dataset] label_column: not an integer or 'none': {token!r}")
                out["label_column"] = -1
        out["has_header"] = reader.boolean("has_header")
        out["delimiter"] = reader.string("delimiter", default=",")
        if out["delimiter"] is not None and len(out["delimiter"]) != 1:
            problems.append("[dataset] delimiter: must be a single character")
    elif fmt == "idx":
        for key in ("train_images", "train_labels"):
            path = reader.string(key, required=True)
            if path is not None:
                path = _resolve_path(path)
                if not os.path.exists(path):
                    problems.append(f"[dataset] {key}: file not found: {path}")
            out[key] = path
        given = [k for k in ("test_images", "test_labels") if reader.has(k)]
        if len(given) == 1:
            problems.append("[dataset] test_images and test_labels must come together")
        for key in ("test_images", "test_labels"):
            path = reader.string(key)
            if path is not None:
                path = _resolve_path(path)
                if not os.path.exists(path):
                    problems.append(f"[dataset] {key}: file not found: {path}")
            out[key] = path
    elif fmt == "synth_logistic":
        out["n"] = reader.integer("n", default=2000, minimum=1)
        out["p"] = reader.integer("p", default=20, minimum=1)
        out["k_true"] = reader.integer("k_true", default=5, minimum=0)
        out["coef_scale"] = reader.floating("coef_scale", default=2.0)
        out["data_seed"] = reader.integer("data_seed", default=0, minimum=0)
        if out["k_true"] is not None and out["p"] is not None and out["k_true"] > out["p"]:
            problems.append("[dataset] k_true: must not exceed p")
    else:
        out["n"] = reader.integer("n", default=600, minimum=1)
        out["p"] = reader.integer("p", default=8, minimum=1)
        out["classes"] = reader.integer("classes", default=3, minimum=2)
        out["separation"] = reader.floating("separation", default=3.0)
        out["spread"] = reader.floating("spread", default=1.0)
        out["shift"] = reader.floating("shift", default=0.0)
        out["data_seed"] = reader.integer("data_seed", default=0, minimum=0)

    out["standardize"] = reader.boolean("standardize")
    has_train_n = reader.has("train_n")
    has_test_n = reader.has("test_n")
    if has_train_n != has_test_n:
        problems.append("[dataset] train_n and test_n must come together")
    out["train_n"] = reader.integer("train_n", minimum=1)
    out["test_n"] = reader.integer("test_n", minimum=0)
    out["split_seed"] = reader.integer("split_seed", default=0, minimum=0)
    if fmt == "idx":
        if out.get("test_images") and (has_train_n or has_test_n):
            problems.append("[dataset] a test IDX pair and a split cannot be combined")
        if out["standardize"]:
            problems.append("[dataset] standardize: IDX pixels are consumed pre-scaled")
    return out


def load_config(path: str) -> RunConfig:
    """Parse and validate a run config; raises ConfigError listing every problem."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    problems = []
    sections = {}
    phase_sections = {}
    for name in parser.sections():
        if name.startswith("phase:"):
            phase_name = name[len("phase:"):]
            phase_sections[phase_name] = dict(parser.items(name))
            unknown = set(phase_sections[phase_name]) - _PHASE_KEYS
            for key in sorted(unknown):
                problems.append(f"[{name}] unknown key {key!r}")
        elif name in _KNOWN_KEYS:
            sections[name] = dict(parser.items(name))
            unknown = set(sections[name]) - _KNOWN_KEYS[name]
            for key in sorted(unknown):
                problems.append(f"[{name}] unknown key {key!r}")
        else:
            problems.append(f"unknown section [{name}]")

    for required in ("dataset", "model"):
        if required not in sections:
            problems.append(f"missing required section [{required}]")
            sections[required] = {}

    ds_reader = _SectionReader("dataset", sections["dataset"], problems)
    dataset = _dataset_config(ds_reader, problems)

    model = _SectionReader("model", sections.get("model", {}), problems)
    widths = model.int_list("widths", required=True)
    acts_token = model.string("activations")
    family_name = model.string("family", default="mf", choices=tuple(_FAMILY_NAMES))
    family = _FAMILY_NAMES.get(family_name, Family.MF)
    rank = model.integer("rank", default=0, minimum=0)
    fixed_dense = model.boolean("fixed_dense")
    init_tau = model.floating("init_tau", default=0.05)
    if init_tau is not None and init_tau <= 0.0:
        problems.append("[model] init_tau: must be positive")

    spec = None
    if widths is not None:
        activations = None
        if acts_token is not None:
            tokens = tuple(t.strip() for t in acts_token.split(","))
            activations = tokens * (len(widths) - 2) if len(tokens) == 1 else tokens
        try:
            spec = NetworkSpec(widths=widths, activations=activations)
        except ConfigError as exc:
            problems.append(f"[model] {exc}")
    problems.extend(f"[model] {p}" for p in family_problems(family, rank, spec))

    pr = _SectionReader("prior", sections.get("prior", {}), problems)
    prior = None
    try:
        prior = PriorConfig(
            sigma2=pr.floating("sigma2", default=1.0),
            psi=pr.floating("psi", default=0.5),
            hyper=HyperParams(
                a_beta=pr.floating("a_beta", default=2.0),
                b_beta=pr.floating("b_beta", default=1.0),
                a_psi=pr.floating("a_psi", default=1.0),
                b_psi=pr.floating("b_psi", default=1.0),
            ),
            learn_sigma2=pr.boolean("learn_sigma2", default=True),
            learn_psi=pr.boolean("learn_psi", default=True),
            learn_hyper=pr.boolean("learn_hyper", default=True),
            fixed_dense=fixed_dense,
        )
    except (ConfigError, TypeError) as exc:
        problems.append(f"[prior] {exc}")

    phases = []
    if prior is not None:
        live = live_groups(family, prior)
        if not phase_sections:
            phases = default_phases(family)
        else:
            defaults = {p.name: p for p in default_phases(
                family, pretrain_epochs=1, train_epochs=1, posttrain_epochs=1)}
            for phase_name, raw in phase_sections.items():
                if phase_name not in defaults:
                    problems.append(
                        f"[phase:{phase_name}] unknown phase; use pretrain, train or posttrain"
                    )
                    continue
                rd = _SectionReader(f"phase:{phase_name}", raw, problems)
                lr = dict(defaults[phase_name].lr)
                for group in GROUPS:
                    key = f"lr_{group}"
                    if not rd.has(key):
                        continue
                    value = rd.floating(key)
                    if value is None:
                        continue
                    if group not in live and value != 0.0:
                        problems.append(
                            f"[phase:{phase_name}] {key}: group has no movable "
                            f"parameters under this model configuration"
                        )
                        continue
                    lr[group] = value
                kwargs = dict(
                    epochs=rd.integer("epochs", default=0, minimum=0, required=True),
                    lr=lr,
                    batch_size=rd.integer("batch_size", default=100, minimum=1),
                    draws=rd.integer("draws", default=1, minimum=1),
                    delta=rd.floating("delta", default=0.1),
                    kl_mode=rd.string("kl_mode", default="analytic",
                                      choices=("analytic", "sampled")),
                    gamma_policy=rd.string("gamma_policy", default="resample",
                                           choices=("resample", "median_fixed")),
                )
                try:
                    phases.append(PhaseConfig(phase_name, **kwargs))
                except ConfigError as exc:
                    problems.append(f"[phase:{phase_name}] {exc}")
            order = {"pretrain": 0, "train": 1, "posttrain": 2}
            phases.sort(key=lambda p: order[p.name])
            for problem in validate_schedule(phases):
                problems.append(f"schedule: {problem}")

    pd = _SectionReader("predict", sections.get("predict", {}), problems)
    gamma = pd.string("gamma", default="sim", choices=("sim", "all", "med"))
    beta = pd.string("beta", default="sim", choices=("sim", "mea"))
    replicates = pd.integer("replicates", default=10, minimum=1)
    threshold = pd.floating("threshold", default=0.95)
    if threshold is not None and not (0.0 <= threshold < 1.0):
        problems.append("[predict] threshold: must lie in [0, 1)")
    predict_mode = None
    try:
        predict_mode = PredictionMode(gamma or "sim", beta or "sim", replicates or 1)
    except (ConfigError, SlabnnError) as exc:
        problems.append(f"[predict] {exc}")
    if predict_mode is not None and gamma == "all" and beta == "sim" and not fixed_dense:
        problems.append("[predict] gamma=all with beta=sim needs fixed_dense = true")

    rn = _SectionReader("run", sections.get("run", {}), problems)
    seeds = rn.int_list("seeds", default=(1,))
    if seeds is not None:
        if not seeds:
            problems.append("[run] seeds: need at least one seed")
        elif len(set(seeds)) != len(seeds):
            problems.append("[run] seeds: duplicate seeds")
        elif any(s < 0 for s in seeds):
            problems.append("[run] seeds: seeds must be nonnegative")
    output_dir = rn.string("output_dir", default="runs")
    stem = os.path.splitext(os.path.basename(path))[0]
    run_id = rn.string("run_id", default=stem)

    if problems:
        raise ConfigError("\n".join(problems))
    return RunConfig(
        dataset=dataset, spec=spec, prior=prior, family=family, rank=rank,
        init_tau=init_tau, phases=phases, predict_mode=predict_mode,
        threshold=threshold, seeds=seeds,
        output_dir=output_dir, run_id=run_id,
    )


def _build_datasets(ds: dict):
    """Materialize (train, eval, has_labels) from a dataset config dict."""
    fmt = ds["format"]
    has_labels = True
    if fmt == "csv":
        full = dataio.load_csv(ds["path"], label_column=ds["label_column"],
                               has_header=ds["has_header"], delimiter=ds["delimiter"])
        has_labels = ds["label_column"] is not None
    elif fmt == "idx":
        full = dataio.load_idx(ds["train_images"], ds["train_labels"])
        if ds.get("test_images"):
            test = dataio.load_idx(ds["test_images"], ds["test_labels"])
            return full, test, True
    elif fmt == "synth_logistic":
        full, _, _ = dataio.synth_logistic(ds["n"], ds["p"], ds["k_true"],
                                           ds["coef_scale"], ds["data_seed"])
    else:
        full = dataio.synth_clusters(ds["n"], ds["p"], ds["classes"],
                                     separation=ds["separation"], spread=ds["spread"],
                                     shift=ds["shift"], seed=ds["data_seed"])
    train_n = ds["train_n"] if ds["train_n"] is not None else full.n
    test_n = ds["test_n"] if ds["test_n"] is not None else 0
    train_ds, test_ds = dataio.split(full, train_n, test_n, ds["split_seed"],
                                     standardize=ds["standardize"])
    return train_ds, (test_ds if test_ds.n else train_ds), has_labels


def _network_metrics(state, eval_ds, mode, threshold, seed, run_id, has_labels):
    """Predict on the eval set and assemble the per-run report."""
    rng = RngStream(seed, STREAM_PREDICT)
    result = predict(state, eval_ds.features, mode, rng=rng)
    doubt = classify_with_doubt(result.probs, threshold)
    plain = classify_with_doubt(result.probs, 0.0)
    report = MetricsReport(run_id=run_id, seed=seed)
    if has_labels:
        report.all_class_accuracy = accuracy(plain.decisions, eval_ds.labels)
        report.doubt_accuracy = accuracy(doubt.decisions, eval_ds.labels,
                                         restrict_to_classified=True)
        report.doubt_classified = doubt.n_classified
    report.density = density_level(result.masks)
    report.layer_rho = layer_inclusion_means(result.alpha_hat or marginal_inclusion(state))
    return result, doubt, report


def _stable_copy(report: MetricsReport) -> MetricsReport:
    # Files never carry wall-clock quantities; see module docstring.
    return dataclasses.replace(report, epoch_time_s=None)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_ds, eval_ds, has_labels = _build_datasets(cfg.dataset)
    if train_ds.p != cfg.spec.widths[0]:
        print(f"error: dataset has {train_ds.p} features but widths start at "
              f"{cfg.spec.widths[0]}", file=sys.stderr)
        return 2
    if has_labels and int(train_ds.n_classes) > cfg.spec.n_classes:
        print(f"error: dataset has {train_ds.n_classes} classes but widths end at "
              f"{cfg.spec.n_classes}", file=sys.stderr)
        return 2
    base = os.path.join(cfg.output_dir, cfg.run_id)
    os.makedirs(base, exist_ok=True)
    print(f"[train] run_id={cfg.run_id} family={cfg.family.value} "
          f"seeds={','.join(str(s) for s in cfg.seeds)} "
          f"train_rows={train_ds.n} eval_rows={eval_ds.n}")
    reports = []
    for seed in cfg.seeds:
        seed_dir = os.path.join(base, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        state, trace = train(cfg.spec, cfg.prior, cfg.family, cfg.phases,
                             train_ds.features, train_ds.labels, seed,
                             rank=cfg.rank, init_tau=cfg.init_tau,
                             checkpoint_dir=seed_dir)
        trace.to_jsonl(os.path.join(seed_dir, "trace.jsonl"))
        result, doubt, report = _network_metrics(
            state, eval_ds, cfg.predict_mode, cfg.threshold, seed, cfg.run_id,
            has_labels)
        report.epoch_time_s = trace.mean_epoch_seconds()
        export_predictions_csv(os.path.join(seed_dir, "predictions.csv"),
                               result, doubt)
        with open(os.path.join(seed_dir, "metrics.kv"), "w") as fh:
            fh.write(_stable_copy(report).to_kv_text())
        reports.append(report)
        timing = "" if report.epoch_time_s is None else \
            f" epoch_seconds={report.epoch_time_s:.3f}"
        print(f"[seed {seed}] final_elbo={trace.final_elbo()!r} "
              f"density={report.density!r}{timing}")
        if has_labels:
            print(f"[seed {seed}] accuracy={report.all_class_accuracy!r} "
                  f"doubt_accuracy={report.doubt_accuracy!r} "
                  f"doubt_classified={report.doubt_classified}")
    stable = [_stable_copy(r) for r in reports]
    MetricsReport.write_csv(os.path.join(base, "metrics.csv"), stable)
    summary = summarize_runs(stable)
    with open(os.path.join(base, "summary.kv"), "w") as fh:
        for name, (med, lo, hi) in summary.items():
            fh.write(f"{name}={med!r},{lo!r},{hi!r}\n")
            print(f"[summary] {name}: median={med!r} min={lo!r} max={hi!r}")
    return 0


def _data_from_flags(args, prefix="") -> tuple:
    """(Dataset, has_labels) from --csv or --images/--labels style flags."""
    csv_path = getattr(args, prefix + "csv", None)
    images = getattr(args, prefix + "images", None)
    labels = getattr(args, prefix + "labels", None)
    if (csv_path is None) == (images is None):
        raise ConfigError(
            f"give exactly one of --{prefix.replace('_', '-')}csv or "
            f"--{prefix.replace('_', '-')}images with matching labels"
        )
    if csv_path is not None:
        token = args.label_column
        if token == "none":
            column = None
        else:
            try:
                column = int(token)
            except ValueError:
                raise ConfigError(
                    f"--label-column must be an integer or 'none', got {token!r}"
                ) from None
        data = dataio.load_csv(_resolve_path(csv_path), label_column=column,
                               has_header=args.has_header,
                               delimiter=args.delimiter,
                               standardize=args.standardize)
        return data, column is not None
    if labels is None:
        raise ConfigError("IDX input needs both images and labels paths")
    data = dataio.load_idx(_resolve_path(images), _resolve_path(labels))
    return data, True


def _mode_from_flags(args) -> PredictionMode:
    return PredictionMode(args.gamma, args.beta, args.replicates)


def cmd_predict(args) -> int:
    mode = _mode_from_flags(args)
    stored = ckpt.load_checkpoint(args.checkpoint)
    data, has_labels = _data_from_flags(args)
    state = stored.state
    if data.p != state.spec.widths[0]:
        print(f"error: checkpoint expects {state.spec.widths[0]} features, "
              f"data has {data.p}", file=sys.stderr)
        return 1
    rng = RngStream(args.seed, STREAM_PREDICT)
    result = predict(state, data.features, mode, rng=rng)
    doubt = classify_with_doubt(result.probs, args.threshold)
    export_predictions_csv(args.out, result, doubt)
    print(f"[predict] mode={mode.gamma}/{mode.beta} replicates={mode.replicates} "
          f"rows={data.n} wrote {args.out}")
    if has_labels:
        plain = classify_with_doubt(result.probs, 0.0)
        report = MetricsReport(run_id=os.path.basename(args.checkpoint),
                               seed=args.seed)
        report.all_class_accuracy = accuracy(plain.decisions, data.labels)
        report.doubt_accuracy = accuracy(doubt.decisions, data.labels,
                                         restrict_to_classified=True)
        report.doubt_classified = doubt.n_classified
        report.density = density_level(result.masks)
        metrics_path = args.metrics_out
        if metrics_path is None:
            metrics_path = os.path.join(os.path.dirname(args.out) or ".",
                                        "metrics.kv")
        with open(metrics_path, "w") as fh:
            fh.write(report.to_kv_text())
        print(report.to_kv_text(), end="")
    return 0


def cmd_eval(args) -> int:
    mode = _mode_from_flags(args)
    stored = ckpt.load_checkpoint(args.checkpoint)
    state = stored.state
    data, has_labels = _data_from_flags(args)
    if data.p != state.spec.widths[0]:
        print(f"error: checkpoint expects {state.spec.widths[0]} features, "
              f"data has {data.p}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    rng = RngStream(args.seed, STREAM_PREDICT)
    result = predict(state, data.features, mode, rng=rng)
    cdf_in = entropy_cdf(result.probs)
    cdf_in.to_csv(os.path.join(args.out, "entropy_in.csv"))

    report = MetricsReport(run_id=os.path.basename(args.checkpoint), seed=args.seed)
    report.density = density_level(result.masks)
    report.layer_rho = layer_inclusion_means(result.alpha_hat or marginal_inclusion(state))
    report.extra["median_entropy_in"] = cdf_in.median
    if has_labels:
        doubt = classify_with_doubt(result.probs, args.threshold)
        plain = classify_with_doubt(result.probs, 0.0)
        report.all_class_accuracy = accuracy(plain.decisions, data.labels)
        report.doubt_accuracy = accuracy(doubt.decisions, data.labels,
                                         restrict_to_classified=True)
        report.doubt_classified = doubt.n_classified

    if args.ood_csv is not None or args.ood_images is not None:
        ood, _ = _data_from_flags(args, prefix="ood_")
        if ood.p != state.spec.widths[0]:
            print(f"error: checkpoint expects {state.spec.widths[0]} features, "
                  f"out-of-domain data has {ood.p}", file=sys.stderr)
            return 1
        rng_ood = RngStream(args.seed, STREAM_PREDICT)
        result_ood = predict(state, ood.features, mode, rng=rng_ood)
        cdf_ood = entropy_cdf(result_ood.probs)
        cdf_ood.to_csv(os.path.join(args.out, "entropy_ood.csv"))
        report.extra["median_entropy_ood"] = cdf_ood.median
        print(f"[eval] median entropy in-domain={cdf_in.median!r} "
              f"out-of-domain={cdf_ood.median!r}")

    if args.corr_layer is not None:
        corr, constant = inclusion_correlation(
            state, args.corr_layer, args.corr_samples,
            RngStream(args.seed, STREAM_METRICS_ALPHA + 1))
        corr_path = os.path.join(args.out, f"correlation_layer{args.corr_layer}.csv")
        with open(corr_path, "w") as fh:
            fh.write(",".join(str(int(c)) for c in constant) + "\n")
            for row in corr:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        print(f"[eval] wrote {corr_path} ({int(constant.sum())} constant positions)")

    with open(os.path.join(args.out, "metrics.kv"), "w") as fh:
        fh.write(report.to_kv_text())
    print(report.to_kv_text(), end="")
    return 0


def cmd_inspect(args) -> int:
    tensors = ckpt.read_manifest(args.checkpoint)
    with open(args.checkpoint, "rb") as fh:
        header = fh.read(12)
    version, n_tensors = struct.unpack("<II", header[4:12])
    size = os.path.getsize(args.checkpoint)
    print(f"file: {args.checkpoint} ({size} bytes)")
    print(f"format: {ckpt.MAGIC.decode()} version {version}, {n_tensors} tensors")
    stored = ckpt.load_checkpoint(args.checkpoint)
    state = stored.state
    spec = state.spec
    print(f"spec: widths={list(spec.widths)} activations={list(spec.activations)} "
          f"bias={spec.include_bias} family={state.family.value} rank={state.rank} "
          f"fixed_dense={state.prior.fixed_dense}")
    print("counters: " + " ".join(f"{k}={v}" for k, v in sorted(stored.counters.items())))
    if stored.rng_words:
        print("rng streams: " + ", ".join(sorted(stored.rng_words)))
    print("tensors:")
    for name in sorted(tensors):
        arr = tensors[name]
        dims = "x".join(str(d) for d in arr.shape) or "scalar"
        print(f"  {name}  ({dims})")
    rho = layer_inclusion_means(marginal_inclusion(state))
    for l, layer in enumerate(state.layers):
        count = sum(getattr(layer, name).size for name in layer.param_names())
        print(f"layer {l}: weights={layer.shape[0]}x{layer.shape[1]} "
              f"params={count} rho={rho[l]!r}")
    return 0


def _add_data_flags(sub, ood: bool = False):
    sub.add_argument("--csv", help="delimited data file")
    sub.add_argument("--images", help="IDX image file")
    sub.add_argument("--labels", help="IDX label file")
    sub.add_argument("--label-column", dest="label_column", default="-1",
                     help="label column index, or 'none' for unlabeled data")
    sub.add_argument("--has-header", dest="has_header", action="store_true")
    sub.add_argument("--delimiter", default=",")
    sub.add_argument("--standardize", action="store_true",
                     help="standardize features with this file's own statistics")
    if ood:
        sub.add_argument("--ood-csv", dest="ood_csv")
        sub.add_argument("--ood-images", dest="ood_images")
        sub.add_argument("--ood-labels", dest="ood_labels")


def _add_mode_flags(sub):
    sub.add_argument("--gamma", choices=("sim", "all", "med"), default="sim")
    sub.add_argument("--beta", choices=("sim", "mea"), default="sim")
    sub.add_argument("-R", "--replicates", type=int, default=10)
    sub.add_argument("--threshold", type=float, default=0.95)
    sub.add_argument("--seed", type=int, default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slabnn",
        description="Sparsifying spike-and-slab Bayesian neural networks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="run a config's full schedule per seed")
    p_train.add_argument("config", help="INI run config (see module docs)")
    p_train.set_defaults(func=cmd_train)

    p_pred = subs.add_parser("predict", help="predict a dataset from a checkpoint")
    p_pred.add_argument("checkpoint")
    _add_data_flags(p_pred)
    _add_mode_flags(p_pred)
    p_pred.add_argument("--out", default="predictions.csv")
    p_pred.add_argument("--metrics-out", dest="metrics_out", default=None)
    p_pred.set_defaults(func=cmd_predict)

    p_eval = subs.add_parser("eval", help="entropy CDFs, sparsity and correlations")
    p_eval.add_argument("checkpoint")
    _add_data_flags(p_eval, ood=True)
    _add_mode_flags(p_eval)
    p_eval.add_argument("--out", default="eval_out")
    p_eval.add_argument("--corr-layer", dest="corr_layer", type=int, default=None,
                        help="write the indicator correlation matrix of this layer")
    p_eval.add_argument("--corr-samples", dest="corr_samples", type=int, default=1000)
    p_eval.set_defaults(func=cmd_eval)

    p_ins = subs.add_parser("inspect", help="print a checkpoint's contents")
    p_ins.add_argument("checkpoint")
    p_ins.set_defaults(func=cmd_inspect)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in str(exc).splitlines():
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 1
    except SlabnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
