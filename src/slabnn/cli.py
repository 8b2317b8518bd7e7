"""Command-line workflows: train, predict, eval, inspect.

Training runs are described by an INI file.  Every key has a default
matching the stock experimental setup, so a minimal config only names
the data and the architecture.  Keys a section omits take the defaults
of the library object the section builds (``PhaseConfig``,
``PriorConfig`` with ``HyperParams``, ``PredictionMode``), whose own
checks then validate the keys it sets; the defaults below are theirs.
Numbers must be finite.  Unknown sections or keys are rejected, as is
a ``[dataset]`` key that the chosen format does not read, and
validation reports every problem at once (exit code 2).

Config schema (defaults in parentheses)::

    [dataset]
    format = csv | idx | synth_logistic | synth_clusters   required
    # format=csv
    path = FILE                    required; see $SLABNN_DATA_DIR below
    label_column = INT             (-1) column with class labels; training
                                   needs them, so 'none' is refused
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
    lr_psi_hyper / lr_beta_hyper = FLOAT   (trainer.STOCK_LR for the family)
    # no phase sections at all: the stock 20 pretrain + 250 train schedule

    [predict]
    gamma = sim | all | med (sim)  beta = sim | mea (sim)
    replicates = INT (10)          threshold = FLOAT (0.95)
    # gamma=sim needs beta=sim; gamma=all with beta=sim needs fixed_dense

    [run]
    seeds = INT,INT,... (1)        distinct, each 0 <= seed < 2**64
    output_dir = DIR (runs)
    run_id = NAME (config file stem)

Relative dataset paths resolve against ``$SLABNN_DATA_DIR`` when that
variable is set, else against the working directory.  CSV labels that
are all nonnegative integers are the class ids themselves (other tokens
number by first appearance, see ``dataio.load_csv``); ``train``,
``predict`` and ``eval`` exit 2 when a label has no output in the
network.  ``--label-column none`` reads an unlabeled table for
``predict`` and ``eval``, which then report no accuracies.

``predict`` and ``eval`` refuse bad flags with exit code 2 before they
predict anything or write a file: ``--threshold`` outside [0, 1) and a
``--seed`` outside ``RngStream``'s own range (the rule ``[run] seeds``
is held to) before the checkpoint is read; ``--standardize`` with
``--images`` or ``--ood-images`` (IDX pixels are consumed pre-scaled,
as in ``[dataset]``); and an ``eval --corr-layer`` or
``--corr-samples`` that ``metrics.inclusion_correlation`` refuses.

All outputs of a command are byte-identical across reruns with the
same inputs and seeds; wall-clock timings appear only in log lines on
stdout.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys

from . import checkpoint as ckpt
from . import dataio
from .distributions import HyperParams
from .errors import ConfigError, DomainError, FormatError, ShapeError, SlabnnError
from .metrics import (MetricsReport, accuracy, entropy_cdf,
                      inclusion_correlation, layer_inclusion_means,
                      summarize_runs)
from .model import (GROUPS, Family, NetworkSpec, PriorConfig, check_init_tau,
                    family_problems, marginal_inclusion, memory_problems)
from .numkernel import RngStream
from .predictor import (BETA_RULES, DOUBT_THRESHOLD, GAMMA_RULES, PredictionMode,
                        classify_with_doubt, density_level, export_predictions_csv,
                        predict)
from .trainer import (PHASE_NAMES, STOCK_LR, PhaseConfig, default_phases, live_groups,
                      train, validate_schedule)

__all__ = ["RunConfig", "load_config", "main"]

# Stream ids 0..2 belong to the trainer; prediction replicates derive
# 1 + r from their base stream, so these bases keep all runs disjoint.
# Only STREAM_METRICS_ALPHA + 1 (inclusion correlations) draws from the
# metrics base: inclusion probabilities are exact.
STREAM_PREDICT = 999
STREAM_METRICS_ALPHA = 998

_FORMATS = ("csv", "idx", "synth_logistic", "synth_clusters")

# [dataset] knows the keys its format reads (``load_config``).
_KNOWN_KEYS = {
    "dataset": None,
    "model": {"widths", "activations", "family", "rank", "fixed_dense", "init_tau"},
    "prior": {"sigma2", "psi", "a_beta", "b_beta", "a_psi", "b_psi",
              "learn_sigma2", "learn_psi", "learn_hyper"},
    "predict": {"gamma", "beta", "replicates", "threshold"},
    "run": {"seeds", "output_dir", "run_id"},
}
_PHASE_KEYS = {"epochs", "batch_size", "draws", "delta", "kl_mode",
               "gamma_policy"} | {f"lr_{g}" for g in GROUPS}

_BOOL_STATES = configparser.ConfigParser.BOOLEAN_STATES


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


def _boolean(token: str) -> bool:
    return _BOOL_STATES[token.lower()]


def _int_list(token: str) -> tuple:
    return tuple(int(tok) for tok in token.split(","))


def _label_column(token: str):
    return None if token == "none" else int(token)


# Problem text for a value each parser above rejects.
_MEANING = {int: "not an integer", _finite: "not a finite number",
            _boolean: "not a boolean", _int_list: "not a comma list of integers",
            _label_column: "not an integer or 'none'"}


class _SectionReader:
    """Typed access to one section's raw strings, collecting problems."""

    def __init__(self, section: str, raw: dict, problems: list):
        self.section = section
        self.raw = raw
        self.problems = problems
        self.read = set()

    def note(self, message):
        self.problems.append(f"[{self.section}] {message}")

    def fail(self, key, message):
        self.note(f"{key}: {message}")

    def has(self, key) -> bool:
        return key in self.raw

    def get(self, key, parse=str, default=None, required=False, choices=None):
        """``parse`` of the key's stripped value; ``default`` when unset or rejected."""
        self.read.add(key)
        if key not in self.raw:
            if required:
                self.fail(key, "required key is missing")
            return default
        token = self.raw[key].strip()
        try:
            value = parse(token)
        except (KeyError, ValueError):
            self.fail(key, f"{_MEANING[parse]}: {token!r}")
            return default
        if choices is not None and value not in choices:
            self.fail(key, f"must be one of {', '.join(choices)}; got {token!r}")
            return default
        return value

    def integer(self, key, minimum, default=None):
        value = self.get(key, int, default)
        if value is not None and value < minimum:
            self.fail(key, f"must be at least {minimum}")
            return default
        return value

    def path(self, key, required=False):
        """A data file path, resolved as the module docstring says and checked to exist."""
        path = self.get(key, required=required)
        if path is not None:
            path = _resolve_path(path)
            if not os.path.exists(path):
                self.fail(key, f"file not found: {path}")
        return path

    def keywords(self, **parsers) -> dict:
        """Parsed values of just the keys the section sets, for a library constructor."""
        parsed = {key: self.get(key, parse) for key, parse in parsers.items()}
        return {key: value for key, value in parsed.items() if value is not None}

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``, or None with its error filed under this section."""
        try:
            return make(*args, **kwargs)
        except SlabnnError as exc:
            self.note(exc)
            return None


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


def _dataset_config(rd: _SectionReader) -> dict:
    fmt = rd.get("format", choices=_FORMATS, required=True)
    out = {"format": fmt}
    if fmt == "csv":
        out["path"] = rd.path("path", required=True)
        out["label_column"] = rd.get("label_column", _label_column, default=-1)
        if out["label_column"] is None:
            rd.fail("label_column", "training needs labels; 'none' is for predict and eval")
        out["has_header"] = rd.get("has_header", _boolean, default=False)
        out["delimiter"] = rd.get("delimiter", default=",")
        if len(out["delimiter"]) != 1:
            rd.fail("delimiter", "must be a single character")
    elif fmt == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            out[key] = rd.path(key, required=key.startswith("train"))
        if rd.has("test_images") != rd.has("test_labels"):
            rd.note("test_images and test_labels must come together")
    elif fmt == "synth_logistic":
        out["n"] = rd.integer("n", 1, default=2000)
        out["p"] = rd.integer("p", 1, default=20)
        out["k_true"] = rd.integer("k_true", 0, default=5)
        out["coef_scale"] = rd.get("coef_scale", _finite, default=2.0)
        out["data_seed"] = rd.integer("data_seed", 0, default=0)
        if out["k_true"] is not None and out["p"] is not None and out["k_true"] > out["p"]:
            rd.fail("k_true", "must not exceed p")
    else:
        out["n"] = rd.integer("n", 1, default=600)
        out["p"] = rd.integer("p", 1, default=8)
        out["classes"] = rd.integer("classes", 2, default=3)
        out["separation"] = rd.get("separation", _finite, default=3.0)
        out["spread"] = rd.get("spread", _finite, default=1.0)
        out["shift"] = rd.get("shift", _finite, default=0.0)
        out["data_seed"] = rd.integer("data_seed", 0, default=0)
    p = out.get("p")
    for key, what in (("n", "features"), ("classes", "class centres")):
        if p and out.get(key):
            for problem in memory_problems(8 * out[key] * p,
                                           f"{key}: {out[key]} x {p} {what}"):
                rd.note(problem)

    out["standardize"] = rd.get("standardize", _boolean, default=False)
    split = rd.has("train_n") or rd.has("test_n")
    if rd.has("train_n") != rd.has("test_n"):
        rd.note("train_n and test_n must come together")
    out["train_n"] = rd.integer("train_n", 1)
    out["test_n"] = rd.integer("test_n", 0)
    out["split_seed"] = rd.integer("split_seed", 0, default=0)
    if fmt == "idx":
        if out["test_images"] and split:
            rd.note("a test IDX pair and a split cannot be combined")
        if out["standardize"]:
            rd.fail("standardize", "IDX pixels are consumed pre-scaled")
    return out


def load_config(path: str) -> RunConfig:
    """Parse and validate a run config; raises ConfigError listing every problem."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    problems = []
    readers = {}
    for name in parser.sections():
        if not name.startswith("phase:") and name not in _KNOWN_KEYS:
            problems.append(f"unknown section [{name}]")
            continue
        known = _PHASE_KEYS if name.startswith("phase:") else _KNOWN_KEYS[name]
        raw = dict(parser.items(name))
        if known is not None:
            problems.extend(f"[{name}] unknown key {key!r}" for key in sorted(set(raw) - known))
        readers[name] = _SectionReader(name, raw, problems)
    for required in ("dataset", "model"):
        if required not in readers:
            problems.append(f"missing required section [{required}]")

    def reader(name):
        return readers.get(name) or _SectionReader(name, {}, problems)

    ds = reader("dataset")
    dataset = _dataset_config(ds)
    if dataset["format"] is not None:  # else the format is the problem to report
        for key in sorted(set(ds.raw) - ds.read):
            ds.fail(key, f"not read with format = {dataset['format']}")

    model = reader("model")
    widths = model.get("widths", _int_list, required=True)
    family = Family(model.get("family", default=Family.MF.value,
                              choices=[f.value for f in Family]))
    rank = model.get("rank", int, default=0)
    init_tau = model.get("init_tau", _finite, default=0.05)
    model.build(check_init_tau, init_tau)
    spec = None
    if widths is not None:
        acts = model.get("activations")
        if acts is not None:
            acts = tuple(t.strip() for t in acts.split(","))
            acts = acts * (len(widths) - 2) if len(acts) == 1 else acts
        spec = model.build(NetworkSpec, widths, acts)
    for problem in family_problems(family, rank, spec):
        model.note(problem)

    pr = reader("prior")
    hyper = pr.build(HyperParams, **pr.keywords(
        a_beta=_finite, b_beta=_finite, a_psi=_finite, b_psi=_finite))
    prior = pr.build(PriorConfig, hyper=hyper or HyperParams(),
                     **model.keywords(fixed_dense=_boolean), **pr.keywords(
                         sigma2=_finite, psi=_finite, learn_sigma2=_boolean,
                         learn_psi=_boolean, learn_hyper=_boolean))

    phases = []
    if prior is not None:
        declared = {name[len("phase:"):]: rd for name, rd in readers.items()
                    if name.startswith("phase:")}
        phases = [] if declared else default_phases(family)
        live = live_groups(family, prior)
        for name, rd in declared.items():
            lr = dict(STOCK_LR[family].get(name, {}))
            for group in GROUPS:
                value = rd.get(f"lr_{group}", _finite)
                if value is None:
                    continue
                if group not in live and value != 0.0:
                    rd.fail(f"lr_{group}", "group has no movable parameters "
                                           "under this model configuration")
                else:
                    lr[group] = value
            phase = rd.build(PhaseConfig, name, rd.get("epochs", int, 0, required=True),
                             lr, **rd.keywords(batch_size=int, draws=int, delta=_finite,
                                               kl_mode=str, gamma_policy=str))
            if phase is not None:
                phases.append(phase)
        phases.sort(key=lambda p: PHASE_NAMES.index(p.name))
        problems.extend(f"schedule: {p}" for p in validate_schedule(phases))

    pd = reader("predict")
    threshold = pd.get("threshold", _finite, default=DOUBT_THRESHOLD)
    if not 0.0 <= threshold < 1.0:
        pd.fail("threshold", "must lie in [0, 1)")
    predict_mode = pd.build(PredictionMode, **pd.keywords(
        gamma=str, beta=str, replicates=int))
    if predict_mode is not None and prior is not None:
        pd.build(predict_mode.check, prior.fixed_dense)

    rn = reader("run")
    seeds = rn.get("seeds", _int_list, default=(1,))
    if len(set(seeds)) != len(seeds):
        rn.fail("seeds", "duplicate seeds")
    for seed in seeds:
        if rn.build(RngStream, seed) is None:  # the stream's own seed rule
            break
    output_dir = rn.get("output_dir", default="runs")
    run_id = rn.get("run_id", default=os.path.splitext(os.path.basename(path))[0])

    if problems:
        raise ConfigError("\n".join(problems))
    return RunConfig(
        dataset=dataset, spec=spec, prior=prior, family=family, rank=rank,
        init_tau=init_tau, phases=phases, predict_mode=predict_mode,
        threshold=threshold, seeds=seeds,
        output_dir=output_dir, run_id=run_id,
    )


def _build_datasets(ds: dict):
    """Materialize the labeled (train, eval) pair from a dataset config dict."""
    fmt = ds["format"]
    if fmt == "csv":
        full = dataio.load_csv(ds["path"], label_column=ds["label_column"],
                               has_header=ds["has_header"], delimiter=ds["delimiter"])
    elif fmt == "idx":
        full = dataio.load_idx(ds["train_images"], ds["train_labels"])
        if ds.get("test_images"):
            return full, dataio.load_idx(ds["test_images"], ds["test_labels"])
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
    return train_ds, (test_ds if test_ds.n else train_ds)


def _predict(state, data, mode, seed):
    return predict(state, data.features, mode, rng=RngStream(seed, STREAM_PREDICT))


def _report(result, data, has_labels, threshold, run_id, seed, state=None):
    """(report, doubt decisions) of one prediction run.

    Accuracies need labels; ``layer_rho`` is filled when ``state`` is given.
    """
    doubt = classify_with_doubt(result.probs, threshold)
    report = MetricsReport(run_id=run_id, seed=seed, density=density_level(result.masks))
    if state is not None:
        report.layer_rho = layer_inclusion_means(marginal_inclusion(state))
    if has_labels:
        plain = classify_with_doubt(result.probs, 0.0)
        report.all_class_accuracy = accuracy(plain.decisions, data.labels)
        report.doubt_accuracy = accuracy(doubt.decisions, data.labels,
                                         restrict_to_classified=True)
        report.doubt_classified = doubt.n_classified
    return report, doubt


def _class_problem(data, has_labels, spec):
    """The message when a label has no output in the network, else None."""
    if has_labels and data.n_classes > spec.n_classes:
        return f"dataset has {data.n_classes} classes but widths end at {spec.n_classes}"
    return None


def _stable_copy(report: MetricsReport) -> MetricsReport:
    # Files never carry wall-clock quantities; see module docstring.
    return dataclasses.replace(report, epoch_time_s=None)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_ds, eval_ds = _build_datasets(cfg.dataset)
    if train_ds.p != cfg.spec.widths[0]:
        print(f"error: dataset has {train_ds.p} features but widths start at "
              f"{cfg.spec.widths[0]}", file=sys.stderr)
        return 2
    problem = _class_problem(train_ds, True, cfg.spec)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
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
        result = _predict(state, eval_ds, cfg.predict_mode, seed)
        report, doubt = _report(result, eval_ds, True, cfg.threshold,
                                cfg.run_id, seed, state)
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
        try:
            column = _label_column(args.label_column)
        except ValueError:
            raise ConfigError(f"--label-column must be an integer or 'none', "
                              f"got {args.label_column!r}") from None
        data = dataio.load_csv(_resolve_path(csv_path), label_column=column,
                               has_header=args.has_header,
                               delimiter=args.delimiter,
                               standardize=args.standardize)
        return data, column is not None
    if labels is None:
        raise ConfigError("IDX input needs both images and labels paths")
    if args.standardize:
        raise ConfigError("--standardize: IDX pixels are consumed pre-scaled")
    data = dataio.load_idx(_resolve_path(images), _resolve_path(labels))
    return data, True


def _prelude(args) -> tuple:
    """(mode, state, data, has_labels) for predict and eval.

    The mode flags, ``--threshold`` and ``--seed`` (by ``RngStream``'s
    own rule) are checked before any file is read; flags left unset take
    ``PredictionMode``'s defaults.  Labels the network has no output
    for, and ``--standardize`` with IDX input, raise ``ConfigError``;
    the callers predict nothing before this returns.
    """
    flags = {k: getattr(args, k) for k in ("gamma", "beta", "replicates")}
    mode = PredictionMode(**{k: v for k, v in flags.items() if v is not None})
    if not 0.0 <= args.threshold < 1.0:
        raise ConfigError("--threshold: must lie in [0, 1)")
    try:
        RngStream(args.seed)
    except DomainError as exc:
        raise ConfigError(f"--seed: {exc}") from None
    state = ckpt.load_checkpoint(args.checkpoint).state
    data, has_labels = _data_from_flags(args)
    problem = _class_problem(data, has_labels, state.spec)
    if problem:
        raise ConfigError(problem)
    return mode, state, data, has_labels


def cmd_predict(args) -> int:
    mode, state, data, has_labels = _prelude(args)
    result = _predict(state, data, mode, args.seed)
    report, doubt = _report(result, data, has_labels, args.threshold,
                            os.path.basename(args.checkpoint), args.seed)
    export_predictions_csv(args.out, result, doubt)
    print(f"[predict] mode={mode.gamma}/{mode.beta} replicates={mode.replicates} "
          f"rows={data.n} wrote {args.out}")
    if has_labels:
        metrics_path = args.metrics_out
        if metrics_path is None:
            metrics_path = os.path.join(os.path.dirname(args.out) or ".",
                                        "metrics.kv")
        with open(metrics_path, "w") as fh:
            fh.write(report.to_kv_text())
        print(report.to_kv_text(), end="")
    return 0


def cmd_eval(args) -> int:
    mode, state, data, has_labels = _prelude(args)
    # Every refusal comes before the first prediction, everything that
    # can fail before the first write.  The streams are disjoint, so the
    # order of the correlations and the predictions moves no byte.
    ood_data = ood = None
    if args.ood_csv is not None or args.ood_images is not None:
        ood_data, _ = _data_from_flags(args, prefix="ood_")
        width = state.spec.widths[0]
        if ood_data.features.shape[1] != width:  # predict's own refusal, made early
            raise ShapeError(f"features must be (n, {width}), got {ood_data.features.shape}")
    if args.corr_layer is not None:
        try:
            corr, constant = inclusion_correlation(
                state, args.corr_layer, args.corr_samples,
                RngStream(args.seed, STREAM_METRICS_ALPHA + 1))
        except DomainError as exc:  # a layer or sample count it refuses
            raise ConfigError(str(exc)) from None
    result = _predict(state, data, mode, args.seed)
    if ood_data is not None:
        ood = _predict(state, ood_data, mode, args.seed)
    report, _ = _report(result, data, has_labels, args.threshold,
                        os.path.basename(args.checkpoint), args.seed, state)
    os.makedirs(args.out, exist_ok=True)
    cdf_in = entropy_cdf(result.probs)
    cdf_in.to_csv(os.path.join(args.out, "entropy_in.csv"))
    report.extra["median_entropy_in"] = cdf_in.median

    if ood is not None:
        cdf_ood = entropy_cdf(ood.probs)
        cdf_ood.to_csv(os.path.join(args.out, "entropy_ood.csv"))
        report.extra["median_entropy_ood"] = cdf_ood.median
        print(f"[eval] median entropy in-domain={cdf_in.median!r} "
              f"out-of-domain={cdf_ood.median!r}")

    if args.corr_layer is not None:
        corr_path = os.path.join(args.out, f"correlation_layer{args.corr_layer}.csv")
        with open(corr_path, "w") as fh:
            fh.write(",".join(str(int(c)) for c in constant) + "\n")
            fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in corr)
        print(f"[eval] wrote {corr_path} ({int(constant.sum())} constant positions)")

    with open(os.path.join(args.out, "metrics.kv"), "w") as fh:
        fh.write(report.to_kv_text())
    print(report.to_kv_text(), end="")
    return 0


def cmd_inspect(args) -> int:
    stored = ckpt.load_checkpoint(args.checkpoint)
    size = os.path.getsize(args.checkpoint)
    print(f"file: {args.checkpoint} ({size} bytes)")
    print(f"format: {ckpt.MAGIC.decode()} version {ckpt.FORMAT_VERSION}, "
          f"{len(stored.shapes)} tensors")
    state = stored.state
    spec = state.spec
    print(f"spec: widths={list(spec.widths)} activations={list(spec.activations)} "
          f"bias=True family={state.family.value} rank={state.rank} "
          f"fixed_dense={state.prior.fixed_dense}")
    print("counters: " + " ".join(f"{k}={v}" for k, v in sorted(stored.counters.items())))
    if stored.rng_words:
        print("rng streams: " + ", ".join(sorted(stored.rng_words)))
    print("tensors:")
    for name, shape in sorted(stored.shapes.items()):
        dims = "x".join(str(d) for d in shape) or "scalar"
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
    sub.add_argument("--gamma", choices=GAMMA_RULES)
    sub.add_argument("--beta", choices=BETA_RULES)
    sub.add_argument("-R", "--replicates", type=int)
    sub.add_argument("--threshold", type=float, default=DOUBT_THRESHOLD)
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
