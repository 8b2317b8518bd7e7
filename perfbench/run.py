#!/usr/bin/env python3
"""slabnn benchmark: train -> predict -> eval through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload mf_desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload (``all`` runs each in its own child
process, one after the other).  The library is imported from ``src/``
next to this directory; without it the script exits with status 2 and
prints no result.

A run sets up (imports, input generation, a small warm-up of every call
the rounds make), then repeats identical rounds until ``--seconds``
would be exceeded (at least three), reads ``peak_rss_mb``, and sets up
four more times; ``setup_s`` is the median of the five.  A round trains
from scratch with checkpoints on, predicts the held-out block in every
mode (each call with its own rng key, so the alpha cache cannot hide
the Monte Carlo), and runs the ``slabnn eval`` sequence (more than once
on workloads where it is short).  Every train call, predict call and
eval sequence is one timed sample, and each timed metric is the median
of all samples of the run, so a metric rests on many short samples
rather than on a few rounds.  The quality metrics are medians over
rounds (they repeat exactly).  Every round also runs the correctness
gate; a failed operation or check counts in ``failed`` and the run
goes on.

With ``--trace 1`` the odd rounds run with every layer's public
functions wrapped (see ``spans.py``) and the run reports the per-layer
metrics instead: medians over traced rounds, plus the tracing overhead
measured against the untraced even rounds.  The spans are written to
``perfbench/out/spans-<workload>.jsonl`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("mf_desk", "full_cov", "lowrank_eval")

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 5
MIN_ROUNDS = 3          # rounds after the first check byte-identical checkpoints
REPLICATES = 10         # med/sim and sim/sim, as in criterion 6
CORR_SAMPLES = 1000     # slabnn eval --corr-samples default
DOUBT_THRESHOLD = 0.95
PROB_SUM_TOL = 1e-8
ACC_FLOOR = 0.75        # all/mea test accuracy gate; every workload reaches ~0.9

# Stream ids as in slabnn.cli (predict 999, metrics alpha 998, the
# correlation draws one above that); per-mode keys sit well clear of
# them and of the replicate streams predict derives (id + 1 + r).
STREAM_PREDICT = 999
STREAM_METRICS_ALPHA = 998
MODE_STREAM_BASE = 10_000


class Ops:
    """Attempted and failed operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args, count=1, **kwargs):
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += count
            print(f"[fail] {what}", file=sys.stderr)
            traceback.print_exc()
            raise RoundAbandoned(what) from None

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[fail] check {what} {detail}", file=sys.stderr)


class RoundAbandoned(Exception):
    """An operation failed; the rest of the round depends on it."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_library():
    """Import numpy and the package from src/; returns (modules, seconds)."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import slabnn
    # Every layer module loads inside the timed import, whatever the
    # package's own __init__ pulls in.
    from slabnn import (checkpoint, dataio, elbo, metrics, model,  # noqa: F401
                        numkernel, predictor, trainer)
    import workloads
    seconds = perf_counter() - t0
    if Path(slabnn.__file__).resolve().parent != (SRC / "slabnn").resolve():
        raise SystemExit(f"slabnn was imported from {slabnn.__file__}, not {SRC}")
    return numpy, scipy, slabnn, workloads, seconds


def environment(numpy, scipy) -> dict:
    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def declared_metrics() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Bench:
    """One workload run: inputs, setup, rounds, gate, metrics."""

    def __init__(self, slabnn, wl, seed, workdir, ops):
        self.s = slabnn
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.ops = ops
        self.spec = slabnn.model.NetworkSpec(wl.widths)
        self.prior = slabnn.model.PriorConfig()
        self.family = slabnn.model.Family(wl.family)
        r = REPLICATES
        mode = slabnn.predictor.PredictionMode
        self.modes = (("all_mea", mode("all", "mea")),
                      ("med_sim", mode("med", "sim", r)),
                      ("sim_sim", mode("sim", "sim", r)))
        self.eval_mode = mode("med", "sim", r)
        self.inputs = None
        self.reference_digest = None

    def phases(self, epochs=None, alpha_mc=None):
        out = []
        for name, n_epochs, lr, extra in self.wl.phases:
            kwargs = dict(extra, batch_size=100,
                          alpha_mc=alpha_mc or self.wl.alpha_mc)
            out.append(self.s.trainer.PhaseConfig(
                name, epochs or n_epochs, dict(lr), **kwargs))
        return out

    def train(self, x, y, phases, ckdir):
        return self.s.trainer.train(self.spec, self.prior, self.family, phases,
                                    x, y, seed=self.seed, rank=self.wl.rank,
                                    checkpoint_dir=str(ckdir))

    # -- set-up ----------------------------------------------------------

    def set_up(self, make_inputs):
        """Generate the inputs and touch every call a round makes, small."""
        s = self.s
        self.inputs = None
        gc.collect()
        self.inputs = make_inputs(s, self.wl, self.seed)
        inp = self.inputs
        ckdir = self.workdir / "warmup"
        state, _ = self.train(inp.x_train[:200], inp.y_train[:200],
                              self.phases(epochs=1, alpha_mc=10), ckdir)
        rng = s.numkernel.RngStream(self.seed, MODE_STREAM_BASE)
        for _, mode in self.modes:
            res = s.predictor.predict(state, inp.x_test[:50], mode, rng=rng,
                                      alpha_mc=10)
        loaded = s.checkpoint.load_checkpoint(ckdir / "checkpoint_final.lbnn")
        s.metrics.entropy_cdf(res.probs)
        s.predictor.export_predictions_csv(
            self.workdir / "warmup.csv", res,
            s.predictor.classify_with_doubt(res.probs, DOUBT_THRESHOLD))
        if self.wl.corr_layer is not None:
            s.metrics.inclusion_correlation(loaded.state, self.wl.corr_layer, 10,
                                            s.numkernel.RngStream(self.seed, 1))
        shutil.rmtree(ckdir)

    # -- one round -------------------------------------------------------

    def check_probs(self, what, probs, rows):
        import numpy as np
        ok = (probs.shape == (rows, self.wl.n_classes)
              and bool(np.all(np.isfinite(probs))) and bool(np.all(probs >= 0.0))
              and float(np.max(np.abs(probs.sum(axis=1) - 1.0))) <= PROB_SUM_TOL)
        self.ops.check(f"{what} probability rows", ok)

    def round(self, index) -> dict:
        import numpy as np
        s, wl, ops, inp = self.s, self.wl, self.ops, self.inputs
        RngStream = s.numkernel.RngStream
        phases = self.phases()
        ckdir = self.workdir / f"round{index}"
        rec = {}
        gc.collect()

        # Write side: the full schedule with phase checkpoints.
        t0 = perf_counter()
        state, report = ops.run("train", self.train, inp.x_train, inp.y_train,
                                phases, ckdir, count=len(phases))
        seconds = perf_counter() - t0
        epochs = sum(p.epochs for p in phases)
        rec["train_rows_per_s"] = [epochs * wl.train_n / seconds]
        ops.check("final ELBO finite", bool(np.isfinite(report.final_elbo())))
        expected = [f"checkpoint_{p.name}.lbnn" for p in phases] + ["checkpoint_final.lbnn"]
        present = [name for name in expected if (ckdir / name).is_file()]
        ops.attempted += len(expected)
        ops.failed += len(expected) - len(present)
        digest = {name: hashlib.sha256((ckdir / name).read_bytes()).hexdigest()
                  for name in present}
        rec["checkpoint_bytes"] = sum((ckdir / name).stat().st_size for name in present)
        if self.reference_digest is None:
            self.reference_digest = digest
        else:
            ops.check("same-seed checkpoints byte-identical",
                      digest == self.reference_digest)

        # Read side: every mode, each call on its own key.
        for mi, ((label, mode), calls) in enumerate(zip(self.modes, wl.predict_calls)):
            rates = rec[f"predict_rows_per_s.{label}"] = []
            for call in range(calls):
                rng = RngStream(self.seed, MODE_STREAM_BASE + 1000 * mi + 100 * call)
                t0 = perf_counter()
                res = ops.run(f"predict {label}", s.predictor.predict, state,
                              inp.x_test, mode, rng=rng, alpha_mc=wl.alpha_mc)
                rates.append(wl.test_n / (perf_counter() - t0))
                self.check_probs(f"predict {label}", res.probs, wl.test_n)
                if call == 0 and label == "all_mea":
                    acc = float(np.mean(np.argmax(res.probs, axis=1) == inp.y_test))
                if call == 0 and label == "med_sim":
                    density = s.predictor.density_level(res.masks)
        rec["test_acc"], rec["median_density"] = [acc], [density]
        ops.check("test_acc above floor", acc >= ACC_FLOOR, f"{acc} < {ACC_FLOOR}")
        ops.check("median density in (0, 1]", 0.0 < density <= 1.0, str(density))

        # The `slabnn eval` sequence, the same each time.
        csv_path = self.workdir / f"eval{index}.csv"
        rec["eval_s"] = []
        for _ in range(wl.eval_reps):
            rec["eval_s"].append(self.eval_sequence(state, ckdir, csv_path))
        shutil.rmtree(ckdir)
        csv_path.unlink()
        return rec

    def eval_sequence(self, state, ckdir, csv_path) -> float:
        """`slabnn eval` through the API, then its checks; returns seconds."""
        s, wl, ops, inp = self.s, self.wl, self.ops, self.inputs
        RngStream = s.numkernel.RngStream
        t0 = perf_counter()
        loaded = ops.run("checkpoint load", s.checkpoint.load_checkpoint,
                         ckdir / "checkpoint_final.lbnn")
        st = loaded.state
        res_in = ops.run("eval predict in-domain", s.predictor.predict, st,
                         inp.x_test, self.eval_mode,
                         rng=RngStream(self.seed, STREAM_PREDICT), alpha_mc=wl.alpha_mc)
        res_ood = ops.run("eval predict shifted", s.predictor.predict, st,
                          inp.x_shift, self.eval_mode,
                          rng=RngStream(self.seed, STREAM_PREDICT), alpha_mc=wl.alpha_mc)
        alpha = s.model.marginal_inclusion(
            st, n_mc=wl.alpha_mc, rng=RngStream(self.seed, STREAM_METRICS_ALPHA))
        s.metrics.layer_inclusion_means(alpha)
        s.metrics.entropy_cdf(res_in.probs)
        s.metrics.entropy_cdf(res_ood.probs)
        doubt = s.predictor.classify_with_doubt(res_in.probs, DOUBT_THRESHOLD)
        s.metrics.accuracy(doubt.decisions, inp.y_test, restrict_to_classified=True)
        if wl.corr_layer is not None:
            s.metrics.inclusion_correlation(st, wl.corr_layer, CORR_SAMPLES,
                                            RngStream(self.seed, STREAM_METRICS_ALPHA + 1))
        s.predictor.export_predictions_csv(csv_path, res_in, doubt)
        seconds = perf_counter() - t0

        ops.check("checkpoint round trip bit-exact", all(
            a.tobytes() == b.tobytes()
            for (_, _, a), (_, _, b) in zip(state.param_items(), st.param_items())))
        self.check_probs("eval in-domain", res_in.probs, wl.test_n)
        self.check_probs("eval shifted", res_ood.probs, wl.test_n)
        with open(csv_path) as fh:
            lines = sum(1 for _ in fh)
        ops.check("exported CSV rows", lines == wl.test_n + 1, str(lines))
        return seconds


def layer_metrics(tracer, lo, hi, work, rec, family_is_mf):
    """Per-layer values of one traced round (see BENCHMARK.json)."""
    summary = spans.summarize(tracer.spans, lo, hi)

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    out = {}
    full = ("model.sample_network", "model.marginal_inclusion", "model.chol",
            "model.state_copy", "elbo.elbo_gradient", "elbo.forward",
            "elbo.forward_logits", "elbo.backprop", "trainer.adam_step",
            "checkpoint.save", "checkpoint.load", "predictor.export_csv",
            "metrics.entropy_cdf", "metrics.inclusion_correlation")
    for name in full:
        for field in ("calls", "busy_s", "self_s"):
            out[f"{name}.{field}"] = get(name, field)
    for phase in ("pretrain", "train", "posttrain"):
        out[f"trainer.run_phase.{phase}.self_s"] = get(f"trainer.run_phase.{phase}", "self_s")
    for mode in ("all_mea", "med_sim", "sim_sim"):
        out[f"predictor.predict.{mode}.self_s"] = get(f"predictor.predict.{mode}", "self_s")
    out["numkernel.rng_s"] = get("numkernel.rng", "busy_s")
    out["numkernel.rng_calls"] = get("numkernel.rng", "calls")
    steps = get("elbo.elbo_gradient", "calls")
    out["numkernel.rng_draws_per_step"] = (get("elbo.elbo_gradient", "draws") / steps
                                           if steps else 0)
    out["distributions.concrete_s"] = get("distributions.concrete", "busy_s")
    out["distributions.concrete.calls"] = get("distributions.concrete", "calls")
    calls = get("model.marginal_inclusion", "calls")
    out["model.alpha_cache_hit_ratio"] = (
        0.0 if family_is_mf or not calls
        else get("model.marginal_inclusion", "drawless_calls") / calls)
    out["trainer.steps"] = get("trainer.adam_step", "calls")
    out["trainer.train.busy_s"] = get("trainer.train", "busy_s")
    out["checkpoint.bytes"] = rec["checkpoint_bytes"]
    out["elbo.flops"], out["elbo.bytes"] = work
    return out


def run_workload(args) -> int:
    if not (SRC / "slabnn" / "__init__.py").is_file():
        print(f"error: no slabnn package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True  # every run compiles the same sources
    numpy, scipy, slabnn, workloads, import_s = import_library()

    e2e_units, layer_units = declared_metrics()
    wl = workloads.WORKLOADS[args.workload]
    env = environment(numpy, scipy)
    print("[env] " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"[workload] {wl.name} family={wl.family} widths={'-'.join(map(str, wl.widths))}"
          f" train_n={wl.train_n} test_n={wl.test_n} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace} acc_floor={ACC_FLOOR}")

    ops = Ops()
    workdir = OUT / f"{wl.name}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    t_run = perf_counter()
    try:
        workdir.mkdir(parents=True)
        bench = Bench(slabnn, wl, args.seed, workdir, ops)

        # Set-up; traced runs also time input generation.  The repeats
        # that steady setup_s run after the rounds, once peak_rss_mb is
        # read: regenerating the inputs after a warm-up leaves the heap in
        # a state that varies from run to run.
        setup_times, gen_summaries = [], []

        def set_up():
            if tracer:
                tracer.install(slabnn)
            lo = len(tracer.spans) if tracer else 0
            t0 = perf_counter()
            bench.set_up(workloads.make_inputs)
            setup_times.append(perf_counter() - t0)
            if tracer:
                tracer.uninstall()
                gen_summaries.append(spans.summarize(tracer.spans, lo,
                                                     len(tracer.spans)))

        set_up()

        # Rounds until the time is up; traced runs trace the odd ones.
        records, traced, round_times = [], [], []
        last_traced = (0, 0)
        t_start = perf_counter()
        index = 0
        while True:
            is_traced = bool(tracer) and index % 2 == 1
            if is_traced:
                tracer.install(slabnn)
                lo, flops, nbytes = len(tracer.spans), tracer.flops, tracer.bytes
            t0 = perf_counter()
            try:
                rec = bench.round(index)
            except RoundAbandoned:
                rec = None
            except Exception:
                ops.attempted += 1
                ops.failed += 1
                print(f"[fail] round {index}", file=sys.stderr)
                traceback.print_exc()
                rec = None
            finally:
                if is_traced:
                    tracer.uninstall()
            round_times.append(perf_counter() - t0)
            if rec is not None:
                rec["traced"] = is_traced
                records.append(rec)
                if is_traced:
                    last_traced = (lo, len(tracer.spans))
                    traced.append(layer_metrics(
                        tracer, lo, len(tracer.spans),
                        (tracer.flops - flops, tracer.bytes - nbytes), rec,
                        wl.family == "mf"))
            index += 1
            elapsed = perf_counter() - t_start
            if index >= MIN_ROUNDS and elapsed + max(round_times[-2:]) > args.seconds:
                break
        measured = perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(SETUP_REPS - 1):
            set_up()
        setup_s = import_s + statistics.median(setup_times)
        if tracer:
            OUT.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT / f"spans-{wl.name}.jsonl", t_run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in records if not r["traced"]]
    print(f"[rounds] {len(round_times)} run, {len(records)} complete, "
          f"{len(traced)} traced; measured {measured:.1f} s")

    def med(key, pool):
        values = [r[key] for r in pool if key in r]
        return statistics.median(values) if values else 0.0

    def samples(key, pool):
        return [v for r in pool for v in r.get(key, ())]

    def pooled(key, pool):
        """Median of every sample of every round in the pool."""
        values = samples(key, pool)
        return statistics.median(values) if values else 0.0

    if args.trace:
        metrics = {name: med(name, traced) for name in layer_units}
        untraced_rate = pooled("train_rows_per_s", plain)
        traced_rate = pooled("train_rows_per_s", [r for r in records if r["traced"]])
        metrics["dataio.generate_s"] = statistics.median(
            g.get("dataio.generate", {}).get("busy_s", 0.0) for g in gen_summaries)
        metrics["trace.train_rows_per_s"] = traced_rate
        metrics["trace.train_rows_per_s_untraced"] = untraced_rate
        metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate
                                           if traced_rate else 0.0)
        units = layer_units
        lo, hi = last_traced
        for title, part in (("whole round", None), ("inside trainer.train", "trainer.train")):
            summary = spans.summarize(tracer.spans, lo, hi, under=part)
            total = sum(v["self_s"] for v in summary.values()) or 1.0
            print(f"[trace] self seconds, last traced round, {title} "
                  f"({total:.3f} s traced):")
            for name, v in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"  {name:36s} {v['self_s']:9.4f} s {100 * v['self_s'] / total:5.1f}%"
                      f" {v['calls']:8d} calls")
        cost = spans.span_cost()
        metrics["trace.overhead_est_s"] = cost * (hi - lo)
        print(f"[trace] overhead: train_rows_per_s untraced {untraced_rate:.1f}, "
              f"traced {traced_rate:.1f}, ratio {metrics['trace.overhead_ratio']:.4f}; "
              f"wrappers add {cost * 1e6:.2f} us x {hi - lo} spans = "
              f"{metrics['trace.overhead_est_s']:.4f} s per traced round")
    else:
        metrics = {name: pooled(name, plain) for name in e2e_units
                   if name not in ("setup_s", "peak_rss_mb", "ok_rate")}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["ok_rate"] = (ops.attempted - ops.failed) / max(ops.attempted, 1)
        units = e2e_units
        for name in units:
            detail = ""
            values = sorted(samples(name, plain))
            if values:
                detail = f"  (median of {len(values)}, range {values[0]:.5g}-{values[-1]:.5g})"
            print(f"[metric] {name} = {metrics[name]:.6g} {units[name]}{detail}")
        print(f"[metric] error_rate = {ops.failed / max(ops.attempted, 1):.6g} fraction "
              f"({ops.failed} of {ops.attempted} operations failed)")
        print(f"[setup] import {import_s:.3f} s, set-up reps "
              + ", ".join(f"{t:.3f}" for t in setup_times) + " s")

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    result = {
        "correct": ops.failed == 0 and len(records) == len(round_times),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print(f"\n{'metric':44s}" + "".join(f"{w:>16s}" for w in WORKLOAD_NAMES) + "  unit")
    for m in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][m]["unit"]
        print(f"{m:44s}" + "".join(f"{results[w]['metrics'][m]['value']:16.6g}"
                                   for w in WORKLOAD_NAMES) + f"  {unit}")
    print(f"{'correct':44s}" + "".join(f"{str(results[w]['correct']):>16s}"
                                       for w in WORKLOAD_NAMES))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
