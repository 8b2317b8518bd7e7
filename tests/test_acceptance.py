"""Acceptance gate: one test per shipping criterion.

Every test certifies one end-to-end property of the package on pinned
seeds, so each run reproduces the quoted Monte Carlo margins exactly.
A summary section with one PASS/FAIL line per criterion, including the
measured quantity and its tolerance, is printed at the end of the
pytest run (see the terminal-summary hook in conftest).

The handwritten-digit run (criterion 6) needs the four IDX files on
disk; this sandbox cannot download them (DNS resolution to the usual
hosts fails and the package mirror carries no dataset distribution),
so without local files that test fails with instructions rather than
silently skipping.
"""

import functools
import gzip
import os
import pathlib
import shutil
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from slabnn.checkpoint import load_checkpoint, save_checkpoint
from slabnn.dataio import (bayes_optimal_accuracy, load_idx, synth_clusters,
                           synth_logistic)
from slabnn.distributions import concrete_from_logits, kl_gaussian
from slabnn.elbo import Batch, elbo_estimate, elbo_gradient, kl_state
from slabnn.metrics import accuracy, entropy_cdf
from slabnn.model import (Family, NetworkSpec, PriorConfig, init_state,
                          median_model, sample_network)
from slabnn.numkernel import RngStream, logit
from slabnn.predictor import (PredictionMode, classify_with_doubt,
                              density_level, predict)
from slabnn.trainer import PhaseConfig, train

RESULTS = []  # one "[criterion N] PASS/FAIL label: detail" line per test


def criterion(num, label):
    """Record a one-line verdict for the run summary, then re-raise."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                text = str(exc).strip()
                first = text.splitlines()[0] if text else type(exc).__name__
                RESULTS.append(f"[criterion {num:2d}] FAIL {label}: {first}")
                raise
            RESULTS.append(f"[criterion {num:2d}] PASS {label}: {detail}")

        return wrapper

    return deco


# Pre-training step sizes shared by the desk-scale runs: weights and
# inclusion logits move fast, prior values and hyperparameters crawl.
PRE_LR = {"weights": 0.01, "omega": 0.05, "sigma2": 1e-3, "psi": 1e-3,
          "psi_hyper": 1e-3, "beta_hyper": 1e-5}


def _generic_point(state, seed, scale=0.2):
    """Nudge every variational parameter off its symmetric init."""
    gen = np.random.default_rng(seed)
    names = ("kappa", "rho", "omega", "xi", "factor", "log_diag", "chol_raw")
    for _, name, arr in state.param_items():
        if name in names:
            arr += scale * gen.standard_normal(arr.shape)
    return state


@criterion(1, "gradient fidelity vs finite differences")
def test_criterion_01_gradient_fidelity():
    """Every gradient coordinate matches central FD of the estimate.

    Network 4-2-3-2, 8 observations, delta=0.1, M=1, shared noise key,
    h=1e-5; tolerance per coordinate is 1e-4 relative with a 1e-7
    absolute floor, for the factorized and both correlated families.
    """
    t0 = time.time()
    gen = np.random.default_rng(11)
    x = gen.normal(size=(8, 4))
    y = gen.integers(0, 2, size=8)
    batch = Batch(x, y, n_total=8)
    h = 1e-5
    worst = 0.0
    n_coords = 0
    for family, rank in ((Family.MF, 0), (Family.MVN_FULL, 0),
                         (Family.MVN_LOWRANK, 2)):
        state = init_state(NetworkSpec((4, 2, 3, 2)), PriorConfig(), family,
                           RngStream(5, 0), rank=rank)
        _generic_point(state, seed=13)

        def estimate():
            return elbo_estimate(state, batch, 1, 0.1, RngStream(23, 0))

        value, grads = elbo_gradient(state, batch, 1, 0.1, RngStream(23, 0))
        assert abs(value - estimate()) <= 1e-9, "value must match the estimate"
        for l, name, g in grads.items():
            if g is None:
                continue
            arr = getattr(state.layers[l], name)
            flat_g = np.asarray(g).reshape(-1)
            flat_p = arr.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = estimate()
                flat_p[i] = orig - h
                down = estimate()
                flat_p[i] = orig
                fd = (up - down) / (2.0 * h)
                err = abs(flat_g[i] - fd)
                tol = max(1e-4 * abs(fd), 1e-7)
                assert err <= tol, (
                    f"{family.name} layer {l} {name}[{i}]: grad {flat_g[i]!r} "
                    f"vs fd {fd!r} (err {err:.3e}, tol {tol:.3e})"
                )
                worst = max(worst, err / tol)
                n_coords += 1
    dt = time.time() - t0
    assert dt < 60.0, f"took {dt:.1f}s, budget 60s"
    return (f"{n_coords} coordinates over 3 families, worst error at "
            f"{worst:.3f} of tolerance (1e-4 rel, 1e-7 floor), {dt:.1f}s")


@criterion(2, "analytic KL vs Monte Carlo log-ratio")
def test_criterion_02_kl_oracle():
    """Closed-form KL equals the sampled log-ratio mean within 3 SE.

    The oracle redraws everything with numpy/scipy primitives: hard
    indicators from their exact marginals, slabs from the variational
    Gaussian, mass terms at the drawn indicator. 20 random states,
    1e5 draws each.
    """
    gen = np.random.default_rng(42)
    n_draws = 100_000
    worst = 0.0
    for s in range(20):
        state = init_state(NetworkSpec((3, 2)), PriorConfig(), Family.MF,
                           RngStream(100 + s, 0))
        for layer in state.layers:
            layer.omega[...] = gen.normal(0.0, 1.5, size=layer.shape)
            layer.kappa[...] = gen.normal(0.0, 1.0, size=layer.shape)
            layer.rho[...] = gen.normal(-1.0, 0.7, size=layer.shape)
            layer.logit_psi[0] = gen.normal(0.0, 1.0)
            layer.log_sigma2[0] = gen.normal(0.0, 0.7)
        analytic = kl_state(state)
        totals = np.zeros(n_draws)
        for layer in state.layers:
            a = expit(layer.omega.reshape(-1))
            k = layer.kappa.reshape(-1)
            t = np.logaddexp(0.0, layer.rho.reshape(-1))  # softplus
            psi = float(expit(layer.logit_psi[0]))
            sd_prior = float(np.exp(0.5 * layer.log_sigma2[0]))
            nu = gen.uniform(size=(n_draws, a.size))
            eps = gen.standard_normal((n_draws, a.size))
            g = (nu < a).astype(np.float64)
            beta = k + t * eps
            log_ratio_slab = (stats.norm.logpdf(beta, loc=k, scale=t)
                              - stats.norm.logpdf(beta, loc=0.0, scale=sd_prior))
            mass = (g * (np.log(a) - np.log(psi))
                    + (1.0 - g) * (np.log1p(-a) - np.log1p(-psi)))
            totals += np.sum(g * log_ratio_slab + mass, axis=1)
        mc = float(totals.mean())
        se = float(totals.std(ddof=1)) / np.sqrt(n_draws)
        pull = abs(analytic - mc) / se
        assert pull <= 3.0, (
            f"state {s}: analytic {analytic!r} vs MC {mc!r} "
            f"is {pull:.2f} SE away (SE {se:.4f})"
        )
        worst = max(worst, pull)
    return (f"20 random states, 1e5 draws each, worst |analytic - MC| "
            f"= {worst:.2f} SE (tol 3 SE)")


@criterion(3, "minibatch partition identity")
def test_criterion_03_minibatch_identity():
    """Mean of part estimates equals the full-batch estimate (1e-10).

    All estimates share one noise key, so the identity is exact up to
    floating point accumulation.
    """
    gen = np.random.default_rng(7)
    x = gen.normal(size=(12, 4))
    y = gen.integers(0, 2, size=12)
    state = init_state(NetworkSpec((4, 2, 3, 2)), PriorConfig(), Family.MF,
                       RngStream(6, 0))
    _generic_point(state, seed=8)
    full = elbo_estimate(state, Batch(x, y, n_total=12), 1, 0.1,
                         RngStream(77, 0))
    parts = [
        elbo_estimate(state, Batch(x[i:i + 4], y[i:i + 4], n_total=12), 1,
                      0.1, RngStream(77, 0))
        for i in range(0, 12, 4)
    ]
    diff = abs(float(np.mean(parts)) - full)
    tol = 1e-10 * max(1.0, abs(full))
    assert diff <= tol, f"|mean(parts) - full| = {diff!r} > {tol!r}"
    return f"|mean(3 disjoint parts) - full batch| = {diff:.3e} (tol 1e-10)"


@criterion(4, "small-temperature indicator limit")
def test_criterion_04_concrete_limit():
    """Relaxed draws at delta=0.01 estimate alpha; hard matches rounding.

    |mean relaxed draw - alpha| < 0.02 at alpha in {0.1, 0.5, 0.9} over
    1e5 draws, and hard-mode indicators agree with the rounded relaxed
    draw on shared noise in at least 99% of 1e5 cases.
    """
    rng = RngStream(404, 0)
    gaps = []
    for a in (0.1, 0.5, 0.9):
        nu = rng.uniform(100_000)
        gap = abs(float(np.mean(concrete_from_logits(logit(a), nu, 0.01))) - a)
        assert gap < 0.02, f"alpha={a}: |mean - alpha| = {gap:.4f}"
        gaps.append(gap)
    state = init_state(NetworkSpec((499, 2)), PriorConfig(), Family.MF,
                       RngStream(8, 0))
    gen = np.random.default_rng(5)
    state.layers[0].omega[...] = gen.normal(0.0, 2.0,
                                            size=state.layers[0].shape)
    agree = 0
    total = 0
    for d in range(100):
        relaxed = sample_network(state, 0.01, "relaxed", RngStream(51, d))
        hard = sample_network(state, 0.01, "hard", RngStream(51, d))
        rounded = np.rint(relaxed.layers[0].gamma_tilde)
        agree += int(np.sum(rounded == hard.layers[0].gamma_tilde))
        total += rounded.size
    rate = agree / total
    assert rate >= 0.99, f"hard vs rounded agreement {rate:.4f} < 0.99"
    return (f"worst |mean draw - alpha| = {max(gaps):.4f} (tol 0.02), "
            f"hard/rounded agreement {100.0 * rate:.3f}% of {total} "
            f"(tol >= 99%)")


def _sparse_recovery(family, rank, phases):
    """Criterion 5's runs and bounds for one family.

    Returns (Bayes accuracy, one (true kept, false kept, med/mea
    accuracy) row per seed).
    """
    train_ds, support, coefs = synth_logistic(2000, 20, 5, 2.0, seed=101)
    test_ds, _, test_coefs = synth_logistic(4000, 20, 5, 2.0, seed=202)
    assert np.array_equal(coefs, test_coefs)
    bayes = bayes_optimal_accuracy(coefs, 200_000, seed=303)
    rows = []
    for seed in range(1, 6):
        state, _ = train(NetworkSpec((20, 2)), PriorConfig(), family,
                         phases, train_ds.features, train_ds.labels,
                         seed=seed, rank=rank)
        mask = median_model(state)[0]
        feat = mask[1:, :].max(axis=1) > 0.5  # row 0 is the bias
        true_in = int(np.sum(feat[:5]))
        false_in = int(np.sum(feat[5:]))
        result = predict(state, test_ds.features, PredictionMode("med", "mea"))
        acc = float(np.mean(np.argmax(result.probs, axis=1) == test_ds.labels))
        doubt = classify_with_doubt(result.probs, 0.95)
        acc_doubt = accuracy(doubt.decisions, test_ds.labels,
                             restrict_to_classified=True)
        assert true_in >= 4, f"seed {seed}: kept {true_in}/5 true features"
        assert false_in <= 3, f"seed {seed}: kept {false_in} false features"
        assert abs(acc - bayes) <= 0.02, (
            f"seed {seed}: accuracy {acc:.4f} vs Bayes {bayes:.4f}"
        )
        assert acc_doubt >= acc, (
            f"seed {seed}: doubt accuracy {acc_doubt:.4f} < all-class {acc:.4f}"
        )
        rows.append((true_in, false_in, acc))
    return bayes, rows


@criterion(5, "sparse support recovery near Bayes accuracy")
def test_criterion_05_sparsity_recovery():
    """Zero-hidden-layer runs recover the support of a sparse logistic.

    Five seeds on 2000x20 data with 5 active coefficients: the median
    model keeps >= 4 true and <= 3 false features every time, and the
    median/mean decision rule lands within 2 points of the generator's
    Bayes accuracy (200k-draw MC estimate) on 4000 fresh rows. Doubt
    at 0.95 never lowers accuracy on the classified rows.
    """
    t0 = time.time()
    phases = [
        PhaseConfig("pretrain", epochs=5, lr=dict(PRE_LR), batch_size=100),
        PhaseConfig("train", epochs=40, lr={"weights": 0.01, "omega": 0.1},
                    batch_size=100),
    ]
    bayes, rows = _sparse_recovery(Family.MF, 0, phases)
    dt = time.time() - t0
    assert dt < 300.0, f"took {dt:.1f}s, budget 300s"
    worst_gap = max(abs(acc - bayes) for _, _, acc in rows)
    return (f"5 seeds: true kept {[r[0] for r in rows]}, false kept "
            f"{[r[1] for r in rows]} (tol >=4 / <=3), worst |acc - Bayes "
            f"{bayes:.4f}| = {worst_gap:.4f} (tol 0.02), {dt:.1f}s")


@pytest.mark.parametrize("family,rank", [(Family.MVN_LOWRANK, 2), (Family.MVN_FULL, 0)],
                         ids=["mvn_lowrank_r2", "mvn_full"])
def test_correlated_families_recover_the_sparse_support(family, rank):
    """Criterion 5's data, seeds and bounds for the correlated families.

    A guard beside the criteria, not one of them: the criterion runs
    mean field only.  The correlated logits move with step sizes of
    their own (xi 0.05 in pre-training, 0.1 in training; cov 0.01).
    """
    phases = [
        PhaseConfig("pretrain", epochs=5, lr=dict(PRE_LR, xi=0.05, cov=0.01),
                    batch_size=100),
        PhaseConfig("train", epochs=40, lr={"weights": 0.01, "xi": 0.1, "cov": 0.01},
                    batch_size=100),
    ]
    _sparse_recovery(family, rank, phases)


MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}

MNIST_HELP = (
    "handwritten-digit IDX files not found: this sandbox cannot fetch them "
    "(DNS to the public hosts fails; the package mirror has no dataset "
    "distribution), so place the four MNIST IDX files (gzipped accepted) "
    "in $SLABNN_MNIST_DIR or ./data/mnist and rerun"
)


def _find_mnist(tmp_path):
    """Locate the four IDX files, decompressing gzipped copies."""
    roots = []
    env = os.environ.get("SLABNN_MNIST_DIR")
    if env:
        roots.append(pathlib.Path(env))
    roots.append(pathlib.Path(__file__).resolve().parent.parent
                 / "data" / "mnist")
    for root in roots:
        found = {}
        for key, names in MNIST_FILES.items():
            for name in names:
                for cand in (root / name, root / (name + ".gz")):
                    if cand.is_file():
                        found[key] = cand
                        break
                if key in found:
                    break
        if len(found) == len(MNIST_FILES):
            out = {}
            for key, path in found.items():
                if path.suffix == ".gz":
                    dest = tmp_path / path.stem
                    with gzip.open(path, "rb") as src, open(dest, "wb") as dst:
                        shutil.copyfileobj(src, dst)
                    out[key] = dest
                else:
                    out[key] = path
            return out
    return None


@criterion(6, "handwritten-digit desk-scale run")
def test_criterion_06_digits_desk_scale(tmp_path):
    """Desk-scale digit run: accuracy, sparsity and doubt directions.

    10k train / 2k test rows, net 784-64-32-10, 5 pretrain + 30 train
    epochs at batch 100: all-connections mean accuracy >= 0.93, median
    density <= 0.5, median/sampled with 10 replicates within 1 point
    of all/mean, doubt accuracy >= all-class accuracy, under 30 min.
    """
    files = _find_mnist(tmp_path)
    if files is None:
        pytest.fail(MNIST_HELP)
    t0 = time.time()
    train_ds = load_idx(files["train_images"], files["train_labels"])
    test_ds = load_idx(files["test_images"], files["test_labels"])
    xtr, ytr = train_ds.features[:10_000], train_ds.labels[:10_000]
    xte, yte = test_ds.features[:2_000], test_ds.labels[:2_000]
    phases = [
        PhaseConfig("pretrain", epochs=5, lr=dict(PRE_LR), batch_size=100),
        PhaseConfig("train", epochs=30, lr={"weights": 0.01, "omega": 0.1},
                    batch_size=100),
    ]
    state, _ = train(NetworkSpec((784, 64, 32, 10)), PriorConfig(), Family.MF,
                     phases, xtr, ytr, seed=1)
    res_all = predict(state, xte, PredictionMode("all", "mea"))
    acc_all = float(np.mean(np.argmax(res_all.probs, axis=1) == yte))
    res_med = predict(state, xte, PredictionMode("med", "sim", replicates=10),
                      rng=RngStream(66, 999))
    acc_med = float(np.mean(np.argmax(res_med.probs, axis=1) == yte))
    density = density_level(res_med.masks)
    doubt = classify_with_doubt(res_all.probs, 0.95)
    acc_doubt = accuracy(doubt.decisions, yte, restrict_to_classified=True)
    dt = time.time() - t0
    assert acc_all >= 0.93, f"all/mean accuracy {acc_all:.4f} < 0.93"
    assert density <= 0.5, f"median density {density:.4f} > 0.5"
    assert abs(acc_med - acc_all) <= 0.01, (
        f"med/sim {acc_med:.4f} vs all/mean {acc_all:.4f}"
    )
    assert acc_doubt >= acc_all, (
        f"doubt accuracy {acc_doubt:.4f} < all-class {acc_all:.4f}"
    )
    assert dt < 1800.0, f"took {dt:.0f}s, budget 1800s"
    return (f"all/mean {acc_all:.4f} (tol >=0.93), median density "
            f"{density:.4f} (tol <=0.5), med/sim gap "
            f"{abs(acc_med - acc_all):.4f} (tol 0.01), doubt "
            f"{acc_doubt:.4f} >= {acc_all:.4f}, {dt:.0f}s")


@criterion(7, "low-rank sampler covariance moments")
def test_criterion_07_lowrank_covariance():
    """Empirical covariance of the 6-dim low-rank logits matches FF'+D.

    1e5 sampler draws; every entry of the 6x6 empirical covariance sits
    within 3 standard errors of the target.
    """
    state = init_state(NetworkSpec((2, 2)), PriorConfig(),
                       Family.MVN_LOWRANK, RngStream(70, 0), rank=2)
    layer = state.layers[0]  # one 3x2 block -> 6 logit dimensions
    gen = np.random.default_rng(17)
    layer.xi[...] = gen.normal(0.0, 1.0, size=6)
    layer.factor[...] = gen.normal(0.0, 0.8, size=(6, 2))
    layer.log_diag[...] = gen.normal(-1.0, 0.5, size=6)
    target = layer.factor @ layer.factor.T + np.diag(np.exp(layer.log_diag))
    n = 100_000
    rng = RngStream(71, 2)
    draws = np.empty((n, 6))
    for i in range(n):
        draws[i] = sample_network(state, 0.1, "relaxed",
                                  rng).layers[0].logits.reshape(-1)
    emp = np.cov(draws, rowvar=False)
    d = np.diag(target)
    se = np.sqrt((np.outer(d, d) + target**2) / n)
    worst = float(np.max(np.abs(emp - target) / se))
    assert worst <= 3.0, f"worst covariance entry {worst:.2f} SE off"
    return (f"6x6 covariance over 1e5 draws, worst entry |empirical - "
            f"target| = {worst:.2f} SE (tol 3 SE)")


@criterion(8, "dense special case is a plain Gaussian field")
def test_criterion_08_dense_special_case():
    """fixed_dense: KL reduces to the Gaussian sum, masks are all ones.

    Both checks are exact: the KL equality is bit-for-bit against the
    standalone Gaussian KL kernel, and 50 relaxed plus 50 hard draws
    produce indicator matrices equal to 1.0 everywhere.
    """
    state = init_state(NetworkSpec((4, 3, 2)),
                       PriorConfig(fixed_dense=True), Family.MF,
                       RngStream(80, 0))
    _generic_point(state, seed=81)
    expected = 0.0
    for layer in state.layers:
        expected += float(np.sum(kl_gaussian(layer.kappa, layer.tau(),
                                             layer.sigma2())))
    actual = kl_state(state)
    assert actual == expected, f"{actual!r} != {expected!r} (exact)"
    rng = RngStream(81, 2)
    n_masks = 0
    for mode in ("relaxed", "hard"):
        for _ in range(50):
            net = sample_network(state, 0.1, mode, rng)
            for ls in net.layers:
                assert np.all(ls.gamma_tilde == 1.0)
                assert np.all(ls.alpha == 1.0)
                n_masks += 1
    return (f"KL equality exact ({actual!r}), {n_masks} sampled masks "
            f"all ones bit-exactly")


@criterion(9, "shifted-domain entropy separation")
def test_criterion_09_shifted_domain_entropy():
    """Predictive entropy is higher off the training manifold.

    Train on Gaussian class clusters, compare the entropy CDFs of an
    in-domain test set against the same set translated by 4 units:
    the out-of-domain median entropy strictly exceeds the in-domain
    one. Doubt at 0.95 keeps accuracy on in-domain classified rows.
    """
    # One 900-row draw: rows 0..599 train, rows 600..899 are fresh
    # in-domain rows from the same class means; the shifted call
    # reproduces the identical rows translated by 4 in every feature.
    full = synth_clusters(900, 8, 3, separation=3.0, seed=11)
    shifted = synth_clusters(900, 8, 3, separation=3.0, shift=4.0, seed=11)
    x_train, y_train = full.features[:600], full.labels[:600]
    x_in, y_in = full.features[600:], full.labels[600:]
    x_out = shifted.features[600:]
    phases = [
        PhaseConfig("pretrain", epochs=5, lr=dict(PRE_LR), batch_size=100),
        PhaseConfig("train", epochs=30, lr={"weights": 0.01, "omega": 0.05},
                    batch_size=100),
    ]
    state, _ = train(NetworkSpec((8, 16, 3)), PriorConfig(), Family.MF,
                     phases, x_train, y_train, seed=1)
    mode = PredictionMode("sim", "sim", replicates=20)
    res_in = predict(state, x_in, mode, rng=RngStream(9, 999))
    res_out = predict(state, x_out, mode, rng=RngStream(9, 1001))
    med_in = entropy_cdf(res_in.probs).median
    med_out = entropy_cdf(res_out.probs).median
    assert med_out > med_in, (
        f"median entropy out {med_out:.4f} <= in {med_in:.4f}"
    )
    acc_all = float(np.mean(np.argmax(res_in.probs, axis=1) == y_in))
    doubt = classify_with_doubt(res_in.probs, 0.95)
    acc_doubt = accuracy(doubt.decisions, y_in,
                         restrict_to_classified=True)
    assert acc_doubt >= acc_all, (
        f"doubt accuracy {acc_doubt:.4f} < all-class {acc_all:.4f}"
    )
    return (f"median entropy in-domain {med_in:.4f} < shifted {med_out:.4f} "
            f"(strict), doubt {acc_doubt:.4f} >= all-class {acc_all:.4f}")


@criterion(10, "deterministic persistence and ascending trace")
def test_criterion_10_persistence_and_trace(tmp_path):
    """Reruns byte-identical, round trip bit-exact, trace ascends.

    The 50-epoch run on the criterion-5 generator uses 64 draws per
    step so the recorded epoch means resolve the ascent: after epoch 5
    no epoch-to-epoch drop may exceed 0.5 nats. The same run, repeated
    with the same seed, must produce byte-identical checkpoint files,
    and saving what was loaded must reproduce the file and the
    parameters bit-exactly.
    """
    ds, _, _ = synth_logistic(2000, 20, 5, 2.0, seed=101)
    phases = [PhaseConfig("train", epochs=50,
                          lr={"weights": 2e-3, "omega": 0.02},
                          batch_size=100, draws=64)]

    def run(out_dir):
        return train(NetworkSpec((20, 2)), PriorConfig(), Family.MF, phases,
                     ds.features, ds.labels, seed=1,
                     checkpoint_dir=str(out_dir))

    state, report = run(tmp_path / "a")
    run(tmp_path / "b")
    bytes_a = (tmp_path / "a" / "checkpoint_final.lbnn").read_bytes()
    bytes_b = (tmp_path / "b" / "checkpoint_final.lbnn").read_bytes()
    assert bytes_a == bytes_b, "same config and seed gave different bytes"

    data = load_checkpoint(tmp_path / "a" / "checkpoint_final.lbnn")
    resaved = tmp_path / "resaved.lbnn"
    save_checkpoint(resaved, data.state, rng_words=data.rng_words,
                    counters=data.counters)
    assert resaved.read_bytes() == bytes_a, "round trip changed the file"
    for (l1, n1, a1), (l2, n2, a2) in zip(state.param_items(),
                                          data.state.param_items()):
        assert (l1, n1) == (l2, n2)
        assert a1.tobytes() == a2.tobytes(), f"layer {l1} {n1} not bit-exact"

    elbo = [r["elbo"] for r in report.records]
    assert len(elbo) == 50
    drops = [elbo[i] - elbo[i + 1] for i in range(4, len(elbo) - 1)]
    worst = max(drops)
    assert worst <= 0.5, f"worst post-epoch-5 drop {worst:.3f} nats > 0.5"
    return (f"checkpoints byte-identical ({len(bytes_a)} bytes), round trip "
            f"bit-exact, worst post-epoch-5 trace drop {worst:.3f} nats "
            f"(tol 0.5)")
