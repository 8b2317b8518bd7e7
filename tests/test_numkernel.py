"""Numeric primitives: transforms and the counter-based stream."""

import warnings

import numpy as np
import pytest
from scipy import special

from conftest import pin_cores
from slabnn.distributions import kl_bernoulli
from slabnn.errors import DomainError, NumericError, ShapeError
from slabnn.numkernel import (RngStream, compute_threads, log_sigmoid, log_softmax, logit,
                              sigmoid, softplus, softplus_inv, xlogy)

EPS = np.finfo(float).eps
N_HALF = 500_000  # each accuracy test checks about 10**6 seeded inputs


def _ulps(got, ref):
    return np.abs(got - ref) / np.spacing(np.abs(ref))


def _wide_inputs():
    # Half spread evenly over [-700, 700] (mostly the saturated tails),
    # half N(0, 10**2) (the transition region).
    rng = RngStream(2024, 0)
    return np.concatenate([(rng.uniform(N_HALF) - 0.5) * 1400.0,
                           rng.std_normal(N_HALF) * 10.0])


def test_sigmoid_logit_round_trip():
    # Above ~15 the round trip is limited by 1 - p collapsing toward the
    # spacing of doubles near 1, so exactness is only demanded below that.
    x = np.linspace(-30.0, 15.0, 91)
    p = sigmoid(x)
    assert np.all(p > 0.0) and np.all(p < 1.0)
    np.testing.assert_allclose(logit(p), x, rtol=0, atol=1e-9)
    tail = np.linspace(16.0, 30.0, 15)
    recon = logit(sigmoid(tail))
    # absolute error bounded by eps / (1 - p) ~ eps * e^x
    assert np.all(np.abs(recon - tail) < 4.0 * EPS * np.exp(tail))


@pytest.mark.parametrize("kernel, reference", [
    (sigmoid, special.expit),
    (softplus, lambda v: np.logaddexp(0.0, v)),
    (log_sigmoid, lambda v: -np.logaddexp(0.0, -v)),
], ids=["sigmoid", "softplus", "log_sigmoid"])
def test_kernels_within_8_ulp_of_scalar_references(kernel, reference):
    x = _wide_inputs()
    assert np.max(_ulps(kernel(x), reference(x))) <= 8.0


def test_logit_matches_scipy_on_stream_uniforms():
    u = RngStream(2024, 1).uniform(2 * N_HALF)
    ref = special.logit(u)
    # scipy switches to a log1p form near 1/2, where the quotient form is
    # accurate to eps absolute only; elsewhere the bound is relative.
    assert np.all(np.abs(logit(u) - ref) <= 8.0 * EPS * np.maximum(1.0, np.abs(ref)))


def test_xlogy_and_kl_bernoulli_within_8_ulp():
    a = RngStream(2024, 2).uniform(2 * N_HALF)
    p = RngStream(2024, 3).uniform(2 * N_HALF)
    y = a / p
    assert np.max(_ulps(xlogy(a, y), special.xlogy(a, y))) <= 8.0
    first = special.xlogy(a, a / p)
    second = special.xlogy(1.0 - a, (1.0 - a) / (1.0 - p))
    # Where alpha is near psi the two terms cancel, so the error is
    # measured in units of the larger term, whose rounding the sum inherits.
    scale = np.maximum(np.abs(first), np.abs(second))
    err = np.abs(kl_bernoulli(a, p) - (first + second))
    assert np.max(err / np.spacing(scale)) <= 8.0
    ends = np.array([0.0, 1.0])
    np.testing.assert_array_equal(
        kl_bernoulli(ends, 0.25),
        special.xlogy(ends, ends / 0.25) + special.xlogy(1.0 - ends, (1.0 - ends) / 0.75))


def test_exact_values_and_special_inputs():
    assert logit(0.5) == 0.0
    specials = np.array([np.inf, -np.inf, np.nan, 0.0])
    np.testing.assert_array_equal(sigmoid(specials), special.expit(specials))
    with np.errstate(invalid="ignore"):  # the reference warns at +/-inf
        np.testing.assert_array_equal(softplus(specials), np.logaddexp(0.0, specials))
        np.testing.assert_array_equal(log_sigmoid(specials), -np.logaddexp(0.0, -specials))
    probs = np.array([0.0, 1.0, 0.5, 2.0, -1.0, np.inf, -np.inf, np.nan])
    np.testing.assert_array_equal(logit(probs), special.logit(probs))
    xs = np.array([0.0, 0.0, 0.0, 2.0, 2.0, np.nan])
    ys = np.array([0.0, np.nan, np.inf, 0.0, -1.0, 1.0])
    np.testing.assert_array_equal(xlogy(xs, ys), special.xlogy(xs, ys))


def test_scalars_in_scalars_out_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (750.0, -750.0, np.inf, -np.inf):
            for kernel in (sigmoid, softplus, log_sigmoid):
                out = kernel(v)
                assert np.ndim(out) == 0 and isinstance(out, float)
                assert out == kernel(np.array([v]))[0]
        for v in (0.0, 1.0, 0.25):
            out = logit(v)
            assert np.ndim(out) == 0 and isinstance(out, float)
        out = xlogy(0.0, 0.0)
        assert np.ndim(out) == 0 and out == 0.0
        sigmoid(np.array([750.0, -750.0]))
        logit(np.array([0.0, 1.0, 2.0]))
        xlogy(np.array([0.0, 1.0]), np.array([0.0, 0.0]))


def test_sigmoid_known_values():
    assert sigmoid(0.0) == 0.5
    # sigmoid(ln 3) = 3/4 exactly in real arithmetic
    np.testing.assert_allclose(sigmoid(np.log(3.0)), 0.75, rtol=1e-15)


def test_softplus_inverse_and_large_arguments():
    x = np.array([-700.0, -5.0, 0.0, 5.0, 700.0])
    sp = softplus(x)
    assert np.all(np.isfinite(sp)) and np.all(sp > 0.0)
    # softplus(700) = 700 to double precision
    assert sp[-1] == 700.0
    np.testing.assert_allclose(softplus_inv(softplus(x[1:4])), x[1:4], atol=1e-12)
    for y in (0.0, -1.0, np.nan, np.inf, [1.0, np.nan]):
        with pytest.raises(DomainError):
            softplus_inv(y)


@pytest.mark.filterwarnings("error")
def test_softplus_inverse_finite_up_to_the_largest_doubles():
    # expm1 overflows above y = 709.78; the inverse must not.
    y = np.concatenate([np.logspace(-1, 308, 400),
                        [30.0, np.nextafter(30.0, 31.0), 709.78, 710.0, 1e308]])
    x = softplus_inv(y)
    assert np.all(np.isfinite(x))
    assert np.max(_ulps(softplus(x), y)) <= 2.0
    assert softplus_inv(710.0) == 710.0


def test_log_sigmoid_matches_log_of_sigmoid():
    x = np.array([-40.0, -1.0, 0.0, 1.0, 40.0])
    np.testing.assert_allclose(log_sigmoid(x[1:4]), np.log(sigmoid(x[1:4])), atol=1e-12)
    # far tail stays finite and linear
    assert log_sigmoid(np.array([-40.0]))[0] == pytest.approx(-40.0, abs=1e-12)


def test_log_softmax_frozen_value():
    out = log_softmax(np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(
        out[0],
        [-2.4076059644443806, -1.4076059644443806, -0.4076059644443806],
        atol=1e-15,
    )
    np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)


def test_log_softmax_shift_invariance_and_overflow():
    row = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(log_softmax(row), log_softmax(row + 1000.0), atol=1e-12)
    big = log_softmax(np.array([[0.0, 800.0]]))
    assert np.all(np.isfinite(big[0, 1:]))


def test_log_softmax_rejects_nan():
    with pytest.raises(NumericError):
        log_softmax(np.array([[np.nan, 0.0]]))


class TestRngStream:
    def test_uniform_open_interval_and_moments(self):
        rng = RngStream(123, 0)
        u = rng.uniform(200_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        # mean 1/2, sd sqrt(1/12)/sqrt(n): allow 5 standard errors
        assert abs(u.mean() - 0.5) < 5 * np.sqrt(1.0 / 12.0 / u.size)

    def test_std_normal_moments(self):
        z = RngStream(7, 1).std_normal(200_000)
        assert abs(z.mean()) < 5 / np.sqrt(z.size)
        assert abs(z.std() - 1.0) < 5 / np.sqrt(2.0 * z.size)

    def test_streams_disjoint(self):
        a = RngStream(42, 0).uniform(1000)
        b = RngStream(42, 1).uniform(1000)
        assert not np.allclose(a, b)

    def test_same_key_reproduces(self):
        a = RngStream(42, 3).uniform(1000)
        b = RngStream(42, 3).uniform(1000)
        np.testing.assert_array_equal(a, b)

    def test_permutation_is_a_permutation(self):
        perm = RngStream(0, 0).permutation(257)
        assert np.array_equal(np.sort(perm), np.arange(257))

    def test_state_words_resume_mid_stream(self):
        rng = RngStream(99, 5)
        rng.uniform(37)  # advance to an odd position
        words = rng.state_words()
        assert words.shape == (15,) and words.dtype == np.uint64
        clone = RngStream.from_state_words(words)
        np.testing.assert_array_equal(clone.uniform(100), rng.uniform(100))
        np.testing.assert_array_equal(clone.std_normal(7), rng.std_normal(7))

    def test_set_state_words_moves_an_existing_stream(self):
        ahead = RngStream(99, 5)
        ahead.std_normal(13)
        rng = RngStream(99, 5)
        rng.set_state_words(ahead.state_words())
        np.testing.assert_array_equal(rng.uniform(20), ahead.uniform(20))
        with pytest.raises(DomainError):
            RngStream(99, 6).set_state_words(ahead.state_words())
        with pytest.raises(ShapeError):
            rng.set_state_words(ahead.state_words()[:14])

    def test_state_words_roundtrip_fresh(self):
        rng = RngStream(5, 2)
        clone = RngStream.from_state_words(rng.state_words())
        np.testing.assert_array_equal(clone.permutation(50), rng.permutation(50))

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            RngStream(-1, 0)
        with pytest.raises(DomainError):
            RngStream(0, 2**64)


def test_compute_threads_is_cores_over_pinned_blas(monkeypatch):
    # The one thread rule of predict and training: cores // blas_threads,
    # where the first variable set to a positive integer pins BLAS.
    pin_cores(monkeypatch, cores=4)  # unpinned BLAS fills the cores itself
    assert compute_threads() == 1
    pin_cores(monkeypatch, cores=4, openblas="1")
    assert compute_threads() == 4
    pin_cores(monkeypatch, cores=4, openblas="0", omp="2")
    assert compute_threads() == 2
    pin_cores(monkeypatch, cores=4, openblas="two", omp="3")
    assert compute_threads() == 1
    pin_cores(monkeypatch, cores=2, openblas="8")
    assert compute_threads() == 1

