"""Numeric primitives: transforms and the counter-based stream."""

import numpy as np
import pytest

from scipy.special import logit

from slabnn.errors import DomainError, NumericError, ShapeError
from slabnn.numkernel import (RngStream, as_vector, log_sigmoid, log_softmax, sigmoid,
                              softplus, softplus_inv)


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
    assert np.all(np.abs(recon - tail) < 4.0 * np.finfo(float).eps * np.exp(tail))


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


def test_as_vector_validation():
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.float64 and v.flags["C_CONTIGUOUS"]
    assert v.shape == (2,)
    with pytest.raises(ShapeError):
        as_vector([[1.0], [2.0]])
    with pytest.raises(ShapeError):
        as_vector([1.0, 2.0], 3)


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
