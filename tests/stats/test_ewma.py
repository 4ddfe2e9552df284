"""Tests for exponentially weighted moving statistics, checked against a
direct O(n^2) evaluation of the paper's formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import ewm_mean, ewm_mean_std


def reference_ewm_mean(x, span):
    alpha = 2.0 / (span + 1.0)
    out = np.empty(len(x))
    for t in range(len(x)):
        weights = (1.0 - alpha) ** np.arange(t + 1)
        out[t] = np.sum(weights * x[t::-1]) / weights.sum()
    return out


def scalar_ewm_mean(x, span, block=512):
    """The 1-D blockwise recursion, one series per call: the bit-exact
    reference for the batched kernel."""
    decay = 1.0 - 2.0 / (span + 1.0)

    def numerators(values):
        if decay <= 0.0:
            return values.astype(np.float64)
        step = int(min(block, max(1.0, 200.0 / -np.log(decay))))
        out = np.empty(len(values))
        carry = 0.0
        for lo in range(0, len(values), step):
            hi = min(lo + step, len(values))
            powers = decay ** np.arange(hi - lo)
            scaled = np.cumsum(values[lo:hi].astype(np.float64) / powers)
            out[lo:hi] = powers * scaled + powers * decay * carry
            carry = out[hi - 1]
        return out

    return numerators(x) / numerators(np.ones_like(x))


LENGTHS = (1, 2, 511, 512, 513, 864, 1500)


class TestBatchedRows:
    """A ``(rows, n)`` call equals the 1-D calls row by row, bit for bit."""

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("span", (1, 2, 50, 288))
    def test_mean_and_sd_rows_equal_1d(self, n, span):
        rng = np.random.default_rng(n + span)
        x = rng.poisson(2.0, size=(6, n)) * rng.random((6, n))
        x[1] = 0.0
        x[2] = 7.0
        mean, sd = ewm_mean_std(x, span)
        for row, values in enumerate(x):
            row_mean, row_sd = ewm_mean_std(values, span)
            assert np.array_equal(mean[row], row_mean)
            assert np.array_equal(sd[row], row_sd)
            assert np.array_equal(mean[row], scalar_ewm_mean(values, span))

    def test_three_axes(self):
        x = np.random.default_rng(1).random((2, 3, 600))
        got = ewm_mean(x, 288)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], ewm_mean(x[i, j], 288))

    def test_empty_rows(self):
        assert ewm_mean(np.zeros((3, 0)), 5).shape == (3, 0)


class TestEWMMean:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        x = rng.random(200) * 10
        got = ewm_mean(x, span=288)
        want = reference_ewm_mean(x, span=288)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_small_span_matches_reference(self):
        rng = np.random.default_rng(1)
        x = rng.random(600)
        np.testing.assert_allclose(ewm_mean(x, span=2), reference_ewm_mean(x, 2), rtol=1e-9)

    def test_blockwise_continuity(self):
        # Longer than one block: the carry must keep the recursion exact.
        rng = np.random.default_rng(2)
        x = rng.random(2000)
        got = ewm_mean(x, span=288)
        want = reference_ewm_mean(x, span=288)
        np.testing.assert_allclose(got[-10:], want[-10:], rtol=1e-8)

    def test_constant_series(self):
        np.testing.assert_allclose(ewm_mean(np.full(100, 7.0), 288), 7.0)

    def test_first_value_is_itself(self):
        assert ewm_mean(np.array([3.0, 100.0]), 10)[0] == 3.0

    def test_empty(self):
        assert len(ewm_mean(np.array([]), 5)) == 0

    def test_span_one_is_identity(self):
        x = np.array([1.0, 5.0, 2.0])
        np.testing.assert_allclose(ewm_mean(x, 1), x)

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            ewm_mean(np.array([1.0]), 0)

    @settings(max_examples=25)
    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100),
        st.integers(min_value=1, max_value=500),
    )
    def test_mean_bounded_by_minmax(self, values, span):
        x = np.array(values)
        m = ewm_mean(x, span)
        assert (m >= x.min() - 1e-6).all()
        assert (m <= x.max() + 1e-6).all()


class TestEWMStd:
    def test_constant_series_zero_sd(self):
        _, sd = ewm_mean_std(np.full(50, 3.0), 288)
        np.testing.assert_allclose(sd, 0.0, atol=1e-9)

    def test_sd_nonnegative(self):
        rng = np.random.default_rng(3)
        _, sd = ewm_mean_std(rng.random(500), 20)
        assert (sd >= 0).all()

    def test_step_increases_sd(self):
        x = np.r_[np.zeros(50), np.full(50, 10.0)]
        _, sd = ewm_mean_std(x, 30)
        assert sd[60] > sd[40]

    def test_long_run_sd_approximates_population(self):
        rng = np.random.default_rng(4)
        x = rng.normal(10.0, 2.0, size=20_000)
        _, sd = ewm_mean_std(x, span=288)
        assert abs(sd[-1] - 2.0) < 0.4
