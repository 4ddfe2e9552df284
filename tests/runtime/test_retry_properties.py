"""Property tests for the retry/backoff machinery (hypothesis).

The analysis supervisor leans on ``is_retryable_exception`` and the
seeded jitter schedule for its determinism contract, so these pin the
properties rather than examples: typed errors never retry (even under
multiple inheritance with the transient types), a ``(policy, seed)``
pair replays a byte-stable schedule, and backoff is monotone and
bounded.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.runtime.retry import (
    RETRYABLE_TYPES,
    RetryPolicy,
    is_retryable_exception,
)

POLICIES = st.builds(
    RetryPolicy,
    max_retries=st.integers(min_value=0, max_value=8),
    backoff_base=st.floats(min_value=0.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False),
    backoff_factor=st.floats(min_value=1.0, max_value=8.0,
                             allow_nan=False, allow_infinity=False),
    backoff_max=st.floats(min_value=0.0, max_value=120.0,
                          allow_nan=False, allow_infinity=False),
    jitter=st.floats(min_value=0.0, max_value=2.0,
                     allow_nan=False, allow_infinity=False),
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestRetryablePredicate:
    @pytest.mark.parametrize("base", RETRYABLE_TYPES)
    def test_plain_transient_types_retry(self, base):
        assert is_retryable_exception(base("boom"))

    @pytest.mark.parametrize("base", RETRYABLE_TYPES)
    def test_repro_error_hybrids_never_retry(self, base):
        """ReproError wins over every transient type it's crossed with.

        A typed library error is a deterministic property of the data;
        inheriting OSError (as AddressError inherits ValueError) must
        not smuggle it into the retry loop.
        """
        hybrid = type(f"Hybrid{base.__name__}", (ReproError, base), {})
        assert not is_retryable_exception(hybrid("boom"))
        reversed_mro = type(f"R{base.__name__}", (base, ReproError), {})
        assert not is_retryable_exception(reversed_mro("boom"))

    def test_foreign_exceptions_never_retry(self):
        for exc in (ValueError("x"), KeyError("x"), RuntimeError("x"),
                    Exception("x")):
            assert not is_retryable_exception(exc)

    def test_retryable_subclasses_retry(self):
        # the common concrete forms supervisors actually see
        for exc in (FileNotFoundError("x"), ConnectionResetError("x"),
                    BrokenPipeError("x")):
            assert is_retryable_exception(exc)


class TestScheduleDeterminism:
    @given(policy=POLICIES, seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_schedule_is_byte_stable(self, policy, seed):
        """Same (policy, seed) → the exact same floats, run after run."""
        first = policy.schedule(seed)
        second = RetryPolicy(
            max_retries=policy.max_retries,
            backoff_base=policy.backoff_base,
            backoff_factor=policy.backoff_factor,
            backoff_max=policy.backoff_max,
            jitter=policy.jitter).schedule(seed)
        assert first == second  # exact float equality, not approx
        assert len(first) == policy.max_retries


class TestBackoffShape:
    @given(policy=POLICIES, seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_delays_bounded(self, policy, seed):
        """Every delay ≤ backoff_max * (1 + jitter), and never negative."""
        cap = policy.backoff_max * (1.0 + policy.jitter)
        rng = random.Random(seed)
        for attempt in range(12):
            delay = policy.delay(attempt, rng)
            assert 0.0 <= delay <= cap + 1e-9

    @given(base=st.floats(min_value=0.001, max_value=10.0),
           factor=st.floats(min_value=1.0, max_value=8.0),
           cap=st.floats(min_value=0.001, max_value=120.0))
    @settings(max_examples=60, deadline=None)
    def test_jitterless_backoff_is_monotone(self, base, factor, cap):
        policy = RetryPolicy(max_retries=8, backoff_base=base,
                             backoff_factor=factor, backoff_max=cap,
                             jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in range(10)]
        assert all(a <= b + 1e-12 for a, b in zip(delays, delays[1:]))
        assert delays[-1] <= cap + 1e-12
