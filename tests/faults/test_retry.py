"""The retry primitive: backoff, timeouts, classification, counters."""

import pytest

from repro.faults import (
    OpTimeoutError,
    RetryPolicy,
    RetryStats,
    TransientOpError,
    call_with_retries,
)
from repro.sim import Simulator


def run_retrying(sim, policy, factory, stats=None, op="op"):
    return sim.run_until_complete(
        sim.process(call_with_retries(sim, policy, factory, stats, op=op))
    )


def flaky(sim, failures, exc_factory, result="done", work=0.0):
    """Factory whose first ``failures`` attempts raise, then succeed."""
    state = {"left": failures}

    def attempt():
        if work:
            yield sim.timeout(work)
        else:
            yield sim.timeout(0)
        if state["left"] > 0:
            state["left"] -= 1
            raise exc_factory()
        return result

    return attempt


def test_first_attempt_success_costs_nothing_extra():
    sim = Simulator()
    stats = RetryStats()
    result = run_retrying(
        sim, RetryPolicy(), flaky(sim, 0, lambda: TransientOpError(0, "read")), stats
    )
    assert result == "done"
    assert (stats.attempts, stats.retries, stats.successes) == (1, 0, 1)
    assert stats.successes_after_retry == 0
    assert stats.availability == 1.0


def test_retries_transient_errors_with_exponential_backoff():
    sim = Simulator()
    stats = RetryStats()
    policy = RetryPolicy(max_attempts=4, base_delay=0.01, backoff=2.0, max_delay=1.0)
    result = run_retrying(
        sim, policy, flaky(sim, 2, lambda: TransientOpError(0, "write")), stats
    )
    assert result == "done"
    # Two failed attempts -> backoff sleeps of 0.01 and 0.02 before
    # attempts 2 and 3.
    assert sim.now == pytest.approx(0.03)
    assert (stats.attempts, stats.retries) == (3, 2)
    assert stats.successes_after_retry == 1


def test_backoff_is_capped_at_max_delay():
    policy = RetryPolicy(max_attempts=10, base_delay=0.01, backoff=10.0, max_delay=0.05)
    assert policy.delay_before(1) == 0.0
    assert policy.delay_before(2) == pytest.approx(0.01)
    assert policy.delay_before(3) == pytest.approx(0.05)  # 0.1 capped
    assert policy.delay_before(9) == pytest.approx(0.05)


def test_fatal_errors_propagate_immediately():
    sim = Simulator()
    stats = RetryStats()

    def attempt():
        yield sim.timeout(0)
        raise ValueError("not retryable")

    with pytest.raises(ValueError):
        run_retrying(sim, RetryPolicy(), attempt, stats)
    assert stats.attempts == 1
    assert stats.retries == 0
    assert stats.giveups == 0  # fatal, not exhausted


def test_gives_up_after_max_attempts_and_raises_last_error():
    sim = Simulator()
    stats = RetryStats()
    policy = RetryPolicy(max_attempts=3, base_delay=0.001)
    with pytest.raises(TransientOpError):
        run_retrying(
            sim, policy, flaky(sim, 99, lambda: TransientOpError(5, "read")), stats
        )
    assert (stats.attempts, stats.retries, stats.giveups) == (3, 2, 1)
    assert stats.successes == 0
    assert stats.availability == 0.0


def test_per_attempt_timeout_raises_and_is_counted():
    sim = Simulator()
    stats = RetryStats()
    policy = RetryPolicy(max_attempts=2, base_delay=0.001, op_timeout=0.05)

    def slow_op():
        yield sim.timeout(10.0)
        return "too late"

    with pytest.raises(OpTimeoutError):
        run_retrying(sim, policy, slow_op, stats, op="slow")
    assert stats.timeouts == 2
    assert stats.giveups == 1
    # Both attempts cut off at the deadline, not the op's 10s.
    assert sim.now < 1.0


def test_timeout_then_success():
    sim = Simulator()
    stats = RetryStats()
    policy = RetryPolicy(max_attempts=3, base_delay=0.001, op_timeout=0.05)
    durations = iter([10.0, 0.01])

    def sometimes_slow():
        yield sim.timeout(next(durations))
        return "ok"

    assert run_retrying(sim, policy, sometimes_slow, stats) == "ok"
    assert stats.timeouts == 1
    assert stats.successes_after_retry == 1


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(op_timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
