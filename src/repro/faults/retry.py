"""Retry-with-exponential-backoff and per-op timeouts.

:func:`call_with_retries` is the single retry primitive the consumer
side (I/O paths, dedup engine) builds on: it runs an operation process,
optionally races it against a deadline, classifies any failure via the
``retryable`` attribute convention (:mod:`repro.faults.errors`), and
re-attempts after an exponentially growing backoff sleep — all on the
*simulated* clock, so retry storms and backoff behaviour are measurable
like any other load.

Retried operations must be idempotent.  Every substrate op here is:
transactions address absolute offsets (re-applying is a no-op state-wise),
reference-set adds are set inserts, and removes tolerate absence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from .errors import OpTimeoutError, is_retryable

__all__ = ["OpFactory", "RetryPolicy", "RetryStats", "call_with_retries"]


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for :func:`call_with_retries`.

    ``max_attempts`` counts the first try: 1 disables retries.
    ``op_timeout`` is a per-attempt deadline in simulated seconds;
    ``None`` disables the deadline race.  Backoff before attempt *n*
    (n >= 2) is ``min(max_delay, base_delay * backoff**(n-2))``.
    """

    max_attempts: int = 4
    base_delay: float = 0.002
    backoff: float = 2.0
    max_delay: float = 0.25
    op_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("retry delays must be >= 0")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ValueError(f"op_timeout must be positive, got {self.op_timeout}")

    def delay_before(self, attempt: int) -> float:
        """Backoff sleep before ``attempt`` (2-based; attempt 1 is free)."""
        if attempt <= 1:
            return 0.0
        return min(self.max_delay, self.base_delay * self.backoff ** (attempt - 2))


@dataclass
class RetryStats:
    """Counters kept by the retry layer (one instance per tier)."""

    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    successes: int = 0
    successes_after_retry: int = 0
    giveups: int = 0

    @property
    def availability(self) -> float:
        """Fraction of logical operations that ultimately succeeded."""
        finished = self.successes + self.giveups
        if finished == 0:
            return 1.0
        return self.successes / finished


#: An operation: a zero-argument callable producing a fresh simulation
#: process generator each time it is called (one per attempt).
OpFactory = Callable[[], Generator[Any, Any, Any]]


def call_with_retries(
    sim: Any,
    policy: RetryPolicy,
    factory: OpFactory,
    stats: Optional[RetryStats] = None,
    op: str = "op",
) -> Generator[Any, Any, Any]:
    """Process: run ``factory()`` (a fresh op generator per attempt)
    with per-attempt timeout and retry-with-backoff.

    Retryable failures (``exc.retryable`` truthy, plus the deadline
    expiring) are retried up to ``policy.max_attempts`` total attempts;
    the final failure — or any fatal error — propagates to the caller.
    A timed-out attempt's process is interrupted: whatever simulated
    work it had in flight completes or unwinds via its own ``finally``
    blocks, mirroring a real client abandoning a slow request.  Under
    a :class:`repro.obs.Tracer` an attempt's spans hang under the op
    that retries it, and a failed attempt's spans carry the error's type
    in their ``error`` tag.
    """
    last_exc: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        delay = policy.delay_before(attempt)
        if delay > 0:
            yield sim.timeout(delay)
        if stats is not None:
            stats.attempts += 1
            if attempt > 1:
                stats.retries += 1
        proc = sim.process(factory())
        try:
            if policy.op_timeout is None:
                result = yield proc
            else:
                deadline = sim.timeout(policy.op_timeout)
                fired, value = yield sim.any_of([proc, deadline])
                if fired is proc:
                    result = value
                else:
                    proc.interrupt(f"{op} deadline")
                    if stats is not None:
                        stats.timeouts += 1
                    raise OpTimeoutError(op, policy.op_timeout)
        except BaseException as exc:  # noqa: B036 - classified below
            if not is_retryable(exc):
                raise
            last_exc = exc
            continue
        if stats is not None:
            stats.successes += 1
            if attempt > 1:
                stats.successes_after_retry += 1
        return result
    if stats is not None:
        stats.giveups += 1
    assert last_exc is not None  # max_attempts >= 1, so an attempt ran
    raise last_exc  # exhausted: surface the final retryable error
