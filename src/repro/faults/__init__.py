"""Deterministic fault injection and the retry/backoff layer.

The paper's central robustness claim is that self-contained dedup
metadata rides the underlying storage system's fault tolerance for
free.  This package exists to *test* that claim on demand:

* :class:`FaultPlan` — a seeded, replayable schedule of OSD crashes and
  restarts, slow-disk windows, transient EIO windows, and host-pair
  network partitions;
* :class:`FaultInjector` — executes a plan against a
  :class:`~repro.cluster.RadosCluster` through hooks in the OSD execute
  paths and the network transfer path;
* :class:`RetryPolicy` / :func:`call_with_retries` — the consumer-side
  retry-with-exponential-backoff and per-op timeout plumbing the I/O
  paths and the dedup engine use to survive the injected faults.

See ``docs/faults.md`` for the fault model and knobs.
"""

from .errors import (
    FaultError,
    NetworkPartitionError,
    OpTimeoutError,
    TransientOpError,
    is_retryable,
)
from .injector import FaultInjector
from .plan import FaultPlan
from .retry import RetryPolicy, RetryStats, call_with_retries
from .scenario import ELASTIC, STATIC, run_scenario

__all__ = [
    "FaultError",
    "TransientOpError",
    "OpTimeoutError",
    "NetworkPartitionError",
    "is_retryable",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "RetryStats",
    "call_with_retries",
    "STATIC",
    "ELASTIC",
    "run_scenario",
]
