"""Concurrency soundness checkers (static + runtime).

Two prongs guard the lock discipline the paper's two-phase commit path
depends on (per-object write locks around rados ``submit``/
``submit_batch``, recovery and rebalance; per-object/per-chunk tier
locks around the dedup metadata — all taken through
:class:`repro.sim.LockTable`):

* **Static prong** — an interprocedural pass (:mod:`.callgraph`,
  :mod:`.locks`) over ``src/repro`` that extracts lock-acquisition
  sites, derives a lock-order graph and ships three repro-lint rules
  (:mod:`.rules`): LCK001 (potential acquire-acquire cycles), LCK002
  (faultable I/O or unbounded waits while holding a write lock) and
  LCK003 (lock not released on every exit path).
* **Dynamic prong** — :class:`.sanitizer.LockSanitizer`, hooked into
  labelled :class:`repro.sim.Resource` instances (the locks of the rados
  write-lock table and the tier's object/chunk lock tables), recording per-task held-lock sets and
  acquisition edges at runtime and reporting order inversions,
  double-acquires and locks still held at quiesce.  Exposed as the
  ``repro sanitize`` CLI verb.

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from .callgraph import RECEIVER_HINTS, CallGraph, FunctionInfo
from .locks import LOCK_TABLES, AcquireSite, LockModel, build_lock_model
from .rules import LockOrderRule, LockReleaseRule, LockWaitRule
from .sanitizer import LockSanitizer

__all__ = [
    "RECEIVER_HINTS",
    "CallGraph",
    "FunctionInfo",
    "LOCK_TABLES",
    "AcquireSite",
    "LockModel",
    "build_lock_model",
    "LockOrderRule",
    "LockWaitRule",
    "LockReleaseRule",
    "LockSanitizer",
]
