"""The repro-lint rule set.

Rules encode paper-level invariants (see ``docs/static-analysis.md``):

* DET001 — no wall-clock reads in simulated components
* DET002 — all randomness flows through ``repro.sim.rng``
* DET003 — no iteration over sets with unpinned order
* FLT001 — substrate I/O must sit inside a fault scope
* API001 — no imports bypassing the ``RadosCluster`` facade
* LCK001 — no potential acquire-acquire cycles across call paths
* LCK002 — no faultable I/O or unbounded waits under a write lock
* LCK003 — locks must be released on every exit path
"""

from typing import Dict, List

from ..engine import Rule
from .determinism import SetOrderRule, UnseededRandomRule, WallClockRule
from .faults import FaultScopeRule
from .layering import LayeringRule

__all__ = ["default_rules", "rules_by_id"]


def default_rules() -> List[Rule]:
    """One instance of every repro-lint rule."""
    # Imported lazily: concurrency.rules reuses FLT001 helpers from this
    # package, so a module-level import here would be circular.
    from ..concurrency.rules import (
        LockOrderRule,
        LockReleaseRule,
        LockWaitRule,
    )

    return [
        WallClockRule(),
        UnseededRandomRule(),
        SetOrderRule(),
        FaultScopeRule(),
        LayeringRule(),
        LockOrderRule(),
        LockWaitRule(),
        LockReleaseRule(),
    ]


def rules_by_id() -> Dict[str, Rule]:
    """Rule instances keyed by their IDs."""
    return {rule.id: rule for rule in default_rules()}
