"""End-to-end faulted-workload scenario.

The acceptance scenario behind the ``repro faults`` CLI subcommand, the
fault-injection integration tests, and the CI smoke job: run a client
workload against a deduplicating store *while* a seeded
:class:`~repro.faults.FaultPlan` crashes OSDs, degrades disks, injects
EIO and partitions hosts — then heal, converge, drain, garbage-collect,
and check that

* every written object reads back byte-identical (zero data loss),
* a scrub finds zero refcount leaks and zero missing chunks, and
* no lock is left held or awaited once the run has quiesced.

Imports of ``repro.core`` stay inside functions: ``repro.core`` itself
imports :mod:`repro.faults` (for the retry layer), so a module-level
import here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from .errors import is_retryable
from .plan import FaultPlan

__all__ = ["ScenarioResult", "locks_left", "run_faulted_workload"]

KiB = 1024

#: Client-level retry ceiling: generated plans always heal (windows
#: expire, crashes restart), so a workload op eventually succeeds; the
#: cap only guards against a hand-built plan that never does.
_MAX_CLIENT_ATTEMPTS = 200


def locks_left(storage: Any) -> List[str]:
    """``"class=entries"`` for each lock table of ``storage`` not empty.

    A :class:`~repro.sim.LockTable` keeps an entry exactly while a task
    holds or awaits its lock, so once a run has quiesced every table of
    the substrate and the tier must be empty: an entry left means a task
    ended (or hangs) without releasing.
    """
    tier = storage.tier
    tables = (tier.cluster.write_locks, tier.object_locks, tier.chunk_locks)
    return [
        f"{table.label.split(':')[0]}={len(table)}" for table in tables if len(table)
    ]


@dataclass
class ScenarioResult:
    """Everything a caller needs to judge one faulted run."""

    storage: Any
    injector: Any
    plan: FaultPlan
    scrub: Any
    #: Objects whose post-recovery read-back did not match what the
    #: client wrote (must be empty).
    corrupted_objects: List[str] = field(default_factory=list)
    objects_written: int = 0

    @property
    def zero_data_loss(self) -> bool:
        """No object was lost or corrupted."""
        return not self.corrupted_objects

    @property
    def ok(self) -> bool:
        """The run's overall verdict: data intact, refcounts clean and
        every lock released."""
        return (
            self.zero_data_loss and self.scrub.clean and not locks_left(self.storage)
        )


def run_faulted_workload(
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    num_hosts: int = 4,
    osds_per_host: int = 2,
    num_objects: int = 24,
    object_size: int = 64 * KiB,
    dedupe_ratio: float = 0.6,
    horizon: float = 4.0,
    config: Any = None,
) -> ScenarioResult:
    """Run the faulted-workload acceptance scenario; returns the result.

    When ``plan`` is omitted, one is generated from ``seed`` over
    ``horizon`` simulated seconds (see :meth:`FaultPlan.generate`).
    Writes are staggered across the first 80% of the horizon so faults
    land mid-workload — including mid-flush, since the background
    engine runs throughout.
    """
    from ..cluster import RadosCluster, converge_sync
    from ..core import DedupConfig, DedupedStorage, scrub_sync
    from ..workloads import ContentGenerator

    cluster = RadosCluster(
        num_hosts=num_hosts, osds_per_host=osds_per_host, pg_num=64
    )
    storage = DedupedStorage(
        cluster,
        config if config is not None else DedupConfig(chunk_size=32 * KiB),
        start_engine=True,
    )
    if plan is None:
        plan = FaultPlan.generate(
            seed,
            horizon,
            osd_ids=sorted(cluster.osds),
            hosts=sorted(cluster.nodes),
        )
    injector = storage.inject_faults(plan)
    sim = storage.sim

    gen = ContentGenerator(seed=seed, dedupe_ratio=dedupe_ratio)
    payloads: Dict[str, bytes] = {
        f"obj-{i}": gen.block(object_size) for i in range(num_objects)
    }

    def client_write(
        oid: str, data: bytes, at: float
    ) -> Generator[Any, Any, None]:
        # A real client: start at a scheduled time, and when the store's
        # own retries give up (fault window outlasted the op budget),
        # back off and reissue the whole request until it lands.
        yield sim.timeout(at)
        for attempt in range(_MAX_CLIENT_ATTEMPTS):
            try:
                yield from storage.write(oid, data)
                return
            except Exception as exc:
                if not is_retryable(exc):
                    raise
                yield sim.timeout(0.25)
        raise RuntimeError(f"write of {oid!r} never succeeded under {plan!r}")

    procs = [
        sim.process(client_write(oid, data, (i / max(1, num_objects)) * horizon * 0.8))
        for i, (oid, data) in enumerate(sorted(payloads.items()))
    ]

    def workload() -> Generator[Any, Any, Any]:
        results = yield sim.all_of(procs)
        return results

    cluster.run(workload())
    # Let every scheduled fault window open and expire.
    if sim.now < horizon:
        sim.run(until=horizon)

    storage.engine.stop()
    injector.heal_all()
    converge_sync(cluster)
    injector.detach()
    storage.engine.drain_sync()  # flush everything (strict mode: no GC runs)
    scrub = scrub_sync(storage.tier)

    corrupted = [
        oid
        for oid, data in sorted(payloads.items())
        if storage.read_sync(oid, 0, len(data)) != data
    ]
    # Quiesce: the verification reads can spawn fire-and-forget cache
    # promotions; run the loop dry so no task is left suspended holding
    # an object lock (the verdict treats that as a leak).
    sim.run()
    return ScenarioResult(
        storage=storage,
        injector=injector,
        plan=plan,
        scrub=scrub,
        corrupted_objects=corrupted,
        objects_written=num_objects,
    )
