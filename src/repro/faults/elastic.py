"""End-to-end online-elasticity scenario.

The acceptance scenario behind the ``repro rebalance`` CLI subcommand
and the CI ``elasticity-smoke`` job: run a client workload against a
deduplicating store and, *while it is running*,

* expand the cluster from 4 to 8 OSDs (two new hosts),
* start a rate-limited background convergence of the remapped PGs,
* decommission one of the original OSDs,
* (optionally) let a seeded :class:`~repro.faults.FaultPlan` crash OSDs
  and partition hosts throughout —

then heal, converge once more, drain, and check that

* every written object reads back byte-identical (zero data loss),
* the dedup scrub finds zero refcount leaks and zero missing chunks,
* both pools scrub replica/shard-consistent,
* every PG is ``active+clean`` (every copy exactly on its new acting set),
* the decommissioned OSD drained and was removed,
* the op trace is sound, with the ``converge.*`` stages present, and
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
from .scenario import locks_left

__all__ = ["ElasticityResult", "run_elastic_workload"]

KiB = 1024

#: Client-level retry ceiling (see scenario.py): plans heal and PGs
#: converge, so an op eventually lands; the cap guards hand-built plans.
_MAX_CLIENT_ATTEMPTS = 200

#: Stage prefixes the elasticity trace must contain — the standard op
#: pipeline plus the convergence engine's own stages.
TRACE_STAGES = ("op.", "engine.", "tier.", "rados.", "converge.")


@dataclass
class ElasticityResult:
    """Everything a caller needs to judge one elastic run."""

    storage: Any
    injector: Any
    plan: Optional[FaultPlan]
    #: Remap diffs from the two host expansions.
    expand_diffs: List[Any] = field(default_factory=list)
    #: Remap diff from decommissioning one original OSD.
    decommission_diff: Any = None
    #: Convergence counters, one bag for the online and the final run.
    converge_stats: Any = None
    #: Dedup scrub (refcount pairing / leaks / missing chunks).
    scrub: Any = None
    #: Replica/shard scrubs of the metadata and chunk pools.
    replica_reports: List[Any] = field(default_factory=list)
    #: Why some PG is not ``active+clean`` (copies off the acting set,
    #: diverged replicas, mis-slotted shards); must be empty.
    placement_violations: List[str] = field(default_factory=list)
    #: check_trace findings on the op trace; must be empty.
    trace_problems: List[str] = field(default_factory=list)
    #: Objects whose post-recovery read-back did not match what the
    #: client wrote (must be empty).
    corrupted_objects: List[str] = field(default_factory=list)
    objects_written: int = 0
    decommissioned_osd: int = -1
    #: Whether the decommissioned OSD drained fully and was removed.
    finalized: bool = False

    @property
    def zero_data_loss(self) -> bool:
        """No object was lost or corrupted."""
        return not self.corrupted_objects

    @property
    def ok(self) -> bool:
        """The run's overall verdict."""
        return (
            self.zero_data_loss
            and self.scrub is not None
            and bool(self.scrub.clean)
            and all(bool(r.clean) for r in self.replica_reports)
            and not self.placement_violations
            and not self.trace_problems
            and self.finalized
            and not locks_left(self.storage)
        )


def run_elastic_workload(
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    num_objects: int = 32,
    object_size: int = 64 * KiB,
    dedupe_ratio: float = 0.6,
    horizon: float = 6.0,
    rate_limit_bps: Optional[float] = 64.0 * KiB * KiB,
    with_faults: bool = True,
    decommission_osd: int = 1,
) -> ElasticityResult:
    """Run the online-elasticity acceptance scenario; returns the result.

    The cluster starts as 2 hosts x 2 OSDs.  Writes are staggered across
    the first 80% of ``horizon``; at 25% of the horizon two more hosts
    (2 OSDs each) join and a rate-limited background convergence starts; at
    50% ``decommission_osd`` leaves placement.  With ``with_faults`` a
    plan generated from ``seed`` crashes/degrades the *original* OSDs
    throughout, so migration must survive faults on its sources.
    """
    from ..cluster import ConvergeStats, RadosCluster, converge, placement_report
    from ..cluster import scrub_pool_sync
    from ..core import DedupConfig, DedupedStorage, scrub_sync
    from ..obs import Tracer, check_trace
    from ..workloads import ContentGenerator

    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster,
        DedupConfig(chunk_size=32 * KiB),
        start_engine=True,
    )
    injector: Any = None
    if with_faults:
        if plan is None:
            plan = FaultPlan.generate(
                seed,
                horizon,
                osd_ids=sorted(cluster.osds),
                hosts=sorted(cluster.nodes),
            )
        # auto_recover would start a flat-out convergence the moment a
        # crashed OSD restarts, doing the migration the rate-limited
        # background run is there to do.  Keep it manual so that run's
        # resumability is what the scenario exercises.
        injector = storage.inject_faults(plan, auto_recover=False)
    sim = storage.sim

    result = ElasticityResult(
        storage=storage,
        injector=injector,
        plan=plan,
        decommissioned_osd=decommission_osd,
    )
    stats = result.converge_stats = ConvergeStats()

    gen = ContentGenerator(seed=seed, dedupe_ratio=dedupe_ratio)
    payloads: Dict[str, bytes] = {
        f"obj-{i}": gen.block(object_size) for i in range(num_objects)
    }

    def client_write(
        oid: str, data: bytes, at: float
    ) -> Generator[Any, Any, None]:
        yield sim.timeout(at)
        for _attempt in range(_MAX_CLIENT_ATTEMPTS):
            try:
                yield from storage.write(oid, data)
                return
            except Exception as exc:
                if not is_retryable(exc):
                    raise
                yield sim.timeout(0.25)
        raise RuntimeError(f"write of {oid!r} never succeeded under {plan!r}")

    background: List[Any] = []

    def topology_driver() -> Generator[Any, Any, None]:
        yield sim.timeout(horizon * 0.25)
        result.expand_diffs.append(cluster.expand("host2", 2))
        result.expand_diffs.append(cluster.expand("host3", 2))
        background.append(sim.process(converge(cluster, rate_limit_bps, stats)))
        yield sim.timeout(horizon * 0.25)
        result.decommission_diff = cluster.decommission_osd(decommission_osd)

    def wait_background() -> Generator[Any, Any, None]:
        if background:
            yield sim.all_of(background)

    with Tracer(sim) as tracer:
        sim.process(topology_driver())
        procs = [
            sim.process(
                client_write(oid, data, (i / max(1, num_objects)) * horizon * 0.8)
            )
            for i, (oid, data) in enumerate(sorted(payloads.items()))
        ]

        def workload() -> Generator[Any, Any, Any]:
            results = yield sim.all_of(procs)
            return results

        cluster.run(workload())
        # Let every scheduled fault window open and expire.
        if sim.now < horizon:
            sim.run(until=horizon)
        cluster.run(wait_background())
        storage.engine.stop()
        if injector is not None:
            injector.heal_all()
        # Final run, unthrottled, with every OSD back: reconcile the
        # restarted ones and finish whatever the online run left parked.
        cluster.run(converge(cluster, None, stats))
        if injector is not None:
            injector.detach()
        storage.engine.drain_sync()  # flush everything (strict mode: no GC runs)
        try:
            cluster.finalize_decommission(decommission_osd)
            result.finalized = True
        except (KeyError, ValueError):
            result.finalized = False

        result.scrub = scrub_sync(storage.tier)
        result.replica_reports = [
            scrub_pool_sync(cluster, storage.tier.metadata_pool),
            scrub_pool_sync(cluster, storage.tier.chunk_pool),
        ]
        result.placement_violations = placement_report(cluster)
        result.corrupted_objects = [
            oid
            for oid, data in sorted(payloads.items())
            if storage.read_sync(oid, 0, len(data)) != data
        ]
        # Quiesce: verification reads can spawn fire-and-forget cache
        # promotions; run the loop dry so no task is left suspended holding
        # an object lock (the verdict treats that as a leak).
        sim.run()
    result.objects_written = num_objects
    records = tracer.to_records()
    # Structural soundness (finished, no orphans, all stages present) of
    # the whole trace; the child-coverage bar applies to the convergence
    # trees only — a faulted client op legitimately spends most of its
    # root waiting out a partition or a retry backoff, outside any
    # child span.
    result.trace_problems = check_trace(
        records, required_stages=TRACE_STAGES, coverage_threshold=0.0
    )
    result.trace_problems += check_trace(
        [
            r
            for r in records
            if str(r["stage"]) == "op.converge"
            or str(r["stage"]).startswith("converge.")
        ],
        required_stages=("converge.",),
    )
    return result
