"""The end-to-end acceptance scenario.

The one driver behind the ``repro faults`` and ``repro rebalance`` CLI
subcommands, the fault-injection integration tests and the CI
``scenario-smoke`` job: run a client workload against a deduplicating
store while a seeded :class:`~repro.faults.FaultPlan` crashes OSDs,
degrades disks, injects EIO and partitions hosts, and while a
:class:`Preset`'s timed topology steps expand the cluster, start a
paced background convergence and decommission an OSD.  Then heal,
converge, drain, and judge the store with :func:`~repro.core.verdict`,
plus what only a scenario can check: a sound op trace with the
``converge.*`` stages present, and a decommissioned OSD drained and
removed.

Two presets cover the two shapes: :data:`STATIC` (4 hosts x 2 OSDs, no
topology steps) and :data:`ELASTIC` (2 x 2, grown to 4 x 2 mid-workload,
one original OSD decommissioned).

Imports of ``repro.core`` stay inside functions: ``repro.core`` itself
imports :mod:`repro.faults` (for the retry layer), so a module-level
import here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from .errors import is_retryable
from .plan import FaultPlan

__all__ = ["ELASTIC", "STATIC", "Preset", "ScenarioResult", "run_scenario"]

KiB = 1024

#: Client-level retry ceiling: generated plans always heal (windows
#: expire, crashes restart) and PGs converge, so a workload op
#: eventually succeeds; the cap only guards against a hand-built plan
#: that never does.
_MAX_CLIENT_ATTEMPTS = 200

#: Stage prefixes the trace must contain: the standard op pipeline plus
#: the convergence engine's own stages.
TRACE_STAGES = ("op.", "engine.", "tier.", "rados.", "converge.")


@dataclass(frozen=True)
class Preset:
    """A starting cluster shape and the topology steps run against it."""

    num_hosts: int
    osds_per_host: int
    pg_num: int
    num_objects: int
    horizon: float
    #: ``(fraction of the horizon, step, argument)``, in time order:
    #: ``"expand"`` adds host ``argument`` with ``osds_per_host`` OSDs,
    #: ``"converge"`` starts a paced background convergence and
    #: ``"decommission"`` takes OSD ``argument`` out of placement.
    steps: Tuple[Tuple[float, str, Any], ...] = ()


STATIC = Preset(num_hosts=4, osds_per_host=2, pg_num=64, num_objects=24, horizon=4.0)
ELASTIC = Preset(
    num_hosts=2, osds_per_host=2, pg_num=32, num_objects=32, horizon=6.0,
    steps=((0.25, "expand", "host2"), (0.25, "expand", "host3"),
           (0.25, "converge", None), (0.5, "decommission", 1)),
)


@dataclass
class ScenarioResult:
    """Everything a caller needs to judge one run."""

    storage: Any
    injector: Any
    plan: FaultPlan
    #: The store's :class:`~repro.core.scrub.Verdict`, against what the client wrote.
    verdict: Any
    #: check_trace findings on the op trace; must be empty.
    trace_problems: List[str] = field(default_factory=list)
    objects_written: int = 0
    #: Remap diffs of the host expansions.
    expand_diffs: List[Any] = field(default_factory=list)
    #: Remap diff of the decommission, when the preset asks for one.
    decommission_diff: Any = None
    decommissioned_osd: Optional[int] = None
    #: Whether the decommissioned OSD drained fully and was removed.
    finalized: bool = False
    #: Convergence counters, one bag for the background and the final run.
    converge_stats: Any = None

    @property
    def ok(self) -> bool:
        """The run's overall verdict."""
        return (
            self.verdict.clean
            and not self.trace_problems
            and (self.decommissioned_osd is None or self.finalized)
        )


def run_scenario(
    preset: Preset,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    num_objects: Optional[int] = None,
    horizon: Optional[float] = None,
    rate_limit_bps: Optional[float] = 64.0 * KiB * KiB,
) -> ScenarioResult:
    """Run the acceptance scenario on ``preset``; returns the result.

    When ``plan`` is omitted, one is generated from ``seed`` over
    ``horizon`` simulated seconds against the starting OSDs and hosts
    (see :meth:`FaultPlan.generate`); pass ``FaultPlan([])`` for a run
    without faults.  ``num_objects`` and ``horizon`` default to the
    preset's.  Writes are staggered across the first 80% of the horizon
    so faults and topology steps land mid-workload, including mid-flush,
    since the background engine runs throughout.  ``rate_limit_bps``
    paces a ``"converge"`` step (``None``: unthrottled).
    """
    from ..cluster import ConvergeStats, RadosCluster, converge
    from ..core import DedupConfig, DedupedStorage, verdict
    from ..obs import Tracer, check_trace
    from ..workloads import ContentGenerator

    num_objects = preset.num_objects if num_objects is None else num_objects
    horizon = preset.horizon if horizon is None else horizon
    cluster = RadosCluster(
        num_hosts=preset.num_hosts, osds_per_host=preset.osds_per_host, pg_num=preset.pg_num
    )
    storage = DedupedStorage(cluster, DedupConfig(chunk_size=32 * KiB), start_engine=True)
    if plan is None:
        plan = FaultPlan.generate(
            seed, horizon, osd_ids=sorted(cluster.osds), hosts=sorted(cluster.nodes)
        )
    # With a paced convergence in the background, auto_recover would
    # start a flat-out one the moment a crashed OSD restarts, doing the
    # migration the paced run is there to do; keep recovery manual so
    # that run's resumability is what the scenario exercises.
    background_converge = any(step == "converge" for _, step, _ in preset.steps)
    injector = storage.inject_faults(plan, auto_recover=not background_converge)
    sim = storage.sim
    result = ScenarioResult(
        storage=storage, injector=injector, plan=plan, verdict=None,
        objects_written=num_objects, converge_stats=ConvergeStats(),
    )

    gen = ContentGenerator(seed=seed, dedupe_ratio=0.6)
    payloads: Dict[str, bytes] = {f"obj-{i}": gen.block(64 * KiB) for i in range(num_objects)}

    def client_write(oid: str, data: bytes, at: float) -> Generator[Any, Any, None]:
        # A real client: start at a scheduled time, and when the store's
        # own retries give up (fault window outlasted the op budget),
        # back off and reissue the whole request until it lands.
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

    def topology() -> Generator[Any, Any, None]:
        elapsed = 0.0
        for fraction, step, arg in preset.steps:
            if fraction * horizon > elapsed:
                yield sim.timeout(fraction * horizon - elapsed)
                elapsed = fraction * horizon
            if step == "expand":
                result.expand_diffs.append(cluster.expand(arg, preset.osds_per_host))
            elif step == "converge":
                background.append(
                    sim.process(converge(cluster, rate_limit_bps, result.converge_stats))
                )
            else:  # "decommission"
                result.decommissioned_osd = arg
                result.decommission_diff = cluster.decommission_osd(arg)

    def wait(procs: List[Any]) -> Generator[Any, Any, None]:
        yield sim.all_of(procs)

    with Tracer(sim) as tracer:
        sim.process(topology())
        writes = [
            sim.process(client_write(oid, data, (i / num_objects) * horizon * 0.8))
            for i, (oid, data) in enumerate(sorted(payloads.items()))
        ]
        cluster.run(wait(writes))
        # Let every scheduled fault window open and expire.
        if sim.now < horizon:
            sim.run(until=horizon)
        cluster.run(wait(background))
        storage.engine.stop()
        injector.heal_all()
        # Final run, unthrottled, with every OSD back: reconcile the
        # restarted ones and finish whatever the background run left.
        cluster.run(converge(cluster, None, result.converge_stats))
        injector.detach()
        storage.engine.drain_sync()  # flush everything (strict mode: no GC runs)
        if result.decommissioned_osd is not None:
            try:
                cluster.finalize_decommission(result.decommissioned_osd)
                result.finalized = True
            except (KeyError, ValueError):
                pass  # not drained: the verdict fails on ``finalized``
        result.verdict = verdict(storage, payloads)
    records = tracer.to_records()
    # Structural soundness (finished, no orphans, all stages present) of
    # the whole trace; the child-coverage bar applies to the convergence
    # trees only, since a faulted client op legitimately spends most of
    # its root waiting out a partition or a retry backoff, outside any
    # child span.
    trees = [r for r in records if str(r["stage"]).startswith(("op.converge", "converge."))]
    result.trace_problems = check_trace(
        records, required_stages=TRACE_STAGES, coverage_threshold=0.0
    ) + check_trace(trees, required_stages=("converge.",))
    return result
