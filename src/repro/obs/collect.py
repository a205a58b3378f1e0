"""One snapshot of a running storage stack, and the text views of it.

:func:`storage_metrics` is the only reporting code that reads the live
state of a ``DedupedStorage`` (duck-typed, so this module stays
decoupled from ``repro.core``): the engine's stats, the tier's stage
counters and retry stats, the fault injector's stats, the cache manager,
the rate controller, space accounting and per-node CPU.  It *copies*
their current values into registry gauges, so a snapshot never moves
as more work runs.

:func:`status_lines` and :func:`fault_lines` render the ``repro status``
and ``repro faults`` text from a snapshot and read nothing else.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, List

from .registry import MetricsRegistry

__all__ = ["fault_lines", "status_lines", "storage_metrics"]


def _export_fields(
    reg: MetricsRegistry, name: str, help_text: str, label: str, bag: Any
) -> None:
    """One labeled gauge per field of the dataclass ``bag``."""
    family = reg.gauge(name, help_text, labels=(label,))
    for field in fields(bag):
        family.labels(**{label: field.name}).set(getattr(bag, field.name))


def storage_metrics(storage: Any) -> MetricsRegistry:
    """Snapshot ``storage`` (a ``DedupedStorage``) into a new registry."""
    reg = MetricsRegistry()
    tier, engine, cluster = storage.tier, storage.engine, storage.cluster
    injector = getattr(storage, "faults", None)

    def gauge(name: str, help_text: str, value: float) -> None:
        reg.gauge(name, help_text).set(value)

    gauge("repro_sim_seconds", "Simulated clock at snapshot time", storage.sim.now)

    # -- engine -----------------------------------------------------------
    _export_fields(
        reg, "repro_engine_ops", "Dedup engine counters", "stat", engine.stats
    )
    gauge("repro_engine_running", "1 while a background engine worker is alive",
          engine.running)
    gauge("repro_engine_fault_requeues", "Dedup passes requeued by faults",
          engine.stats.objects_requeued_fault)
    gauge("repro_derefs_deferred", "Dereferences left for the offline GC",
          engine.stats.derefs_deferred_fault)
    reg.gauge(
        "repro_refcount_mode", "Reference-counting mode in use", labels=("mode",)
    ).labels(mode=engine.config.refcount_mode).set(1)
    gauge("repro_refcount_pending_derefs", "Dereferences pending the GC",
          len(engine.deref_queue))

    # -- tier -------------------------------------------------------------
    _export_fields(
        reg, "repro_stage_counters", "Hot-path per-stage counters", "counter",
        tier.stage,
    )
    gauge("repro_dirty_objects", "Objects waiting for a dedup pass",
          tier.dirty_count)
    cache = reg.gauge(
        "repro_cache_tier", "Metadata-pool cache occupancy and traffic",
        labels=("stat",),
    )
    cache.labels(stat="cached_bytes").set(tier.cache.cached_bytes)
    cache.labels(stat="promotions").set(tier.cache.promotions)
    cache.labels(stat="demotions").set(tier.cache.demotions)
    gauge("repro_foreground_iops", "Foreground ops/s over the rate window",
          tier.fg_window.iops())
    gauge("repro_foreground_throughput_bps",
          "Foreground bytes/s over the rate window", tier.fg_window.throughput())
    gauge("repro_rate_ratio", "Dedup ops per foreground op allowed (0: unlimited)",
          tier.rate.current_ratio())

    space = tier.space_report()
    space_gauge = reg.gauge(
        "repro_space_bytes", "Dedup-tier space accounting", labels=("kind",)
    )
    space_gauge.labels(kind="logical").set(space.logical_bytes)
    space_gauge.labels(kind="chunk_data").set(space.chunk_data_bytes)
    space_gauge.labels(kind="cached_data").set(space.cached_data_bytes)
    space_gauge.labels(kind="metadata").set(space.metadata_bytes)
    space_gauge.labels(kind="raw_used").set(space.raw_used_bytes)
    gauge("repro_dedup_ratio_ideal", "1 - unique/logical data",
          space.ideal_dedup_ratio)
    gauge("repro_dedup_ratio_actual", "Dedup ratio charged with metadata",
          space.actual_dedup_ratio)

    # -- faults and retries -----------------------------------------------
    _export_fields(
        reg, "repro_retry_stats", "Retry-layer counters", "stat", tier.retry_stats
    )
    gauge("repro_availability", "Fraction of logical ops that succeeded",
          tier.retry_stats.availability)
    down = injector.down_osds if injector is not None else []
    if injector is not None:
        _export_fields(
            reg, "repro_fault_events", "Fault-injector counters", "kind",
            injector.stats,
        )
    gauge("repro_down_osds", "OSDs down at snapshot time", len(down))
    osd_down = reg.gauge(
        "repro_osd_down", "1 if the injector holds the OSD down", labels=("osd",)
    )
    for osd_id in cluster.osds:
        osd_down.labels(osd=osd_id).set(osd_id in down)

    # -- resources --------------------------------------------------------
    cpu = reg.gauge(
        "repro_cpu_utilization", "Fraction of cores busy per node (0..1)",
        labels=("node",),
    )
    busy = [node.cpu.utilization(0.0) for node in cluster.nodes.values()]
    for name, value in zip(cluster.nodes, busy):
        cpu.labels(node=name).set(value)
    gauge("repro_cpu_utilization_mean", "Cluster-average fraction of cores busy",
          sum(busy) / len(busy) if busy else 0.0)
    pools = reg.gauge(
        "repro_pool_used_bytes", "Raw bytes (all copies/shards) used per pool",
        labels=("pool",),
    )
    for name, pool in cluster.pools.items():
        pools.labels(pool=name).set(cluster.pool_used_bytes(pool))
    gauge("repro_used_bytes_total", "Raw bytes used across every OSD",
          cluster.total_used_bytes())

    return reg


def _read(reg: MetricsRegistry, name: str, **labels: Any) -> float:
    family = reg.get(name)
    assert family is not None, f"snapshot lacks {name}"
    return family.labels(**labels).value


def _injector_lines(reg: MetricsRegistry) -> List[str]:
    """The fault-injector block, empty when none was attached."""
    if reg.get("repro_fault_events") is None:
        return []

    def kind(k: str) -> int:
        return int(_read(reg, "repro_fault_events", kind=k))

    return [
        f"osd crashes        {kind('crashes')} ({kind('restarts')} restarts)",
        f"EIO injected       {kind('eio_injected')} ops",
        f"slow-disk delays   {kind('slow_ops_delayed')} ops",
        f"partition drops    {kind('partition_drops')} transfers"
        f" ({kind('partitions_started')} partitions)",
    ]


def status_lines(reg: MetricsRegistry) -> List[str]:
    """The ``repro status`` screen of a :func:`storage_metrics` snapshot."""

    def engine(stat: str) -> int:
        return int(_read(reg, "repro_engine_ops", stat=stat))

    def retry(stat: str) -> int:
        return int(_read(reg, "repro_retry_stats", stat=stat))

    def space(kind: str) -> int:
        return int(_read(reg, "repro_space_bytes", kind=kind))

    def cache(stat: str) -> int:
        return int(_read(reg, "repro_cache_tier", stat=stat))

    modes = reg.get("repro_refcount_mode")
    assert modes is not None, "snapshot lacks repro_refcount_mode"
    mode = next(m for (m,), series in modes.series_items() if series.value)
    ratio = int(_read(reg, "repro_rate_ratio"))
    stored = space("chunk_data") + space("cached_data") + space("metadata")
    return [
        f"sim time           {_read(reg, 'repro_sim_seconds'):.3f}s",
        f"engine             "
        f"{'running' if _read(reg, 'repro_engine_running') else 'stopped'}"
        f" ({engine('objects_processed')} objects processed,"
        f" {engine('objects_skipped_hot')} hot-skips)",
        f"dirty backlog      {int(_read(reg, 'repro_dirty_objects'))} objects",
        f"refcount           {mode}"
        f" ({int(_read(reg, 'repro_refcount_pending_derefs'))} derefs pending GC)",
        f"cache              {cache('cached_bytes')} bytes cached"
        f" (+{cache('promotions')}/-{cache('demotions')})",
        f"foreground load    {_read(reg, 'repro_foreground_iops'):.0f} IOPS,"
        f" {_read(reg, 'repro_foreground_throughput_bps') / 1e6:.1f} MB/s"
        f" (dedup ratio limit 1/{ratio or 'unlimited'})",
        f"logical data       {space('logical')} bytes",
        f"stored (data+meta) {stored} bytes"
        f" -> dedup ratio {100 * _read(reg, 'repro_dedup_ratio_actual'):.1f}%",
        f"retries            {retry('retries')} retries,"
        f" {retry('timeouts')} timeouts, {retry('giveups')} giveups"
        f" ({engine('objects_requeued_fault')} engine requeues)",
    ] + _injector_lines(reg)


def fault_lines(reg: MetricsRegistry) -> List[str]:
    """The ``repro faults`` report of a :func:`storage_metrics` snapshot."""

    def retry(stat: str) -> int:
        return int(_read(reg, "repro_retry_stats", stat=stat))

    osd_down = reg.get("repro_osd_down")
    assert osd_down is not None, "snapshot lacks repro_osd_down"
    down = sorted(int(osd) for (osd,), series in osd_down.series_items()
                  if series.value)
    return (
        [f"sim time           {_read(reg, 'repro_sim_seconds'):.3f}s"]
        + _injector_lines(reg)
        + [
            f"op attempts        {retry('attempts')}"
            f" ({retry('retries')} retries, {retry('timeouts')} timeouts)",
            f"op outcomes        {retry('successes')} ok"
            f" ({retry('successes_after_retry')} after retry),"
            f" {retry('giveups')} gave up",
            f"availability       {100.0 * _read(reg, 'repro_availability'):.2f}%",
            f"engine             {int(_read(reg, 'repro_engine_fault_requeues'))}"
            f" fault requeues,"
            f" {int(_read(reg, 'repro_derefs_deferred'))} derefs left for GC",
            "down OSDs          " + (",".join(map(str, down)) if down else "none"),
        ]
    )
