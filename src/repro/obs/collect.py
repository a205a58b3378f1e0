"""One-shot collectors: snapshot a running storage stack into a registry.

:func:`storage_metrics` is the glue between the simulation objects and
the :class:`~repro.obs.registry.MetricsRegistry` — it walks a
``DedupedStorage`` (duck-typed, so this module stays decoupled from
``repro.core``) and materialises engine counters, per-stage hot-path
counters, space accounting, fault/retry outcomes and resource usage as
labeled series.  The ``repro.metrics`` collectors contribute through
their ``export_to(registry)`` hooks.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Optional

from .registry import MetricsRegistry

__all__ = ["storage_metrics"]


def storage_metrics(
    storage: Any, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Snapshot ``storage`` (a ``DedupedStorage``) into a registry.

    Safe to call repeatedly: counter families are registered
    idempotently and gauges are overwritten with current values.
    """
    # Imported lazily: obs is an import leaf; pulling repro.metrics at
    # module scope would re-introduce the cycle the layering avoids.
    from ..metrics.faults import fault_report
    from ..metrics.usage import cpu_usage, storage_breakdown

    reg = registry if registry is not None else MetricsRegistry()

    reg.gauge("repro_sim_seconds", "Simulated clock at snapshot time").set(
        storage.sim.now
    )

    engine_ops = reg.gauge(
        "repro_engine_ops", "Dedup engine counters", labels=("stat",)
    )
    for stat, value in sorted(asdict(storage.engine.stats).items()):
        engine_ops.labels(stat=stat).set(value)

    stage = reg.gauge(
        "repro_stage_counters", "Hot-path per-stage counters", labels=("counter",)
    )
    for counter, value in sorted(storage.tier.stage.snapshot().items()):
        stage.labels(counter=counter).set(value)

    # Cache traffic of the tier's one cache, grouped by (cache, event);
    # the raw counters also appear in repro_stage_counters.
    stages = storage.tier.stage
    cache_events = reg.gauge(
        "repro_cache_events",
        "Cache traffic by cache and event (decoded chunk-map LRU)",
        labels=("cache", "event"),
    )
    cache_events.labels(cache="map", event="hit").set(stages.map_cache_hits)
    cache_events.labels(cache="map", event="miss").set(stages.map_cache_misses)
    cache_events.labels(cache="map", event="invalidation").set(
        stages.map_cache_invalidations
    )

    read_fanout = reg.gauge(
        "repro_read_fanout", "Read-path fan-out", labels=("stat",)
    )
    read_fanout.labels(stat="chunk_reads").set(stages.fanout_chunk_reads)

    space = storage.tier.space_report()
    space_gauge = reg.gauge(
        "repro_space_bytes", "Dedup-tier space accounting", labels=("kind",)
    )
    space_gauge.labels(kind="logical").set(space.logical_bytes)
    space_gauge.labels(kind="chunk_data").set(space.chunk_data_bytes)
    space_gauge.labels(kind="cached_data").set(space.cached_data_bytes)
    space_gauge.labels(kind="metadata").set(space.metadata_bytes)
    space_gauge.labels(kind="raw_used").set(space.raw_used_bytes)
    reg.gauge("repro_dedup_ratio_ideal", "1 - unique/logical data").set(
        space.ideal_dedup_ratio
    )
    reg.gauge("repro_dedup_ratio_actual", "Dedup ratio charged with metadata").set(
        space.actual_dedup_ratio
    )

    fault_report(storage).export_to(reg)
    cpu_usage(storage.cluster).export_to(reg)
    storage_breakdown(storage.cluster).export_to(reg)

    tracer = getattr(storage.tier, "tracer", None)
    if tracer is not None:
        reg.gauge("repro_trace_spans", "Spans buffered by the tier tracer").set(
            len(tracer.spans)
        )
        reg.gauge(
            "repro_trace_spans_dropped", "Spans dropped at the tracer's cap"
        ).set(tracer.dropped)

    return reg
