"""Metric names, units, directions and bounds — and how each is computed
from what the passes of ``child.py`` report.

This table is the single source for ``BENCHMARK.json`` (``test_contract``
checks they agree).  README.md has the glossary in prose.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from tracing import LAYERS, counter_delta

MiB = 1024 * 1024

#: The end-to-end metrics the driver bounds: name -> (unit, better,
#: bound).  The bound is the share of the parent's median by which the
#: metric may worsen; README.md, "Bounds", derives each from measured
#: spreads over ten seeds.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "host_ops_per_s": ("ops/s", "higher", 0.20),
    "host_calls_per_op": ("calls/op", "lower", 0.05),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "sim_ops_per_s": ("ops/s", "higher", 0.02),
    "sim_busy_s": ("s", "lower", 0.05),
    "sim_write_mean_ms": ("ms", "lower", 0.05),
    "sim_read_mean_ms": ("ms", "lower", 0.05),
    "stored_bytes_per_user_byte": ("ratio", "lower", 0.01),
}
#: End-to-end by nature, and reported as such by this benchmark, but not
#: expressible under the driver's contract: the percentiles are exact
#: constants of the model (they read the same on every seed, which the
#: driver rejects for a time) and the two shares are 0 on a healthy run
#: (a relative bound on 0 means nothing).  BENCHMARK.json carries them
#: under ``per_layer``; the comparison recipe in README.md bounds them.
UNBOUNDED_END_TO_END: Dict[str, Tuple[str, str]] = {
    "sim_write_p50_ms": ("ms", "lower"),
    "sim_write_p99_ms": ("ms", "lower"),
    "sim_read_p50_ms": ("ms", "lower"),
    "sim_read_p99_ms": ("ms", "lower"),
    "sim_slo_miss_share": ("share", "lower"),
    "failed_op_share": ("share", "lower"),
}

_LAYER_PAIR = (("host_self_share", "share", "lower"), ("calls_per_op", "calls/op", "lower"))
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{"%s.%s" % (layer, m): (unit, better) for layer in LAYERS for m, unit, better in _LAYER_PAIR},
    "sim.events_per_op": ("events/op", "lower"),
    "sim.processes_per_op": ("procs/op", "lower"),
    "sim.host_us_per_event": ("us/event", "lower"),
    "cluster.crush.hashes_per_op": ("hashes/op", "lower"),
    "cluster.rados.write_rpcs_per_op": ("rpcs/op", "lower"),
    "cluster.rados.read_rpcs_per_op": ("rpcs/op", "lower"),
    "cluster.rados.items_per_batch": ("items/batch", "higher"),
    "cluster.rados.read_sim_self_share": ("share", "lower"),
    "cluster.rados.write_sim_self_share": ("share", "lower"),
    "cluster.hardware.disk_ops_per_op": ("ops/op", "lower"),
    "cluster.hardware.disk_bytes_written_per_user_byte": ("ratio", "lower"),
    "cluster.hardware.nic_bytes_per_user_byte": ("ratio", "lower"),
    "cluster.hardware.cpu_busy_sim_ms_per_op": ("ms/op", "lower"),
    "cluster.hardware.disk_wait_share": ("share", "lower"),
    "cluster.hardware.nic_wait_share": ("share", "lower"),
    "cluster.hardware.disk_util_max": ("share", "lower"),
    "cluster.hardware.read_sim_self_share": ("share", "lower"),
    "cluster.hardware.write_sim_self_share": ("share", "lower"),
    "core.io_path.chunk_fetches_per_read": ("fetches/read", "lower"),
    "core.io_path.round_trips_per_mib_read": ("trips/MiB", "lower"),
    "core.io_path.pool_read_share": ("share", "lower"),
    "core.io_path.rmw_share": ("share", "lower"),
    "core.io_path.read_sim_self_share": ("share", "lower"),
    "core.io_path.write_sim_self_share": ("share", "lower"),
    "core.tier.map_cache_hit_ratio": ("ratio", "higher"),
    "core.tier.refset_cache_hit_ratio": ("ratio", "higher"),
    "core.tier.bloom_skip_share": ("share", "higher"),
    "core.tier.ref_commits_per_ref_op": ("ratio", "lower"),
    "core.tier.map_bytes_per_write": ("B/write", "lower"),
    "core.tier.read_sim_self_share": ("share", "lower"),
    "core.tier.write_sim_self_share": ("share", "lower"),
    "core.read_cache.hit_ratio": ("ratio", "higher"),
    "core.read_cache.evictions_per_kop": ("1/kop", "lower"),
    "core.cache.promotions_per_kop": ("1/kop", "lower"),
    "core.cache.cached_mb_end": ("MiB", "lower"),
    "core.engine.sim_drain_mb_per_s": ("MiB/s", "higher"),
    "core.engine.chunks_per_write": ("chunks/write", "lower"),
    "core.engine.dedup_hit_share": ("share", "higher"),
    "core.engine.aborted_pass_share": ("share", "lower"),
    "core.engine.skipped_hot_share": ("share", "lower"),
    "core.engine.backlog_end_objects": ("count", "lower"),
    "fingerprint.hashed_kib_per_op": ("KiB/op", "lower"),
    "fingerprint.mb_per_host_s": ("MiB/s", "higher"),
    "fingerprint.pool_parallelism": ("ratio", "higher"),
    "faults.retries_per_kop": ("1/kop", "lower"),
    "faults.giveups_per_kop": ("1/kop", "lower"),
    "core.baselines.read_p50_ratio_vs_plain": ("ratio", "lower"),
    "core.baselines.write_p50_ratio_vs_plain": ("ratio", "lower"),
    "bench.trace_overhead_share": ("share", "lower"),
    "bench.unattributed_host_share": ("share", "lower"),
    "bench.gen_host_share": ("share", "lower"),
    "bench.gen_late_p99_ms": ("ms", "lower"),
    "bench.r1_p99_ms": ("ms", "lower"),
    "bench.r2_p99_ms": ("ms", "lower"),
    "bench.r3_p99_ms": ("ms", "lower"),
    "bench.inflight_growth_r3": ("ratio", "lower"),
    "bench.rate_at_limit_ops_per_s": ("ops/s", "higher"),
}
#: Defined for the open loop only; ``None`` ("not applicable") elsewhere.
OPEN_LOOP_ONLY = (
    "bench.r1_p99_ms", "bench.r2_p99_ms", "bench.r3_p99_ms",
    "bench.inflight_growth_r3", "bench.rate_at_limit_ops_per_s",
)
#: One metric beyond the issue's list: what the hash stage is given, for
#: the check that seq-backup is the hashing workload (README.md, "Deviations").
HASHED_KIB_PER_OP = "fingerprint.hashed_kib_per_op"
#: Layers whose spans split an op's simulated time.
_SIM_SELF_LAYERS = ("cluster.rados", "cluster.hardware", "core.io_path", "core.tier")


def _div(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return None if a is None or not b else a / b


def _add(*values: Optional[float]) -> Optional[float]:
    return None if any(v is None for v in values) else sum(values)  # type: ignore[arg-type]


def miss_share(summary: Dict[str, Any], tag: Optional[str] = None) -> Optional[float]:
    """Share of attempted ops over their latency limit (failed ops count)."""
    tallies = summary["miss_by_tag"]
    picked = [tallies[tag]] if tag in tallies else list(tallies.values()) if tag is None else []
    return _div(sum(t["missed"] for t in picked), sum(t["attempted"] for t in picked))


def failed_share(result: Dict[str, Any]) -> float:
    """(ops that raised + reads that differ from the shadow copy, in any
    phase, + a dirty scrub) over the ops attempted in the measured phase."""
    return result["failure_count"] / result["measured"]["attempted"]


def end_to_end(result: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Every end-to-end metric — the issue's 13 and the two means the
    driver bounds in place of the percentiles — from one untraced pass."""
    m = result["measured"]
    tail = result.get("tail")
    lat = m["latency"]
    return {
        "setup_s": result["setup"]["setup_s"],
        "host_ops_per_s": _div(m["ops"], m["host_seconds"]),
        "host_calls_per_op": _div(tail["repro_calls"], tail["ops"]) if tail else None,
        "peak_rss_mb": result["peak_rss_mb"],
        "sim_ops_per_s": m["sim_ops_per_s"],
        "sim_busy_s": m["sim_busy_s"],
        "sim_write_mean_ms": lat["write"]["mean_ms"],
        "sim_read_mean_ms": lat["read"]["mean_ms"],
        "sim_write_p50_ms": lat["write"]["p50_ms"],
        "sim_write_p99_ms": lat["write"]["p99_ms"],
        "sim_read_p50_ms": lat["read"]["p50_ms"],
        "sim_read_p99_ms": lat["read"]["p99_ms"],
        "sim_slo_miss_share": miss_share(m),
        "stored_bytes_per_user_byte": _div(result["stored_bytes"], result["live_bytes"]),
        "failed_op_share": failed_share(result),
    }


def _growth(stats: Dict[str, float]) -> float:
    return stats["inflight_end"] / max(1.0, stats["inflight_mid"])


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Every per-layer metric from a traced pass and the untraced pass of
    the same rounds; ``None`` where a target is absent or not applicable."""
    trace = traced["trace"]
    prof, spans = trace["profile"], trace["spans"]
    before, after = trace["counters_before"], trace["counters_after"]
    m, um = traced["measured"], untraced["measured"]
    ops, reads, writes = m["ops"], m["reads"], m["writes"]
    kops = ops / 1000.0

    def delta(source: str, key: str) -> Optional[float]:
        return counter_delta(before, after, source, key)

    out: Dict[str, Optional[float]] = {}
    total_s = prof["total_s"]
    for layer in LAYERS:
        out[layer + ".host_self_share"] = _div(prof["layer_self_s"][layer], total_s)
        out[layer + ".calls_per_op"] = _div(prof["layer_calls"][layer], ops)
    counted = prof["counted_calls"]
    out["sim.events_per_op"] = _div(counted["events"], ops)
    out["sim.processes_per_op"] = _div(counted["processes"], ops)
    out["sim.host_us_per_event"] = _div(um["host_seconds"] * 1e6, counted["events"])
    out["cluster.crush.hashes_per_op"] = _div(counted["crush_hashes"], ops)

    out["cluster.rados.write_rpcs_per_op"] = _div(spans["write_rpcs"], ops)
    out["cluster.rados.read_rpcs_per_op"] = _div(spans["read_rpcs"], ops)
    out["cluster.rados.items_per_batch"] = _div(spans["batch_items"], spans["batches"])
    for kind in ("read", "write"):
        by_layer = spans["sim_self_s"][kind]
        whole = sum(by_layer.values())
        for layer in _SIM_SELF_LAYERS:
            out["%s.%s_sim_self_share" % (layer, kind)] = _div(by_layer.get(layer, 0.0), whole)

    user_bytes = m["user_bytes_read"] + m["user_bytes_written"]
    out["cluster.hardware.disk_ops_per_op"] = _div(delta("devices", "disk_ops"), ops)
    out["cluster.hardware.disk_bytes_written_per_user_byte"] = _div(
        delta("devices", "disk_bytes_written"), m["user_bytes_written"])
    out["cluster.hardware.nic_bytes_per_user_byte"] = _div(
        delta("devices", "nic_bytes"), user_bytes)
    cpu = delta("devices", "cpu_busy_s")
    out["cluster.hardware.cpu_busy_sim_ms_per_op"] = _div(None if cpu is None else cpu * 1e3, ops)
    for device in ("disk", "nic"):
        span_s, wait_s = spans["device_span_wait_s"][device]
        out["cluster.hardware.%s_wait_share" % device] = _div(wait_s, span_s)
    disks = [k for k in (after.get("devices") or {}) if k.startswith("disk_busy_s.")]
    busiest = max((delta("devices", k) or 0.0 for k in disks), default=None)
    out["cluster.hardware.disk_util_max"] = _div(busiest, m["sim_busy_s"])

    out["core.io_path.chunk_fetches_per_read"] = _div(spans["read_chunk_fetches"], reads)
    out["core.io_path.round_trips_per_mib_read"] = _div(
        spans["read_round_trips"], spans["user_read_bytes"] / MiB)
    out["core.io_path.pool_read_share"] = _div(spans["pool_read_bytes"], spans["user_read_bytes"])
    out["core.io_path.rmw_share"] = _div(spans["rmw_chunks"] + spans["foreground_prereads"], writes)

    def hit_ratio(hits: str, misses: str) -> Optional[float]:
        h, miss = delta("stage", hits), delta("stage", misses)
        return _div(h, _add(h, miss))

    processed_chunks = _add(delta("engine", "chunks_flushed"), delta("engine", "chunks_deduped"))
    out["core.tier.map_cache_hit_ratio"] = hit_ratio("map_cache_hits", "map_cache_misses")
    out["core.tier.refset_cache_hit_ratio"] = hit_ratio("refset_cache_hits", "refset_cache_misses")
    out["core.tier.bloom_skip_share"] = _div(
        delta("stage", "bloom_negative_hits"), processed_chunks)
    out["core.tier.ref_commits_per_ref_op"] = _div(
        delta("stage", "ref_commits"), delta("stage", "ref_ops"))
    out["core.tier.map_bytes_per_write"] = _div(delta("stage", "map_bytes_serialized"), writes)
    out["core.read_cache.hit_ratio"] = hit_ratio("chunk_cache_hits", "chunk_cache_misses")
    evictions = delta("stage", "chunk_cache_evictions")
    out["core.read_cache.evictions_per_kop"] = _div(evictions, kops)
    out["core.cache.promotions_per_kop"] = _div(delta("engine", "chunks_promoted"), kops)
    cached = (after.get("cache") or {}).get("cached_bytes")
    out["core.cache.cached_mb_end"] = None if cached is None else cached / MiB

    drain_sim_s = sum(v["sim_s"] for k, v in m["slices"].items() if k == "drain")
    out["core.engine.sim_drain_mb_per_s"] = _div(m["drain_bytes"] / MiB, drain_sim_s)
    out["core.engine.chunks_per_write"] = _div(processed_chunks, writes)
    out["core.engine.dedup_hit_share"] = _div(delta("engine", "chunks_deduped"), processed_chunks)
    passes = _add(
        delta("engine", "objects_processed"), delta("engine", "objects_aborted_race"),
        delta("engine", "objects_requeued_fault"))
    out["core.engine.aborted_pass_share"] = _div(delta("engine", "objects_aborted_race"), passes)
    skipped = delta("engine", "objects_skipped_hot")
    out["core.engine.skipped_hot_share"] = _div(skipped, _add(skipped, passes))
    out["core.engine.backlog_end_objects"] = m["backlog_before_last_drain"]

    hashed = delta("stage", "fingerprint_bytes")
    out["fingerprint.mb_per_host_s"] = _div(
        None if hashed is None else hashed / MiB, delta("stage", "fingerprint_seconds"))
    out[HASHED_KIB_PER_OP] = _div(None if hashed is None else hashed / 1024, ops)
    out["fingerprint.pool_parallelism"] = _div(
        delta("stage", "fingerprint_pool_busy_seconds"),
        delta("stage", "fingerprint_pool_wall_seconds"))
    out["faults.retries_per_kop"] = _div(delta("retry", "retries"), kops)
    out["faults.giveups_per_kop"] = _div(delta("retry", "giveups"), kops)

    plain = untraced.get("plain")
    for kind in ("read", "write"):
        out["core.baselines.%s_p50_ratio_vs_plain" % kind] = _div(
            um["latency"][kind]["p50_ms"], plain["latency"][kind]["p50_ms"]) if plain else None

    out["bench.trace_overhead_share"] = _div(
        m["host_seconds"] - um["host_seconds"], um["host_seconds"])
    shares = [out[layer + ".host_self_share"] for layer in LAYERS]
    out["bench.unattributed_host_share"] = 1.0 - sum(s or 0.0 for s in shares) if total_s else None
    generator = sum(
        v for k, v in prof["bench_self_s"].items() if k in ("child.py", "workloads.py"))
    out["bench.gen_host_share"] = _div(generator, total_s)
    # A closed loop has no schedule to run late against.
    out["bench.gen_late_p99_ms"] = max(
        (s["gen_late_p99_ms"] for s in um["open"].values()), default=0.0)
    for name in OPEN_LOOP_ONLY:
        out[name] = None
    if um["open"]:
        rates = []
        for tag in ("r1", "r2", "r3"):
            out["bench.%s_p99_ms" % tag] = um["latency_by_tag"][tag]["all"]["p99_ms"]
            share = miss_share(um, tag)
            if share is not None and share <= 0.01 and _growth(um["open"][tag]) <= 2.0:
                rates.append(um["open"][tag]["rate"])
        out["bench.inflight_growth_r3"] = _growth(um["open"]["r3"])
        out["bench.rate_at_limit_ops_per_s"] = max(rates, default=0.0)

    whole = end_to_end(untraced)
    out.update({name: whole[name] for name in UNBOUNDED_END_TO_END})
    return out


def not_applicable(workload_loop: str) -> List[str]:
    return list(OPEN_LOOP_ONLY) if workload_loop != "open" else []


# -- workload character ---------------------------------------------------------------

Check = Tuple[str, Callable[[Dict[str, Any]], Optional[bool]]]


def _cmp(name: str, op: str, limit: float) -> Check:
    def check(ctx: Dict[str, Any]) -> Optional[bool]:
        value = ctx["layers"].get(name)
        if value is None:
            return None
        return value >= limit if op == ">=" else value <= limit

    return ("%s %s %g" % (name, op, limit), check)


def _sfs_limits(ctx: Dict[str, Any]) -> Optional[bool]:
    # README.md, "Deviations": below saturation HEAD never misses a limit
    # of 4 x p50, so "more at r3" is asserted on the p99 as well.
    r1, r3 = miss_share(ctx, "r1"), miss_share(ctx, "r3")
    p99_r1, p99_r3 = ctx["layers"].get("bench.r1_p99_ms"), ctx["layers"].get("bench.r3_p99_ms")
    if None in (r1, r3, p99_r1, p99_r3):
        return None
    return r1 < 0.01 and r3 >= r1 and p99_r3 > p99_r1


def _hashed_bytes_vs_cold(ctx: Dict[str, Any]) -> Optional[bool]:
    cold = ctx["others"].get("rand-small-cold")
    mine = ctx["layers"].get(HASHED_KIB_PER_OP)
    if cold is None or mine is None or cold.get(HASHED_KIB_PER_OP) is None:
        return None  # needs both workloads in one invocation
    return mine >= 3 * cold[HASHED_KIB_PER_OP]


_FAULT_FREE: Tuple[Check, ...] = (
    _cmp("faults.retries_per_kop", "<=", 0.0), _cmp("faults.giveups_per_kop", "<=", 0.0))
#: What makes each workload the workload it claims to be, asserted from
#: the traced pass.  ``None`` means "could not be evaluated here".
CHARACTER: Dict[str, Tuple[Check, ...]] = {
    "rand-small-cold": _FAULT_FREE + (
        _cmp("core.io_path.pool_read_share", ">=", 0.7),
        _cmp("core.read_cache.hit_ratio", "<=", 0.25),
        _cmp("core.io_path.rmw_share", ">=", 0.5),
    ),
    "hot-reread": _FAULT_FREE + (_cmp("core.io_path.pool_read_share", "<=", 0.2),),
    "seq-backup": _FAULT_FREE + (
        _cmp("core.engine.dedup_hit_share", ">=", 0.8),
        ("hashes >= 3x the KiB per op of rand-small-cold", _hashed_bytes_vs_cold),
    ),
    "sfs-mixed-open": _FAULT_FREE + (
        ("miss share < 1 % at r1, not lower at r3, and p99 higher at r3", _sfs_limits),
    ),
}


def character_checks(workload, layers, miss_by_tag, others) -> Dict[str, Optional[bool]]:
    """``others`` maps every workload of this invocation to its per-layer
    metrics, for the one check that compares two workloads."""
    ctx = {"layers": layers, "miss_by_tag": miss_by_tag, "others": others}
    return {label: check(ctx) for label, check in CHARACTER[workload]}
