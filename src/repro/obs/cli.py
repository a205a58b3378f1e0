"""``repro obs`` subcommands: trace, report, and top-spans.

``repro obs trace`` runs a seeded write/dedup/read/delete workload with
op tracing enabled and emits the span tree as JSONL (plus an optional
Prometheus metrics snapshot) — the same artifact the ``obs-smoke`` CI
job uploads.  ``report`` renders a per-stage rollup with root-coverage
figures, and ``top-spans`` lists the slowest individual spans.  Both
accept ``--trace PATH`` to analyse a previously dumped trace instead of
re-running the workload.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Tuple

from .collect import storage_metrics
from .export import dump_trace_jsonl, load_trace_jsonl, prometheus_text, trace_jsonl_lines
from .integrity import check_trace, coverage_by_root, stage_rollup, top_spans
from .trace import Tracer

__all__ = [
    "REQUIRED_STAGE_PREFIXES",
    "run_traced_workload",
    "cmd_trace",
    "cmd_report",
    "cmd_top_spans",
]

#: Stage-name prefixes every seeded-workload trace must contain; the
#: obs-smoke job fails if any layer stops emitting spans.
REQUIRED_STAGE_PREFIXES = ("op.", "engine.", "tier.", "rados.")

_KiB = 1024


def run_traced_workload(
    seed: int = 0, objects: int = 24, dedupe_ratio: float = 0.75
) -> Tuple[Any, Tracer]:
    """Seeded workload under a :class:`Tracer`; returns the storage stack
    and the tracer holding its spans.

    Writes ``objects`` 64 KiB blocks (75 % duplicate content by
    default), drains the dedup engine, reads a third of them back and
    deletes one — so the trace exercises every root-op kind a client's
    ops set off (``op.write``, ``op.dedup_pass``, ``op.read``,
    ``op.delete`` and its ``op.release``).
    """
    # Imported lazily: obs is an import leaf; repro.core must stay free
    # to import repro.obs at module scope.
    from ..cluster import RadosCluster
    from ..core import DedupConfig, DedupedStorage
    from ..workloads import ContentGenerator

    cluster = RadosCluster(num_hosts=4, osds_per_host=4, pg_num=64)
    storage = DedupedStorage(
        cluster, DedupConfig(chunk_size=32 * _KiB), start_engine=False
    )
    gen = ContentGenerator(seed=seed, dedupe_ratio=dedupe_ratio)
    with Tracer(storage.sim) as tracer:
        for i in range(objects):
            storage.write_sync(f"obs-{i}", gen.block(64 * _KiB))
        storage.drain()
        for i in range(0, objects, 3):
            storage.read_sync(f"obs-{i}")
        storage.delete_sync(f"obs-{objects - 1}")
    return storage, tracer


#: Fields of every span record :func:`cmd_trace` dumps, which ``report``
#: and ``top-spans`` read.
_RECORD_FIELDS = ("span_id", "parent_id", "trace_id", "stage", "start", "end")


def _load_records(args: Any) -> Optional[List[Dict[str, Any]]]:
    """Trace records from ``--trace PATH`` or a fresh seeded run.

    ``None``, after one line on stderr naming the path (and the line
    and field, for a file that is not a ``repro obs trace`` dump), when
    PATH cannot be read as one."""
    path = getattr(args, "trace", None)
    if not path:
        _storage, tracer = run_traced_workload(seed=args.seed, objects=args.objects)
        return tracer.to_records()
    try:
        return load_trace_jsonl(path, required=_RECORD_FIELDS)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc} (not a `repro obs trace` dump)", file=sys.stderr)
    return None


def cmd_trace(args: Any) -> int:
    """Run the seeded workload, dump the trace, verify its integrity."""
    storage, tracer = run_traced_workload(seed=args.seed, objects=args.objects)
    records = tracer.to_records()
    if args.out:
        count = dump_trace_jsonl(records, args.out)
        print(f"{count} spans written to {args.out}")
    else:
        for line in trace_jsonl_lines(records):
            print(line)
    if args.metrics_out:
        registry = storage_metrics(storage)
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(registry))
        print(f"metrics snapshot written to {args.metrics_out}")
    problems = check_trace(
        records,
        required_stages=REQUIRED_STAGE_PREFIXES,
        coverage_threshold=args.coverage,
    )
    roots = sum(1 for r in records if r["parent_id"] is None)
    print(
        f"trace: {len(records)} spans, {roots} root ops,"
        f" {len(stage_rollup(records))} stages,"
        f" integrity {'OK' if not problems else 'FAILED'}"
    )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_report(args: Any) -> int:
    """Per-stage rollup plus root-op coverage for a trace."""
    records = _load_records(args)
    if records is None:
        return 2
    if not records:
        print("trace is empty: no spans recorded", file=sys.stderr)
        return 1
    rollup = stage_rollup(records)
    if not rollup:
        print("no finished spans", file=sys.stderr)
        return 1
    width = max(len(stage) for stage in rollup)
    print(f"{'stage'.ljust(width)}  count  seconds     mean        max")
    for stage, entry in rollup.items():
        print(
            f"{stage.ljust(width)}  {int(entry['count']):5d}"
            f"  {entry['seconds']:.6f}  {entry['mean']:.6f}  {entry['max']:.6f}"
        )
    coverage = coverage_by_root(records)
    if coverage:
        worst = min(coverage.values())
        mean = sum(coverage.values()) / len(coverage)
        print(
            f"root coverage: {len(coverage)} timed roots,"
            f" mean {mean:.1%}, worst {worst:.1%}"
        )
    problems = check_trace(records, required_stages=REQUIRED_STAGE_PREFIXES)
    print(f"integrity: {'OK' if not problems else f'{len(problems)} problem(s)'}")
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_top_spans(args: Any) -> int:
    """The N slowest spans, longest first."""
    records = _load_records(args)
    if records is None:
        return 2
    slowest = top_spans(records, limit=args.limit, stage_prefix=args.stage)
    if not slowest:
        print("no finished spans matched", file=sys.stderr)
        return 1
    for record in slowest:
        duration = record["end"] - record["start"]
        tags = record.get("tags") or {}
        tag_text = " ".join(f"{k}={tags[k]}" for k in sorted(tags))
        print(
            f"{duration:.6f}s  {record['stage']}"
            f"  id {record['span_id']} trace {record['trace_id']}"
            + (f"  {tag_text}" if tag_text else "")
        )
    return 0
