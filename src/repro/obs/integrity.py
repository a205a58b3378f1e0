"""Trace-tree integrity checks and per-stage rollups.

``check_trace`` is the contract behind the ``obs-smoke`` CI job: every
span must be finished, every ``parent_id`` must resolve inside the same
trace, children must nest inside their parents, the expected pipeline
stages must all appear, and for each root op the union of its
descendants' intervals must cover at least ``coverage_threshold`` of
the root's duration — i.e. the trace accounts for where the op's time
actually went instead of leaving dark gaps.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["check_trace", "stage_rollup", "coverage_by_root", "top_spans"]

#: Numerical slack for interval comparisons (sim floats accumulate).
_EPS = 1e-9


def _index(records: Sequence[Dict[str, Any]]) -> Dict[int, Dict[str, Any]]:
    return {int(r["span_id"]): r for r in records}


def check_trace(
    records: Sequence[Dict[str, Any]],
    required_stages: Sequence[str] = (),
    coverage_threshold: float = 0.95,
) -> List[str]:
    """Validate a span-record list; returns problems ([] means OK).

    ``required_stages`` holds stage-name *prefixes* ("engine.",
    "rados.", ...) that must each match at least one span.
    """
    problems: List[str] = []
    by_id = _index(records)
    if len(by_id) != len(records):
        problems.append("duplicate span ids in trace")

    stages_seen = [str(r["stage"]) for r in records]
    for prefix in required_stages:
        if not any(stage.startswith(prefix) for stage in stages_seen):
            problems.append(f"required stage prefix {prefix!r} never appeared")

    for record in records:
        sid = int(record["span_id"])
        stage = record["stage"]
        start = record["start"]
        end = record["end"]
        if end is None:
            problems.append(f"span {sid} ({stage}) was never finished")
            continue
        if end + _EPS < start:
            problems.append(f"span {sid} ({stage}) ends before it starts")
        parent_id = record["parent_id"]
        if parent_id is None:
            continue
        parent = by_id.get(int(parent_id))
        if parent is None:
            problems.append(f"span {sid} ({stage}) is orphaned: parent {parent_id} missing")
            continue
        if parent["trace_id"] != record["trace_id"]:
            problems.append(
                f"span {sid} ({stage}) crosses traces:"
                f" {record['trace_id']} vs parent's {parent['trace_id']}"
            )
        if parent["end"] is not None and (
            start + _EPS < parent["start"] or end > parent["end"] + _EPS
        ):
            problems.append(
                f"span {sid} ({stage}) escapes its parent"
                f" {parent['span_id']} ({parent['stage']}) interval"
            )

    for root_id, coverage in coverage_by_root(records).items():
        if coverage + _EPS < coverage_threshold:
            root = by_id[root_id]
            problems.append(
                f"root span {root_id} ({root['stage']}) has only"
                f" {coverage:.1%} of its time covered by child spans"
                f" (need {coverage_threshold:.0%})"
            )
    return problems


def coverage_by_root(records: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Fraction of each root span's duration covered by its descendants.

    Roots with (near-)zero duration are skipped — there is nothing to
    cover.  Descendant intervals are clipped to the root and unioned,
    so overlapping children are not double-counted.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    roots: Dict[int, Tuple[int, float, float]] = {}
    for record in records:
        if record["end"] is None:
            continue
        trace_id = int(record["trace_id"])
        if record["parent_id"] is None:
            roots[int(record["span_id"])] = (trace_id, record["start"], record["end"])
        else:
            children.setdefault(trace_id, []).append((record["start"], record["end"]))

    result: Dict[int, float] = {}
    for root_id, (trace_id, start, end) in sorted(roots.items()):
        duration = end - start
        if duration <= _EPS:
            continue
        intervals = sorted(
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(trace_id, [])
            if hi > start and lo < end
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[root_id] = covered / duration
    return result


def _row(record: Dict[str, Any]) -> str:
    """A span's rollup row: its stage, and for a lock wait the lock
    table its ``lock`` tag names (``lock.wait[tier.object]``)."""
    stage = str(record["stage"])
    lock = (record.get("tags") or {}).get("lock") if stage == "lock.wait" else None
    return f"{stage}[{str(lock).split(':', 1)[0]}]" if lock else stage


def stage_rollup(records: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by stage name, lock waits by lock table.

    Returns ``{row: {"count", "seconds", "mean", "max"}}`` with
    seconds summed over span durations (a child's time is *also* inside
    its parent's — rollups answer "how long did stage X run in total",
    not "where did exclusive time go").  A ``lock.wait`` span's row names
    the table of the lock it waited for, so the object locks, the
    substrate's write locks and the chunk locks each get one.
    """
    rollup: Dict[str, Dict[str, float]] = {}
    for record in records:
        if record["end"] is None:
            continue
        duration = float(record["end"]) - float(record["start"])
        entry = rollup.setdefault(
            _row(record), {"count": 0.0, "seconds": 0.0, "max": 0.0}
        )
        entry["count"] += 1
        entry["seconds"] += duration
        entry["max"] = max(entry["max"], duration)
    for entry in rollup.values():
        entry["mean"] = entry["seconds"] / entry["count"] if entry["count"] else 0.0
    return {stage: rollup[stage] for stage in sorted(rollup)}


def top_spans(
    records: Sequence[Dict[str, Any]], limit: int = 10, stage_prefix: Optional[str] = None
) -> List[Dict[str, Any]]:
    """The ``limit`` longest finished spans, longest first.

    Ties break on span id so the ordering is deterministic.
    """
    finished = [
        r
        for r in records
        if r["end"] is not None
        and (stage_prefix is None or str(r["stage"]).startswith(stage_prefix))
    ]
    finished.sort(key=lambda r: (-(r["end"] - r["start"]), int(r["span_id"])))
    return finished[:limit]
