"""check_trace / coverage / rollup / top_spans on hand-built records."""

from repro.obs import check_trace
from repro.obs.integrity import stage_rollup
from repro.obs.integrity import coverage_by_root, top_spans


def rec(span_id, parent_id, trace_id, stage, start, end, **tags):
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": trace_id,
        "stage": stage,
        "start": start,
        "end": end,
        "tags": tags,
        "events": [],
    }


def clean_trace():
    return [
        rec(1, None, 1, "op.write", 0.0, 10.0),
        rec(2, 1, 1, "engine.chunk", 0.0, 4.0),
        rec(3, 1, 1, "tier.commit", 4.0, 10.0),
        rec(4, 3, 1, "rados.submit", 5.0, 9.0),
    ]


def test_clean_trace_passes():
    assert check_trace(clean_trace()) == []
    assert (
        check_trace(
            clean_trace(),
            required_stages=("op.", "engine.", "tier.", "rados."),
        )
        == []
    )


def test_unfinished_span_is_reported():
    records = clean_trace()
    records[2]["end"] = None
    problems = check_trace(records)
    assert any("never finished" in p for p in problems)


def test_end_before_start_is_reported():
    records = [rec(1, None, 1, "op.write", 5.0, 1.0)]
    assert any("ends before it starts" in p for p in check_trace(records))


def test_orphan_parent_is_reported():
    records = [rec(2, 99, 1, "tier.commit", 0.0, 1.0)]
    assert any("orphaned" in p for p in check_trace(records))


def test_cross_trace_parent_is_reported():
    records = [
        rec(1, None, 1, "op.write", 0.0, 10.0),
        rec(2, 1, 7, "tier.commit", 0.0, 10.0),  # wrong trace_id
    ]
    assert any("crosses traces" in p for p in check_trace(records))


def test_child_escaping_parent_interval_is_reported():
    records = [
        rec(1, None, 1, "op.write", 0.0, 10.0),
        rec(2, 1, 1, "tier.commit", 8.0, 12.0),  # runs past the parent
    ]
    assert any("escapes its parent" in p for p in check_trace(records))


def test_missing_required_stage_is_reported():
    problems = check_trace(clean_trace(), required_stages=("cache.",))
    assert any("cache." in p for p in problems)


def test_duplicate_span_ids_are_reported():
    records = [
        rec(1, None, 1, "op.write", 0.0, 1.0),
        rec(1, None, 1, "op.read", 0.0, 1.0),
    ]
    assert any("duplicate span ids" in p for p in check_trace(records))


def test_low_coverage_root_is_reported():
    records = [
        rec(1, None, 1, "op.write", 0.0, 10.0),
        rec(2, 1, 1, "tier.commit", 0.0, 5.0),  # only half the root covered
    ]
    problems = check_trace(records, coverage_threshold=0.95)
    assert any("covered by child spans" in p for p in problems)
    assert check_trace(records, coverage_threshold=0.5) == []


def test_coverage_unions_overlapping_children():
    records = [
        rec(1, None, 1, "op.write", 0.0, 10.0),
        # Two overlapping children spanning [0, 6] and [4, 10]: union is
        # the whole root, and the overlap must not double-count.
        rec(2, 1, 1, "tier.a", 0.0, 6.0),
        rec(3, 1, 1, "tier.b", 4.0, 10.0),
    ]
    coverage = coverage_by_root(records)
    assert coverage == {1: 1.0}


def test_coverage_skips_zero_duration_roots():
    records = [rec(1, None, 1, "op.noop", 3.0, 3.0)]
    assert coverage_by_root(records) == {}
    # ...and check_trace therefore doesn't flag them either.
    assert check_trace(records) == []


def test_stage_rollup_aggregates_by_stage():
    records = [
        rec(1, None, 1, "op.write", 0.0, 4.0),
        rec(2, None, 2, "op.write", 0.0, 2.0),
        rec(3, 1, 1, "tier.commit", 0.0, 1.0),
        rec(4, None, 4, "op.open", 0.0, None),  # unfinished: excluded
    ]
    rollup = stage_rollup(records)
    assert list(rollup) == ["op.write", "tier.commit"]  # sorted
    assert rollup["op.write"]["count"] == 2
    assert rollup["op.write"]["seconds"] == 6.0
    assert rollup["op.write"]["mean"] == 3.0
    assert rollup["op.write"]["max"] == 4.0


def test_stage_rollup_splits_lock_waits_by_lock_table():
    records = [
        rec(1, None, 1, "op.write", 0.0, 4.0),
        rec(2, 1, 1, "lock.wait", 0.0, 1.0, lock="tier.object:obj1"),
        rec(3, 1, 1, "lock.wait", 1.0, 1.5, lock="rados.write:1/3/obj1"),
        rec(4, 1, 1, "lock.wait", 2.0, 2.0, lock="tier.object:obj2"),
        rec(5, 1, 1, "lock.wait", 3.0, 3.25, lock="tier.chunk:abc"),
    ]
    rollup = stage_rollup(records)
    assert list(rollup) == [
        "lock.wait[rados.write]", "lock.wait[tier.chunk]", "lock.wait[tier.object]", "op.write",
    ]
    assert rollup["lock.wait[tier.object]"]["count"] == 2
    assert rollup["lock.wait[tier.object]"]["seconds"] == 1.0
    assert rollup["lock.wait[rados.write]"]["max"] == 0.5


def test_top_spans_orders_filters_and_limits():
    records = [
        rec(1, None, 1, "op.write", 0.0, 1.0),
        rec(2, None, 2, "op.read", 0.0, 5.0),
        rec(3, None, 3, "tier.commit", 0.0, 3.0),
        rec(4, None, 4, "op.open", 0.0, None),  # unfinished: excluded
        rec(5, None, 5, "op.delete", 0.0, 5.0),  # same duration as span 2
    ]
    ordered = [r["span_id"] for r in top_spans(records)]
    assert ordered == [2, 5, 3, 1]  # ties break on span id
    assert [r["span_id"] for r in top_spans(records, limit=2)] == [2, 5]
    only_ops = top_spans(records, stage_prefix="op.")
    assert all(r["stage"].startswith("op.") for r in only_ops)
