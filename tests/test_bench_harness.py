"""Tests for the shared benchmark harness helpers."""


from repro.bench import build_cluster, fmt_bytes, inline, original, proposed, render_table
from repro.bench.harness import default_config
from repro.cluster import ErasureCoded, Replicated


def test_fmt_bytes():
    assert fmt_bytes(512) == "512B"
    assert fmt_bytes(2048) == "2.0KiB"
    assert fmt_bytes(3 * 1024 * 1024) == "3.0MiB"
    assert fmt_bytes(5 * 1024**4) == "5.0TiB"


def test_render_table_alignment():
    lines = render_table(
        "T", ["col", "x"], [("a", 1), ("long-cell", 22)], notes=["note"]
    )
    assert lines[0] == "== T =="
    assert "long-cell" in lines[4]
    assert lines[-1].strip() == "note"
    # Columns align: header and rows share the same prefix width.
    assert lines[1].index("x") == lines[3].index("1")


def test_build_cluster_paper_shape():
    cluster = build_cluster()
    assert len(cluster.nodes) == 4
    assert len(cluster.osds) == 16


def test_default_config_paper_values():
    config = default_config()
    assert config.chunk_size == 32 * 1024
    assert default_config(chunk_size=4096).chunk_size == 4096


def test_storage_builders():
    plain = original()
    assert isinstance(plain.pool.redundancy, Replicated)
    plain_ec = original(ec=True)
    assert isinstance(plain_ec.pool.redundancy, ErasureCoded)
    dedup = proposed()
    assert dedup.tier.metadata_pool.redundancy == Replicated(2)
    dedup_ec = proposed(ec=True)
    assert dedup_ec.tier.chunk_pool.redundancy == ErasureCoded(2, 1)
    flush = proposed(flush_on_write=True)
    assert flush.flush_on_write
    inl = inline()
    assert inl.config.chunk_size == 32 * 1024


def test_report_registry():
    from repro.bench import harness

    before = len(harness.RESULTS)
    harness.report(["== t ==", "row"])
    assert len(harness.RESULTS) == before + 1
    harness.RESULTS.pop()
