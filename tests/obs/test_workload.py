"""End-to-end obs tests: traced workloads, the CLI, and collectors."""

import contextlib

import pytest

from repro.cli import main
from repro.obs import Tracer, check_trace
from repro.obs.cli import REQUIRED_STAGE_PREFIXES, run_traced_workload
from repro.obs.collect import storage_metrics
from repro.obs.export import load_trace_jsonl

KiB = 1024


def test_traced_workload_satisfies_the_obs_smoke_contract():
    _storage, tracer = run_traced_workload(seed=3, objects=12)
    records = tracer.to_records()
    assert records
    problems = check_trace(
        records,
        required_stages=REQUIRED_STAGE_PREFIXES,
        coverage_threshold=0.95,
    )
    assert problems == []
    roots = {r["stage"] for r in records if r["parent_id"] is None}
    assert {"op.write", "op.dedup_pass", "op.read", "op.delete"} <= roots


def test_traced_workload_is_deterministic():
    first = run_traced_workload(seed=7, objects=10)[1].to_records()
    second = run_traced_workload(seed=7, objects=10)[1].to_records()
    assert first == second  # bit-for-bit: ids, stages, times, tags


def test_tracing_does_not_perturb_the_simulation():
    from repro.cluster import RadosCluster
    from repro.core import DedupConfig, DedupedStorage
    from repro.workloads import ContentGenerator

    def run(traced):
        cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
        storage = DedupedStorage(
            cluster, DedupConfig(chunk_size=16 * KiB), start_engine=False
        )
        gen = ContentGenerator(seed=5, dedupe_ratio=0.6)
        with Tracer(storage.sim) if traced else contextlib.nullcontext():
            for i in range(8):
                storage.write_sync(f"o-{i}", gen.block(32 * KiB))
            storage.drain()
            data = [storage.read_sync(f"o-{i}") for i in range(8)]
        return data, storage.sim.now

    traced_data, traced_now = run(True)
    plain_data, plain_now = run(False)
    assert traced_data == plain_data
    assert traced_now == plain_now


def test_storage_metrics_snapshot_contains_core_families():
    storage, _tracer = run_traced_workload(seed=1, objects=6)
    registry = storage_metrics(storage)
    names = {family.name for family in registry.families()}
    assert {
        "repro_sim_seconds",
        "repro_engine_ops",
        "repro_space_bytes",
        "repro_dedup_ratio_ideal",
    } <= names
    assert registry.get("repro_sim_seconds").labels().value == storage.sim.now


def test_storage_metrics_exports_cache_and_read_fanout_counters():
    """The map-cache, read-cache and fan-out counters surface through
    the one stage-counter family, and survive Prometheus text
    exposition."""
    from repro.cluster import RadosCluster
    from repro.core import DedupConfig, DedupedStorage
    from repro.obs.export import prometheus_text
    from repro.workloads import ContentGenerator

    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=8)
    storage = DedupedStorage(
        cluster,
        DedupConfig(chunk_size=16 * KiB, cache_on_flush=False),
        start_engine=False,
    )
    gen = ContentGenerator(seed=11, dedupe_ratio=0.5)
    for i in range(4):
        storage.write_sync(f"o-{i}", gen.block(64 * KiB))
    storage.drain()
    for _ in range(2):
        for i in range(4):
            storage.read_sync(f"o-{i}")

    registry = storage_metrics(storage)
    names = {family.name for family in registry.families()}
    assert "repro_stage_counters" in names
    assert not names & {"repro_cache_events", "repro_read_fanout"}

    stage = storage.tier.stage
    counters = registry.get("repro_stage_counters")
    for counter in ("map_cache_hits", "map_cache_misses",
                    "map_cache_invalidations", "cache_hits", "cache_misses",
                    "fanout_chunk_reads"):
        assert counters.labels(counter=counter).value == getattr(stage, counter)
    # The workload above actually drove the map cache and the fan-out.
    assert stage.map_cache_hits > 0
    assert stage.fanout_chunk_reads > 0
    assert stage.cache_misses > 0

    text = prometheus_text(registry)
    assert 'repro_stage_counters{counter="map_cache_hits"}' in text
    assert 'repro_stage_counters{counter="fanout_chunk_reads"}' in text


def test_obs_cli_trace_report_and_top_spans(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.jsonl")
    metrics_path = str(tmp_path / "metrics.prom")
    assert (
        main(
            [
                "obs",
                "trace",
                "--objects",
                "9",
                "--out",
                trace_path,
                "--metrics-out",
                metrics_path,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "integrity OK" in out
    records = load_trace_jsonl(trace_path)
    assert check_trace(records, required_stages=REQUIRED_STAGE_PREFIXES) == []
    with open(metrics_path, encoding="utf-8") as fh:
        assert "repro_sim_seconds" in fh.read()

    assert main(["obs", "report", "--trace", trace_path]) == 0
    report = capsys.readouterr().out
    assert "root coverage:" in report
    assert "integrity: OK" in report
    assert "op.write" in report

    assert (
        main(
            ["obs", "top-spans", "--trace", trace_path, "-n", "3", "--stage", "op."]
        )
        == 0
    )
    top = capsys.readouterr().out.strip().splitlines()
    assert len(top) == 3
    assert all("op." in line for line in top)


def test_obs_report_rejects_an_empty_trace(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["obs", "report", "--trace", str(empty)]) == 1


def test_obs_report_rejects_a_trace_with_no_finished_span(tmp_path, capsys):
    dump = tmp_path / "open.jsonl"
    dump.write_text(
        '{"end":null,"events":[],"parent_id":null,"span_id":1,'
        '"stage":"op.write","start":0.0,"tags":{},"trace_id":1}\n'
    )
    assert main(["obs", "report", "--trace", str(dump)]) == 1
    assert "no finished spans" in capsys.readouterr().err


E2E_SPAN = '{"id":0,"name":"DedupedStorage.write","start":0.0,"end":0.001,"parent":-1,"root":0,"a":null,"b":null}\n'


@pytest.mark.parametrize("command", ["report", "top-spans"])
@pytest.mark.parametrize(
    "content, where",
    [
        # A span of the e2e benchmark's own tracer (``run.py --out``).
        (E2E_SPAN, ":1: span record has no 'span_id' field"),
        ("\n" + E2E_SPAN.replace('"id"', '"span_id"'), ":2: span record has no 'parent_id' field"),
        ('{"span_id": 1,\n', ":1: not JSON"),
        ("[1, 2]\n", ":1: not a span record"),
        (None, ": No such file or directory"),
    ],
    ids=["e2e-span", "e2e-span-line-2", "bad-json", "not-a-record", "missing-file"],
)
def test_obs_report_and_top_spans_reject_a_file_that_is_not_a_trace_dump(
    tmp_path, capsys, command, content, where
):
    path = tmp_path / "spans.jsonl"
    if content is not None:
        path.write_text(content)
    assert main(["obs", command, "--trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {path}{where}")
