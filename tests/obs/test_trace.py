"""The tracer: installed from outside, spans on the simulated clock,
context carried by the running process, and nothing left behind."""

import cProfile
import os
import pstats

import pytest

import repro.obs.trace as trace_module
from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import FaultEvent
from repro.obs import SPAN_TARGETS, Tracer, check_trace
from repro.obs.trace import Span
from repro.obs.trace import _owner_of
from repro.sim import Simulator
from repro.workloads import ContentGenerator

KiB = 1024
TRACE_PY = os.path.abspath(trace_module.__file__)


def make_storage(**config):
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=16)
    return DedupedStorage(
        cluster, DedupConfig(chunk_size=16 * KiB, **config), start_engine=False
    )


def small_workload(storage):
    gen = ContentGenerator(seed=5, dedupe_ratio=0.6)
    for i in range(6):
        storage.write_sync(f"o-{i}", gen.block(32 * KiB))
    storage.drain()
    data = [storage.read_sync(f"o-{i}") for i in range(6)]
    storage.delete_sync("o-0")
    return data


def test_span_tree_ids_and_trace_propagation():
    storage = make_storage()
    with Tracer(storage.sim) as tracer:
        storage.write_sync("a", b"x" * (20 * KiB))
    spans = tracer.spans
    assert [s.span_id for s in spans] == list(range(1, len(spans) + 1))
    root = spans[0]
    assert root.stage == "op.write" and root.parent_id is None
    assert root.tags == {"oid": "a", "nbytes": 20 * KiB}
    by_id = {s.span_id: s for s in spans}
    for span in spans[1:]:
        # Every descendant shares the root's trace id, and its parent
        # chain ends at the root.
        assert span.trace_id == root.span_id
        up = span
        while up.parent_id is not None:
            up = by_id[up.parent_id]
        assert up is root
    stages = {s.stage for s in spans}
    assert {"lock.wait", "tier.load_chunk_map", "rados.submit"} <= stages
    (submit,) = [s for s in spans if s.stage == "rados.submit"]
    assert submit.tags == {"pool": storage.tier.metadata_pool.name, "oid": "a"}


def test_span_times_are_the_simulated_clock():
    storage = make_storage()
    storage.write_sync("a", b"x" * KiB)  # untraced
    before = storage.sim.now
    with Tracer(storage.sim) as tracer:
        storage.read_sync("a")
    (root,) = [s for s in tracer.spans if s.parent_id is None]
    assert root.stage == "op.read"
    assert root.start == before
    assert root.end == storage.sim.now > before


def test_disabled_tracer_buffers_nothing():
    storage = make_storage()
    idle = Tracer(storage.sim)  # built, never installed
    storage.write_sync("a", b"x" * KiB)
    with Tracer(storage.sim) as tracer:
        storage.write_sync("b", b"y" * KiB)
    recorded = len(tracer)
    storage.write_sync("c", b"z" * KiB)  # after the block
    assert len(idle) == 0 and idle.to_records() == []
    assert recorded > 0 and len(tracer) == recorded


def test_a_raising_target_ends_its_span_with_an_error_tag():
    storage = make_storage()
    with Tracer(storage.sim) as tracer:
        with pytest.raises(Exception):
            storage.delete_sync("ghost")
    (root,) = tracer.spans[:1]
    assert root.stage == "op.delete"
    assert root.end is not None
    assert root.tags["error"] == "NoSuchObject"


def test_clear_keeps_id_sequence_monotonic():
    storage = make_storage()
    with Tracer(storage.sim) as tracer:
        storage.write_sync("a", b"x" * KiB)
        last = tracer.spans[-1].span_id
        tracer.clear()
        assert len(tracer) == 0
        storage.write_sync("b", b"y" * KiB)
    assert tracer.spans[0].span_id == last + 1  # ids never reused


def test_to_record_shape():
    root = Span(1, None, "op.write", 0.0, {"oid": "x"})
    root.end = 1.0
    child = Span(2, root, "tier.load_chunk_map", 0.25, {})
    assert root.to_record() == {
        "span_id": 1,
        "parent_id": None,
        "trace_id": 1,
        "stage": "op.write",
        "start": 0.0,
        "end": 1.0,
        "tags": {"oid": "x"},
        "events": [],
    }
    assert (child.parent_id, child.trace_id, child.end) == (1, 1, None)


def test_untraced_runs_no_tracer_code():
    profile = cProfile.Profile()
    profile.enable()
    try:
        small_workload(make_storage())
    finally:
        profile.disable()
    ran = [
        name
        for (filename, _line, name) in pstats.Stats(profile).stats
        if os.path.abspath(filename) == TRACE_PY
    ]
    assert ran == []


def test_uninstall_restores_every_patched_attribute_by_identity():
    def originals():
        found = {}
        for module, qualname, _stage, _tags in SPAN_TARGETS:
            owner, name = _owner_of(module, qualname)
            found[(module, qualname)] = vars(owner)[name]
        found["Simulator.process"] = vars(Simulator)["process"]
        return found

    before = originals()
    sim = Simulator()
    with Tracer(sim):
        during = originals()
        assert all(during[key] is not before[key] for key in before)
        with pytest.raises(RuntimeError, match="already installed"):
            with Tracer(sim):
                pass
        assert originals() == during  # the refused install changed nothing
    after = originals()
    assert all(after[key] is before[key] for key in before)
    with Tracer(sim):  # and a later install is fine again
        pass


def event_log(traced):
    """``(sim.now, label)`` for every op outcome of a faulted run with a
    background engine, then the kernel's event and retry counts."""
    storage = make_storage(hit_count_threshold=1)
    sim = storage.sim
    FaultInjector(storage.cluster, FaultPlan([
        FaultEvent(0.0, "transient_errors", "1", duration=0.004,
                   params={"probability": 0.5}),
    ], seed=3)).attach()
    log = []
    gen = ContentGenerator(seed=9, dedupe_ratio=0.5)
    payloads = [gen.block(24 * KiB) for _ in range(4)]

    def client(k):
        for rnd in range(3):
            oid = f"o-{(k + rnd) % 4}"
            for label, op in (
                ("w", storage.write(oid, payloads[(k * 3 + rnd) % 4])),
                ("r", storage.read(oid)),
            ):
                try:
                    yield from op
                    log.append((sim.now, f"{label}{k}.{rnd} ok"))
                except Exception as exc:
                    log.append((sim.now, f"{label}{k}.{rnd} {type(exc).__name__}"))

    def scenario():
        storage.engine.start()
        yield sim.all_of([sim.process(client(k)) for k in range(3)])
        storage.engine.stop()

    def run():
        storage.cluster.run(scenario())
        storage.drain()
        storage.delete_sync("o-1")
        sim.run()
        log.append((sim.now, "events %d" % sim._processed_events))
        log.append((sim.now, "retries %d" % storage.tier.retry_stats.retries))

    if traced:
        with Tracer(sim) as tracer:
            run()
        assert check_trace(tracer.to_records(), coverage_threshold=0.0) == []
    else:
        run()
    return log


def test_a_traced_run_is_event_for_event_the_untraced_one():
    assert event_log(traced=True) == event_log(traced=False)


def test_background_work_an_op_sets_off_is_a_root_of_its_own():
    # A read of a hot, evicted object spawns its promotion and returns:
    # the promotion outlives the read, so it must not be the read's child.
    storage = make_storage(hit_count_threshold=1, cache_on_flush=True)
    storage.write_sync("hot", b"h" * (32 * KiB))
    storage.drain()
    for index in (0, 1):  # evict both chunks: the read goes to the chunk pool
        storage.cluster.run(storage.engine.demote_chunk("hot", index))
    with Tracer(storage.sim) as tracer:
        storage.read_sync("hot")
        storage.sim.run()
    records = tracer.to_records()
    roots = [r["stage"] for r in records if r["parent_id"] is None]
    assert roots == ["op.read", "op.promote"]
    assert check_trace(records) == []


def test_processes_of_another_simulator_are_not_traced():
    traced, other = make_storage(), make_storage()
    with Tracer(traced.sim) as tracer:
        other.write_sync("a", b"x" * KiB)
        assert len(tracer) == 0
        traced.write_sync("a", b"x" * KiB)
    assert {s.trace_id for s in tracer.spans} == {tracer.spans[0].span_id}


def test_the_old_chunk_release_is_a_root_that_starts_after_its_pass_ends():
    # Worker passes that replace a flushed chunk end at their map commit
    # and free their locks; the old chunk's release runs behind the
    # pass, a root of its own named for the pass's first member.
    storage = make_storage(cache_on_flush=False)
    for i in range(4):
        storage.write_sync(f"o-{i}", bytes([i + 1]) * (16 * KiB))
    storage.drain()
    for i in range(4):
        storage.write_sync(f"o-{i}", b"M" * 100, offset=4 * KiB)
    with Tracer(storage.sim) as tracer:
        storage.drain()
    records = tracer.to_records()
    assert check_trace(records) == []
    releases = [r for r in records if r["stage"] == "op.release"]
    passes = {r["tags"]["oid"]: r for r in records if r["stage"] == "op.dedup_pass"}
    assert len(releases) == len(passes) == 4
    for record in releases:
        assert record["parent_id"] is None
        assert record["start"] >= passes[record["tags"]["oid"]]["end"]
