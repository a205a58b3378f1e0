"""Batched reference commits and the requeue-dedupe regression.

``ChunkBatch`` -> ``DedupTier.commit_chunk_batch`` ->
``RadosCluster.submit_batch`` is the one way a chunk's references
change.  On a replicated and on an erasure-coded chunk pool alike it
must match a plain model — chunk -> set of references, the payload
stored iff the set is non-empty — for any interleaving of refs and
derefs, and under injected transient faults (the batch prepares every
placement group before committing any, so a faulted attempt changes no
chunk object and retries as a unit).
"""

import pytest

from repro.cluster import ErasureCoded, RadosCluster, Replicated
from repro.core import DedupConfig
from repro.core.objects import ChunkRef
from repro.core.tier import ChunkBatch, DedupTier, NodeClient
from repro.fingerprint import fingerprint

# Small, distinct chunk payloads; their fingerprints are the chunk ids.
PAYLOADS = [bytes([i]) * 512 for i in range(3)]
FPS = [fingerprint(p) for p in PAYLOADS]
# (pool_id, oid, offset) back-references; pool_id 1 matches the
# metadata pool of every cluster built by make_tier (deterministic ids).
REFS = [ChunkRef(1, f"o{i}", i * 512) for i in range(4)]


POOLS = pytest.mark.parametrize(
    "chunk_redundancy",
    [Replicated(2), ErasureCoded(k=2, m=1)],
    ids=["replicated", "ec"],
)


def make_tier(chunk_redundancy=None):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    tier = DedupTier(
        cluster, DedupConfig(chunk_size=1024), chunk_redundancy=chunk_redundancy
    )
    via = NodeClient(next(iter(cluster.nodes.values())))
    return tier, via


# -- requeue_dirty dedupe (regression) --------------------------------------
#
# A retryable engine abort used to requeue the same object from both the
# pass's fault handler and the worker loop's, so one oid landed on the
# dirty list twice and was drained (and re-processed) twice.


def test_delayed_requeue_is_deduplicated():
    tier, _via = make_tier()
    tier.requeue_dirty("obj", delay=0.5)
    tier.requeue_dirty("obj", delay=0.5)  # double-enqueue attempt
    tier.cluster.sim.run()
    assert tier.dirty_count == 1
    assert tier.next_dirty() == "obj"
    assert tier.next_dirty() is None


def test_delayed_requeue_skipped_when_already_dirty():
    tier, _via = make_tier()
    tier.mark_dirty("obj")
    tier.requeue_dirty("obj", delay=0.5)
    tier.cluster.sim.run()
    assert tier.dirty_count == 1


def test_requeue_after_drain_fires_again():
    # Dedupe must not suppress a legitimate later requeue.
    tier, _via = make_tier()
    tier.requeue_dirty("obj", delay=0.1)
    tier.cluster.sim.run()
    assert tier.next_dirty() == "obj"
    tier.requeue_dirty("obj", delay=0.1)
    tier.cluster.sim.run()
    assert tier.dirty_count == 1


# -- batched commits == the model ----------------------------------------------


def make_batch(ops):
    batch = ChunkBatch()
    for kind, chunk_idx, ref_idx in ops:
        if kind == "ref":
            batch.ref(FPS[chunk_idx], REFS[ref_idx], PAYLOADS[chunk_idx])
        else:
            batch.deref(FPS[chunk_idx], REFS[ref_idx])
    return batch


def apply_batched(tier, via, ops, batch_size):
    for start in range(0, len(ops), batch_size):
        tier.cluster.run(
            tier.commit_chunk_batch(make_batch(ops[start : start + batch_size]), via)
        )


def model_of(ops):
    """chunk index -> the set of references the ops leave on it."""
    model = {i: set() for i in range(len(PAYLOADS))}
    for kind, chunk_idx, ref_idx in ops:
        if kind == "ref":
            model[chunk_idx].add(REFS[ref_idx])
        else:
            model[chunk_idx].discard(REFS[ref_idx])
    return model


def assert_matches_model(tier, ops):
    for chunk_idx, refs in model_of(ops).items():
        fp = FPS[chunk_idx]
        assert set(tier._load_refs(fp)) == refs
        assert tier.cluster.exists(tier.chunk_pool, fp) == bool(refs)
        if refs:
            assert tier.cluster.read_sync(tier.chunk_pool, fp) == PAYLOADS[chunk_idx]


@POOLS
def test_mixed_batch_matches_model(chunk_redundancy):
    ops = [
        ("ref", 0, 0),
        ("ref", 0, 1),
        ("ref", 1, 0),
        ("deref", 0, 0),
        ("ref", 2, 2),
        ("deref", 2, 2),  # net no-op within one batch: chunk never created
        ("deref", 1, 3),  # deref of a reference never taken: no-op
    ]
    tier, via = make_tier(chunk_redundancy)
    apply_batched(tier, via, ops, batch_size=len(ops))
    assert_matches_model(tier, ops)
    assert not tier.cluster.exists(tier.chunk_pool, FPS[2])


def test_batch_to_zero_refs_removes_chunk():
    for chunk_redundancy in (Replicated(2), ErasureCoded(k=2, m=1)):
        tier, via = make_tier(chunk_redundancy)
        apply_batched(tier, via, [("ref", 0, 0), ("ref", 0, 1)], batch_size=2)
        assert tier.chunk_refcount(FPS[0]) == 2
        apply_batched(tier, via, [("deref", 0, 0), ("deref", 0, 1)], batch_size=2)
        assert not tier.cluster.exists(tier.chunk_pool, FPS[0])
        assert tier.cluster.list_objects(tier.chunk_pool) == []


# -- property: ANY interleaving, ANY batch split ----------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

op_strategy = st.tuples(
    st.sampled_from(["ref", "deref"]),
    st.integers(min_value=0, max_value=len(PAYLOADS) - 1),
    st.integers(min_value=0, max_value=len(REFS) - 1),
)


@POOLS
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=24),
    batch_size=st.integers(min_value=1, max_value=8),
)
def test_any_interleaving_matches_model(chunk_redundancy, ops, batch_size):
    tier, via = make_tier(chunk_redundancy)
    apply_batched(tier, via, ops, batch_size)
    assert_matches_model(tier, ops)


def chunk_objects(tier):
    """Every stored copy/shard of every chunk object, by value."""
    pool_id = tier.chunk_pool.pool_id
    return {
        (osd.osd_id, key): (obj.read(), dict(obj.xattrs))
        for osd in tier.cluster.osds.values()
        for key in osd.store.keys()
        if key.pool_id == pool_id
        for obj in [osd.store.get(key)]
    }


@POOLS
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=16),
    batch_size=st.integers(min_value=1, max_value=8),
    fault_seed=st.integers(min_value=0, max_value=10_000),
)
def test_faulted_attempts_change_nothing(chunk_redundancy, ops, batch_size, fault_seed):
    """EIO windows and slow disks hit every batch: an attempt that
    faults leaves every chunk object as it found it, and retrying the
    batch as a unit converges to the model."""
    from repro.faults import FaultInjector, FaultPlan
    from repro.faults.retry import RetryPolicy, call_with_retries

    tier, via = make_tier(chunk_redundancy)
    # The batches take a few simulated milliseconds, so the fault
    # windows are drawn over that span.
    plan = FaultPlan.generate(
        seed=fault_seed,
        horizon=0.003,
        osd_ids=list(tier.cluster.osds),
        crash_rate=0.0,        # availability faults would need recovery,
        partition_rate=0.0,    # not retry — out of scope here
        slow_rate=1.0,
        eio_rate=3.0,
    )
    FaultInjector(tier.cluster, plan, auto_recover=True).attach()
    policy = RetryPolicy(max_attempts=10, base_delay=0.01, max_delay=0.5)

    def attempt(batch):
        before = chunk_objects(tier)
        try:
            result = yield from tier.commit_chunk_batch(batch, via)
        except Exception:
            assert chunk_objects(tier) == before
            raise
        return result

    for start in range(0, len(ops), batch_size):
        batch = make_batch(ops[start : start + batch_size])
        tier.cluster.run(
            call_with_retries(
                tier.cluster.sim,
                policy,
                lambda b=batch: attempt(b),
                op="commit_chunk_batch",
            )
        )
    tier.cluster.sim.run()  # let remaining fault windows expire
    assert_matches_model(tier, ops)
