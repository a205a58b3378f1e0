"""Batched reference commits and the requeue-dedupe regression.

The batched hot path (``ChunkBatch`` -> ``DedupTier.commit_chunk_batch``
-> ``RadosCluster.submit_batch``) must be observationally identical to
the sequential ``chunk_ref``/``chunk_deref`` path: same refcounts, same
chunk objects, same space report — for any interleaving of refs and
derefs, and under injected transient faults (the batch prepares every
placement group before committing any, and every op is idempotent, so a
faulted attempt retries as a unit).
"""

import pytest

from repro.cluster import RadosCluster
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


def make_tier():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    tier = DedupTier(cluster, DedupConfig(chunk_size=1024))
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


# -- batched == sequential equivalence --------------------------------------


def apply_sequential(tier, via, ops):
    for kind, chunk_idx, ref_idx in ops:
        if kind == "ref":
            tier.cluster.run(
                tier.chunk_ref(FPS[chunk_idx], REFS[ref_idx], PAYLOADS[chunk_idx], via)
            )
        else:
            tier.cluster.run(tier.chunk_deref(FPS[chunk_idx], REFS[ref_idx], via))


def apply_batched(tier, via, ops, batch_size):
    for start in range(0, len(ops), batch_size):
        batch = ChunkBatch()
        for kind, chunk_idx, ref_idx in ops[start : start + batch_size]:
            if kind == "ref":
                batch.ref(FPS[chunk_idx], REFS[ref_idx], PAYLOADS[chunk_idx])
            else:
                batch.deref(FPS[chunk_idx], REFS[ref_idx])
        tier.cluster.run(tier.commit_chunk_batch(batch, via))


def assert_equivalent(batched_tier, sequential_tier):
    for fp in FPS:
        assert batched_tier.chunk_refcount(fp) == sequential_tier.chunk_refcount(fp)
        assert batched_tier.cluster.exists(
            batched_tier.chunk_pool, fp
        ) == sequential_tier.cluster.exists(sequential_tier.chunk_pool, fp)
    assert batched_tier.space_report() == sequential_tier.space_report()


def test_mixed_batch_matches_sequential():
    ops = [
        ("ref", 0, 0),
        ("ref", 0, 1),
        ("ref", 1, 0),
        ("deref", 0, 0),
        ("ref", 2, 2),
        ("deref", 2, 2),  # net no-op within one batch: chunk never created
        ("deref", 1, 3),  # deref of a reference never taken: no-op
    ]
    batched, bvia = make_tier()
    sequential, svia = make_tier()
    apply_batched(batched, bvia, ops, batch_size=len(ops))
    apply_sequential(sequential, svia, ops)
    assert_equivalent(batched, sequential)
    assert not batched.cluster.exists(batched.chunk_pool, FPS[2])


def test_batch_to_zero_refs_removes_chunk():
    batched, bvia = make_tier()
    apply_batched(batched, bvia, [("ref", 0, 0), ("ref", 0, 1)], batch_size=2)
    assert batched.chunk_refcount(FPS[0]) == 2
    apply_batched(batched, bvia, [("deref", 0, 0), ("deref", 0, 1)], batch_size=2)
    assert not batched.cluster.exists(batched.chunk_pool, FPS[0])


# -- property: ANY interleaving, ANY batch split ----------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

op_strategy = st.tuples(
    st.sampled_from(["ref", "deref"]),
    st.integers(min_value=0, max_value=len(PAYLOADS) - 1),
    st.integers(min_value=0, max_value=len(REFS) - 1),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=24),
    batch_size=st.integers(min_value=1, max_value=8),
)
def test_any_interleaving_batched_equals_sequential(ops, batch_size):
    batched, bvia = make_tier()
    sequential, svia = make_tier()
    apply_batched(batched, bvia, ops, batch_size)
    apply_sequential(sequential, svia, ops)
    assert_equivalent(batched, sequential)


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
def test_batched_equals_sequential_under_faults(ops, batch_size, fault_seed):
    """Transient faults on the batched side change nothing observable.

    EIO windows and slow disks hit the batched cluster while a pristine
    cluster runs the same ops sequentially; retrying a faulted batch as
    a unit (legal because nothing commits before every group prepares,
    and every op is idempotent) must converge to the same state.
    """
    from repro.faults import FaultInjector, FaultPlan
    from repro.faults.retry import RetryPolicy, call_with_retries

    batched, bvia = make_tier()
    plan = FaultPlan.generate(
        seed=fault_seed,
        horizon=2.0,
        osd_ids=list(batched.cluster.osds),
        crash_rate=0.0,        # availability faults would need recovery,
        partition_rate=0.0,    # not retry — out of scope for equivalence
        slow_rate=1.0,
        eio_rate=1.5,
    )
    FaultInjector(batched.cluster, plan, auto_recover=True).attach()
    policy = RetryPolicy(max_attempts=10, base_delay=0.01, max_delay=0.5)

    for start in range(0, len(ops), batch_size):
        batch = ChunkBatch()
        for kind, chunk_idx, ref_idx in ops[start : start + batch_size]:
            if kind == "ref":
                batch.ref(FPS[chunk_idx], REFS[ref_idx], PAYLOADS[chunk_idx])
            else:
                batch.deref(FPS[chunk_idx], REFS[ref_idx])
        batched.cluster.run(
            call_with_retries(
                batched.cluster.sim,
                policy,
                lambda b=batch: batched.commit_chunk_batch(b, bvia),
                op="commit_chunk_batch",
            )
        )
    batched.cluster.sim.run()  # let remaining fault windows expire

    sequential, svia = make_tier()
    apply_sequential(sequential, svia, ops)
    assert_equivalent(batched, sequential)
