"""Engine flush pipeline: assemble -> hash -> per-PG batched commit.

These tests pin the abort hygiene (a pass that faults after hashing
takes no reference and comes back via the dirty list) and the
convergence contract (a flush under injected faults ends in the same
state as a fault-free one, partial overwrites and their deferred
read-modify-write included).
"""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage, scrub_sync
from repro.faults import FaultInjector, FaultPlan
from repro.faults.errors import TransientOpError


def make_storage(**config_overrides):
    defaults = dict(
        chunk_size=1024,
        dedup_interval=0.01,
        hitset_period=0.5,
    )
    defaults.update(config_overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


BLOCKS = [bytes([b]) * 512 for b in (7, 33, 99, 160, 255)]


def build_objects(pattern):
    """Objects assembled from shared blocks -> cross-object duplicates."""
    return {
        f"obj{i}": b"".join(BLOCKS[j % len(BLOCKS)] for j in indices)
        for i, indices in enumerate(pattern)
    }


def flush_all(storage, objects):
    for oid, data in objects.items():
        storage.write_sync(oid, data)
    storage.drain()


def assert_equivalent(faulted, pristine, objects):
    chunks = pristine.cluster.list_objects(pristine.tier.chunk_pool)
    assert faulted.cluster.list_objects(faulted.tier.chunk_pool) == chunks
    for fp in chunks:
        assert faulted.tier.chunk_refcount(fp) == pristine.tier.chunk_refcount(fp)
    assert faulted.space_report() == pristine.space_report()
    for oid, data in objects.items():
        assert faulted.read_sync(oid) == data
    assert scrub_sync(faulted.tier).clean


# -- abort hygiene -----------------------------------------------------------


def test_fault_before_batch_commit_takes_no_reference(monkeypatch):
    """A retryable fault between hashing and the batch commit abandons
    the pass whole: nothing referenced, the object requeued, and every
    hashed chunk counted exactly once."""
    storage = make_storage()
    objects = build_objects([(0, 1, 2, 3, 4, 0, 1, 2)])  # 4 dirty chunks
    for oid, data in objects.items():
        storage.write_sync(oid, data)

    tier = storage.tier

    def faulting_commit(*args, **kwargs):
        raise TransientOpError(0, "commit_chunk_batch")

    with monkeypatch.context() as patched:
        patched.setattr(tier, "commit_chunk_batch", faulting_commit)
        result = storage.cluster.run(
            storage.engine.process_object("obj0", force=True)
        )
    assert result == "faulted"
    assert storage.engine.stats.objects_requeued_fault == 1
    assert tier.stage.fingerprint_ops == 4
    assert storage.cluster.list_objects(tier.chunk_pool) == []
    assert tier.stage.ref_ops == 0

    storage.drain()
    assert tier.stage.fingerprint_ops == 8  # the retried pass re-hashed
    assert storage.read_sync("obj0") == objects["obj0"]
    assert scrub_sync(tier).clean


# -- property: faulted flush == fault-free flush, any workload --------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

object_strategy = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=len(BLOCKS) - 1),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=4,
)

#: Sub-chunk overwrites of flushed objects: (object, offset, length,
#: fill), the object and offset taken modulo what exists.
patch_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=6 * 512 - 1),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=6,
)


def flush_and_patch(storage, objects, patches):
    """Flush ``objects``, overwrite parts of them and flush again (each
    overwrite leaves its chunk partially cached); returns the contents."""
    flush_all(storage, objects)
    final = {oid: bytearray(data) for oid, data in objects.items()}
    oids = sorted(final)
    for which, offset, length, fill in patches:
        oid = oids[which % len(oids)]
        data = final[oid]
        offset %= len(data)
        length = min(length, len(data) - offset)
        patch = bytes([fill]) * length
        storage.write_sync(oid, patch, offset=offset)
        data[offset : offset + length] = patch
    storage.drain()
    return {oid: bytes(data) for oid, data in final.items()}


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pattern=object_strategy,
    patches=patch_strategy,
    fault_seed=st.integers(min_value=0, max_value=10_000),
)
# A release that faults during the overwrite's pass: its reference
# must still be dropped by the drain, not left for the offline repair.
@example(pattern=[[0, 0], [0], [0], [0]], patches=[(0, 0, 1, 0)], fault_seed=2234)
def test_flush_under_faults_equals_fault_free(pattern, patches, fault_seed):
    """A seeded FaultPlan changes nothing observable.

    EIO windows and slow disks hit one engine's cluster while a pristine
    cluster flushes the same objects and the same partial overwrites;
    the skip-and-requeue abort path must converge to the same chunk-pool
    state, space report, and readback.  Nothing stays cached after a
    flush, so every overwrite is merged by a deferred read-modify-write.
    """
    faulted = make_storage(cache_on_flush=False)
    plan = FaultPlan.generate(
        seed=fault_seed,
        horizon=2.0,
        osd_ids=list(faulted.cluster.osds),
        crash_rate=0.0,        # availability faults need recovery, not
        partition_rate=0.0,    # retry — out of scope for equivalence
        slow_rate=1.0,
        eio_rate=1.5,
    )
    FaultInjector(faulted.cluster, plan, auto_recover=True).attach()

    objects = build_objects(pattern)
    final = flush_and_patch(faulted, objects, patches)
    faulted.sim.run()  # let remaining fault windows expire
    faulted.drain()    # flush anything requeued by a faulted pass

    pristine = make_storage(cache_on_flush=False)
    assert flush_and_patch(pristine, objects, patches) == final
    assert_equivalent(faulted, pristine, final)
