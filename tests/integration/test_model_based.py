"""Model-based property tests: the dedup store vs a plain byte-buffer model.

Hypothesis drives random sequences of writes (any offset/length),
reads, dedup drains, cache demotions, and OSD failures against
:class:`DedupedStorage`, checking every read against a reference
implementation (plain Python buffers).  This is the strongest
correctness net in the suite: any divergence between the tiered,
deduplicated, replicated representation and plain buffers fails here.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ErasureCoded, RadosCluster, Replicated, converge_sync
from repro.core import DedupConfig, DedupedStorage, verdict

OIDS = ["alpha", "beta", "gamma"]
CHUNK = 512


def make_storage(hot_threshold=2, metadata_redundancy=None, chunk_redundancy=None):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(
        chunk_size=CHUNK,
        dedup_interval=0.01,
        hit_count_threshold=hot_threshold,
        hitset_period=0.1,
    )
    return DedupedStorage(
        cluster,
        config,
        metadata_redundancy=metadata_redundancy,
        chunk_redundancy=chunk_redundancy,
        start_engine=False,
    )


class ReferenceModel:
    """Plain in-memory byte buffers with identical write/read semantics."""

    def __init__(self):
        self.objects = {}

    def write(self, oid, offset, data):
        buf = self.objects.setdefault(oid, bytearray())
        end = offset + len(data)
        if len(buf) < end:
            buf.extend(b"\x00" * (end - len(buf)))
        buf[offset:end] = data

    def read(self, oid, offset, length):
        buf = self.objects.get(oid)
        if buf is None:
            return None
        return bytes(buf[offset : offset + length])


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.sampled_from(OIDS),
            st.integers(min_value=0, max_value=3 * CHUNK),
            st.binary(min_size=1, max_size=2 * CHUNK),
        ),
        st.tuples(
            st.just("read"),
            st.sampled_from(OIDS),
            st.integers(min_value=0, max_value=3 * CHUNK),
            st.integers(min_value=1, max_value=2 * CHUNK),
        ),
        st.tuples(st.just("drain"), st.none(), st.none(), st.none()),
    ),
    min_size=1,
    max_size=25,
)


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_storage_matches_reference_model(ops):
    storage = make_storage()
    model = ReferenceModel()
    for op, oid, a, b in ops:
        if op == "write":
            storage.write_sync(oid, b, offset=a)
            model.write(oid, a, b)
        elif op == "read":
            expected = model.read(oid, a, b)
            if expected is None:
                continue
            got = storage.read_sync(oid, offset=a, length=b)
            assert got == expected
        else:
            storage.drain()
    # Final sweep: every object reads back whole and identical, and the
    # drained store is sound.
    storage.drain()
    found = verdict(storage, shadow={oid: bytes(buf) for oid, buf in model.objects.items()})
    assert found.clean, found.findings


POOL_TYPES = {"rep2": lambda: Replicated(2), "ec21": lambda: ErasureCoded(2, 1)}


@pytest.mark.parametrize("chunk_pool", sorted(POOL_TYPES), ids="chunks_{}".format)
@pytest.mark.parametrize("metadata_pool", sorted(POOL_TYPES), ids="meta_{}".format)
@given(ops=ops_strategy, fail_osd=st.integers(min_value=0, max_value=7))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_storage_survives_failure_mid_sequence(metadata_pool, chunk_pool, ops, fail_osd):
    """Same as above, across an OSD's restart window: it goes down in
    place (``mark_out=False``) a third of the way in, misses writes,
    rejoins with its stale disk two thirds in and serves beside the
    clean copies until recovery runs at the end."""
    storage = make_storage(
        metadata_redundancy=POOL_TYPES[metadata_pool](),
        chunk_redundancy=POOL_TYPES[chunk_pool](),
    )
    model = ReferenceModel()
    down, back = len(ops) // 3, 2 * len(ops) // 3
    for i, (op, oid, a, b) in enumerate(ops):
        if i == down:
            storage.cluster.fail_osd(fail_osd, mark_out=False)
        if i == back:
            storage.cluster.restart_osd(fail_osd)
        if op == "write":
            storage.write_sync(oid, b, offset=a)
            model.write(oid, a, b)
        elif op == "read":
            expected = model.read(oid, a, b)
            if expected is None:
                continue
            assert storage.read_sync(oid, offset=a, length=b) == expected
        else:
            storage.drain()
    for oid, buf in model.objects.items():
        assert storage.read_sync(oid) == bytes(buf)
    stats = converge_sync(storage.cluster)
    assert stats.objects_lost == 0
    storage.drain()
    found = verdict(storage, shadow={oid: bytes(buf) for oid, buf in model.objects.items()})
    assert found.clean, found.findings


@given(
    writes=st.lists(
        st.tuples(
            st.sampled_from(OIDS),
            st.integers(min_value=0, max_value=2 * CHUNK),
            st.binary(min_size=1, max_size=CHUNK),
        ),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dedup_state_invariants_after_drain(writes):
    """After a full drain: no dirty entries, every referenced chunk
    object exists, its content matches its fingerprint (double hashing),
    and no orphan chunk objects remain."""
    from repro.fingerprint import fingerprint

    storage = make_storage()
    for oid, offset, data in writes:
        storage.write_sync(oid, data, offset=offset)
    storage.drain()
    live = set()
    for oid in storage.cluster.list_objects(storage.tier.metadata_pool):
        cmap = storage.tier.peek_chunk_map(oid)
        assert cmap.all_clean()
        for entry in cmap:
            assert entry.chunk_id
            live.add(entry.chunk_id)
            assert storage.cluster.exists(storage.tier.chunk_pool, entry.chunk_id)
            content = storage.cluster.read_sync(
                storage.tier.chunk_pool, entry.chunk_id
            )
            assert fingerprint(content) == entry.chunk_id
            assert storage.tier.chunk_refcount(entry.chunk_id) >= 1
    pool_chunks = set(storage.cluster.list_objects(storage.tier.chunk_pool))
    assert pool_chunks == live
    found = verdict(storage)
    assert found.clean, found.findings
