"""The one verdict of a quiesced store: each check names its own finding.

A clean, drained store, then a single leak or fault planted in one
table or check: the verdict reports exactly that finding and no other.
Both pools are erasure coded, so a shard that diverges from its
stripe's encoding is a pool-scrub finding alone; on a replicated pool a
diverged copy is a placement finding too (``test_faulty_workload``).
"""

import pytest

from repro.cluster import ErasureCoded, RadosCluster
from repro.cluster.ec import _EC_CRC_XATTR, _shard_index
from repro.core import DedupConfig, DedupedStorage, verdict
from repro.core.objects import ChunkRef
from repro.core.scrub import TABLES
from repro.core.tier import ChunkBatch
from repro.fingerprint import fingerprint
from repro.sim import LockTable

KiB = 1024
EC = ErasureCoded(k=2, m=1)


def clean_store():
    """A drained store over two EC pools and the bytes each object holds."""
    storage = DedupedStorage(
        RadosCluster(num_hosts=4, osds_per_host=2, pg_num=16),
        DedupConfig(chunk_size=KiB), EC, EC, start_engine=False,
    )
    shadow = {f"obj{i}": (bytes([i]) * KiB + b"shared" * 200)[: 3 * KiB] for i in range(4)}
    for oid, data in shadow.items():
        storage.write_sync(oid, data)
    storage.drain()
    return storage, shadow


def diverge_a_parity_shard(storage, pool):
    """Give one object's parity shard a checksum its bytes do not match."""
    cluster = storage.cluster
    key = cluster.object_key(pool, cluster.list_objects(pool)[0])
    parity = next(
        osd.store.get(key) for osd in cluster.osds.values()
        if osd.store.exists(key) and _shard_index(osd.store.get(key)) == EC.k
    )
    parity.xattrs[_EC_CRC_XATTR] = b"diverged"


def store_an_unreferenced_chunk(storage):
    data = b"nobody refers to this" * 10
    storage.cluster.write_full_sync(storage.tier.chunk_pool, fingerprint(data), data)


def plant_an_entry(storage, owner, attr):
    """One entry no task will ever clear, in the table ``owner.attr``."""
    table = getattr(getattr(storage, owner), attr)
    if isinstance(table, LockTable):
        table.acquire("ghost", [])  # a grant its task never releases
    elif isinstance(table, dict):
        table["ghost"] = None
    elif isinstance(table, set):
        table.add("ghost")
    else:
        table.append(("ghost", None))


CHECKS = {
    "dedup scrub": lambda storage, shadow: store_an_unreferenced_chunk(storage),
    "lost": lambda storage, shadow: shadow.update(obj0=b"\xff" + shadow["obj0"][1:]),
    "metadata pool scrub": lambda storage, shadow: diverge_a_parity_shard(
        storage, storage.tier.metadata_pool),
    "chunk pool scrub": lambda storage, shadow: diverge_a_parity_shard(
        storage, storage.tier.chunk_pool),
    # Down but not out: no PG remaps, so no up member lacks its copy.
    "placement": lambda storage, shadow: storage.cluster.fail_osd(0, mark_out=False),
}
for _name, (_owner, _attr) in TABLES.items():
    CHECKS[_name] = lambda storage, shadow, owner=_owner, attr=_attr: plant_an_entry(
        storage, owner, attr)


@pytest.mark.parametrize("finding", list(CHECKS))
def test_one_planted_fault_is_one_finding(finding):
    storage, shadow = clean_store()
    CHECKS[finding](storage, shadow)
    found = verdict(storage, shadow=shadow)
    assert found.problems == [finding], found.findings
    assert not found.clean


def test_an_under_retained_reference_is_one_finding():
    # Four objects share their second chunk; one of its four reference
    # records goes, so the chunk's last other dereference would remove
    # it under obj0's live map.
    storage, shadow = clean_store()
    tier = storage.tier
    entry = tier.peek_chunk_map("obj0").get(1)
    ref = ChunkRef(tier.metadata_pool.pool_id, "obj0", entry.offset)
    assert tier.chunk_refcount(entry.chunk_id) == len(shadow)
    batch = ChunkBatch()
    batch.deref(entry.chunk_id, ref)
    storage.cluster.run(tier.commit_chunk_batch(batch, next(iter(storage.cluster.nodes.values()))))
    found = verdict(storage, shadow=shadow)
    assert found.problems == ["dedup scrub"], found.findings
    assert found.findings["dedup scrub"] == found.scrub.missing_references == [
        (entry.chunk_id, ref)]


def test_a_clean_store_is_clean_twice_over():
    storage, shadow = clean_store()
    first = verdict(storage, shadow=shadow)
    assert first.clean, first.problems
    assert first.scrub.chunks_checked > 0
    # Every check has its case above.
    assert list(first.findings) == list(CHECKS)
    second = verdict(storage, shadow=shadow)
    assert second.findings == first.findings
    assert second.findings == dict.fromkeys(CHECKS, [])
