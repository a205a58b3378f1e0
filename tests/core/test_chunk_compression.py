"""Tests for tier-level chunk compression (compress_chunks)."""

from repro.cluster import NoSuchObject, RadosCluster
from repro.cluster.osd import OSD
from repro.core import DedupConfig, DedupedStorage
from repro.core.scrub import scrub_sync
from repro.core.objects import ChunkRef
from repro.core.tier import CHUNK_ENCODING_XATTR, ChunkBatch
from repro.fingerprint import fingerprint
from repro.sim import RngRegistry


def make_storage(**overrides):
    defaults = dict(chunk_size=4096, compress_chunks=True, dedup_interval=0.01)
    defaults.update(overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


COMPRESSIBLE = (b"compressible pattern! " * 400)[:4096]


def stored_chunk_bytes(storage, chunk_id):
    key = storage.cluster.object_key(storage.tier.chunk_pool, chunk_id)
    osd = next(o for o in storage.cluster.osds.values() if o.store.exists(key))
    return bytes(osd.store.get(key).data), osd.store.get(key).xattrs.get(
        CHUNK_ENCODING_XATTR
    )


def test_compressible_chunk_stored_smaller():
    storage = make_storage()
    storage.write_sync("obj1", COMPRESSIBLE)
    storage.drain()
    fp = fingerprint(COMPRESSIBLE)
    blob, encoding = stored_chunk_bytes(storage, fp)
    assert encoding == b"zlib"
    assert len(blob) < len(COMPRESSIBLE) / 2
    # The chunk ID is the fingerprint of the *uncompressed* content.
    assert storage.read_sync("obj1") == COMPRESSIBLE


def test_incompressible_chunk_stored_raw():
    storage = make_storage()
    data = RngRegistry(3).stream("rnd").randbytes(4096)
    storage.write_sync("obj1", data)
    storage.drain()
    blob, encoding = stored_chunk_bytes(storage, fingerprint(data))
    assert encoding == b"raw"
    assert blob == data
    assert storage.read_sync("obj1") == data


def test_offset_reads_decompress_correctly():
    storage = make_storage()
    storage.write_sync("obj1", COMPRESSIBLE * 3)  # 3 chunks
    storage.drain()
    for offset, length in ((0, 100), (5000, 300), (4000, 4200), (12000, 500)):
        expected = (COMPRESSIBLE * 3)[offset : offset + length]
        assert storage.read_sync("obj1", offset=offset, length=length) == expected


def test_dedup_still_works_with_compression():
    storage = make_storage()
    for i in range(6):
        storage.write_sync(f"obj{i}", COMPRESSIBLE)
    storage.drain()
    report = storage.space_report()
    assert report.chunk_objects == 1
    # Stored bytes benefit from both dedup and compression.
    assert report.chunk_data_bytes < len(COMPRESSIBLE) / 2
    assert report.logical_bytes == 6 * len(COMPRESSIBLE)


def test_partial_write_merge_with_compressed_old_chunk():
    storage = make_storage()
    storage.write_sync("obj1", COMPRESSIBLE)
    storage.drain()
    storage.write_sync("obj1", b"PATCH", offset=2000)  # deferred RMW
    storage.drain()
    expected = bytearray(COMPRESSIBLE)
    expected[2000:2005] = b"PATCH"
    assert storage.read_sync("obj1") == bytes(expected)


def test_scrub_verifies_logical_content():
    storage = make_storage()
    for i in range(4):
        storage.write_sync(f"obj{i}", COMPRESSIBLE[: 2048 + i * 100])
    storage.drain()
    assert scrub_sync(storage.tier).clean


def test_compression_saves_space_vs_uncompressed_tier():
    def stored(compress):
        storage = make_storage(compress_chunks=compress)
        for i in range(4):
            storage.write_sync(f"o{i}", COMPRESSIBLE[:4096] + bytes([i]) * 4096)
        storage.drain()
        return storage.space_report().chunk_data_bytes

    assert stored(True) < 0.7 * stored(False)


def test_a_chunk_released_during_its_read_still_decompresses(monkeypatch):
    """A release landing the instant a chunk's disk read ends (a
    lock-free reader racing a pass's old-chunk release) must not hand
    the compressed bytes back as data: the encoding is the holder's
    before the read."""
    storage = make_storage()
    storage.write_sync("obj1", COMPRESSIBLE)
    storage.drain()
    tier = storage.tier
    fp = fingerprint(COMPRESSIBLE)
    key = storage.cluster.object_key(tier.chunk_pool, fp)
    execute_read = OSD.execute_read

    def read_then_release(osd, read_key, offset=0, length=None):
        data = yield from execute_read(osd, read_key, offset, length)
        if read_key == key:
            for each in storage.cluster.osds.values():
                each.store.delete_object(key)
        return data

    monkeypatch.setattr(OSD, "execute_read", read_then_release)
    got = storage.cluster.run(tier.read_chunk(fp, 0, None, None))
    assert not storage.cluster.exists(tier.chunk_pool, fp)
    assert got == COMPRESSIBLE


def test_a_read_racing_the_chunks_first_store_never_returns_the_compressed_blob():
    """A chunk read that starts while a pass stores that chunk for the
    first time returns the data or fails with ``NoSuchObject`` (which
    ``read_path`` retries from a fresh map), never the zlib blob: an
    encoding peeked before the read's request latency says "raw" for a
    chunk stored compressed during it.  Swept over start instants from
    0 to 0.8 ms, across the whole store."""
    fp = fingerprint(COMPRESSIBLE)
    wrong = []
    for step in range(81):
        storage = make_storage()
        tier, sim = storage.tier, storage.sim
        batch = ChunkBatch()
        batch.ref(fp, ChunkRef(tier.metadata_pool.pool_id, "obj1", 0), COMPRESSIBLE)

        def late_read(delay=step * 1e-5):
            yield sim.timeout(delay)
            try:
                return (yield from tier.read_chunk(fp, 0, None, None))
            except NoSuchObject:
                return None

        reader = sim.process(late_read())
        storage.cluster.run(tier.commit_chunk_batch(batch, None))
        got = sim.run_until_complete(reader)
        if got not in (None, COMPRESSIBLE):
            wrong.append(step)
    assert wrong == []
