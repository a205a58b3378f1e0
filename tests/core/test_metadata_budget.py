"""Host cost of the chunk map, as exact counts: what an op pays in
``core/objects.py`` + ``core/io_path.py`` depends on what it touches,
not on how many chunks the object holds.

Every foreground op starts from the object's chunk map, and at the
paper's geometry (4 MiB objects, 32 KiB chunks) a map has 128 entries.
This runs the same 2-chunk read and the same 2-chunk overwrite against
a 32-chunk and a 128-chunk object under ``cProfile`` and requires the
two frame counts to be *equal* — exact counts on a deterministic
simulation, so the test cannot flake.  It fails when someone puts a
per-entry copy or a scan over the entries back on the per-op path (one
frame per entry is a difference of 96 here).  See docs/performance.md,
"Decoded-map cache".
"""

import cProfile
import os
import pstats

import repro.core
from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage

CORE_DIR = os.path.dirname(os.path.abspath(repro.core.__file__))
OBJECTS_PY = os.path.join(CORE_DIR, "objects.py")
MAP_FILES = (OBJECTS_PY, os.path.join(CORE_DIR, "io_path.py"))

CHUNK = 4096
OP_BYTES = 2 * CHUNK

#: A map-cache hit is one fork of the shared snapshot: measured 1 frame
#: of core/objects.py (``ChunkMap.copy``) at any map size.
MAP_CACHE_HIT_OBJECTS_FRAMES = 2


def frames_in(files, run):
    """Calls of functions defined in ``files`` while ``run()`` executes."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    return sum(
        calls
        for (filename, _line, _name), (_cc, calls, *_rest) in pstats.Stats(profile).stats.items()
        if os.path.abspath(filename) in files
    )


def drained_hot_object(chunks):
    """A storage holding one drained ``chunks``-chunk object that is hot
    (so its chunks stayed cached and every read runs the promotion test)
    with promotion itself stubbed out — it is not part of the op."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(chunk_size=CHUNK, hit_count_threshold=1)
    storage = DedupedStorage(cluster, config, start_engine=False)
    storage.tier.on_hot_read = lambda oid: None
    storage.write_sync("obj", bytes(range(256)) * (chunks * CHUNK // 256))
    storage.drain()
    cmap = storage.tier.peek_chunk_map("obj")
    assert len(cmap) == chunks and cmap.all_clean()
    assert cmap.cached_indices() == list(range(chunks))
    assert storage.tier.cache.is_hot("obj")
    return storage


def op_frames(chunks):
    storage = drained_hot_object(chunks)
    offset = 5 * CHUNK
    hits = storage.tier.stage.map_cache_hits
    read = frames_in(MAP_FILES, lambda: storage.read_sync("obj", offset, OP_BYTES))
    write = frames_in(
        MAP_FILES, lambda: storage.write_sync("obj", b"w" * OP_BYTES, offset=offset)
    )
    # Both ops were served by the decoded-map cache, and did their job.
    assert storage.tier.stage.map_cache_hits == hits + 2
    assert storage.tier.stage.map_cache_misses == 0
    assert storage.read_sync("obj", offset, OP_BYTES) == b"w" * OP_BYTES
    assert storage.tier.peek_chunk_map("obj").dirty_indices() == [5, 6]
    return read, write


def test_op_cost_does_not_depend_on_how_many_chunks_the_object_holds():
    small_read, small_write = op_frames(32)
    large_read, large_write = op_frames(128)
    assert large_read == small_read, (
        "an 8 KiB read costs %d frames of objects.py + io_path.py on a 128-chunk "
        "object, %d on a 32-chunk one" % (large_read, small_read)
    )
    assert large_write == small_write, (
        "an 8 KiB overwrite costs %d frames of objects.py + io_path.py on a "
        "128-chunk object, %d on a 32-chunk one" % (large_write, small_write)
    )


def test_a_map_cache_hit_is_a_constant_number_of_frames():
    storage = drained_hot_object(128)
    tier = storage.tier
    hits = tier.stage.map_cache_hits
    loaded = []
    frames = frames_in(
        (OBJECTS_PY,), lambda: loaded.append(storage.cluster.run(tier.load_chunk_map("obj")))
    )
    assert tier.stage.map_cache_hits == hits + 1
    assert len(loaded[0]) == 128
    assert frames <= MAP_CACHE_HIT_OBJECTS_FRAMES, (
        "%d frames of core/objects.py for one map-cache hit on a 128-entry map "
        "(budget %d)" % (frames, MAP_CACHE_HIT_OBJECTS_FRAMES)
    )
