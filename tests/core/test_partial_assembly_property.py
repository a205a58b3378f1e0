"""Property: a drain assembles partially cached chunks correctly.

Random sub-chunk overwrites of flushed objects leave one to four cached
ranges in a chunk.  Some chunks grow past their old chunk object's
length (writes past the tail), some old chunks are shared with another
object through a dedup hit, and a pass usually holds several partially
cached chunks.  Drains in between flush them, and a chunk may be
reverted to the content it had at an earlier drain: back to a chunk
object that another pass's release may be dropping at that moment.
After the drain every object must read back as a plain shadow buffer
predicts, and every chunk's reference count must equal the references
the chunk maps imply, with a clean scrub.

Uses Hypothesis when available (CI installs it); skipped otherwise.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cluster import RadosCluster  # noqa: E402
from repro.core import DedupConfig, DedupedStorage, verdict  # noqa: E402

KiB = 1024
CHUNK = 4 * KiB
TAIL = 1500  # o0's short last chunk, which writes may grow

#: Base contents by block: the same block is the same chunk, so o0 and
#: o1 share chunk objects (dedup hits) before any overwrite.
LAYOUT = {"o0": [1, 2, 1], "o1": [2, 1, 3]}


def base_payload(blocks, tail=0):
    data = b"".join(bytes([b]) * CHUNK for b in blocks)
    return data + bytes([9]) * tail


def build_storage():
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=8)
    config = DedupConfig(chunk_size=CHUNK, cache_on_flush=False)
    return DedupedStorage(cluster, config, start_engine=False)


#: A write: object, chunk index, start within the chunk, length, fill;
#: a revert of a chunk to its content ``back`` drains ago; or a drain.
op_strategy = st.one_of(
    st.tuples(
        st.just("write"),
        st.sampled_from(sorted(LAYOUT)),
        st.integers(0, 3),
        st.integers(0, CHUNK - 1),
        st.integers(1, CHUNK // 4),
        st.integers(0, 255),
    ),
    st.tuples(
        st.just("revert"), st.sampled_from(sorted(LAYOUT)), st.integers(0, 3), st.integers(0, 2)
    ),
    st.tuples(st.just("drain")),
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=14))
def test_drained_partial_chunks_read_back_as_the_shadow(ops):
    storage = build_storage()
    shadow = {}
    for oid, blocks in LAYOUT.items():
        payload = base_payload(blocks, TAIL if oid == "o0" else 0)
        storage.write_sync(oid, payload)
        shadow[oid] = bytearray(payload)
    storage.drain()  # flushed and evicted: later overwrites are partial
    snapshots = [{oid: bytes(data) for oid, data in shadow.items()}]

    per_chunk = Counter()
    for op in ops:
        if op[0] == "drain":
            storage.engine.drain_sync(run_gc=False)
            snapshots.append({oid: bytes(data) for oid, data in shadow.items()})
            per_chunk.clear()
            continue
        oid = op[1]
        idx = op[2] % (len(LAYOUT[oid]) + (oid == "o0"))
        if per_chunk[oid, idx] == 4:
            continue  # at most four cached ranges a chunk
        offset = idx * CHUNK
        if op[0] == "revert":
            snapshot = snapshots[max(0, len(snapshots) - 1 - op[3])][oid]
            patch = snapshot[offset : offset + CHUNK]
            if not patch:
                continue  # the chunk did not exist yet
        else:
            start, length, fill = op[3:]
            offset += start
            patch = bytes([fill]) * min(length, CHUNK - start)  # o0's tail may grow
        per_chunk[oid, idx] += 1
        storage.write_sync(oid, patch, offset=offset)
        data = shadow[oid]
        if offset + len(patch) > len(data):
            data.extend(bytes(offset + len(patch) - len(data)))
        data[offset : offset + len(patch)] = patch
    for oid, data in shadow.items():
        assert storage.read_sync(oid) == bytes(data), oid

    storage.engine.drain_sync(run_gc=False)  # a GC would mask refcount slips
    tier = storage.tier
    for oid, data in shadow.items():
        assert not tier.peek_chunk_map(oid).dirty_indices(), oid
        assert storage.read_sync(oid) == bytes(data), oid
    # Every chunk's reference records are exactly the uses the maps
    # imply, both ways, with nothing else wrong.
    found = verdict(storage)
    assert found.clean, found.problems
