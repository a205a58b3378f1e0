"""A seeded run stores the same bytes whatever the string-hash seed.

Chunk IDs, object names and references are strings, whose hashes
Python salts per process (``PYTHONHASHSEED``): iterating a set or
dict-view of them in hash order is a different order in every process.
Whatever such an order reaches, a reference record's bytes, a chunk's
placement, the order of a batch, shows in the stored state.  So the run
below is made in two fresh interpreters at two hash seeds, and every
OSD's payloads, xattrs and omap, read in sorted key order, must digest
the same.
"""

import os
import subprocess
import sys

import repro

SCRIPT = """
import hashlib

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage

storage = DedupedStorage(
    RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32),
    DedupConfig(chunk_size=1024),
    start_engine=False,
)
shared = bytes(range(256)) * 8  # two chunks every object holds
for i in range(6):
    storage.write_sync("obj%d" % i, shared + bytes([i]) * 2048)
storage.drain()
storage.write_sync("obj1", b"overwritten" * 100, offset=512)
storage.delete_sync("obj2")
storage.drain()
digest = hashlib.sha256()
for osd_id, osd in sorted(storage.cluster.osds.items()):
    for key in sorted(osd.store.keys()):
        stored = osd.store.get(key)
        digest.update(repr((osd_id, key, sorted(stored.xattrs.items()),
                            sorted(stored.omap.items()))).encode())
        digest.update(stored.read())
print(digest.hexdigest())
"""


def stored_digest(hash_seed):
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_stored_state_does_not_depend_on_the_hash_seed():
    assert stored_digest(1) == stored_digest(2)
