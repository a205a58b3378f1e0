"""The storage stack runs on the standard library alone.

Chunking, fingerprinting and erasure coding each have one pure-Python
implementation; their CPU cost is charged on the simulated clock, so
nothing in the simulated results depends on how fast the host runs
them.  This pins that no module on the write/read/drain/delete path
pulls NumPy in (importing it costs every process 12-13 MiB of RSS).
The check runs in a fresh interpreter: this test process may already
have NumPy loaded by another test.
"""

import os
import subprocess
import sys

import repro

SCRIPT = """
import sys

import repro
from repro.chunking import GearChunker
from repro.cluster import ErasureCoded, RadosCluster
from repro.core import DedupConfig, DedupedStorage

for redundancy in (None, ErasureCoded(2, 1)):
    storage = DedupedStorage(
        RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32),
        DedupConfig(chunk_size=1024),
        chunk_redundancy=redundancy,
        start_engine=False,
    )
    payload = bytes(range(256)) * 20
    storage.write_sync("a", payload)
    storage.write_sync("b", payload)
    storage.drain()
    assert storage.read_sync("a") == payload
    storage.delete_sync("a")
    storage.drain()
    assert storage.read_sync("b") == payload

data = bytes(range(256)) * 400
assert sum(s.length for s in GearChunker(avg_size=1024).chunk(data)) == len(data)
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
assert not loaded, loaded
"""


def test_storage_stack_never_imports_numpy():
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
