"""API001 fixture: imports and attribute reads bypassing the
RadosCluster facade.

Linted with a module override placing it under ``repro.workloads``.
"""

import repro.cluster.osd  # line 7: API001
from repro.cluster.converge import converge  # line 8: API001

from repro.cluster import RadosCluster  # facade import: clean


def reach_around(cluster, tier, pool):
    cluster._primary(pool, "x")  # line 14: API001
    client = tier.cluster._default_client  # line 15: API001
    cluster.primary(pool, "x")  # public: clean
    tier._cluster_cache  # not the cluster object: clean
    return client, cluster.__class__  # dunder: clean
