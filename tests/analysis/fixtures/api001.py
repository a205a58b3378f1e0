"""API001 fixture: imports bypassing the RadosCluster facade.

Linted with a module override placing it under ``repro.workloads``.
"""

import repro.cluster.osd  # line 6: API001
from repro.cluster.converge import converge  # line 7: API001

from repro.cluster import RadosCluster  # facade import: clean
