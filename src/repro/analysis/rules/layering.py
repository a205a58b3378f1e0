"""Layering rule (API001).

``RadosCluster`` (the ``repro.cluster`` facade) is the paper's
"underlying storage system" boundary: the dedup tier rides its
replication, recovery and transaction semantics and must not reach
around it.  A consumer importing ``repro.cluster.osd`` (or any other
cluster submodule) directly couples itself to substrate internals —
exactly the split-brain coupling the shared-nothing design avoids —
and bypasses the two-phase commit the facade provides.  Consumers may
import only the facade: ``from ..cluster import X`` /
``import repro.cluster``.  Nor may they read a private attribute of
the cluster object itself: ``tier.cluster._primary(...)`` is flagged
like an import of ``repro.cluster.rados`` would be.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Finding, Rule, SourceModule

__all__ = ["LayeringRule"]


class LayeringRule(Rule):
    """API001: no imports of ``repro.cluster`` submodules, and no
    ``cluster._name`` attribute reads, from outside."""

    id = "API001"
    title = "cross-layer import bypassing the RadosCluster facade"

    def applies(self, module: str) -> bool:
        # The cluster package may import its own internals freely.
        return module.startswith("repro.") and not (
            module == "repro.cluster" or module.startswith("repro.cluster.")
        )

    def check(self, mod: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.cluster."):
                        yield self._finding(mod, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                target = node.module or ""
                if node.level == 0:
                    if target.startswith("repro.cluster."):
                        yield self._finding(mod, node, target)
                else:
                    # Relative: ``from ..cluster.osd import X`` (any level).
                    if target.startswith("cluster."):
                        yield self._finding(mod, node, target)
            elif (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and _names_cluster(node.value)
            ):
                yield mod.finding(
                    self,
                    node,
                    f"cluster.{node.attr} is private to repro.cluster; use"
                    f" a public RadosCluster name instead",
                )

    def _finding(self, mod: SourceModule, node: ast.AST, target: str) -> Finding:
        return mod.finding(
            self,
            node,
            f"import of cluster submodule {target!r} bypasses the"
            f" RadosCluster facade; import from repro.cluster (the package)"
            f" instead",
        )


def _names_cluster(node: ast.expr) -> bool:
    """``cluster`` or ``<anything>.cluster``."""
    if isinstance(node, ast.Name):
        return node.id == "cluster"
    return isinstance(node, ast.Attribute) and node.attr == "cluster"
