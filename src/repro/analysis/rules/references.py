"""Reference-count pairing rule (REF001).

The paper's dedup metadata is *self-contained*: every chunk object
carries its own reference list, and correctness rests on every
reference-take having a reachable release path.  Khan et al.'s
cluster-wide dedup work (arXiv:1803.07722) documents how shared-nothing
designs drift into refcount leaks precisely when a component acquires
references without owning a release path.  This rule checks the pairing
*per component*: a component that calls ``chunk_ref`` must also contain
a release — ``release_refs`` (the one way a set of references is
dropped), or the primitives under it, ``chunk_deref`` and
``commit_chunk_batch`` — otherwise every reference it takes is
structurally unreleasable from within that component.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Sequence, Tuple

from ..engine import Finding, Rule, SourceModule

__all__ = ["RefPairingRule"]

#: Calls that acquire a chunk reference.
_ACQUIRE = ("chunk_ref",)
#: Calls that release references: ``DedupTier.release_refs`` and the two
#: primitives it chooses between (a per-op deref, or a batch commit whose
#: transaction applies the batched ``deref`` ops).
_RELEASE = ("chunk_deref", "commit_chunk_batch", "release_refs")


def _component(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return parts[0]


def _method_calls(tree: ast.AST, names: Tuple[str, ...]) -> List[ast.Call]:
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        ):
            out.append(node)
    return out


class RefPairingRule(Rule):
    """REF001: ``chunk_ref`` call sites need a release path nearby."""

    id = "REF001"
    title = "chunk_ref without a reachable release path in its component"

    def applies(self, module: str) -> bool:
        # The tier itself defines the primitives; pairing is a property
        # of the *consuming* components.
        return module.startswith("repro.") and not module.startswith(
            "repro.core.tier"
        )

    def finalize(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        acquires: Dict[str, List[Tuple[SourceModule, ast.Call]]] = {}
        releases: Dict[str, int] = {}
        for mod in modules:
            comp = _component(mod.module)
            for call in _method_calls(mod.tree, _ACQUIRE):
                acquires.setdefault(comp, []).append((mod, call))
            releases[comp] = releases.get(comp, 0) + len(
                _method_calls(mod.tree, _RELEASE)
            )
        for comp, sites in sorted(acquires.items()):
            if releases.get(comp, 0) > 0:
                continue
            for mod, call in sites:
                yield mod.finding(
                    self,
                    call,
                    f"chunk_ref call in component {comp!r} with no reachable"
                    f" release_refs/chunk_deref/commit_chunk_batch in that component —"
                    f" references taken here are structurally unreleasable"
                    f" (refcount leak)",
                )
