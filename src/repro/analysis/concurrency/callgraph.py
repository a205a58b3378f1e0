"""A conservative interprocedural call graph over lint modules.

The graph is deliberately under-approximate: a call edge is added only
when the callee can be pinned down with high confidence, because the
lock rules built on top (LCK001/LCK002) turn every edge into "the
callee's acquires/waits happen while the caller's locks are held" — a
wrong edge manufactures a lock-order cycle that does not exist.

Resolution strategy, in order:

1. ``self.name(...)`` — methods named ``name`` on the caller's own
   class in the same module (falling back to any same-module method).
2. ``name(...)`` — same-module functions named ``name``; otherwise a
   repo-wide match only when the name is defined at most twice (common
   helpers such as ``write`` or ``read`` are defined many times over
   and stay unresolved rather than guessed).
3. ``recv.name(...)`` — when the receiver's last identifier appears in
   :data:`RECEIVER_HINTS` (``cluster``/``rados`` → ``RadosCluster``,
   ``tier`` → ``DedupTier``, ...), methods named ``name`` on those
   classes anywhere in the tree.
4. Anything else is unresolved (no edge).

Nested *named* function bodies are excluded from a function's own
statements (they are separate graph nodes); lambdas are kept, because
the retry layer executes factory lambdas inline under the caller's
locks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..engine import SourceModule

__all__ = ["FunctionInfo", "CallGraph", "RECEIVER_HINTS", "walk_own"]

#: Receiver-name tails that identify a well-known class in this repo.
RECEIVER_HINTS: Dict[str, Tuple[str, ...]] = {
    "cluster": ("RadosCluster",),
    "rados": ("RadosCluster",),
    "tier": ("DedupTier",),
    "sim": ("Simulator",),
    "engine": ("DedupEngine",),
}

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def walk_own(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` skipping nested named-function subtrees.

    ``node`` itself is yielded even when it is a function def; lambdas
    and comprehensions are descended into.
    """
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _FUNC_DEFS):
                continue
            stack.append(child)


def receiver_tail(node: ast.expr) -> str:
    """Last identifier of a dotted receiver (``a.b.cluster`` -> ``cluster``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


@dataclass
class FunctionInfo:
    """One function/method definition in the linted tree."""

    module: str
    cls: Optional[str]
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    mod: SourceModule

    @property
    def qualname(self) -> str:
        """``module:Class.name`` or ``module:name``."""
        if self.cls:
            return f"{self.module}:{self.cls}.{self.name}"
        return f"{self.module}:{self.name}"


class CallGraph:
    """Index of function defs plus resolved call edges."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.functions: List[FunctionInfo] = []
        #: id(def node) -> FunctionInfo
        self.by_node: Dict[int, FunctionInfo] = {}
        self._by_module_name: Dict[Tuple[str, str], List[FunctionInfo]] = {}
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        self._by_class_name: Dict[Tuple[str, str], List[FunctionInfo]] = {}
        for mod in modules:
            self._index_module(mod)
        #: id(def node) -> [(call node, resolved targets)]
        self.call_sites: Dict[int, List[Tuple[ast.Call, List[FunctionInfo]]]] = {}
        for info in self.functions:
            self.call_sites[id(info.node)] = self._resolve_function(info)

    # -- indexing --------------------------------------------------------

    def _index_module(self, mod: SourceModule) -> None:
        for node in ast.walk(mod.tree):
            if not isinstance(node, _FUNC_DEFS):
                continue
            cls = next(
                (
                    anc.name
                    for anc in mod.ancestors(node)
                    if isinstance(anc, ast.ClassDef)
                ),
                None,
            )
            info = FunctionInfo(
                module=mod.module, cls=cls, name=node.name, node=node, mod=mod
            )
            self.functions.append(info)
            self.by_node[id(node)] = info
            self._by_module_name.setdefault((mod.module, node.name), []).append(info)
            self._by_name.setdefault(node.name, []).append(info)
            if cls is not None:
                self._by_class_name.setdefault((cls, node.name), []).append(info)

    # -- resolution ------------------------------------------------------

    def _resolve_function(
        self, info: FunctionInfo
    ) -> List[Tuple[ast.Call, List[FunctionInfo]]]:
        sites: List[Tuple[ast.Call, List[FunctionInfo]]] = []
        for node in walk_own(info.node):
            if isinstance(node, ast.Call):
                sites.append((node, self.resolve_call(info, node)))
        return sites

    def resolve_call(self, caller: FunctionInfo, call: ast.Call) -> List[FunctionInfo]:
        """Callees of ``call`` made from ``caller`` (empty if unresolved)."""
        func = call.func
        if isinstance(func, ast.Name):
            local = self._by_module_name.get((caller.module, func.id), [])
            if local:
                return list(local)
            everywhere = self._by_name.get(func.id, [])
            if 0 < len(everywhere) <= 2:
                return list(everywhere)
            return []
        if not isinstance(func, ast.Attribute):
            return []
        name = func.attr
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id == "self":
            local = self._by_module_name.get((caller.module, name), [])
            if caller.cls is not None:
                same_class = [f for f in local if f.cls == caller.cls]
                if same_class:
                    return same_class
            return [f for f in local if f.cls is not None]
        hints = RECEIVER_HINTS.get(receiver_tail(recv))
        if hints:
            out: List[FunctionInfo] = []
            for cls in hints:
                out.extend(self._by_class_name.get((cls, name), []))
            return out
        return []
