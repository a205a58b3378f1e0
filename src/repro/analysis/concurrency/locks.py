"""Lock-acquisition extraction for the LCK rule family.

Every lock in this repo is taken one way, through a
:class:`repro.sim.LockTable`::

    held: list = []
    try:
        yield table.acquire(key, held)
        ...
    finally:
        table.release(held)

or, for a lock held together with other shared holders,
``table.acquire(key, held, shared=...)``.  An *acquire site* is a
``<expr>.<table>.acquire(...)`` call whose table attribute names a lock
class:

==================  ===============  ==========  ==================================
table attribute     lock class       mode        owner
==================  ===============  ==========  ==================================
``write_locks``     ``rados.write``  shared or   per-object write locks in the
                                     exclusive   substrate: shared for a replicated
                                                 write, exclusive for an EC write
                                                 and for convergence
``object_locks``    ``tier.object``  exclusive   dedup tier object serialisation
``chunk_locks``     ``tier.chunk``   exclusive   dedup tier chunk refcount
                                                 serialisation
==================  ===============  ==========  ==================================

A site is *well formed* when it passes exactly the key and the held
list positionally and nothing but ``shared=`` by keyword; the mode does
not change what the rules check.  A site's *region* is the nearest
enclosing ``try`` of its function whose ``finally`` calls
``<same table>.release(<same held list>)``: the lock is held across at
most that ``try`` body and released on every exit from it.  A site with
a ``for``/``while`` loop between it and its region's ``try`` is a
*multi-acquire* (the region accumulates several locks of its class),
which must iterate ``sorted(...)`` keys.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import SourceModule
from .callgraph import CallGraph, FunctionInfo, receiver_tail, walk_own

__all__ = [
    "LOCK_TABLES",
    "AcquireSite",
    "LockModel",
    "build_lock_model",
    "collect_sites",
    "table_class",
    "well_formed",
]

#: Lock-table attribute names -> lock class.
LOCK_TABLES: Dict[str, str] = {
    "write_locks": "rados.write",
    "object_locks": "tier.object",
    "chunk_locks": "tier.chunk",
}

_LOOPS = (ast.For, ast.While)
_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass
class AcquireSite:
    """One table ``.acquire()`` call."""

    call: ast.Call
    mod: SourceModule
    func: FunctionInfo
    lock_class: str
    #: A multi-acquire whose loop does not iterate ``sorted(...)``.
    unsorted_multi: bool = False
    guard: Optional[ast.Try] = None

    @property
    def region(self) -> Optional[Tuple[int, int]]:
        """Line span of the lock-held region: the guarding try body."""
        if self.guard is None or not self.guard.body:
            return None
        lo = self.guard.body[0].lineno
        hi = max(
            getattr(sub, "end_lineno", None) or lo
            for stmt in self.guard.body
            for sub in ast.walk(stmt)
        )
        return (lo, hi)


@dataclass
class LockModel:
    """Every table acquire site in a module set, plus the call graph."""

    graph: CallGraph
    sites: List[AcquireSite]
    #: id(function def node) -> its acquire sites.
    sites_by_func: Dict[int, List[AcquireSite]] = field(default_factory=dict)


def table_class(call: ast.Call) -> Optional[str]:
    """Lock class of a ``<expr>.<table>.acquire(...)`` call, else None."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "acquire":
        return LOCK_TABLES.get(receiver_tail(func.value))
    return None


def _is_release_of(node: ast.AST, table: str, held: str) -> bool:
    """Whether ``node`` is ``<table>.release(<held>)`` (as ``ast.dump``-s)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "release"
        and ast.dump(node.func.value) == table
        and len(node.args) == 1
        and ast.dump(node.args[0]) == held
    )


def well_formed(call: ast.Call) -> bool:
    """Whether an acquire passes ``(key, held)`` and at most ``shared=``."""
    return len(call.args) == 2 and all(kw.arg == "shared" for kw in call.keywords)


def _site(
    mod: SourceModule, call: ast.Call, info: FunctionInfo, lock_class: str
) -> AcquireSite:
    site = AcquireSite(call=call, mod=mod, func=info, lock_class=lock_class)
    if not well_formed(call) or not isinstance(call.func, ast.Attribute):
        return site
    table, held = ast.dump(call.func.value), ast.dump(call.args[1])
    loop: Optional[ast.AST] = None
    child: ast.AST = call
    for anc in mod.ancestors(call):
        if isinstance(anc, _FUNC_DEFS) or anc is info.node:
            break
        if (
            isinstance(anc, ast.Try)
            and any(stmt is child for stmt in anc.body)
            and any(
                _is_release_of(sub, table, held)
                for stmt in anc.finalbody
                for sub in ast.walk(stmt)
            )
        ):
            site.guard = anc
            break
        if loop is None and isinstance(anc, _LOOPS):
            loop = anc
        child = anc
    if site.guard is not None and loop is not None:
        site.unsorted_multi = not (
            isinstance(loop, ast.For)
            and isinstance(loop.iter, ast.Call)
            and isinstance(loop.iter.func, ast.Name)
            and loop.iter.func.id == "sorted"
        )
    return site


def collect_sites(mod: SourceModule, graph: CallGraph) -> List[AcquireSite]:
    """The table acquire sites of one module."""
    sites: List[AcquireSite] = []
    for info in graph.functions:
        if info.mod is not mod:
            continue
        for node in walk_own(info.node):
            if isinstance(node, ast.Call):
                lock_class = table_class(node)
                if lock_class is not None:
                    sites.append(_site(mod, node, info, lock_class))
    return sites


def build_lock_model(modules: Sequence[SourceModule]) -> LockModel:
    """Build the full lock model (call graph + sites) for ``modules``."""
    graph = CallGraph(modules)
    model = LockModel(graph=graph, sites=[])
    for mod in modules:
        model.sites.extend(collect_sites(mod, graph))
    for site in model.sites:
        model.sites_by_func.setdefault(id(site.func.node), []).append(site)
    return model
