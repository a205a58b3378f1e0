"""The LCK rule family: static lock-discipline checks.

* LCK001 — potential acquire-acquire cycle across call paths.  Lock
  regions are scanned (directly and through the call graph) for further
  acquisitions; the resulting class-level lock-order graph must be
  acyclic, and multi-acquires of one class must iterate ``sorted(...)``
  keys (an unsorted multi-acquire is a self-cycle: two concurrent tasks
  can take the same pair of locks in opposite orders).
* LCK002 — faultable substrate I/O, retry entry, or unbounded blocking
  wait performed while holding a write lock.  Substrate mutations and
  retry loops are only flagged under ``rados.write`` locks (the tier
  deliberately retries its two-phase commits under its own object/chunk
  locks — the paper's §4.4.2 serialisation trade-off); rate-limiter
  ``throttle`` waits and nested ``run_until_complete`` drains are
  flagged under any lock.
* LCK003 — lock not released on every exit path.  Outside
  ``repro.sim`` every ``.acquire()`` call must be a well-formed
  lock-table acquire — ``(key, held)``, the mode only as ``shared=`` —
  inside a ``try`` whose ``finally`` releases its held list through the
  same table (:mod:`.locks`).  A shared acquire is held to the same
  rule as an exclusive one.

All three live in ``default_rules``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..engine import Finding, Rule, SourceModule
from ..rules.faults import _RETRY_CALLS, _is_io_site
from .callgraph import walk_own
from .locks import AcquireSite, LockModel, build_lock_model, table_class, well_formed

__all__ = ["LockOrderRule", "LockWaitRule", "LockReleaseRule", "BLOCKING_CALLS"]

#: Method names whose calls block unboundedly (flagged under any lock).
BLOCKING_CALLS = ("throttle", "run_until_complete")

#: The lock class whose regions must not contain faultable I/O/retries.
_WRITE_CLASS = "rados.write"


def _in_region(node: ast.AST, region: Tuple[int, int]) -> bool:
    line = getattr(node, "lineno", None)
    return line is not None and region[0] <= line <= region[1]


def _is_retry_entry(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name):
        return node.func.id in _RETRY_CALLS
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in _RETRY_CALLS
    return False


def _is_blocking_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in BLOCKING_CALLS
    if isinstance(node.func, ast.Name):
        return node.func.id in BLOCKING_CALLS
    return False


def _direct_flags(func_node: ast.AST) -> Tuple[bool, bool, bool]:
    """(has_io, has_retry, has_blocking) over a function's own statements."""
    has_io = has_retry = has_blocking = False
    for node in walk_own(func_node):
        if _is_io_site(node):
            has_io = True
        if _is_retry_entry(node):
            has_retry = True
        if _is_blocking_call(node):
            has_blocking = True
    return has_io, has_retry, has_blocking


class _Summaries:
    """Transitive per-function facts over the call graph (fixpoint)."""

    def __init__(self, model: LockModel) -> None:
        graph = model.graph
        self.acquires: Dict[int, Set[str]] = {}
        self.io: Dict[int, bool] = {}
        self.retry: Dict[int, bool] = {}
        self.blocking: Dict[int, bool] = {}
        for info in graph.functions:
            fid = id(info.node)
            self.acquires[fid] = {
                s.lock_class for s in model.sites_by_func.get(fid, [])
            }
            io, retry, blocking = _direct_flags(info.node)
            self.io[fid] = io
            self.retry[fid] = retry
            self.blocking[fid] = blocking
        changed = True
        while changed:
            changed = False
            for info in graph.functions:
                fid = id(info.node)
                for _call, targets in graph.call_sites.get(fid, []):
                    for target in targets:
                        tid = id(target.node)
                        if not self.acquires[fid] >= self.acquires[tid]:
                            self.acquires[fid] |= self.acquires[tid]
                            changed = True
                        for attr in ("io", "retry", "blocking"):
                            table = getattr(self, attr)
                            if table[tid] and not table[fid]:
                                table[fid] = True
                                changed = True


def _region_callees(model: LockModel, site: AcquireSite):
    """(call, target) pairs for resolved calls inside the site's region."""
    region = site.region
    if region is None:
        return
    for call, targets in model.graph.call_sites.get(id(site.func.node), []):
        if call is site.call or not _in_region(call, region):
            continue
        for target in targets:
            yield call, target


def _cycle_classes(edges: Set[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Edges participating in a cycle (incl. self-loops) of the digraph."""
    nodes = {a for a, _ in edges} | {b for _, b in edges}
    adjacency: Dict[str, Set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        adjacency[a].add(b)

    def reaches(start: str, goal: str) -> bool:
        seen: Set[str] = set()
        stack = [start]
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(adjacency.get(current, ()))
        return False

    return {(a, b) for a, b in edges if a == b or reaches(b, a)}


class LockOrderRule(Rule):
    """LCK001: potential acquire-acquire cycle across call paths."""

    id = "LCK001"
    title = "potential lock-order cycle"

    def finalize(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        model = build_lock_model(modules)
        summaries = _Summaries(model)
        # Edge -> anchor sites (outer acquire whose region takes the inner).
        edge_sites: Dict[Tuple[str, str], List[AcquireSite]] = {}

        def add_edge(outer: str, inner: str, site: AcquireSite) -> None:
            edge_sites.setdefault((outer, inner), []).append(site)

        for site in model.sites:
            region = site.region
            if region is None:
                continue
            if site.unsorted_multi:
                add_edge(site.lock_class, site.lock_class, site)
            for other in model.sites_by_func[id(site.func.node)]:
                if other is not site and _in_region(other.call, region):
                    add_edge(site.lock_class, other.lock_class, site)
            for _call, target in _region_callees(model, site):
                for inner in summaries.acquires.get(id(target.node), ()):
                    add_edge(site.lock_class, inner, site)

        cyclic = _cycle_classes(set(edge_sites))
        for outer, inner in sorted(cyclic):
            sites = sorted(
                edge_sites[(outer, inner)],
                key=lambda s: (s.mod.path, s.call.lineno),
            )
            anchor = sites[0]
            if outer == inner:
                if anchor.unsorted_multi:
                    detail = (
                        "multi-acquire loop does not iterate sorted(...) keys;"
                        " two tasks can take the same locks in opposite"
                        " orders — iterate sorted(...) keys"
                    )
                else:
                    detail = (
                        "a region holding this class acquires the same class"
                        " again; concurrent tasks can wait on each other —"
                        " restructure to a single sorted multi-acquire"
                    )
                message = f"lock-order self-cycle on {outer}: {detail}"
            else:
                message = (
                    f"lock-order edge {outer} -> {inner} participates in a"
                    f" potential acquire-acquire cycle; impose one global"
                    f" class order (acquire {inner} only before {outer},"
                    f" never while holding it)"
                )
            yield anchor.mod.finding(self, anchor.call, message)


class LockWaitRule(Rule):
    """LCK002: faultable I/O or unbounded wait while holding a write lock."""

    id = "LCK002"
    title = "faultable I/O or unbounded wait under a lock"

    def finalize(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        model = build_lock_model(modules)
        summaries = _Summaries(model)
        for site in model.sites:
            if site.guard is None:
                continue
            is_write = site.lock_class == _WRITE_CLASS
            kinds_seen: Set[str] = set()
            for stmt in site.guard.body:
                for node in ast.walk(stmt):
                    if is_write and "io" not in kinds_seen and _is_io_site(node):
                        kinds_seen.add("io")
                        yield site.mod.finding(
                            self,
                            node,
                            f"faultable substrate I/O while holding a"
                            f" {site.lock_class} lock: a fault/retry loop here"
                            f" wedges the object; move the I/O outside the"
                            f" locked region or make it non-faultable",
                        )
                    if (
                        is_write
                        and "retry" not in kinds_seen
                        and _is_retry_entry(node)
                    ):
                        kinds_seen.add("retry")
                        yield site.mod.finding(
                            self,
                            node,
                            f"retry loop entered while holding a"
                            f" {site.lock_class} lock: backoff sleeps extend"
                            f" the critical section unboundedly; retry outside"
                            f" the lock and re-acquire per attempt",
                        )
                    if "blocking" not in kinds_seen and _is_blocking_call(node):
                        kinds_seen.add("blocking")
                        name = (
                            node.func.attr  # type: ignore[union-attr]
                            if isinstance(node.func, ast.Attribute)  # type: ignore[union-attr]
                            else node.func.id  # type: ignore[union-attr]
                        )
                        yield site.mod.finding(
                            self,
                            node,
                            f"unbounded blocking call .{name}() while holding"
                            f" a {site.lock_class} lock: waiters queue behind"
                            f" an arbitrarily long wait; block before"
                            f" acquiring",
                        )
            for call, target in _region_callees(model, site):
                tid = id(target.node)
                if is_write and "io" not in kinds_seen and summaries.io[tid]:
                    kinds_seen.add("io")
                    yield site.mod.finding(
                        self,
                        call,
                        f"call reaches faultable substrate I/O (via"
                        f" {target.qualname}) while holding a"
                        f" {site.lock_class} lock",
                    )
                if is_write and "retry" not in kinds_seen and summaries.retry[tid]:
                    kinds_seen.add("retry")
                    yield site.mod.finding(
                        self,
                        call,
                        f"call reaches a retry loop (via {target.qualname})"
                        f" while holding a {site.lock_class} lock",
                    )
                if "blocking" not in kinds_seen and summaries.blocking[tid]:
                    kinds_seen.add("blocking")
                    yield site.mod.finding(
                        self,
                        call,
                        f"call reaches an unbounded blocking wait (via"
                        f" {target.qualname}) while holding a"
                        f" {site.lock_class} lock",
                    )


class LockReleaseRule(Rule):
    """LCK003: lock acquired but not released on every exit path."""

    id = "LCK003"
    title = "lock not released on every exit path"

    def applies(self, module: str) -> bool:
        # The lock table itself (and Resource) live in repro.sim.
        return module != "repro.sim" and not module.startswith("repro.sim.")

    def check(self, mod: SourceModule) -> Iterable[Finding]:
        guarded = {
            id(site.call)
            for site in build_lock_model([mod]).sites
            if site.guard is not None
        }
        for node in ast.walk(mod.tree):
            if (
                not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Attribute)
                or node.func.attr != "acquire"
                or id(node) in guarded
            ):
                continue
            lock_class = table_class(node)
            if lock_class is None:
                message = (
                    "bare .acquire() outside repro.sim: take locks through a"
                    " LockTable — `yield table.acquire(key, held)` inside a"
                    " try whose finally calls `table.release(held)`"
                )
            elif not well_formed(node):
                message = (
                    f"{lock_class} lock acquired in an unrecognised form: pass"
                    f" the key and the held list, and the mode only as"
                    f" `shared=`, so the release of its held list can be checked"
                )
            else:
                message = (
                    f"{lock_class} lock acquired outside a try whose finally"
                    f" releases its held list through the same table: an"
                    f" interrupt or fault leaks it; move the acquire into the"
                    f" try and call `<table>.release(held)` in the finally"
                )
            yield mod.finding(self, node, message)
