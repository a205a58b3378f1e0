"""Runtime lock sanitizer (the dynamic prong).

:class:`LockSanitizer` attaches to a :class:`repro.sim.Simulator` and
receives callbacks from every *labelled* :class:`repro.sim.Resource`
(the locks of the rados write-lock table and of the dedup tier's
object/chunk lock tables):

* ``on_acquire`` — a task requested the lock (may queue);
* ``on_grant`` — the request was granted (immediately or on release);
* ``on_release`` — the holder released;
* ``on_cancelled`` — a queued waiter was abandoned (interrupted task).

From these it maintains per-task held-lock sets and an acquisition-edge
multigraph at lock-*class* granularity (``rados.write``,
``tier.object``, ``tier.chunk``), plus the directional key-pairs
observed *within* one class.  :meth:`report` then flags:

* **double-acquire** — a task requests a lock it already holds (a
  capacity-1 resource self-deadlocks);
* **order-inversion** — both ``(a before b)`` and ``(b before a)`` were
  observed for two locks of the same class (two tasks doing this
  concurrently deadlock);
* **class-cycle** — the cross-class acquisition graph has a cycle
  (ignoring same-class self-edges, which sorted multi-acquires produce
  legitimately and the pair check covers);
* **held-at-finish** / **waiting-at-finish** — locks still held, or
  live waiters still queued, when the run quiesced.

Edges are recorded at *request* time against the requester's currently
held set — equivalent to grant-time ordering, since a suspended task
cannot change its held set while queued.

The sanitizer is pure bookkeeping over a deterministic simulation, so
its report is deterministic for a given seed and JSON-round-trips
(:meth:`to_json` / ``json.loads``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["LockSanitizer"]


def _lock_class(label: str) -> str:
    return label.split(":", 1)[0]


class LockSanitizer:
    """Records lock traffic from labelled resources and judges it."""

    def __init__(self) -> None:
        self.sim: Any = None
        #: id(process) -> task name; refs kept so ids are never reused.
        self._task_names: Dict[int, str] = {}
        self._task_refs: List[Any] = []
        #: task name -> labels currently held, in acquisition order.
        self._held: Dict[str, List[str]] = {}
        #: id(event) -> (label, task, event) for queued/unmatched requests.
        self._pending: Dict[int, Tuple[str, str, Any]] = {}
        #: (from class, to class) -> {"count", "example": (held, requested)}.
        self._edges: Dict[Tuple[str, str], Dict[str, Any]] = {}
        #: class -> ordered key pairs (held label, requested label) seen.
        self._pairs: Dict[str, Dict[Tuple[str, str], str]] = {}
        self._violations: List[Dict[str, Any]] = []
        self.acquires = 0
        self.grants = 0
        self.releases = 0
        self.cancelled = 0

    # -- wiring ----------------------------------------------------------

    def attach(self, sim: Any) -> "LockSanitizer":
        """Install on ``sim`` (sets ``sim.lock_sanitizer``) and return self."""
        self.sim = sim
        sim.lock_sanitizer = self
        return self

    def _task(self, sim: Any) -> str:
        proc = sim.current_task
        if proc is None:
            return "<kernel>"
        name = self._task_names.get(id(proc))
        if name is None:
            name = f"task-{len(self._task_refs):05d}"
            self._task_names[id(proc)] = name
            self._task_refs.append(proc)
        return name

    # -- resource callbacks ---------------------------------------------

    def on_acquire(self, resource: Any, event: Any) -> None:
        """A task requested ``resource`` (grant may come later)."""
        label: str = resource.label
        task = self._task(resource.sim)
        self.acquires += 1
        cls = _lock_class(label)
        held = self._held.get(task, [])
        if label in held:
            self._violations.append(
                {
                    "type": "double-acquire",
                    "task": task,
                    "lock": label,
                    "held": list(held),
                }
            )
        for prior in held:
            edge = self._edges.setdefault(
                (_lock_class(prior), cls),
                {"count": 0, "example": (prior, label)},
            )
            edge["count"] += 1
            if _lock_class(prior) == cls and prior != label:
                self._pairs.setdefault(cls, {}).setdefault(
                    (prior, label), task
                )
        self._pending[id(event)] = (label, task, event)

    def on_grant(self, resource: Any, event: Any) -> None:
        """A request was granted; the requester now holds the lock."""
        entry = self._pending.pop(id(event), None)
        if entry is None:
            label, task = resource.label, self._task(resource.sim)
        else:
            label, task, _event = entry
        self.grants += 1
        self._held.setdefault(task, []).append(label)

    def on_release(self, resource: Any) -> None:
        """The current task released ``resource``."""
        label: str = resource.label
        task = self._task(resource.sim)
        self.releases += 1
        held = self._held.get(task)
        if held and label in held:
            # Remove the most recent acquisition of this label.
            for i in range(len(held) - 1, -1, -1):
                if held[i] == label:
                    del held[i]
                    break
        else:
            self._violations.append(
                {"type": "release-not-held", "task": task, "lock": label}
            )

    def on_cancelled(self, resource: Any, event: Any) -> None:
        """A queued waiter was dropped (its process was interrupted)."""
        self._pending.pop(id(event), None)
        self.cancelled += 1

    # -- verdict ---------------------------------------------------------

    def _class_cycles(self) -> List[List[str]]:
        """Strongly connected class groups (size >= 2) in the edge graph."""
        adjacency: Dict[str, Set[str]] = {}
        for (a, b), _meta in self._edges.items():
            if a == b:
                continue
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set())

        def reachable(start: str) -> Set[str]:
            seen: Set[str] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(adjacency.get(node, ()))
            return seen

        groups: List[List[str]] = []
        assigned: Set[str] = set()
        for node in sorted(adjacency):
            if node in assigned:
                continue
            component = sorted(
                other
                for other in reachable(node)
                if node in reachable(other)
            )
            if len(component) > 1:
                groups.append(component)
                assigned.update(component)
        return groups

    def report(self) -> Dict[str, Any]:
        """Build the (deterministic, JSON-friendly) verdict document."""
        violations: List[Dict[str, Any]] = [dict(v) for v in self._violations]
        for cls in sorted(self._pairs):
            pairs = self._pairs[cls]
            reported: Set[Tuple[str, str]] = set()
            for (a, b), task in sorted(pairs.items()):
                if (b, a) not in pairs:
                    continue
                key = (min(a, b), max(a, b))
                if key in reported:
                    continue
                reported.add(key)
                violations.append(
                    {
                        "type": "order-inversion",
                        "lock_class": cls,
                        "locks": list(key),
                        "tasks": sorted({task, pairs[(b, a)]}),
                    }
                )
        for group in self._class_cycles():
            violations.append({"type": "class-cycle", "classes": group})
        for task in sorted(self._held):
            for label in self._held[task]:
                violations.append(
                    {"type": "held-at-finish", "task": task, "lock": label}
                )
        for label, task, event in sorted(
            self._pending.values(), key=lambda item: (item[0], item[1])
        ):
            if not getattr(event, "cancelled", False):
                violations.append(
                    {"type": "waiting-at-finish", "task": task, "lock": label}
                )
        classes = sorted(
            {_lock_class(label) for pair in self._edges for label in pair}
            | {_lock_class(v["lock"]) for v in violations if "lock" in v}
        )
        edges = [
            {
                "from": a,
                "to": b,
                "count": meta["count"],
                "example": list(meta["example"]),
            }
            for (a, b), meta in sorted(self._edges.items())
        ]
        return {
            "version": 1,
            "clean": not violations,
            "tasks": len(self._task_refs),
            "acquires": self.acquires,
            "grants": self.grants,
            "releases": self.releases,
            "cancelled": self.cancelled,
            "lock_classes": classes,
            "edges": edges,
            "violations": violations,
        }

    def to_json(self) -> str:
        """The report as a JSON document string."""
        return json.dumps(self.report(), indent=2, sort_keys=True) + "\n"
