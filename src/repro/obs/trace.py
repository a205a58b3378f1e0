"""Span trees on the simulated clock, recorded from outside the code.

``with Tracer(sim) as tracer:`` is the one way to trace.  While the
block runs, every function named in :data:`SPAN_TARGETS` is replaced by
a proxy that records a :class:`Span` of the call on ``sim``'s clock; on
exit every original is put back.  No module of the storage stack knows
it is traced, and with no tracer installed no code of this module runs.

* **Boundaries are data.**  A row of :data:`SPAN_TARGETS` is
  ``(module, qualname, stage, tags)``: the function ``qualname`` as
  looked up in ``module`` (a plain function is patched where its caller
  finds it), the span's stage name, and a callable turning the call's
  arguments into the span's tags.  A generator target (a simulation
  process body) is spanned from its first step to its return; a target
  returning an :class:`~repro.sim.Event`, such as ``LockTable.acquire``,
  until the event fires.
* **Context follows the running process.**  The tracer keeps each
  process's innermost open span, keyed by ``sim.current_task``.  A proxy
  takes its parent from there and stands in for it while the call runs;
  one proxy on :meth:`Simulator.process <repro.sim.Simulator.process>`
  hands the spawner's span to the process it starts, so the branches of
  a fan-out keep their parent.
* **Roots are ops.**  A stage named ``op.*`` always starts a trace of its
  own: background work an op sets off (a read promoting its object)
  runs past the op and must not count as its child.
* **Handed-off work is the caller's.**  A stage in :data:`HANDED_OFF`
  runs in a process its caller starts and does not wait for (a worker
  pass's old-chunk release, which keeps the pass's object lock): it
  stays the caller's child, and the caller's span ends when it does.
* **Failure is a tag.**  A generator that raises ends its span with an
  ``error`` tag naming the exception — a retry attempt cut off at its
  deadline shows as an ``Interrupt``.  A wait its process abandoned ends
  with its parent, tagged ``error="abandoned"``.

Spans are only recorded inside a process of the tracer's simulator, and
a wait only inside another span.  Nothing here schedules an event, so a
traced run is event-for-event the untraced one.
"""

from __future__ import annotations

import functools
import importlib
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..sim import Event, Simulator

__all__ = ["SPAN_TARGETS", "Span", "Tracer"]

Tags = Dict[str, Any]


class Span:
    """One timed call in an op's trace tree."""

    __slots__ = ("span_id", "parent_id", "trace_id", "stage", "start", "end", "tags")

    def __init__(
        self, span_id: int, parent: Optional["Span"], stage: str, start: float, tags: Tags
    ) -> None:
        self.span_id = span_id
        self.parent_id = None if parent is None else parent.span_id
        self.trace_id = span_id if parent is None else parent.trace_id
        self.stage = stage
        self.start = start
        self.end: Optional[float] = None
        self.tags = tags

    def to_record(self) -> Dict[str, Any]:
        """JSON-ready dict (one line of a ``trace.jsonl`` dump)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            "tags": self.tags,
            "events": [],
        }

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.end - self.start:.6f}s"
        return f"<Span {self.span_id} {self.stage!r} {state}>"


# -- the boundary table ---------------------------------------------------------


def _oid(_owner: Any, oid: str, *_args: Any, **_kwargs: Any) -> Tags:
    return {"oid": oid}


def _chunk(_owner: Any, chunk_id: str, *_args: Any, **_kwargs: Any) -> Tags:
    return {"chunk": chunk_id}


def _pool(_owner: Any, pool: Any, oid: str, *_args: Any, **_kwargs: Any) -> Tags:
    return {"pool": pool.name, "oid": oid}


def _none(*_args: Any, **_kwargs: Any) -> Tags:
    return {}


#: ``(module, qualname, stage, tags)`` per traced boundary; ``tags`` is
#: called with the call's own arguments.
SPAN_TARGETS: Tuple[Tuple[str, str, str, Callable[..., Tags]], ...] = (
    # Root ops: one client-visible operation each.
    ("repro.core.client", "write_path", "op.write",
     lambda _tier, oid, _offset, data, *_a, **_k: {"oid": oid, "nbytes": len(data)}),
    ("repro.core.client", "read_path", "op.read", _oid),
    ("repro.core.client", "delete_path", "op.delete", _oid),
    ("repro.core.engine", "DedupEngine.process_object", "op.dedup_pass",
     lambda _self, oid, force=False: {"oid": oid, "forced": force}),
    ("repro.core.engine", "DedupEngine.promote_object", "op.promote", _oid),
    ("repro.cluster.rebalance", "Rebalancer.run", "op.rebalance", _none),
    # The dedup engine.
    ("repro.core.rate_control", "RateController.throttle", "engine.rate_throttle", _none),
    ("repro.core.engine", "DedupEngine._apply_derefs", "engine.derefs",
     lambda _self, pairs, *_a, **_k: {"count": len(pairs)}),
    ("repro.core.engine", "DedupEngine.enforce_cache_capacity", "engine.cache_enforce",
     _none),
    ("repro.cluster.hardware", "Cpu.fingerprint", "cpu.fingerprint",
     lambda _self, nbytes: {"nbytes": nbytes}),
    # The dedup tier and its I/O paths.
    ("repro.sim.resources", "LockTable.acquire", "lock.wait",
     lambda self, key, _held: {"lock": self.label.format(key)}),
    ("repro.core.tier", "DedupTier.load_chunk_map", "tier.load_chunk_map", _oid),
    ("repro.core.tier", "DedupTier.read_local_chunk", "tier.read_local_chunk",
     lambda _self, oid, _offset, length: {"oid": oid, "nbytes": length}),
    ("repro.core.tier", "DedupTier.read_chunk", "tier.read_chunk", _chunk),
    ("repro.core.tier", "DedupTier.commit_chunk_batch", "tier.commit_chunk_batch",
     lambda _self, batch, *_a, **_k: {
         "ops": len(batch.ops), "chunks": len(batch.chunk_ids())}),
    ("repro.core.io_path", "_read_once", "tier.read_once", _oid),
    ("repro.core.io_path", "_gather", "tier.read_fanout", _oid),
    ("repro.core.io_path", "_read_cached_piece", "tier.read_cached",
     lambda _tier, oid, _offset, length, *_a, **_k: {"oid": oid, "nbytes": length}),
    ("repro.core.io_path", "_read_chunk_piece", "tier.redirect",
     lambda _tier, chunk_id, _offset, length, *_a, **_k: {
         "chunk": chunk_id, "nbytes": length}),
    # The RADOS substrate.
    ("repro.cluster.rados", "RadosCluster.submit", "rados.submit", _pool),
    ("repro.cluster.rados", "RadosCluster.submit_batch", "rados.submit_batch",
     lambda _self, pool, items, *_a, **_k: {"pool": pool.name, "items": len(items)}),
    ("repro.cluster.rados", "RadosCluster.read", "rados.read", _pool),
    # Online rebalance.
    ("repro.cluster.rebalance", "Rebalancer._migrate_pg", "rebalance.pg",
     lambda _self, pool, pg, _remap: {"pool": pool.name, "pg": pg}),
    ("repro.cluster.rebalance", "_copy_replica", "rebalance.copy",
     lambda _cluster, _key, source, target: {
         "src": source.osd_id, "dst": target.osd_id}),
    ("repro.cluster.rebalance", "_rebuild_shard", "rebalance.reconstruct",
     lambda _cluster, _key, target, *_a: {"dst": target.osd_id}),
    ("repro.cluster.rebalance", "Rebalancer._throttle", "rebalance.throttle",
     lambda _self, nbytes: {"nbytes": nbytes}),
)

#: Stages run by a process the calling span starts and does not wait for.
#: Such a span may end after its parent returned; the parent's span then
#: ends with it.
HANDED_OFF = frozenset({"engine.derefs"})

#: The tracer currently installed; the patches are process-wide, so
#: there is at most one.
_installed: Optional["Tracer"] = None


def _owner_of(module: str, qualname: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records span trees of :data:`SPAN_TARGETS` calls on ``sim``'s clock
    while installed (it is a context manager).

    Span ids are sequential integers, so a trace of a seeded run is
    bit-for-bit reproducible.  The spans stay readable after the block.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.spans: List[Span] = []
        self._next_id = 1
        #: The innermost open span of each process (``sim.current_task``).
        self._context: Dict[Any, Span] = {}
        #: Open event spans by parent, to close with it if abandoned.
        self._waits: Dict[Span, List[Span]] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installing -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        global _installed
        if _installed is not None:
            raise RuntimeError("a Tracer is already installed")
        _installed = self
        try:
            for module, qualname, stage, tags in SPAN_TARGETS:
                owner, name = _owner_of(module, qualname)
                self._patch(owner, name, self._proxy(vars(owner)[name], stage, tags))
            self._patch(Simulator, "process", self._spawn_proxy(Simulator.process))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *_exc: Any) -> None:
        global _installed
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        _installed = None

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    # -- proxies ----------------------------------------------------------------

    def _proxy(
        self, original: Callable[..., Any], stage: str, tags: Callable[..., Tags]
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def proxy(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            if isinstance(result, GeneratorType):
                return tracer._run(result, stage, tags(*args, **kwargs))
            if isinstance(result, Event):
                tracer._wait(result, stage, tags(*args, **kwargs))
            return result

        return proxy

    def _spawn_proxy(self, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def process(sim: Simulator, gen: Any) -> Any:
            if sim is tracer.sim and isinstance(gen, GeneratorType):
                span = tracer._context.get(sim.current_task)
                if span is not None:
                    gen = tracer._carry(gen, span)
            return original(sim, gen)

        return process

    def _carry(self, gen: Generator[Any, Any, Any], span: Span) -> Generator[Any, Any, Any]:
        """Run ``gen`` as a spawned process whose context starts at ``span``."""
        task = self.sim.current_task
        self._context[task] = span
        try:
            return (yield from gen)
        finally:
            self._context.pop(task, None)

    def _run(
        self, gen: Generator[Any, Any, Any], stage: str, tags: Tags
    ) -> Generator[Any, Any, Any]:
        """Run ``gen`` inside a span of its own."""
        sim = self.sim
        task = sim.current_task
        if task is None:  # stepped by another simulator, or by hand
            return (yield from gen)
        context = self._context
        outer = context.get(task)
        span = self._open(stage, None if stage.startswith("op.") else outer, tags)
        context[task] = span
        try:
            return (yield from gen)
        except BaseException as exc:
            span.tags["error"] = type(exc).__name__
            raise
        finally:
            span.end = sim.now
            if stage in HANDED_OFF and outer is not None and outer.end is not None:
                outer.end = max(outer.end, span.end)
            for wait in self._waits.pop(span, ()):
                if wait.end is None:
                    wait.end = span.end
                    wait.tags["error"] = "abandoned"
            if outer is None:
                context.pop(task, None)
            else:
                context[task] = outer

    def _wait(self, event: Event, stage: str, tags: Tags) -> None:
        """Span ``event`` from now until it fires."""
        parent = self._context.get(self.sim.current_task)
        if parent is None:
            return
        span = self._open(stage, parent, tags)
        if event.callbacks is None:  # already fired
            span.end = self.sim.now
            return
        event.callbacks.append(lambda _event: self._end_wait(span))
        self._waits.setdefault(parent, []).append(span)

    def _end_wait(self, span: Span) -> None:
        if span.end is None:
            span.end = self.sim.now

    def _open(self, stage: str, parent: Optional[Span], tags: Tags) -> Span:
        span = Span(self._next_id, parent, stage, self.sim.now, tags)
        self._next_id += 1
        self.spans.append(span)
        return span

    # -- reading ----------------------------------------------------------------

    def to_records(self) -> List[Dict[str, Any]]:
        """All recorded spans as JSON-ready dicts, in start order."""
        return [span.to_record() for span in self.spans]

    def clear(self) -> None:
        """Drop the recorded spans (the id sequence keeps counting)."""
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)
