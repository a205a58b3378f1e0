"""Per-layer attribution, applied to the program from outside.

Three instruments, all benchmark-owned and installed at run time around
the traced phase only (end-to-end timings never come from a traced run):

(a) ``cProfile`` self time and call counts, rolled up by source file
    into the layers of :data:`LAYER_FILES`;
(b) generator proxies around the public boundary functions of
    :data:`SPAN_TARGETS`, each recording a span on the *simulated* clock
    with its parent span and root op;
(c) counters read before and after the phase from public attributes
    (:data:`COUNTER_SOURCES`).

The targets are data.  One that no longer exists is listed under
``absent`` and its metrics come out ``None`` — later PRs delete several
of them and cannot edit this benchmark in the same change.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import pstats
from dataclasses import asdict, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# -- (a) layers by source file --------------------------------------------------

#: Path prefixes under ``src/repro/`` -> layer.  Files of the package
#: that match none (config, pool, clustermap, util, ...) count toward
#: ``host_calls_per_op`` but land in ``bench.unattributed_host_share``.
LAYER_FILES: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("cluster/rados.py", "cluster.rados"),
    ("cluster/crush.py", "cluster.crush"),
    ("cluster/osd.py", "cluster.osd"),
    ("cluster/objectstore.py", "cluster.osd"),
    ("cluster/hardware.py", "cluster.hardware"),
    ("core/io_path.py", "core.io_path"),
    ("core/tier.py", "core.tier"),
    ("core/engine.py", "core.engine"),
    ("core/objects.py", "core.objects"),
    ("core/read_cache.py", "core.read_cache"),
    ("core/cache.py", "core.cache"),
    ("fingerprint/", "fingerprint"),
    ("chunking/", "chunking"),
    ("faults/", "faults"),
    ("obs/", "obs"),
    ("metrics/", "metrics"),
)
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _p, layer in LAYER_FILES))

#: Functions whose call count is a metric of its own: (file, name).
COUNTED_CALLS = {
    "events": ("sim/core.py", "step"),
    "processes": ("sim/core.py", "process"),
    "crush_hashes": ("cluster/crush.py", "stable_hash64"),
}


def _repro_relpath(filename: str) -> Optional[str]:
    marker = "/src/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    return filename[at + len(marker):] if at >= 0 else None


def _layer_of(filename: str) -> Optional[str]:
    rel = _repro_relpath(filename)
    if rel is not None:
        for prefix, layer in LAYER_FILES:
            if rel.startswith(prefix):
                return layer
    return None


def profile_rollup(profile, bench_dir: str) -> Dict[str, Any]:
    """Roll a finished ``cProfile.Profile`` up by layer.

    Self time of code outside the package — builtins and the standard
    library — is charged to whoever called it, transitively, in
    proportion to the cumulative time of each calling edge (as gprof
    does): ``hashlib`` and the wait for the digest pool land in
    ``fingerprint``, ``heapq`` in ``sim``.  Only self times are moved, so
    nothing is counted twice.  What ends up with a package file outside
    every layer, with a benchmark file, or with no caller at all is
    unattributed.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counted = dict.fromkeys(COUNTED_CALLS, None)
    bench_s: Dict[str, float] = {}
    total_s = repro_calls = 0.0

    def home(func) -> Optional[str]:
        """Where a function's own time belongs: a layer, "" (unattributed
        for good), or None (outside code: ask its callers)."""
        filename = func[0]
        if _repro_relpath(filename) is not None:
            return _layer_of(filename) or ""
        return "" if filename.startswith(bench_dir) else None

    owners: Dict[tuple, Dict[str, float]] = {}

    def owners_of(func, seen: frozenset) -> Dict[str, float]:
        """Shares (summing to 1) of an outside function's time by owner."""
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        weights = {g: edge[3] for g, edge in callers.items() if g not in seen and edge[3] > 0}
        whole = sum(weights.values())
        shares: Dict[str, float] = {}
        if not whole:
            shares[""] = 1.0
        for g, weight in weights.items():
            where = home(g)
            split = {where: 1.0} if where is not None else owners_of(g, seen | {func})
            for owner, part in split.items():
                shares[owner] = shares.get(owner, 0.0) + part * weight / whole
        if not seen:  # only a complete answer (no cycle cut) is worth keeping
            owners[func] = shares
        return shares

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        filename, _line, name = func
        total_s += tt
        rel = _repro_relpath(filename)
        if rel is not None:
            repro_calls += nc
            for key, (cfile, cname) in COUNTED_CALLS.items():
                if rel == cfile and name == cname:
                    counted[key] = (counted[key] or 0) + nc
        where = home(func)
        if where is None:
            for owner, part in owners_of(func, frozenset()).items():
                if owner:
                    self_s[owner] += tt * part
        elif where:
            self_s[where] += tt
            calls[where] += nc
        elif filename.startswith(bench_dir):
            base = filename[len(bench_dir):].lstrip("/\\")
            bench_s[base] = bench_s.get(base, 0.0) + tt
    return {
        "total_s": total_s,
        "repro_calls": int(repro_calls),
        "layer_self_s": self_s,
        "layer_calls": calls,
        "counted_calls": counted,
        "bench_self_s": bench_s,
    }


# -- (b) spans at the public boundaries -------------------------------------------


def _pool_name(_self, args, kwargs):
    pool = args[0] if args else kwargs.get("pool")
    return getattr(pool, "name", None)


def _pool_and_count(_self, args, kwargs):
    items = args[1] if len(args) > 1 else kwargs.get("items", kwargs.get("requests"))
    return (_pool_name(_self, args, kwargs), len(items) if hasattr(items, "__len__") else None)


def _first_arg(_self, args, _kwargs):
    return args[0] if args else None


def _len_result(result):
    return len(result) if result is not None else 0


def _sum_len_result(result):
    return sum(len(part) for part in result) if result else 0


#: (module, class, method, layer, on_call, on_return).  ``on_call`` turns
#: the arguments into the span's ``a`` attribute — for devices, the
#: spec's service time, so wait = span - service — and ``on_return`` the
#: result into ``b``.
SPAN_TARGETS: Tuple[tuple, ...] = (
    ("repro.core.client", "DedupedStorage", "write", "core.io_path", None, None),
    ("repro.core.client", "DedupedStorage", "read", "core.io_path", None, _len_result),
    ("repro.core.client", "DedupedStorage", "delete", "core.io_path", None, None),
    ("repro.core.engine", "DedupEngine", "process_object", "core.engine", None, None),
    ("repro.core.engine", "DedupEngine", "drain", "core.engine", None, None),
    ("repro.core.engine", "DedupEngine", "promote_object", "core.engine", None, None),
    ("repro.core.tier", "DedupTier", "load_chunk_map", "core.tier", None, None),
    ("repro.core.tier", "DedupTier", "read_chunk", "core.tier", _first_arg, None),
    ("repro.core.tier", "DedupTier", "read_local_chunk", "core.tier", None, None),
    ("repro.core.tier", "DedupTier", "commit_chunk_batch", "core.tier", None, None),
    ("repro.core.tier", "DedupTier", "chunk_ref", "core.tier", None, None),
    ("repro.core.tier", "DedupTier", "chunk_deref", "core.tier", None, None),
    ("repro.cluster.rados", "RadosCluster", "submit", "cluster.rados", _pool_name, None),
    ("repro.cluster.rados", "RadosCluster", "submit_batch", "cluster.rados",
     _pool_and_count, None),
    ("repro.cluster.rados", "RadosCluster", "read", "cluster.rados", _pool_name, _len_result),
    ("repro.cluster.rados", "RadosCluster", "read_batch", "cluster.rados",
     _pool_and_count, _sum_len_result),
    ("repro.cluster.rados", "RadosCluster", "write_full", "cluster.rados", _pool_name, None),
    ("repro.cluster.rados", "RadosCluster", "write", "cluster.rados", _pool_name, None),
    ("repro.cluster.rados", "RadosCluster", "remove", "cluster.rados", _pool_name, None),
    ("repro.cluster.hardware", "Disk", "read", "cluster.hardware",
     lambda self, a, k: self.spec.read_time(a[0]), None),
    ("repro.cluster.hardware", "Disk", "write", "cluster.hardware",
     lambda self, a, k: self.spec.write_time(a[0]), None),
    ("repro.cluster.hardware", "Nic", "send", "cluster.hardware",
     lambda self, a, k: self.spec.transfer_time(a[0]), None),
    ("repro.cluster.hardware", "Nic", "receive", "cluster.hardware",
     lambda self, a, k: self.spec.transfer_time(a[0]), None),
    ("repro.cluster.hardware", "Cpu", "execute", "cluster.hardware", _first_arg, None),
)
#: Spawning a process must carry the spawner's span across the kernel,
#: or every parallel fan-out would start a parentless tree.
SPAWN_TARGET = ("repro.sim.core", "Simulator", "process")

#: A span without a parent must be one of these (a root op).
ROOT_OPS = {
    "DedupedStorage.write": "write",
    "DedupedStorage.read": "read",
    "DedupedStorage.delete": "delete",
    "DedupEngine.process_object": "engine",
    "DedupEngine.drain": "engine",
    "DedupEngine.promote_object": "engine",
}
_WRITE_RPCS = ("RadosCluster.submit", "RadosCluster.submit_batch")
_READ_RPCS = ("RadosCluster.read", "RadosCluster.read_batch")
_BATCH_RPCS = ("RadosCluster.submit_batch", "RadosCluster.read_batch")


def _resolve(module: str, cls: str):
    try:
        return getattr(importlib.import_module(module), cls)
    except (ImportError, AttributeError):
        return None


class SpanTracer:
    """Spans on the simulated clock, recorded by proxies around the
    target functions while :attr:`enabled`.

    Recording starts with the system, so that every span has its whole
    parent chain — an engine pass parked in the rate controller since the
    warm-up is still the parent of what it does in the traced phase — but
    only the spans begun inside the *window* (the traced phase) are
    analysed and written out.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.enabled = False
        self.current = -1  # span id the running code belongs to
        self.window = (0, 0)  # [first, last) span ids of the traced phase
        self.names: List[str] = []
        self.layers: Dict[str, str] = {}
        # Parallel arrays, one entry per span.
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[Optional[float]] = []
        self.parent: List[int] = []
        self.root: List[int] = []
        self.a: List[Any] = []
        self.b: List[Any] = []
        self.absent: List[str] = []
        self._patched: List[Tuple[type, str, Any]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, cls_name, method, layer, on_call, on_return in SPAN_TARGETS:
            label = "%s.%s" % (cls_name, method)
            cls = _resolve(module, cls_name)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                self.absent.append("span target %s.%s" % (module, label))
                continue
            self.layers[label] = layer
            self.names.append(label)
            self._patch(cls, method, self._span_proxy(
                original, len(self.names) - 1, on_call, on_return))
        module, cls_name, method = SPAWN_TARGET
        cls = _resolve(module, cls_name)
        original = getattr(cls, method, None) if cls is not None else None
        if original is None:
            self.absent.append("spawn target %s.%s.%s" % SPAWN_TARGET)
        else:
            self._patch(cls, method, self._spawn_proxy(original))

    def _patch(self, cls: type, method: str, replacement) -> None:
        self._patched.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    # -- proxies ---------------------------------------------------------------

    def _drive(self, gen, ctx: int, parent: int, span: int, on_return):
        """Run ``gen`` to completion as a transparent generator proxy,
        with :attr:`current` set to ``ctx`` whenever its code runs and
        restored to ``parent`` whenever it is suspended or done."""
        value = exc = None
        result = None
        try:
            while True:
                self.current = ctx
                try:
                    target = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    result = stop.value
                    return result
                finally:
                    self.current = parent
                try:
                    value, exc = (yield target), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as error:
                    value, exc = None, error
        finally:
            if span >= 0:
                self.end[span] = self.sim.now
                if on_return is not None and result is not None:
                    try:
                        self.b[span] = on_return(result)
                    except Exception:  # a changed return type must not stop the run
                        pass

    def kind_of_root(self, span: int) -> Optional[str]:
        return ROOT_OPS.get(self.label(self.root[span]))

    def _span_proxy(self, original, name_id: int, on_call, on_return):
        tracer = self
        kind = ROOT_OPS.get(self.names[name_id])

        def proxy(self, *args, **kwargs):
            if not tracer.enabled:
                return original(self, *args, **kwargs)
            parent = tracer.current
            span = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.start.append(tracer.sim.now)
            tracer.end.append(None)
            tracer.parent.append(parent)
            # Background work an op sets off (a read promoting its object)
            # keeps the op as its cause but is a root of its own: it does
            # not block the op, so it must not count toward the op's time.
            detached = parent >= 0 and kind is not None and kind != tracer.kind_of_root(parent)
            tracer.root.append(span if parent < 0 or detached else tracer.root[parent])
            try:
                tracer.a.append(on_call(self, args, kwargs) if on_call is not None else None)
            except Exception:  # a changed signature must not stop the run
                tracer.a.append(None)
            tracer.b.append(None)
            gen = original(self, *args, **kwargs)
            if not hasattr(gen, "send"):  # no longer a process: a point span
                tracer.end[span] = tracer.sim.now
                return gen
            return tracer._drive(gen, span, parent, span, on_return)

        proxy.__name__ = getattr(original, "__name__", "proxy")
        proxy.__wrapped__ = original  # type: ignore[attr-defined]
        return proxy

    def _spawn_proxy(self, original):
        tracer = self

        def process(self, gen):
            ctx = tracer.current
            if tracer.enabled and ctx >= 0 and hasattr(gen, "send"):
                gen = tracer._drive(gen, ctx, -1, -1, None)
            return original(self, gen)

        process.__wrapped__ = original  # type: ignore[attr-defined]
        return process

    # -- analysis --------------------------------------------------------------

    def open_window(self) -> None:
        self.window = (len(self.start), len(self.start))

    def close_window(self) -> None:
        self.window = (self.window[0], len(self.start))

    def open_in_window(self) -> int:
        """Spans of the window not finished yet (ids are in start order)."""
        return sum(1 for span in range(*self.window) if self.end[span] is None)

    def label(self, span: int) -> str:
        return self.names[self.name_id[span]]

    def self_times(self) -> List[float]:
        """Simulated self time per span: its duration minus the union of
        the parts its children cover (children may run in parallel)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span, parent in enumerate(self.parent):
            if parent >= 0 and self.end[span] is not None and self.root[span] != span:
                children.setdefault(parent, []).append((self.start[span], self.end[span]))
        out = []
        for span, start in enumerate(self.start):
            end = self.end[span]
            if end is None:
                out.append(0.0)
                continue
            covered = 0.0
            edge = start
            for c_start, c_end in sorted(children.get(span, ())):
                c_start, c_end = max(c_start, edge), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    edge = c_end
            out.append((end - start) - covered)
        return out

    def check(self) -> Dict[str, Any]:
        """Every span finished, and every parent chain ends at a root op."""
        open_spans = self.open_in_window()
        roots = {self.root[span] for span in range(*self.window)}
        bad_roots = sorted({self.label(r) for r in roots if self.label(r) not in ROOT_OPS})
        return {
            "spans": self.window[1] - self.window[0],
            "open_spans": open_spans,
            "non_op_roots": bad_roots,
            "ok": open_spans == 0 and not bad_roots,
        }

    def write_jsonl(self, path: str) -> None:
        """The window's spans, and the earlier spans they descend from."""
        keep = set(range(*self.window))
        for span in range(*self.window):
            up = self.parent[span]
            while up >= 0 and up not in keep:
                keep.add(up)
                up = self.parent[up]
        with open(path, "w") as out:
            for span in sorted(keep):
                out.write(json.dumps({
                    "id": span, "name": self.label(span), "start": self.start[span],
                    "end": self.end[span], "parent": self.parent[span],
                    "root": self.root[span], "a": self.a[span], "b": self.b[span],
                }) + "\n")

    def summarize(self, chunk_pool: Optional[str]) -> Dict[str, Any]:
        """The span-derived raw numbers the per-layer metrics are built from."""
        self_t = self.self_times()
        kind_of_root = [ROOT_OPS.get(self.label(r)) for r in self.root]
        # Simulated self time by (root op kind, layer).
        sim_self: Dict[str, Dict[str, float]] = {k: {} for k in set(ROOT_OPS.values())}
        dev = {"disk": [0.0, 0.0], "nic": [0.0, 0.0]}  # [span seconds, wait seconds]
        write_rpcs = read_rpcs = batches = batch_items = 0
        fetches = round_trips = 0
        pool_bytes_by_read: Dict[int, int] = {}
        rmw = set()
        prereads = 0
        # An RPC that only hands over to another one (a batch of one item
        # becomes a plain read) is not a round trip of its own.
        rpcs = _WRITE_RPCS + _READ_RPCS
        delegating = {
            self.parent[span] for span in range(*self.window) if self.label(span) in rpcs
        }
        for span in range(*self.window):
            label = self.names[self.name_id[span]]
            kind = kind_of_root[span]
            if kind is not None:
                by_layer = sim_self[kind]
                layer = self.layers[label]
                by_layer[layer] = by_layer.get(layer, 0.0) + self_t[span]
            end = self.end[span]
            if end is None:
                continue
            a = self.a[span]
            if label.startswith(("Disk.", "Nic.")) and a is not None:
                slot = dev["disk" if label.startswith("Disk.") else "nic"]
                slot[0] += end - self.start[span]
                slot[1] += max(0.0, end - self.start[span] - a)
            elif label in rpcs and span in delegating:
                continue
            elif label in _WRITE_RPCS:
                write_rpcs += 1
            elif label in _READ_RPCS:
                read_rpcs += 1
                pool = a[0] if isinstance(a, tuple) else a
                if kind == "read" and pool == chunk_pool:
                    n = a[1] if isinstance(a, tuple) and a[1] else 1
                    fetches += n
                    round_trips += 1
                    root = self.root[span]
                    pool_bytes_by_read[root] = pool_bytes_by_read.get(root, 0) + (self.b[span] or 0)
            if label in _BATCH_RPCS and isinstance(a, tuple) and a[1]:
                batches += 1
                batch_items += a[1]
            if label == "DedupTier.read_chunk":
                if kind == "write":
                    prereads += 1
                elif kind == "engine":
                    # The engine's read-modify-write merge: a flushed chunk
                    # fetched while a dirty object is processed (promotions
                    # fetch chunks too, but have no process_object ancestor).
                    up = self.parent[span]
                    while up >= 0 and self.label(up) != "DedupEngine.process_object":
                        up = self.parent[up]
                    if up >= 0:
                        rmw.add((up, a))
        read_roots = [
            r for r in range(*self.window)
            if self.root[r] == r and self.label(r) == "DedupedStorage.read" and self.b[r]
        ]
        return {
            "user_read_bytes": sum(self.b[r] for r in read_roots),
            "pool_read_bytes": sum(
                min(self.b[r], pool_bytes_by_read.get(r, 0)) for r in read_roots
            ),
            "sim_self_s": sim_self,
            "device_span_wait_s": dev,
            "write_rpcs": write_rpcs,
            "read_rpcs": read_rpcs,
            "batches": batches,
            "batch_items": batch_items,
            "read_chunk_fetches": fetches,
            "read_round_trips": round_trips,
            "rmw_chunks": len(rmw),
            "foreground_prereads": prereads,
        }


class Instruments:
    """All three instruments of a traced pass, around its measured phase."""

    def __init__(self, storage) -> None:
        """Call right after the system is built, before its first op:
        spans are recorded from the start, for whole parent chains."""
        self.storage = storage
        self.tracer = SpanTracer(storage.sim)
        self.tracer.install()
        self.tracer.enabled = True
        self.absent: List[str] = list(self.tracer.absent)
        self.profile = cProfile.Profile()
        self.before: Optional[Dict[str, Any]] = None
        self.after: Optional[Dict[str, Any]] = None

    def begin(self) -> None:
        self.before = read_counters(self.storage, self.absent)
        self.tracer.open_window()
        self.profile.enable()

    def end(self) -> None:
        self.profile.disable()
        self.tracer.close_window()
        self.after = read_counters(self.storage, self.absent)

    def close(self) -> None:
        self.profile.disable()
        self.tracer.enabled = False
        self.tracer.uninstall()

    def report(self, bench_dir: str) -> Dict[str, Any]:
        chunk_pool = getattr(getattr(self.storage.tier, "chunk_pool", None), "name", None)
        return {
            "profile": profile_rollup(self.profile, bench_dir),
            "spans": self.tracer.summarize(chunk_pool),
            "span_check": self.tracer.check(),
            "counters_before": self.before,
            "counters_after": self.after,
            "absent": self.absent,
        }


# -- (c) counters from public attributes --------------------------------------------


def _as_dict(obj) -> Dict[str, float]:
    data = asdict(obj) if is_dataclass(obj) else vars(obj)
    return {k: v for k, v in data.items() if isinstance(v, (int, float))}


def _device_totals(storage) -> Dict[str, float]:
    cluster = storage.cluster
    now = storage.sim.now
    disks = [osd.disk for osd in cluster.osds.values()]
    nodes = list(cluster.nodes.values())
    out = {
        "disk_ops": sum(d.reads + d.writes for d in disks),
        "disk_bytes_written": sum(d.bytes_written for d in disks),
        "nic_bytes": sum(n.nic.bytes_sent for n in nodes),
        "cpu_busy_s": sum(n.cpu.busy_seconds for n in nodes),
    }
    # utilization() is busy/elapsed since t=0, so x now gives busy seconds.
    for i, disk in enumerate(disks):
        out["disk_busy_s.%d" % i] = disk.utilization() * now
    return out


def dirty_objects(storage) -> int:
    """Objects on the dirty list (a property today; a method is fine too)."""
    count = storage.tier.dirty_count
    return count() if callable(count) else count


#: name -> reader(storage); each is tried on its own, so one vanished
#: attribute costs only the metrics that needed it.
COUNTER_SOURCES: Dict[str, Callable[[Any], Dict[str, float]]] = {
    "stage": lambda st: dict(st.tier.stage.snapshot()),
    "engine": lambda st: _as_dict(st.engine.stats),
    "retry": lambda st: _as_dict(st.tier.retry_stats),
    "cache": lambda st: {"cached_bytes": st.tier.cache.cached_bytes},
    "devices": _device_totals,
    "backlog": lambda st: {"dirty": dirty_objects(st)},
}


def read_counters(storage, absent: List[str]) -> Dict[str, Optional[Dict[str, float]]]:
    out: Dict[str, Optional[Dict[str, float]]] = {}
    for name, reader in COUNTER_SOURCES.items():
        try:
            out[name] = reader(storage)
        except (AttributeError, TypeError, KeyError) as error:
            out[name] = None
            line = "counter source %s: %r" % (name, error)
            if line not in absent:
                absent.append(line)
    return out


def counter_delta(before, after, source: str, key: str) -> Optional[float]:
    """``after - before`` of one counter, or ``None`` when it is absent."""
    try:
        return after[source][key] - before[source][key]
    except (KeyError, TypeError):
        return None
