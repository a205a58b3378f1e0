"""Determinism rules (DET001-DET003).

The paper's double-hashing design makes placement a pure function of
content: the chunk ID is the fingerprint, and CRUSH hashes that ID to an
OSD.  Anything nondeterministic feeding that path — wall-clock reads,
unseeded randomness, set-iteration order (which varies run-to-run under
string hash randomisation) — silently breaks replayability of every
seeded experiment.  These rules reject such sources at diff time.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..engine import Finding, ScopedRule, SourceModule

__all__ = ["ImportMap", "WallClockRule", "UnseededRandomRule", "SetOrderRule"]


class ImportMap:
    """Alias -> dotted-origin map built from a module's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Used to
    resolve call targets back to their canonical dotted names.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, if import-derived."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        origin = self.aliases.get(current.id)
        if origin is None:
            return None
        return ".".join([origin] + list(reversed(parts)))


#: Wall-clock callables banned inside deterministic components.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(ScopedRule):
    """DET001: no wall-clock reads inside the simulated components.

    ``repro.sim``/``repro.cluster``/``repro.core`` run entirely on the
    simulated clock; a real-time read there either leaks into simulated
    state (breaking determinism) or silently measures the wrong clock.
    Wall-clock timing belongs outside them: ``benchmarks/e2e`` times
    the host clock, and ``repro.fingerprint.timed_fingerprint`` is the
    one in-tree helper the engine calls for hashing cost.
    """

    id = "DET001"
    title = "wall-clock read in a simulated component"
    scope = ("repro.sim", "repro.cluster", "repro.core")

    def check(self, mod: SourceModule) -> Iterable[Finding]:
        imports = ImportMap(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = imports.resolve(node.func)
            if dotted in _WALL_CLOCK:
                yield mod.finding(
                    self,
                    node,
                    f"wall-clock call {dotted}() in deterministic component"
                    f" {mod.module}; use the simulated clock (sim.now) or"
                    f" move the measurement out of the simulated packages",
                )


class UnseededRandomRule(ScopedRule):
    """DET002: all randomness must flow through ``repro.sim.rng``.

    Module-level ``random.*`` functions share one hidden global stream:
    any new caller perturbs every existing draw, so two runs of "the
    same" seeded experiment diverge the moment unrelated code asks for
    a random number.  ``random.Random()`` without a seed (and
    ``SystemRandom``) are nondeterministic outright.  Named streams from
    :class:`repro.sim.rng.RngRegistry` (or an explicitly seeded
    ``random.Random(seed)`` for module-local tables) are the sanctioned
    sources.
    """

    id = "DET002"
    title = "unseeded or global-stream randomness"
    scope = ("repro",)

    def check(self, mod: SourceModule) -> Iterable[Finding]:
        imports = ImportMap(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = imports.resolve(node.func)
            if dotted is None:
                continue
            if dotted == "random.Random":
                if not node.args and not node.keywords:
                    yield mod.finding(
                        self,
                        node,
                        "unseeded random.Random(): seed it explicitly or"
                        " draw from a repro.sim.rng.RngRegistry stream",
                    )
            elif dotted == "random.SystemRandom":
                yield mod.finding(
                    self,
                    node,
                    "random.SystemRandom is nondeterministic by design;"
                    " draw from a repro.sim.rng.RngRegistry stream",
                )
            elif dotted.startswith("random."):
                yield mod.finding(
                    self,
                    node,
                    f"module-level {dotted}() uses the hidden global RNG"
                    f" stream; draw from a repro.sim.rng.RngRegistry stream",
                )
            elif dotted.startswith("numpy.random.") or dotted.startswith(
                "np.random."
            ):
                tail = dotted.split("random.", 1)[1]
                if tail == "default_rng" and (node.args or node.keywords):
                    continue  # explicitly seeded generator
                yield mod.finding(
                    self,
                    node,
                    f"{dotted}() draws from numpy's global (or unseeded)"
                    f" RNG; derive a seed via repro.sim.rng.derive_seed and"
                    f" pass it to numpy.random.default_rng",
                )


def _is_set_call(node: ast.Call) -> bool:
    return isinstance(node.func, ast.Name) and node.func.id in (
        "set",
        "frozenset",
    )


def _self_attr(node: ast.AST) -> bool:
    """Whether ``node`` is ``self.<name>``."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class SetOrderRule(ScopedRule):
    """DET003: never iterate a set where order can feed placement.

    Set iteration order depends on string hash randomisation
    (``PYTHONHASHSEED``), so a loop over a set of chunk IDs or OSD ids
    emits a different order every process — and any placement or
    chunk-ordering decision derived from it stops being replayable.
    Wrap the iterable in ``sorted(...)`` to pin the order.

    A set is known by its expression (a literal, ``set(...)``, a set
    operator), by a local name assigned one, or by an attribute
    ``self.<name>`` assigned one anywhere in the class whose methods
    iterate it.
    """

    id = "DET003"
    title = "iteration over a set with unpinned order"
    scope = (
        "repro.sim",
        "repro.cluster",
        "repro.core",
        "repro.fingerprint",
        "repro.chunking",
    )

    #: Order-insensitive consumers a set expression may appear under.
    _SAFE_CALLS = {
        "sorted",
        "len",
        "sum",
        "min",
        "max",
        "any",
        "all",
        "set",
        "frozenset",
        "bool",
    }

    def check(self, mod: SourceModule) -> Iterable[Finding]:
        set_names = self._set_typed_names(mod)
        for node in ast.walk(mod.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                # A comprehension feeding an order-insensitive aggregate
                # (sum(... for x in s), any(...), a set comprehension) is
                # safe: the consumer collapses the order away.
                if isinstance(node, (ast.SetComp, ast.DictComp)):
                    continue
                parent = mod.parent(node)
                if (
                    isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in self._SAFE_CALLS
                ):
                    continue
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("list", "tuple", "enumerate") and node.args:
                    iters.append(node.args[0])
            for target in iters:
                scopes = self._scopes_of(mod, target)
                if self._is_set_expr(target, set_names, scopes):
                    yield mod.finding(
                        self,
                        target,
                        "iteration over a set: order varies per process"
                        " (PYTHONHASHSEED); wrap in sorted(...) to pin it",
                    )

    def _set_typed_names(self, mod: SourceModule) -> Set[Tuple[Optional[ast.AST], str]]:
        """(enclosing function, name) pairs assigned a set expression,
        and (enclosing class, ``"self.<name>"``) for attributes."""
        names: Set[Tuple[Optional[ast.AST], str]] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]  # ``names: Set[str] = set()``
            else:
                continue
            scopes = self._scopes_of(mod, node)
            if not self._is_set_expr(node.value, names, scopes):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add((scopes[0], target.id))
                elif _self_attr(target) and scopes[1] is not None:
                    names.add((scopes[1], "self." + target.attr))
        return names

    @staticmethod
    def _scopes_of(
        mod: SourceModule, node: ast.AST
    ) -> Tuple[ast.AST, Optional[ast.ClassDef], ast.AST]:
        """(enclosing function or module, enclosing class or None, module)."""
        function = cls = None
        for anc in mod.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                function = function or anc
            elif isinstance(anc, ast.ClassDef):
                cls = cls or anc
        return (function or mod.tree, cls, mod.tree)

    def _is_set_expr(
        self,
        node: ast.AST,
        set_names: Set[Tuple[Optional[ast.AST], str]],
        scopes: Tuple[ast.AST, Optional[ast.ClassDef], ast.AST],
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and _is_set_call(node):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(
                node.left, set_names, scopes
            ) or self._is_set_expr(node.right, set_names, scopes)
        if isinstance(node, ast.Name):
            return any((scope, node.id) in set_names for scope in scopes)
        if _self_attr(node):
            return (scopes[1], "self." + node.attr) in set_names
        return False
