"""Every public name earns a caller: each package's ``__all__`` lists
only what a bench, example, script or library path outside that package
uses.  A name only tests use is an internal; tests import it from its
module (``repro.cluster.ec.GF256``).

The library itself goes through the ``repro.cluster`` facade, the
paper's "underlying storage system" boundary: outside that package no
module of ``src/repro`` imports a cluster submodule or reads a private
attribute of a cluster object."""

import ast
import importlib
from pathlib import Path

import repro

from tests.core.test_config import caller_paths
from tests.test_api_documentation import PACKAGES

#: Exported with no caller outside their package, and why.
ALLOWED = {
    "repro.__version__": "the distribution's version",
    "repro.cluster.PriorWriteFailed": "raised to callers: the write built on failed",
    "repro.cluster.ObjectExists": "raised to callers: an exclusive create found the object",
    "repro.cluster.OsdError": "base of the OSD errors raised to callers",
    "repro.cluster.OsdDownError": "raised to callers: the OSD is down",
    "repro.cluster.OsdFullError": "raised to callers: the OSD is full",
    "repro.faults.FaultError": "base of the injected faults raised to callers",
    "repro.faults.TransientOpError": "raised to callers: an injected EIO",
    "repro.faults.OpTimeoutError": "raised to callers: an op's deadline passed",
    "repro.faults.NetworkPartitionError": "raised to callers: an injected partition",
    "repro.cluster.repair_pool": "to become the read-repair path (ROADMAP item 4)",
}


def identifiers(path):
    """The names a module uses: imported, named or read as an attribute
    (not words in comments, strings or docstrings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def one_name(name):
    """A process and its ``*_sync`` companion are one name."""
    return name[: -len("_sync")] if name.endswith("_sync") else name


def uncalled_exports():
    used_by = {path: identifiers(path) for path in caller_paths() if path.suffix == ".py"}
    uncalled = []
    for package in map(importlib.import_module, PACKAGES):
        home = Path(package.__file__).parent
        used = {
            one_name(name)
            for path, names in used_by.items()
            if home not in path.parents
            for name in names
        }
        uncalled.extend(
            f"{package.__name__}.{name}"
            for name in getattr(package, "__all__", ())
            if one_name(name) not in used
        )
    return uncalled


def test_every_exported_name_has_a_caller_outside_its_package():
    uncalled = {one_name(name) for name in uncalled_exports()}
    assert sorted(uncalled - ALLOWED.keys()) == []
    # An entry whose name gained a caller, or left ``__all__``, goes.
    assert sorted(ALLOWED.keys() - uncalled) == []


def facade_bypasses(path):
    """``line: what`` for each import of a ``repro.cluster`` submodule
    and each read of ``cluster._name`` (or ``<x>.cluster._name``) in
    ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [
                f"{node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.startswith("repro.cluster.")
            ]
        elif isinstance(node, ast.ImportFrom):
            # ``from ..cluster.osd import X`` at any level reads "cluster.osd".
            target = ("repro." if node.level else "") + (node.module or "")
            if target.startswith("repro.cluster."):
                found.append(f"{node.lineno}: import {target}")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and (
                isinstance(node.value, ast.Name) and node.value.id == "cluster"
                or isinstance(node.value, ast.Attribute) and node.value.attr == "cluster"
            )
        ):
            found.append(f"{node.lineno}: cluster.{node.attr}")
    return found


def test_only_the_cluster_package_reaches_past_its_facade():
    home = Path(repro.__file__).parent
    found = {
        str(path.relative_to(home)): facade_bypasses(path)
        for path in sorted(home.rglob("*.py"))
        if path.relative_to(home).parts[0] != "cluster"
    }
    assert {module: lines for module, lines in found.items() if lines} == {}
