"""Meta-test: every public API item carries a docstring.

The library's contract includes documentation on every public item;
this test walks each package's ``__all__`` and fails on any public
class, function, or method group that lacks one.
"""

import importlib
import inspect
import pkgutil

import repro

PACKAGES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
]


def iter_public_items():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            yield package_name, name, getattr(package, name)


def test_packages_have_docstrings():
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        assert module.__doc__, f"{package_name} lacks a module docstring"


def test_all_modules_have_docstrings():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        if not hasattr(package, "__path__"):
            continue
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":  # importing it runs the CLI
                continue
            module = importlib.import_module(f"{package_name}.{info.name}")
            assert module.__doc__, f"{module.__name__} lacks a docstring"


def test_public_items_have_docstrings():
    undocumented = []
    for package_name, name, item in iter_public_items():
        if inspect.isclass(item) or inspect.isfunction(item):
            if not inspect.getdoc(item):
                undocumented.append(f"{package_name}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_public_methods_have_docstrings():
    undocumented = []
    for package_name, name, item in iter_public_items():
        if not inspect.isclass(item):
            continue
        for attr_name, attr in vars(item).items():
            if attr_name.startswith("_"):
                continue
            if inspect.isfunction(attr) and not inspect.getdoc(attr):
                undocumented.append(f"{package_name}.{name}.{attr_name}")
    assert not undocumented, f"undocumented public methods: {undocumented}"


def test_all_exports_resolve():
    for package_name, name, item in iter_public_items():
        assert item is not None, f"{package_name}.{name} exports None"
