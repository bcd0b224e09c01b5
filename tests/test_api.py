import ast
import importlib
import pathlib
import pkgutil

import pytest

import plapopt

# __main__ runs the CLI on import
MODULES = ["plapopt"] + [
    f"plapopt.{m.name}"
    for m in pkgutil.iter_modules(plapopt.__path__)
    if m.name != "__main__"
]
SOURCES = sorted(pathlib.Path(plapopt.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_reexports_match_all():
    # every name the package imports is listed in __all__, and no other
    init = pathlib.Path(plapopt.__file__)
    tree = ast.parse(init.read_text(), str(init))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(imported) == sorted(n for n in plapopt.__all__ if n != "__version__")


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node):
    """Whether an ``import from`` node imports from plapopt itself."""
    return node.level > 0 or (node.module or "").split(".")[0] == "plapopt"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reaches_into_private_helpers(path):
    # neither ``from .m import _x`` nor ``m._x`` on a sibling module m
    siblings = {p.stem for p in SOURCES}
    tree = ast.parse(path.read_text(), str(path))
    modules, reaches = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            for alias in node.names:
                if _private(alias.name):
                    reaches.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module in (None, "plapopt") and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("plapopt.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reaches.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    assert not reaches
