import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


# a fresh process that imports the package and the CLI and runs the
# surface-divergence route, then prints the scipy subpackages it loaded
FOOTPRINT = """
import sys
import plapopt, plapopt.cli
from plapopt import SolveConfig, build_disk_mesh, derivative_report, step_load, tangent_field
mesh = build_disk_mesh(1.0, 8, 2)
field = tangent_field("sin:1", mesh.total_boundary_length)
derivative_report(mesh, step_load(mesh, [0.0, 1.0]), field, SolveConfig(p=1.5))
print(*sorted(m for m in sys.modules if m.startswith("scipy.")))
"""


def test_import_footprint():
    # plapopt needs only scipy.sparse and its linalg; scipy.interpolate
    # would pull in scipy.optimize, scipy.special, scipy.fft and more
    src = pathlib.Path(plapopt.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    loaded = set(out.split())
    assert "scipy.sparse" in loaded
    assert not loaded & {"scipy.interpolate", "scipy.optimize"}


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
