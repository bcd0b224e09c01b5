import importlib
import pkgutil

import pytest

import plapopt

# __main__ runs the CLI on import
MODULES = ["plapopt"] + [
    f"plapopt.{m.name}"
    for m in pkgutil.iter_modules(plapopt.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
