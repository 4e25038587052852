"""Every name a vacpol module exports in ``__all__`` resolves in it."""

import importlib
import pkgutil

import pytest

import vacpol

# __main__ runs the command line on import
MODULES = ["vacpol"] + [f"vacpol.{info.name}" for info in pkgutil.iter_modules(vacpol.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
