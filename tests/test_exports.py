import importlib
import pkgutil

import pytest

import oscnoise

MODULES = ["oscnoise"] + [
    f"oscnoise.{info.name}" for info in pkgutil.iter_modules(oscnoise.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from module import *`` and misleads readers of the public API
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, missing
