import importlib
import pkgutil

import pytest

import qiul

MODULES_WITH_ALL = [
    info.name for info in pkgutil.iter_modules(qiul.__path__)
    if hasattr(importlib.import_module(f"qiul.{info.name}"), "__all__")
]


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_all_resolves(name):
    module = importlib.import_module(f"qiul.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from qiul.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
