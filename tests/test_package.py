import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qiul
from qiul import errors

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


def test_float_error_policy_defined_once():
    # qiul.errors.raise_float_errors is the one np.errstate that raises;
    # local ones may only relax it (demodulate ignores division by zero)
    raising = []
    for path in sorted(Path(qiul.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "errstate"
                    and any(isinstance(kw.value, ast.Constant) and kw.value.value == "raise"
                            for kw in node.keywords)):
                raising.append(path.name)
    assert raising == ["errors.py"]


def test_float_error_policy_enters_twice():
    # one process enters the policy again and again, one block after the
    # other and one inside the other
    @errors.raise_float_errors()
    def divide(a, b):
        return a / b

    for _ in range(2):
        with errors.raise_float_errors(), pytest.raises(FloatingPointError):
            np.ones(1) / 0.0
        with errors.raise_float_errors(), errors.raise_float_errors():
            with pytest.raises(FloatingPointError):
                divide(np.ones(1), 0.0)


def test_every_leaf_error_is_raised():
    # the errors module promises that the package raises every leaf
    # class: each one appears in a `raise Leaf` or `raise Leaf(...)`
    def leaves(cls):
        subclasses = cls.__subclasses__()
        return {leaf for sub in subclasses for leaf in leaves(sub)} if subclasses else {cls}

    declared = {cls.__name__ for cls in leaves(errors.ToolkitError)}
    raised = set()
    for path in Path(qiul.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert declared - raised == set()
