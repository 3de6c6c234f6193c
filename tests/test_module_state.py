"""No lossprio module writes another's attributes: what a call needs from its
caller reaches it as an argument, never as process state set beforehand."""

import ast
from pathlib import Path

import pytest

from lossprio import harness

SRC = Path(harness.__file__).resolve().parent


def _package_names(tree) -> set[str]:
    """Names the source binds to lossprio or one of its modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "lossprio" or (node.level == 1 and node.module is None)):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "lossprio")
    return names


def _foreign_writes(module: str, source: str) -> list[str]:
    """Each place in source that assigns, deletes or setattr()s an attribute
    of a lossprio module it imported, in any target an assignment binds."""
    tree = ast.parse(source)
    names = _package_names(tree)

    def owned(node) -> bool:
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in names

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            target = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and node.args):
            target = node.args[0]
        else:
            continue
        if owned(target):
            found.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_module_writes_another_modules_attributes():
    found = [w for path in sorted(SRC.glob("*.py"))
             for w in _foreign_writes(path.stem, path.read_text())]
    assert found == []


@pytest.mark.parametrize("source, caught", [
    ("from . import harness\nharness.flag = True", True),
    ("from . import harness\nharness.a, b = 1, 2", True),
    ("from . import harness\nx, [harness.a, y] = 1, (2, 3)", True),
    ("from . import harness\ndef f():\n    harness.a += 1", True),
    ("from . import harness as h\nsetattr(h, 'a', 1)", True),
    ("from . import harness\ndelattr(harness, 'a')", True),
    ("from lossprio import cli\ncli.a: int = 1", True),
    ("import lossprio.harness\nlossprio.harness.a = 1", True),
    ("from . import harness\nharness.RunMetrics.a = 1", True),
    ("from . import harness\nx = harness.a\nharness.f(a=1)", False),
    ("from . import harness\ndef f(self):\n    self.a = harness.b", False),
    ("from .harness import run_training\nx = run_training", False),
    ("import numpy as np\nnp.a = 1", False),
    ("_state = None\ndef f():\n    global _state\n    _state = 1", False),
    ("from . import harness\nsetattr(params, 'a', harness.b)", False),
])
def test_the_state_check_catches_each_way_of_writing(source, caught):
    assert bool(_foreign_writes("cli", source)) == caught
