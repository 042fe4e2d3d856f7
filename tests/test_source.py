"""Static checks over the package's own source files."""

import ast
from pathlib import Path

import pytest

import spkver

SRC = Path(spkver.__file__).resolve().parent
# __init__.py imports names to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds that the module never reads.

    A name counts as read wherever it appears as an expression, annotations
    included; `import a.b` binds `a`; `from __future__` imports bind nothing.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_checker_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Dict, Tuple\n"
        "def f(x: Tuple) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Dict")]


def test_every_module_is_checked():
    assert {"backend.py", "nplda.py", "pipeline.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
