"""Static checks over the package's own source files."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import spkver
from spkver.pipeline import STAGES

SRC = Path(spkver.__file__).resolve().parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))


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


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read in a tree: as a bare name, an attribute,
    or an imported name."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


# entry points, read by the installed `spkver` script rather than by package
# code, and the stage commands, which run_stage looks up by their names
ENTRY_POINTS = {("cli.py", "main"), ("pipeline.py", "cmd_e2e")} | {
    ("pipeline.py", f"cmd_{stage}") for stage in STAGES}


def unused_defs(sources: dict, exempt=ENTRY_POINTS) -> list:
    """(module, line, name) of every top-level def or class, public or
    private, that no code of the package reads outside its own body; tests
    do not count as readers. `sources` maps module names to source text;
    `exempt` holds (module, name) pairs that are never reported."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("__") and (module, node.name) not in exempt
        and reads[node.name] == _reads(node)[node.name]
    )


def test_checker_flags_unused_private_defs():
    sources = {
        "a.py": (
            "def _used(x):\n"
            "    return x\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Unused:\n"
            '    """_Unused in a docstring is no reference."""\n'
            "def _imported():\n"
            "    pass\n"
            "def public():\n"
            "    return _used(1)\n"
            "def main():\n"
            "    return public()\n"
        ),
        "b.py": (
            "from .a import _imported\n"
            "from . import a\n"
            "def _by_attribute():\n"
            "    pass\n"
            "def _helper():\n"
            "    return a._by_attribute\n"
            "class Public:\n"
            "    pass\n"
        ),
    }
    assert unused_defs(sources, exempt={("a.py", "main")}) == [
        ("a.py", 3, "_recursive"), ("a.py", 5, "_Unused"), ("b.py", 5, "_helper"),
        ("b.py", 7, "Public")]
    assert ("a.py", 11, "main") in unused_defs(sources, exempt=set())


def test_no_unused_private_defs():
    sources = {module: (SRC / module).read_text(encoding="utf-8") for module in MODULES}
    assert unused_defs(sources) == []


def _names_blas_threads(statement: ast.stmt) -> bool:
    return any(isinstance(node, ast.Constant) and node.value == "OPENBLAS_NUM_THREADS"
               for node in ast.walk(statement))


def imports_before_blas_setting(source: str) -> list:
    """(line, module) of every import that may load numpy before the module
    sets OPENBLAS_NUM_THREADS, scanning its top-level statements in order:
    a relative import or one from outside the standard library. A module that
    never sets it gets (0, "OPENBLAS_NUM_THREADS") at the end."""
    found = []
    for node in ast.parse(source).body:
        if _names_blas_threads(node):
            return found
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names]
    return found + [(0, "OPENBLAS_NUM_THREADS")]


def test_blas_thread_setting_precedes_numpy():
    source = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert imports_before_blas_setting(source) == []


# a package __init__ that sets the thread count before its relative imports
_INIT = (
    '"""A package."""\n'
    "import os\n"
    'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n'
    "from .backend import cosine_score\n"
    "from .core import Metas\n"
    "from .nplda import train_nplda\n"
    '__version__ = "0.1.0"\n'
)


def test_checker_flags_a_reordered_init():
    assert imports_before_blas_setting(_INIT) == []
    tree = ast.parse(_INIT)
    setting = next(node for node in tree.body if _names_blas_threads(node))
    tree.body.remove(setting)
    tree.body.append(setting)  # as if imports were sorted above all statements
    flagged = [module for _, module in imports_before_blas_setting(ast.unparse(tree))]
    assert {".backend", ".core", ".nplda"} <= set(flagged)
    assert "os" not in flagged
    assert imports_before_blas_setting("import numpy\nimport os\n") == [
        (1, "numpy"), (0, "OPENBLAS_NUM_THREADS")]


def _is_no_setting(default: ast.expr) -> bool:
    """None, a bool or the empty tuple: a default that picks no value of a setting."""
    if isinstance(default, ast.Constant):
        return default.value is None or isinstance(default.value, bool)
    return isinstance(default, ast.Tuple) and not default.elts


def setting_defaults(source: str) -> list:
    """(qualified function name, parameter) of every parameter default, in
    a def or lambda at any depth, that is not None, a bool or (). Settings
    take their defaults from `PipelineConfig` alone, so a kernel's own
    numeric or object default is a second home for one."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional) - len(args.defaults):],
                                 args.defaults))
                pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                found.extend((name, arg.arg) for arg, d in pairs if not _is_no_setting(d))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


# the defaults that are no setting of the pipeline: a standalone extractor's
# seed and the rank `_checked` expects unless told otherwise
ALLOWED_DEFAULTS = {("extractor.py", "Extractor.init", "seed"),
                    ("metrics.py", "_checked", "ndim")}


def test_checker_flags_setting_defaults():
    source = (
        "def f(a, b=None, c=True, d=(), *, e=False, f=None, g):\n"
        "    def inner(x=0.5):\n"
        "        return x\n"
        "    return inner\n"
        "class K:\n"
        "    def m(self, p=Params(), q=(1,), r=-1):\n"
        "        return lambda y=2: y\n"
        "def h(u, v='x', /, w=[]):\n"
        "    pass\n"
        "async def k(*, z=3):\n"
        "    pass\n"
    )
    assert setting_defaults(source) == [
        ("f.inner", "x"), ("K.m", "p"), ("K.m", "q"), ("K.m", "r"), ("K.m.<lambda>", "y"),
        ("h", "v"), ("h", "w"), ("k", "z")]


def test_every_setting_default_is_the_configs():
    found = {(module, name, param) for module in MODULES
             for name, param in setting_defaults((SRC / module).read_text(encoding="utf-8"))}
    assert found - ALLOWED_DEFAULTS == set()
