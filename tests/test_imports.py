"""Every imported name is used: the project ships no linter, so this walks the
syntax tree of each module under src/, tests/ and scripts/ with `ast`.

A name counts as used when it is read anywhere in its module (as a bare name
or the root of an attribute chain), appears in a string annotation, or is
listed in the module's `__all__` (a re-export). `from __future__` imports
are directives, not names.

A second walk finds where numpy and scipy are imported under src/: only the
simulator's generator (`simulate._rng`) imports numpy, inside the function,
so a process that never simulates never loads it; nothing imports scipy.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, nested ones too."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "NoiseModel"; prose fails to parse
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items() if name not in used)


def test_modules_found():
    assert {p.parent.name for p in MODULES} >= {"obbtrack", "tests", "scripts"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "from math import pi, tau as full_turn\n"
        "from typing import Sequence\n"
        "from .errors import ParseError\n"
        "__all__ = ['ParseError']\n"
        "def f(x: 'Sequence[int]'):\n"
        "    import json\n"
        "    return os.path.join(str(pi), str(x))\n"
    )
    assert unused_imports(source) == [(2, "itertools"), (4, "full_turn"), (9, "json")]


def import_sites(source: str, packages: tuple[str, ...]) -> list[tuple[str | None, str]]:
    """(enclosing function, module) of each absolute import of one of
    `packages`; the function is None for an import that runs when the module
    is imported (at top level, under an `if` or `try`, or in a class body)."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                sites.extend((function, alias.name) for alias in child.names if alias.name.split(".")[0] in packages)
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and child.module.split(".")[0] in packages:
                sites.append((function, child.module))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), None)
    return sites


def test_numpy_is_imported_only_inside_the_simulators_generator():
    # a module-level import would show with function None
    sites = [
        (path.name, function, module)
        for path in sorted((ROOT / "src" / "obbtrack").rglob("*.py"))
        for function, module in import_sites(path.read_text(encoding="utf-8"), ("numpy", "scipy"))
    ]
    assert sites == [("simulate.py", "_rng", "numpy")]


def test_import_site_checker():
    source = (
        "import numpy as np\n"
        "import numpyro, os.path\n"
        "from numpy.random import default_rng\n"
        "try:\n"
        "    import scipy.optimize\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    from numpy import pi\n"
        "    def m(self):\n"
        "        import numpy\n"
        "def f():\n"
        "    from . import numpy\n"
        "    from scipy import optimize\n"
    )
    assert import_sites(source, ("numpy", "scipy")) == [
        (None, "numpy"),
        (None, "numpy.random"),
        (None, "scipy.optimize"),
        (None, "numpy"),
        ("m", "numpy"),
        ("f", "scipy"),
    ]
