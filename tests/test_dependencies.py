"""The package may import only the standard library, numpy and itself.

``pyproject.toml`` declares numpy as the only dependency, so an import of an
undeclared package (scipy, say) can pass wherever that package happens to be
installed and still break a clean install.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "encsearch"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "encsearch"}


def imported_modules(source: str) -> set[str]:
    """Top-level names of every absolute import in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_declared_dependencies():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    offending = {
        f.name: sorted(imported_modules(f.read_text()) - ALLOWED) for f in files
    }
    assert {name: mods for name, mods in offending.items() if mods} == {}


def test_guard_sees_every_import_form():
    source = (
        "import os, scipy.linalg\n"
        "from sklearn import cluster\n"
        "from . import forest\n"
        "def f():\n"
        "    import pandas\n"
    )
    assert imported_modules(source) == {"os", "scipy", "sklearn", "pandas"}
