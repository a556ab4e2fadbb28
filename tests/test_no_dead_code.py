"""Every function, class and method of the package has a caller.

A definition in ``src/encsearch/`` must be referenced somewhere in the
package or in the benchmark (``perfbench/``) outside its own body: a function
or class by name or attribute, a method or property by attribute only, since
a bare name that matches one is a local variable or another function.
Imports and re-exports are not references, and neither are the tests: code
that only tests reach is code nothing needs.  The allow-listed reference code
is exempt, but what it references is not kept alive by it.
``perfbench/tracing.py`` wraps functions by passing their names as strings,
so its string constants count as references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "encsearch"
BENCH = ROOT / "perfbench"

# Reference code that the tests check the system against.
ALLOWED = {
    "EncryptedVector": "criterion 1 checks one-vector encryption against score",
    "encrypt_vector": "criterion 1: the per-vector form of encrypt_matrix",
    "score": "criterion 1: the scalar score identity that node_scores batches",
    "round_score": "criterion 2 and the forest tests: the 1e-9 grid node_scores applies",
    "storage_ratio": "criterion 7 checks the paper's storage formula",
}


def definitions(tree: ast.Module) -> list[tuple[ast.AST, bool]]:
    """(node, is_method) of the top-level functions and classes, and of the
    methods of those classes; dunder methods are called by the language, not
    by name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node, False))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (m, True) for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            )
    return out


def references(tree: ast.Module, strings: bool) -> list[tuple[str, int, bool]]:
    """(name, line, reaches_methods) of every name and attribute read, and
    with ``strings`` of every string constant.  Only an attribute or a
    string can reach a method."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, True))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno, True))
    return out


def unreferenced(sources: dict[str, str], package: set[str], traced: str) -> list[str]:
    """``file:name`` of every definition in a ``package`` file that no file
    in ``sources`` references outside the definition's own lines and outside
    the allow-listed definitions."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defs = {file: definitions(trees[file]) for file in sorted(package)}
    allowed = {
        (file, node.lineno, node.end_lineno)
        for file, nodes in defs.items() for node, _ in nodes if node.name in ALLOWED
    }
    refs = {
        (name, ref, line, reaches_methods)
        for name, tree in trees.items()
        for ref, line, reaches_methods in references(tree, strings=name == traced)
        if not any(name == f and lo <= line <= hi for f, lo, hi in allowed)
    }
    out = []
    for file, nodes in defs.items():
        for node, is_method in nodes:
            used = any(
                ref == node.name
                and (reaches_methods or not is_method)
                and not (other == file and node.lineno <= line <= node.end_lineno)
                for other, ref, line, reaches_methods in refs
            )
            if not used and node.name not in ALLOWED:
                out.append(f"{file}:{node.name}")
    return out


def test_every_definition_has_a_caller():
    package = {f"encsearch/{f.name}": f.read_text() for f in sorted(PACKAGE.glob("*.py"))}
    bench = {f"perfbench/{f.name}": f.read_text() for f in sorted(BENCH.glob("*.py"))}
    assert package and bench
    assert unreferenced({**package, **bench}, set(package), "perfbench/tracing.py") == []


def test_allowed_names_are_defined():
    names = {
        node.name
        for f in PACKAGE.glob("*.py")
        for node, _ in definitions(ast.parse(f.read_text()))
    }
    assert set(ALLOWED) <= names


def test_guard_sees_each_kind_of_reference():
    lib = (
        "import os\n"
        "def used(): pass\n"
        "def score(): return helper()\n"
        "def helper(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def by_string(): pass\n"
        "def imported_only(): pass\n"
        "class K:\n"
        "    def __len__(self): return 0\n"
        "    def method(self): return self.method()\n"
        "    def called(self): pass\n"
        "    def shadowed(self): pass\n"
        "    def wrapped(self): pass\n"
    )
    user = (
        "from lib import imported_only\n"
        "used()\n"
        "K().called()\n"
        "shadowed, other = 1, 2\n"
        "print(shadowed)\n"
    )
    tracer = "wrap(lib, 'by_string')\nwrap(K, 'wrapped')\n"
    sources = {"lib": lib, "user": user, "tracer": tracer}
    # A local variable named like a method does not keep the method alive.
    assert unreferenced(sources, {"lib"}, "tracer") == [
        "lib:helper", "lib:recursive", "lib:imported_only", "lib:method", "lib:shadowed",
    ]
    # A string outside the tracing module is not a reference.
    assert "lib:by_string" in unreferenced(sources, {"lib"}, "user")
