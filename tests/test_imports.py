"""Every name a library module imports is used in that module.

The check reads the source with the standard-library ast module: a name
counts as used when it appears anywhere in the module, inside a string
annotation such as "Multivector" too, or when it is listed in the
module's __all__.  Imports from __future__ are exempt."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "lierine").glob("*.py"))


def unused_imports(source: str):
    """The names imported by a module's source and never used in it, in
    order of their import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_keeps_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .signs import merge_sign, sort_with_sign\n"
        "from .gerst import Multivector as MV\n"
        "from .lrcore import AltForm, LieRinehart\n"
        "__all__ = ['LieRinehart']\n"
        "def f(x: 'MV'):\n"
        "    return sort_with_sign(x)\n"
    )
    assert unused_imports(source) == ["os", "merge_sign", "AltForm"]


def function_imports(source: str):
    """The line numbers of the imports that a module's source makes inside
    a function body."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(
        {inner.lineno for fn in functions for inner in ast.walk(fn) if isinstance(inner, (ast.Import, ast.ImportFrom))}
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_level_imports(path):
    assert function_imports(path.read_text()) == []


def test_checker_finds_imports_in_nested_functions():
    source = (
        "from .lrcore import LieRinehart\n"
        "def f():\n"
        "    def g():\n"
        "        from .twilled import Bigraded\n"
        "    import os\n"
    )
    assert function_imports(source) == [4, 5]


def test_package_imports_form_no_cycle():
    """The modules of the package import one another without a cycle, so
    each can be imported first."""
    graph = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        graph[path.stem] = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
        }
    done, active = set(), []

    def visit(name):
        assert name not in active, " -> ".join(active + [name])
        if name not in done:
            active.append(name)
            for dep in sorted(graph.get(name, ())):
                visit(dep)
            active.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def orphan_privates(sources):
    """module.name of every private top-level function or class in the
    sources, a dict from module name to source, that nothing outside its
    own definition refers to: by name, as an attribute or in an import."""
    statements = [(module, node) for module, source in sources.items() for node in ast.parse(source).body]
    refs = []
    for _, node in statements:
        names = set()
        for part in ast.walk(node):
            if isinstance(part, ast.Name):
                names.add(part.id)
            elif isinstance(part, ast.Attribute):
                names.add(part.attr)
            elif isinstance(part, ast.alias):
                names.add(part.name)
        refs.append((node, names))
    return [
        f"{module}.{node.name}"
        for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in names for other, names in refs if other is not node)
    ]


def test_every_private_definition_has_a_caller():
    assert orphan_privates({path.stem: path.read_text() for path in SOURCES}) == []


def test_checker_flags_private_code_with_no_caller():
    sources = {
        "exactla": (
            "def _echelon(m):\n"
            "    return _echelon(m)\n"
            "def _primitive(row):\n"
            "    return row\n"
            "def _exact(x):\n"
            "    return x\n"
            "class _Row:\n"
            "    pass\n"
            "def mat_rank(m):\n"
            "    def _inner():\n"
            "        return 0\n"
            "    return _primitive(m)\n"
        ),
        "calgebra": "from .exactla import _exact\nimport lierine\nROW = lierine.exactla._Row\n",
    }
    assert orphan_privates(sources) == ["exactla._echelon"]
